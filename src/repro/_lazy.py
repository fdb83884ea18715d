"""PEP 562 lazy re-exports for the package ``__init__`` modules.

``import repro`` (and ``import repro.cli``) must cost what the process
goes on to use: a cache-hit ``repro sweep`` needs the run store and the
spec dataclasses, not the transports, the workload generators or numpy.
Each package ``__init__`` therefore declares *where* its public names
live and resolves them on first attribute access; the submodules
themselves import eagerly, as before.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str,
    table: Mapping[str, Sequence[str]],
    submodules: Sequence[str] = (),
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps a relative module (``".engine"``, ``"..store"``) to
    the public names it defines; ``submodules`` are re-exported as the
    modules themselves.  A resolved name is cached in the package
    namespace, so ``__getattr__`` runs once per name and
    ``from package import name`` hands back the very object the defining
    module holds.
    """
    namespace = sys.modules[package].__dict__
    origin = {name: module for module, names in table.items()
              for name in names}

    def __getattr__(name: str) -> object:
        if name in origin:
            value = getattr(import_module(origin[name], package), name)
        elif name in submodules:
            value = import_module(f".{name}", package)
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin) | set(submodules))

    return __getattr__, __dir__, sorted([*origin, *submodules])
