"""Deterministic random-number plumbing.

Every scenario owns exactly one root :class:`numpy.random.Generator`
seeded from the scenario seed.  Components that need independent streams
(workload generator, ECMP hashing salt, per-flow jitter) derive child
generators through :func:`spawn`, so adding a new consumer never perturbs
the draws seen by existing ones.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["make_rng", "spawn", "stable_hash", "stable_digest"]

_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def make_rng(seed: int) -> np.random.Generator:
    """Create the root generator for a scenario."""
    # numpy is imported by the functions that draw, not by this module:
    # spec hashing (`stable_digest`) must not cost a numpy import.
    import numpy as np
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int = 1) -> Iterator[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``."""
    import numpy as np
    for seed_seq in rng.bit_generator.seed_seq.spawn(n):  # type: ignore[attr-defined]
        yield np.random.default_rng(seed_seq)


def stable_hash(*parts: int) -> int:
    """A fast, deterministic 64-bit mix of integers.

    Python's built-in ``hash`` is salted per process for strings and must
    not be used for ECMP path selection (runs would not be reproducible).
    This is a splitmix64-style finalizer over the parts.
    """
    acc = 0
    for part in parts:
        acc = (acc + (part & _MASK64) + _GOLDEN64) & _MASK64
        acc ^= acc >> 30
        acc = (acc * 0xBF58476D1CE4E5B9) & _MASK64
        acc ^= acc >> 27
        acc = (acc * 0x94D049BB133111EB) & _MASK64
        acc ^= acc >> 31
    return acc


def _canonical(value: Any) -> Any:
    """Reduce a value to the JSON-stable subset ``stable_digest`` hashes.

    Mappings are key-sorted, sequences become lists, and anything outside
    str/int/float/bool/None is rejected rather than hashed by repr — an
    unhashable-by-accident object must fail loudly, not silently change
    the digest between releases.
    """
    if isinstance(value, dict):
        out = {}
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"stable_digest keys must be str, got "
                                f"{type(key)!r}")
            out[key] = _canonical(value[key])
        return out
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    # A numpy scalar can only exist once numpy has been imported.
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"not stable-hashable: {type(value)!r}")


def stable_digest(value: Any) -> str:
    """A process-independent SHA-256 hex digest of a JSON-able value.

    The run store keys every experiment point by this digest of its
    canonicalized :class:`~repro.store.ExperimentSpec`; the same spec must
    hash identically in every worker process, on every platform and at
    every ``--jobs`` level.  Canonical form: sorted dict keys, tuples as
    lists, floats via ``repr`` (exact for round-tripping doubles), no
    whitespace.  Python's salted ``hash()`` must never leak in here.
    """
    blob = json.dumps(_canonical(value), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()
