"""Hidden-state guard: configuration is a value, not a module global.

A ``global`` statement is how a function rebinds module state, i.e. how
a row comes to depend on what ran earlier in the process.  ``src/repro``
may hold exactly two, neither of them configuration; the
``set_*_default()`` switches this guard replaced must not come back
under any name of that shape.  A module-level ``itertools.count()`` is
the same leak without the statement: the ids it hands out depend on how
many were drawn before, and ECMP hashes flow ids.  A caller that
assigns to an attribute of a ``repro`` module (``ls.largescale_scheme
= patched``) makes a variation that no signature shows; benchmarks,
examples and scripts pass their variations as arguments instead.
Static (an AST walk, no imports), so it runs in CI's fast step beside
``tests/test_import_graph.py``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Directories of callers, whose files must not patch ``repro`` modules.
CALLER_DIRS = ("benchmarks", "examples", "scripts")

#: ``file::name`` of every module global a function may rebind.
ALLOWED_GLOBALS = {
    # Memo of `git rev-parse`, resolved once per process for provenance.
    "store/runstore.py::_GIT_REVISION",
    # REPRO_SWEEP_CRASH_AFTER's counter (the CI resume job's crash hook).
    "store/sweep.py::_points_computed",
}

SETTER = re.compile(r"^set_\w+_default$")

#: ``file::name`` of every module-level counter.  Flow's default id,
#: which tests and examples still use; src/repro always passes one.
ALLOWED_COUNTERS = {"transport/flow.py::_flow_ids"}


def _walk_sources():
    for path in sorted(SRC.rglob("*.py")):
        yield (path.relative_to(SRC).as_posix(),
               ast.walk(ast.parse(path.read_text(), filename=str(path))))


def test_no_global_statement_outside_the_allow_list():
    found = {f"{name}::{target}"
             for name, nodes in _walk_sources() for node in nodes
             if isinstance(node, ast.Global) for target in node.names}
    assert found == ALLOWED_GLOBALS


def test_no_process_default_setters():
    setters = [f"{name}::{node.name}"
               for name, nodes in _walk_sources() for node in nodes
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and SETTER.match(node.name)]
    assert setters == []


def _is_count_call(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return ((isinstance(func, ast.Attribute) and func.attr == "count"
             and isinstance(func.value, ast.Name)
             and func.value.id == "itertools")
            or (isinstance(func, ast.Name) and func.id == "count"))


def test_no_module_level_counter_outside_the_allow_list():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) \
                    and _is_count_call(node.value):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                found.update(f"{name}::{ast.unparse(target)}"
                             for target in targets)
    assert found == ALLOWED_COUNTERS


def test_every_flow_in_src_is_given_its_id():
    unnumbered = [f"{name}:{node.lineno}"
                  for name, nodes in _walk_sources() for node in nodes
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "Flow"
                  and "flow_id" not in {kw.arg for kw in node.keywords}]
    assert unnumbered == []


def _is_repro_module(dotted: str) -> bool:
    parts = dotted.split(".")
    if parts[0] != "repro":
        return False
    path = SRC.joinpath(*parts[1:])
    return (path / "__init__.py").exists() or path.with_suffix(".py").exists()


def _module_aliases(tree) -> dict:
    """Local name -> dotted ``repro`` module, for every import in ``tree``
    (function-local ones included) that binds a module."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return {name: dotted for name, dotted in aliases.items()
            if _is_repro_module(dotted)}


def _names_repro_module(owner, aliases) -> bool:
    """Whether the expression ``owner`` is a ``repro`` module."""
    head, _, rest = ast.unparse(owner).partition(".")
    return head in aliases and _is_repro_module(
        aliases[head] + ("." + rest if rest else ""))


def _module_patches(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = _module_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        owners = [t.value for t in targets if isinstance(t, ast.Attribute)]
        if (isinstance(node, ast.Call) and node.args
                and ast.unparse(node.func).endswith("setattr")):
            # setattr(mod, "name", v) / monkeypatch.setattr(mod, "name", v)
            owners.append(node.args[0])
        if any(_names_repro_module(owner, aliases) for owner in owners):
            yield f"{path.relative_to(ROOT).as_posix()}:{node.lineno}"


def test_callers_do_not_patch_repro_modules():
    """A variation is an argument: no benchmark, example or script
    assigns to an attribute of a ``repro`` module it imported."""
    patches = [hit for directory in CALLER_DIRS
               for path in sorted((ROOT / directory).rglob("*.py"))
               for hit in _module_patches(path)]
    assert patches == []
