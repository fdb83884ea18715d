"""Hidden-state guard: configuration is a value, not a module global.

A ``global`` statement is how a function rebinds module state, i.e. how
a row comes to depend on what ran earlier in the process.  ``src/repro``
may hold exactly two, neither of them configuration; the
``set_*_default()`` switches this guard replaced must not come back
under any name of that shape.  Static (an AST walk, no imports), so it
runs in CI's fast step beside ``tests/test_import_graph.py``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``file::name`` of every module global a function may rebind.
ALLOWED_GLOBALS = {
    # Memo of `git rev-parse`, resolved once per process for provenance.
    "store/runstore.py::_GIT_REVISION",
    # REPRO_SWEEP_CRASH_AFTER's counter (the CI resume job's crash hook).
    "store/sweep.py::_points_computed",
}

SETTER = re.compile(r"^set_\w+_default$")


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
