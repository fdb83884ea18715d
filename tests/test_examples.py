"""Smoke checks on the example scripts.

Importing each example compiles it and executes its module level (all
heavy work is behind ``if __name__ == "__main__"``), catching bit-rot
against the public API without paying each script's full runtime.  One
fast example is additionally executed end-to-end.
"""

from __future__ import annotations

import importlib.util
import pathlib
import re
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
SCRIPTS = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


class TestExamples:
    def test_expected_scripts_present(self):
        # examples/README.md has one row per script, and names no other.
        assert "quickstart.py" in SCRIPTS
        listed = re.findall(r"^\| `([\w.]+\.py)` \|",
                            (EXAMPLES_DIR / "README.md").read_text(), re.M)
        assert sorted(listed) == SCRIPTS

    @pytest.mark.parametrize("script", SCRIPTS)
    def test_imports_cleanly(self, script):
        path = EXAMPLES_DIR / script
        spec = importlib.util.spec_from_file_location(
            f"example_{script[:-3]}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert hasattr(module, "main")

    @pytest.mark.slow
    def test_quickstart_runs_end_to_end(self):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "PMSB" in result.stdout
        assert "5.00 Gbps" in result.stdout
