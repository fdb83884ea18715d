"""Import-graph guard: a process pays only for what it touches.

Each probe runs in a fresh interpreter (this one has imported half the
package already) and reports what ended up in ``sys.modules`` and
whether anything tried to start a child process.  See docs/API.md,
"Start-up and import policy".
"""

from __future__ import annotations

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = ["repro", "repro.core", "repro.ecn",
            "repro.experiments", "repro.metrics", "repro.net",
            "repro.scheduling", "repro.sim", "repro.store",
            "repro.transport", "repro.workloads"]

#: Everything under repro.experiments a command may load without
#: running an experiment family.
LIGHT_EXPERIMENTS = {"repro.experiments", "repro.experiments.scale",
                     "repro.experiments.runner"}

PROBE = """
import json, os, subprocess, sys
spawned = []
def _refuse(*args, **kwargs):
    spawned.append(1)
    raise AssertionError("tried to start a child process")
os.fork = _refuse
subprocess.Popen.__init__ = _refuse
{body}
print("\\n" + json.dumps({{"modules": sorted(sys.modules),
                          "spawned": len(spawned)}}))
"""


def probe(body: str) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def assert_light(report: dict, experiments=frozenset()) -> None:
    modules = report["modules"]
    assert "numpy" not in modules
    heavy = [name for name in modules
             if name.startswith(("repro.workloads", "repro.transport"))]
    assert heavy == []
    families = [name for name in modules
                if name.startswith("repro.experiments")
                and name not in LIGHT_EXPERIMENTS | set(experiments)]
    assert families == []
    assert report["spawned"] == 0


class TestStartUp:
    def test_import_repro(self):
        report = probe("import repro")
        assert_light(report)
        assert [m for m in report["modules"] if m.startswith("repro")] \
            == ["repro", "repro._lazy"]

    def test_import_cli(self):
        assert_light(probe("import repro.cli"))

    def test_list_command(self):
        assert_light(probe(
            "from repro.cli import main; assert main(['list']) == 0"))

    def test_runs_list_command(self, tmp_path):
        assert_light(probe(
            "from repro.cli import main\n"
            f"assert main(['runs', 'list', '--cache-dir', {str(tmp_path)!r}])"
            " == 0"))

    def test_table1_command(self):
        assert_light(probe(
            "from repro.cli import main; assert main(['table1']) == 0"))


class TestVictimScenario:
    def test_an_incast_loads_neither_numpy_nor_a_pool(self):
        # The Fig. 3/8 scenario's rates come from ``average_bps``: no
        # array is built, and nothing forks in a single-process run.
        report = probe(
            "from repro.experiments.scenario import (incast_flows,\n"
            "    make_scheme, run_incast)\n"
            "from repro.scheduling.dwrr import DwrrScheduler\n"
            "from repro.store.spec import RunConfig\n"
            "result = run_incast(make_scheme('pmsb'), lambda: DwrrScheduler(2),\n"
            "                    incast_flows([1, 2]),\n"
            "                    config=RunConfig(duration=0.001))\n"
            "assert result.total_gbps > 0")
        assert "numpy" not in report["modules"]
        assert "multiprocessing" not in report["modules"]
        assert report["spawned"] == 0


#: The other store-backed commands, at their smallest useful grids.
OTHER_FULL_HIT_SWEEPS = {
    "chaos-sweep": ["chaos-sweep"],
    "sharedbuf": ["sharedbuf", "--schemes", "pmsb", "--alphas", "1.0",
                  "--target-delays", "0.0002"],
    "xscale": ["xscale", "--schemes", "pmsb",
               "--ladder", "clos:tiers=2,ports=8,oversub=1.5"],
}


def assert_full_hit_simulates_nothing(tmp_path, command_argv) -> None:
    argv = command_argv + ["--profile", "tiny", "--jobs", "2",
                           "--cache-dir", str(tmp_path / "cache")]
    cold = subprocess.run(
        [sys.executable, "-m", "repro", *argv, "--json",
         str(tmp_path / "cold.json")],
        capture_output=True, text=True, timeout=300)
    assert cold.returncode == 0, cold.stderr
    report = probe(
        "from repro.cli import main\n"
        f"assert main({argv + ['--json', str(tmp_path / 'warm.json')]!r})"
        " == 0")
    assert_light(report, experiments={"repro.experiments.families"})
    assert "concurrent.futures" not in report["modules"]
    # Not the engine, not a port: parsing the flags and rendering
    # the points' keys is all a full hit does.
    simulating = {"repro.sim.engine", "repro.net.port"}
    assert simulating.isdisjoint(report["modules"])
    assert (tmp_path / "warm.json").read_bytes() \
        == (tmp_path / "cold.json").read_bytes()


@pytest.mark.slow
class TestCachedSweep:
    def test_full_hit_sweep_simulates_nothing(self, tmp_path):
        assert_full_hit_simulates_nothing(tmp_path, ["sweep", "--seed", "5"])

    @pytest.mark.parametrize("command", OTHER_FULL_HIT_SWEEPS)
    def test_full_hit_of_every_store_command_simulates_nothing(
            self, tmp_path, command):
        assert_full_hit_simulates_nothing(
            tmp_path, OTHER_FULL_HIT_SWEEPS[command])


def _declared_exports(package_name: str):
    """``(defining module, name)`` pairs of a package's ``TYPE_CHECKING``
    (and eager) re-exports — read from source, so the lazy table is
    checked against an independent listing."""
    package = importlib.import_module(package_name)
    tree = ast.parse(Path(package.__file__).read_text())
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module in (
                "typing", "_lazy"):
            continue
        anchor = package_name.rsplit(".", node.level - 1)[0]
        for alias in node.names:
            if node.module is None:  # `from . import submodule`
                yield f"{anchor}.{alias.name}", None
            else:
                yield f"{anchor}.{node.module}", alias.name


class TestLazyExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_every_export_is_the_defining_modules_object(self, package_name):
        package = importlib.import_module(package_name)
        declared = list(_declared_exports(package_name))
        names = sorted(name or module.rsplit(".", 1)[1]
                       for module, name in declared)
        assert names == sorted(package.__all__)
        for module_name, name in declared:
            module = importlib.import_module(module_name)
            if name is None:
                exported = getattr(package, module_name.rsplit(".", 1)[1])
                assert exported is module
            else:
                assert getattr(package, name) is getattr(module, name)

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_dir_and_star_import(self, package_name):
        package = importlib.import_module(package_name)
        assert set(package.__all__) <= set(dir(package))
        namespace: dict = {}
        exec(f"from {package_name} import *", namespace)
        assert set(package.__all__) <= set(namespace)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.nope
        with pytest.raises(ImportError):
            exec("from repro import nope")


SCALARS = """
import io, json, sys
{first}
from repro.metrics.export import to_json
from repro.sim.rng import stable_digest
plain = {{"k": 12, "rate": 0.1, "fabric": [2, 2, 3], "audit": True}}
out = {{"plain": stable_digest(plain), "numpy_first": "numpy" in sys.modules}}
buffer = io.StringIO(); to_json(plain, buffer); out["plain_json"] = buffer.getvalue()
import numpy as np
scalars = {{"k": np.int64(12), "rate": np.float64(0.1),
           "fabric": [np.int32(2), np.int64(2), 3], "audit": True}}
out["scalars"] = stable_digest(scalars)
scalars["series"] = np.arange(3)
plain["series"] = [0, 1, 2]
buffer = io.StringIO(); to_json(scalars, buffer); out["scalars_json"] = buffer.getvalue()
buffer = io.StringIO(); to_json(plain, buffer); out["series_json"] = buffer.getvalue()
print(json.dumps(out))
"""


class TestNumpyScalars:
    def test_digest_and_export_do_not_depend_on_numpy_being_loaded(self):
        def run(first: str) -> dict:
            result = subprocess.run(
                [sys.executable, "-c", SCALARS.format(first=first)],
                capture_output=True, text=True, timeout=60)
            assert result.returncode == 0, result.stderr
            return json.loads(result.stdout)

        late, early = run(""), run("import numpy")
        assert (late.pop("numpy_first"), early.pop("numpy_first")) \
            == (False, True)
        assert late == early
        assert late["plain"] == late["scalars"]
        assert late["series_json"] == late["scalars_json"]
