"""Harness self-test.

Not part of tier-1 (``testpaths = ["tests"]`` does not reach here); run
explicitly from the repository root::

    python -m pytest perfbench/tests -q

The shared fixture runs every workload at 1/20 size (``--quick``), two
repeats each, in well under a minute; the numbers mean nothing, the
shape and the exact counters are what is checked.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import catalog, cli, compare  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def benchmark_json():
    return catalog.load_benchmark()


@pytest.fixture(scope="module")
def quick_run():
    return cli.run_set(argparse.Namespace(
        seed=1, repeats=2, quick=True, trace=False, workload=None))


def test_benchmark_json_meets_the_contract(benchmark_json):
    assert set(benchmark_json) == {"command", "paths", "run_seconds",
                                   "workloads", "end_to_end", "per_layer"}
    assert benchmark_json["paths"] == ["perfbench"]
    assert 2 <= len(benchmark_json["workloads"]) <= 8
    assert 1 <= len(benchmark_json["end_to_end"]) <= 16
    assert 1 <= len(benchmark_json["per_layer"]) <= 128
    assert 1 <= benchmark_json["run_seconds"] <= 60
    names = []
    for workload in benchmark_json["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in benchmark_json["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in benchmark_json["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in benchmark_json["end_to_end"] + benchmark_json["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in benchmark_json["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in benchmark_json["end_to_end"])


def test_catalog_and_benchmark_json_name_the_same_workloads(benchmark_json):
    assert ([w["name"] for w in benchmark_json["workloads"]]
            == list(catalog.WORKLOADS))
    assert set(catalog.load_pins()) == set(catalog.WORKLOADS)
    homes = [probe for w in catalog.WORKLOADS.values() for probe in w.probes]
    assert len(homes) == len(set(homes)), "a probe has two home workloads"
    per_layer = {m["name"] for m in benchmark_json["per_layer"]}
    assert set(homes) <= per_layer
    for layer in catalog.LAYERS:
        assert {f"{layer}.self_s", f"{layer}.calls"} <= per_layer


def test_no_module_is_collected_by_tier_one():
    # pyproject.toml collects bench_*.py as tests.
    assert not list(catalog.HERE.rglob("bench_*.py"))


def test_every_workload_reports_every_end_to_end_metric(quick_run,
                                                        benchmark_json):
    assert list(quick_run["workloads"]) == list(catalog.WORKLOADS)
    for name, entry in quick_run["workloads"].items():
        assert entry["failed"] == 0, (name, entry["failures"])
        assert entry["correct"] and entry["attempted"] >= 2
        assert (set(entry["end_to_end"])
                == {m["name"] for m in benchmark_json["end_to_end"]})
        for metric, stats in entry["end_to_end"].items():
            assert stats["n"] >= 2, (name, metric)
            assert stats["median"] > 0, (name, metric)
            assert stats["q1"] <= stats["median"] <= stats["q3"]


def test_exact_counters_repeat_exactly(quick_run):
    for name, entry in quick_run["workloads"].items():
        assert entry["counters_repeat"], name
        assert entry["counters"].get("sim.events"), name
    timers = quick_run["workloads"]["engine_timers"]["counters"]
    assert timers["sim.heap_events"] > 0 and timers["sim.compactions"] > 0
    assert quick_run["workloads"]["sweep_warm"]["counters"]["store.hits"] > 0


def test_traced_pass_reports_every_per_layer_metric(benchmark_json):
    document = cli.run_set(argparse.Namespace(
        seed=1, repeats=2, quick=True, trace=True, workload=["incast_pmsb"]))
    entry = document["workloads"]["incast_pmsb"]
    assert entry["failed"] == 0, entry["failures"]
    layers = entry["per_layer"]
    assert list(layers) == [m["name"] for m in benchmark_json["per_layer"]]
    for name in ("net.self_s", "sim.self_s", "transport.self_s",
                 "sim.run_s", "net.port_enqueues", "sim.events_per_pkt",
                 "net.port_ns_per_pkt", "ecn.pmsb_ns_per_decision",
                 "model.victim_gbps", "trace.overhead_ratio"):
        assert layers[name] is not None and layers[name] > 0, name
    # Not this workload's layers: null, never an error.
    assert layers["store.hits"] is None
    assert layers["model.fct_mean_us"] is None
    self_time = sum(layers[f"{layer}.self_s"] for layer in catalog.LAYERS)
    assert self_time == pytest.approx(layers["sim.run_s"], rel=0.25)


@pytest.mark.parametrize("workload", [
    name for name, w in catalog.WORKLOADS.items() if w.kind == "inproc"])
def test_no_deprecation_warning_from_a_perfbench_frame(workload):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(catalog.SRC), str(ROOT)]))
    done = subprocess.run(
        [sys.executable, "-W", "always::DeprecationWarning", "-m",
         "perfbench.worker", "run", workload, "--quick", "--point-seed", "1",
         "--spawned-at", "0"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["complete"]
    blamed = [line for line in done.stderr.splitlines()
              if "DeprecationWarning" in line and "perfbench" in line]
    assert not blamed, blamed


def test_once_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "once", "--workload",
         "engine_timers", "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in catalog.end_to_end_metrics()}
    assert ({name: m["unit"] for name, m in line["metrics"].items()}
            == expected)
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_once_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(catalog.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(catalog.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "once", "--workload",
         "engine_wheel", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]
    assert compare.verdict(base, base, "lower", 0.08) == "unchanged"
    faster = [value * 0.8 for value in base]
    assert compare.verdict(base, faster, "lower", 0.08) == "improved"
    assert compare.verdict(base, faster, "higher", 0.08) == "regressed"
    slower = [value * 1.2 for value in base]
    assert compare.verdict(base, slower, "lower", 0.08) == "regressed"
    noisy = [7.0, 13.0, 8.0, 12.0, 9.0, 11.0, 7.5, 12.5, 10.0, 10.0]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.08) == "unresolved"
    # Worse by more than the bound, but inside the run-to-run spread.
    assert compare.verdict(
        noisy, [value * 1.1 for value in noisy], "lower", 0.08) == "unresolved"
