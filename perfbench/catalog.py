"""What the benchmark consists of: workloads, metrics, pins and paths.

``BENCHMARK.json`` is the single source for metric names, units,
directions and bounds and for workload names; this module adds what the
harness needs beyond that contract (how each workload is launched, which
layer probes ride with its traced pass, the sizes pinned at the seed
commit).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for stores, exports and child output; inside the
#: checkout (the harness reads and writes nowhere else) and gitignored.
WORK_ROOT = ROOT / ".perfbench_work"

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
PINS_JSON = HERE / "pins.json"
DIGESTS_JSON = HERE / "digests.json"
HISTORY_JSONL = HERE / "HISTORY.jsonl"

#: ``--quick`` divides every workload's size by this (harness self-test).
QUICK_DIVISOR = 20

#: Packages under ``src/repro/``; ``other`` collects stdlib, numpy,
#: builtins, ``repro/cli.py`` and the benchmark's own callbacks.
LAYERS = ("sim", "net", "transport", "scheduling", "ecn", "core",
          "workloads", "metrics", "experiments", "store", "control", "other")


@dataclass(frozen=True)
class Workload:
    name: str
    #: "inproc": the child imports repro and calls the entry function;
    #: "sweep": the child *is* ``python -m repro sweep``.
    kind: str
    #: Layer probes measured with this workload's traced pass.  Each
    #: probe has exactly one home so a full traced run measures it once.
    probes: Tuple[str, ...] = ()
    #: FCT inputs are drawn per seed but equalised in size — see
    #: :mod:`perfbench.inputs`.  (fabric, flows) of the generated set.
    fct_shape: Optional[Tuple[str, int]] = None


_PAPER_FABRIC = "leaf-spine:n_leaf=4,n_spine=4,hosts_per_leaf=12"
_BENCH_FABRIC = "leaf-spine:n_leaf=2,n_spine=2,hosts_per_leaf=4"
FATTREE_1024 = "clos:tiers=3,ports=16"

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("engine_wheel", "inproc", probes=("sim.schedule_ns",)),
    Workload("engine_timers", "inproc", probes=("sim.cancel_ns",)),
    Workload("incast_pmsb", "inproc",
             probes=("net.port_ns_per_pkt", "scheduling.dwrr_ns_per_pkt",
                     "ecn.pmsb_ns_per_decision",
                     "ecn.perport_ns_per_decision")),
    Workload("fct_leafspine48", "inproc",
             probes=("workloads.gen_us_per_flow",
                     "metrics.summary_us_per_flow"),
             fct_shape=(_PAPER_FABRIC, 400)),
    Workload("fct_fattree1024", "inproc",
             probes=("scheduling.wfq_ns_per_pkt", "ecn.tcn_ns_per_decision"),
             fct_shape=(FATTREE_1024, 200)),
    Workload("sweep_cold", "sweep", probes=("store.put_us",),
             fct_shape=(_BENCH_FABRIC, 120)),
    Workload("sweep_warm", "sweep", probes=("store.get_us",),
             fct_shape=(_BENCH_FABRIC, 120)),
)}

#: Warm sweeps measured back to back in one repeat, so the timed region
#: stays above one second.
WARM_RUNS_PER_REPEAT = 5


@functools.cache
def load_benchmark() -> Dict[str, Any]:
    """``BENCHMARK.json``, read once per process; callers do not mutate it."""
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def load_pins() -> Dict[str, Dict[str, float]]:
    with open(PINS_JSON) as handle:
        return json.load(handle)


def end_to_end_metrics() -> List[Dict[str, Any]]:
    return load_benchmark()["end_to_end"]


def per_layer_metrics() -> List[Dict[str, Any]]:
    return load_benchmark()["per_layer"]


#: Host-time ratios among the per-layer metrics.
_MEASURED_RATIOS = ("trace.overhead_ratio", "experiments.parallel_eff")


def exact_metrics() -> List[str]:
    """Per-layer metrics that are properties of the simulation, not of
    the host: counts, count ratios and everything under ``model.``.
    They repeat exactly, so two commits compare exactly."""
    return [metric["name"] for metric in per_layer_metrics()
            if metric["name"] not in _MEASURED_RATIOS
            and (metric["unit"] in ("count", "ratio")
                 or metric["name"].startswith("model."))]
