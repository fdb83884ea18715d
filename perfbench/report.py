"""Result documents: summary statistics, environment, tables, history."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .catalog import HISTORY_JSONL, ROOT, end_to_end_metrics

SCHEMA = 1


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(values: Sequence[float], unit: str) -> Dict[str, Any]:
    if not values:
        return {"unit": unit, "values": [], "n": 0,
                "median": None, "q1": None, "q3": None}
    q1, median, q3 = quartiles(values)
    return {"unit": unit, "values": list(values), "n": len(values),
            "median": median, "q1": q1, "q3": q3}


def workload_entry(measured: Dict[str, Any]) -> Dict[str, Any]:
    """One workload of a result document, from ``harness.measure``."""
    entry = {key: value for key, value in measured.items()
             if key != "samples"}
    entry["end_to_end"] = {
        metric["name"]: summarize(measured["samples"][metric["name"]],
                                  metric["unit"])
        for metric in end_to_end_metrics()}
    return entry


# -- environment -----------------------------------------------------------

def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], timeout=10.0,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> Dict[str, Any]:
    """Where and on what the numbers were taken.  ``noisy`` flags a
    1-minute load average above half the cores at the start."""
    nproc = os.cpu_count() or 1
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else nproc)
    load_1min = os.getloadavg()[0]
    status = _git("status", "--porcelain")
    return {
        "git_rev": _git("rev-parse", "--short", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": nproc,
        "affinity": affinity,
        "load_1min": load_1min,
        "noisy": load_1min > 0.5 * nproc,
        "time_unix": time.time(),
    }


# -- tables ----------------------------------------------------------------

def _number(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int) or abs(value) >= 1e5:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def table(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    cells = [list(header)] + [[c if isinstance(c, str) else _number(c)
                               for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(width) if i == 0 else cell.rjust(width)
                       for i, (cell, width) in enumerate(zip(row, widths)))
             for row in cells]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)


def render(document: Dict[str, Any]) -> str:
    """Every metric by name with its unit, one row per workload."""
    parts: List[str] = []
    rows = []
    for name, entry in document["workloads"].items():
        for metric, stats in entry["end_to_end"].items():
            rows.append([f"{name}.{metric}", stats["unit"], stats["median"],
                         stats["q1"], stats["q3"], stats["n"]])
        rows.append([f"{name}.failed", "count",
                     f"{entry['failed']}/{entry['attempted']}", "", "", ""])
    parts.append(table(["end-to-end metric", "unit", "median", "q1", "q3",
                        "n"], rows))
    traced = {name: entry["per_layer"]
              for name, entry in document["workloads"].items()
              if entry.get("per_layer")}
    if traced:
        names = list(next(iter(traced.values())))
        parts.append(table(
            ["per-layer metric"] + list(traced),
            [[metric] + [layers.get(metric) for layers in traced.values()]
             for metric in names]))
    env = document["env"]
    parts.append(
        f"git {env['git_rev']}  python {env['python']}  {env['cpu_model']}  "
        f"nproc {env['nproc']}  load {env['load_1min']:.2f}"
        + ("  NOISY" if env["noisy"] else ""))
    return "\n\n".join(parts)


# -- files -----------------------------------------------------------------

def write_document(document: Dict[str, Any], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def read_document(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        document = json.load(handle)
    if document.get("schema") != SCHEMA:
        sys.exit(f"{path}: not a perfbench result (schema {SCHEMA})")
    return document


def record_history(document: Dict[str, Any]) -> None:
    """Append the one-line summary: medians of every end-to-end metric."""
    env = document["env"]
    line = {
        "time_unix": env["time_unix"], "git_rev": env["git_rev"],
        "git_dirty": env["git_dirty"], "python": env["python"],
        "noisy": env["noisy"], "seed": document["seed"],
        "repeats": document["repeats"],
        "medians": {
            name: {metric: stats["median"]
                   for metric, stats in entry["end_to_end"].items()}
            for name, entry in document["workloads"].items()},
        "failed": sum(entry["failed"]
                      for entry in document["workloads"].values()),
    }
    with open(HISTORY_JSONL, "a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
