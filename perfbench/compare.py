"""Compare two result documents, one row per (metric, workload).

Verdicts follow the choosing-metrics guide, with the bounds fixed in
``BENCHMARK.json``:

- *regressed* — the change's median is worse than the parent's by more
  than the bound, and by more than the run-to-run spread;
- *improved* — the change wins at least nine tenths of the pairs (ties
  count for neither side) and the medians differ by more than the
  distance between the parent's own quartiles;
- *unresolved* — the spread (interquartile range over median, the wider
  of the two sides) exceeds the bound, so neither "unchanged" nor
  "regressed" can be said — unless every run of the change reads better
  than every run of the parent;
- *unchanged* — none of the above.

A gain may be claimed from ten pairs or more; with fewer the verdict is
printed all the same, with a warning.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from .catalog import end_to_end_metrics, exact_metrics
from .report import quartiles, table

MIN_PAIRS_FOR_A_CLAIM = 10


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * delta > 0 is worse
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    worse_by = sign * (c_median - p_median) / p_median
    spread = max((p_q3 - p_q1) / p_median, (c_q3 - c_q1) / c_median)
    if worse_by > bound:
        return "regressed" if worse_by > spread else "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    if (wins >= 0.9 * len(pairs)
            and sign * (p_median - c_median) > p_q3 - p_q1):
        return "improved"
    every_run_better = (max(change) < min(parent) if better == "lower"
                        else min(change) > max(parent))
    if spread > bound and not every_run_better:
        return "unresolved"
    return "unchanged"


def compare(parent: Dict[str, Any],
            change: Dict[str, Any]) -> Tuple[str, List[str]]:
    """(table, verdicts) over the workloads both documents measured."""
    rows: List[List[Any]] = []
    verdicts: List[str] = []
    fewest = None
    for workload, p_entry in parent["workloads"].items():
        c_entry = change["workloads"].get(workload)
        if c_entry is None:
            continue
        for metric in end_to_end_metrics():
            p = p_entry["end_to_end"][metric["name"]]
            c = c_entry["end_to_end"][metric["name"]]
            if not p["values"] or not c["values"]:
                outcome = "unresolved"
            else:
                outcome = verdict(p["values"], c["values"], metric["better"],
                                  metric["bound"])
            pairs = min(p["n"], c["n"])
            fewest = pairs if fewest is None else min(fewest, pairs)
            verdicts.append(outcome)
            rows.append([
                f"{workload}.{metric['name']}", metric["unit"],
                p["median"], _iqr(p), p["n"],
                c["median"], _iqr(c), c["n"],
                _delta(p, c), f"{metric['bound']:.0%}", outcome])
        if p_entry["failed"] or c_entry["failed"]:
            verdicts.append("regressed" if c_entry["failed"] else "unchanged")
            rows.append([f"{workload}.failed", "count",
                         f"{p_entry['failed']}/{p_entry['attempted']}", "",
                         "", f"{c_entry['failed']}/{c_entry['attempted']}",
                         "", "", "", "0%", verdicts[-1]])
    text = table(["metric", "unit", "A median", "A q1..q3", "n", "B median",
                  "B q1..q3", "n", "B vs A", "bound", "verdict"], rows)
    if fewest is not None and fewest < MIN_PAIRS_FOR_A_CLAIM:
        text += (f"\n\nfewer than {MIN_PAIRS_FOR_A_CLAIM} pairs ({fewest}): "
                 f"an 'improved' verdict is not yet a claim")
    return text, verdicts


def _iqr(stats: Dict[str, Any]) -> str:
    if stats["median"] is None:
        return "-"
    return f"{stats['q1']:.4g}..{stats['q3']:.4g}"


def _delta(parent: Dict[str, Any], change: Dict[str, Any]) -> str:
    if not parent["median"] or change["median"] is None:
        return "-"
    return f"{(change['median'] - parent['median']) / parent['median']:+.1%}"


def disagreements(first: Dict[str, Any],
                  second: Dict[str, Any]) -> List[str]:
    """Pairs on which two sets of runs of the *same* code differ by more
    than the metric's bound, either way — plus exact counters and
    per-layer counts that did not repeat exactly."""
    problems: List[str] = []
    for workload, a in first["workloads"].items():
        b = second["workloads"][workload]
        for metric in end_to_end_metrics():
            name = metric["name"]
            a_median = a["end_to_end"][name]["median"]
            b_median = b["end_to_end"][name]["median"]
            if a_median is None or b_median is None:
                problems.append(f"{workload}.{name}: no successful repeat")
                continue
            apart = abs(b_median - a_median) / a_median
            if apart > metric["bound"]:
                problems.append(
                    f"{workload}.{name}: medians {a_median:.4g} and "
                    f"{b_median:.4g} are {apart:.1%} apart, bound "
                    f"{metric['bound']:.0%}")
        if a["failed"] or b["failed"]:
            problems.append(f"{workload}: failed repeats "
                            f"({a['failures'] + b['failures']})")
        if a["digest"] != b["digest"]:
            problems.append(f"{workload}: digests differ")
        if not (a["counters_repeat"] and b["counters_repeat"]):
            problems.append(f"{workload}: exact counters did not repeat")
        if a.get("per_layer") and b.get("per_layer"):
            for name in exact_metrics():
                if a["per_layer"][name] != b["per_layer"][name]:
                    problems.append(
                        f"{workload}.{name}: {a['per_layer'][name]} then "
                        f"{b['per_layer'][name]}")
    return problems
