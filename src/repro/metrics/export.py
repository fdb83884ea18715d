"""Result export: CSV/JSON serialization of experiment outputs.

Simulation outputs (FCT records, throughput series, sweep rows) become
plain files a plotting pipeline can consume; nothing here depends on a
plotting library being installed.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import asdict, is_dataclass
from typing import Any, Iterable, List, Sequence, TextIO, Union

from .fct import FctRecord
from .stats import SummaryStats

__all__ = [
    "fct_records_to_csv",
    "series_to_csv",
    "rows_to_csv",
    "to_json",
    "mean_of_summaries",
]

PathOrFile = Union[str, TextIO]


def _open(target: PathOrFile):
    if isinstance(target, str):
        return open(target, "w", newline=""), True
    return target, False


def fct_records_to_csv(records: Sequence[FctRecord],
                       target: PathOrFile) -> None:
    """Write completed-flow records as CSV (one row per flow)."""
    handle, owned = _open(target)
    try:
        writer = csv.writer(handle)
        writer.writerow(["flow_id", "size_bytes", "service",
                         "start_time", "fct"])
        for record in records:
            writer.writerow([record.flow_id, record.size_bytes,
                             record.service, repr(record.start_time),
                             repr(record.fct)])
    finally:
        if owned:
            handle.close()


def series_to_csv(times: Sequence[float], values: Sequence[float],
                  target: PathOrFile,
                  header: Sequence[str] = ("time", "value")) -> None:
    """Write a time series (e.g. a throughput curve) as two-column CSV."""
    if len(times) != len(values):
        raise ValueError("times and values must have equal length")
    handle, owned = _open(target)
    try:
        writer = csv.writer(handle)
        writer.writerow(list(header))
        for time, value in zip(times, values):
            writer.writerow([repr(float(time)), repr(float(value))])
    finally:
        if owned:
            handle.close()


def rows_to_csv(rows: Iterable[Any], target: PathOrFile) -> None:
    """Write a list of rows (sweep results) as CSV.

    Rows are dataclass instances or plain mappings — run-store records
    hand back dicts, live sweeps hand back dataclasses, and both export
    identically.  Nested :class:`SummaryStats` fields are flattened to
    ``<field>_mean``, ``<field>_p95`` … columns.
    """
    flattened: List[dict] = []
    for row in rows:
        if is_dataclass(row) and not isinstance(row, type):
            items = asdict(row)
        elif isinstance(row, dict):
            items = row
        else:
            raise TypeError(
                f"expected dataclass or dict rows, got {type(row)!r}")
        flat: dict = {}
        for key, value in items.items():
            if isinstance(value, dict) and set(value) >= {"mean", "p99"}:
                for stat_name, stat_value in value.items():
                    flat[f"{key}_{stat_name}"] = stat_value
            elif value is None:
                flat[key] = ""
            else:
                flat[key] = value
        flattened.append(flat)
    if not flattened:
        raise ValueError("no rows to export")
    handle, owned = _open(target)
    try:
        writer = csv.DictWriter(handle, fieldnames=list(flattened[0]))
        writer.writeheader()
        writer.writerows(flattened)
    finally:
        if owned:
            handle.close()


def to_json(obj: Any, target: PathOrFile) -> None:
    """Serialize dataclasses / arrays / dicts to JSON."""

    def default(value):
        if is_dataclass(value):
            return asdict(value)
        # An array or numpy scalar can only exist once numpy has been
        # imported; exporting cached rows never needs it.
        np = sys.modules.get("numpy")
        if np is not None:
            if isinstance(value, np.ndarray):
                return value.tolist()
            if isinstance(value, (np.integer, np.floating)):
                return value.item()
        if hasattr(value, "value"):  # enums
            return value.value
        raise TypeError(f"not JSON-serializable: {type(value)!r}")

    handle, owned = _open(target)
    try:
        json.dump(obj, handle, default=default, indent=2)
    finally:
        if owned:
            handle.close()


def mean_of_summaries(summaries: Sequence[SummaryStats]) -> SummaryStats:
    """Average summary statistics across repetitions (multi-seed runs).

    Each statistic is averaged point-wise; counts are summed.  This is
    the standard way multi-seed sweeps report a single row per setting.
    """
    if not summaries:
        raise ValueError("need at least one summary")
    n = len(summaries)
    return SummaryStats(
        count=sum(s.count for s in summaries),
        mean=sum(s.mean for s in summaries) / n,
        p50=sum(s.p50 for s in summaries) / n,
        p95=sum(s.p95 for s in summaries) / n,
        p99=sum(s.p99 for s in summaries) / n,
        minimum=min(s.minimum for s in summaries),
        maximum=max(s.maximum for s in summaries),
    )
