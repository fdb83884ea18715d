"""Measurement: FCT collection, throughput meters, occupancy traces,
slowdown, exports, and summary statistics."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
# Eager on purpose: the function shares its submodule's name, and the
# import system binds ``metrics.fabric_report`` to the *module* whenever
# the submodule loads — only this statement rebinds it to the function.
# The module needs nothing beyond dataclasses.
from .fabric_report import FabricReport, PortReport, fabric_report

if TYPE_CHECKING:  # pragma: no cover
    from .export import (fct_records_to_csv, mean_of_summaries, rows_to_csv,
                         series_to_csv, to_json)
    from .fct import (
        FctCollector,
        FctRecord,
        LARGE_FLOW_MIN_BYTES,
        SMALL_FLOW_MAX_BYTES,
        SizeClass,
        classify,
    )
    from .queue_trace import QueueOccupancyTrace
    from .slowdown import ideal_fct, slowdown_summary, slowdowns
    from .stats import (SummaryStats, bootstrap_ci, empirical_cdf, percentile,
                        summarize)
    from .throughput import ThroughputMeter

_EXPORTS = {
    ".export": (
        "fct_records_to_csv", "mean_of_summaries", "rows_to_csv",
        "series_to_csv", "to_json",
    ),
    ".fct": (
        "FctCollector", "FctRecord", "LARGE_FLOW_MIN_BYTES",
        "SMALL_FLOW_MAX_BYTES", "SizeClass", "classify",
    ),
    ".queue_trace": ("QueueOccupancyTrace",),
    ".slowdown": ("ideal_fct", "slowdown_summary", "slowdowns"),
    ".stats": (
        "SummaryStats", "bootstrap_ci", "empirical_cdf", "percentile",
        "summarize",
    ),
    ".throughput": ("ThroughputMeter",),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
__all__ = sorted([*__all__, "FabricReport", "PortReport", "fabric_report"])
