"""Experiment harness: one builder per paper figure/table (see DESIGN.md)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from ..store import ExperimentSpec, RunConfig, RunRecord, RunStore
    from . import ablations, analysis_validation, chaos, extensions, families
    from . import largescale, marking_point, motivation, runner, static_flows
    from .families import chaos_point_spec, fct_point_spec
    from .runner import available_jobs, run_parallel
    from .scale import BENCH, PAPER, ScaleProfile, TINY
    from .scenario import (IncastResult, SCHEME_NAMES, SchemeSpec, incast_flows,
                           make_scheme, run_incast)

_EXPORTS = {
    "..store": ("ExperimentSpec", "RunConfig", "RunRecord", "RunStore"),
    ".families": ("chaos_point_spec", "fct_point_spec"),
    ".runner": ("available_jobs", "run_parallel"),
    ".scale": ("BENCH", "PAPER", "ScaleProfile", "TINY"),
    ".scenario": (
        "IncastResult", "SCHEME_NAMES", "SchemeSpec", "incast_flows",
        "make_scheme", "run_incast",
    ),
}

_SUBMODULES = (
    "ablations", "analysis_validation", "chaos", "extensions", "families",
    "largescale", "marking_point", "motivation", "runner",
    "static_flows",
)

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS, _SUBMODULES)
