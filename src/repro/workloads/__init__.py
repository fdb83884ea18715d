"""Workloads: flow-size distributions, Poisson arrivals, service mapping."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .distributions import (
        DATA_MINING,
        EmpiricalCdf,
        LogUniform,
        Mixture,
        PAPER_MIX,
        Pareto,
        SizeDistribution,
        Uniform,
        WEB_SEARCH,
    )
    from .generator import PoissonFlowGenerator
    from .services import assign_service, service_weights

_EXPORTS = {
    ".distributions": (
        "DATA_MINING", "EmpiricalCdf", "LogUniform", "Mixture",
        "PAPER_MIX", "Pareto", "SizeDistribution", "Uniform",
        "WEB_SEARCH",
    ),
    ".generator": ("PoissonFlowGenerator",),
    ".services": ("assign_service", "service_weights"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
