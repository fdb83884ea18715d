"""PMSB — the paper's contribution: Algorithm 1 (switch marker),
Algorithm 2 (end-host filter), the §IV-D steady-state analysis, and the
Table I capability matrix."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .analysis import (
        SteadyStateModel,
        bdp_packets,
        gamma,
        oscillation_amplitude,
        port_threshold_lower_bound,
        queue_min_length,
        queue_min_lower_bound,
        queue_peak_length,
        queue_threshold_lower_bound,
        sawtooth_peak,
        sawtooth_trajectory,
        worst_case_flow_count,
    )
    from .capabilities import CAPABILITIES, SchemeCapabilities, capability_table
    from .pmsb import PmsbMarker
    from .pmsb_endhost import AcceptAllFilter, EcnFilter, RttEcnFilter

_EXPORTS = {
    ".analysis": (
        "SteadyStateModel", "bdp_packets", "gamma",
        "oscillation_amplitude", "port_threshold_lower_bound",
        "queue_min_length", "queue_min_lower_bound",
        "queue_peak_length", "queue_threshold_lower_bound",
        "sawtooth_peak", "sawtooth_trajectory", "worst_case_flow_count",
    ),
    ".capabilities": (
        "CAPABILITIES", "SchemeCapabilities", "capability_table",
    ),
    ".pmsb": ("PmsbMarker",),
    ".pmsb_endhost": ("AcceptAllFilter", "EcnFilter", "RttEcnFilter"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
