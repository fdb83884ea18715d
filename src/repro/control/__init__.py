"""Closed-loop threshold control.

Observation sampling (:mod:`repro.control.observation`), the controller
interface and the two shipped controllers
(:mod:`repro.control.controller`), and the deterministic cross-entropy
optimizer behind X-AUTOTUNE (:mod:`repro.control.cem`).
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .cem import CemResult, cross_entropy_search
    from .controller import (CemController, ControllerRuntime, ControllerSpec,
                             TheoremController, ThresholdController)
    from .observation import ObservationVector, PortSampler

_EXPORTS = {
    ".cem": ("CemResult", "cross_entropy_search"),
    ".controller": (
        "CemController", "ControllerRuntime", "ControllerSpec",
        "TheoremController", "ThresholdController",
    ),
    ".observation": ("ObservationVector", "PortSampler"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
