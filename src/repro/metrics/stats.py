"""Summary statistics helpers shared by all metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple

# numpy is imported by the functions that aggregate: loading a stored
# `SummaryStats` back (a cache hit) must not cost a numpy import.
if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["SummaryStats", "summarize", "percentile", "empirical_cdf",
           "bootstrap_ci"]


def bootstrap_ci(
    values: Sequence[float],
    statistic: Optional[Callable] = None,
    confidence: float = 0.95,
    n_resamples: int = 1000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval for a statistic
    (``np.mean`` when ``statistic`` is None).

    Multi-seed sweeps report the statistic of a finite sample; the CI
    makes the sampling noise explicit (e.g. whether a small-flow p99
    difference between two schemes is meaningful at the BENCH scale).

    All resample indices come from one vectorized draw — for uniform
    sampling with replacement, one ``(n_resamples, n)`` ``integers``
    draw consumes the bit stream exactly as ``n_resamples`` sequential
    ``choice`` calls did, so intervals are bit-identical to the
    historical per-loop implementation at every seed.  Statistics that
    accept an ``axis`` keyword (``np.mean``, ``np.median``, …) evaluate
    in one call; anything else falls back to a per-row loop over the
    same index matrix.
    """
    import numpy as np
    if statistic is None:
        statistic = np.mean
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ValueError("cannot bootstrap an empty sample set")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, array.size, size=(n_resamples, array.size))
    try:
        resampled = np.asarray(statistic(array[idx], axis=1), dtype=float)
        if resampled.shape != (n_resamples,):
            raise TypeError("statistic did not reduce along axis=1")
    except TypeError:
        resampled = np.empty(n_resamples)
        for i in range(n_resamples):
            resampled[i] = statistic(array[idx[i]])
    tail = (1.0 - confidence) / 2.0 * 100.0
    return (float(np.percentile(resampled, tail)),
            float(np.percentile(resampled, 100.0 - tail)))


def empirical_cdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """The empirical CDF of a sample set as ``(sorted_values, probs)``.

    This is the representation the paper's distribution figures (Figs. 1
    and 9) plot; feed it straight to ``series_to_csv`` or a plotter.
    """
    import numpy as np
    array = np.sort(np.asarray(values, dtype=float))
    if array.size == 0:
        raise ValueError("cannot build a CDF from no samples")
    probs = np.arange(1, array.size + 1) / array.size
    return array, probs


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0–100) of ``values``."""
    import numpy as np
    if len(values) == 0:
        raise ValueError("cannot take a percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=float), p))


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-style summary used across experiments."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    def scaled(self, factor: float) -> "SummaryStats":
        """Return a copy with every statistic multiplied by ``factor``
        (unit conversions, e.g. seconds → milliseconds)."""
        return SummaryStats(
            count=self.count,
            mean=self.mean * factor,
            p50=self.p50 * factor,
            p95=self.p95 * factor,
            p99=self.p99 * factor,
            minimum=self.minimum * factor,
            maximum=self.maximum * factor,
        )


def summarize(values: Sequence[float]) -> SummaryStats:
    """Compute the standard summary over a sample set."""
    import numpy as np
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ValueError("cannot summarize an empty sample set")
    return SummaryStats(
        count=int(array.size),
        mean=float(array.mean()),
        p50=float(np.percentile(array, 50)),
        p95=float(np.percentile(array, 95)),
        p99=float(np.percentile(array, 99)),
        minimum=float(array.min()),
        maximum=float(array.max()),
    )
