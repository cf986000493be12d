"""Small-sample statistics used by the simulator and experiment harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

__all__ = ["BatchMeansResult", "batch_means", "confidence_interval", "relative_error"]


def _t_quantile(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value.

    ``scipy.special.stdtrit`` is the routine ``scipy.stats.t.ppf`` calls,
    so the values are the same; importing ``scipy.stats`` would add most
    of a second to every process that imports the simulator.
    """
    return float(stdtrit(df, 0.5 + confidence / 2.0))


@dataclass(frozen=True)
class BatchMeansResult:
    """Point estimate with a confidence half-width from batch means."""

    mean: float
    half_width: float
    n_batches: int

    @property
    def lower(self) -> float:
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """True if ``value`` lies inside the confidence interval."""
        return self.lower <= value <= self.upper


def batch_means(
    x: np.ndarray, n_batches: int = 20, confidence: float = 0.95
) -> BatchMeansResult:
    """Non-overlapping batch-means estimator for a (correlated) sample path.

    Splits ``x`` into ``n_batches`` equal contiguous batches and treats the
    batch averages as approximately i.i.d. — the standard output-analysis
    technique for steady-state simulation with autocorrelated output, which
    is exactly the regime MAP networks produce.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be 1-D")
    if n_batches < 2:
        raise ValueError(f"need at least 2 batches, got {n_batches}")
    if len(x) < 2 * n_batches:
        raise ValueError(
            f"sample of length {len(x)} too short for {n_batches} batches"
        )
    size = len(x) // n_batches
    trimmed = x[: size * n_batches]
    means = trimmed.reshape(n_batches, size).mean(axis=1)
    grand = float(means.mean())
    se = float(means.std(ddof=1) / np.sqrt(n_batches))
    tcrit = _t_quantile(confidence, n_batches - 1)
    return BatchMeansResult(mean=grand, half_width=tcrit * se, n_batches=n_batches)


def confidence_interval(
    x: np.ndarray, confidence: float = 0.95
) -> tuple[float, float, float]:
    """(mean, lower, upper) t-interval for i.i.d. replicate outputs."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 2:
        raise ValueError("need at least two replicates")
    mean = float(x.mean())
    se = float(x.std(ddof=1) / np.sqrt(n))
    tcrit = _t_quantile(confidence, n - 1)
    return mean, mean - tcrit * se, mean + tcrit * se


def relative_error(estimate: float, exact: float) -> float:
    """Absolute relative error |estimate - exact| / |exact| (paper's metric)."""
    if exact == 0.0:
        return abs(estimate)
    return abs(estimate - exact) / abs(exact)
