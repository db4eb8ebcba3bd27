"""Empirical distributions built from Monte Carlo samples.

The Monte Carlo estimator produces a (large) sample of makespans; this
module summarises such samples: moments, quantiles, confidence intervals on
the mean, and histogram views.  The confidence interval is what quantifies
the "ground truth" noise floor when comparing analytical approximations to
the Monte Carlo reference with fewer trials than the paper's 300,000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..exceptions import EstimationError

__all__ = ["EmpiricalDistribution", "RunningMoments", "mean_confidence_interval"]


def mean_confidence_interval(
    mean: float, std: float, count: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Normal-approximation confidence interval for a sample mean.

    For the large sample sizes used here (tens of thousands of trials) the
    normal approximation is indistinguishable from the Student-t interval.
    """
    if count <= 1:
        return (-math.inf, math.inf)
    if not (0.0 < confidence < 1.0):
        raise EstimationError("confidence must be in (0, 1)")
    from scipy.special import ndtri

    z = float(ndtri(0.5 + confidence / 2.0))
    half_width = z * std / math.sqrt(count)
    return (mean - half_width, mean + half_width)


@dataclass
class RunningMoments:
    """Streaming mean/variance accumulator (Welford/Chan update).

    Batches of Monte Carlo trials are folded in one at a time so that the
    full sample never needs to live in memory simultaneously.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def update(self, batch: np.ndarray) -> None:
        """Fold a batch of observations into the running moments."""
        batch = np.asarray(batch, dtype=np.float64).ravel()
        if batch.size == 0:
            return
        b_count = batch.size
        b_mean = float(batch.mean())
        b_m2 = float(((batch - b_mean) ** 2).sum())
        if self.count == 0:
            self.count = b_count
            self.mean = b_mean
            self.m2 = b_m2
        else:
            delta = b_mean - self.mean
            total = self.count + b_count
            self.m2 += b_m2 + delta * delta * self.count * b_count / total
            self.mean += delta * b_count / total
            self.count = total
        self.minimum = min(self.minimum, float(batch.min()))
        self.maximum = max(self.maximum, float(batch.max()))

    def merge(self, other: "RunningMoments") -> None:
        """Fold another accumulator into this one (Chan's pairwise update).

        Merging ``B`` into ``A`` leaves ``A`` holding exactly the moments of
        the concatenated sample, which is what lets parallel Monte Carlo
        backends accumulate per-batch (or per-process) partial moments and
        combine them deterministically afterwards.
        """
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
        else:
            delta = other.mean - self.mean
            total = self.count + other.count
            self.m2 += other.m2 + delta * delta * self.count * other.count / total
            self.mean += delta * other.count / total
            self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1)."""
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def standard_error(self) -> float:
        """Standard error of the mean."""
        if self.count == 0:
            return math.inf
        return self.std / math.sqrt(self.count)

    def confidence_interval(self, confidence: float = 0.95) -> Tuple[float, float]:
        """Confidence interval on the mean."""
        return mean_confidence_interval(self.mean, self.std, self.count, confidence)


class EmpiricalDistribution:
    """Full-sample empirical distribution (keeps the sorted sample)."""

    def __init__(self, samples: Sequence[float]) -> None:
        data = np.asarray(samples, dtype=np.float64).ravel()
        if data.size == 0:
            raise EstimationError("empirical distribution needs at least one sample")
        if np.any(~np.isfinite(data)):
            raise EstimationError("samples must be finite")
        self._sorted = np.sort(data)

    # -- summary ---------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of samples."""
        return int(self._sorted.size)

    def mean(self) -> float:
        """Sample mean."""
        return float(self._sorted.mean())

    def variance(self) -> float:
        """Sample variance (ddof=1, zero for a single sample)."""
        if self.count < 2:
            return 0.0
        return float(self._sorted.var(ddof=1))

    def std(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance())

    def min(self) -> float:
        """Smallest sample."""
        return float(self._sorted[0])

    def max(self) -> float:
        """Largest sample."""
        return float(self._sorted[-1])

    def quantile(self, q: float) -> float:
        """Empirical quantile (linear interpolation)."""
        if not (0.0 <= q <= 1.0):
            raise EstimationError("quantile level must be in [0, 1]")
        return float(np.quantile(self._sorted, q))

    def cdf(self, x: float) -> float:
        """Empirical CDF ``P(X <= x)``."""
        return float(np.searchsorted(self._sorted, x, side="right") / self.count)

    def confidence_interval(self, confidence: float = 0.95) -> Tuple[float, float]:
        """Confidence interval on the mean."""
        return mean_confidence_interval(self.mean(), self.std(), self.count, confidence)

    def histogram(self, bins: int = 50) -> Tuple[np.ndarray, np.ndarray]:
        """Histogram (densities, bin edges) of the sample."""
        if bins < 1:
            raise EstimationError("need at least one bin")
        return np.histogram(self._sorted, bins=bins, density=True)

    def samples(self) -> np.ndarray:
        """A read-only view of the sorted sample."""
        view = self._sorted.view()
        view.setflags(write=False)
        return view

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EmpiricalDistribution(n={self.count}, mean={self.mean():.6g}, "
            f"std={self.std():.3g})"
        )
