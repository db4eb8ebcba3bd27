"""Convergence diagnostics and streaming statistics for Monte Carlo runs.

The paper uses a very large number of trials (300,000, and a ten-hour run
for the largest graph) so that the Monte Carlo mean can serve as ground
truth.  When running with fewer trials it is important to know how much
Monte Carlo noise remains; the helpers here quantify it.

Beyond the convergence tracker, this module provides the *streaming
statistics layer* that lets :class:`repro.sim.MonteCarloEngine` execute
million-trial runs in O(batch) memory instead of materialising the full
sample vector:

* :class:`~repro.rv.empirical.RunningMoments` (re-exported) accumulates
  mean/variance/extrema with Welford/Chan batch updates and supports exact
  pairwise :meth:`~repro.rv.empirical.RunningMoments.merge`;
* :class:`QuantileSketch` is a fixed-grid streaming histogram: the grid is
  frozen from the first batch (with padding), later batches fold in as
  vectorised histogram counts, and quantiles are read off the cumulative
  counts with linear interpolation — the approximation error is bounded by
  one bin width (out-of-grid mass is tracked separately and interpolated
  against the exact running extrema);
* :class:`ReservoirSample` keeps a uniform random subsample of a stream of
  unknown length (vectorised Algorithm R), so distribution-level plots stay
  possible in streaming mode;
* :class:`StreamingSummary` bundles the three behind one ``update`` for
  library users with their own sample streams.  (The engine composes the
  pieces directly because its moments live inside the
  :class:`ConvergenceTracker` that drives early stopping.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..exceptions import EstimationError
from ..rv.empirical import RunningMoments, mean_confidence_interval

__all__ = [
    "ConvergenceTracker",
    "required_trials",
    "relative_half_width",
    "QuantileSketch",
    "ReservoirSample",
    "StreamingSummary",
    "RunningMoments",
]

#: Default number of bins of the streaming quantile sketch.  At 4,096 bins
#: the sketch costs ~32 KiB and the quantile interpolation error is bounded
#: by ~0.05% of the (padded) sample range.
DEFAULT_SKETCH_BINS = 4_096

#: Default capacity of the streaming reservoir subsample.
DEFAULT_RESERVOIR = 10_000


def relative_half_width(moments: RunningMoments, confidence: float = 0.95) -> float:
    """Half-width of the confidence interval divided by the mean."""
    if moments.count == 0 or moments.mean == 0.0:
        return math.inf
    low, high = moments.confidence_interval(confidence)
    return (high - low) / 2.0 / abs(moments.mean)


def required_trials(
    std: float,
    mean: float,
    target_relative_error: float,
    confidence: float = 0.95,
) -> int:
    """Number of trials needed for a given relative confidence half-width.

    Solves ``z·σ/(√n·µ) <= target`` for ``n`` using the normal quantile
    ``z`` at the requested confidence level.
    """
    if target_relative_error <= 0:
        raise EstimationError("target relative error must be positive")
    if mean == 0:
        raise EstimationError("mean must be non-zero")
    from scipy.special import ndtri

    z = float(ndtri(0.5 + confidence / 2.0))
    n = (z * std / (target_relative_error * abs(mean))) ** 2
    return max(1, int(math.ceil(n)))


@dataclass
class ConvergenceTracker:
    """Records the running mean after every batch of trials.

    The trace lets callers (and the tests) check that the Monte Carlo
    estimate stabilises and estimate how many trials a target accuracy
    requires.
    """

    confidence: float = 0.95
    target_relative_half_width: Optional[float] = None

    def __post_init__(self) -> None:
        self.moments = RunningMoments()
        self.history: List[Tuple[int, float]] = []

    def update(self, batch: np.ndarray) -> None:
        """Fold in one batch of makespan samples."""
        self.moments.update(np.asarray(batch, dtype=np.float64))
        self.history.append((self.moments.count, self.moments.mean))

    @property
    def converged(self) -> bool:
        """True once the confidence half-width meets the target (if any)."""
        if self.target_relative_half_width is None:
            return False
        if self.moments.count < 2:
            return False
        return relative_half_width(self.moments, self.confidence) <= self.target_relative_half_width

    def summary(self) -> dict:
        """Dictionary summary (mean, std, CI, history length)."""
        ci = self.moments.confidence_interval(self.confidence)
        return {
            "trials": self.moments.count,
            "mean": self.moments.mean,
            "std": self.moments.std,
            "standard_error": self.moments.standard_error(),
            "confidence_interval": ci,
            "relative_half_width": relative_half_width(self.moments, self.confidence),
            "batches": len(self.history),
        }


# ----------------------------------------------------------------------
# Streaming statistics layer
# ----------------------------------------------------------------------


class QuantileSketch:
    """Fixed-grid streaming histogram serving approximate quantiles.

    The grid is frozen from the first batch: ``bins`` equal-width cells
    spanning the first batch's range padded by ``padding`` on each side.
    Every later batch folds in as one vectorised ``np.histogram`` count
    update; mass falling outside the frozen grid is counted separately and
    interpolated against the exact running minimum/maximum, so quantiles
    stay finite and monotone even when later batches escape the initial
    range.  The absolute quantile error is at most one bin width (of the
    padded range) for in-grid mass.
    """

    def __init__(self, bins: int = DEFAULT_SKETCH_BINS) -> None:
        if bins < 2:
            raise EstimationError("quantile sketch needs at least two bins")
        self.bins = int(bins)
        self.padding = 0.25
        self._edges: Optional[np.ndarray] = None
        self._counts = np.zeros(self.bins, dtype=np.int64)
        self._below = 0
        self._above = 0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    @property
    def count(self) -> int:
        """Number of observations folded in so far."""
        return self._count

    @property
    def nbytes(self) -> int:
        """Memory footprint of the sketch's arrays."""
        total = self._counts.nbytes
        if self._edges is not None:
            total += self._edges.nbytes
        return total

    def update(self, batch: np.ndarray) -> None:
        """Fold one batch of observations into the sketch."""
        batch = np.asarray(batch, dtype=np.float64).ravel()
        if batch.size == 0:
            return
        lo = float(batch.min())
        hi = float(batch.max())
        self._min = min(self._min, lo)
        self._max = max(self._max, hi)
        self._count += batch.size
        if self._edges is None:
            span = hi - lo
            pad = self.padding * span if span > 0.0 else max(1.0, abs(hi)) * 1e-6
            self._edges = np.linspace(lo - pad, hi + pad, self.bins + 1)
        edges = self._edges
        inside = batch[(batch >= edges[0]) & (batch <= edges[-1])]
        self._below += int((batch < edges[0]).sum())
        self._above += int((batch > edges[-1]).sum())
        if inside.size:
            counts, _ = np.histogram(inside, bins=edges)
            self._counts += counts

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile of the folded stream."""
        if not (0.0 <= q <= 1.0):
            raise EstimationError("quantile level must be in [0, 1]")
        if self._count == 0 or self._edges is None:
            raise EstimationError("quantile sketch is empty")
        target = q * self._count
        if target <= self._below:
            # Interpolate inside the below-grid tail [min, edge0].
            frac = target / self._below if self._below else 0.0
            return self._min + frac * (self._edges[0] - self._min)
        in_grid = self._count - self._above
        if target >= in_grid:
            over = target - in_grid
            frac = over / self._above if self._above else 1.0
            return float(self._edges[-1] + frac * (self._max - self._edges[-1]))
        # Cumulative counts: first bin whose cumulative mass reaches target.
        cum = self._below + np.cumsum(self._counts)
        k = int(np.searchsorted(cum, target, side="left"))
        prev = float(cum[k - 1]) if k else float(self._below)
        mass = float(self._counts[k])
        frac = (target - prev) / mass if mass > 0.0 else 0.0
        left, right = self._edges[k], self._edges[k + 1]
        # Clamp the outermost bins to the exact extrema.
        left = max(float(left), self._min)
        right = min(float(right), self._max)
        return float(left + frac * (right - left))

    def histogram(self) -> Tuple[np.ndarray, np.ndarray]:
        """The raw (counts, edges) pair of the frozen grid."""
        if self._edges is None:
            raise EstimationError("quantile sketch is empty")
        return self._counts.copy(), self._edges.copy()


class ReservoirSample:
    """Uniform random subsample of a stream (vectorised Algorithm R).

    Element ``t`` of the stream (1-based) replaces a uniformly random
    reservoir slot with probability ``capacity / t``; replacements within a
    batch are applied in stream order, which reproduces the sequential
    algorithm exactly.  The reservoir draws from its *own* RNG stream so
    that enabling it never perturbs the trial sampling streams.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_RESERVOIR,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if capacity < 1:
            raise EstimationError("reservoir capacity must be positive")
        self.capacity = int(capacity)
        self.rng = rng if rng is not None else np.random.default_rng()
        self._store = np.empty(self.capacity, dtype=np.float64)
        self._filled = 0
        self._seen = 0

    @property
    def count(self) -> int:
        """Number of stream elements seen so far."""
        return self._seen

    def update(self, batch: np.ndarray) -> None:
        """Fold one batch of stream elements into the reservoir."""
        batch = np.asarray(batch, dtype=np.float64).ravel()
        if batch.size == 0:
            return
        offset = 0
        if self._filled < self.capacity:
            take = min(self.capacity - self._filled, batch.size)
            self._store[self._filled : self._filled + take] = batch[:take]
            self._filled += take
            self._seen += take
            offset = take
        rest = batch[offset:]
        if rest.size:
            t = self._seen + np.arange(1, rest.size + 1, dtype=np.float64)
            accept = self.rng.random(rest.size) < (self.capacity / t)
            hits = int(accept.sum())
            if hits:
                slots = self.rng.integers(0, self.capacity, size=hits)
                self._store[slots] = rest[accept]
            self._seen += rest.size

    def samples(self) -> np.ndarray:
        """A copy of the current reservoir contents."""
        return self._store[: self._filled].copy()


class StreamingSummary:
    """Streaming per-batch statistics: moments + quantile sketch + reservoir.

    A convenience bundle for library users folding their own sample
    streams — the same accumulators the engine's streaming mode composes
    (there the moments live inside its :class:`ConvergenceTracker`).
    Memory is O(sketch bins + reservoir capacity), independent of the
    stream length.
    """

    def __init__(
        self,
        *,
        bins: int = DEFAULT_SKETCH_BINS,
        reservoir: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.moments = RunningMoments()
        self.sketch = QuantileSketch(bins=bins)
        self.reservoir = (
            ReservoirSample(reservoir, rng=rng) if reservoir > 0 else None
        )

    def update(self, batch: np.ndarray) -> None:
        """Fold one batch into all accumulators."""
        batch = np.asarray(batch, dtype=np.float64).ravel()
        self.moments.update(batch)
        self.sketch.update(batch)
        if self.reservoir is not None:
            self.reservoir.update(batch)

    def quantile(self, q: float) -> float:
        """Approximate quantile from the sketch."""
        return self.sketch.quantile(q)
