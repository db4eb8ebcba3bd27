"""Finite discrete random variables.

These are the work-horses of the exact series-parallel evaluation and of
Dodin's approximation (Section II-A2 of the paper): the makespan of a
series composition is the *sum* of its parts (distribution = convolution)
and the makespan of a parallel composition is the *maximum* of its parts
(CDF = product of CDFs, valid under independence).

Supports grow multiplicatively under convolution — this is exactly why the
problem is only pseudo-polynomial even on series-parallel graphs — so a
mean-preserving *pruning* operation caps the support size by merging
adjacent atoms.  Pruning granularity is the accuracy/time knob of the Dodin
estimator and is exercised by an ablation benchmark.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import EstimationError

__all__ = ["DiscreteRV"]

_ATOL = 1e-12


class DiscreteRV:
    """A random variable with finite support.

    Parameters
    ----------
    values:
        Support points (need not be sorted or unique; duplicates are merged).
    probabilities:
        Probabilities aligned with ``values``; must be non-negative and sum
        to 1 (within a small tolerance, after which they are re-normalised).
    """

    __slots__ = ("values", "probabilities")

    def __init__(self, values: Sequence[float], probabilities: Sequence[float]) -> None:
        v = np.asarray(values, dtype=np.float64).ravel()
        p = np.asarray(probabilities, dtype=np.float64).ravel()
        if v.size == 0:
            raise EstimationError("a discrete random variable needs at least one atom")
        if v.shape != p.shape:
            raise EstimationError(
                f"values and probabilities have mismatched shapes {v.shape} vs {p.shape}"
            )
        if np.any(p < -_ATOL):
            raise EstimationError("probabilities must be non-negative")
        p = np.clip(p, 0.0, None)
        total = p.sum()
        if total <= 0:
            raise EstimationError("probabilities sum to zero")
        if abs(total - 1.0) > 1e-6:
            raise EstimationError(f"probabilities sum to {total}, expected 1")
        p = p / total

        order = np.argsort(v, kind="stable")
        v, p = v[order], p[order]
        # Merge equal (or numerically indistinguishable) support points.
        if v.size > 1:
            keep = np.empty(v.size, dtype=bool)
            keep[0] = True
            keep[1:] = np.diff(v) > _ATOL
            groups = np.cumsum(keep) - 1
            merged_v = v[keep]
            merged_p = np.zeros(merged_v.size, dtype=np.float64)
            np.add.at(merged_p, groups, p)
            v, p = merged_v, merged_p
        # Drop atoms that carry no probability mass (they appear when taking
        # maxima/minima over merged supports).
        if v.size > 1:
            positive = p > 0.0
            if positive.any():
                v, p = v[positive], p[positive]
        self.values = v
        self.probabilities = p
        self.values.setflags(write=False)
        self.probabilities.setflags(write=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _from_canonical(
        cls, values: np.ndarray, probabilities: np.ndarray
    ) -> "DiscreteRV":
        """Trusted constructor for atoms already in canonical form.

        ``values`` must be float64, strictly ascending with gaps above the
        merge tolerance, and ``probabilities`` positive with a sum within
        rounding of one — the state ``__init__`` leaves behind, and the
        invariant of every :class:`~repro.rv.discrete_batch.DiscreteBatch`
        row.  On such input the sort, the tolerance merge and the zero-atom
        drop of ``__init__`` are identities, so only its one bit-changing
        step is kept: dividing by the total mass.
        """
        rv = cls.__new__(cls)
        rv.values = np.array(values, dtype=np.float64)
        rv.probabilities = probabilities / probabilities.sum()
        rv.values.setflags(write=False)
        rv.probabilities.setflags(write=False)
        return rv

    @classmethod
    def constant(cls, value: float) -> "DiscreteRV":
        """The degenerate variable always equal to ``value``."""
        return cls([value], [1.0])

    @classmethod
    def two_state(cls, nominal: float, reexecuted: float, pfail: float) -> "DiscreteRV":
        """The paper's two-state task law: ``nominal`` w.p. ``1-pfail``,
        ``reexecuted`` w.p. ``pfail``."""
        if not (0.0 <= pfail <= 1.0):
            raise EstimationError(f"pfail must be in [0, 1], got {pfail}")
        if pfail == 0.0:
            return cls.constant(nominal)
        if pfail == 1.0:
            return cls.constant(reexecuted)
        return cls([nominal, reexecuted], [1.0 - pfail, pfail])

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "DiscreteRV":
        """Empirical distribution of a sample (equal weight per sample)."""
        s = np.asarray(samples, dtype=np.float64).ravel()
        if s.size == 0:
            raise EstimationError("cannot build a distribution from an empty sample")
        values, counts = np.unique(s, return_counts=True)
        return cls(values, counts / counts.sum())

    # ------------------------------------------------------------------
    # Moments and summary statistics
    # ------------------------------------------------------------------
    @property
    def support_size(self) -> int:
        """Number of atoms."""
        return int(self.values.size)

    def mean(self) -> float:
        """Expected value."""
        return float(np.dot(self.values, self.probabilities))

    def moment(self, order: int) -> float:
        """Raw moment ``E[X^order]``."""
        if order < 0:
            raise EstimationError("moment order must be non-negative")
        return float(np.dot(self.values**order, self.probabilities))

    def variance(self) -> float:
        """Variance ``E[X²] - E[X]²`` (clamped at zero for round-off)."""
        m = self.mean()
        return max(0.0, self.moment(2) - m * m)

    def std(self) -> float:
        """Standard deviation."""
        return math.sqrt(self.variance())

    def min(self) -> float:
        """Smallest support point."""
        return float(self.values[0])

    def max(self) -> float:
        """Largest support point."""
        return float(self.values[-1])

    def cdf(self, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """``P(X <= x)`` evaluated at one or many points."""
        cum = np.cumsum(self.probabilities)
        idx = np.searchsorted(self.values, np.asarray(x, dtype=np.float64), side="right")
        out = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
        if np.isscalar(x):
            return float(out)
        return out

    def quantile(self, q: float) -> float:
        """Smallest support point ``x`` with ``P(X <= x) >= q``."""
        if not (0.0 <= q <= 1.0):
            raise EstimationError("quantile level must be in [0, 1]")
        cum = np.cumsum(self.probabilities)
        idx = int(np.searchsorted(cum, q - 1e-15, side="left"))
        idx = min(idx, self.values.size - 1)
        return float(self.values[idx])

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> np.ndarray:
        """Draw samples from the distribution."""
        return rng.choice(self.values, size=size, p=self.probabilities)

    # ------------------------------------------------------------------
    # Algebra: shift/scale, sum, max, mixture
    # ------------------------------------------------------------------
    def shift(self, offset: float) -> "DiscreteRV":
        """The distribution of ``X + offset``."""
        return DiscreteRV(self.values + offset, self.probabilities)

    def scale(self, factor: float) -> "DiscreteRV":
        """The distribution of ``factor · X`` (``factor >= 0``)."""
        if factor < 0:
            raise EstimationError("scale factor must be non-negative")
        return DiscreteRV(self.values * factor, self.probabilities)

    def add(self, other: "DiscreteRV", *, max_support: Optional[int] = None) -> "DiscreteRV":
        """Distribution of the sum of two independent variables (convolution)."""
        values = (self.values[:, None] + other.values[None, :]).ravel()
        probs = (self.probabilities[:, None] * other.probabilities[None, :]).ravel()
        out = DiscreteRV(values, probs)
        if max_support is not None:
            out = out.pruned(max_support)
        return out

    def maximum(self, other: "DiscreteRV", *, max_support: Optional[int] = None) -> "DiscreteRV":
        """Distribution of the maximum of two independent variables.

        Computed through the product of CDFs evaluated on the merged
        support, which is exact for independent finite variables.
        """
        merged = np.union1d(self.values, other.values)
        cdf = np.asarray(self.cdf(merged)) * np.asarray(other.cdf(merged))
        pmf = np.diff(np.concatenate(([0.0], cdf)))
        out = DiscreteRV(merged, np.clip(pmf, 0.0, None) / max(cdf[-1], 1e-300))
        if max_support is not None:
            out = out.pruned(max_support)
        return out

    def minimum(self, other: "DiscreteRV", *, max_support: Optional[int] = None) -> "DiscreteRV":
        """Distribution of the minimum of two independent variables."""
        merged = np.union1d(self.values, other.values)
        sf = (1.0 - np.asarray(self.cdf(merged))) * (1.0 - np.asarray(other.cdf(merged)))
        cdf = 1.0 - sf
        pmf = np.diff(np.concatenate(([0.0], cdf)))
        out = DiscreteRV(merged, np.clip(pmf, 0.0, None) / max(cdf[-1], 1e-300))
        if max_support is not None:
            out = out.pruned(max_support)
        return out

    def mixture(self, other: "DiscreteRV", weight_self: float) -> "DiscreteRV":
        """Mixture distribution: with probability ``weight_self`` draw from
        ``self``, otherwise from ``other``."""
        if not (0.0 <= weight_self <= 1.0):
            raise EstimationError("mixture weight must be in [0, 1]")
        values = np.concatenate([self.values, other.values])
        probs = np.concatenate(
            [self.probabilities * weight_self, other.probabilities * (1.0 - weight_self)]
        )
        return DiscreteRV(values, probs)

    def __add__(self, other):
        if isinstance(other, DiscreteRV):
            return self.add(other)
        if np.isscalar(other):
            return self.shift(float(other))
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, factor):
        if np.isscalar(factor):
            return self.scale(float(factor))
        return NotImplemented

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # Support pruning
    # ------------------------------------------------------------------
    def pruned(self, max_support: int) -> "DiscreteRV":
        """Return a variable with at most ``max_support`` atoms.

        Adjacent atoms are merged greedily; each merged group is replaced by
        a single atom placed at the group's conditional mean, so the overall
        mean is preserved exactly and the variance can only shrink.
        """
        if max_support < 1:
            raise EstimationError("max_support must be at least 1")
        n = self.support_size
        if n <= max_support:
            return self
        # Assign atoms to groups of (almost) equal probability mass so that
        # high-probability regions keep more resolution.
        cum = np.cumsum(self.probabilities)
        # Group index of each atom in [0, max_support).
        groups = np.minimum((cum - 1e-15) * max_support, max_support - 1).astype(np.int64)
        groups = np.maximum.accumulate(groups)  # non-decreasing by construction
        new_p = np.zeros(max_support, dtype=np.float64)
        new_v = np.zeros(max_support, dtype=np.float64)
        np.add.at(new_p, groups, self.probabilities)
        np.add.at(new_v, groups, self.probabilities * self.values)
        mask = new_p > 0
        new_v[mask] = new_v[mask] / new_p[mask]
        return DiscreteRV(new_v[mask], new_p[mask])

    # ------------------------------------------------------------------
    # Comparisons / representation
    # ------------------------------------------------------------------
    def allclose(self, other: "DiscreteRV", *, atol: float = 1e-9) -> bool:
        """Whether two variables have (numerically) identical laws."""
        if self.support_size != other.support_size:
            return False
        return bool(
            np.allclose(self.values, other.values, atol=atol)
            and np.allclose(self.probabilities, other.probabilities, atol=atol)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.support_size <= 4:
            atoms = ", ".join(
                f"{v:.4g}:{p:.4g}" for v, p in zip(self.values, self.probabilities)
            )
            return f"DiscreteRV({atoms})"
        return (
            f"DiscreteRV(support={self.support_size}, mean={self.mean():.6g}, "
            f"std={self.std():.3g})"
        )
