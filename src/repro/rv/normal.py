"""Normal random variables and Clark's moment-matching formulas.

Sculli's method (the paper's "Normal" competitor, Section II-A3) replaces
every task execution time by a normal variable with the same mean and
variance, then propagates completion times through the DAG by alternating

* sums of independent normals (means and variances add), and
* maxima of two normals, approximated as a normal whose first two moments
  are given by Clark's exact formulas (Clark, *Operations Research* 1961).

Clark's formulas also yield the correlation of the (approximated) maximum
with any third variable, which is what the correlation-aware extension in
:mod:`repro.estimators.correlated` uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..exceptions import EstimationError

__all__ = [
    "NormalRV",
    "norm_pdf",
    "norm_cdf",
    "clark_max_moments",
    "clark_max",
    "clark_correlation_with_third",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def norm_pdf(x: float) -> float:
    """Standard normal density ``φ(x)``."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def norm_cdf(x: float) -> float:
    """Standard normal cumulative distribution ``Φ(x)``."""
    return 0.5 * math.erfc(-x / _SQRT2)


@dataclass(frozen=True)
class NormalRV:
    """A (possibly degenerate) normal random variable ``N(mean, variance)``."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if self.variance < 0:
            # Tiny negative values appear through floating-point cancellation
            # in Clark's second-moment formula; clamp them, reject the rest.
            if self.variance > -1e-9:
                object.__setattr__(self, "variance", 0.0)
            else:
                raise EstimationError(f"variance must be non-negative, got {self.variance}")

    @property
    def std(self) -> float:
        """Standard deviation."""
        return math.sqrt(self.variance)

    @classmethod
    def degenerate(cls, value: float) -> "NormalRV":
        """A constant (zero-variance) variable."""
        return cls(value, 0.0)

    @classmethod
    def from_moments(cls, mean: float, variance: float) -> "NormalRV":
        """Moment-matching constructor (identity, provided for readability)."""
        return cls(mean, variance)

    # -- algebra ---------------------------------------------------------
    def shift(self, offset: float) -> "NormalRV":
        """The variable ``X + offset``."""
        return NormalRV(self.mean + offset, self.variance)

    def add_independent(self, other: "NormalRV") -> "NormalRV":
        """Sum of two independent normals."""
        return NormalRV(self.mean + other.mean, self.variance + other.variance)

    def max_independent(self, other: "NormalRV") -> "NormalRV":
        """Clark approximation of the maximum of two *independent* normals."""
        return clark_max(self, other, 0.0)

    def __add__(self, other):
        if isinstance(other, NormalRV):
            return self.add_independent(other)
        if isinstance(other, (int, float)):
            return self.shift(float(other))
        return NotImplemented

    __radd__ = __add__

    def cdf(self, x: float) -> float:
        """``P(X <= x)``."""
        if self.variance == 0.0:
            return 1.0 if x >= self.mean else 0.0
        return norm_cdf((x - self.mean) / self.std)

    def quantile(self, q: float) -> float:
        """Inverse CDF (uses :func:`scipy.special.ndtri` for accuracy)."""
        if not (0.0 < q < 1.0):
            raise EstimationError("quantile level must be in (0, 1)")
        if self.variance == 0.0:
            return self.mean
        from scipy.special import ndtri

        return float(ndtri(q) * self.std + self.mean)


def clark_max_moments(
    mean1: float,
    var1: float,
    mean2: float,
    var2: float,
    correlation: float = 0.0,
) -> Tuple[float, float]:
    """First two central moments of ``max(X1, X2)`` for jointly normal inputs.

    Returns
    -------
    (mean, variance)
        Clark's exact expectation and variance of the maximum; the normal
        approximation consists of *pretending* the maximum is again normal
        with these moments.

    Notes
    -----
    With ``a² = σ1² + σ2² − 2 ρ σ1 σ2`` and ``α = (μ1 − μ2)/a``:

    * ``E[max]  = μ1 Φ(α) + μ2 Φ(−α) + a φ(α)``
    * ``E[max²] = (μ1²+σ1²) Φ(α) + (μ2²+σ2²) Φ(−α) + (μ1+μ2) a φ(α)``

    When ``a = 0`` the two variables are almost surely ordered by their means
    and the maximum is simply the larger one.
    """
    if not (-1.0 - 1e-9 <= correlation <= 1.0 + 1e-9):
        raise EstimationError(f"correlation must be in [-1, 1], got {correlation}")
    correlation = min(1.0, max(-1.0, correlation))
    if var1 < 0 or var2 < 0:
        raise EstimationError("variances must be non-negative")

    sigma1 = math.sqrt(var1)
    sigma2 = math.sqrt(var2)
    a_sq = var1 + var2 - 2.0 * correlation * sigma1 * sigma2
    a_sq = max(a_sq, 0.0)
    a = math.sqrt(a_sq)

    if a == 0.0:
        # The difference X1 - X2 is deterministic: the max is whichever
        # variable has the larger mean (they share the same variance).
        if mean1 >= mean2:
            return mean1, var1
        return mean2, var2

    alpha = (mean1 - mean2) / a
    phi = norm_pdf(alpha)
    cdf_pos = norm_cdf(alpha)
    cdf_neg = norm_cdf(-alpha)

    first = mean1 * cdf_pos + mean2 * cdf_neg + a * phi
    second = (
        (mean1 * mean1 + var1) * cdf_pos
        + (mean2 * mean2 + var2) * cdf_neg
        + (mean1 + mean2) * a * phi
    )
    variance = max(0.0, second - first * first)
    return first, variance


def clark_max(x1: NormalRV, x2: NormalRV, correlation: float = 0.0) -> NormalRV:
    """Clark's normal approximation of ``max(X1, X2)``."""
    mean, variance = clark_max_moments(x1.mean, x1.variance, x2.mean, x2.variance, correlation)
    return NormalRV(mean, variance)


def clark_correlation_with_third(
    x1: NormalRV,
    x2: NormalRV,
    correlation12: float,
    correlation1z: float,
    correlation2z: float,
) -> float:
    """Correlation of ``max(X1, X2)`` with a third normal variable ``Z``.

    Clark (1961), Eq. (5): with ``α`` and ``a`` as in
    :func:`clark_max_moments`,

    ``corr(max, Z) = (σ1 ρ_{1Z} Φ(α) + σ2 ρ_{2Z} Φ(−α)) / σ_max``.

    Degenerate cases (zero variance of the maximum) return correlation 0.
    """
    mean_max, var_max = clark_max_moments(
        x1.mean, x1.variance, x2.mean, x2.variance, correlation12
    )
    if var_max <= 0.0:
        return 0.0
    sigma1 = x1.std
    sigma2 = x2.std
    a_sq = x1.variance + x2.variance - 2.0 * correlation12 * sigma1 * sigma2
    a = math.sqrt(max(a_sq, 0.0))
    if a == 0.0:
        rho = correlation1z if x1.mean >= x2.mean else correlation2z
        return min(1.0, max(-1.0, rho))
    alpha = (x1.mean - x2.mean) / a
    numerator = sigma1 * correlation1z * norm_cdf(alpha) + sigma2 * correlation2z * norm_cdf(-alpha)
    rho = numerator / math.sqrt(var_max)
    return min(1.0, max(-1.0, rho))
