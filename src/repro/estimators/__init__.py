"""Expected-makespan estimators.

* :class:`FirstOrderEstimator` — the paper's contribution (Section IV).
* :class:`DodinEstimator` and :class:`SculliEstimator` — the two previously
  proposed approximations the paper compares against (Section II-A).
* :class:`MonteCarloEstimator` — the brute-force ground truth.
* :class:`ExactEstimator`, :class:`SecondOrderEstimator`,
  :class:`CorrelatedNormalEstimator`, bounds — extensions and test oracles.
"""

from .base import EstimateResult, MakespanEstimator, normalized_difference, relative_error
from .bounds import LowerBoundEstimator, UpperBoundEstimator, makespan_bounds
from .correlated import CorrelatedNormalEstimator
from .correlation import (
    CORRELATION_BACKENDS,
    BandedCorrelationStore,
    CorrelationStore,
    DenseCorrelationStore,
    exact_bandwidth,
    make_correlation_store,
)
from .dodin import DodinEstimator
from .exact import ExactEstimator
from .first_order import FirstOrderEstimator, first_order_expected_makespan
from .montecarlo import MonteCarloEstimator
from .registry import (
    PAPER_ESTIMATORS,
    available_estimators,
    get_estimator,
    register_estimator,
)
from .sculli import SculliEstimator
from .second_order import SecondOrderEstimator
from .sweep import DiscreteSweepEstimator

__all__ = [
    "EstimateResult",
    "MakespanEstimator",
    "normalized_difference",
    "relative_error",
    "FirstOrderEstimator",
    "first_order_expected_makespan",
    "SecondOrderEstimator",
    "ExactEstimator",
    "DodinEstimator",
    "SculliEstimator",
    "CorrelatedNormalEstimator",
    "CORRELATION_BACKENDS",
    "CorrelationStore",
    "DenseCorrelationStore",
    "BandedCorrelationStore",
    "exact_bandwidth",
    "make_correlation_store",
    "MonteCarloEstimator",
    "DiscreteSweepEstimator",
    "LowerBoundEstimator",
    "UpperBoundEstimator",
    "makespan_bounds",
    "available_estimators",
    "get_estimator",
    "register_estimator",
    "PAPER_ESTIMATORS",
]
