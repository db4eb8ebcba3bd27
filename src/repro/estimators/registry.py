"""Estimator registry: build estimators from their registry names.

The experiment drivers, the CLI and the benchmarks refer to estimators by
name (``"first-order"``, ``"dodin"``, ``"normal"``, ``"monte-carlo"``, ...)
so that the set of compared techniques is a configuration detail instead of
code.  Third-party estimators can be registered with
:func:`register_estimator`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Type

from ..exceptions import EstimationError
from .base import MakespanEstimator
from .bounds import LowerBoundEstimator, UpperBoundEstimator
from .correlated import CorrelatedNormalEstimator
from .dodin import DodinEstimator
from .exact import ExactEstimator
from .first_order import FirstOrderEstimator
from .montecarlo import MonteCarloEstimator
from .sculli import SculliEstimator
from .second_order import SecondOrderEstimator
from .sweep import DiscreteSweepEstimator

__all__ = [
    "available_estimators",
    "canonical_name",
    "get_estimator",
    "register_estimator",
    "PAPER_ESTIMATORS",
]

#: The three approximation techniques compared in the paper's evaluation
#: (Section V-A), in the order of the figures' legends.
PAPER_ESTIMATORS = ("dodin", "normal", "first-order")

_REGISTRY: Dict[str, Callable[..., MakespanEstimator]] = {}


def register_estimator(name: str, factory: Callable[..., MakespanEstimator]) -> None:
    """Register an estimator factory under a (unique) name."""
    key = name.strip().lower()
    if not key:
        raise EstimationError("estimator name must not be empty")
    if key in _REGISTRY:
        raise EstimationError(f"estimator {key!r} is already registered")
    _REGISTRY[key] = factory


def available_estimators() -> List[str]:
    """Names of all registered estimators (sorted)."""
    return sorted(_REGISTRY)


#: Alternative spellings of the built-in estimators.
ALIASES = {
    "first_order": "first-order",
    "firstorder": "first-order",
    "fo": "first-order",
    "sculli": "normal",
    "mc": "monte-carlo",
    "montecarlo": "monte-carlo",
    "monte_carlo": "monte-carlo",
    "second_order": "second-order",
    "corlca": "normal-correlated",
}


def canonical_name(name: str) -> str:
    """The registry name an estimator name or alias stands for."""
    key = name.strip().lower()
    return ALIASES.get(key, key)


def get_estimator(name: str, **kwargs) -> MakespanEstimator:
    """Instantiate an estimator by registry name.

    Keyword arguments are forwarded to the estimator constructor, e.g.
    ``get_estimator("monte-carlo", trials=300_000, seed=42)``.
    """
    try:
        factory = _REGISTRY[canonical_name(name)]
    except KeyError:
        raise EstimationError(
            f"unknown estimator {name!r}; available: {', '.join(available_estimators())}"
        ) from None
    return factory(**kwargs)


# Built-in estimators.
register_estimator("first-order", FirstOrderEstimator)
register_estimator("second-order", SecondOrderEstimator)
register_estimator("exact", ExactEstimator)
register_estimator("dodin", DodinEstimator)
register_estimator("normal", SculliEstimator)
register_estimator("normal-correlated", CorrelatedNormalEstimator)
register_estimator("monte-carlo", MonteCarloEstimator)
register_estimator("discrete-sweep", DiscreteSweepEstimator)
register_estimator("lower-bound", LowerBoundEstimator)
register_estimator("upper-bound", UpperBoundEstimator)
