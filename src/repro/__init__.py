"""repro — expected makespan of task graphs under silent errors.

A production-quality reproduction of

    Henri Casanova, Julien Herrmann, Yves Robert,
    "Computing the expected makespan of task graphs in the presence of
    silent errors", P2S2 workshop (with ICPP), 2016.

The package provides:

* :class:`~repro.core.TaskGraph` and the path algorithms of Section III;
* silent-error models (:mod:`repro.failures`) with the paper's
  ``p_fail``-based calibration;
* the paper's **first-order approximation** of the expected makespan and its
  competitors — Dodin's series-parallel approximation, Sculli's normal
  propagation — plus Monte Carlo, exact enumeration, a second-order
  extension and analytic bounds (:mod:`repro.estimators`);
* the tiled Cholesky/LU/QR DAG generators of the evaluation section
  (:mod:`repro.workflows`);
* silent-error-aware list scheduling (:mod:`repro.scheduling`);
* a shared parallel-execution service (:mod:`repro.exec`) carrying the
  Monte Carlo batches and the analytical estimators' level sweeps on
  interchangeable serial/processes backends;
* the experiment drivers regenerating every figure and table of the paper
  (:mod:`repro.experiments`) and a command-line interface (:mod:`repro.cli`).

Quickstart
----------

>>> import repro
>>> graph = repro.cholesky_dag(6)
>>> model = repro.ExponentialErrorModel.for_graph(graph, pfail=0.001)
>>> result = repro.estimate_expected_makespan(graph, model, method="first-order")
>>> result.expected_makespan >= result.failure_free_makespan
True
"""

from __future__ import annotations

from typing import Optional, Union

from .exceptions import (
    CycleError,
    EstimationError,
    ExperimentError,
    GraphError,
    ModelError,
    ReproError,
    SchedulingError,
)
from .core import (
    Task,
    TaskGraph,
    bottom_levels,
    critical_path,
    critical_path_length,
    top_levels,
)
from .failures import (
    DvfsErrorModel,
    ErrorModel,
    ExponentialErrorModel,
    FixedProbabilityModel,
    TwoStateDistribution,
    calibrate_lambda,
)
from .estimators import (
    CorrelatedNormalEstimator,
    DodinEstimator,
    EstimateResult,
    ExactEstimator,
    FirstOrderEstimator,
    MakespanEstimator,
    MonteCarloEstimator,
    SculliEstimator,
    SecondOrderEstimator,
    available_estimators,
    get_estimator,
    makespan_bounds,
    normalized_difference,
    relative_error,
)
from .workflows import (
    KernelTimings,
    build_dag,
    cholesky_dag,
    lu_dag,
    qr_dag,
)
from .sim import MonteCarloEngine, simulate_expected_makespan

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "GraphError",
    "CycleError",
    "EstimationError",
    "ModelError",
    "SchedulingError",
    "ExperimentError",
    # core
    "Task",
    "TaskGraph",
    "critical_path",
    "critical_path_length",
    "top_levels",
    "bottom_levels",
    # failures
    "ErrorModel",
    "ExponentialErrorModel",
    "FixedProbabilityModel",
    "DvfsErrorModel",
    "TwoStateDistribution",
    "calibrate_lambda",
    # estimators
    "EstimateResult",
    "MakespanEstimator",
    "FirstOrderEstimator",
    "SecondOrderEstimator",
    "ExactEstimator",
    "DodinEstimator",
    "SculliEstimator",
    "CorrelatedNormalEstimator",
    "MonteCarloEstimator",
    "available_estimators",
    "get_estimator",
    "makespan_bounds",
    "normalized_difference",
    "relative_error",
    "estimate_expected_makespan",
    # workflows
    "KernelTimings",
    "cholesky_dag",
    "lu_dag",
    "qr_dag",
    "build_dag",
    # simulation
    "MonteCarloEngine",
    "simulate_expected_makespan",
]


def estimate_expected_makespan(
    graph: TaskGraph,
    model: Union[ErrorModel, float],
    *,
    method: str = "first-order",
    **estimator_kwargs,
) -> EstimateResult:
    """Estimate the expected makespan of a task graph under silent errors.

    Parameters
    ----------
    graph:
        The task graph.
    model:
        Either an :class:`~repro.failures.ErrorModel`, or a float which is
        interpreted as the per-average-weight-task failure probability
        ``p_fail`` and converted with the paper's calibration
        (:meth:`ExponentialErrorModel.for_graph`).
    method:
        Registry name of the estimator (``"first-order"``, ``"dodin"``,
        ``"normal"``, ``"monte-carlo"``, ``"second-order"``, ``"exact"``,
        ...).
    estimator_kwargs:
        Forwarded to the estimator constructor (e.g. ``trials=300_000`` for
        Monte Carlo).

    Returns
    -------
    EstimateResult
    """
    if isinstance(model, (int, float)) and not isinstance(model, bool):
        model = ExponentialErrorModel.for_graph(graph, float(model))
    estimator = get_estimator(method, **estimator_kwargs)
    return estimator.estimate(graph, model)
