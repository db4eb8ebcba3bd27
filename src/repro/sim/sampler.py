"""Sampling of per-trial task execution times under silent errors.

The Monte Carlo ground truth of the paper works as follows (Section V-C):
for every task of every trial, a time-to-next-failure is drawn from an
exponential distribution of rate ``λ``; the task's first execution attempt
fails iff that time is smaller than the task's weight, in which case the
task is re-executed (its effective weight doubles).

Two sampling modes are provided:

* ``"two-state"`` — the paper's evaluation model: at most one re-execution,
  effective time ``a_i`` or ``2 a_i``;
* ``"geometric"`` — re-execute until success: the number of executions is
  geometric with success probability ``e^{-λ a_i}``, which is the exact
  behaviour of the verification + re-execution scheme (the two-state model
  is its first-order truncation).

Everything is vectorised: a whole batch of trials is sampled as one
``(trials, tasks)`` matrix.
"""

from __future__ import annotations

from typing import Literal, Union

import numpy as np

from ..core.graph import GraphIndex, TaskGraph
from ..exceptions import EstimationError
from ..failures.models import ErrorModel

__all__ = [
    "sample_failure_mask",
    "sample_task_times",
    "task_failure_probabilities",
    "SamplingMode",
    "DEFAULT_MAX_EXECUTIONS",
]

SamplingMode = Literal["two-state", "geometric"]

#: Default cap on the number of executions per task in geometric mode
#: (shared with :class:`repro.sim.MonteCarloEngine` so both sampling paths
#: truncate identically).
DEFAULT_MAX_EXECUTIONS = 64


def task_failure_probabilities(model: ErrorModel, weights: np.ndarray) -> np.ndarray:
    """Validated per-task first-attempt failure probabilities.

    One call per engine suffices: the probabilities depend only on the model
    and the task weights, so Monte Carlo pipelines cache the result instead
    of re-deriving it for every batch.
    """
    q = np.asarray(model.failure_probabilities(weights), dtype=np.float64)
    if np.any((q < 0) | (q > 1)):
        raise EstimationError("failure probabilities must lie in [0, 1]")
    return q


def sample_failure_mask(
    weights: np.ndarray,
    model: ErrorModel,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Boolean matrix ``(trials, tasks)``: True where the first attempt fails."""
    if trials <= 0:
        raise EstimationError("number of trials must be positive")
    q = task_failure_probabilities(model, weights)
    return rng.random((trials, weights.shape[0])) < q[None, :]


def sample_task_times(
    graph_or_weights: Union[TaskGraph, GraphIndex, np.ndarray],
    model: ErrorModel,
    trials: int,
    rng: np.random.Generator,
    *,
    mode: SamplingMode = "two-state",
    reexecution_factor: float = 2.0,
    max_executions: int = DEFAULT_MAX_EXECUTIONS,
) -> np.ndarray:
    """Sample effective task execution times for a batch of trials.

    Parameters
    ----------
    graph_or_weights:
        A task graph, its index, or directly the weight vector.
    model:
        The silent-error model.
    trials:
        Number of trials in the batch.
    rng:
        NumPy random generator (callers manage seeding for reproducibility).
    mode:
        ``"two-state"`` or ``"geometric"`` (see module docstring).
    reexecution_factor:
        Cost multiplier of each re-execution in two-state mode (2 = rerun
        from scratch).  In geometric mode every attempt costs the nominal
        weight.
    max_executions:
        Cap on the number of executions per task in geometric mode (guards
        against pathological failure probabilities close to 1).

    Returns
    -------
    numpy.ndarray
        ``(trials, tasks)`` matrix of effective execution times.
    """
    if isinstance(graph_or_weights, TaskGraph):
        weights = graph_or_weights.index().weights
    elif isinstance(graph_or_weights, GraphIndex):
        weights = graph_or_weights.weights
    else:
        weights = np.asarray(graph_or_weights, dtype=np.float64)
    if weights.ndim != 1:
        raise EstimationError("weights must be a one-dimensional vector")
    if trials <= 0:
        raise EstimationError("number of trials must be positive")
    if reexecution_factor < 1.0:
        raise EstimationError("re-execution factor must be >= 1")

    q = task_failure_probabilities(model, weights)

    if mode == "two-state":
        failures = rng.random((trials, weights.shape[0])) < q[None, :]
        extra = (reexecution_factor - 1.0) * weights[None, :]
        return weights[None, :] + failures * extra

    if mode == "geometric":
        if max_executions < 1:
            raise EstimationError("max_executions must be at least 1")
        # Number of failed attempts before the first success is geometric
        # with success probability 1 - q; total executions = failures + 1.
        success = 1.0 - q
        if np.any(success <= 0.0):
            raise EstimationError("some task never succeeds; geometric sampling diverges")
        # Broadcasting the per-task success probabilities against the target
        # shape draws the exact same variates as materialising the full
        # (trials, tasks) probability matrix, without allocating it.
        failures = rng.geometric(success, size=(trials, weights.shape[0])) - 1
        failures = np.minimum(failures, max_executions - 1)
        return weights[None, :] * (1.0 + failures)

    raise EstimationError(f"unknown sampling mode {mode!r}")
