"""Sculli's method: the paper's "Normal" competitor.

Section II-A3: each task execution time (the 2-state law taking value
``a_i`` with probability ``p_i`` and ``2 a_i`` with probability ``1 - p_i``)
is replaced by a normal variable of identical mean and variance.  Completion
times are then propagated through the DAG:

* the completion time of a task is its own (normal) execution time plus the
  maximum of its predecessors' completion times;
* sums of normals stay normal (means and variances add — independence is
  assumed);
* the maximum of two normals is *approximated* by a normal whose first two
  moments are given by Clark's formulas; Sculli's classical method takes the
  two operands to be independent (correlation 0).

The expected makespan estimate is the mean of the (approximately normal)
completion time of the whole graph, i.e. of the maximum over exit tasks.

The propagation runs on the level-wavefront moment kernel of
:mod:`repro.core.kernels`: one batched Clark fold per topological level
instead of one Python iteration (and one :class:`~repro.rv.normal.NormalRV`
allocation) per task, with the predecessor fold applied in the same CSR
order as the sequential recurrence — results agree with the per-task
reference (kept as a test oracle in ``tests/oracles/estimators.py``) to
floating-point rounding.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..core.graph import GraphIndex, TaskGraph
from ..core.kernels import propagate_moments
from ..core.paths import critical_path_length
from ..exceptions import EstimationError
from ..failures.models import ErrorModel
from ..failures.twostate import two_state_moment_vectors
from ..rv.normal import NormalRV, clark_max
from .base import EstimateResult, MakespanEstimator

__all__ = ["SculliEstimator"]


def _fold_sinks(
    index: GraphIndex, mean: np.ndarray, var: np.ndarray
) -> NormalRV:
    """Clark-fold the sink completion times into the makespan normal."""
    sinks = index.sink_indices()
    makespan = NormalRV(float(mean[sinks[0]]), float(var[sinks[0]]))
    for s in sinks[1:]:
        makespan = clark_max(makespan, NormalRV(float(mean[s]), float(var[s])), 0.0)
    return makespan


class SculliEstimator(MakespanEstimator):
    """Normal-propagation approximation of the expected makespan.

    Parameters
    ----------
    reexecution_factor:
        Execution-time multiplier of a failed task (2 = full re-execution,
        as in the paper).
    kernel_backend:
        Compiled-kernel backend of the moment-propagation fold
        (``"numpy"`` reference or the JIT ``"numba"`` fold, which agrees
        to ≤1e-9 — the two ``erfc`` implementations differ at ulp
        level).  ``None`` resolves ``REPRO_KERNEL_BACKEND``; see
        :mod:`repro.core.backends`.
    """

    name = "normal"

    def __init__(
        self,
        *,
        reexecution_factor: float = 2.0,
        kernel_backend: Optional[str] = None,
        validate: bool = True,
    ) -> None:
        super().__init__(validate=validate)
        if reexecution_factor < 1.0:
            raise EstimationError("re-execution factor must be >= 1")
        self.reexecution_factor = reexecution_factor
        self.kernel_backend = kernel_backend

    def _completion_moments(
        self, index: GraphIndex, model: ErrorModel
    ) -> Tuple[np.ndarray, np.ndarray]:
        task_mean, task_var = two_state_moment_vectors(
            index.weights, model, reexecution_factor=self.reexecution_factor
        )
        return propagate_moments(
            index,
            task_mean,
            task_var,
            direction="up",
            kernel_backend=self.kernel_backend,
        )

    def _estimate(self, graph: TaskGraph, model: ErrorModel) -> EstimateResult:
        index = graph.index()
        completion_mean, completion_var = self._completion_moments(index, model)
        makespan = _fold_sinks(index, completion_mean, completion_var)

        return EstimateResult(
            method=self.name,
            expected_makespan=makespan.mean,
            failure_free_makespan=critical_path_length(index),
            wall_time=0.0,
            details={
                "makespan_variance": makespan.variance,
                "makespan_std": makespan.std,
                "reexecution_factor": self.reexecution_factor,
            },
        )

    def completion_time_moments(
        self, graph: TaskGraph, model: ErrorModel
    ) -> Dict:
        """Per-task (mean, variance) of the approximated completion times.

        Exposed for the silent-error-aware scheduling heuristics, which rank
        tasks by expected bottom level.
        """
        index = graph.index()
        completion_mean, completion_var = self._completion_moments(index, model)
        return {
            tid: (float(completion_mean[j]), float(completion_var[j]))
            for j, tid in enumerate(index.task_ids)
        }
