"""Discrete topological-sweep estimator (PERT-style independence heuristic).

A classical alternative to Dodin's reduction (see e.g. the survey in Canon &
Jeannot, cited as [24] by the paper) propagates *discrete* completion-time
distributions directly through the DAG in topological order:

``C_i  =  X_i  +  max_{p ∈ Pred(i)} C_p``

where the maximum over the predecessors' distributions is evaluated as if
they were independent (CDF product) and the sum as a convolution.  Path
correlations are ignored exactly as in Sculli's method, but no normal
moment-matching is involved — the per-task two-state laws are kept exact,
up to support pruning.

This estimator is not part of the paper's comparison; it is included as an
extension because it isolates the effect of the *independence assumption*
(shared with Dodin and Sculli) from the effects of node duplication (Dodin)
and of the normality assumption (Sculli).  Like Sculli it tends to
overestimate the expected makespan on graphs with heavily shared paths.

Cost: one convolution and ``deg⁻(i) − 1`` CDF-product maxima per task, each
``O(S²)`` / ``O(S log S)`` for supports pruned to ``S`` atoms.

The sweep runs level-at-a-time on the compiled ``"up"``
:class:`~repro.core.kernels.LevelSchedule`: all tasks of a level evaluate
their predecessor maxima and convolutions simultaneously as row-batched
operations on padded ``(tasks_in_level, support)`` arrays
(:class:`repro.rv.discrete_batch.DiscreteBatch`), turning thousands of
small per-task NumPy calls into a few dozen per level.  The batched
operations mirror the scalar :class:`~repro.rv.discrete.DiscreteRV`
pipeline step by step (same merge tolerance, same pruning groups, same
fold order over predecessors), so the estimate matches the per-task
reference — kept as a test oracle in ``tests/oracles/estimators.py`` —
to floating-point rounding.
"""

from __future__ import annotations

import numpy as np

from ..core.graph import TaskGraph
from ..core.kernels import schedule_for
from ..core.paths import critical_path_length
from ..exceptions import EstimationError
from ..failures.models import ErrorModel
from ..rv.discrete import DiscreteRV
from ..rv.discrete_batch import DiscreteBatch
from .base import EstimateResult, MakespanEstimator

__all__ = ["DiscreteSweepEstimator"]


class DiscreteSweepEstimator(MakespanEstimator):
    """Topological sweep with exact discrete task laws and CDF-product maxima.

    Parameters
    ----------
    max_support:
        Cap on the number of atoms of every intermediate distribution
        (mean-preserving pruning, as in the Dodin estimator).
    reexecution_factor:
        Execution-time multiplier of a failed task (2 = full re-execution).
    """

    name = "discrete-sweep"

    def __init__(
        self,
        *,
        max_support: int = 128,
        reexecution_factor: float = 2.0,
        validate: bool = True,
    ) -> None:
        super().__init__(validate=validate)
        if max_support < 2:
            raise EstimationError("max_support must be at least 2")
        if reexecution_factor < 1.0:
            raise EstimationError("re-execution factor must be >= 1")
        self.max_support = max_support
        self.reexecution_factor = reexecution_factor

    def _makespan_distribution(self, graph: TaskGraph, model: ErrorModel) -> DiscreteRV:
        """Level-batched sweep producing the makespan distribution."""
        index = graph.index()
        n = index.num_tasks
        cap = self.max_support
        weights = index.weights
        q = np.asarray(model.failure_probabilities(weights), dtype=np.float64)
        laws = DiscreteBatch.two_state(
            weights, self.reexecution_factor * weights, q
        )

        schedule = schedule_for(index, "up")
        perm = schedule.perm
        level_indptr = schedule.level_indptr

        # Completion-time storage, one row per task (task-index order);
        # rows are written exactly once, when the task's level is reached.
        store_width = cap
        store_v = np.full((n, store_width), np.inf)
        store_p = np.zeros((n, store_width))
        store_sizes = np.zeros(n, dtype=np.int64)

        def write(tasks: np.ndarray, batch: DiscreteBatch) -> None:
            nonlocal store_width, store_v, store_p
            if batch.width > store_width:
                grow_v = np.full((n, batch.width), np.inf)
                grow_p = np.zeros((n, batch.width))
                grow_v[:, :store_width] = store_v
                grow_p[:, :store_width] = store_p
                store_v, store_p, store_width = grow_v, grow_p, batch.width
            store_v[tasks, : batch.width] = batch.values
            store_p[tasks, : batch.width] = batch.probs
            store_sizes[tasks] = batch.sizes

        def gather(tasks: np.ndarray) -> DiscreteBatch:
            sizes = store_sizes[tasks]
            width = max(1, int(sizes.max()))
            return DiscreteBatch(
                store_v[tasks, :width], store_p[tasks, :width], sizes
            )

        if schedule.num_levels:
            entry = perm[: level_indptr[1]]
            write(
                entry,
                DiscreteBatch.constant(entry.shape[0]).add(
                    laws.take(entry), cap
                ),
            )
        for group in schedule.groups:
            ptasks = perm[group.preds]  # (m, d) predecessor task indices
            targets = perm[group.start : group.stop]
            ready = gather(ptasks[:, 0])
            for j in range(1, ptasks.shape[1]):
                ready = ready.maximum(gather(ptasks[:, j]), cap)
            write(targets, ready.add(laws.take(targets), cap))

        sinks = index.sink_indices()
        makespan = gather(np.asarray([sinks[0]])).row(0)
        for s in sinks[1:]:
            makespan = makespan.maximum(
                gather(np.asarray([s])).row(0), max_support=cap
            )
        return makespan

    def _estimate(self, graph: TaskGraph, model: ErrorModel) -> EstimateResult:
        makespan = self._makespan_distribution(graph, model)
        return EstimateResult(
            method=self.name,
            expected_makespan=makespan.mean(),
            failure_free_makespan=critical_path_length(graph),
            wall_time=0.0,
            details={
                "makespan_std": makespan.std(),
                "max_support": self.max_support,
                "final_support": makespan.support_size,
                "reexecution_factor": self.reexecution_factor,
            },
        )
