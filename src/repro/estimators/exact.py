"""Exact expected makespan by exhaustive enumeration (small graphs only).

Computing the expected makespan of a probabilistic 2-state DAG is
#P-complete (Hagstrom 1988, cited as [17] in the paper), so no polynomial
algorithm is expected to exist.  For *small* graphs, however, the definition

.. math::

    E(G) = \\sum_{S \\subseteq V} P(S) \\, L(S)

can be evaluated directly by enumerating all ``2^{|V|}`` failure subsets.
This estimator is the reference oracle of the test suite: the first-order
and second-order approximations, the series-parallel exact evaluation and
the Monte Carlo estimator are all validated against it on graphs with up to
~20 tasks.

Two failure semantics are supported:

* ``two-state`` (default, the paper's abstraction): a task fails at most
  once, a failed task runs for ``2 a_i``;
* ``weights``: arbitrary per-task binary scenarios supplied explicitly
  through :meth:`ExactEstimator.expected_makespan_from_table`.

Both run one enumerator over per-task ``(nominal, alternative, q)``
vectors: scenario ``s`` (an integer) takes task ``i``'s alternative iff
bit ``i`` of ``s`` is set, and each batch of subsets is written straight
into the wavefront kernel's task-major buffer.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..core.graph import GraphIndex, TaskGraph
from ..core.kernels import WavefrontKernel
from ..core.paths import critical_path_length
from ..exceptions import EstimationError
from ..failures.models import ErrorModel
from .base import EstimateResult, MakespanEstimator

__all__ = ["ExactEstimator"]

_DEFAULT_MAX_TASKS = 22
_BATCH = 1 << 14


def _vector_from_table(index, table: Dict, what: str) -> np.ndarray:
    """Aligned per-task vector from a ``{task_id: value}`` table.

    One pass over the table builds the id → index gather array and the
    value array; a single scatter then aligns the values with the graph's
    integer task indices (instead of one dictionary lookup per task per
    table, three times over).
    """
    n = index.num_tasks
    if len(table) != n:
        raise EstimationError(
            f"{what} table has {len(table)} entries, expected {n}"
        )
    index_of = index.index_of
    try:
        gather = np.fromiter(
            (index_of[t] for t in table), dtype=np.int64, count=n
        )
    except KeyError as exc:
        raise EstimationError(f"{what} table names unknown task {exc.args[0]!r}") from None
    values = np.fromiter(
        (float(v) for v in table.values()), dtype=np.float64, count=n
    )
    out = np.empty(n, dtype=np.float64)
    out[gather] = values
    return out


def _enumerate(
    index: GraphIndex, nominal: np.ndarray, alternative: np.ndarray, q: np.ndarray
) -> Tuple[float, float]:
    """``(Σ_S P(S) L(S), Σ_S P(S))`` over all ``2^n`` subsets ``S``.

    Subsets go in batches of ``_BATCH`` scenario ids, which bounds memory
    at ~batch x n doubles.  ``P(S)`` is a product over tasks in task-index
    order; the weights are filled task-major in kernel row order.
    """
    num_scenarios = 1 << index.num_tasks
    kernel = WavefrontKernel(index, direction="up", dtype=np.float64)
    perm = kernel.perm
    nominal_rows = nominal[perm][:, None]
    alternative_rows = alternative[perm][:, None]
    bits = np.arange(index.num_tasks, dtype=np.uint64)[:, None]
    expected = 0.0
    total_probability = 0.0
    for start in range(0, num_scenarios, _BATCH):
        stop = min(start + _BATCH, num_scenarios)
        ids = np.arange(start, stop, dtype=np.uint64)
        failed = ((ids >> bits) & 1).astype(bool)
        probabilities = np.prod(
            np.where(failed, q[:, None], (1.0 - q)[:, None]), axis=0
        )
        view = kernel.weight_view(stop - start)
        view[...] = np.where(failed[perm], alternative_rows, nominal_rows)
        kernel.propagate(stop - start)
        makespans = kernel.makespans(stop - start)
        expected += float(np.dot(probabilities, makespans))
        total_probability += float(probabilities.sum())
    return expected, total_probability


class ExactEstimator(MakespanEstimator):
    """Exhaustive enumeration of all failure subsets.

    Parameters
    ----------
    max_tasks:
        Safety bound on the graph size (the cost is ``2^{|V|}``); graphs
        larger than this raise :class:`EstimationError`.
    reexecution_factor:
        Execution-time multiplier of a failed task (2 = full re-execution).
    """

    name = "exact"

    def __init__(
        self,
        *,
        max_tasks: int = _DEFAULT_MAX_TASKS,
        reexecution_factor: float = 2.0,
        validate: bool = True,
    ) -> None:
        super().__init__(validate=validate)
        if max_tasks < 1:
            raise EstimationError("max_tasks must be positive")
        if reexecution_factor < 1.0:
            raise EstimationError("re-execution factor must be >= 1")
        self.max_tasks = max_tasks
        self.reexecution_factor = reexecution_factor

    def _estimate(self, graph: TaskGraph, model: ErrorModel) -> EstimateResult:
        index = graph.index()
        n = index.num_tasks
        if n > self.max_tasks:
            raise EstimationError(
                f"exact enumeration over 2^{n} subsets refused "
                f"(graph has {n} tasks, limit is {self.max_tasks}); "
                "use the first-order, second-order or Monte Carlo estimators instead"
            )
        weights = index.weights
        q = np.asarray(model.failure_probabilities(weights), dtype=np.float64)
        if np.any((q < 0) | (q > 1)):
            raise EstimationError("failure probabilities must lie in [0, 1]")

        factor = self.reexecution_factor
        expected, total_probability = _enumerate(
            index, weights, weights * (1.0 + (factor - 1.0)), q
        )
        if abs(total_probability - 1.0) > 1e-9:
            raise EstimationError(
                f"scenario probabilities sum to {total_probability}, expected 1"
            )

        return EstimateResult(
            method=self.name,
            expected_makespan=expected,
            failure_free_makespan=critical_path_length(index),
            wall_time=0.0,
            details={
                "num_scenarios": 1 << n,
                "reexecution_factor": factor,
            },
        )

    # ------------------------------------------------------------------
    def expected_makespan_from_table(
        self,
        graph: TaskGraph,
        nominal: Dict,
        alternative: Dict,
        pfail: Dict,
    ) -> float:
        """Exact expectation for arbitrary per-task two-point distributions.

        ``nominal[t]`` / ``alternative[t]`` are the two possible execution
        times of task ``t`` and ``pfail[t]`` the probability of the
        alternative value.  Useful for testing non-doubling re-execution
        models.
        """
        index = graph.index()
        n = index.num_tasks
        if n > self.max_tasks:
            raise EstimationError(f"too many tasks for exact enumeration ({n})")
        nominal_vec = _vector_from_table(index, nominal, "nominal")
        alt_vec = _vector_from_table(index, alternative, "alternative")
        q = _vector_from_table(index, pfail, "pfail")
        if np.any((q < 0) | (q > 1)):
            raise EstimationError("probabilities must lie in [0, 1]")

        return _enumerate(index, nominal_vec, alt_vec, q)[0]
