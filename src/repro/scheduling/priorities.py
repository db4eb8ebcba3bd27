"""Task priorities for list scheduling.

Classical CP (critical-path) scheduling prioritises tasks by their *bottom
level* — the longest path from the task to the end of the execution
(Section I of the paper).  When tasks can fail, the deterministic bottom
level underestimates the remaining work; the paper's motivation is precisely
that an accurate, cheap estimate of the *expected* bottom level under silent
errors enables error-aware variants of CP scheduling and HEFT.

This module provides:

* :func:`deterministic_bottom_levels` — the classical ``bl(i)``;
* :func:`expected_bottom_levels_first_order` — the first-order expected
  bottom level of every task: the paper's approximation applied to the
  sub-DAG of descendants of each task.  Each task's descendant cone is one
  column of a batched ``"up"`` wavefront sweep, so all tasks cost two
  kernel propagations per chunk of roots, ``O(|V|·(|V| + |E|))`` work in
  ``O(levels)`` vectorised steps per chunk;
* :func:`expected_bottom_levels_sculli` — bottom levels from the normal
  (Sculli) propagation, for comparison;
* :func:`upward_ranks` — HEFT's upward rank for heterogeneous platforms.

The deterministic bottom levels and the (expectation-inflated) HEFT ranks
are plain longest-path sweeps, run by :func:`~repro.core.paths.downward_lengths`
with no compiled schedule (bit-identical to the per-task fold at float64).
The Sculli bottom levels use the batched Clark moment propagation over the
compiled ``"down"`` :class:`~repro.core.kernels.LevelSchedule` (same CSR
fold order as the sequential recurrence, so results agree to
floating-point rounding).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.graph import TaskGraph
from ..core.kernels import WavefrontKernel, propagate_moments
from ..core.paths import downward_lengths
from ..core.task import TaskId
from ..estimators.first_order import first_order_factors
from ..exceptions import SchedulingError
from ..failures.models import ErrorModel
from ..failures.twostate import two_state_moment_vectors
from .platform import Platform

__all__ = [
    "deterministic_bottom_levels",
    "expected_bottom_levels_first_order",
    "expected_bottom_levels_sculli",
    "upward_ranks",
]

# Roots per cone sweep: each (tasks, roots) float64 block of a sweep is
# 5.3 MB on the 2,600-task cholesky 24.
_ROOT_CHUNK = 256


def deterministic_bottom_levels(graph: TaskGraph) -> Dict[TaskId, float]:
    """Classical bottom levels ``bl(i) + a_i`` (task included).

    Note: this follows the list-scheduling convention where a task's
    priority includes its own execution time, i.e. the returned value is the
    ``down(i)`` of :mod:`repro.core.paths` — evaluated one update per
    topological level.
    """
    index = graph.index()
    return dict(zip(index.task_ids, downward_lengths(index).tolist()))


def expected_bottom_levels_first_order(
    graph: TaskGraph, model: ErrorModel
) -> Dict[TaskId, float]:
    """First-order expected bottom level of every task.

    For task ``i``, the bottom level under failures is the expected longest
    path of the descendant sub-DAG rooted at ``i``.  Applying the paper's
    first-order expansion to that sub-DAG gives

    ``E[bl(i)] ≈ down(i) + Σ_j q_j · max(0, depth_i(j) + down(j) − down(i))``

    where the sum ranges over the descendants ``j`` of ``i`` (including
    ``i``), ``depth_i(j)`` is the longest ``i → … → j`` path (both ends
    included), so ``depth_i(j) + down(j)`` is the longest path through
    ``j`` with ``a_j`` doubled, and ``q_j`` is
    :func:`~repro.estimators.first_order.first_order_factors` (``λ a_j``).

    Every root is one column of a private ``"up"`` wavefront kernel, and
    ``_ROOT_CHUNK`` roots run per cone sweep (two propagations).  The
    first puts weight 1 on the root's row and 0 elsewhere, so exactly its
    descendants end positive; the second sweeps the weights masked to that
    cone.  Weights are ``>= 0``, so a zero outside the cone never beats a
    cone path and the root's other predecessors add ``max = 0``: each
    cone row ends at ``depth_i(j)``.  The terms are summed in topological
    order, one row at a time, as the per-root loop kept as the test oracle
    (``tests/oracles/priorities.py``) does, so results are bit-identical to
    it.
    """
    index = graph.index()
    n = index.num_tasks
    if n == 0:
        return {}
    weights = index.weights
    down = downward_lengths(index)
    kernel = WavefrontKernel(index, direction="up", dtype=np.float64)
    perm, rank = kernel.perm, kernel.rank
    weight_rows = weights[perm][:, None]
    down_rows = down[perm][:, None]
    factor_rows = first_order_factors(model, weights)[perm][:, None]
    topo_rows = rank[index.topo_order]
    correction = np.empty(n, dtype=np.float64)
    for start in range(0, n, _ROOT_CHUNK):
        roots = np.arange(start, min(start + _ROOT_CHUNK, n))
        view = kernel.weight_view(roots.size)
        view[...] = 0.0
        view[rank[roots], np.arange(roots.size)] = 1.0
        kernel.propagate(roots.size)
        reach = view > 0.0
        view[...] = np.where(reach, weight_rows, 0.0)
        kernel.propagate(roots.size)
        base = down[roots]
        through = view + down_rows
        gain = np.where(
            reach & (through > base), factor_rows * (through - base), 0.0
        )
        # A running sum adds row after row, the oracle's order (``sum``
        # would sum a single column pairwise).
        correction[roots] = np.cumsum(gain[topo_rows], axis=0)[-1]
    return dict(zip(index.task_ids, (down + correction).tolist()))


def expected_bottom_levels_sculli(
    graph: TaskGraph, model: ErrorModel, *, reexecution_factor: float = 2.0
) -> Dict[TaskId, float]:
    """Expected bottom levels from the normal (Sculli) propagation.

    The propagation runs backwards: ``B_i = X_i + max_{s ∈ Succ(i)} B_s``
    with normal approximations of sums and maxima — one batched Clark fold
    per level of the ``"down"`` schedule.
    """
    index = graph.index()
    task_mean, task_var = two_state_moment_vectors(
        index.weights, model, reexecution_factor=reexecution_factor
    )
    mean, _ = propagate_moments(index, task_mean, task_var, direction="down")
    return dict(zip(index.task_ids, mean.tolist()))


def upward_ranks(
    graph: TaskGraph,
    platform: Platform,
    *,
    model: Optional[ErrorModel] = None,
    reexecution_factor: float = 2.0,
) -> Dict[TaskId, float]:
    """HEFT upward ranks.

    The upward rank of a task is its average execution time over the
    processors plus the maximum upward rank of its successors.  When an
    error model is given, the average execution time is inflated to its
    expected value under the two-state failure model, which yields the
    silent-error-aware HEFT variant.

    The recurrence is the ``"down"`` longest-path sweep with the average
    (or expectation-inflated) execution times as weights, so it runs on the
    same level plan as the deterministic bottom levels.
    """
    if platform.num_processors <= 0:
        raise SchedulingError("platform must have at least one processor")
    index = graph.index()
    n = index.num_tasks
    avg = np.empty(n, dtype=np.float64)
    for i in range(n):
        avg[i] = platform.average_execution_time(graph.task(index.task_ids[i]))
    if model is not None:
        q = np.asarray(
            model.failure_probabilities(index.weights), dtype=np.float64
        )
        avg *= 1.0 + (reexecution_factor - 1.0) * q
    ranks = downward_lengths(index, avg)
    return dict(zip(index.task_ids, ranks.tolist()))
