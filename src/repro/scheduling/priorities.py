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
  bottom level of every task: applying the paper's approximation to the
  sub-DAG of descendants of each task, evaluated for all tasks in a single
  ``O(|V| + |E|)`` style sweep (two passes);
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
from ..core.kernels import propagate_moments
from ..core.paths import downward_lengths
from ..core.task import TaskId
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

    ``E[bl(i)] ≈ down(i) + Σ_j λ a_j · max(0, down_via_i(j) − down(i))``

    where the sum ranges over the descendants ``j`` of ``i`` (including
    ``i``) and ``down_via_i(j)`` is the longest ``i → … → j → …`` path with
    ``a_j`` doubled.  Evaluating this naively for every ``i`` costs
    ``O(|V|·(|V| + |E|))``; this function does exactly that (the graphs used
    for scheduling experiments have at most a few thousand tasks), caching
    the descendant ``down`` arrays.
    """
    index = graph.index()
    n = index.num_tasks
    weights = index.weights
    rate = getattr(model, "error_rate", None)
    if rate is None:
        factors = np.asarray(model.failure_probabilities(weights), dtype=np.float64)
    else:
        factors = float(rate) * weights

    indptr_s, indices_s = index.succ_indptr, index.succ_indices
    topo = index.topo_order

    # down[j]: longest path starting at j (inclusive) -- shared by all
    # roots, evaluated level by level with no compiled schedule.
    down = downward_lengths(index)

    result: Dict[TaskId, float] = {}
    # For each root i, compute within the descendant cone:
    #   depth[j] = longest path from i to j (inclusive of both),
    # then the longest path through j in the cone is depth[j] + down[j] - a_j
    # and doubling a_j yields depth[j] + down[j].
    for i in range(n):
        depth = np.full(n, -np.inf)
        depth[i] = weights[i]
        correction = 0.0
        base = down[i]
        for j in topo:
            if depth[j] == -np.inf:
                continue
            through_doubled = depth[j] + down[j]  # a_j counted twice = doubled
            if through_doubled > base:
                correction += factors[j] * (through_doubled - base)
            succs = indices_s[indptr_s[j] : indptr_s[j + 1]]
            if succs.size:
                candidate = depth[j] + weights[succs]
                depth[succs] = np.maximum(depth[succs], candidate)
        result[index.task_ids[i]] = float(base + correction)
    return result


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
