"""Path-length computations on task graphs.

This module implements the deterministic quantities of Section III of the
paper:

* ``up(i)``  — length of the longest path *ending* at task ``i`` (weights of
  the tasks on the path, ``i`` included).  ``up(i) - a_i`` is the classical
  *top level* ``tl(i)``.
* ``down(i)`` — length of the longest path *starting* at task ``i``
  (``i`` included).  ``down(i) - a_i`` is the classical *bottom level*
  ``bl(i)``.
* ``d(G)``  — the failure-free makespan: length of the longest path in the
  graph, i.e. ``max_i up(i) = max_i down(i)``.
* the longest path *through* each task, ``up(i) + down(i) - a_i``, and the
  value ``d(G_i)`` obtained when task ``i``'s weight is doubled, which is
  the building block of the first-order approximation.

All functions run in ``O(|V| + |E|)``, one topological *level* at a time
(not one task).  Single-scenario sweeps run
:func:`repro.core.kernels.sweep_lengths` over the levels the index build
recorded, compiling no schedule; batched evaluations run the precompiled
level-wavefront kernels over a reused task-major ``(tasks, trials)``
buffer.  ``float64`` results are bit-identical to the per-task reference
recurrence because ``max`` and the single addition per task are
order-independent at fixed precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from ..exceptions import GraphError
from .graph import GraphIndex, TaskGraph
from .kernels import sweep_lengths, wavefront_kernel
from .task import TaskId

__all__ = [
    "PathMetrics",
    "compute_path_metrics",
    "upward_lengths",
    "downward_lengths",
    "critical_path_length",
    "critical_path",
    "top_levels",
    "bottom_levels",
    "longest_path_through",
    "doubled_task_makespans",
    "makespan_with_weights",
    "batched_makespans",
]


def _as_index(graph: Union[TaskGraph, GraphIndex]) -> GraphIndex:
    if isinstance(graph, TaskGraph):
        return graph.index()
    return graph


@dataclass(frozen=True)
class PathMetrics:
    """All per-task path quantities, computed in a single pass.

    Attributes
    ----------
    index:
        The :class:`GraphIndex` the metrics were computed on.
    up:
        ``up[i]``: longest path ending at task ``i`` (inclusive).
    down:
        ``down[i]``: longest path starting at task ``i`` (inclusive).
    critical_length:
        ``d(G)``, the failure-free makespan.
    """

    index: GraphIndex
    up: np.ndarray
    down: np.ndarray
    critical_length: float

    @property
    def through(self) -> np.ndarray:
        """Longest path passing through each task: ``up + down - a``."""
        return self.up + self.down - self.index.weights

    @property
    def top_level(self) -> np.ndarray:
        """Classical top levels ``tl(i) = up(i) - a_i``."""
        return self.up - self.index.weights

    @property
    def bottom_level(self) -> np.ndarray:
        """Classical bottom levels ``bl(i) = down(i) - a_i``."""
        return self.down - self.index.weights

    @property
    def slack(self) -> np.ndarray:
        """Per-task slack ``d(G) - through(i)`` (zero on the critical path)."""
        return self.critical_length - self.through

    def doubled_makespans(self) -> np.ndarray:
        """``d(G_i)`` for every task ``i``.

        Doubling ``a_i`` stretches every path through ``i`` by exactly
        ``a_i`` and leaves every other path untouched, hence
        ``d(G_i) = max(d(G), up(i) + down(i))``.
        """
        return np.maximum(self.critical_length, self.up + self.down)


def compute_path_metrics(
    graph: Union[TaskGraph, GraphIndex],
    weights: Optional[np.ndarray] = None,
) -> PathMetrics:
    """Compute :class:`PathMetrics` for a graph.

    Parameters
    ----------
    graph:
        The task graph (or a pre-built index).
    weights:
        Optional replacement weight vector aligned with the index; when
        omitted the graph's own weights are used.  This is how estimators
        evaluate perturbed weight assignments without copying the graph.
    """
    idx = _as_index(graph)
    w = _resolve_weights(idx, weights)
    up = sweep_lengths(idx, w, "up")
    down = sweep_lengths(idx, w, "down")
    d = float(up.max()) if idx.num_tasks else 0.0
    return PathMetrics(index=idx, up=up, down=down, critical_length=d)


def _resolve_weights(idx: GraphIndex, weights: Optional[np.ndarray]) -> np.ndarray:
    if weights is None:
        return idx.weights
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (idx.num_tasks,):
        raise GraphError(f"weight vector has shape {w.shape}, expected ({idx.num_tasks},)")
    return w


def upward_lengths(
    graph: Union[TaskGraph, GraphIndex], weights: Optional[np.ndarray] = None
) -> np.ndarray:
    """``up(i)``: longest path ending at each task (task included)."""
    idx = _as_index(graph)
    w = _resolve_weights(idx, weights)
    return sweep_lengths(idx, w, "up")


def downward_lengths(
    graph: Union[TaskGraph, GraphIndex], weights: Optional[np.ndarray] = None
) -> np.ndarray:
    """``down(i)``: longest path starting at each task (task included)."""
    idx = _as_index(graph)
    w = _resolve_weights(idx, weights)
    return sweep_lengths(idx, w, "down")


def critical_path_length(
    graph: Union[TaskGraph, GraphIndex], weights: Optional[np.ndarray] = None
) -> float:
    """``d(G)``: the failure-free makespan (longest path length)."""
    idx = _as_index(graph)
    if idx.num_tasks == 0:
        return 0.0
    return float(upward_lengths(idx, weights).max())


def makespan_with_weights(graph: Union[TaskGraph, GraphIndex], weights: np.ndarray) -> float:
    """Longest path length under an explicit weight vector.

    Convenience alias of :func:`critical_path_length` with mandatory
    weights; used by estimators that evaluate perturbed scenarios.
    """
    return critical_path_length(graph, np.asarray(weights, dtype=np.float64))


def critical_path(graph: Union[TaskGraph, GraphIndex]) -> List[TaskId]:
    """Return one longest (critical) path as a list of task identifiers.

    Ties are broken deterministically by task index.
    """
    idx = _as_index(graph)
    if idx.num_tasks == 0:
        return []
    up = upward_lengths(idx)
    # Start from the task with maximal up() and walk backwards through the
    # predecessor that realises the maximum.
    end = int(np.argmax(up))
    path = [end]
    current = end
    while True:
        preds = idx.predecessors(current)
        if preds.size == 0:
            break
        best = preds[int(np.argmax(up[preds]))]
        # The predecessor on the critical path satisfies
        # up[current] == weight[current] + up[best].
        path.append(int(best))
        current = int(best)
    path.reverse()
    return [idx.task_ids[i] for i in path]


def top_levels(graph: Union[TaskGraph, GraphIndex]) -> Dict[TaskId, float]:
    """Classical top levels ``tl(i)`` keyed by task identifier."""
    metrics = compute_path_metrics(graph)
    return dict(zip(metrics.index.task_ids, metrics.top_level.tolist()))


def bottom_levels(graph: Union[TaskGraph, GraphIndex]) -> Dict[TaskId, float]:
    """Classical bottom levels ``bl(i)`` keyed by task identifier."""
    metrics = compute_path_metrics(graph)
    return dict(zip(metrics.index.task_ids, metrics.bottom_level.tolist()))


def longest_path_through(graph: Union[TaskGraph, GraphIndex]) -> Dict[TaskId, float]:
    """Length of the longest path through each task, keyed by identifier."""
    metrics = compute_path_metrics(graph)
    return dict(zip(metrics.index.task_ids, metrics.through.tolist()))


def doubled_task_makespans(graph: Union[TaskGraph, GraphIndex]) -> Dict[TaskId, float]:
    """``d(G_i)`` for every task ``i``, keyed by task identifier.

    ``G_i`` is the graph with task ``i``'s weight doubled; these values are
    exactly what the first-order approximation combines.
    """
    metrics = compute_path_metrics(graph)
    return dict(zip(metrics.index.task_ids, metrics.doubled_makespans().tolist()))


#: Shared-kernel buffers larger than this are dropped after a one-shot
#: ``batched_makespans`` call so that a single huge batch does not pin
#: memory on the index for the rest of the process.
_TRANSIENT_BUFFER_LIMIT = 128 * 2**20


def batched_makespans(
    graph: Union[TaskGraph, GraphIndex],
    weight_matrix: np.ndarray,
    *,
    dtype: Union[str, np.dtype, type, None] = np.float64,
) -> np.ndarray:
    """Longest path length for many weight assignments at once.

    Parameters
    ----------
    graph:
        The task graph (or index).
    weight_matrix:
        Array of shape ``(num_scenarios, num_tasks)``: one weight vector per
        scenario (e.g. one Monte Carlo trial per row), aligned with the
        integer task indices of the graph.
    dtype:
        Evaluation precision: ``float64`` (default; bit-identical to the
        per-task reference recurrence) or ``float32`` (halves memory
        traffic, relative error ~1e-7 — far below Monte Carlo noise).

    Returns
    -------
    numpy.ndarray
        Vector of length ``num_scenarios`` with the makespan of each
        scenario.

    Notes
    -----
    Evaluated by the precompiled level-wavefront kernel of
    :mod:`repro.core.kernels`: the recurrence advances one topological
    *level* at a time over a task-major buffer, which is both
    interpreter-lean (levels ≪ tasks) and cache-friendly (contiguous row
    operations instead of strided column reads).  This is the computational
    core of the Monte Carlo estimator.
    """
    idx = _as_index(graph)
    w = np.asarray(weight_matrix)
    if w.ndim != 2 or w.shape[1] != idx.num_tasks:
        raise GraphError(
            f"weight matrix has shape {w.shape}, expected (num_scenarios, {idx.num_tasks})"
        )
    if idx.num_tasks == 0:
        return np.zeros(w.shape[0], dtype=np.float64)
    kernel = wavefront_kernel(idx, direction="up", dtype=dtype)
    out = kernel.run(w)
    if kernel.buffer_nbytes > _TRANSIENT_BUFFER_LIMIT:
        kernel.release()
    return out
