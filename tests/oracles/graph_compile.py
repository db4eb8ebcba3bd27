"""Reference graph compile: the per-level / dictionary-walking implementation.

Verbatim copies of ``TaskGraph._build_index`` / ``topological_order``,
``compute_level_structure`` and ``_compile_schedule`` as they were before
the compile path became whole-array NumPy passes.  They exist only as test
oracles: ``tests/test_graph_compile.py`` asserts that the package builds
the same :class:`~repro.core.graph.GraphIndex`, level structures and
schedule arrays, bit for bit, and
``benchmarks/test_bench_graph_compile.py`` times the package against them.

Each function takes what the method it copies read from ``self`` as
arguments; the bodies are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.graph import GraphIndex, TaskGraph
from repro.exceptions import CycleError

__all__ = [
    "topological_order",
    "build_index",
    "compute_level_structure",
    "compile_schedule",
    "schedule_arrays",
    "reference_schedule_arrays",
]


def topological_order(self: TaskGraph) -> List:
    in_deg = {tid: len(self._pred[tid]) for tid in self._tasks}
    ready: List = [tid for tid in self._tasks if in_deg[tid] == 0]
    order: List = []
    cursor = 0
    while cursor < len(ready):
        tid = ready[cursor]
        cursor += 1
        order.append(tid)
        for succ in self._succ[tid]:
            in_deg[succ] -= 1
            if in_deg[succ] == 0:
                ready.append(succ)
    if len(order) != len(self._tasks):
        remaining = [tid for tid, deg in in_deg.items() if deg > 0]
        raise CycleError(cycle=remaining[:10])
    return order


def build_index(self: TaskGraph) -> GraphIndex:
    task_ids = tuple(self._tasks)
    index_of = {tid: i for i, tid in enumerate(task_ids)}
    n = len(task_ids)
    weights = np.fromiter(
        (self._tasks[tid].weight for tid in task_ids), dtype=np.float64, count=n
    )
    topo = np.fromiter(
        (index_of[tid] for tid in topological_order(self)), dtype=np.int64, count=n
    )

    # One flat pass per direction over the adjacency dictionaries yields
    # each CSR index array already grouped by task (ascending index);
    # the pointer arrays follow from cumsum over the per-task counts.
    # No per-task Python loop fills array slices.
    m = self._num_edges
    succ_counts = np.fromiter(
        (len(succs) for succs in self._succ.values()), dtype=np.int64, count=n
    )
    pred_counts = np.fromiter(
        (len(preds) for preds in self._pred.values()), dtype=np.int64, count=n
    )
    succ_indices = np.fromiter(
        (index_of[d] for succs in self._succ.values() for d in succs),
        dtype=np.int64,
        count=m,
    )
    pred_indices = np.fromiter(
        (index_of[p] for preds in self._pred.values() for p in preds),
        dtype=np.int64,
        count=m,
    )
    # Canonicalise neighbour order within each row.  Edge-insertion
    # order is an accident of construction (a serialize round-trip
    # regroups it), and both the content-addressed schedule keys and
    # the floating-point reduction order in the kernels depend on
    # these arrays — structurally identical graphs must index
    # identically, bit for bit.
    if m:
        succ_rows = np.repeat(np.arange(n, dtype=np.int64), succ_counts)
        succ_indices = succ_indices[np.lexsort((succ_indices, succ_rows))]
        pred_rows = np.repeat(np.arange(n, dtype=np.int64), pred_counts)
        pred_indices = pred_indices[np.lexsort((pred_indices, pred_rows))]
    succ_indptr = np.concatenate(([0], np.cumsum(succ_counts)))
    pred_indptr = np.concatenate(([0], np.cumsum(pred_counts)))

    for arr in (weights, topo, pred_indptr, pred_indices, succ_indptr, succ_indices):
        arr.setflags(write=False)
    return GraphIndex(
        task_ids=task_ids,
        index_of=index_of,
        weights=weights,
        topo_order=topo,
        pred_indptr=pred_indptr,
        pred_indices=pred_indices,
        succ_indptr=succ_indptr,
        succ_indices=succ_indices,
    )


def _ragged_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)


def compute_level_structure(
    in_indptr: np.ndarray, out_indptr: np.ndarray, out_indices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    n = int(in_indptr.shape[0]) - 1
    indegree = np.diff(in_indptr).astype(np.int64)
    frontier = np.nonzero(indegree == 0)[0]
    parts = []
    indptr = [0]
    visited = 0
    while frontier.size:
        parts.append(frontier)
        visited += int(frontier.size)
        indptr.append(visited)
        starts = out_indptr[frontier]
        counts = out_indptr[frontier + 1] - starts
        targets = out_indices[_ragged_gather(starts, counts)]
        if targets.size:
            indegree -= np.bincount(targets, minlength=n)
            candidates = np.unique(targets)
            frontier = candidates[indegree[candidates] == 0]
        else:
            frontier = np.empty(0, dtype=np.int64)
    if visited != n:
        raise CycleError(cycle=np.nonzero(indegree > 0)[0][:10].tolist())
    level_order = (
        np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    )
    level_indptr = np.asarray(indptr, dtype=np.int64)
    level_indptr.setflags(write=False)
    level_order.setflags(write=False)
    return level_indptr, level_order


@dataclass(frozen=True)
class LevelGroup:
    start: int
    stop: int
    preds: np.ndarray


@dataclass(frozen=True)
class LevelSchedule:
    num_tasks: int
    level_indptr: np.ndarray
    level_order: np.ndarray
    perm: np.ndarray
    rank: np.ndarray
    groups: Tuple[LevelGroup, ...]
    group_indptr: np.ndarray
    max_group_rows: int
    task_level: np.ndarray
    row_level: np.ndarray
    max_edge_level_span: int


def compile_schedule(
    level_indptr: np.ndarray,
    level_order: np.ndarray,
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
) -> LevelSchedule:
    n = int(in_indptr.shape[0]) - 1
    degree = np.diff(in_indptr)
    num_levels = int(level_indptr.shape[0]) - 1

    perm_parts = []
    for level in range(num_levels):
        tasks = level_order[level_indptr[level] : level_indptr[level + 1]]
        perm_parts.append(tasks[np.argsort(degree[tasks], kind="stable")])
    perm = np.concatenate(perm_parts) if perm_parts else np.empty(0, dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[perm] = np.arange(n, dtype=np.int64)
    row_level = np.repeat(
        np.arange(num_levels, dtype=np.int64), np.diff(level_indptr)
    )
    task_level = np.empty(n, dtype=np.int64)
    task_level[perm] = row_level

    groups = []
    group_indptr = np.zeros(max(num_levels + 1, 1), dtype=np.int64)
    max_group_rows = 0
    max_edge_level_span = 0
    for level in range(1, num_levels):
        base = int(level_indptr[level])
        tasks = perm[base : int(level_indptr[level + 1])]
        degrees = degree[tasks]
        # Degree-sorted, so equal degrees form runs; split at the changes.
        cuts = np.concatenate(
            ([0], np.nonzero(np.diff(degrees))[0] + 1, [len(tasks)])
        )
        for a, b in zip(cuts[:-1], cuts[1:]):
            a, b = int(a), int(b)
            run = tasks[a:b]
            d = int(degrees[a])
            # Every task of the run has exactly d in-neighbours, so its CSR
            # segment is a dense (b - a, d) block starting at indptr[task].
            block = in_indptr[run][:, None] + np.arange(d, dtype=np.int64)
            preds = rank[in_indices[block]]
            preds.setflags(write=False)
            groups.append(LevelGroup(start=base + a, stop=base + b, preds=preds))
            max_group_rows = max(max_group_rows, b - a)
            if preds.size:
                span = level - int(row_level[preds].min())
                max_edge_level_span = max(max_edge_level_span, span)
        group_indptr[level + 1] = len(groups)

    perm.setflags(write=False)
    group_indptr.setflags(write=False)
    rank.setflags(write=False)
    row_level.setflags(write=False)
    task_level.setflags(write=False)
    return LevelSchedule(
        num_tasks=n,
        level_indptr=level_indptr,
        level_order=level_order,
        perm=perm,
        rank=rank,
        groups=tuple(groups),
        group_indptr=group_indptr,
        max_group_rows=max_group_rows,
        task_level=task_level,
        row_level=row_level,
        max_edge_level_span=max_edge_level_span,
    )


def _flatten_groups(
    groups: Tuple[LevelGroup, ...]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    num_groups = len(groups)
    group_start = np.fromiter((g.start for g in groups), dtype=np.int64, count=num_groups)
    group_stop = np.fromiter((g.stop for g in groups), dtype=np.int64, count=num_groups)
    group_width = np.fromiter(
        (g.preds.shape[1] for g in groups), dtype=np.int64, count=num_groups
    )
    sizes = np.fromiter((g.preds.size for g in groups), dtype=np.int64, count=num_groups)
    group_ptr = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(sizes, out=group_ptr[1:])
    group_preds = (
        np.concatenate([np.ascontiguousarray(g.preds).ravel() for g in groups])
        if num_groups
        else np.empty(0, dtype=np.int64)
    ).astype(np.int64, copy=False)
    return group_start, group_stop, group_width, group_ptr, group_preds


def schedule_arrays(schedule: LevelSchedule) -> Dict[str, np.ndarray]:
    group_start, group_stop, group_width, group_ptr, group_preds = (
        _flatten_groups(schedule.groups)
    )
    scalars = np.array(
        [schedule.num_tasks, schedule.max_group_rows, schedule.max_edge_level_span],
        dtype=np.int64,
    )
    return {
        "level_indptr": np.ascontiguousarray(schedule.level_indptr, dtype=np.int64),
        "level_order": np.ascontiguousarray(schedule.level_order, dtype=np.int64),
        "perm": np.ascontiguousarray(schedule.perm, dtype=np.int64),
        "rank": np.ascontiguousarray(schedule.rank, dtype=np.int64),
        "group_indptr": np.ascontiguousarray(schedule.group_indptr, dtype=np.int64),
        "task_level": np.ascontiguousarray(schedule.task_level, dtype=np.int64),
        "row_level": np.ascontiguousarray(schedule.row_level, dtype=np.int64),
        "group_start": group_start,
        "group_stop": group_stop,
        "group_width": group_width,
        "group_ptr": group_ptr,
        "group_preds": group_preds,
        "scalars": scalars,
    }


def reference_schedule_arrays(index: GraphIndex, direction: str) -> Dict[str, np.ndarray]:
    """The oracle's ``schedule_arrays`` of one sweep direction of ``index``."""
    if direction == "up":
        level_indptr, level_order = compute_level_structure(
            index.pred_indptr, index.succ_indptr, index.succ_indices
        )
        schedule = compile_schedule(
            level_indptr, level_order, index.pred_indptr, index.pred_indices
        )
    else:
        level_indptr, level_order = compute_level_structure(
            index.succ_indptr, index.pred_indptr, index.pred_indices
        )
        schedule = compile_schedule(
            level_indptr, level_order, index.succ_indptr, index.succ_indices
        )
    return schedule_arrays(schedule)
