"""Level-wavefront longest-path kernels.

The longest-path recurrence ``c(i) = w(i) + max_{j -> i} c(j)`` is the
computational core of the whole package: one topological sweep per Monte
Carlo batch, per estimator evaluation, per scheduling priority.  The naive
evaluation (one Python iteration per task, reading strided columns of a
C-ordered ``(trials, tasks)`` matrix) wastes both interpreter time — a
14-tile Cholesky DAG has 560 tasks but only 40 topological levels — and
memory bandwidth.

This module precompiles a :class:`~repro.core.graph.GraphIndex` into a
:class:`LevelSchedule` and evaluates the recurrence one *level* at a time in
a task-major ``(tasks, trials)`` buffer:

* tasks are grouped by topological depth (level), so the Python-level loop
  runs once per level instead of once per task;
* buffer rows are permuted into *level-contiguous* order, sorted by
  in-degree within each level: the per-level update writes one contiguous
  row slice, and the rows holding a ``j``-th predecessor form a contiguous
  *suffix* of the level.  The ``max`` over predecessors is folded one level
  *column* at a time (:class:`LevelColumns`): column 0 gathers the whole
  level, each column ``j >= 1`` gathers its suffix and merges it with an
  in-place ``np.maximum``, so a level with maximum in-degree ``D`` costs
  ``D`` row gathers however many distinct in-degrees it mixes;
* the buffer is allocated once and reused across batches.  By default
  gathers are fancy-indexing reads (``buffer[rows]``) into temporaries from
  NumPy's allocator.  A pipeline that propagates batch after batch calls
  :meth:`WavefrontKernel.reserve`, and the fold then gathers with
  ``np.take(..., out=)`` into per-level rows the kernel keeps, so no batch
  allocates (and page-faults in) fresh temporaries.  Those takes read the
  full-capacity rows: ``take`` on the strided ``[:, :trials]`` view of a
  partial batch would buffer its output and copy the whole buffer;
* a ``dtype`` knob selects ``float64`` (default, bit-identical to the
  reference per-task evaluation because ``max`` and one addition per task
  are order-independent at fixed precision) or ``float32``, which halves
  memory traffic — Monte Carlo standard error dwarfs the ~6e-8 relative
  rounding of single precision.

A :class:`LevelSchedule` is its flat arrays (:func:`schedule_arrays`),
which :func:`_compile_schedule` builds with whole-array passes;
:func:`schedule_from_arrays` is its one constructor, shared with workers
that attach a published segment.

Compiled schedules are cached on the index (one per direction); kernels
returned by :func:`wavefront_kernel` are additionally cached per dtype and
per thread so that repeated batched calls (``batched_makespans``, ...)
reuse one buffer.  Pipelines with their own lifetime — notably
:class:`repro.sim.MonteCarloEngine` — construct a private
:class:`WavefrontKernel` instead and keep their buffers for the whole run.

A single scenario (``upward_lengths`` / ``downward_lengths``) needs no
schedule and no buffer: :func:`sweep_lengths` makes one gather, one
``np.maximum.reduceat`` and one add per level of the recorded levels.

A :class:`WavefrontKernel` mutates its buffer in place and is therefore
**not reentrant**: concurrent evaluations on the same graph must use one
private kernel per thread (the compiled schedule is immutable and safely
shared).  :func:`wavefront_kernel` does exactly that, so the module-level
path APIs are safe to call from several threads at once.

Moment-propagation kernels
--------------------------

The same compiled schedules drive the *analytical* estimators: Sculli's
normal propagation, its correlation-tracking extension and the expected
bottom levels of the scheduling heuristics all evaluate a recurrence of the
form ``C_i = X_i + reduce_{j -> i} C_j`` where the per-task state is a pair
(or triple) of *moments* instead of a vector of sampled completion times.
The building blocks are:

* :func:`clark_max_moments_batched` — Clark's 1961 moment-matching formulas
  for ``max(X1, X2)`` of jointly normal variables, evaluated element-wise on
  arrays of ``(mean, variance[, correlation])``.  Branch-for-branch
  identical to the scalar :func:`repro.rv.normal.clark_max_moments`
  (including the degenerate ``a = 0`` case), so batched results agree with
  the scalar reference to floating-point rounding of the underlying
  ``erfc``.
* :func:`schedule_for` — public accessor for the cached
  :class:`LevelSchedule` of either sweep direction.  Estimators iterate its
  ``groups`` and apply their own per-level gather/reduce; each group's
  ``preds`` matrix lists the in-neighbour *rows* column-by-column **in CSR
  order**, i.e. in exactly the order the sequential per-task loops fold
  their predecessors.
* :func:`propagate_moments` — one full sweep of the normal-propagation
  recurrence: per level, gather the predecessor means/variances and reduce
  them with the batched Clark maximum, then add the task's own moments.

Exactness contract: with ``reduce="fold"`` (the default) predecessors are
combined left-to-right in CSR order — the *same operand order* as the
sequential per-task fold, so results match the scalar implementation to
ulp-level rounding (the paper's figures use Clark's formulas, which are
**not associative**, so the fold order is part of the method definition).
``reduce="tree"`` combines predecessors pairwise (⌈log₂ d⌉ batched steps
instead of ``d - 1``); for the plain ``max`` of the longest-path kernels
the two orders are bit-identical, but for Clark's formulas the tree order
is a *different approximation* of the same intractable maximum — use it
only where the caller documents that the fold order is not part of its
contract.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..exceptions import GraphError
from .backends import get_kernel, resolve_kernel_backend
# No compile path here runs compute_level_structure; it stays importable
# from this module so tests can patch it here and check exactly that.
from .graph import (
    GraphIndex,
    TaskGraph,
    _group_by_level,
    _ragged_gather,
    compute_level_structure,
)

__all__ = [
    "SUPPORTED_DTYPES",
    "normalize_dtype",
    "LevelGroup",
    "LevelSchedule",
    "WavefrontKernel",
    "wavefront_kernel",
    "schedule_for",
    "schedule_arrays",
    "schedule_flat_groups",
    "LevelColumns",
    "schedule_level_columns",
    "schedule_from_arrays",
    "schedule_compilations",
    "sweep_lengths",
    "seed_schedule_cache",
    "clark_max_moments_batched",
    "propagate_moments",
]

#: The dtypes the kernels accept for their evaluation buffer.
SUPPORTED_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))

#: Directions a kernel can sweep in: ``"up"`` follows predecessor edges
#: (completion times / upward lengths), ``"down"`` successor edges.
_DIRECTIONS = ("up", "down")

_CACHE_ATTR = "_wavefront_cache"


def _check_direction(direction: str) -> None:
    if direction not in _DIRECTIONS:
        raise GraphError(f"unknown sweep direction {direction!r}; choose 'up' or 'down'")


def normalize_dtype(dtype: Union[str, np.dtype, type, None]) -> np.dtype:
    """Validate and normalise a kernel dtype (``None`` means float64)."""
    resolved = np.dtype(np.float64 if dtype is None else dtype)
    if resolved not in SUPPORTED_DTYPES:
        raise GraphError(
            f"unsupported kernel dtype {dtype!r}; choose float64 or float32"
        )
    return resolved


def _as_index(graph: Union[TaskGraph, GraphIndex]) -> GraphIndex:
    return graph.index() if isinstance(graph, TaskGraph) else graph


@dataclass(frozen=True)
class LevelGroup:
    """One contiguous run of same-in-degree rows within a level.

    Attributes
    ----------
    start, stop:
        Row range ``[start, stop)`` of the buffer this group updates.
    preds:
        ``(stop - start, d)`` matrix of predecessor *rows* (not task
        indices): column ``j`` holds each task's ``j``-th in-neighbour.
    """

    start: int
    stop: int
    preds: np.ndarray


@dataclass(frozen=True)
class LevelSchedule:
    """Precompiled evaluation order for one sweep direction.

    A schedule *is* its flat, read-only arrays (:func:`schedule_arrays`);
    its one constructor is :func:`schedule_from_arrays`, after a fresh
    compile and on workers that attached a published segment alike.

    Attributes
    ----------
    num_tasks:
        Number of tasks (= buffer rows).
    level_indptr, level_order:
        The direction's level structure (see
        :func:`repro.core.graph.compute_level_structure`).
    perm:
        ``perm[row]`` is the task stored in buffer row ``row``
        (level-contiguous, in-degree-sorted within each level).
    rank:
        Inverse permutation: task ``i`` lives in buffer row ``rank[i]``.
    group_start, group_stop, group_width, group_ptr, group_preds:
        The per-level degree groups, flattened in evaluation order: group
        ``g`` updates buffer rows ``[group_start[g], group_stop[g])``, each
        of which has ``group_width[g]`` in-neighbours, and its row-major
        ``(rows, width)`` block of predecessor *rows* (not task indices) is
        ``group_preds[group_ptr[g]:group_ptr[g + 1]]``.  Column ``j`` of a
        block holds each row's ``j``-th in-neighbour in CSR order.  Level 0
        (tasks without in-edges) needs no update and has no groups.
    groups:
        The same degree groups as :class:`LevelGroup` objects whose
        ``preds`` are views of ``group_preds``, for clients that iterate
        them in Python.
    group_indptr:
        ``(num_levels + 1,)`` partition metadata: the degree groups of
        level ``L`` are ``groups[group_indptr[L]:group_indptr[L + 1]]``
        (empty for level 0).  Parallel clients use this to split a level's
        fold into independent per-group (or per-row-chunk) work partitions
        without walking the flat ``groups`` tuple.
    max_group_rows:
        Largest group height.
    task_level:
        ``task_level[i]`` is the level of task ``i`` (task-index space).
    row_level:
        ``row_level[r]`` is the level of buffer row ``r`` (permuted space;
        equal to ``task_level[perm[r]]``, kept separately because the
        banded correlation stores index by buffer row).
    max_edge_level_span:
        Largest level distance ``level[i] - level[j]`` over the edges
        ``j -> i`` the schedule folds (0 for edge-free graphs).  A banded
        correlation representation whose bandwidth covers this span reads
        only in-band entries during the level sweep.
    """

    num_tasks: int
    level_indptr: np.ndarray
    level_order: np.ndarray
    perm: np.ndarray
    rank: np.ndarray
    group_start: np.ndarray
    group_stop: np.ndarray
    group_width: np.ndarray
    group_ptr: np.ndarray
    group_preds: np.ndarray
    groups: Tuple[LevelGroup, ...]
    group_indptr: np.ndarray
    max_group_rows: int
    task_level: np.ndarray
    row_level: np.ndarray
    max_edge_level_span: int

    @property
    def num_levels(self) -> int:
        return int(self.level_indptr.shape[0]) - 1

    def level_groups(self, level: int) -> Tuple[LevelGroup, ...]:
        """The degree groups updating level ``level``, in evaluation order."""
        if not (0 <= level < self.num_levels):
            raise GraphError(
                f"level {level} out of range for a {self.num_levels}-level schedule"
            )
        return self.groups[
            int(self.group_indptr[level]) : int(self.group_indptr[level + 1])
        ]

    def level_partitions(
        self, level: int, target_rows: int
    ) -> Tuple[Tuple[LevelGroup, int, int], ...]:
        """Row-chunk work partitions of one level's degree groups.

        Splits every group of the level into chunks of at most
        ``target_rows`` rows, returned as ``(group, lo, hi)`` triples
        (rows ``[lo, hi)`` *within* the group).  Each partition updates a
        disjoint slice of the level and reads only pre-level state, so
        partitions are mutually independent: evaluating them in any order
        — or concurrently — reproduces the whole-group fold bit for bit
        (all per-row operations are elementwise).
        """
        if target_rows < 1:
            raise GraphError("partition target_rows must be >= 1")
        parts = []
        for group in self.level_groups(level):
            rows = group.stop - group.start
            for lo in range(0, rows, target_rows):
                parts.append((group, lo, min(lo + target_rows, rows)))
        return tuple(parts)


#: Number of ``_compile_schedule`` executions in this process.  The
#: shared-memory plane (:mod:`repro.exec.shm`) reconstructs schedules from
#: attached segment views without recompiling; tests assert the counter
#: stays flat across warm-segment worker construction.
_COMPILE_COUNT = [0]


def schedule_compilations() -> int:
    """How many times this process has compiled a :class:`LevelSchedule`."""
    return _COMPILE_COUNT[0]


def _compile_schedule(
    level_indptr: np.ndarray,
    level_order: np.ndarray,
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
) -> LevelSchedule:
    """Compile a level structure + incoming CSR into a :class:`LevelSchedule`.

    Builds the flat arrays of :func:`schedule_arrays` with whole-array
    passes (no loop over levels or groups).
    """
    _COMPILE_COUNT[0] += 1
    n = int(in_indptr.shape[0]) - 1
    num_levels = int(level_indptr.shape[0]) - 1
    degree = np.diff(in_indptr)
    row_level = np.repeat(
        np.arange(num_levels, dtype=np.int64), np.diff(level_indptr)
    )
    # Level-contiguous rows, in-degree-sorted within each level; lexsort is
    # stable, so equal degrees keep their (ascending) level order.
    perm = level_order[np.lexsort((degree[level_order], row_level))]
    rank = np.empty(n, dtype=np.int64)
    rank[perm] = np.arange(n, dtype=np.int64)
    task_level = np.empty(n, dtype=np.int64)
    task_level[perm] = row_level

    # Rows from level 1 on are folded.  A degree group starts at the first
    # of them and wherever the level or the in-degree changes.
    first = int(level_indptr[1]) if num_levels > 1 else n
    tail = perm[first:]
    tail_degree = degree[tail]
    tail_level = row_level[first:]
    starts = np.ones(n - first, dtype=bool)
    starts[1:] = (tail_level[1:] != tail_level[:-1]) | (
        tail_degree[1:] != tail_degree[:-1]
    )
    group_start = np.flatnonzero(starts) + first
    group_stop = np.empty_like(group_start)
    group_stop[:-1] = group_start[1:]
    group_stop[-1:] = n
    group_width = degree[perm[group_start]]
    group_rows = group_stop - group_start
    group_ptr = np.zeros(group_start.shape[0] + 1, dtype=np.int64)
    np.cumsum(group_rows * group_width, out=group_ptr[1:])
    # Rows in order, each with its in-neighbours in CSR order: exactly the
    # row-major group blocks, back to back.
    group_preds = rank[
        in_indices[_ragged_gather(in_indptr[tail], in_indptr[tail + 1])]
    ]
    group_indptr = np.zeros(max(num_levels + 1, 1), dtype=np.int64)
    np.cumsum(
        np.bincount(row_level[group_start], minlength=num_levels),
        out=group_indptr[1:],
    )
    max_edge_level_span = (
        int((np.repeat(tail_level, tail_degree) - row_level[group_preds]).max())
        if group_preds.size
        else 0
    )
    scalars = np.array(
        [n, int(group_rows.max()) if group_rows.size else 0, max_edge_level_span],
        dtype=np.int64,
    )
    return schedule_from_arrays(dict(
        level_indptr=level_indptr, level_order=level_order, perm=perm, rank=rank,
        group_indptr=group_indptr, task_level=task_level, row_level=row_level,
        group_start=group_start, group_stop=group_stop, group_width=group_width,
        group_ptr=group_ptr, group_preds=group_preds, scalars=scalars,
    ))


def _index_cache(index: GraphIndex) -> dict:
    cache = index.__dict__.get(_CACHE_ATTR)
    if cache is None:
        cache = {}
        object.__setattr__(index, _CACHE_ATTR, cache)
    return cache


def schedule_for(
    graph: Union[TaskGraph, GraphIndex], direction: str = "up"
) -> LevelSchedule:
    """The compiled (and cached) :class:`LevelSchedule` of one direction.

    Public accessor for estimators that run their own per-level
    gather/reduce over the schedule's ``groups`` (moment propagation,
    batched discrete sweeps, ...).  ``"up"`` groups each task's
    *predecessors*, ``"down"`` its *successors*; either way, the columns of
    a group's ``preds`` matrix follow CSR order — the order the sequential
    per-task loops fold their in-neighbours.
    """
    _check_direction(direction)
    return _schedule_for(_as_index(graph), direction)


def _schedule_for(index: GraphIndex, direction: str) -> LevelSchedule:
    """The (cached) compiled schedule of one sweep direction."""
    cache = _index_cache(index)
    key = ("schedule", direction)
    schedule = cache.get(key)
    if schedule is None:
        if direction == "up":
            level_indptr, level_order = index.level_structure()
            schedule = _compile_schedule(
                level_indptr, level_order, index.pred_indptr, index.pred_indices
            )
        else:
            # A task's level in the reversed graph is its longest path to a
            # sink, in edges: the "down" sweep over unit weights, minus one.
            ones = np.ones(index.num_tasks)
            depth = _sweep(_sweep_plan(index, "down"), ones) - 1
            level_indptr, level_order = _group_by_level(depth.astype(np.int64))
            schedule = _compile_schedule(
                level_indptr, level_order, index.succ_indptr, index.succ_indices
            )
        cache[key] = schedule
    return schedule


def seed_schedule_cache(
    graph: Union[TaskGraph, GraphIndex], direction: str, schedule: LevelSchedule
) -> None:
    """Pre-seed a graph index's schedule cache with an existing schedule.

    Worker processes that attached a shared schedule segment use this to
    make every subsequent :class:`WavefrontKernel` / :func:`schedule_for`
    call hit the cache instead of recompiling from the CSR arrays.
    """
    _check_direction(direction)
    _index_cache(_as_index(graph))[("schedule", direction)] = schedule


def schedule_flat_groups(
    schedule: LevelSchedule,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The flat degree groups of a compiled schedule.

    The compiled kernel backends (:mod:`repro.core.backends`) iterate the
    level recurrence over these five contiguous arrays — ``(group_start,
    group_stop, group_width, group_ptr, group_preds)`` — instead of the
    Python-object ``groups`` tuple.  They are the schedule's own arrays:
    on a worker that attached a shared schedule, views of the segment.
    """
    return (
        schedule.group_start,
        schedule.group_stop,
        schedule.group_width,
        schedule.group_ptr,
        schedule.group_preds,
    )


@dataclass(frozen=True)
class LevelColumns:
    """The level-column plan of :meth:`WavefrontKernel.propagate`.

    Rows of a level are sorted by in-degree, so the rows that have a
    ``j``-th predecessor form a contiguous suffix of the level.  Column
    ``c`` of the plan is one such suffix together with the ``j``-th
    predecessor row of each of its rows; a level's columns run ``j = 0, 1,
    ...`` (CSR order), so every row still folds its predecessors in the
    order the per-task loops do.

    Attributes
    ----------
    col_indptr:
        ``(num_levels + 1,)``: the columns of level ``L`` are
        ``[col_indptr[L], col_indptr[L + 1])``, as many as the level's
        maximum in-degree (none for level 0).
    col_start:
        First buffer row of each column's suffix; the suffix ends where
        its level ends.
    col_ptr, col_preds:
        Column ``c`` gathers the rows ``col_preds[col_ptr[c]:col_ptr[c + 1]]``,
        one per row of its suffix.
    steps:
        The plan as the kernel loops over it: per folded level, ``(lo, hi,
        first, columns)`` where ``first`` is column 0's gather rows and
        ``columns`` holds ``(offset, preds)`` for columns ``j >= 1``
        (``offset`` is the suffix start relative to ``lo``).
    """

    col_indptr: np.ndarray
    col_start: np.ndarray
    col_ptr: np.ndarray
    col_preds: np.ndarray
    steps: tuple = field(repr=False, compare=False)


def _level_columns(schedule: LevelSchedule) -> LevelColumns:
    """Regroup the flattened degree groups into level columns (vectorised)."""
    _, _, group_width, group_ptr, group_preds = schedule_flat_groups(schedule)
    level_indptr = np.asarray(schedule.level_indptr, dtype=np.int64)
    group_indptr = schedule.group_indptr
    num_levels = schedule.num_levels
    level_groups = np.diff(group_indptr)
    # Groups are degree-sorted within a level: the last one holds the
    # level's maximum in-degree, which is its number of columns.
    level_width = np.zeros(num_levels, dtype=np.int64)
    folded = level_groups > 0
    level_width[folded] = group_width[group_indptr[1:][folded] - 1]
    col_indptr = np.zeros(num_levels + 1, dtype=np.int64)
    np.cumsum(level_width, out=col_indptr[1:])
    num_columns = int(col_indptr[-1])

    # Each group block is row-major (rows, width): entry e of group g is
    # predecessor number (e - group_ptr[g]) % width of its row.
    group_level = np.repeat(np.arange(num_levels, dtype=np.int64), level_groups)
    entry_group = np.repeat(
        np.arange(group_width.shape[0], dtype=np.int64), np.diff(group_ptr)
    )
    within = np.arange(group_preds.shape[0], dtype=np.int64) - group_ptr[entry_group]
    column = col_indptr[group_level][entry_group] + within % group_width[entry_group]
    # Stable, so each column keeps its entries in ascending row order.
    col_preds = group_preds[np.argsort(column, kind="stable")]
    col_ptr = np.zeros(num_columns + 1, dtype=np.int64)
    np.cumsum(np.bincount(column, minlength=num_columns), out=col_ptr[1:])
    column_level = np.repeat(np.arange(num_levels, dtype=np.int64), level_width)
    col_start = level_indptr[column_level + 1] - np.diff(col_ptr)
    for array in (col_indptr, col_start, col_ptr, col_preds):
        array.setflags(write=False)

    bounds, col_bounds = level_indptr.tolist(), col_indptr.tolist()
    starts, ptr = col_start.tolist(), col_ptr.tolist()
    steps = []
    for level in np.flatnonzero(folded).tolist():
        lo, hi = bounds[level], bounds[level + 1]
        c0, c1 = col_bounds[level], col_bounds[level + 1]
        columns = tuple(
            (starts[c] - lo, col_preds[ptr[c] : ptr[c + 1]])
            for c in range(c0 + 1, c1)
        )
        steps.append((lo, hi, col_preds[ptr[c0] : ptr[c0 + 1]], columns))
    return LevelColumns(
        col_indptr=col_indptr,
        col_start=col_start,
        col_ptr=col_ptr,
        col_preds=col_preds,
        steps=tuple(steps),
    )


def schedule_level_columns(schedule: LevelSchedule) -> LevelColumns:
    """The (cached) :class:`LevelColumns` plan of a compiled schedule.

    Derived from :func:`schedule_flat_groups` without recompiling, and
    cached on the schedule like it, so a worker that attached a shared
    schedule derives the plan once for the life of that schedule.
    """
    columns = schedule.__dict__.get("_level_columns")
    if columns is None:
        columns = _level_columns(schedule)
        object.__setattr__(schedule, "_level_columns", columns)
    return columns


def _sweep_plan(owner: Union[GraphIndex, LevelSchedule], direction: str) -> tuple:
    """``(perm, rank, steps)`` of :func:`_sweep`, cached on ``owner``.

    An index's plan runs over the forward levels its build recorded
    ("down" reversed), a schedule's over its own arrays.  Rows run level by
    level, rows without neighbours first; a step ``(lo, hi, nbrs,
    offsets)`` covers one level's rows with neighbours.  Racing first
    calls build equal plans.
    """
    cache = _index_cache(owner)
    plan = cache.get(("sweep", direction))
    if plan is not None:
        return plan
    if isinstance(owner, LevelSchedule):
        level_indptr, perm, rank = owner.level_indptr, owner.perm, owner.rank
        # The degree groups cover the folded rows, the last ones, in order.
        rows = owner.group_stop - owner.group_start
        degree = np.zeros(owner.num_tasks, dtype=np.int64)
        degree[owner.num_tasks - int(rows.sum()) :] = np.repeat(owner.group_width, rows)
        nbrs = owner.group_preds
    else:
        level_indptr, level_order = owner.level_structure()
        row_level = np.repeat(np.arange(level_indptr.shape[0] - 1), np.diff(level_indptr))
        in_indptr, in_indices = owner.pred_indptr, owner.pred_indices
        if direction == "down":
            row_level, level_indptr = -row_level, owner.num_tasks - level_indptr[::-1]
            in_indptr, in_indices = owner.succ_indptr, owner.succ_indices
        degree = np.diff(in_indptr)
        # Stable, so each level keeps ascending task order per class.
        perm = level_order[
            np.argsort(2 * row_level + (degree[level_order] > 0), kind="stable")
        ]
        rank = np.empty_like(perm)
        rank[perm] = np.arange(perm.shape[0])
        degree = degree[perm]
        nbrs = rank[in_indices[_ragged_gather(in_indptr[perm], in_indptr[perm + 1])]]
    ptr = np.concatenate(([0], np.cumsum(degree)))
    linked = np.concatenate(([0], np.cumsum(degree > 0)))
    hi = level_indptr[1:]
    lo = hi - (linked[hi] - linked[level_indptr[:-1]])
    offsets = ptr[:-1] - ptr[np.repeat(lo, np.diff(level_indptr))]
    steps = tuple(
        (a, b, nbrs[ptr[a] : ptr[b]], offsets[a:b])
        for a, b in zip(lo.tolist(), hi.tolist()) if a < b
    )
    plan = cache[("sweep", direction)] = (perm, rank, steps)
    return plan


def _sweep(plan: tuple, weights: np.ndarray) -> np.ndarray:
    """Single-scenario path lengths in task order.  Bit-identical to the
    column fold of :meth:`WavefrontKernel.propagate`: ``max`` is exact and
    each task still gets exactly one addition."""
    perm, rank, steps = plan
    buf = weights[perm]
    for lo, hi, nbrs, offsets in steps:
        buf[lo:hi] += np.maximum.reduceat(buf[nbrs], offsets)
    return buf[rank]


def sweep_lengths(
    graph: Union[TaskGraph, GraphIndex], weights: np.ndarray, direction: str = "up"
) -> np.ndarray:
    """Longest path ending (``"up"``) or starting (``"down"``) at each task,
    for one ``(tasks,)`` weight vector; compiles no :class:`LevelSchedule`."""
    _check_direction(direction)
    return _sweep(_sweep_plan(_as_index(graph), direction), weights)


#: The array fields of a :class:`LevelSchedule`, in :func:`schedule_arrays` order.
_SCHEDULE_ARRAYS = (
    "level_indptr", "level_order", "perm", "rank", "group_indptr", "task_level",
    "row_level", "group_start", "group_stop", "group_width", "group_ptr", "group_preds",
)


def schedule_arrays(schedule: LevelSchedule) -> Dict[str, np.ndarray]:
    """The named flat arrays of a :class:`LevelSchedule`.

    The dict is suitable for publication as one shared-memory segment
    (:class:`repro.exec.shm.SharedSegment`); the inverse is
    :func:`schedule_from_arrays`, which rebuilds the schedule around
    (possibly attached, zero-copy) views *without* running
    :func:`_compile_schedule` again.  Only ``scalars`` is built per call.
    """
    arrays = {name: getattr(schedule, name) for name in _SCHEDULE_ARRAYS}
    arrays["scalars"] = np.array(
        [schedule.num_tasks, schedule.max_group_rows, schedule.max_edge_level_span],
        dtype=np.int64,
    )
    return arrays


def schedule_from_arrays(arrays: Dict[str, np.ndarray]) -> LevelSchedule:
    """Build a :class:`LevelSchedule` around :func:`schedule_arrays` output.

    The one constructor of a schedule: a fresh compile hands it the
    arrays it just built, a worker the views of an attached segment.
    Every array field — including the flat groups the compiled backends
    read and every group's ``preds`` block — is a zero-copy, read-only
    view of the input arrays; no schedule compilation happens.
    """
    for array in arrays.values():
        array.setflags(write=False)
    num_tasks, max_group_rows, max_edge_level_span = arrays["scalars"].tolist()
    group_preds = arrays["group_preds"]
    ptr = arrays["group_ptr"].tolist()
    groups = tuple(
        LevelGroup(start, stop, group_preds[lo:hi].reshape(stop - start, width))
        for start, stop, width, lo, hi in zip(
            arrays["group_start"].tolist(),
            arrays["group_stop"].tolist(),
            arrays["group_width"].tolist(),
            ptr,
            ptr[1:],
        )
    )
    return LevelSchedule(
        num_tasks=num_tasks,
        groups=groups,
        max_group_rows=max_group_rows,
        max_edge_level_span=max_edge_level_span,
        **{name: arrays[name] for name in _SCHEDULE_ARRAYS},
    )


class WavefrontKernel:
    """Reusable longest-path evaluator for one graph, direction and dtype.

    The kernel owns a task-major ``(tasks, capacity)`` buffer plus a
    ``(capacity,)`` scratch row for the compiled backends, grown on demand
    and reused across calls, and after :meth:`reserve` two
    ``(widest level, capacity)`` gather blocks for the NumPy fold.  Typical
    use::

        kernel = WavefrontKernel(graph)              # private buffer
        makespans = kernel.run(weight_matrix)        # (trials, tasks) input

    or, for a zero-copy pipeline that fills the buffer itself::

        view = kernel.weight_view(trials)            # (tasks, trials), rows
        view[...] = ...                              #   in kernel row order!
        kernel.propagate(trials)
        makespans = kernel.makespans(trials)

    Rows of :meth:`weight_view` are ordered by :attr:`schedule` ``.perm``;
    callers filling the buffer directly must permute per-task data with
    ``perm`` (or scatter through ``rank``).
    """

    def __init__(
        self,
        graph: Union[TaskGraph, GraphIndex],
        *,
        direction: str = "up",
        dtype: Union[str, np.dtype, type, None] = np.float64,
        kernel_backend: Optional[str] = None,
    ) -> None:
        _check_direction(direction)
        self.index = _as_index(graph)
        self.direction = direction
        self.dtype = normalize_dtype(dtype)
        self.kernel_backend = resolve_kernel_backend(kernel_backend)
        self.schedule = _schedule_for(self.index, direction)
        self._propagate_fn = get_kernel("propagate", self.kernel_backend)
        self._buffer: Optional[np.ndarray] = None
        self._scratch: Optional[np.ndarray] = None
        self._gather: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._capacity = 0

    @classmethod
    def from_schedule(
        cls,
        schedule: LevelSchedule,
        *,
        direction: str = "up",
        dtype: Union[str, np.dtype, type, None] = np.float64,
        kernel_backend: Optional[str] = None,
    ) -> "WavefrontKernel":
        """Build a kernel directly over an existing compiled schedule.

        Used by shared-memory worker slots whose schedule was reconstructed
        from an attached segment (:func:`schedule_from_arrays`): no graph
        index is needed and nothing is recompiled.  The kernel is fully
        functional except that :attr:`index` is ``None``.
        """
        _check_direction(direction)
        kernel = cls.__new__(cls)
        kernel.index = None
        kernel.direction = direction
        kernel.dtype = normalize_dtype(dtype)
        kernel.kernel_backend = resolve_kernel_backend(kernel_backend)
        kernel.schedule = schedule
        kernel._propagate_fn = get_kernel("propagate", kernel.kernel_backend)
        kernel._buffer = None
        kernel._scratch = None
        kernel._gather = None
        kernel._capacity = 0
        return kernel

    # ------------------------------------------------------------------
    # Buffer management
    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return self.schedule.num_tasks

    @property
    def num_levels(self) -> int:
        return self.schedule.num_levels

    @property
    def perm(self) -> np.ndarray:
        """Buffer row -> task index (level-contiguous order)."""
        return self.schedule.perm

    @property
    def rank(self) -> np.ndarray:
        """Task index -> buffer row."""
        return self.schedule.rank

    @property
    def capacity(self) -> int:
        """Current trial capacity of the persistent buffer."""
        return self._capacity

    @property
    def buffer_nbytes(self) -> int:
        """Bytes currently held by the buffer, scratch row and gather rows."""
        total = 0
        for arr in (self._buffer, self._scratch, *(self._gather or ())):
            if arr is not None:
                total += arr.nbytes
        return total

    def weight_view(self, trials: int) -> np.ndarray:
        """A ``(tasks, trials)`` view of the buffer, growing it if needed.

        Rows follow the kernel's permuted order (see class docstring); the
        contents are whatever the previous call left behind.
        """
        if trials <= 0:
            raise GraphError("number of trials must be positive")
        if trials > self._capacity:
            self._buffer = np.empty((self.num_tasks, trials), dtype=self.dtype)
            self._scratch = np.empty(trials, dtype=self.dtype)
            self._capacity = trials
            if self._gather is not None:
                self._gather = self._gather_rows(trials)
        return self._buffer[:, :trials]

    def reserve(self, trials: int) -> None:
        """Grow the buffer to ``trials`` and keep per-level gather rows.

        For pipelines that propagate batch after batch (the Monte Carlo
        engine): the NumPy fold then gathers into two blocks of rows sized
        to the widest level instead of allocating per-level temporaries,
        which the allocator would hand back to the system and fault in
        again on every batch.  A compiled ``propagate`` never reads those
        rows, so none are kept while one is active; should it fall back at
        run time, the fancy-indexing fold takes over.  Results are
        bit-identical either way.
        """
        self.weight_view(trials)
        if self._gather is None and self._propagate_fn is None:
            self._gather = self._gather_rows(self._capacity)

    def _gather_rows(self, capacity: int) -> Tuple[np.ndarray, np.ndarray]:
        widest = max((hi - lo for lo, hi, _, _ in self._steps()), default=0)
        return tuple(
            np.empty((widest, capacity), dtype=self.dtype) for _ in range(2)
        )

    def _steps(self) -> tuple:
        return schedule_level_columns(self.schedule).steps

    def release(self) -> None:
        """Drop the persistent buffers (they are re-grown on next use)."""
        self._buffer = None
        self._scratch = None
        self._gather = None
        self._capacity = 0

    # ------------------------------------------------------------------
    # Core evaluation
    # ------------------------------------------------------------------
    def load(self, weight_matrix: np.ndarray) -> int:
        """Fill the buffer from a trial-major ``(trials, tasks)`` matrix.

        Returns the number of trials loaded.  The transpose-permute copy is
        the single pass that converts the caller's layout into the kernel's;
        everything afterwards runs on contiguous task-major rows.
        """
        w = np.asarray(weight_matrix)
        if w.ndim != 2 or w.shape[1] != self.num_tasks:
            raise GraphError(
                f"weight matrix has shape {w.shape}, "
                f"expected (num_scenarios, {self.num_tasks})"
            )
        trials = int(w.shape[0])
        if self.num_tasks == 0 or trials == 0:
            return trials
        view = self.weight_view(trials)
        source = w.T
        if source.dtype == self.dtype:
            np.take(source, self.schedule.perm, axis=0, out=view)
        else:
            view[:] = source[self.schedule.perm]
        return trials

    def propagate(self, trials: int) -> None:
        """Run the recurrence in place on the first ``trials`` columns.

        The buffer must hold per-task weights (in row order); on return row
        ``r`` holds the completion time of task ``perm[r]`` — the length of
        the longest path ending (direction ``"up"``) or starting
        (direction ``"down"``) at that task.
        """
        if self.num_tasks == 0:
            return
        if trials > self._capacity:
            raise GraphError("propagate() called beyond the loaded capacity")
        if not self.schedule.groups:
            return
        fn = self._propagate_fn
        if fn is not None:
            try:
                fn(
                    self._buffer,
                    trials,
                    *schedule_flat_groups(self.schedule),
                    self._scratch,
                )
                return
            except Exception:
                # Graceful per-function fallback: an unsupported
                # dtype/shape disables the compiled path for this kernel
                # and the NumPy reference takes over.
                self._propagate_fn = None
        if self._gather is not None:
            self._propagate_reserved(trials)
            return
        buffer = self._buffer[:, :trials]
        for lo, hi, first, columns in self._steps():
            # Every row of a folded level has a predecessor: column 0 spans
            # the level, later columns a suffix of it.
            ready = buffer[first]
            for offset, preds in columns:
                tail = ready[offset:]
                np.maximum(tail, buffer[preds], out=tail)
            segment = buffer[lo:hi]
            np.add(segment, ready, out=segment)

    def _propagate_reserved(self, trials: int) -> None:
        """The NumPy fold of :meth:`propagate`, gathering into reserved rows.

        ``np.take`` copies whole (full-capacity, contiguous) rows straight
        into the contiguous gather blocks, and the arithmetic then runs on
        the first ``trials`` columns only.  ``mode="clip"`` because the
        default ``"raise"`` gathers into a temporary and copies it to
        ``out``; the rows are valid indices, so clipping never applies.
        """
        full = self._buffer
        ready_rows, gathered = self._gather
        for lo, hi, first, columns in self._steps():
            ready = ready_rows[: hi - lo]
            np.take(full, first, axis=0, out=ready, mode="clip")
            ready = ready[:, :trials]
            for offset, preds in columns:
                tail = ready[offset:]
                got = gathered[: preds.size]
                np.take(full, preds, axis=0, out=got, mode="clip")
                np.maximum(tail, got[:, :trials], out=tail)
            segment = full[lo:hi, :trials]
            np.add(segment, ready, out=segment)

    def makespans(self, trials: int) -> np.ndarray:
        """Column-wise maximum over all tasks (a fresh ``(trials,)`` array)."""
        if self.num_tasks == 0:
            return np.zeros(trials, dtype=self.dtype)
        return self._buffer[:, :trials].max(axis=0)

    def completion_matrix(self, trials: int) -> np.ndarray:
        """Completion times as a fresh ``(tasks, trials)`` array in task order."""
        if self.num_tasks == 0:
            return np.zeros((0, trials), dtype=self.dtype)
        return self._buffer[:, :trials][self.schedule.rank]

    # ------------------------------------------------------------------
    # One-shot conveniences
    # ------------------------------------------------------------------
    def run(self, weight_matrix: np.ndarray) -> np.ndarray:
        """Longest path length of every scenario of a ``(trials, tasks)`` matrix."""
        trials = self.load(weight_matrix)
        if self.num_tasks == 0 or trials == 0:
            return np.zeros(trials, dtype=self.dtype)
        self.propagate(trials)
        return self.makespans(trials)

    def run_with_details(
        self, weight_matrix: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Makespans plus, per trial, the first task index realising them."""
        trials = self.load(weight_matrix)
        if self.num_tasks == 0 or trials == 0:
            return (
                np.zeros(trials, dtype=self.dtype),
                np.zeros(trials, dtype=np.int64),
            )
        self.propagate(trials)
        completion = self.completion_matrix(trials)
        return completion.max(axis=0), completion.argmax(axis=0)

    def lengths(self, weights: np.ndarray) -> np.ndarray:
        """Single-scenario sweep: per-task path lengths in task order.

        The sweep of :func:`sweep_lengths`, over a plan of the schedule's
        own arrays (so a kernel built by :meth:`from_schedule` has one too).
        """
        w = np.asarray(weights, dtype=self.dtype)
        if w.shape != (self.num_tasks,):
            raise GraphError(
                f"weight vector has shape {w.shape}, expected ({self.num_tasks},)"
            )
        return _sweep(_sweep_plan(self.schedule, self.direction), w)


def wavefront_kernel(
    graph: Union[TaskGraph, GraphIndex],
    *,
    direction: str = "up",
    dtype: Union[str, np.dtype, type, None] = np.float64,
    kernel_backend: Optional[str] = None,
) -> WavefrontKernel:
    """Return the calling thread's cached kernel of a graph for one direction/dtype.

    The kernel is cached on the graph's index, so repeated calls from the
    path APIs amortise both the compilation and the buffer allocation.  A
    kernel's buffers are mutated in place, so the cache holds one kernel
    *per thread* (a ``threading.local``): concurrent estimates on one graph
    share the compiled schedule but never a buffer.  Components that want
    an independently-lifetimed buffer (e.g. a Monte Carlo engine) should
    instantiate :class:`WavefrontKernel` directly.
    """
    index = _as_index(graph)
    resolved = normalize_dtype(dtype)
    backend = resolve_kernel_backend(kernel_backend)
    key = ("kernel", direction, resolved.name, backend)
    per_thread = _index_cache(index).setdefault(key, threading.local())
    kernel = getattr(per_thread, "kernel", None)
    if kernel is None:
        kernel = WavefrontKernel(
            index, direction=direction, dtype=resolved, kernel_backend=backend
        )
        per_thread.kernel = kernel
    return kernel


# ----------------------------------------------------------------------
# Moment-propagation kernels (batched Clark maximum)
# ----------------------------------------------------------------------

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


def _erfc(x: np.ndarray) -> np.ndarray:
    # scipy's erfc is the vectorised counterpart of math.erfc used by the
    # scalar formulas in repro.rv.normal (numpy has no erfc ufunc).
    from scipy.special import erfc

    return erfc(x)


def norm_cdf_batched(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF ``Φ(x)``, element-wise."""
    return 0.5 * _erfc(-np.asarray(x, dtype=np.float64) / _SQRT2)


def _norm_pdf(x: np.ndarray) -> np.ndarray:
    # ``x * x`` overflows to ``inf`` for ``|x| > ~1e154``, where the density
    # is 0 either way: callers run this under ``np.errstate(over="ignore")``
    # (once per propagation on the hot path, not once per call).
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def norm_pdf_batched(x: np.ndarray) -> np.ndarray:
    """Standard normal density ``φ(x)``, element-wise.

    A huge ``|x|`` gives 0 without an overflow warning.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        return _norm_pdf(x)


def clark_max_moments_batched(
    mean1: np.ndarray,
    var1: np.ndarray,
    mean2: np.ndarray,
    var2: np.ndarray,
    correlation: Union[float, np.ndarray] = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Element-wise Clark moments of ``max(X1, X2)`` for normal operands.

    The batched twin of :func:`repro.rv.normal.clark_max_moments`: inputs
    are broadcastable arrays of means/variances (plus an optional
    correlation array), the result is the pair ``(mean, variance)`` of the
    moment-matched maximum.  Branches mirror the scalar function exactly —
    in particular the degenerate case ``a = 0`` (deterministic difference)
    selects the operand with the larger mean.
    """
    with np.errstate(over="ignore"):
        return _clark_max_moments(mean1, var1, mean2, var2, correlation)


def _clark_max_moments(mean1, var1, mean2, var2, correlation=0.0):
    mean1 = np.asarray(mean1, dtype=np.float64)
    var1 = np.asarray(var1, dtype=np.float64)
    mean2 = np.asarray(mean2, dtype=np.float64)
    var2 = np.asarray(var2, dtype=np.float64)
    rho = np.clip(np.asarray(correlation, dtype=np.float64), -1.0, 1.0)

    sigma1 = np.sqrt(var1)
    sigma2 = np.sqrt(var2)
    a = np.sqrt(np.maximum(var1 + var2 - 2.0 * rho * sigma1 * sigma2, 0.0))

    degenerate = a == 0.0
    safe_a = np.where(degenerate, 1.0, a)
    alpha = (mean1 - mean2) / safe_a
    phi = _norm_pdf(alpha)
    cdf_pos = norm_cdf_batched(alpha)
    cdf_neg = norm_cdf_batched(-alpha)

    first = mean1 * cdf_pos + mean2 * cdf_neg + a * phi
    second = (
        (mean1 * mean1 + var1) * cdf_pos
        + (mean2 * mean2 + var2) * cdf_neg
        + (mean1 + mean2) * a * phi
    )
    variance = np.maximum(0.0, second - first * first)

    one_larger = mean1 >= mean2
    mean_out = np.where(degenerate, np.where(one_larger, mean1, mean2), first)
    var_out = np.where(degenerate, np.where(one_larger, var1, var2), variance)
    return mean_out, var_out


def _reduce_group_moments(
    preds: np.ndarray,
    mean_buf: np.ndarray,
    var_buf: np.ndarray,
    reduce: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Combine one group's predecessor moments with the batched Clark max."""
    if reduce == "fold":
        mean = mean_buf[preds[:, 0]]
        var = var_buf[preds[:, 0]]
        for j in range(1, preds.shape[1]):
            mean, var = _clark_max_moments(
                mean, var, mean_buf[preds[:, j]], var_buf[preds[:, j]]
            )
        return mean, var
    # Pairwise tree reduction: ⌈log₂ d⌉ batched Clark steps.  Bit-identical
    # to the fold only for associative reducers; for Clark's formulas this
    # is a *different* (documented) approximation of the same maximum.
    means = [mean_buf[preds[:, j]] for j in range(preds.shape[1])]
    vars_ = [var_buf[preds[:, j]] for j in range(preds.shape[1])]
    while len(means) > 1:
        next_means, next_vars = [], []
        for k in range(0, len(means) - 1, 2):
            m, v = _clark_max_moments(
                means[k], vars_[k], means[k + 1], vars_[k + 1]
            )
            next_means.append(m)
            next_vars.append(v)
        if len(means) % 2:
            next_means.append(means[-1])
            next_vars.append(vars_[-1])
        means, vars_ = next_means, next_vars
    return means[0], vars_[0]


def propagate_moments(
    graph: Union[TaskGraph, GraphIndex],
    task_mean: np.ndarray,
    task_var: np.ndarray,
    *,
    direction: str = "up",
    reduce: str = "fold",
    kernel_backend: Optional[str] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Normal (Sculli) moment propagation over the compiled level schedule.

    Evaluates ``C_i = X_i + max_{j -> i} C_j`` where every ``X_i`` is an
    independent normal with the given per-task ``(task_mean[i],
    task_var[i])`` and the maximum is Clark's independence approximation
    (correlation 0, as in Sculli's classical method).  Direction ``"up"``
    propagates along predecessor edges (completion times), ``"down"`` along
    successor edges (bottom-level style tail times).

    Returns the per-task ``(mean, variance)`` arrays in task-index order.
    ``reduce="fold"`` (default) matches the sequential per-task CSR fold to
    floating-point rounding; ``reduce="tree"`` is the faster pairwise
    approximation (see module docstring).

    ``kernel_backend`` selects a compiled fold (``"numba"``): the JIT
    fold mirrors the scalar Clark recurrence with ``math.erfc`` and
    agrees with the batched reference to ≤1e-9 (the two ``erfc``
    implementations differ at ulp level).  It only applies to
    ``reduce="fold"``; unavailable backends fall back to NumPy.
    """
    if reduce not in ("fold", "tree"):
        raise GraphError(f"unknown reduce mode {reduce!r}; choose 'fold' or 'tree'")
    schedule = schedule_for(graph, direction)
    n = schedule.num_tasks
    task_mean = np.asarray(task_mean, dtype=np.float64)
    task_var = np.asarray(task_var, dtype=np.float64)
    if task_mean.shape != (n,) or task_var.shape != (n,):
        raise GraphError(
            f"task moment vectors must have shape ({n},), got "
            f"{task_mean.shape} and {task_var.shape}"
        )
    if n == 0:
        return np.zeros(0, dtype=np.float64), np.zeros(0, dtype=np.float64)

    perm = schedule.perm
    mean_buf = task_mean[perm].copy()
    var_buf = task_var[perm].copy()
    if reduce == "fold" and schedule.groups:
        fn = get_kernel("moment_fold", kernel_backend)
        if fn is not None:
            try:
                fn(mean_buf, var_buf, *schedule_flat_groups(schedule))
            except Exception:
                pass  # graceful fallback: rerun on the NumPy reference
            else:
                return mean_buf[schedule.rank], var_buf[schedule.rank]
            mean_buf = task_mean[perm].copy()
            var_buf = task_var[perm].copy()
    with np.errstate(over="ignore"):
        for group in schedule.groups:
            ready_mean, ready_var = _reduce_group_moments(
                group.preds, mean_buf, var_buf, reduce
            )
            mean_buf[group.start : group.stop] += ready_mean
            var_buf[group.start : group.stop] += ready_var
    return mean_buf[schedule.rank], var_buf[schedule.rank]
