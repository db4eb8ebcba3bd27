"""The :class:`TaskGraph` data structure.

A :class:`TaskGraph` is a directed acyclic graph whose vertices are
:class:`~repro.core.task.Task` objects (node-weighted DAG).  It is the input
to every makespan estimator, workflow generator and scheduler in the
package.

Two representations coexist:

* a mutable, dictionary-based adjacency structure convenient for building
  graphs incrementally (``add_task`` / ``add_edge``); and
* an immutable, NumPy-friendly :class:`GraphIndex` snapshot (integer task
  indices, weight vector, CSR-style predecessor/successor arrays and a
  topological order) used by the vectorised algorithms in
  :mod:`repro.core.paths` and :mod:`repro.sim`.

The index is computed lazily and cached; any mutation invalidates the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..exceptions import (
    CycleError,
    DuplicateTaskError,
    GraphError,
    UnknownTaskError,
)
from .task import Task, TaskId, validate_weight

__all__ = ["TaskGraph", "GraphIndex", "compute_level_structure"]


def _ragged_gather(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Positions ``[starts[i], stops[i])`` of CSR segments, concatenated.

    Fully vectorised (no Python loop over segments): one ``repeat`` of
    each segment's offset plus one ``arange`` over the output.
    """
    counts = stops - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(stops - ends, counts) + np.arange(total, dtype=np.int64)


def compute_level_structure(
    in_indptr: np.ndarray, out_indptr: np.ndarray, out_indices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Group tasks by topological depth (vectorised Kahn by wavefronts).

    A task's *level* is the length (in edges) of the longest path reaching it
    from any entry task: level 0 holds the tasks without in-edges, level
    ``l`` the tasks whose in-neighbours all lie strictly below ``l`` with at
    least one at ``l - 1``.  Tasks of one level are mutually independent, so
    a longest-path recurrence can process a whole level at once — this is
    the schedule the wavefront kernels in :mod:`repro.core.kernels` compile.

    Parameters
    ----------
    in_indptr:
        CSR pointer array of the *incoming* adjacency (defines in-degrees).
    out_indptr, out_indices:
        CSR encoding of the *outgoing* adjacency (propagates the frontier).
        Passing ``(pred_indptr, succ_indptr, succ_indices)`` yields forward
        levels; swapping the roles yields the levels of the reversed graph.

    Returns
    -------
    (level_indptr, level_order)
        ``level_order[level_indptr[l]:level_indptr[l + 1]]`` are the task
        indices of level ``l`` (ascending).  ``len(level_indptr) - 1`` is the
        number of levels.
    """
    n = int(in_indptr.shape[0]) - 1
    indegree = np.diff(in_indptr).astype(np.int64, copy=False)
    out_starts, out_stops = out_indptr[:-1], out_indptr[1:]
    # Tasks that reach in-degree zero this level, possibly repeated; the
    # mask turns them into the next (ascending, duplicate-free) frontier.
    hit = np.zeros(n, dtype=bool)
    frontier = np.flatnonzero(indegree == 0)
    parts = []
    indptr = [0]
    visited = 0
    while frontier.size:
        parts.append(frontier)
        visited += int(frontier.size)
        indptr.append(visited)
        targets = out_indices[
            _ragged_gather(out_starts[frontier], out_stops[frontier])
        ]
        np.subtract.at(indegree, targets, 1)
        hit[targets[indegree[targets] == 0]] = True
        frontier = np.flatnonzero(hit)
        hit[frontier] = False
    if visited != n:
        raise CycleError(cycle=np.flatnonzero(indegree > 0)[:10].tolist())
    level_order = (
        np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    )
    level_indptr = np.asarray(indptr, dtype=np.int64)
    level_indptr.setflags(write=False)
    level_order.setflags(write=False)
    return level_indptr, level_order


def _kahn_order(
    succ_indptr: np.ndarray, successors: np.ndarray, task_ids: Tuple[TaskId, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """Kahn's topological order over integer successor lists, with levels.

    ``successors`` lists each task's successors in edge-insertion order;
    the ready queue is FIFO and seeded in task-insertion order, so the
    result is deterministic for a given construction sequence.

    Also returns each task's FIFO generation.  The queue stays sorted by
    generation, so the predecessor that enqueues a task has the highest
    one: generations are the levels of :func:`compute_level_structure`.

    Raises
    ------
    CycleError
        Naming (up to) the first ten tasks, in insertion order, that still
        have unprocessed predecessors.
    """
    indegree = np.bincount(successors, minlength=len(task_ids)).tolist()
    bounds = succ_indptr.tolist()
    succ = successors.tolist()
    level = [0] * len(task_ids)
    order = [i for i, degree in enumerate(indegree) if not degree]
    for task in order:  # the queue grows while it is walked
        below = level[task] + 1
        for nxt in succ[bounds[task] : bounds[task + 1]]:
            indegree[nxt] -= 1
            if not indegree[nxt]:
                level[nxt] = below
                order.append(nxt)
    if len(order) != len(task_ids):
        remaining = [task_ids[i] for i, degree in enumerate(indegree) if degree]
        raise CycleError(cycle=remaining[:10])
    return np.array(order, dtype=np.int64), np.array(level, dtype=np.int64)


@dataclass(frozen=True)
class GraphIndex:
    """Immutable, array-based snapshot of a :class:`TaskGraph`.

    Attributes
    ----------
    task_ids:
        Tuple mapping integer index -> task identifier.
    index_of:
        Mapping task identifier -> integer index.
    weights:
        ``float64`` array of task weights, aligned with ``task_ids``.
    topo_order:
        Integer array: a topological order of the task indices (every
        predecessor appears before its successors).
    pred_indptr, pred_indices:
        CSR encoding of predecessor lists: the predecessors of task ``i``
        are ``pred_indices[pred_indptr[i]:pred_indptr[i + 1]]``.
    succ_indptr, succ_indices:
        CSR encoding of successor lists (same convention).

    The topological *level structure* (tasks grouped by depth, see
    :func:`compute_level_structure`) is exposed through
    :attr:`level_indptr` / :attr:`level_order`.  :meth:`TaskGraph.index`
    records it during the topological sort and caches it on the instance.
    """

    task_ids: Tuple[TaskId, ...]
    index_of: Mapping[TaskId, int]
    weights: np.ndarray
    topo_order: np.ndarray
    pred_indptr: np.ndarray
    pred_indices: np.ndarray
    succ_indptr: np.ndarray
    succ_indices: np.ndarray

    @property
    def num_tasks(self) -> int:
        return len(self.task_ids)

    @property
    def num_edges(self) -> int:
        return int(self.pred_indices.shape[0])

    def predecessors(self, index: int) -> np.ndarray:
        """Predecessor indices of the task with integer index ``index``."""
        return self.pred_indices[self.pred_indptr[index] : self.pred_indptr[index + 1]]

    def successors(self, index: int) -> np.ndarray:
        """Successor indices of the task with integer index ``index``."""
        return self.succ_indices[self.succ_indptr[index] : self.succ_indptr[index + 1]]

    def source_indices(self) -> np.ndarray:
        """Indices of tasks without predecessors."""
        counts = np.diff(self.pred_indptr)
        return np.nonzero(counts == 0)[0]

    def sink_indices(self) -> np.ndarray:
        """Indices of tasks without successors."""
        counts = np.diff(self.succ_indptr)
        return np.nonzero(counts == 0)[0]

    # -- level structure (lazy) ----------------------------------------
    def level_structure(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(level_indptr, level_order)``: tasks grouped by topological depth.

        Recorded by the topological sort of :meth:`TaskGraph.index`, or
        else computed on first access with :func:`compute_level_structure`,
        and cached (the dataclass is frozen, so the cache lives in the
        instance ``__dict__`` under a private key).
        """
        cached = self.__dict__.get("_level_cache")
        if cached is None:
            cached = compute_level_structure(
                self.pred_indptr, self.succ_indptr, self.succ_indices
            )
            object.__setattr__(self, "_level_cache", cached)
        return cached

    @property
    def level_indptr(self) -> np.ndarray:
        """Pointer array of the level structure (length ``num_levels + 1``)."""
        return self.level_structure()[0]

    @property
    def level_order(self) -> np.ndarray:
        """Task indices grouped by level; see :func:`compute_level_structure`."""
        return self.level_structure()[1]

    @property
    def num_levels(self) -> int:
        """Number of topological levels (0 for the empty graph)."""
        return int(self.level_indptr.shape[0]) - 1

    @property
    def topo_rank(self) -> np.ndarray:
        """Inverse permutation of :attr:`topo_order`.

        ``topo_rank[i]`` is the position of task ``i`` in the topological
        order; computed once (vectorised scatter) and cached, so consumers
        that need topological ranks — Dodin's duplication rule, the
        within-level ordering of the correlated-normal estimator — avoid
        rebuilding a Python dictionary per call.
        """
        cached = self.__dict__.get("_topo_rank_cache")
        if cached is None:
            cached = np.empty(self.num_tasks, dtype=np.int64)
            cached[self.topo_order] = np.arange(self.num_tasks, dtype=np.int64)
            cached.setflags(write=False)
            object.__setattr__(self, "_topo_rank_cache", cached)
        return cached


class TaskGraph:
    """A directed acyclic graph of weighted tasks.

    Parameters
    ----------
    name:
        Optional human-readable name (used in reports and serialisation).

    Notes
    -----
    * Edges carry no weight: in the silent-error model of the paper all cost
      lies on the tasks.  Communication-aware extensions can store costs in
      the per-edge attribute dictionary.
    * Insertion order of tasks and edges is preserved, which makes every
      derived quantity (topological order, Monte Carlo sampling, ...)
      deterministic for a given construction sequence and seed.
    """

    def __init__(self, name: str = "taskgraph") -> None:
        self.name = str(name)
        self._tasks: Dict[TaskId, Task] = {}
        self._succ: Dict[TaskId, Dict[TaskId, Dict[str, Any]]] = {}
        self._pred: Dict[TaskId, Dict[TaskId, Dict[str, Any]]] = {}
        self._num_edges = 0
        self._index_cache: Optional[GraphIndex] = None
        self._pos_cache: Optional[Dict[TaskId, int]] = None

    # ------------------------------------------------------------------
    # Basic construction / mutation
    # ------------------------------------------------------------------
    def add_task(
        self,
        task_id: TaskId,
        weight: float,
        *,
        kernel: Optional[str] = None,
        metadata: Optional[Mapping[str, Any]] = None,
    ) -> Task:
        """Add a task to the graph and return the created :class:`Task`.

        Raises
        ------
        DuplicateTaskError
            If a task with the same identifier already exists.
        InvalidWeightError
            If the weight is negative, NaN or infinite.
        """
        if task_id in self._tasks:
            raise DuplicateTaskError(task_id)
        task = Task(task_id, weight, kernel=kernel, metadata=metadata or {})
        self._tasks[task_id] = task
        self._succ[task_id] = {}
        self._pred[task_id] = {}
        self._invalidate()
        return task

    def add_task_object(self, task: Task) -> Task:
        """Add an already-constructed :class:`Task` object."""
        if task.task_id in self._tasks:
            raise DuplicateTaskError(task.task_id)
        self._tasks[task.task_id] = task
        self._succ[task.task_id] = {}
        self._pred[task.task_id] = {}
        self._invalidate()
        return task

    def add_edge(self, src: TaskId, dst: TaskId, **attrs: Any) -> None:
        """Add a precedence constraint ``src -> dst``.

        Adding an edge twice is a no-op (the attribute dictionaries are
        merged), so workflow generators may emit redundant dependencies
        without bloating the graph.

        Raises
        ------
        UnknownTaskError
            If either endpoint has not been added yet.
        GraphError
            If ``src == dst`` (self-loops are never valid in a DAG).
        """
        if src not in self._tasks:
            raise UnknownTaskError(src)
        if dst not in self._tasks:
            raise UnknownTaskError(dst)
        if src == dst:
            raise GraphError(f"self-loop on task {src!r} is not allowed")
        if dst in self._succ[src]:
            self._succ[src][dst].update(attrs)
            self._pred[dst][src].update(attrs)
            return
        edge_attrs = dict(attrs)
        self._succ[src][dst] = edge_attrs
        self._pred[dst][src] = edge_attrs
        self._num_edges += 1
        self._invalidate()

    def add_edges_from(self, edges: Iterable[Tuple[TaskId, TaskId]]) -> None:
        """Add many edges at once."""
        for src, dst in edges:
            self.add_edge(src, dst)

    def remove_edge(self, src: TaskId, dst: TaskId) -> None:
        """Remove the edge ``src -> dst``."""
        if src not in self._tasks:
            raise UnknownTaskError(src)
        if dst not in self._succ[src]:
            raise GraphError(f"no edge {src!r} -> {dst!r}")
        del self._succ[src][dst]
        del self._pred[dst][src]
        self._num_edges -= 1
        self._invalidate()

    def remove_task(self, task_id: TaskId) -> None:
        """Remove a task and all incident edges."""
        if task_id not in self._tasks:
            raise UnknownTaskError(task_id)
        for succ in list(self._succ[task_id]):
            self.remove_edge(task_id, succ)
        for pred in list(self._pred[task_id]):
            self.remove_edge(pred, task_id)
        del self._tasks[task_id]
        del self._succ[task_id]
        del self._pred[task_id]
        self._invalidate()

    def set_weight(self, task_id: TaskId, weight: float) -> None:
        """Replace the weight of an existing task."""
        task = self.task(task_id)
        validate_weight(weight)
        self._tasks[task_id] = task.with_weight(weight)
        self._invalidate()

    def scale_weights(self, factor: float) -> None:
        """Multiply every task weight by ``factor`` in place."""
        if factor < 0:
            raise GraphError("scaling factor must be non-negative")
        for task_id, task in self._tasks.items():
            self._tasks[task_id] = task.scaled(factor)
        self._invalidate()

    def _invalidate(self) -> None:
        self._index_cache = None
        self._pos_cache = None

    def _positions(self) -> Dict[TaskId, int]:
        """Task-id -> insertion position, the canonical neighbour order."""
        if self._pos_cache is None:
            self._pos_cache = {tid: i for i, tid in enumerate(self._tasks)}
        return self._pos_cache

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: TaskId) -> bool:
        return task_id in self._tasks

    def __iter__(self) -> Iterator[TaskId]:
        return iter(self._tasks)

    @property
    def num_tasks(self) -> int:
        """Number of tasks (vertices)."""
        return len(self._tasks)

    @property
    def num_edges(self) -> int:
        """Number of precedence edges."""
        return self._num_edges

    def task(self, task_id: TaskId) -> Task:
        """Return the :class:`Task` with the given identifier."""
        try:
            return self._tasks[task_id]
        except KeyError:
            raise UnknownTaskError(task_id) from None

    def weight(self, task_id: TaskId) -> float:
        """Return the failure-free execution time of a task."""
        return self.task(task_id).weight

    def tasks(self) -> List[Task]:
        """All tasks, in insertion order."""
        return list(self._tasks.values())

    def task_ids(self) -> List[TaskId]:
        """All task identifiers, in insertion order."""
        return list(self._tasks)

    def weights(self) -> Dict[TaskId, float]:
        """Mapping task identifier -> weight."""
        return {tid: t.weight for tid, t in self._tasks.items()}

    def total_weight(self) -> float:
        """Sum of all task weights (total sequential work)."""
        return float(sum(t.weight for t in self._tasks.values()))

    def mean_weight(self) -> float:
        """Average task weight ``ā`` used by the paper's calibration."""
        if not self._tasks:
            raise GraphError("cannot compute the mean weight of an empty graph")
        return self.total_weight() / self.num_tasks

    def edges(self) -> List[Tuple[TaskId, TaskId]]:
        """All edges as ``(src, dst)`` pairs, in insertion order."""
        return [(src, dst) for src, succs in self._succ.items() for dst in succs]

    def edge_attributes(self, src: TaskId, dst: TaskId) -> Dict[str, Any]:
        """Attribute dictionary of an edge (mutable, shared with the graph)."""
        if src not in self._tasks:
            raise UnknownTaskError(src)
        try:
            return self._succ[src][dst]
        except KeyError:
            raise GraphError(f"no edge {src!r} -> {dst!r}") from None

    def has_edge(self, src: TaskId, dst: TaskId) -> bool:
        """Whether the precedence edge ``src -> dst`` exists."""
        return src in self._succ and dst in self._succ[src]

    def successors(self, task_id: TaskId) -> List[TaskId]:
        """Successor identifiers of a task (``Succ(i)`` in the paper).

        Returned in canonical (task-insertion) order, matching the CSR
        rows of :meth:`index` — edge-insertion order is an accident of
        construction and must not leak into evaluation order.
        """
        if task_id not in self._tasks:
            raise UnknownTaskError(task_id)
        return sorted(self._succ[task_id], key=self._positions().__getitem__)

    def predecessors(self, task_id: TaskId) -> List[TaskId]:
        """Predecessor identifiers of a task (``Pred(i)`` in the paper).

        Returned in canonical (task-insertion) order; see :meth:`successors`.
        """
        if task_id not in self._tasks:
            raise UnknownTaskError(task_id)
        return sorted(self._pred[task_id], key=self._positions().__getitem__)

    def in_degree(self, task_id: TaskId) -> int:
        """Number of predecessors."""
        return len(self.predecessors(task_id))

    def out_degree(self, task_id: TaskId) -> int:
        """Number of successors."""
        return len(self.successors(task_id))

    def sources(self) -> List[TaskId]:
        """Tasks without predecessors (entry tasks)."""
        return [tid for tid in self._tasks if not self._pred[tid]]

    def sinks(self) -> List[TaskId]:
        """Tasks without successors (exit tasks)."""
        return [tid for tid in self._tasks if not self._succ[tid]]

    # ------------------------------------------------------------------
    # Topological order and index
    # ------------------------------------------------------------------
    def topological_order(self) -> List[TaskId]:
        """Return a topological order of the task identifiers.

        Kahn's algorithm is used; ties are broken by insertion order so the
        result is deterministic.  This is the order of :meth:`index`
        (``topo_order``), built once and cached with it.

        Raises
        ------
        CycleError
            If the graph contains a cycle.
        """
        index = self.index()
        return [index.task_ids[i] for i in index.topo_order.tolist()]

    def is_acyclic(self) -> bool:
        """Whether the graph is a DAG."""
        try:
            self.topological_order()
        except CycleError:
            return False
        return True

    def index(self) -> GraphIndex:
        """Return (and cache) the immutable :class:`GraphIndex` snapshot."""
        if self._index_cache is None:
            self._index_cache = self._build_index()
        return self._index_cache

    def _build_index(self) -> GraphIndex:
        task_ids = tuple(self._tasks)
        n = len(task_ids)
        m = self._num_edges
        index_of = dict(zip(task_ids, range(n)))
        weights = np.fromiter(
            (task.weight for task in self._tasks.values()), dtype=np.float64, count=n
        )
        # One flat pass over the successor dictionaries, in edge-insertion
        # order; the topological order, both canonical CSR directions and
        # their pointer arrays follow from whole-array passes.
        succ_counts = np.fromiter(map(len, self._succ.values()), dtype=np.int64, count=n)
        targets = np.fromiter(
            map(index_of.__getitem__, chain.from_iterable(self._succ.values())),
            dtype=np.int64,
            count=m,
        )
        succ_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(succ_counts, out=succ_indptr[1:])
        topo, level = _kahn_order(succ_indptr, targets, task_ids)
        # Ascending task index within each level, as compute_level_structure.
        levels = (
            np.concatenate(([0], np.cumsum(np.bincount(level)))),
            np.argsort(level, kind="stable"),
        )

        # Canonicalise neighbour order within each row.  Edge-insertion
        # order is an accident of construction (a serialize round-trip
        # regroups it), and both the content-addressed schedule keys and
        # the floating-point reduction order in the kernels depend on
        # these arrays — structurally identical graphs must index
        # identically, bit for bit.  The predecessor CSR is the same edge
        # list sorted by target instead of by source.
        sources = np.repeat(np.arange(n, dtype=np.int64), succ_counts)
        succ_indices = targets[np.lexsort((targets, sources))]
        pred_indices = sources[np.lexsort((sources, targets))]
        pred_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(targets, minlength=n), out=pred_indptr[1:])

        for arr in (weights, topo, pred_indptr, pred_indices, succ_indptr, succ_indices, *levels):
            arr.setflags(write=False)
        index = GraphIndex(
            task_ids=task_ids,
            index_of=index_of,
            weights=weights,
            topo_order=topo,
            pred_indptr=pred_indptr,
            pred_indices=pred_indices,
            succ_indptr=succ_indptr,
            succ_indices=succ_indices,
        )
        object.__setattr__(index, "_level_cache", levels)
        return index

    # ------------------------------------------------------------------
    # Copies, subgraphs and conversions
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "TaskGraph":
        """Return a deep structural copy of the graph."""
        clone = TaskGraph(name=name or self.name)
        for task in self._tasks.values():
            clone.add_task_object(task)
        for src, dst in self.edges():
            clone.add_edge(src, dst, **dict(self._succ[src][dst]))
        return clone

    def with_doubled_task(self, task_id: TaskId) -> "TaskGraph":
        """Return a copy where the weight of ``task_id`` is doubled.

        This is the graph ``G_i`` of the paper: identical to ``G`` except
        that task ``i`` has weight ``2 a_i`` (the task failed once and was
        re-executed).
        """
        clone = self.copy(name=f"{self.name}[double:{task_id}]")
        clone.set_weight(task_id, 2.0 * self.weight(task_id))
        return clone

    def subgraph(self, task_ids: Sequence[TaskId], name: Optional[str] = None) -> "TaskGraph":
        """Return the induced subgraph on the given task identifiers."""
        keep = set(task_ids)
        unknown = keep - set(self._tasks)
        if unknown:
            raise UnknownTaskError(next(iter(unknown)))
        sub = TaskGraph(name=name or f"{self.name}[sub]")
        for tid in self._tasks:
            if tid in keep:
                sub.add_task_object(self._tasks[tid])
        for src, dst in self.edges():
            if src in keep and dst in keep:
                sub.add_edge(src, dst)
        return sub

    def to_networkx(self):
        """Convert to a :class:`networkx.DiGraph` (weights stored on nodes)."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for task in self._tasks.values():
            g.add_node(task.task_id, weight=task.weight, kernel=task.kernel, **task.metadata)
        for src, dst in self.edges():
            g.add_edge(src, dst, **dict(self._succ[src][dst]))
        return g

    @classmethod
    def from_networkx(cls, g, *, weight_attr: str = "weight", name: Optional[str] = None):
        """Build a :class:`TaskGraph` from a :class:`networkx.DiGraph`.

        Node weights are read from ``weight_attr`` (default ``"weight"``);
        missing weights default to ``1.0``.
        """
        graph = cls(name=name or (g.name or "taskgraph"))
        for node, data in g.nodes(data=True):
            graph.add_task(
                node,
                data.get(weight_attr, 1.0),
                kernel=data.get("kernel"),
                metadata={
                    k: v for k, v in data.items() if k not in (weight_attr, "kernel")
                },
            )
        for src, dst, data in g.edges(data=True):
            graph.add_edge(src, dst, **data)
        return graph

    # ------------------------------------------------------------------
    # Dunder niceties
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskGraph(name={self.name!r}, tasks={self.num_tasks}, edges={self.num_edges})"
        )
