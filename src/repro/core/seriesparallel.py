"""Series-parallel recognition, decomposition and evaluation.

The exact evaluation of the makespan distribution of a probabilistic DAG is
tractable (pseudo-polynomially) when the graph is *two-terminal
series-parallel* (TTSP): the distribution of a series composition is the
convolution of its parts, the distribution of a parallel composition is
obtained by multiplying CDFs (Section II-A2 of the paper).  Dodin's method
approximates an arbitrary DAG by a series-parallel one;
:mod:`repro.estimators.dodin` implements it on its own activity-on-arc
reduction network.

:func:`sp_decomposition` works on the task graph itself and repeatedly
applies

* **series reduction** — a task whose single successor has no other
  predecessor is fused with that successor; and
* **parallel reduction** — two tasks with identical predecessor and
  successor sets are fused,

until either a single super-task remains (the graph is SP and its payload
is the decomposition tree) or no reduction applies (the graph is not SP).
The reduction system is confluent, so a greedy order suffices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from ..exceptions import NotSeriesParallelError
from .graph import TaskGraph
from .task import TaskId

__all__ = [
    "SPLeaf",
    "SPSeries",
    "SPParallel",
    "SPNode",
    "is_series_parallel",
    "sp_decomposition",
    "evaluate_sp",
    "sp_leaf_tasks",
    "make_series_parallel_graph",
]


# ----------------------------------------------------------------------
# Series-parallel decomposition trees
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SPLeaf:
    """Leaf of an SP decomposition tree.

    ``task_id`` is ``None`` for a zero-weight leaf (pure precedence, no
    work).
    """

    task_id: Optional[TaskId]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "ε" if self.task_id is None else str(self.task_id)


@dataclass(frozen=True)
class SPSeries:
    """Series composition: the children execute one after the other."""

    children: Tuple["SPNode", ...]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "(" + " ; ".join(map(str, self.children)) + ")"


@dataclass(frozen=True)
class SPParallel:
    """Parallel composition: the children execute concurrently (max)."""

    children: Tuple["SPNode", ...]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "(" + " || ".join(map(str, self.children)) + ")"


SPNode = Union[SPLeaf, SPSeries, SPParallel]


def _series(a: SPNode, b: SPNode) -> SPNode:
    """Combine two SP trees in series, flattening nested series nodes."""
    parts: List[SPNode] = []
    for node in (a, b):
        if isinstance(node, SPSeries):
            parts.extend(node.children)
        else:
            parts.append(node)
    # Drop epsilon leaves inside a series composition: they carry no work.
    parts = [p for p in parts if not (isinstance(p, SPLeaf) and p.task_id is None)]
    if not parts:
        return SPLeaf(None)
    if len(parts) == 1:
        return parts[0]
    return SPSeries(tuple(parts))


def _parallel(a: SPNode, b: SPNode) -> SPNode:
    """Combine two SP trees in parallel, flattening nested parallel nodes."""
    parts: List[SPNode] = []
    for node in (a, b):
        if isinstance(node, SPParallel):
            parts.extend(node.children)
        else:
            parts.append(node)
    if len(parts) == 1:
        return parts[0]
    return SPParallel(tuple(parts))


def sp_leaf_tasks(tree: SPNode) -> List[TaskId]:
    """Return the task identifiers appearing in an SP tree (with repetition).

    Duplicated tasks appear multiple times when the tree was produced by
    Dodin's approximation (node duplication introduces copies).
    """
    if isinstance(tree, SPLeaf):
        return [] if tree.task_id is None else [tree.task_id]
    out: List[TaskId] = []
    for child in tree.children:
        out.extend(sp_leaf_tasks(child))
    return out


def evaluate_sp(
    tree: SPNode,
    leaf_value: Callable[[Optional[TaskId]], Any],
    series_combine: Callable[[Any, Any], Any],
    parallel_combine: Callable[[Any, Any], Any],
) -> Any:
    """Fold an SP decomposition tree bottom-up.

    Parameters
    ----------
    leaf_value:
        Maps a task identifier (or ``None`` for an epsilon leaf) to a value.
    series_combine / parallel_combine:
        Associative binary operators (e.g. convolution and CDF-product of
        random variables, or ``+`` and ``max`` for plain numbers).
    """
    if isinstance(tree, SPLeaf):
        return leaf_value(tree.task_id)
    values = [
        evaluate_sp(child, leaf_value, series_combine, parallel_combine)
        for child in tree.children
    ]
    combine = series_combine if isinstance(tree, SPSeries) else parallel_combine
    acc = values[0]
    for value in values[1:]:
        acc = combine(acc, value)
    return acc


def sp_decomposition(graph: TaskGraph) -> SPNode:
    """Return the SP decomposition tree of a (vertex) series-parallel graph.

    The recognition works on the *vertex* series-parallel class of Valdes,
    Tarjan and Lawler, which is exactly the class for which the sum/max
    recursion on task weights is exact:

    * **series reduction** — a task ``v`` with a single successor ``w`` that
      is itself ``w``'s only predecessor is fused with ``w`` (their trees are
      composed in series);
    * **parallel reduction** — two tasks with identical predecessor *and*
      successor sets are fused (their trees are composed in parallel).

    The graph is series-parallel iff these reductions collapse it to a
    single vertex, whose tree is returned.

    Raises
    ------
    NotSeriesParallelError
        If the graph is not (vertex) series-parallel.
    """
    if graph.num_tasks == 0:
        raise NotSeriesParallelError("the empty graph has no SP decomposition")

    # Mutable reduction state: tree payload + adjacency sets per super-node.
    trees: Dict[int, SPNode] = {}
    preds: Dict[int, Set[int]] = {}
    succs: Dict[int, Set[int]] = {}
    index_of = {tid: i for i, tid in enumerate(graph.task_ids())}
    for tid, i in index_of.items():
        trees[i] = SPLeaf(tid)
        preds[i] = set()
        succs[i] = set()
    for src, dst in graph.edges():
        succs[index_of[src]].add(index_of[dst])
        preds[index_of[dst]].add(index_of[src])

    def series_step() -> bool:
        for v in sorted(trees):
            if len(succs[v]) != 1:
                continue
            (w,) = succs[v]
            if len(preds[w]) != 1 or w == v:
                continue
            # Fuse v and w into v.
            trees[v] = _series(trees[v], trees[w])
            succs[v] = set(succs[w])
            for x in succs[w]:
                preds[x].discard(w)
                preds[x].add(v)
            del trees[w], preds[w], succs[w]
            return True
        return False

    def parallel_step() -> bool:
        groups: Dict[Tuple[frozenset, frozenset], int] = {}
        for v in sorted(trees):
            key = (frozenset(preds[v]), frozenset(succs[v]))
            if key in groups:
                u = groups[key]
                trees[u] = _parallel(trees[u], trees[v])
                for p in preds[v]:
                    succs[p].discard(v)
                for s in succs[v]:
                    preds[s].discard(v)
                del trees[v], preds[v], succs[v]
                return True
            groups[key] = v
        return False

    while len(trees) > 1:
        if series_step():
            continue
        if parallel_step():
            continue
        raise NotSeriesParallelError(
            f"graph {graph.name!r} is not series-parallel "
            f"({len(trees)} super-tasks remain after reduction)"
        )
    return next(iter(trees.values()))


def is_series_parallel(graph: TaskGraph) -> bool:
    """Whether the task graph is (vertex) series-parallel."""
    try:
        sp_decomposition(graph)
    except NotSeriesParallelError:
        return False
    return True


def make_series_parallel_graph(
    tree: SPNode,
    weights: Dict[TaskId, float],
    *,
    name: str = "sp-graph",
) -> TaskGraph:
    """Materialise an SP decomposition tree back into a :class:`TaskGraph`.

    Each leaf becomes a task with the given weight; series composition
    chains the sub-graphs (every sink of the left part precedes every source
    of the right part); parallel composition simply unions them.  Task
    identifiers are made unique by suffixing duplicates, and the original
    identifier is stored in the task metadata under ``"origin"``.
    """
    graph = TaskGraph(name=name)
    counter: Dict[TaskId, int] = {}

    def fresh_id(tid: TaskId) -> TaskId:
        n = counter.get(tid, 0)
        counter[tid] = n + 1
        return tid if n == 0 else f"{tid}#dup{n}"

    def build(node: SPNode) -> Tuple[List[TaskId], List[TaskId]]:
        """Return (sources, sinks) of the sub-graph created for ``node``."""
        if isinstance(node, SPLeaf):
            if node.task_id is None:
                return [], []
            new_id = fresh_id(node.task_id)
            graph.add_task(new_id, weights[node.task_id], metadata={"origin": node.task_id})
            return [new_id], [new_id]
        if isinstance(node, SPSeries):
            sources: List[TaskId] = []
            prev_sinks: List[TaskId] = []
            for child in node.children:
                child_sources, child_sinks = build(child)
                if not child_sources:
                    continue
                if not sources:
                    sources = child_sources
                for s in prev_sinks:
                    for t in child_sources:
                        graph.add_edge(s, t)
                prev_sinks = child_sinks
            return sources, prev_sinks
        # Parallel composition
        sources, sinks = [], []
        for child in node.children:
            child_sources, child_sinks = build(child)
            sources.extend(child_sources)
            sinks.extend(child_sinks)
        return sources, sinks

    build(tree)
    return graph
