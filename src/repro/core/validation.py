"""Structural validation of task graphs.

The estimators and schedulers assume their inputs are well-formed DAGs.  The
helpers here perform cheap checks (acyclicity, reachability, weight sanity)
and report problems with actionable error messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Union

import numpy as np

from ..exceptions import CycleError, GraphError
from .graph import GraphIndex, TaskGraph
from .task import TaskId

__all__ = [
    "ValidationReport",
    "validate_graph",
    "ensure_valid",
    "find_cycle",
    "unreachable_tasks",
    "isolated_tasks",
]


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_graph`.

    ``errors`` are violations that make the graph unusable (cycles, negative
    weights).  ``warnings`` flag suspicious but legal structures (isolated
    tasks, zero-weight tasks outside the artificial source/sink).
    """

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no error was found."""
        return not self.errors

    def raise_if_invalid(self) -> None:
        """Raise :class:`GraphError` summarising the errors, if any."""
        if self.errors:
            raise GraphError("; ".join(self.errors))

    def __bool__(self) -> bool:
        return self.ok


def find_cycle(graph: TaskGraph) -> List[TaskId]:
    """Return one cycle of the graph as a list of task ids, or ``[]``.

    A depth-first search with colouring is used; the returned list is the
    sequence of vertices on the back edge cycle, starting and ending at the
    same vertex (the terminal repeat is omitted).
    """
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {tid: WHITE for tid in graph.task_ids()}
    parent = {}

    for root in graph.task_ids():
        if colour[root] != WHITE:
            continue
        stack = [(root, iter(graph.successors(root)))]
        colour[root] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if colour[succ] == WHITE:
                    colour[succ] = GREY
                    parent[succ] = node
                    stack.append((succ, iter(graph.successors(succ))))
                    advanced = True
                    break
                if colour[succ] == GREY:
                    # Found a back edge node -> succ: reconstruct the cycle.
                    cycle = [node]
                    cur = node
                    while cur != succ:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return []


def unreachable_tasks(graph: TaskGraph) -> Set[TaskId]:
    """Tasks not reachable from any source task.

    In a DAG this set is always empty; it becomes meaningful on graphs with
    cycles (every vertex on or downstream of a cycle with no entry).
    """
    reached: Set[TaskId] = set()
    frontier = list(graph.sources())
    reached.update(frontier)
    while frontier:
        nxt: List[TaskId] = []
        for tid in frontier:
            for succ in graph.successors(tid):
                if succ not in reached:
                    reached.add(succ)
                    nxt.append(succ)
        frontier = nxt
    return set(graph.task_ids()) - reached


def isolated_tasks(graph: TaskGraph) -> List[TaskId]:
    """Tasks with neither predecessors nor successors."""
    return [
        tid
        for tid in graph.task_ids()
        if graph.in_degree(tid) == 0 and graph.out_degree(tid) == 0
    ]


def validate_graph(graph: Union[TaskGraph, GraphIndex], *, allow_empty: bool = False) -> ValidationReport:
    """Run all structural checks and return a :class:`ValidationReport`."""
    report = ValidationReport()
    if isinstance(graph, GraphIndex):  # pragma: no cover - thin convenience
        raise GraphError("validate_graph expects a TaskGraph, not a GraphIndex")

    if graph.num_tasks == 0:
        if not allow_empty:
            report.errors.append("graph has no tasks")
        return report

    cycle = find_cycle(graph)
    if cycle:
        report.errors.append(
            "graph contains a cycle: " + " -> ".join(map(str, cycle + cycle[:1]))
        )

    for task in graph.tasks():
        if task.weight < 0:  # Task construction forbids this, but weights can
            # be injected through from_networkx with odd attribute values.
            report.errors.append(f"task {task.task_id!r} has negative weight {task.weight}")
        elif task.weight == 0.0 and task.kernel not in ("SOURCE", "SINK", None):
            report.warnings.append(f"task {task.task_id!r} has zero weight")

    iso = isolated_tasks(graph)
    if iso and graph.num_tasks > 1:
        report.warnings.append(
            f"{len(iso)} isolated task(s) (no predecessors, no successors): "
            + ", ".join(map(str, iso[:5]))
        )

    if not cycle:
        orphans = unreachable_tasks(graph)
        if orphans:
            report.errors.append(
                f"{len(orphans)} task(s) unreachable from any source"
            )
    return report


def ensure_valid(graph: TaskGraph) -> TaskGraph:
    """Validate a graph and return it, raising on any structural error.

    One pass over structure the estimators need anyway: the cached
    :meth:`TaskGraph.index` (whose topological sort fails on a cycle) and a
    vectorised check of its weight vector.  On a DAG every task is
    reachable from a source, so no reachability pass is needed;
    :func:`validate_graph` keeps the full report with warnings.

    Raises
    ------
    CycleError
        If the graph has a cycle (carrying one actual cycle).
    GraphError
        For any other structural error.
    """
    if graph.num_tasks == 0:
        raise GraphError("graph has no tasks")
    try:
        index = graph.index()
    except CycleError:
        # The topological sort only knows which tasks it could not order;
        # report a real cycle instead.
        raise CycleError(cycle=find_cycle(graph)) from None
    negative = np.flatnonzero(index.weights < 0)
    if negative.size:
        raise GraphError(
            "; ".join(
                f"task {index.task_ids[i]!r} has negative weight {index.weights[i]}"
                for i in negative
            )
        )
    return graph
