"""Schedules, their validity, and their execution under silent errors.

A :class:`Schedule` maps every task of a graph to a processor and a start
time.  The schedulers in this package produce schedules.
:func:`schedule_dag` turns one into a task graph (the disjunctive graph of
the schedule), so the package's estimators and its Monte Carlo engine
evaluate it under silent errors unchanged;
:func:`expected_schedule_makespan` is the Monte Carlo shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.graph import TaskGraph
from ..core.task import TaskId
from ..exceptions import CycleError, SchedulingError
from ..failures.models import ErrorModel
from ..rv.empirical import EmpiricalDistribution
from ..sim.engine import MonteCarloEngine
from .platform import Platform

__all__ = ["ScheduledTask", "Schedule", "schedule_dag", "expected_schedule_makespan"]


@dataclass(frozen=True)
class ScheduledTask:
    """Placement of one task: processor, start time and (planned) finish time."""

    task_id: TaskId
    processor: int
    start: float
    finish: float

    def __post_init__(self) -> None:
        if self.finish < self.start:
            raise SchedulingError(
                f"task {self.task_id!r} finishes before it starts "
                f"({self.finish} < {self.start})"
            )

    @property
    def duration(self) -> float:
        """Planned execution duration."""
        return self.finish - self.start


class Schedule:
    """A complete mapping of tasks to processors and time slots."""

    def __init__(self, graph: TaskGraph, platform: Platform) -> None:
        self.graph = graph
        self.platform = platform
        self._entries: Dict[TaskId, ScheduledTask] = {}

    # -- construction ------------------------------------------------------
    def place(self, task_id: TaskId, processor: int, start: float, finish: float) -> ScheduledTask:
        """Record the placement of a task."""
        if task_id not in self.graph:
            raise SchedulingError(f"task {task_id!r} is not part of the graph")
        if task_id in self._entries:
            raise SchedulingError(f"task {task_id!r} is already scheduled")
        entry = ScheduledTask(task_id, processor, start, finish)
        self._entries[task_id] = entry
        return entry

    # -- queries -----------------------------------------------------------
    def __contains__(self, task_id: TaskId) -> bool:
        return task_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, task_id: TaskId) -> ScheduledTask:
        """The placement of a task."""
        try:
            return self._entries[task_id]
        except KeyError:
            raise SchedulingError(f"task {task_id!r} is not scheduled") from None

    def entries(self) -> List[ScheduledTask]:
        """All placements, sorted by start time (ties by processor)."""
        return sorted(self._entries.values(), key=lambda e: (e.start, e.processor))

    def processor_timeline(self, processor: int) -> List[ScheduledTask]:
        """Placements on one processor, sorted by start time."""
        return sorted(
            (e for e in self._entries.values() if e.processor == processor),
            key=lambda e: e.start,
        )

    @property
    def makespan(self) -> float:
        """Largest finish time (0 for an empty schedule)."""
        if not self._entries:
            return 0.0
        return max(e.finish for e in self._entries.values())

    def is_complete(self) -> bool:
        """Whether every task of the graph has been placed."""
        return len(self._entries) == self.graph.num_tasks

    def utilisation(self) -> float:
        """Total busy time divided by ``makespan × num_processors``."""
        if not self._entries or self.makespan == 0:
            return 0.0
        busy = sum(e.duration for e in self._entries.values())
        return busy / (self.makespan * self.platform.num_processors)

    # -- validation --------------------------------------------------------
    def validate(self) -> None:
        """Check completeness, precedence feasibility and processor exclusivity.

        Raises
        ------
        SchedulingError
            With a message describing the first violation found.
        """
        if not self.is_complete():
            missing = [t for t in self.graph.task_ids() if t not in self._entries]
            raise SchedulingError(
                f"schedule is incomplete: {len(missing)} unplaced task(s), e.g. {missing[:3]}"
            )
        # Precedence constraints.
        for src, dst in self.graph.edges():
            if self._entries[dst].start + 1e-12 < self._entries[src].finish:
                raise SchedulingError(
                    f"precedence violated: {dst!r} starts at {self._entries[dst].start} "
                    f"before {src!r} finishes at {self._entries[src].finish}"
                )
        # Processor exclusivity.
        for proc in self.platform.processors:
            timeline = self.processor_timeline(proc.proc_id)
            for before, after in zip(timeline, timeline[1:]):
                if after.start + 1e-12 < before.finish:
                    raise SchedulingError(
                        f"overlap on processor {proc.proc_id}: {before.task_id!r} "
                        f"and {after.task_id!r}"
                    )

    def to_dict(self) -> Dict:
        """JSON-friendly representation of the schedule."""
        return {
            "graph": self.graph.name,
            "processors": self.platform.num_processors,
            "makespan": self.makespan,
            "tasks": [
                {
                    "id": e.task_id,
                    "processor": e.processor,
                    "start": e.start,
                    "finish": e.finish,
                }
                for e in self.entries()
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule({self.graph.name!r}, {len(self._entries)}/{self.graph.num_tasks} tasks, "
            f"makespan={self.makespan:.4g})"
        )


def schedule_dag(schedule: Schedule) -> TaskGraph:
    """The task graph whose longest path is the schedule's makespan.

    The graph's edges plus one edge between consecutive tasks of each
    :meth:`~Schedule.processor_timeline`, each task weighted by its
    failure-free time on its processor; task ids, kernels and metadata are
    the graph's.  This is the disjunctive graph of the schedule (Roy &
    Sussmann 1964; Balas 1969).  When failures stretch tasks, each task
    keeps its processor and each processor its order, as runtimes execute
    a static list schedule, so the makespan is this DAG's longest path
    under the stretched weights:
    ``estimate_expected_makespan(schedule_dag(s), model, method=...)``
    applies any estimator to a schedule.

    A weight-based error model then draws a task's failure probability
    from its *processor* time, which differs from its nominal weight on a
    platform whose speeds are not 1; :func:`expected_schedule_makespan`
    uses the nominal weight, as the schedulers' error-aware priorities do.

    Raises
    ------
    SchedulingError
        If the schedule is incomplete, or a per-processor order contradicts
        the graph's precedences (the DAG would have a cycle).
    """
    if not schedule.is_complete():
        raise SchedulingError("cannot build the DAG of an incomplete schedule")
    graph, platform = schedule.graph, schedule.platform
    dag = TaskGraph(name=f"{graph.name}[schedule]")
    for task in graph.tasks():
        processor = platform.processor(schedule.entry(task.task_id).processor)
        dag.add_task_object(task.with_weight(processor.execution_time(task)))
    dag.add_edges_from(graph.edges())
    for processor in platform.processors:
        timeline = schedule.processor_timeline(processor.proc_id)
        dag.add_edges_from((a.task_id, b.task_id) for a, b in zip(timeline, timeline[1:]))
    try:
        dag.index()
    except CycleError as exc:
        raise SchedulingError(f"the per-processor order is infeasible: {exc}") from None
    return dag


class _TaskFailureProbabilities(ErrorModel):
    """Per-task failure probabilities fixed in advance, in index order."""

    def __init__(self, q: np.ndarray) -> None:
        self.q = np.asarray(q, dtype=np.float64)

    def failure_probability(self, weight: float) -> float:
        raise SchedulingError("per-task failure probabilities depend on no weight")

    def failure_probabilities(self, weights: np.ndarray) -> np.ndarray:
        if np.shape(weights) != self.q.shape:
            raise SchedulingError("one failure probability per task is needed")
        return self.q


def expected_schedule_makespan(
    schedule: Schedule,
    model: ErrorModel,
    *,
    trials: int = 1_000,
    seed: Optional[int] = None,
    max_reexecutions: Optional[int] = 1,
    reexecution_factor: float = 1.0,
) -> Tuple[float, EmpiricalDistribution]:
    """Monte Carlo estimate of a schedule's expected makespan under failures.

    Runs :class:`~repro.sim.MonteCarloEngine` on :func:`schedule_dag`: a
    failed task is re-executed at once on its processor (errors are
    detected at the end of a task and it re-runs from scratch), and later
    tasks start when their predecessors and their processor are done.
    Each task's failure probability is ``model``'s at its nominal weight.

    Parameters
    ----------
    max_reexecutions:
        ``1`` reproduces the paper's two-state abstraction (a task fails at
        most once); ``None`` re-executes until success, which needs
        ``reexecution_factor=1``.
    reexecution_factor:
        Cost of each re-execution relative to the first execution.

    Returns the mean and the empirical distribution of the sampled
    makespans.
    """
    if trials <= 0:
        raise SchedulingError("number of trials must be positive")
    if reexecution_factor < 0:
        raise SchedulingError("re-execution factor must be non-negative")
    if max_reexecutions is None and reexecution_factor != 1.0:
        raise SchedulingError(
            "re-executing until success prices every attempt at the task's "
            "time: reexecution_factor must be 1"
        )
    if max_reexecutions not in (None, 1):
        raise SchedulingError("max_reexecutions must be 1 or None")
    dag = schedule_dag(schedule)
    nominal = np.array([schedule.graph.weight(t) for t in dag.index().task_ids])
    result = MonteCarloEngine(
        dag,
        _TaskFailureProbabilities(model.failure_probabilities(nominal)),
        trials=trials,
        seed=seed,
        mode="geometric" if max_reexecutions is None else "two-state",
        reexecution_factor=1.0 + reexecution_factor,
        keep_samples=True,
    ).run()
    return result.samples.mean(), result.samples
