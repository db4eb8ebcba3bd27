"""Discrete-event execution of a schedule under injected silent errors.

The per-trial event loop that ``repro.scheduling`` ran before a schedule
became a task graph (:func:`repro.scheduling.schedule_dag`), kept only as
the differential reference of ``tests/test_scheduling.py``: the Monte
Carlo engine on the schedule DAG must agree with it within statistical
error.

Each task runs on its assigned processor, its result is verified, and on
failure the task is re-executed immediately on the same processor (the
paper's model: detection happens only at the end of the task,
re-execution is from scratch).  The simulator keeps the *processor
assignment and the task order per processor* of the input schedule, but
recomputes start times dynamically as failures delay tasks — this is how
static list schedules are executed by runtime systems when task durations
deviate from their estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.task import TaskId
from repro.exceptions import SchedulingError
from repro.failures.models import ErrorModel
from repro.scheduling.schedule import Schedule

__all__ = ["ExecutionTrace", "execute_schedule"]


@dataclass
class ExecutionTrace:
    """Result of one simulated execution of a schedule."""

    makespan: float
    task_finish: Dict[TaskId, float]
    executions: Dict[TaskId, int]
    total_failures: int

    @property
    def failed_tasks(self) -> List[TaskId]:
        """Tasks that required at least one re-execution."""
        return [tid for tid, n in self.executions.items() if n > 1]


def execute_schedule(
    schedule: Schedule,
    model: ErrorModel,
    rng: np.random.Generator,
    *,
    max_reexecutions: Optional[int] = 1,
    reexecution_factor: float = 1.0,
) -> ExecutionTrace:
    """Execute a schedule once with randomly injected silent errors.

    Parameters
    ----------
    schedule:
        The static schedule (processor assignment + per-processor order).
    model:
        Error model giving the per-attempt failure probability.
    rng:
        Random generator.
    max_reexecutions:
        ``1`` reproduces the paper's two-state abstraction (a task fails at
        most once); ``None`` re-executes until success.
    reexecution_factor:
        Cost multiplier of each additional execution relative to the first
        one (1 = identical re-runs).

    Returns
    -------
    ExecutionTrace
    """
    if not schedule.is_complete():
        raise SchedulingError("cannot execute an incomplete schedule")
    graph = schedule.graph
    platform = schedule.platform

    # Per-processor task order from the static schedule.
    per_processor: Dict[int, List[TaskId]] = {
        p.proc_id: [e.task_id for e in schedule.processor_timeline(p.proc_id)]
        for p in platform.processors
    }
    position: Dict[int, int] = {p.proc_id: 0 for p in platform.processors}
    processor_free: Dict[int, float] = {p.proc_id: 0.0 for p in platform.processors}

    finish: Dict[TaskId, float] = {}
    executions: Dict[TaskId, int] = {}
    total_failures = 0
    remaining = graph.num_tasks

    while remaining > 0:
        progressed = False
        for proc in platform.processors:
            pid = proc.proc_id
            pos = position[pid]
            if pos >= len(per_processor[pid]):
                continue
            tid = per_processor[pid][pos]
            preds = graph.predecessors(tid)
            if any(p not in finish for p in preds):
                continue
            task = graph.task(tid)
            ready = max((finish[p] for p in preds), default=0.0)
            start = max(ready, processor_free[pid])
            duration = proc.execution_time(task)
            q = model.failure_probability(task.weight)
            attempts = 1
            total = duration
            while rng.random() < q:
                if max_reexecutions is not None and attempts > max_reexecutions:
                    break
                total += duration * reexecution_factor
                attempts += 1
                total_failures += 1
                if max_reexecutions is not None and attempts > max_reexecutions:
                    break
            finish[tid] = start + total
            executions[tid] = attempts
            processor_free[pid] = finish[tid]
            position[pid] = pos + 1
            remaining -= 1
            progressed = True
        if not progressed:
            raise SchedulingError(
                "execution deadlocked: the per-processor order is infeasible"
            )

    return ExecutionTrace(
        makespan=max(finish.values()),
        task_finish=finish,
        executions=executions,
        total_failures=total_failures,
    )

