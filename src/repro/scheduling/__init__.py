"""List scheduling under silent errors: platforms, CP scheduling, HEFT, and
the schedule DAG that the estimators and the Monte Carlo engine evaluate."""

from .platform import Platform, Processor
from .schedule import Schedule, ScheduledTask, expected_schedule_makespan, schedule_dag
from .priorities import (
    deterministic_bottom_levels,
    expected_bottom_levels_first_order,
    expected_bottom_levels_sculli,
    upward_ranks,
)
from .list_scheduling import PriorityScheme, cp_schedule
from .heft import heft_schedule

__all__ = [
    "Platform",
    "Processor",
    "Schedule",
    "ScheduledTask",
    "deterministic_bottom_levels",
    "expected_bottom_levels_first_order",
    "expected_bottom_levels_sculli",
    "upward_ranks",
    "cp_schedule",
    "PriorityScheme",
    "heft_schedule",
    "schedule_dag",
    "expected_schedule_makespan",
]
