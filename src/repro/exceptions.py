"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch any library-originated failure with a single ``except``
clause while still being able to discriminate finer-grained error classes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "CycleError",
    "UnknownTaskError",
    "DuplicateTaskError",
    "InvalidWeightError",
    "NotSeriesParallelError",
    "EstimationError",
    "ExecutionError",
    "ExecutionTimeoutError",
    "ModelError",
    "SchedulingError",
    "ExperimentError",
    "OptionError",
    "SerializationError",
    "ServiceError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """Base class for task-graph structural errors."""


class CycleError(GraphError):
    """Raised when an operation requires an acyclic graph but a cycle exists."""

    def __init__(self, cycle=None, message=None):
        self.cycle = list(cycle) if cycle is not None else None
        if message is None:
            if self.cycle:
                message = "task graph contains a cycle: " + " -> ".join(map(str, self.cycle))
            else:
                message = "task graph contains a cycle"
        super().__init__(message)


class UnknownTaskError(GraphError, KeyError):
    """Raised when a task identifier is not present in the graph."""

    def __init__(self, task_id):
        self.task_id = task_id
        super().__init__(f"unknown task: {task_id!r}")


class DuplicateTaskError(GraphError):
    """Raised when adding a task whose identifier already exists."""

    def __init__(self, task_id):
        self.task_id = task_id
        super().__init__(f"task already exists: {task_id!r}")


class InvalidWeightError(GraphError, ValueError):
    """Raised when a task weight is negative, NaN or otherwise invalid."""


class NotSeriesParallelError(GraphError):
    """Raised when an exact series-parallel evaluation is requested on a
    graph that is not (two-terminal) series-parallel."""


class EstimationError(ReproError):
    """Raised when a makespan estimator cannot produce a result."""


class ExecutionError(EstimationError):
    """Raised when the parallel execution service cannot complete a run.

    Wraps every worker-side failure mode — repeated partition errors,
    broken worker pools, unusable backends — so callers never see raw
    :mod:`concurrent.futures` exceptions.  Carries the failing partition
    index (``None`` for backend-level failures), the number of attempts
    consumed, and the string form of every underlying cause.
    """

    def __init__(self, message=None, *, partition=None, attempts=None, causes=()):
        self.partition = partition
        self.attempts = attempts
        self.causes = tuple(str(cause) for cause in causes)
        if message is None:
            if partition is not None:
                message = (
                    f"partition {partition} failed after "
                    f"{attempts} attempt{'s' if attempts != 1 else ''}"
                )
            else:
                message = "execution backend failed"
            if self.causes:
                message += "; causes: " + "; ".join(self.causes)
        super().__init__(message)


class ExecutionTimeoutError(ExecutionError):
    """Raised when a partition repeatedly exceeds its execution deadline."""


class ModelError(ReproError, ValueError):
    """Raised when a failure/error model is mis-parameterised."""


class SchedulingError(ReproError):
    """Raised for invalid platforms, schedules or scheduling inputs."""


class ExperimentError(ReproError):
    """Raised when an experiment configuration is inconsistent."""


class SerializationError(ReproError):
    """Raised when a task graph cannot be parsed from or written to disk."""


class ServiceError(ReproError):
    """Raised for malformed estimation-service requests or transport faults."""


class OptionError(ExperimentError, EstimationError, GraphError):
    """Raised when a ``REPRO_*`` setting, or the argument or field standing
    in for it, has an invalid value (see :mod:`repro.options`).

    It derives from the error class of every layer that takes settings, so
    each layer's callers keep catching their own error class.
    """
