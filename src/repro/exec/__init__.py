"""Shared parallel-execution service.

The package-wide substrate for parallel work: a backend-agnostic
:class:`~repro.exec.service.ParallelService` executing index-ordered work
partitions with per-partition deterministic RNG streams.  Clients include
the Monte Carlo batch scheduler (:mod:`repro.sim.executors`), the
correlated estimator's per-level fold, the second-order pair sweeps and
Dodin's reduction rounds — see :mod:`repro.exec.service` for the
determinism contract they all rely on, and its fault-tolerance contract
(deterministic partition retry, soft deadlines, pool recovery, backend
degradation) layered on top.  :mod:`repro.exec.faults` provides the
declarative chaos-testing harness; :mod:`repro.exec.report` the
machine-readable execution telemetry; :mod:`repro.exec.shm` the zero-copy
shared-memory kernel plane the ``processes`` backend attaches its worker
slots to.
"""

from .faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RandomFaults,
)
from .report import AttemptFailure, Degradation, ExecutionReport
from .service import (
    EXEC_BACKENDS,
    MAX_POOL_REBUILDS,
    ON_FAILURE_POLICIES,
    ExecutionPolicy,
    ParallelService,
    partition_stream,
    resolve_exec_backend,
    resolve_workers,
)
from .shm import (
    REGISTRY,
    AttachedSegment,
    SegmentRegistry,
    SharedSegment,
    attach_segment,
    content_key,
    detach_segment,
)

__all__ = [
    "EXEC_BACKENDS",
    "FAULT_KINDS",
    "MAX_POOL_REBUILDS",
    "ON_FAILURE_POLICIES",
    "REGISTRY",
    "AttachedSegment",
    "AttemptFailure",
    "Degradation",
    "ExecutionPolicy",
    "ExecutionReport",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "ParallelService",
    "RandomFaults",
    "SegmentRegistry",
    "SharedSegment",
    "attach_segment",
    "content_key",
    "detach_segment",
    "partition_stream",
    "resolve_exec_backend",
    "resolve_workers",
]
