"""Machine-readable account of one execution-service lifetime.

The :class:`ExecutionReport` is the fault-tolerance layer's observable
surface: every :meth:`~repro.exec.ParallelService.run` folds its attempt
counts, retries, injected faults, soft-deadline misses, pool rebuilds and
backend degradations into the owning service's report, and the estimator
clients expose ``report.as_dict()`` in their result ``details`` so
experiment archives capture exactly what the execution layer had to do to
produce a (bit-identical) result.

The report is *descriptive*, never *normative*: by the determinism
contract of :mod:`repro.exec.service`, two runs that differ only in their
reports — one clean, one that retried half its partitions — fold the same
values in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["AttemptFailure", "Degradation", "ExecutionReport"]

#: Failure records kept verbatim per report; later failures only count.
MAX_FAILURE_RECORDS = 64


@dataclass(frozen=True)
class AttemptFailure:
    """One failed attempt of one partition."""

    partition: int
    attempt: int
    kind: str  # "error" | "timeout" | "worker-lost"
    cause: str

    def as_dict(self) -> dict:
        return {
            "partition": self.partition,
            "attempt": self.attempt,
            "kind": self.kind,
            "cause": self.cause,
        }


@dataclass(frozen=True)
class Degradation:
    """One backend fallback step (``processes`` -> ``serial``)."""

    from_backend: str
    to_backend: str
    reason: str

    def as_dict(self) -> dict:
        return {
            "from": self.from_backend,
            "to": self.to_backend,
            "reason": self.reason,
        }


@dataclass
class ExecutionReport:
    """Aggregated execution telemetry of one :class:`ParallelService`.

    A service is reused across ``run()`` calls (the correlated fold runs
    twice per level on one service), so the report accumulates over the
    service lifetime; ``runs`` counts the folds it covers.
    """

    backend: str
    workers: int
    effective_backend: Optional[str] = None
    runs: int = 0
    partitions: int = 0
    attempts: int = 0
    retries: int = 0
    failure_count: int = 0
    failures: List[AttemptFailure] = field(default_factory=list)
    timeouts: int = 0
    deadline_misses: int = 0
    pool_rebuilds: int = 0
    faults_injected: int = 0
    degradations: List[Degradation] = field(default_factory=list)
    quarantined: List[int] = field(default_factory=list)
    partition_seconds: float = 0.0
    max_partition_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.effective_backend is None:
            self.effective_backend = self.backend

    # -- recording (called by the service run loop) --------------------
    def record_attempt(self, attempt: int) -> None:
        self.attempts += 1
        if attempt > 0:
            self.retries += 1

    def record_failure(self, partition: int, attempt: int, kind: str, cause) -> None:
        self.failure_count += 1
        if kind == "timeout":
            self.timeouts += 1
        if len(self.failures) < MAX_FAILURE_RECORDS:
            self.failures.append(
                AttemptFailure(
                    partition=partition,
                    attempt=attempt,
                    kind=kind,
                    cause=repr(cause) if isinstance(cause, BaseException) else str(cause),
                )
            )

    def record_success(self, seconds: float) -> None:
        self.partitions += 1
        self.partition_seconds += seconds
        if seconds > self.max_partition_seconds:
            self.max_partition_seconds = seconds

    def record_degradation(self, from_backend: str, to_backend: str, reason: str) -> None:
        self.degradations.append(Degradation(from_backend, to_backend, reason))
        self.effective_backend = to_backend

    # -- reading --------------------------------------------------------
    @property
    def clean(self) -> bool:
        """True when no fault-tolerance machinery had to engage."""
        return (
            self.failure_count == 0
            and self.retries == 0
            and self.pool_rebuilds == 0
            and not self.degradations
            and not self.quarantined
        )

    @property
    def mean_partition_seconds(self) -> float:
        return self.partition_seconds / self.partitions if self.partitions else 0.0

    def as_dict(self) -> dict:
        """JSON-safe summary (the shape archived by experiment drivers)."""
        return {
            "backend": self.backend,
            "effective_backend": self.effective_backend,
            "workers": self.workers,
            "runs": self.runs,
            "partitions": self.partitions,
            "attempts": self.attempts,
            "retries": self.retries,
            "failures": self.failure_count,
            "failure_records": [f.as_dict() for f in self.failures],
            "timeouts": self.timeouts,
            "deadline_misses": self.deadline_misses,
            "pool_rebuilds": self.pool_rebuilds,
            "faults_injected": self.faults_injected,
            "degradations": [d.as_dict() for d in self.degradations],
            "quarantined": list(self.quarantined),
            "partition_seconds": round(self.partition_seconds, 6),
            "max_partition_seconds": round(self.max_partition_seconds, 6),
            "clean": self.clean,
        }

    def summary(self) -> str:
        """One-line human-readable digest."""
        bits = [
            f"{self.partitions} partitions in {self.attempts} attempts "
            f"on {self.effective_backend}"
        ]
        if self.retries:
            bits.append(f"{self.retries} retries")
        if self.timeouts:
            bits.append(f"{self.timeouts} timeouts")
        if self.pool_rebuilds:
            bits.append(f"{self.pool_rebuilds} pool rebuilds")
        if self.degradations:
            chain = " -> ".join(
                [self.degradations[0].from_backend]
                + [d.to_backend for d in self.degradations]
            )
            bits.append(f"degraded {chain}")
        if self.faults_injected:
            bits.append(f"{self.faults_injected} injected faults")
        return ", ".join(bits)
