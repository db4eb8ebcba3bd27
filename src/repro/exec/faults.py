"""Declarative, seeded fault injection for the execution service.

Chaos testing the fault-tolerance layer requires faults that are (a)
*declarative* — a plan names exactly which partition/attempt misbehaves,
so a test can assert the recovery path it expects — and (b) *seeded* — a
random plan decides per partition index from a ``SeedSequence`` keyed
stream, so every backend (serial, threads, processes) injects the *same*
faults and the bit-identity contract stays checkable under chaos.

A :class:`FaultPlan` is installed through the service's partition-wrapper
seam: the service consults the plan immediately before invoking the
partition function — on the worker thread in-process, inside the worker
process on the ``processes`` backend — so injected faults exercise the
real dispatch, retry and pool-recovery machinery rather than a mock.

Fault kinds
-----------

``raise``
    The attempt raises :class:`InjectedFault` before the partition
    function runs.
``hang``
    The attempt sleeps ``duration`` seconds, then runs normally — late
    work that a configured soft deadline flags (in-process) or preempts
    (process workers are killed and the partition re-dispatched).
``kill``
    A process worker SIGKILLs itself, breaking the pool (exercising
    detection, pool rebuild and partition re-dispatch).  In-process
    backends cannot kill the interpreter, so ``kill`` downgrades to
    ``raise`` there.

Plan grammar (``REPRO_EXEC_FAULTS`` / ``FaultPlan.parse``)
----------------------------------------------------------

Entries separated by ``;``::

    raise@3            # partition 3, attempt 0
    raise@3#1          # partition 3, attempt 1
    hang@2:0.2         # partition 2 sleeps 0.2 s at attempt 0
    kill@5             # partition 5's worker process dies at attempt 0
    random(p=0.05,seed=42,kinds=raise+kill)   # seeded Bernoulli faults

Random faults apply at attempt 0 only, so any positive retry budget
clears them deterministically.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..exceptions import EstimationError
from ..options import resolve

__all__ = [
    "FAULT_KINDS",
    "DEFAULT_HANG_SECONDS",
    "InjectedFault",
    "FaultSpec",
    "RandomFaults",
    "FaultPlan",
]

FAULT_KINDS = ("raise", "hang", "kill")

#: Default sleep of a ``hang`` fault — long enough to trip sub-50 ms test
#: deadlines, short enough to keep chaos suites fast.
DEFAULT_HANG_SECONDS = 0.05

#: Spawn-key namespace of the random plan's per-partition decision streams
#: (far outside partition-stream and backoff-jitter key ranges).
_FAULT_SPAWN_KEY = 2**50


class InjectedFault(RuntimeError):
    """A deliberately injected worker failure (not a :class:`ReproError`)."""


@dataclass(frozen=True)
class FaultSpec:
    """One declared fault: misbehave on ``(partition, attempt)``."""

    kind: str
    partition: int
    attempt: int = 0
    duration: float = DEFAULT_HANG_SECONDS

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise EstimationError(
                f"unknown fault kind {self.kind!r}; choose one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.partition < 0:
            raise EstimationError("fault partition index must be >= 0")
        if self.attempt < 0:
            raise EstimationError("fault attempt index must be >= 0")
        if self.duration < 0:
            raise EstimationError("hang duration must be >= 0")


@dataclass(frozen=True)
class RandomFaults:
    """Seeded Bernoulli faults: partition ``i`` faults at attempt 0 with
    probability ``probability``, decided by a stream keyed on ``i`` alone —
    identical on every backend and at every worker count."""

    probability: float
    seed: int = 0
    kinds: Tuple[str, ...] = ("raise",)

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0):
            raise EstimationError("fault probability must be in [0, 1]")
        if not self.kinds:
            raise EstimationError("random faults need at least one kind")
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise EstimationError(
                    f"unknown fault kind {kind!r}; choose one of "
                    f"{', '.join(FAULT_KINDS)}"
                )

    def lookup(self, partition: int, attempt: int) -> Optional[FaultSpec]:
        if attempt != 0 or self.probability <= 0.0:
            return None
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=self.seed, spawn_key=(_FAULT_SPAWN_KEY, int(partition))
            )
        )
        if rng.random() >= self.probability:
            return None
        kind = self.kinds[int(rng.integers(len(self.kinds)))]
        return FaultSpec(kind=kind, partition=int(partition))


class FaultPlan:
    """A set of declared and/or random faults.  Picklable (it travels to
    process workers) and safe to share across runs (stateless lookups)."""

    def __init__(
        self,
        specs: Sequence[FaultSpec] = (),
        *,
        random: Optional[RandomFaults] = None,
    ) -> None:
        self.specs = tuple(specs)
        self.random = random
        self._table = {(s.partition, s.attempt): s for s in self.specs}

    def __bool__(self) -> bool:
        return bool(self._table) or self.random is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(specs={self.specs!r}, random={self.random!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FaultPlan)
            and self.specs == other.specs
            and self.random == other.random
        )

    def __reduce__(self):
        return (_rebuild_plan, (self.specs, self.random))

    # ------------------------------------------------------------------
    def lookup(self, partition: int, attempt: int) -> Optional[FaultSpec]:
        """The fault scheduled for ``(partition, attempt)``, if any."""
        spec = self._table.get((int(partition), int(attempt)))
        if spec is not None:
            return spec
        if self.random is not None:
            return self.random.lookup(partition, attempt)
        return None

    def apply(self, partition: int, attempt: int, *, in_child: bool = False) -> None:
        """Misbehave as planned for this attempt (called on the worker).

        ``hang`` sleeps then returns (the partition function still runs);
        ``raise`` raises :class:`InjectedFault`; ``kill`` SIGKILLs the
        current process when ``in_child`` (a process-pool worker) and
        downgrades to ``raise`` otherwise.
        """
        spec = self.lookup(partition, attempt)
        if spec is None:
            return
        if spec.kind == "hang":
            time.sleep(spec.duration)
            return
        if spec.kind == "kill" and in_child:
            os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))
            time.sleep(60)  # pragma: no cover - the signal is fatal
        raise InjectedFault(
            f"injected {spec.kind} fault at partition {partition} "
            f"attempt {attempt}"
        )

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the plan grammar (see the module docstring)."""
        specs = []
        random_faults = None
        for raw in str(text).split(";"):
            entry = raw.strip().lower()
            if not entry:
                continue
            if entry.startswith("random"):
                if random_faults is not None:
                    raise EstimationError(
                        f"fault plan declares random faults twice: {text!r}"
                    )
                random_faults = _parse_random(entry, text)
                continue
            specs.append(_parse_spec(entry, text))
        return cls(specs, random=random_faults)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The ``REPRO_EXEC_FAULTS`` plan, or ``None`` when unset/empty."""
        text = resolve("EXEC_FAULTS")
        plan = cls.parse(text) if text is not None else None
        return plan if plan else None


def _rebuild_plan(specs, random):
    return FaultPlan(specs, random=random)


def _parse_spec(entry: str, text: str) -> FaultSpec:
    """One ``kind@partition[#attempt][:duration]`` entry."""
    kind, sep, rest = entry.partition("@")
    if not sep or not rest:
        raise EstimationError(
            f"malformed fault entry {entry!r} in plan {text!r} "
            f"(expected kind@partition[#attempt][:duration])"
        )
    duration = DEFAULT_HANG_SECONDS
    if ":" in rest:
        rest, _, dur_text = rest.partition(":")
        duration = _number(dur_text, "duration", entry, text)
    attempt = 0
    if "#" in rest:
        rest, _, attempt_text = rest.partition("#")
        attempt = int(_number(attempt_text, "attempt", entry, text))
    partition = int(_number(rest, "partition", entry, text))
    return FaultSpec(kind=kind, partition=partition, attempt=attempt, duration=duration)


def _parse_random(entry: str, text: str) -> RandomFaults:
    """A ``random(p=...,seed=...,kinds=a+b)`` entry."""
    body = entry[len("random"):].strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    elif body:
        raise EstimationError(
            f"malformed random-fault entry {entry!r} in plan {text!r}"
        )
    probability, seed, kinds = 0.0, 0, ("raise",)
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise EstimationError(
                f"malformed random-fault option {item!r} in plan {text!r}"
            )
        key = key.strip()
        value = value.strip()
        if key in ("p", "probability", "rate"):
            probability = _number(value, key, entry, text)
        elif key == "seed":
            seed = int(_number(value, key, entry, text))
        elif key == "kinds":
            kinds = tuple(k.strip() for k in value.split("+") if k.strip())
        else:
            raise EstimationError(
                f"unknown random-fault option {key!r} in plan {text!r}"
            )
    return RandomFaults(probability=probability, seed=seed, kinds=kinds)


def _number(value: str, what: str, entry: str, text: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise EstimationError(
            f"invalid {what} {value!r} in fault entry {entry!r} of plan {text!r}"
        ) from None
