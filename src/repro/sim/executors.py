"""Monte Carlo batch scheduling on the shared parallel-execution service.

:class:`repro.sim.MonteCarloEngine` owns the *what* of a simulation — the
sampling pipeline, the wavefront kernel, the statistics — while
:func:`run_batches` here maps the engine's deterministic batch plan onto
the backend-agnostic :class:`~repro.exec.ParallelService`.  The batch
scheduler is one *client* of that service (the correlated fold, the
second-order sweeps and Dodin's reduction rounds are others); what remains
in this module is the mapping from batches to service partitions plus the
process backend's shared-memory result plumbing.  Two interchangeable
backends:

``serial``
    Evaluates batches one after the other on the engine's single
    evaluation slot: the no-pool path, and the last step of the service's
    degradation chain.

``processes``
    The service's process pool (the process's warm pool, see
    :mod:`repro.exec.service`): every worker
    process builds one evaluation slot from the engine's sampling plan (the
    per-task vectors the parent already computed) over the parent's level
    schedule, attached from the :data:`~repro.exec.shm.REGISTRY`, on its
    first batch of the run, and writes batch makespans straight into a
    :class:`~repro.exec.shm.SharedSegment` result buffer — no pickling of
    sample arrays on the hot path.  Neither the graph nor the error model
    crosses to the workers.

Determinism contract
--------------------

Every backend derives the RNG stream **per batch**, not per worker: batch
``b`` always draws from ``SeedSequence(entropy=root, spawn_key=(b,))``
where ``root`` is the engine's seed entropy (the service's
:func:`~repro.exec.partition_stream` with the batch index as partition
index).  Results are folded into the statistics in batch-index order, and
early stopping cuts the fold at the same batch regardless of scheduling.
Consequently ``serial`` and ``processes`` produce *identical* merged
estimates for a fixed seed at **any** worker count — the backend
and the worker count are purely throughput knobs — and a retried batch
replays its stream by construction.  The batch plan is part of that
contract: a different ``batch_size`` gives different per-batch streams,
hence different seeded results.

:func:`run_batches` calls ``consume(makespans)`` once per batch in
batch-index order; ``consume`` returns ``True`` to request an early stop.
Later backends (free-threaded builds, GPU queues) only need to honour that
contract to slot in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, TYPE_CHECKING

import numpy as np

from ..exec import ParallelService
from ..exec.shm import (
    REGISTRY,
    SegmentHandle,
    SharedSegment,
    attach_schedule,
    attach_segment,
    detach_segment,
    publish_schedule,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from .engine import MonteCarloEngine, _SamplingPlan

__all__ = ["BACKENDS", "run_batches"]

#: The available executor backends, in documentation order (the engine's
#: subset of :data:`repro.exec.EXEC_BACKENDS`).
BACKENDS = ("serial", "processes")

#: ``consume(makespans) -> stop?`` — the per-batch folding callback.
Consumer = Callable[[np.ndarray], bool]


def run_batches(engine: "MonteCarloEngine", consume: Consumer) -> None:
    """Evaluate every batch of the engine's plan, folding in batch order.

    ``consume`` is called exactly once per evaluated batch, in batch-index
    order, and no new batch is scheduled once it returns ``True``.  The
    service's accumulating report is published on the engine
    (``last_execution_report``) so the result/details layers can surface
    what the execution layer had to do.
    """
    plan = engine._batch_plan()
    with ParallelService(
        workers=engine.workers,
        backend=engine.backend,
        retries=engine.exec_retries,
        timeout=engine.exec_timeout,
        on_failure=engine.exec_on_failure,
    ) as service:
        engine.last_execution_report = service.report
        if engine.backend == "processes":
            _run_processes(engine, plan, service, consume)
        else:
            service.run(
                _evaluate,
                plan,
                slot=engine._slot,
                entropy=engine.seed_entropy,
                consume=lambda index, makespans: consume(makespans),
            )


def _evaluate(batch: int, slot, rng: np.random.Generator) -> np.ndarray:
    """In-process partition function: the batch's stream arrives each call."""
    return slot.evaluate(batch, rng)


# ----------------------------------------------------------------------
# Process backend
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _ProcessSpec:
    """Everything a worker process needs to build its evaluation slot.

    The engine's sampling plan with its schedule left out (mode, dtype,
    batch capacity, the parent's *resolved* kernel backend — so a fleet
    of processes runs the same fused or reference kernels whatever their
    environments — and the small per-task vectors), plus the handles of
    the two shared-memory segments: the parent's compiled level schedule
    and the result buffer.  No graph and no error model travel.
    """

    plan: "_SamplingPlan"
    schedule: SegmentHandle
    out: SegmentHandle

    def __call__(self) -> "_ProcessWorkerState":
        """Build one worker process's slot (the service's slot factory)."""
        return _ProcessWorkerState(self)


class _ProcessWorkerState:
    """Per-process slot: one evaluation slot plus the shared result buffer.

    Both are set up once per worker and run, on the worker's first batch:
    the slot's kernel sweeps the attached schedule, so nothing is rebuilt
    or recompiled, and the result buffer is attached and mapped once —
    batch evaluations then write into the cached view with no per-batch
    attach syscalls.  The worker closes the slot when the run's service
    closes.
    """

    def __init__(self, spec: _ProcessSpec) -> None:
        from .engine import _BatchWorker

        self.slot = _BatchWorker(
            replace(spec.plan, schedule=attach_schedule(spec.schedule))
        )
        self._attached = (spec.schedule[0], spec.out[0])
        self.out = attach_segment(*spec.out).arrays["makespans"]

    def close(self) -> None:
        """Release the schedule and result-buffer mappings (never unlinks:
        the parent owns the segments).  Called by the worker when the run's
        service closes, and by the service for parent-side slots it built
        through the factory (the degradation path)."""
        self.slot = self.out = None
        for name in self._attached:
            detach_segment(name)


def _process_eval_batch(item, state: _ProcessWorkerState, rng) -> int:
    """Evaluate one batch and write its makespans into the shared buffer.

    The service derives ``rng`` from the partition index, which *is* the
    batch index — the same stream the serial backend hands its slot.
    """
    batch, offset = item
    makespans = state.slot.evaluate(batch, rng)
    state.out[offset : offset + batch] = makespans
    return offset


def _run_processes(
    engine: "MonteCarloEngine",
    plan: List[int],
    service: ParallelService,
    consume: Consumer,
) -> None:
    """Process pool with a shared-memory result buffer.

    Every worker process builds its evaluation slot on its first batch of
    the run, over the published schedule segment, and then evaluates
    batches of the plan, writing the resulting makespans directly into one
    shared ``float64`` buffer sized for the whole run (8 bytes/trial — 8 MB
    for a million trials).  The service folds finished batches into the
    statistics in batch-index order as they land.
    """
    offsets: List[int] = [0]
    for batch in plan:
        offsets.append(offsets[-1] + batch)
    total = offsets[-1]

    # Repeated runs over the same DAG re-use one warm schedule segment,
    # and worker start-up attaches it instead of recompiling.
    schedule_key, schedule_segment = publish_schedule(engine.index, "up")
    out = None
    try:
        out = SharedSegment.create({"makespans": np.zeros(total)})
        view = out.arrays["makespans"]
        spec = _ProcessSpec(
            plan=replace(engine._plan, schedule=None),
            schedule=schedule_segment.handle,
            out=out.handle,
        )
        service.run(
            _process_eval_batch,
            [(batch, offsets[b]) for b, batch in enumerate(plan)],
            slot_factory=spec,
            entropy=engine.seed_entropy,
            consume=lambda b, _offset: consume(
                view[offsets[b] : offsets[b + 1]].copy()
            ),
        )
    finally:
        if out is not None:
            out.destroy()
        REGISTRY.release(schedule_key)
