"""Backend-agnostic parallel execution of index-ordered work partitions.

Every parallel hot path of the package — Monte Carlo batches, the
correlated estimator's per-level fold, the second-order pair sweeps,
Dodin's reduction rounds — boils down to the same shape of work: a client
splits a computation into an *index-ordered list of partitions*, each
partition is evaluated by a pure function of ``(partition, slot, rng)``,
and the results are folded (or collected) strictly in partition-index
order.  :class:`ParallelService` owns the *how* of that execution; clients
own the *what* (the partitioning, the per-partition function, the fold).

Backends
--------

``serial``
    Evaluates partitions one after the other on the calling thread.  The
    reference backend: a client whose partition function is deterministic
    gets bit-identical results from every other backend.

``threads``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  With per-worker
    ``slots`` (mutable evaluation state such as kernels and buffers) at
    most one partition is in flight per slot, so a slot's buffers are
    reused without synchronisation; without slots every partition is
    submitted up front and the pool load-balances freely.
    Suits NumPy-heavy partition functions, which release the GIL.

``processes``
    A :class:`~concurrent.futures.ProcessPoolExecutor`.  The partition
    function and partitions must be picklable; per-process slots are built
    once by a picklable ``slot_factory`` in the pool initializer.

Determinism contract
--------------------

The result of a run is a pure function of the partition list — never of
the backend, the worker count, or the scheduling order:

* the partition function must not communicate between partitions (writes
  to disjoint output regions are fine; that is what the fold order
  guarantees nothing about);
* RNG streams are derived per *partition*, not per worker: partition ``i``
  always draws from ``SeedSequence(entropy, spawn_key=(i,))``;
* results are consumed in partition-index order, and early stopping cuts
  the fold at the same partition regardless of scheduling.

Consequently ``threads`` and ``processes`` produce *identical* outputs for
a fixed partition list at **any** worker count — the worker count is
purely a throughput knob — and both match ``serial`` whenever the client
passes per-partition streams (or none at all).

Fault-tolerance contract
------------------------

The determinism contract is what makes fault tolerance cheap: because
partition ``i``'s RNG stream is keyed by its *index* (never by the worker
that happens to run it) and the partition function is pure, a failed
attempt can simply be re-dispatched — the replay draws the same stream and
produces the same value, so a run that retried half its partitions folds
results bit-identical to a fault-free run, including the early-stop point.
Concretely (:class:`ExecutionPolicy`):

* **Retries** (``retries=`` / ``REPRO_EXEC_RETRIES``): a partition whose
  attempt raises is re-dispatched up to ``retries`` more times, with
  exponential backoff whose jitter is deterministically seeded from
  ``(entropy, partition, attempt)``.  A partition that exhausts its budget
  is quarantined: the run raises a structured
  :class:`~repro.exceptions.ExecutionError` naming the partition, the
  attempts and every underlying cause — raw worker exceptions (including
  :class:`~concurrent.futures.process.BrokenProcessPool`) never leak.
  The error surfaces at the partition's *fold position*: failures past an
  early-stop point cannot fail the run on any backend.
* **Soft deadlines** (``timeout=`` / ``REPRO_EXEC_TIMEOUT``): per-partition
  wall-clock deadlines.  In-process backends cannot preempt a running
  partition, so a late attempt is *recorded* (``deadline_misses``) and its
  (deterministic) result still folds; the ``processes`` backend *enforces*
  the deadline — overdue workers are killed, the pool is rebuilt through
  the slot-factory protocol, and the partition is re-dispatched as a
  ``timeout`` failure (raising
  :class:`~repro.exceptions.ExecutionTimeoutError` once the budget is
  spent).
* **Worker-loss recovery**: a dead worker process (crash, OOM kill,
  injected ``kill`` fault) breaks the pool; the service rebuilds it (the
  slot factory re-runs in the fresh workers) and re-dispatches every
  in-flight partition, charging each one attempt.  Pool rebuilds are
  bounded (:data:`MAX_POOL_REBUILDS`) so a crash loop cannot spin forever.
* **Degradation** (``on_failure="degrade"`` / ``REPRO_EXEC_ON_FAILURE``):
  opt-in last resort when a *backend* (not a partition) is unusable — the
  pool cannot be built, or the rebuild budget is spent.  The run falls
  back ``processes`` → ``threads`` → ``serial``, resuming from the first
  unfolded partition: already-folded results are kept, and per-partition
  streams make the merged outcome bit-identical to a run that used the
  degraded backend from the start.  Requires the ``slot_factory`` (if
  any) to be callable in the parent process.  The default
  (``on_failure="raise"``) wraps the backend failure in
  :class:`~repro.exceptions.ExecutionError` instead.

Everything the layer did — attempts, retries, timeouts, rebuilds,
degradations, injected faults — is accounted in the service's
:class:`~repro.exec.report.ExecutionReport` (``service.report``), which
clients surface in their result details.  Declarative chaos plans
(:class:`~repro.exec.faults.FaultPlan`, ``REPRO_EXEC_FAULTS``) inject
faults through the same dispatch seam the real failures take.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import threading
import time
import weakref
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from multiprocessing import context as mp_context
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import EstimationError, ExecutionError, ExecutionTimeoutError
from ..options import KNOBS, resolve
from .faults import FaultPlan
from .report import ExecutionReport

__all__ = [
    "EXEC_BACKENDS",
    "ON_FAILURE_POLICIES",
    "MAX_POOL_REBUILDS",
    "ExecutionPolicy",
    "ParallelService",
    "partition_stream",
    "resolve_exec_backend",
    "resolve_workers",
]

#: The available execution backends, in documentation order.
EXEC_BACKENDS = KNOBS["EXEC_BACKEND"].choices

#: Reactions to an unusable backend: wrap-and-raise, or fall back along
#: the ``processes`` -> ``threads`` -> ``serial`` chain.
ON_FAILURE_POLICIES = KNOBS["EXEC_ON_FAILURE"].choices

#: Worker-pool rebuilds allowed per run before the backend counts as
#: unusable (bounding crash loops; each break also charges the in-flight
#: partitions one attempt, so the retry budget bounds them independently).
MAX_POOL_REBUILDS = 3

#: Next backend along the degradation chain.
_DEGRADE_NEXT = {"processes": "threads", "threads": "serial"}

#: Spawn-key namespace of the deterministic backoff jitter streams (far
#: outside the partition-stream key range and the fault-plan namespace).
_BACKOFF_SPAWN_KEY = 2**52

#: Ceiling of one backoff delay in seconds.
_BACKOFF_CAP = 2.0

#: Default base backoff delay (seconds) between retry attempts.
DEFAULT_BACKOFF = 0.02

#: Scheduling slack added to a soft deadline before the ``processes``
#: backend preempts (absorbs submit-to-start queueing in the pool).
_TIMEOUT_GRACE = 0.05

#: ``consume(index, result) -> stop?`` — the index-ordered folding callback.
Consumer = Callable[[int, object], bool]

#: Sentinel distinguishing "no faults" from "resolve REPRO_EXEC_FAULTS".
_UNSET = object()


def partition_stream(entropy, index: int) -> np.random.Generator:
    """The deterministic RNG stream of one partition.

    Equivalent to ``SeedSequence(entropy).spawn(B)[index]`` for any
    ``B > index``, but O(1): children of a spawn differ only by their
    ``spawn_key``.  Every backend — in-process or not — derives partition
    ``i``'s stream this way, which is what makes randomised results
    independent of the worker count and of the backend choice — and what
    makes a *retried* partition replay the exact stream of its failed
    attempt.
    """
    root = np.random.SeedSequence(entropy=entropy, spawn_key=(int(index),))
    return np.random.default_rng(root)


def resolve_exec_backend(name: Optional[str], workers: int) -> str:
    """Resolve (and validate) an execution-backend name.

    ``None`` keeps the conventional behaviour: one worker means the serial
    reference path, several workers mean the thread pool.
    """
    if name is None:
        return "serial" if workers == 1 else "threads"
    resolved = KNOBS["EXEC_BACKEND"].parse(name, "execution backend")
    if resolved == "serial" and workers != 1:
        raise EstimationError(
            "the serial backend evaluates on exactly one worker; "
            "use backend='threads' or 'processes' for workers > 1"
        )
    return resolved


def resolve_workers(workers: Optional[int] = None) -> int:
    """An estimator's worker count: ``workers``, then ``REPRO_EST_WORKERS``, then 1."""
    return resolve("EST_WORKERS", workers, 1)


# ----------------------------------------------------------------------
# Execution policy (retries, deadlines, degradation)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionPolicy:
    """Fault-tolerance knobs of one :class:`ParallelService`.

    Parameters
    ----------
    retries:
        Re-dispatches allowed per partition beyond the first attempt
        (default 0: fail fast, the historical behaviour).
    timeout:
        Per-partition soft deadline in seconds (``None``: no deadline).
        Advisory on in-process backends, enforced by worker preemption on
        ``processes``.
    on_failure:
        ``"raise"`` (wrap backend failures in
        :class:`~repro.exceptions.ExecutionError`) or ``"degrade"`` (fall
        back ``processes`` -> ``threads`` -> ``serial``).
    backoff:
        Base delay in seconds of the exponential retry backoff; attempt
        ``a`` waits ``min(backoff * 2**(a-1), cap)`` scaled by a
        deterministically seeded jitter in ``[0.5, 1.0]``.  ``0`` disables
        the wait (used by tests).
    """

    retries: int = 0
    timeout: Optional[float] = None
    on_failure: str = "raise"
    backoff: float = DEFAULT_BACKOFF

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise EstimationError("execution retries must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise EstimationError("execution timeout must be positive")
        if self.on_failure not in ON_FAILURE_POLICIES:
            raise EstimationError(
                f"unknown on_failure policy {self.on_failure!r}; choose one "
                f"of {', '.join(ON_FAILURE_POLICIES)}"
            )
        if self.backoff < 0:
            raise EstimationError("execution backoff must be >= 0")

    @property
    def attempts(self) -> int:
        """Total attempts allowed per partition."""
        return self.retries + 1

    @classmethod
    def resolve(
        cls,
        retries: Optional[int] = None,
        timeout: Optional[float] = None,
        on_failure: Optional[str] = None,
        backoff: Optional[float] = None,
    ) -> "ExecutionPolicy":
        """Resolve knobs: explicit argument, then ``REPRO_EXEC_*``, then
        the fail-fast defaults."""
        return cls(
            retries=resolve("EXEC_RETRIES", retries, 0),
            timeout=resolve("EXEC_TIMEOUT", timeout),
            on_failure=resolve("EXEC_ON_FAILURE", on_failure, "raise"),
            backoff=resolve("EXEC_BACKOFF", backoff, DEFAULT_BACKOFF),
        )

    def backoff_delay(self, entropy, index: int, attempt: int) -> float:
        """Deterministic jittered delay before retry ``attempt`` (>= 1)."""
        if self.backoff <= 0 or attempt <= 0:
            return 0.0
        base = min(self.backoff * (2.0 ** (attempt - 1)), _BACKOFF_CAP)
        seq = np.random.SeedSequence(
            entropy=0 if entropy is None else entropy,
            spawn_key=(_BACKOFF_SPAWN_KEY, int(index), int(attempt)),
        )
        jitter = 0.5 + 0.5 * float(np.random.default_rng(seq).random())
        return base * jitter


# ----------------------------------------------------------------------
# Process-pool worker plumbing (module level: must be picklable)
# ----------------------------------------------------------------------

_PROCESS_SLOT: Optional[object] = None


def _process_pool_init(slot_factory: Optional[Callable[[], object]]) -> None:
    global _PROCESS_SLOT
    # A forked worker starts with its collector paused (see
    # _FrozenHeapForkProcess): freeze the inherited heap before resuming.
    gc.freeze()
    gc.enable()
    _PROCESS_SLOT = slot_factory() if slot_factory is not None else None


def _process_pool_call(
    fn,
    index: int,
    item,
    entropy,
    attempt: int = 0,
    faults: Optional[FaultPlan] = None,
    backoff: float = 0.0,
):
    if backoff > 0.0:
        time.sleep(backoff)
    if faults is not None:
        faults.apply(index, attempt, in_child=True)
    rng = partition_stream(entropy, index) if entropy is not None else None
    return fn(item, _PROCESS_SLOT, rng)


class _FrozenHeapForkProcess(mp_context.ForkProcess):
    """A forked pool worker whose collector never scans the parent's heap.

    A forked child inherits the parent's uncollected garbage, such as a
    discarded :class:`ProcessPoolExecutor` caught in a reference cycle.
    Were the child's collector to free that executor, its weakref callback
    would take the executor's shutdown lock, which the parent's manager
    thread may have held at the moment of the fork: the worker hangs, and
    the parent waits on its partition forever.  The parent pauses its
    collector across the fork, so the child starts with it paused, and
    :func:`_process_pool_init` freezes every inherited object into the
    permanent generation, which the child never collects, before it turns
    collection back on.  The parent's own collector state and freeze
    count are left as they were.
    """

    @staticmethod
    def _Popen(process_obj):
        with _FORK_LOCK:
            enabled = gc.isenabled()
            gc.disable()
            try:
                return mp_context.ForkProcess._Popen(process_obj)
            finally:
                if enabled:
                    gc.enable()


class _FrozenHeapForkContext(mp_context.ForkContext):
    Process = _FrozenHeapForkProcess


#: Serialises the pause/fork/resume of concurrent pool builds, so one
#: thread's resume cannot land between another thread's pause and fork.
_FORK_LOCK = threading.Lock()
_FORK_CONTEXT = _FrozenHeapForkContext()


def _reset_fork_lock() -> None:
    """A forked child gets a free lock: the parent's was held by the fork."""
    global _FORK_LOCK
    _FORK_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_fork_lock)


def _pool_context() -> Optional[mp_context.BaseContext]:
    """The start context of process pools (``None``: the platform default).

    Pools fork through :class:`_FrozenHeapForkProcess` wherever ``fork``
    is the default start method; ``spawn`` and ``forkserver`` workers
    inherit no heap and keep the default context.
    """
    if multiprocessing.get_start_method() == "fork":
        return _FORK_CONTEXT
    return None


def _shutdown_pool_quietly(pool: ProcessPoolExecutor) -> None:
    """Finalizer for service-cached pools: release workers, never raise."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - interpreter-shutdown races
        pass


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Best-effort hard stop: cancel queued work and kill the workers.

    ``ProcessPoolExecutor`` offers no per-worker preemption, so enforcing
    a deadline means sacrificing the pool; the caller rebuilds it through
    the slot-factory protocol.  ``_processes`` is a private attribute, but
    it has been stable across every supported CPython and the fallback is
    merely a slower (cooperative) shutdown.
    """
    procs = getattr(pool, "_processes", None)
    workers = list(procs.values()) if procs else []
    pool.shutdown(wait=False, cancel_futures=True)
    for worker in workers:
        try:
            worker.terminate()
        except Exception:  # pragma: no cover - already-dead workers
            pass


class _BackendUnusable(Exception):
    """Internal: the current backend cannot make progress (degrade/raise)."""

    def __init__(self, reason: str, cause: Optional[BaseException] = None):
        super().__init__(reason)
        self.reason = reason
        self.cause = cause


class _Outcome:
    """Result of one attempt, evaluated without raising."""

    __slots__ = ("ok", "value")

    def __init__(self, ok: bool, value=None):
        self.ok = ok
        self.value = value


class ParallelService:
    """Executes index-ordered work partitions on a pluggable backend.

    Clients run one service per estimate or Monte Carlo run as a context
    manager: leaving the ``with`` block closes its worker pools, whether
    the block returns or raises.

    Parameters
    ----------
    workers:
        Number of parallel workers (a pure throughput knob: results are
        identical at any count).
    backend:
        ``"serial"``, ``"threads"`` or ``"processes"``; ``None`` resolves
        to ``"serial"`` for one worker and ``"threads"`` otherwise.
    retries, timeout, on_failure, backoff:
        Fault-tolerance knobs; ``None`` resolves from the ``REPRO_EXEC_*``
        environment (see :class:`ExecutionPolicy`).
    faults:
        Optional :class:`~repro.exec.faults.FaultPlan` injected at the
        dispatch seam (chaos testing).  When omitted, the
        ``REPRO_EXEC_FAULTS`` plan applies; pass ``faults=None`` to run
        fault-free regardless of the environment.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        backend: Optional[str] = None,
        retries: Optional[int] = None,
        timeout: Optional[float] = None,
        on_failure: Optional[str] = None,
        backoff: Optional[float] = None,
        faults=_UNSET,
    ) -> None:
        workers = int(workers)
        if workers < 1:
            raise EstimationError("number of workers must be at least 1")
        self.workers = workers
        self.backend = resolve_exec_backend(backend, workers)
        self.policy = ExecutionPolicy.resolve(retries, timeout, on_failure, backoff)
        self.faults: Optional[FaultPlan] = (
            FaultPlan.from_env() if faults is _UNSET else faults
        )
        #: Accumulated fault-tolerance telemetry over the service lifetime.
        self.report = ExecutionReport(backend=self.backend, workers=self.workers)
        #: Lazily created, reused across run() calls: clients like the
        #: correlated level sweep call run() twice per level, and spawning
        #: and joining a fresh pool each time is pure overhead on the hot
        #: path.  Threads idle between calls until :meth:`close`.
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        #: The process pool is cached the same way, keyed by the slot
        #: factory that initialised its workers: the shared-memory clients
        #: call run() hundreds of times per estimate against one factory,
        #: and worker slots (attached segments, kernels) survive between
        #: calls.  Rebuilt on worker loss / preemption, dropped by
        #: :meth:`close`, and by a finalizer as a safety net when an
        #: unclosed service is collected.
        self._process_pool: Optional[ProcessPoolExecutor] = None
        self._process_pool_factory: Optional[Callable[[], object]] = None
        self._process_pool_workers = 0
        self._process_pool_finalizer = None

    def _pool(self) -> ThreadPoolExecutor:
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._thread_pool

    def _acquire_process_pool(
        self, k: int, slot_factory: Optional[Callable[[], object]]
    ) -> ProcessPoolExecutor:
        """The cached worker pool for ``slot_factory``, built on demand.

        A cached pool is reused only when it was initialised by the *same*
        factory object (worker slots are factory state) and is at least as
        wide as requested; anything else is discarded and rebuilt.
        """
        if (
            self._process_pool is not None
            and self._process_pool_factory is slot_factory
            and self._process_pool_workers >= k
        ):
            return self._process_pool
        self._discard_process_pool()
        pool = ProcessPoolExecutor(
            max_workers=k,
            mp_context=_pool_context(),
            initializer=_process_pool_init,
            initargs=(slot_factory,),
        )
        self._process_pool = pool
        self._process_pool_factory = slot_factory
        self._process_pool_workers = k
        self._process_pool_finalizer = weakref.finalize(
            self, _shutdown_pool_quietly, pool
        )
        return pool

    def _discard_process_pool(self) -> None:
        """Terminate and forget the cached process pool (if any)."""
        pool = self._process_pool
        if pool is None:
            return
        if self._process_pool_finalizer is not None:
            self._process_pool_finalizer.detach()
            self._process_pool_finalizer = None
        self._process_pool = None
        self._process_pool_factory = None
        self._process_pool_workers = 0
        _terminate_pool(pool)

    def close(self) -> None:
        """Release the cached worker pools (idempotent).

        A service is usable again afterwards (pools are rebuilt on demand).
        """
        self._discard_process_pool()
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=False, cancel_futures=True)
            self._thread_pool = None

    def __enter__(self) -> "ParallelService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(
        self,
        fn: Callable[[object, object, Optional[np.random.Generator]], object],
        items: Sequence,
        *,
        slots: Optional[Sequence] = None,
        slot_factory: Optional[Callable[[], object]] = None,
        entropy=None,
        consume: Optional[Consumer] = None,
    ) -> Optional[List]:
        """Evaluate ``fn(item, slot, rng)`` for every partition, in order.

        Parameters
        ----------
        fn:
            The partition function.  Must be a pure function of its
            arguments (plus any state reachable from ``slot``); on the
            ``processes`` backend it must be picklable.  Re-dispatch on
            failure additionally requires writes through ``slot`` to be
            idempotent per partition (disjoint output regions overwritten,
            not accumulated).
        items:
            The index-ordered partitions.  The partition list — not the
            backend or worker count — determines the result.
        slots:
            Per-worker mutable evaluation state (kernels, buffers).  The
            ``threads`` backend then keeps at most one partition in flight
            per slot, so a slot never serves two partitions concurrently
            (state that partitions may share, such as disjoint writeback
            buffers, may be listed once per worker); the ``serial``
            backend uses ``slots[0]``.
        slot_factory:
            ``processes`` only: a picklable zero-argument callable building
            one slot per worker process (pool initializer).  Also the
            recovery seam — pool rebuilds re-run it in fresh workers, and
            backend degradation calls it in the parent process.  Slots it
            builds in the parent are ``close()``-d after the run when they
            expose that method.
        entropy:
            When not ``None``, partition ``i`` receives the deterministic
            stream :func:`partition_stream` ``(entropy, i)`` — on every
            attempt, which is what makes retries replay bit-identically;
            otherwise ``rng`` is ``None``.
        consume:
            Optional ``consume(index, result) -> stop?`` fold, called
            exactly once per evaluated partition in partition-index order;
            returning ``True`` stops the run early.  When given, ``run``
            returns ``None`` (results are not retained).

        Returns
        -------
        The list of per-partition results in partition order, or ``None``
        when ``consume`` is given.

        Raises
        ------
        ExecutionError
            When a partition exhausts its retry budget (the error names
            the partition, attempts and causes) or a backend is unusable
            under ``on_failure="raise"``.
        ExecutionTimeoutError
            When every failed attempt of the exhausted partition was a
            deadline preemption.
        """
        items = list(items)
        collected: Optional[List] = None if consume is not None else [None] * len(items)
        if consume is None:
            def fold(index: int, result) -> bool:
                collected[index] = result
                return False
        else:
            fold = consume

        if not items:
            return collected
        self.report.runs += 1
        run = _ServiceRun(self, fn, items, slots, slot_factory, entropy, fold)
        run.execute()
        return collected


class _ServiceRun:
    """One ``run()``: retry bookkeeping, degradation chain, fold cursor."""

    def __init__(self, service, fn, items, slots, slot_factory, entropy, fold):
        self.service = service
        self.policy: ExecutionPolicy = service.policy
        self.faults: Optional[FaultPlan] = service.faults
        self.report: ExecutionReport = service.report
        self.fn = fn
        self.items = items
        self.slots = slots
        self.slot_factory = slot_factory
        self.entropy = entropy
        self.fold = fold
        #: Next partition index to fold; everything below is folded.
        self.position = 0
        self.stopped = False
        self.attempts_used = [0] * len(items)
        self.causes: Dict[int, List] = {}
        self.failure_kinds: Dict[int, List[str]] = {}
        #: Parent-side slots built from the factory (degradation path).
        self._factory_slots: List = []

    # ------------------------------------------------------------------
    def execute(self) -> None:
        backend = self.service.backend
        try:
            while True:
                try:
                    if backend == "serial":
                        self._run_serial()
                    elif backend == "threads":
                        self._run_threads()
                    else:
                        self._run_processes()
                    return
                except _BackendUnusable as unusable:
                    next_backend = _DEGRADE_NEXT.get(backend)
                    if self.policy.on_failure != "degrade" or next_backend is None:
                        causes = [unusable.cause] if unusable.cause else []
                        raise ExecutionError(
                            f"{backend} backend unusable: {unusable.reason}",
                            causes=causes,
                        ) from unusable.cause
                    self.report.record_degradation(
                        backend, next_backend, unusable.reason
                    )
                    backend = next_backend
        finally:
            for slot in self._factory_slots:
                close = getattr(slot, "close", None)
                if callable(close):
                    try:
                        close()
                    except Exception:  # pragma: no cover - best effort
                        pass

    # ------------------------------------------------------------------
    # Attempt machinery (shared by every backend)
    # ------------------------------------------------------------------
    def _charge_attempt(self, index: int) -> int:
        """Consume one attempt of ``index``; returns the attempt number."""
        attempt = self.attempts_used[index]
        self.attempts_used[index] += 1
        self.report.record_attempt(attempt)
        if self.faults is not None and self.faults.lookup(index, attempt):
            self.report.faults_injected += 1
        return attempt

    def _refund_attempt(self, index: int) -> None:
        """Return the budget of an attempt lost to someone else's fault."""
        self.attempts_used[index] -= 1

    def _record_failure(self, index, attempt, kind, cause) -> None:
        self.report.record_failure(index, attempt, kind, cause)
        self.causes.setdefault(index, []).append(cause)
        self.failure_kinds.setdefault(index, []).append(kind)

    def _rng(self, index: int):
        if self.entropy is None:
            return None
        return partition_stream(self.entropy, index)

    def _evaluate(self, index: int, item, slot) -> _Outcome:
        """One attempt on the calling thread; never raises."""
        attempt = self._charge_attempt(index)
        delay = self.policy.backoff_delay(self.entropy, index, attempt)
        if delay > 0.0:
            time.sleep(delay)
        start = time.perf_counter()
        try:
            if self.faults is not None:
                self.faults.apply(index, attempt, in_child=False)
            value = self.fn(item, slot, self._rng(index))
        except Exception as exc:
            self._record_failure(index, attempt, "error", exc)
            return _Outcome(False)
        elapsed = time.perf_counter() - start
        timeout = self.policy.timeout
        if timeout is not None and elapsed > timeout:
            # In-process backends cannot preempt: the soft deadline is
            # advisory.  The late result is deterministic, so it folds.
            self.report.deadline_misses += 1
        self.report.record_success(elapsed)
        return _Outcome(True, value)

    def _resolve_inline(self, index: int, item, slot):
        """Drive ``index`` to success (or quarantine) on the calling thread."""
        while self.attempts_used[index] < self.policy.attempts:
            outcome = self._evaluate(index, item, slot)
            if outcome.ok:
                return outcome.value
        raise self._exhausted(index)

    def _exhausted(self, index: int) -> ExecutionError:
        self.report.quarantined.append(index)
        kinds = self.failure_kinds.get(index, [])
        cls = (
            ExecutionTimeoutError
            if kinds and all(kind == "timeout" for kind in kinds)
            else ExecutionError
        )
        return cls(
            partition=index,
            attempts=self.attempts_used[index],
            causes=self.causes.get(index, []),
        )

    def _fold(self, index: int, value) -> bool:
        """Fold one result; advances the cursor, latches early stop."""
        self.position = index + 1
        if self.fold(index, value):
            self.stopped = True
        return self.stopped

    def _local_slots(self, count: int) -> Optional[List]:
        """In-process slots: the client's, or parent-built factory slots."""
        if self.slots:
            return list(self.slots)
        if self.slot_factory is None:
            return None
        while len(self._factory_slots) < count:
            self._factory_slots.append(self.slot_factory())
        return self._factory_slots[:count]

    # ------------------------------------------------------------------
    def _run_serial(self) -> None:
        slots = self._local_slots(1)
        slot = slots[0] if slots else None
        while self.position < len(self.items) and not self.stopped:
            index = self.position
            value = self._resolve_inline(index, self.items[index], slot)
            if self._fold(index, value):
                return

    # ------------------------------------------------------------------
    def _run_threads(self) -> None:
        slots = self._local_slots(
            min(self.service.workers, len(self.items) - self.position)
        )
        try:
            pool = self.service._pool()
        except Exception as exc:
            raise _BackendUnusable(f"thread pool unavailable: {exc!r}", exc)
        if slots:
            self._thread_window(pool, slots)
        else:
            self._thread_stream(pool)

    def _submit(self, pool, *args):
        try:
            return pool.submit(*args)
        except RuntimeError as exc:
            raise _BackendUnusable(f"thread pool rejected work: {exc!r}", exc)

    def _thread_window(self, pool, slots) -> None:
        """A sliding window of one partition in flight per slot.

        Partitions are dispatched in index order, each on a free slot.  The
        window waits for its oldest partition, retries a failed attempt
        inline on that partition's own (now idle) slot, folds the result
        and hands the slot the next partition — so a slot never serves two
        running partitions at once.
        """
        k = min(self.service.workers, len(slots), len(self.items) - self.position)
        free = list(slots[:k])
        window: deque = deque()  # (index, slot, future), oldest first
        following = self.position
        try:
            while self.position < len(self.items) and not self.stopped:
                while free and following < len(self.items):
                    slot = free.pop(0)
                    future = self._submit(
                        pool, self._evaluate, following, self.items[following], slot
                    )
                    window.append((following, slot, future))
                    following += 1
                i, slot, future = window.popleft()
                outcome = future.result()
                if outcome.ok:
                    value = outcome.value
                else:
                    value = self._resolve_inline(i, self.items[i], slot)
                free.append(slot)
                if self._fold(i, value):
                    return
        finally:
            # Partitions past an early stop (or a failure) are discarded,
            # exactly as a fault-free run would; drain them so every slot
            # is quiescent before the caller proceeds.
            for _, _, future in window:
                future.cancel()
            for _, _, future in window:
                if not future.cancelled():
                    future.result()

    def _thread_stream(self, pool) -> None:
        """Slot-free thread pool: all partitions in flight, free balancing."""
        futures = {
            i: self._submit(pool, self._evaluate, i, self.items[i], None)
            for i in range(self.position, len(self.items))
        }
        try:
            for i in sorted(futures):
                outcome = futures[i].result()
                if outcome.ok:
                    value = outcome.value
                else:
                    value = self._resolve_inline(i, self.items[i], None)
                if self._fold(i, value):
                    return
        finally:
            for future in futures.values():
                future.cancel()
            # Drain anything already running so the pool is quiescent
            # (and client state untouched) before the caller proceeds.
            # _evaluate never raises, so result() is safe.
            for future in futures.values():
                if not future.cancelled():
                    future.result()

    # ------------------------------------------------------------------
    # Process backend: windowed dispatch, pool recovery, preemption
    # ------------------------------------------------------------------
    def _make_process_pool(self, k: int) -> ProcessPoolExecutor:
        try:
            return self.service._acquire_process_pool(k, self.slot_factory)
        except Exception as exc:
            raise _BackendUnusable(f"process pool unavailable: {exc!r}", exc)

    def _run_processes(self) -> None:
        """Process pool folding finished partitions in index order.

        Results land out of order; the parent folds them strictly in
        partition-index order as soon as the next expected partition is
        done, so the merged outcome (including the early-stop point) is
        identical to the ``threads`` backend at any worker count.  The
        pool has ``workers`` processes whatever the partition count, so
        one pool serves every run() of an estimate.  Up to ``2 * workers``
        partitions are in flight, so each worker finds its next partition
        queued instead of idling through the parent's result, fold and
        submit; with a deadline configured only ``workers`` are, so that a
        submit timestamp approximates the start of execution.  Failed
        partitions re-enter the dispatch queue until their budget is
        spent, worker loss rebuilds the pool, and overdue partitions are
        preempted by killing the pool when a deadline is configured.
        """
        timeout = self.policy.timeout
        k = self.service.workers
        window = min(2 * k if timeout is None else k, len(self.items) - self.position)
        pool = self._make_process_pool(k)
        rebuilds = 0
        queue = deque(range(self.position, len(self.items)))
        inflight: Dict = {}  # future -> (index, attempt, submitted_at)
        finished: Dict[int, object] = {}
        errors: Dict[int, ExecutionError] = {}

        def dispatch(index: int) -> None:
            attempt = self._charge_attempt(index)
            delay = self.policy.backoff_delay(self.entropy, index, attempt)
            future = pool.submit(
                _process_pool_call,
                self.fn,
                index,
                self.items[index],
                self.entropy,
                attempt,
                self.faults,
                delay,
            )
            inflight[future] = (index, attempt, time.perf_counter())

        def requeue(index: int) -> None:
            if self.attempts_used[index] < self.policy.attempts:
                queue.append(index)
            else:
                errors[index] = self._exhausted(index)
                # Work past a doomed fold position can never be consumed:
                # it is either preceded by the raise or cut by an earlier
                # early stop.  Drop it.
                cutoff = min(errors)
                for queued in [q for q in queue if q > cutoff]:
                    queue.remove(queued)

        def handle_pool_break(cause) -> None:
            nonlocal pool, rebuilds
            # Harvest whatever completed before the break: a finished
            # result (or a genuine partition error) keeps its normal
            # accounting.  The rest died with the pool; the victim is
            # indistinguishable, so each is charged (the attempt was
            # dispatched) and re-dispatched if budget remains.
            for future, (index, attempt, submitted) in list(inflight.items()):
                if future.done():
                    try:
                        value = future.result()
                    except BrokenExecutor:
                        pass  # a victim: falls through to worker-lost
                    except Exception as exc:
                        self._record_failure(index, attempt, "error", exc)
                        requeue(index)
                        continue
                    else:
                        self.report.record_success(
                            time.perf_counter() - submitted
                        )
                        finished[index] = value
                        continue
                self._record_failure(index, attempt, "worker-lost", cause)
                requeue(index)
            inflight.clear()
            self.service._discard_process_pool()
            rebuilds += 1
            self.report.pool_rebuilds += 1
            if rebuilds > MAX_POOL_REBUILDS:
                raise _BackendUnusable(
                    f"worker pool broke {rebuilds} times "
                    f"(last cause: {cause!r})",
                    cause if isinstance(cause, BaseException) else None,
                )
            pool = self._make_process_pool(k)

        def preempt(now: float) -> None:
            nonlocal pool
            # Kill the pool, charge the overdue partitions a timeout and
            # refund everyone else (their attempts died with the pool
            # through no fault of their own).
            overdue, innocent = [], []
            for future, (index, attempt, submitted) in inflight.items():
                if now - submitted > timeout + _TIMEOUT_GRACE:
                    overdue.append((index, attempt, now - submitted))
                else:
                    innocent.append(index)
            for index, attempt, elapsed in overdue:
                self._record_failure(
                    index,
                    attempt,
                    "timeout",
                    f"partition {index} exceeded the {timeout:g}s deadline "
                    f"({elapsed:.3f}s); worker preempted",
                )
                requeue(index)
            for index in innocent:
                self._refund_attempt(index)
                queue.appendleft(index)
            inflight.clear()
            self.service._discard_process_pool()
            # Preemption is deliberate: it does not consume the rebuild
            # budget (a hanging partition is bounded by its retry budget).
            self.report.pool_rebuilds += 1
            pool = self._make_process_pool(k)

        try:
            while not self.stopped and (queue or inflight or
                                        self.position in finished or
                                        self.position in errors):
                # Fold whatever prefix is ready before dispatching more.
                while not self.stopped and (
                    self.position in finished or self.position in errors
                ):
                    index = self.position
                    if index in errors:
                        raise errors.pop(index)
                    if self._fold(index, finished.pop(index)):
                        return
                if self.position >= len(self.items) or self.stopped:
                    return
                while queue and len(inflight) < window:
                    index = queue.popleft()
                    try:
                        dispatch(index)
                    except BrokenExecutor as exc:
                        # The submit itself failed: the attempt never ran,
                        # so the charge is refunded and the partition keeps
                        # its place at the head of the queue.
                        self._refund_attempt(index)
                        queue.appendleft(index)
                        handle_pool_break(exc)
                        break
                if not inflight:
                    continue
                if timeout is not None:
                    now = time.perf_counter()
                    oldest = min(t for (_, _, t) in inflight.values())
                    budget = (oldest + timeout + _TIMEOUT_GRACE) - now
                    if budget <= 0.0:
                        preempt(now)
                        continue
                    done, _ = wait(
                        set(inflight), timeout=budget, return_when=FIRST_COMPLETED
                    )
                    if not done:
                        preempt(time.perf_counter())
                        continue
                else:
                    done, _ = wait(set(inflight), return_when=FIRST_COMPLETED)
                broke = None
                for future in done:
                    index, attempt, submitted = inflight.pop(future)
                    try:
                        value = future.result()
                    except BrokenExecutor as exc:
                        # Put it back so handle_pool_break charges it with
                        # the rest of the in-flight set.
                        inflight[future] = (index, attempt, submitted)
                        broke = exc
                        break
                    except Exception as exc:
                        self._record_failure(index, attempt, "error", exc)
                        requeue(index)
                    else:
                        elapsed = time.perf_counter() - submitted
                        if timeout is not None and elapsed > timeout:
                            self.report.deadline_misses += 1
                        self.report.record_success(elapsed)
                        finished[index] = value
                if broke is not None:
                    handle_pool_break(broke)
        finally:
            # The pool stays warm on the service for the next run() —
            # tearing down and re-initialising worker slots between the
            # hundreds of calls of a level sweep is exactly the overhead
            # the shared-memory plane removes.  It only needs to be
            # quiescent: stragglers past an early stop are drained (their
            # results are discarded), unless a deadline licenses killing
            # them with the pool.
            if inflight:
                if timeout is not None:
                    self.service._discard_process_pool()
                else:
                    for future in inflight:
                        future.cancel()
                    wait(set(inflight))
