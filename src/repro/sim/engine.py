"""Batched Monte Carlo engine for expected-makespan estimation.

This is the computational core behind the paper's ground truth: sample the
effective execution time of every task (Section V-C), evaluate the longest
path of the resulting deterministic DAG, repeat for a large number of
trials, and average.

The engine is a *zero-copy pipeline* around the level-wavefront kernel of
:mod:`repro.core.kernels`:

* the per-task failure probabilities are computed (and validated) once per
  engine, not once per batch;
* the kernel's task-major ``(tasks, batch)`` completion buffer, with its
  per-level gather rows, is allocated once per *evaluation slot* and
  reused by every batch;
* the default batch is sized from the task count so that the completion
  buffer stays near :data:`BATCH_BUFFER_BYTES` (see
  :func:`default_batch_size`): a batch of a few hundred trials on a
  2,600-task DAG keeps the per-level working set in cache, where a fixed
  8,192-trial batch streams a 170 MB buffer through memory every level;
* a batch is sampled straight into the kernel buffer.  In two-state mode
  only its failed ``(trial, task)`` cells are drawn, by geometric skips
  with thinning over the trial-major cell grid (see
  :meth:`_BatchWorker._failed_cells`): at the paper's rates about one cell
  in a thousand fails, so the batch costs a few draws per failure instead
  of one uniform per cell, and no ``(trials, tasks)`` mask or weight
  matrix is built.  Sampling draws at most :data:`CHUNK_BYTES` of
  variates at a time, whatever the failure rates;
* only the failed trials are swept.  A trial without a failed task has
  the failure-free makespan ``d``, which the engine sweeps once through
  the kernel itself.  The ``m`` failed trials become the columns of the
  contiguous ``(tasks, m)`` kernel view: set to the nominal weights ``w``,
  their failed cells to the re-executed weight ``w + (f - 1) w`` by
  scatter (both precomputed with the rounding of the dense
  ``mask * (f - 1) w`` then ``+= w`` form), and swept in place.  On
  cholesky k=10 at pfail 1e-3 about 80% of the trials have no failure, so
  a 4,096-trial batch sweeps ~800 columns.  Every result is bit-identical
  to a sweep of the whole batch: columns are independent elementwise
  max/add chains;
* the makespan is the maximum over the sink rows only: weights are
  non-negative, so every task completes no later than some sink below it.

Execution backends
------------------

Batch scheduling is delegated to :func:`repro.sim.executors.run_batches`:

* ``"serial"`` (default for ``workers=1``) evaluates batches one after the
  other on a single evaluation slot;
* ``"processes"`` (default for ``workers>1``) runs batches on a process
  pool with per-process compiled kernels and a
  ``multiprocessing.shared_memory`` result buffer.

Both backends draw batch ``b`` from its own stream,
:func:`repro.exec.partition_stream` ``(seed entropy, b)``, and fold
results in batch-index order, so they produce identical merged
estimates for a fixed seed at any worker count (see the determinism
contract in :mod:`repro.sim.executors`).

Streaming statistics
--------------------

Statistics are always accumulated in a streaming fashion (Welford/Chan
moments), so memory stays bounded regardless of the trial count.  With
``streaming=True`` the engine additionally folds every batch into a
fixed-grid :class:`~repro.sim.stats.QuantileSketch` (and optionally a
:class:`~repro.sim.stats.ReservoirSample`), so a million-trial run serves
mean/std/CI *and* quantiles in O(batch) additional memory with
``samples=None``; ``keep_samples=True`` keeps the historical materialised
:class:`~repro.rv.empirical.EmpiricalDistribution` instead.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from ..core.backends import resolve_kernel_backend
from ..core.graph import GraphIndex, TaskGraph
from ..core.kernels import (
    LevelSchedule,
    WavefrontKernel,
    normalize_dtype,
    schedule_for,
)
from ..exceptions import EstimationError, GraphError
from ..failures.models import ErrorModel
from ..rv.empirical import EmpiricalDistribution, RunningMoments
from ..exec import resolve_exec_backend
from .executors import run_batches
from .sampler import (
    DEFAULT_MAX_EXECUTIONS,
    SamplingMode,
    task_failure_probabilities,
)
from .stats import (
    DEFAULT_SKETCH_BINS,
    ConvergenceTracker,
    QuantileSketch,
    ReservoirSample,
)

__all__ = [
    "MonteCarloResult",
    "MonteCarloEngine",
    "default_batch_size",
    "simulate_expected_makespan",
]

#: Default number of trials.  The paper uses 300,000; the package default is
#: smaller so that interactive use and the test-suite stay fast, and the
#: experiment drivers override it explicitly.
DEFAULT_TRIALS = 50_000
#: Largest default batch (see :func:`default_batch_size`).
DEFAULT_BATCH = 8_192
#: Smallest default batch, however many tasks the DAG has.
MIN_DEFAULT_BATCH = 128

#: Bytes of variates drawn at a time while sampling a batch: the two-state
#: sampler's candidate cells (16 bytes each) and geometric mode's
#: trial-major execution counts, so a batch's sampling memory is bounded
#: whatever the failure rates.
CHUNK_BYTES = 1 << 20
#: Target size of the kernel's ``(tasks, batch)`` completion buffer at the
#: default batch size, counted at 8 bytes per value whatever the dtype.
BATCH_BUFFER_BYTES = 8 << 20

#: Spawn key of the reservoir's dedicated RNG stream — far outside the
#: per-batch key range so enabling the reservoir never perturbs a trial.
_RESERVOIR_SPAWN_KEY = 2**48


@dataclass
class MonteCarloResult:
    """Outcome of a Monte Carlo simulation."""

    mean: float
    std: float
    trials: int
    standard_error: float
    confidence_interval: Tuple[float, float]
    minimum: float
    maximum: float
    wall_time: float
    mode: str
    batch_size: int
    samples: Optional[EmpiricalDistribution] = None
    history: Tuple[Tuple[int, float], ...] = field(default_factory=tuple)
    dtype: str = "float64"
    workers: int = 1
    backend: str = "serial"
    streaming: bool = False
    sketch: Optional[QuantileSketch] = None
    reservoir: Optional[np.ndarray] = None
    #: Machine-readable execution-service telemetry (attempts, retries,
    #: timeouts, pool rebuilds, degradations) — see
    #: :class:`repro.exec.ExecutionReport`.
    execution: Optional[dict] = None

    def quantile(self, q: float) -> float:
        """Quantile of the makespan distribution.

        Served exactly from the materialised sample when ``keep_samples``
        was set, and approximately (one sketch-bin accuracy) from the
        streaming quantile sketch otherwise.
        """
        if self.samples is not None:
            return self.samples.quantile(q)
        if self.sketch is not None:
            return self.sketch.quantile(q)
        raise EstimationError(
            "no distribution information kept: run with keep_samples=True "
            "or streaming=True to query quantiles"
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        low, high = self.confidence_interval
        return (
            f"MC[{self.trials} trials]: mean={self.mean:.6g} "
            f"(95% CI [{low:.6g}, {high:.6g}], {self.wall_time:.2f}s)"
        )


def default_batch_size(trials: int, num_tasks: int) -> int:
    """The batch size an engine uses when none is given.

    The largest power of two whose ``(num_tasks, batch)`` buffer of 8-byte
    values fits in :data:`BATCH_BUFFER_BYTES`, clamped to
    ``[MIN_DEFAULT_BATCH, DEFAULT_BATCH]`` and to ``trials``: 4,096 trials
    on 220 tasks, 256 on 2,600, 128 from 4,097 tasks up.  It depends on
    the trial and task counts only — never on the dtype, the backend or
    the worker count — so the batch plan (and with it every per-batch RNG
    stream) is a function of the problem alone,
    and rounding down to a power of two keeps it stable under small graph
    edits.
    """
    fit = BATCH_BUFFER_BYTES // (8 * max(num_tasks, 1))
    fit = 1 << (fit.bit_length() - 1) if fit else 0
    return min(trials, DEFAULT_BATCH, max(MIN_DEFAULT_BATCH, fit))


@dataclass(frozen=True, eq=False)
class _SamplingPlan:
    """What an evaluation slot needs of its engine: the per-task data.

    Slots hold this instead of the engine itself, so no slot points back
    at its engine and a dropped engine (with its kernel buffers) is freed
    by reference counting, without waiting for the cyclic collector.  It
    holds no graph and no error model: the processes backend ships it
    to its workers with ``schedule=None`` and the schedule segment's
    handle alongside (see :mod:`repro.sim.executors`).
    """

    #: The compiled "up" schedule the slot's kernel sweeps.
    schedule: Optional[LevelSchedule]
    mode: str
    dtype: np.dtype
    kernel_backend: str
    #: Trials of the largest batch (the kernel buffer's width).
    capacity: int
    #: Kernel buffer rows of the sinks (a slice when contiguous).
    sinks: Union[slice, np.ndarray]
    #: Two-state mode: the largest failure probability ``q_max`` and, per
    #: task (task order), the thinning ratio ``q / q_max`` that accepts a
    #: candidate cell (exactly 1 where ``q = q_max``).
    q_max: float = 0.0
    accept: Optional[np.ndarray] = None
    #: Two-state mode: stored weight of a succeeded / re-executed task.
    ok: Optional[np.ndarray] = None
    fail: Optional[np.ndarray] = None
    #: Two-state mode: the failure-free makespan ``d`` as the kernel sweeps
    #: it, which every trial without a failed task takes.
    nominal: float = 0.0
    #: Geometric mode: ``(tasks, 1)`` nominal weights and success rates.
    w_rows: Optional[np.ndarray] = None
    success: Optional[np.ndarray] = None


def _nominal_makespan(
    schedule: LevelSchedule,
    ok: np.ndarray,
    sinks: Union[slice, np.ndarray],
    kernel_backend: str,
) -> float:
    """The failure-free makespan, as one column through the kernel's sweep.

    Columns of a sweep are independent elementwise max/add chains, so this
    is bit for bit what a wider sweep gives a column of nominal weights.
    """
    kernel = WavefrontKernel.from_schedule(
        schedule, direction="up", dtype=ok.dtype, kernel_backend=kernel_backend
    )
    view = kernel.weight_view(1)
    view[:, 0] = ok
    kernel.propagate(1)
    return float(view[sinks].max())


class _BatchWorker:
    """One slot's private evaluation state: kernel and buffers.

    The engine owns one instance on the serial backend; worker processes
    build theirs the same way, over a schedule attached from shared
    memory.  Each instance evaluates one batch at a time, which satisfies
    the wavefront kernel's non-reentrancy contract.  The slot owns no RNG state:
    every :meth:`evaluate` call receives its batch's stream.
    """

    def __init__(self, plan: _SamplingPlan) -> None:
        self.plan = plan
        self.kernel = WavefrontKernel.from_schedule(
            plan.schedule,
            direction="up",
            dtype=plan.dtype,
            kernel_backend=plan.kernel_backend,
        )
        if plan.schedule.num_tasks:
            # Grow the kernel's buffers to their final size now.
            self.kernel.reserve(plan.capacity)

    def evaluate(self, batch: int, rng: np.random.Generator) -> np.ndarray:
        """Sample one batch from ``rng`` in place and return its makespans."""
        plan = self.plan
        n = plan.schedule.num_tasks
        if n == 0:
            return np.zeros(batch, dtype=np.float64)
        if plan.mode == "two-state":
            return self._evaluate_two_state(batch, rng)
        kernel = self.kernel
        view = kernel.weight_view(batch)
        # Executions until success, capped.  Consecutive chunk draws
        # consume the stream exactly like one trial-major (batch, tasks)
        # draw.
        step = max(1, CHUNK_BYTES // (8 * n))
        for t0 in range(0, batch, step):
            t1 = min(t0 + step, batch)
            draws = rng.geometric(plan.success, size=(t1 - t0, n))
            np.minimum(draws, DEFAULT_MAX_EXECUTIONS, out=draws)
            np.multiply(draws.T[kernel.perm], plan.w_rows, out=view[:, t0:t1])
        kernel.propagate(batch)
        return view[plan.sinks].max(axis=0)

    def _evaluate_two_state(
        self, batch: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sweep only the batch's failed trials, compacted into the kernel.

        A trial without a failed task takes the nominal makespan
        ``plan.nominal``.  The ``m`` failed trials, in ascending order,
        become the columns of ``weight_view(m)``: filled with ``plan.ok``,
        their failed cells set to ``plan.fail``, then swept.  ``m`` must be
        known before the fill, so a walk that needs more than one chunk is
        walked twice, the second time from the saved stream state, with
        the same draws; a walk that ends in its first chunk is kept.
        """
        plan = self.plan
        state = rng.bit_generator.state
        chunks = None
        m = 0
        previous = -1  # the last failed trial
        for k, chunk in enumerate(self._failed_cells(batch, rng)):
            chunks = [chunk] if k == 0 else None
            trials = chunk[1]
            m += int(trials[0] != previous)
            m += int(np.count_nonzero(trials[1:] != trials[:-1]))
            previous = trials[-1]
            del chunk, trials  # hold no chunk while the walk draws the next
        if m == 0:
            return np.full(batch, plan.nominal, dtype=plan.dtype)
        if chunks is None:
            rng.bit_generator.state = state
            chunks = self._failed_cells(batch, rng)
        kernel = self.kernel
        view = kernel.weight_view(m)
        view[...] = plan.ok[:, None]
        # Every trial failing needs no compaction; otherwise the failed
        # trials are marked in the output itself (makespans are >= 0).
        out = None if m == batch else np.full(batch, plan.nominal, dtype=plan.dtype)
        seen, previous = 0, -1
        for task, trials in chunks:
            # A trial's column is its rank among the failed trials.
            column = np.empty(trials.size, dtype=np.intp)
            column[0] = trials[0] != previous
            np.not_equal(trials[1:], trials[:-1], out=column[1:])
            np.cumsum(column, out=column)
            column += seen - 1
            rows = kernel.rank[task]
            view[rows, column] = plan.fail[rows]
            seen, previous = int(column[-1]) + 1, trials[-1]
            if out is not None:
                out[trials] = -np.inf
            del task, trials, column, rows
        kernel.propagate(m)
        if out is None:
            return view[plan.sinks].max(axis=0)
        # The failed trials' makespans, in rank order, replace the marks
        # block by block.
        step = CHUNK_BYTES // 8
        column = 0
        for t0 in range(0, batch, step):
            block = out[t0 : t0 + step]
            marked = np.flatnonzero(block == -np.inf)
            if marked.size:
                stop = column + marked.size
                block[marked] = view[plan.sinks, column:stop].max(axis=0)
                column = stop
        return out

    def _failed_cells(self, batch: int, rng: np.random.Generator):
        """Walk the batch's failed cells: yield ``(tasks, trials)`` chunks.

        The cells are the trial-major ``(batch, tasks)`` grid, tasks in
        index order, flattened, so the trials of the failed cells arrive in
        ascending order (a trial's cells may straddle two chunks).  A
        *candidate* cell consumes two uniforms ``(skip, accept)`` of the
        stream: it lies ``1 + floor(log1p(-skip) / log1p(-q_max))`` cells —
        a ``Geometric(q_max)`` gap — past the previous candidate (the first
        one past cell ``-1``), and it fails when ``accept < q / q_max`` of
        its task.  So every cell fails independently with probability ``q``
        of its task, exactly as with one uniform per cell, while only about
        ``q_max`` of the cells cost a draw.  Candidates are drawn
        :data:`CHUNK_BYTES` at a time (fewer when fewer are expected); as
        each consumes exactly two uniforms, the failures do not depend on
        the chunking, and draws past the grid are never read.  Chunks
        without a failed cell are not yielded.
        """
        plan = self.plan
        if plan.q_max <= 0.0:
            return
        log_keep = np.log1p(-plan.q_max) if plan.q_max < 1.0 else -np.inf
        n = plan.schedule.num_tasks
        cells = batch * n
        last = -1.0  # the previous candidate's cell (exact in float64)
        while last < cells - 1:
            left = cells - 1 - last
            expected = left * plan.q_max
            size = int(
                min(CHUNK_BYTES // 16, left, expected + 6.0 * math.sqrt(expected) + 16)
            )
            uniform = rng.random((size, 2))
            cell = np.negative(uniform[:, 0])
            np.log1p(cell, out=cell)
            cell /= log_keep
            np.floor(cell, out=cell)
            # Clipped so that a huge gap stays an exact integer.
            np.minimum(cell, cells, out=cell)
            cell += 1.0
            np.cumsum(cell, out=cell)
            cell += last
            inside = int(np.searchsorted(cell, cells))
            last = cell[-1]
            index = cell[:inside].astype(np.intp)
            del cell
            task = index % n
            failed = uniform[:inside, 1] < plan.accept[task]
            del uniform
            if failed.any():
                index = index[failed]
                task = task[failed]
                del failed
                index //= n
                yield task, index
            del index, task
            if inside < size:
                return


class MonteCarloEngine:
    """Reusable Monte Carlo simulator for one graph + error model pair.

    Parameters
    ----------
    graph:
        The task graph.
    model:
        The silent-error model.
    trials:
        Total number of trials.
    batch_size:
        Trials evaluated per vectorised batch (memory ~ ``batch_size x
        num_tasks`` values of the chosen dtype per worker, plus at most
        :data:`CHUNK_BYTES` of variates while sampling).  ``None`` (default)
        sizes it from the task count with :func:`default_batch_size`, so
        the buffer stays near :data:`BATCH_BUFFER_BYTES` (256 trials,
        ~5 MB, on a 2,600-task DAG); an explicit size is used as given.
        Every backend draws one RNG stream per batch, so seeded results
        depend on it.
    seed:
        Non-negative integer seed for reproducibility, or ``None`` (fresh
        OS entropy).  Batch ``b`` draws from
        :func:`repro.exec.partition_stream` ``(seed entropy, b)``.
    mode:
        ``"two-state"`` (the paper's model) or ``"geometric"``.
    reexecution_factor:
        Cost multiplier of a re-execution in two-state mode.
    keep_samples:
        Keep the full sample (exact quantiles / histograms; incompatible
        with ``streaming``).
    confidence:
        Confidence level of the reported interval.
    target_relative_half_width:
        Optional early-stopping criterion: stop as soon as the confidence
        half-width relative to the mean falls below this threshold.
    dtype:
        Precision of the longest-path evaluation buffer: ``"float64"``
        (default, results bit-identical to the reference implementation) or
        ``"float32"`` (halves kernel memory traffic; the rounding error is
        orders of magnitude below Monte Carlo noise).
    workers:
        Number of parallel evaluation workers of the ``processes``
        backend.  ``1`` (default) selects the serial reference backend
        unless ``backend`` says otherwise.
    backend:
        Execution backend: ``"serial"`` or ``"processes"`` (see
        :mod:`repro.sim.executors`).  ``None`` (default) resolves to
        ``"serial"`` for one worker and ``"processes"`` otherwise.  Seeded
        results are the same on every backend at any worker count.
    streaming:
        Fold every batch into a fixed-grid quantile sketch (and optional
        reservoir) instead of materialising anything: the result still
        serves mean/std/CI *and* quantiles with ``samples=None`` in
        O(batch) additional memory.  Recommended together with
        ``dtype="float32"`` for exploratory million-trial runs.
    sketch_bins:
        Bin count of the streaming quantile sketch.
    reservoir:
        Capacity of the streaming reservoir subsample (0 disables it;
        requires ``streaming=True``).  The reservoir draws from a
        dedicated RNG stream, so enabling it does not change the sampled
        trials.
    exec_retries, exec_timeout, exec_on_failure:
        Fault-tolerance knobs of the execution service (re-dispatches per
        batch, per-batch soft deadline in seconds, and the unusable-backend
        policy ``"raise"``/``"degrade"``).  ``None`` (default) resolves
        from the ``REPRO_EXEC_*`` environment — see
        :class:`repro.exec.ExecutionPolicy`.  Retries replay the failed
        batch's RNG stream, so results stay bit-identical under faults.
    kernel_backend:
        Compiled-kernel backend of the hot loops: ``"numpy"`` (the
        reference) or ``"numba"`` (JIT level recurrence, bit-identical to
        the reference; every backend samples with the same NumPy code).
        ``None`` (default) resolves ``REPRO_KERNEL_BACKEND`` and falls back
        to ``"numpy"``; an unavailable compiler degrades per function to
        the NumPy pipeline (see :mod:`repro.core.backends`).
    """

    def __init__(
        self,
        graph: TaskGraph,
        model: ErrorModel,
        *,
        trials: int = DEFAULT_TRIALS,
        batch_size: Optional[int] = None,
        seed: Optional[int] = None,
        mode: SamplingMode = "two-state",
        reexecution_factor: float = 2.0,
        keep_samples: bool = False,
        confidence: float = 0.95,
        target_relative_half_width: Optional[float] = None,
        dtype: Union[str, np.dtype, type, None] = np.float64,
        workers: int = 1,
        backend: Optional[str] = None,
        streaming: bool = False,
        sketch_bins: int = DEFAULT_SKETCH_BINS,
        reservoir: int = 0,
        exec_retries: Optional[int] = None,
        exec_timeout: Optional[float] = None,
        exec_on_failure: Optional[str] = None,
        kernel_backend: Optional[str] = None,
    ) -> None:
        if trials <= 0:
            raise EstimationError("number of trials must be positive")
        if batch_size is not None and batch_size <= 0:
            raise EstimationError("batch size must be positive")
        if mode not in ("two-state", "geometric"):
            raise EstimationError(f"unknown sampling mode {mode!r}")
        if reexecution_factor < 1.0:
            raise EstimationError("re-execution factor must be >= 1")
        if workers < 1:
            raise EstimationError("number of workers must be at least 1")
        if streaming and keep_samples:
            raise EstimationError(
                "streaming mode replaces the materialised sample; "
                "choose streaming=True or keep_samples=True, not both"
            )
        if reservoir < 0:
            raise EstimationError("reservoir capacity must be non-negative")
        if reservoir > 0 and not streaming:
            raise EstimationError(
                "the reservoir subsample is part of streaming mode; "
                "pass streaming=True (or keep_samples=True for the full sample)"
            )
        if seed is not None and not (
            isinstance(seed, (int, np.integer)) and seed >= 0
        ):
            raise EstimationError(
                f"seed must be None or a non-negative integer, got {seed!r}"
            )
        self.graph = graph
        self.index: GraphIndex = graph.index()
        self.model = model
        self.trials = int(trials)
        #: The batch size in use: the explicit one, or the resolved default.
        self.batch_size = (
            default_batch_size(self.trials, self.index.num_tasks)
            if batch_size is None
            else int(batch_size)
        )
        self.mode = mode
        self.reexecution_factor = reexecution_factor
        self.keep_samples = keep_samples
        self.confidence = confidence
        self.target_relative_half_width = target_relative_half_width
        self.workers = int(workers)
        self.backend = resolve_exec_backend(backend, self.workers)
        self.streaming = bool(streaming)
        self.sketch_bins = int(sketch_bins)
        self.reservoir = int(reservoir)
        self.exec_retries = exec_retries
        self.exec_timeout = exec_timeout
        self.exec_on_failure = exec_on_failure
        #: The execution report of the most recent run (set by run_batches).
        self.last_execution_report = None
        try:
            self.dtype = normalize_dtype(dtype)
            self.kernel_backend = resolve_kernel_backend(kernel_backend)
        except GraphError as exc:
            # Constructor-argument problems consistently raise EstimationError.
            raise EstimationError(str(exc)) from None

        # -- one-time pipeline setup (nothing below re-runs per batch) ----
        n = self.index.num_tasks
        weights = self.index.weights
        # Per-task failure probabilities, computed and validated once.
        q = task_failure_probabilities(model, weights)
        # Per-task data in the kernel's (permuted) row order.
        schedule = schedule_for(self.index, "up")
        perm = schedule.perm
        sink_rows = np.sort(schedule.rank[self.index.sink_indices()])
        if n and sink_rows[-1] - sink_rows[0] + 1 == sink_rows.size:
            # A contiguous run of sink rows (one sink, or an edge-free
            # graph) is reduced through a view rather than a gathered copy.
            sink_rows = slice(sink_rows[0], sink_rows[-1] + 1)
        w = np.ascontiguousarray(weights[perm], dtype=np.float64)
        if mode == "two-state":
            # The stored weight of a succeeded / re-executed task, rounded
            # like the dense ``mask * (f - 1) w`` then ``+= w`` fill: the
            # product is stored in the buffer dtype before the float64 add.
            extra = ((reexecution_factor - 1.0) * weights)[perm]
            ok = np.empty(n, dtype=self.dtype)
            fail = np.empty(n, dtype=self.dtype)
            np.multiply(False, extra, out=ok)
            np.multiply(True, extra, out=fail)
            ok += w
            fail += w
            q_max = float(q.max(initial=0.0))
            accept = q / q_max if q_max > 0.0 else np.zeros_like(q)
            nominal = (
                _nominal_makespan(schedule, ok, sink_rows, self.kernel_backend)
                if n else 0.0
            )
            per_mode = dict(
                q_max=q_max, accept=accept, ok=ok, fail=fail, nominal=nominal
            )
        else:
            success = 1.0 - q
            if np.any(success <= 0.0):
                raise EstimationError(
                    "some task never succeeds; geometric sampling diverges"
                )
            per_mode = dict(w_rows=w[:, None], success=success)
        #: What every evaluation slot, in-process or in a worker, samples from.
        self._plan = _SamplingPlan(
            schedule=schedule,
            mode=mode,
            dtype=self.dtype,
            kernel_backend=self.kernel_backend,
            capacity=min(self.batch_size, self.trials),
            sinks=sink_rows,
            **per_mode,
        )

        #: Root entropy of every derived stream: batch ``b`` draws from
        #: ``partition_stream(seed_entropy, b)`` on every backend.
        self.seed_entropy = np.random.SeedSequence(seed).entropy

        # The serial backend's evaluation slot; the process backend builds
        # its slots inside the worker processes.
        self._slot: Optional[_BatchWorker] = (
            None if self.backend == "processes" else _BatchWorker(self._plan)
        )

    @property
    def _kernel(self) -> Optional[WavefrontKernel]:
        """The slot's wavefront kernel (``None`` on the process backend)."""
        return self._slot.kernel if self._slot is not None else None

    # ------------------------------------------------------------------
    def _batch_plan(self) -> List[int]:
        """The deterministic sequence of batch sizes covering all trials."""
        plan = []
        remaining = self.trials
        while remaining > 0:
            batch = min(self.batch_size, remaining)
            plan.append(batch)
            remaining -= batch
        return plan

    def run(self) -> MonteCarloResult:
        """Run the simulation and return the aggregated result."""
        start = time.perf_counter()
        tracker = ConvergenceTracker(
            confidence=self.confidence,
            target_relative_half_width=self.target_relative_half_width,
        )
        kept: Optional[List[np.ndarray]] = [] if self.keep_samples else None
        sketch: Optional[QuantileSketch] = None
        reservoir: Optional[ReservoirSample] = None
        if self.streaming:
            sketch = QuantileSketch(bins=self.sketch_bins)
            if self.reservoir > 0:
                reservoir_rng = np.random.default_rng(
                    np.random.SeedSequence(
                        entropy=self.seed_entropy,
                        spawn_key=(_RESERVOIR_SPAWN_KEY,),
                    )
                )
                reservoir = ReservoirSample(self.reservoir, rng=reservoir_rng)

        def consume(makespans: np.ndarray) -> bool:
            data = np.asarray(makespans, dtype=np.float64).ravel()
            tracker.update(data)
            if kept is not None:
                kept.append(data)
            if sketch is not None:
                sketch.update(data)
            if reservoir is not None:
                reservoir.update(data)
            return tracker.converged

        run_batches(self, consume)

        elapsed = time.perf_counter() - start
        moments: RunningMoments = tracker.moments
        samples = (
            EmpiricalDistribution(np.concatenate(kept))
            if kept is not None and kept
            else None
        )
        return MonteCarloResult(
            mean=moments.mean,
            std=moments.std,
            trials=moments.count,
            standard_error=moments.standard_error(),
            confidence_interval=moments.confidence_interval(self.confidence),
            minimum=moments.minimum,
            maximum=moments.maximum,
            wall_time=elapsed,
            mode=self.mode,
            batch_size=self.batch_size,
            samples=samples,
            history=tuple(tracker.history),
            dtype=self.dtype.name,
            workers=self.workers,
            backend=self.backend,
            streaming=self.streaming,
            sketch=sketch,
            reservoir=reservoir.samples() if reservoir is not None else None,
            execution=(
                self.last_execution_report.as_dict()
                if self.last_execution_report is not None
                else None
            ),
        )


def simulate_expected_makespan(
    graph: TaskGraph,
    model: ErrorModel,
    *,
    trials: int = DEFAULT_TRIALS,
    seed: Optional[int] = None,
    mode: SamplingMode = "two-state",
    dtype: Union[str, np.dtype, type, None] = np.float64,
    workers: int = 1,
    backend: Optional[str] = None,
    streaming: bool = False,
    kernel_backend: Optional[str] = None,
) -> float:
    """Functional shortcut returning only the Monte Carlo mean.

    ``seed`` is ``None`` or a non-negative integer, as for
    :class:`MonteCarloEngine`.
    """
    engine = MonteCarloEngine(
        graph,
        model,
        trials=trials,
        seed=seed,
        mode=mode,
        dtype=dtype,
        workers=workers,
        backend=backend,
        streaming=streaming,
        kernel_backend=kernel_backend,
    )
    return engine.run().mean
