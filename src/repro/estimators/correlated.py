"""Correlation-aware normal propagation (extension of Sculli's method).

Sculli's classical method assumes that the completion times being maximised
are independent, which is wrong whenever two incoming paths share tasks —
the very situation that makes the expected-makespan problem hard.  Clark's
1961 paper also gives the correlation of the (normal-approximated) maximum
with any third variable, which allows correlations to be *propagated*
instead of ignored.  This estimator maintains the correlation between task
completion times:

* ``C_i = max_{p ∈ Pred(i)} C_p + X_i`` with ``X_i`` independent of
  everything else;
* maxima are folded pairwise with Clark's formulas, using the tracked
  correlation of the two operands, and the correlation of the result with
  every other variable is updated with Clark's third-variable formula;
* sums simply shift the mean, add the task variance, and rescale the
  correlation row accordingly.

Level-wavefront evaluation
--------------------------

The propagation runs one topological *level* at a time on the compiled
``"up"`` :class:`~repro.core.kernels.LevelSchedule`: all tasks of a level
fold their predecessors simultaneously with the batched Clark formulas, the
third-variable update becoming one row operation per fold step.  Because
tasks of one level are mutually independent, the only order-sensitive
quantities are the correlations *between tasks of the same level*: the
sequential recurrence computes the pair entry ``(i, i')`` in whichever task
comes later in topological order, reading the fresh row of the earlier one.
The batched sweep reproduces this with a second fold pass per level after
the level's rows are written (correlation entries are column-independent in
Clark's third-variable formula, so the second pass recovers exactly the
sequential pair entries, selected by topological rank).  Results match the
sequential reference (kept as a test oracle in
``tests/oracles/estimators.py``) to floating-point rounding.

Parallel level folds
--------------------

Within one level, every *row* of the batched fold is independent: the fold
reads only pre-level state (the moments and the correlation store) and
writes a disjoint output row, and all per-row operations are elementwise.
The estimator therefore partitions each level's degree groups into row
chunks (:meth:`~repro.core.kernels.LevelSchedule.level_partitions`) and
executes them on the shared :class:`~repro.exec.ParallelService`
(``workers=`` / ``REPRO_EST_WORKERS``): results are **bit-identical** at
any worker count, and ``workers=1`` runs the historical whole-group
partitions on the serial backend — bit-identical to earlier releases.
Both backends run the same partition function, :func:`_fold_partition`,
against a slot holding the schedule, the store and the sweep arrays; the
backend only decides where those arrays live — local arrays on
``serial``, zero-copy segment views (the schedule from the registry, the
sweep state from a per-estimate segment) in ``processes`` workers.  Each estimate opens
its own service in a ``with`` block, so its worker slots are released with
the estimate.

Correlation storage backends
----------------------------

The classical implementation keeps the full ``Θ(|V|²)`` correlation matrix,
which caps the estimator around ~23k tasks.  The matrix storage is
pluggable (see :mod:`repro.estimators.correlation`):

* ``correlation_backend="dense"`` — the full matrix, the bit-reference;
* ``"banded"`` — only correlations between tasks at most ``bandwidth``
  levels apart, in ``Θ(|V| · band)`` memory.  With the default
  ``bandwidth=None`` (auto: the schedule's max edge level span joined with
  the sinks' level spread) the banded sweep consumes exactly the entries
  dense would, and is **bit-identical** to it.

Environment overrides: ``REPRO_CORR_BACKEND`` and ``REPRO_CORR_BANDWIDTH``
(``auto`` or an integer) fill any knob the caller left at ``None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.backends import resolve_kernel_backend
from ..core.graph import TaskGraph
from ..core.kernels import (
    clark_max_moments_batched,
    norm_cdf_batched,
    schedule_for,
)
from ..core.paths import critical_path_length
from ..exec import (
    ParallelService,
    resolve_exec_backend,
    resolve_workers,
)
from ..exec.shm import (
    REGISTRY,
    SegmentHandle,
    SharedSegment,
    attach_schedule,
    attach_segment,
    detach_segment,
    publish_schedule,
)
from ..exceptions import EstimationError
from ..failures.models import ErrorModel
from ..failures.twostate import two_state_moment_vectors
from ..options import resolve
from ..rv.normal import NormalRV, clark_max_moments, norm_cdf
from .base import EstimateResult, MakespanEstimator
from .correlation import (
    attach_correlation_store,
    exact_bandwidth,
    make_correlation_store,
)

__all__ = [
    "CorrelatedNormalEstimator",
    "DEFAULT_MAX_MATRIX_BYTES",
]

#: Target rows per fold partition when the level sweep runs on more than
#: one worker.  Purely a throughput knob (per-row results are partition-
#: invariant): small enough to balance the paper DAGs' levels over a few
#: workers, large enough that the per-partition dispatch overhead stays
#: negligible against the gathers.
_FOLD_PARTITION_ROWS = 256


def _fold_sinks_correlated(
    mean: np.ndarray, var: np.ndarray, corr: np.ndarray
) -> NormalRV:
    """Clark-fold the sink completion times, tracking their correlations.

    Operates on the sinks' own ``(k,)`` moments and ``(k, k)`` correlation
    matrix; Clark's third-variable update is column-independent, so
    restricting the blend to the sink columns is exact.
    """
    k = mean.shape[0]
    final = NormalRV(float(mean[0]), float(var[0]))
    final_corr = corr[0].copy()
    for s in range(1, k):
        rho = float(np.clip(final_corr[s], -1.0, 1.0))
        m, v = clark_max_moments(final.mean, final.variance, mean[s], var[s], rho)
        sigma1, sigma2 = final.std, math.sqrt(max(var[s], 0.0))
        a = math.sqrt(max(final.variance + var[s] - 2 * rho * sigma1 * sigma2, 0.0))
        if v <= 0.0:
            final_corr = np.zeros(k, dtype=np.float64)
        elif a == 0.0:
            final_corr = final_corr if final.mean >= mean[s] else corr[s].copy()
        else:
            alpha = (final.mean - mean[s]) / a
            final_corr = (
                sigma1 * norm_cdf(alpha) * final_corr + sigma2 * norm_cdf(-alpha) * corr[s]
            ) / math.sqrt(v)
            np.clip(final_corr, -1.0, 1.0, out=final_corr)
        final = NormalRV(m, v)
    return final


#: Default ceiling on the correlation-store footprint.  For the dense
#: backend the projection counts two ``(n, n)`` float64 matrices (the
#: matrix itself plus the worst-case level rows of the two-pass fold), so
#: 4 GiB admits DAGs up to ~16,000 tasks; the banded backend projects its
#: ``Θ(|V|·band)`` storage plus fold scratch instead.  The estimator
#: refuses — with an error naming the backend and the bandwidth that would
#: fit — instead of letting the allocation take the process down.
DEFAULT_MAX_MATRIX_BYTES = 4 * 1024**3


def _store_views(arrays: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """The correlation store's arrays of a state payload, prefix stripped."""
    return {
        name[len("store_"):]: view
        for name, view in arrays.items()
        if name.startswith("store_")
    }


@dataclass(frozen=True)
class _CorrelatedFoldSpec:
    """Picklable worker-slot factory of the shared-memory level fold.

    Carries only segment handles and the store's resolved shape knobs; the
    slot-factory protocol calls the spec once per worker process, on the
    worker's first partition of the estimate — and in the parent on backend
    degradation — to attach the zero-copy views.  The *static* segment
    holds the flattened level schedule (published through the
    content-addressed registry: re-runs over the same DAG attach the warm
    segment, and the schedule is rebuilt from views without recompiling);
    the *state* segment holds the per-estimate sweep arrays and the
    correlation store's data arrays.
    """

    static: SegmentHandle
    state: SegmentHandle
    backend: str
    bandwidth: int

    def __call__(self) -> "_CorrelatedFoldSlot":
        schedule = attach_schedule(self.static)
        arrays = attach_segment(*self.state).arrays
        store = attach_correlation_store(
            schedule,
            self.backend,
            bandwidth=self.bandwidth,
            arrays=_store_views(arrays),
        )
        return _CorrelatedFoldSlot(
            schedule, store, arrays, attached=(self.state[0], self.static[0])
        )


class _CorrelatedFoldSlot:
    """The level fold's state: schedule, correlation store, sweep arrays.

    ``arrays`` holds the permuted-space moments (``mean``, ``var``,
    ``task_mean``, ``task_var``) and the per-level writeback buffers
    (``level_mean``, ``level_var``, ``rows``, sized for the widest level)
    every partition writes its disjoint slice of.  The serial backend
    builds the slot from local arrays; ``processes`` workers build it from
    attached segment views (:class:`_CorrelatedFoldSpec`) — both run the
    same :func:`_fold_partition`.
    """

    def __init__(
        self,
        schedule,
        store,
        arrays: Dict[str, np.ndarray],
        attached: Tuple[str, ...] = (),
    ) -> None:
        self.schedule = schedule
        self.store = store
        self.mean = arrays["mean"]
        self.var = arrays["var"]
        self.task_mean = arrays["task_mean"]
        self.task_var = arrays["task_var"]
        self.level_mean = arrays["level_mean"]
        self.level_var = arrays["level_var"]
        self.rows = arrays["rows"]
        self._attached = attached

    def close(self) -> None:
        # Called by pool workers when the estimate's service closes, and
        # for parent-built (degradation) slots.
        for name in self._attached:
            detach_segment(name)


def _level_buffers(schedule, store) -> Dict[str, np.ndarray]:
    """The fold's per-level writeback buffers, sized for the widest level."""
    level_indptr = schedule.level_indptr
    num_levels = schedule.num_levels
    sizes = np.diff(level_indptr[: num_levels + 1])
    max_m = int(sizes.max()) if sizes.size else 0
    max_width = 0
    for level in range(1, num_levels):
        t_hi = int(level_indptr[level + 1])
        max_width = max(max_width, t_hi - store.window_start(level))
    return {
        "level_mean": np.zeros(max_m, dtype=np.float64),
        "level_var": np.zeros(max_m, dtype=np.float64),
        "rows": np.zeros((max_m, max_width), dtype=np.float64),
    }


def _fold_partition(item, slot: _CorrelatedFoldSlot, rng) -> Optional[list]:
    """Batched fold of one ``(group ordinal, row range)`` partition.

    ``item`` is ``(ordinal, lo, hi, w_lo, t_lo, t_hi, replay)``; all
    array state is reached through ``slot``.  All indices are permuted
    buffer rows.  Writes the partition's completion ``(mean, variance)``
    values and correlation rows over the columns ``[w_lo, t_hi)`` into its
    disjoint slices of the slot's level buffers, without mutating the store —
    partitions of one level therefore commute bit-exactly (every per-row
    operation is elementwise), can run concurrently, and retries overwrite
    idempotently.  On pass 1 (``replay is None``) every fold step's
    operand correlation ``rho12`` is read from the gathered rows at the
    predecessor's window column, and the recorded sequence is returned
    (folded back to the parent in partition order); on pass 2 the shipped
    sequence is replayed and ``None`` returned — the operand correlations
    live at *predecessor* columns, which a within-level re-fold never
    changes, so replaying them is what allows pass 2 to fold only the
    within-level columns.
    """
    ordinal, lo, hi, w_lo, t_lo, t_hi, replay = item
    group = slot.schedule.groups[ordinal]
    store = slot.store
    mean, var = slot.mean, slot.var
    rho_record: Optional[list] = [] if replay is None else None
    replay = iter(replay) if replay is not None else None
    preds = group.preds[lo:hi]
    m = hi - lo
    sel = np.arange(m)
    first = preds[:, 0]
    ready_mean = mean[first].copy()
    ready_var = var[first].copy()
    ready_corr = store.gather(first, w_lo, t_hi)
    for j in range(1, preds.shape[1]):
        p = preds[:, j]
        if replay is None:
            rho12 = np.clip(ready_corr[sel, p - w_lo], -1.0, 1.0)
            rho_record.append(rho12)
        else:
            rho12 = next(replay)
        new_mean, new_var = clark_max_moments_batched(
            ready_mean, ready_var, mean[p], var[p], rho12
        )
        sigma1 = np.sqrt(np.maximum(ready_var, 0.0))
        sigma2 = np.sqrt(np.maximum(var[p], 0.0))
        a = np.sqrt(
            np.maximum(
                ready_var + var[p] - 2.0 * rho12 * sigma1 * sigma2, 0.0
            )
        )
        corr_p = store.gather(p, w_lo, t_hi)
        safe_a = np.where(a > 0.0, a, 1.0)
        alpha = (ready_mean - mean[p]) / safe_a
        w1 = norm_cdf_batched(alpha)
        w2 = norm_cdf_batched(-alpha)
        safe_v = np.sqrt(np.where(new_var > 0.0, new_var, 1.0))
        new_corr = (sigma1 * w1)[:, None] * ready_corr
        new_corr += (sigma2 * w2)[:, None] * corr_p
        new_corr /= safe_v[:, None]
        np.clip(new_corr, -1.0, 1.0, out=new_corr)
        # The degenerate branches are per-row conditions and rare;
        # patch those rows instead of re-selecting the whole
        # (m, width) matrix twice.
        flat = a == 0.0
        if flat.any():
            new_corr[flat] = np.where(
                (ready_mean >= mean[p])[flat, None],
                ready_corr[flat],
                corr_p[flat],
            )
        dead = new_var <= 0.0
        if dead.any():
            new_corr[dead] = 0.0
        ready_mean, ready_var, ready_corr = new_mean, new_var, new_corr

    offset = group.start - t_lo + lo
    tv = slot.task_var[group.start + lo : group.start + hi]
    total_var = ready_var + tv
    slot.level_mean[offset : offset + m] = (
        ready_mean + slot.task_mean[group.start + lo : group.start + hi]
    )
    slot.level_var[offset : offset + m] = total_var
    scale = np.where(
        total_var > 0.0,
        np.sqrt(np.maximum(ready_var, 0.0))
        / np.sqrt(np.where(total_var > 0.0, total_var, 1.0)),
        0.0,
    )
    group_rows = ready_corr * scale[:, None]
    if replay is None:
        # Each task is perfectly correlated with itself; its own
        # column sits inside the window on pass 1.
        group_rows[sel, (group.start + lo - w_lo) + sel] = 1.0
    slot.rows[offset : offset + m, : group_rows.shape[1]] = group_rows
    return rho_record


class CorrelatedNormalEstimator(MakespanEstimator):
    """Clark/Sculli propagation with pluggable correlation tracking.

    Parameters
    ----------
    reexecution_factor:
        Execution-time multiplier of a failed task (2 = full re-execution).
    correlation_backend:
        Correlation storage: ``"dense"`` (default, exact, ``Θ(|V|²)``),
        or ``"banded"`` (``Θ(|V|·band)``, bit-equal to dense at the
        default auto bandwidth).  ``None`` consults ``REPRO_CORR_BACKEND``
        and falls back to ``"dense"``.
    bandwidth:
        Level bandwidth of the banded store.  ``None`` (after the
        ``REPRO_CORR_BANDWIDTH`` override) resolves to the *exact*
        bandwidth — the smallest band at which banded is bit-equal to
        dense.
    max_matrix_bytes:
        Ceiling on the projected correlation-store footprint.  Exceeding
        it raises a :class:`~repro.exceptions.ReproError` naming the task
        count, the selected backend and the bandwidth that *would* fit,
        *before* any allocation.  ``None`` restores the default
        (:data:`DEFAULT_MAX_MATRIX_BYTES`).
    workers:
        Worker count of the per-level fold on the shared
        :class:`~repro.exec.ParallelService` (``None`` consults
        ``REPRO_EST_WORKERS`` and falls back to 1).  Purely a throughput
        knob: ``workers=1`` is bit-identical to earlier releases, and any
        worker count is bit-identical for both stores (the per-row fold
        operations are elementwise, hence partition-invariant).
    exec_backend:
        Execution backend of the level fold: ``None`` (after the
        ``REPRO_EXEC_BACKEND`` override) keeps the conventional mapping —
        serial at ``workers=1``, processes otherwise.  ``"processes"``
        runs the fold in worker processes attached zero-copy to the
        estimate's shared-memory segments (schedule through the
        content-addressed registry, moments/store/writeback through a
        per-estimate segment).  Bit-identical to ``serial`` at any worker
        count for every store.
    kernel_backend:
        Accepted and validated like every estimator's kernel knob
        (``None`` resolves ``REPRO_KERNEL_BACKEND``, then ``"numpy"``) and
        echoed in ``details``, but no compiled op serves this estimator:
        both correlation stores read through NumPy block copies, which
        are already bit-identical data movement (see
        :mod:`repro.estimators.correlation`).
    """

    name = "normal-correlated"

    def __init__(
        self,
        *,
        reexecution_factor: float = 2.0,
        correlation_backend: Optional[str] = None,
        bandwidth: Optional[int] = None,
        max_matrix_bytes: Optional[int] = None,
        workers: Optional[int] = None,
        exec_backend: Optional[str] = None,
        exec_retries: Optional[int] = None,
        exec_timeout: Optional[float] = None,
        exec_on_failure: Optional[str] = None,
        kernel_backend: Optional[str] = None,
        validate: bool = True,
    ) -> None:
        super().__init__(validate=validate)
        if reexecution_factor < 1.0:
            raise EstimationError("re-execution factor must be >= 1")
        self.reexecution_factor = reexecution_factor
        self.kernel_backend = resolve_kernel_backend(kernel_backend)
        explicit_bandwidth = bandwidth is not None
        self.correlation_backend = resolve("CORR_BACKEND", correlation_backend, "dense")
        bandwidth = resolve("CORR_BANDWIDTH", bandwidth)
        # An explicitly passed knob the selected backend would silently
        # ignore is an error (environment fills stay lenient so a global
        # REPRO_CORR_* setting cannot poison unrelated runs).
        if explicit_bandwidth and self.correlation_backend == "dense":
            raise EstimationError(
                "bandwidth only applies to the 'banded' correlation "
                "backend; pass correlation_backend='banded' alongside it"
            )
        self.bandwidth = bandwidth
        if max_matrix_bytes is None:
            max_matrix_bytes = DEFAULT_MAX_MATRIX_BYTES
        if max_matrix_bytes <= 0:
            raise EstimationError("max_matrix_bytes must be positive")
        self.max_matrix_bytes = int(max_matrix_bytes)
        self.workers = resolve_workers(workers)
        exec_backend = resolve("EXEC_BACKEND", exec_backend)
        self.exec_backend = (
            resolve_exec_backend(exec_backend, self.workers)
            if exec_backend is not None
            else None
        )
        self.exec_retries = exec_retries
        self.exec_timeout = exec_timeout
        self.exec_on_failure = exec_on_failure

    def _publish_shared_state(self, index, store, arrays):
        """Move the sweep state into shared memory for the processes fold.

        The flattened schedule goes through the content-addressed registry
        (one warm segment per DAG, shared with the Monte Carlo processes
        backend); the sweep arrays and the store's data arrays are packed
        into one fresh segment.  Returns the state segment, the schedule's
        registry key and the worker spec; the store is rebound to the
        segment's views, so the parent keeps folding through the *same*
        physical arrays the workers write.
        """
        payload = dict(arrays)
        for name, array in store.shared_arrays().items():
            payload["store_" + name] = array
        state = SharedSegment.create(payload)
        store.bind_shared(_store_views(state.arrays))
        static_key, static = publish_schedule(index, "up")
        spec = _CorrelatedFoldSpec(
            static=static.handle,
            state=state.handle,
            backend=store.backend,
            bandwidth=int(getattr(store, "bandwidth", 0)),
        )
        return state, static_key, spec

    def _estimate(self, graph: TaskGraph, model: ErrorModel) -> EstimateResult:
        index = graph.index()
        n = index.num_tasks
        task_mean, task_var = two_state_moment_vectors(
            index.weights, model, reexecution_factor=self.reexecution_factor
        )

        schedule = schedule_for(index, "up")
        perm = schedule.perm
        level_indptr = schedule.level_indptr
        topo_rank = index.topo_rank
        sinks = index.sink_indices()
        sink_rows = schedule.rank[sinks]

        store = make_correlation_store(
            schedule,
            self.correlation_backend,
            bandwidth=self.bandwidth,
            sink_rows=sink_rows,
            max_bytes=self.max_matrix_bytes,
        )

        # Permuted-space state: row r describes task perm[r].
        mean = np.zeros(n, dtype=np.float64)
        var = np.zeros(n, dtype=np.float64)
        task_mean_p = task_mean[perm]
        task_var_p = task_var[perm]

        # Level 0 (entry tasks): C_i = X_i, correlation row stays the
        # identity row (zero ready variance).
        if schedule.num_levels:
            stop0 = int(level_indptr[1])
            mean[:stop0] = task_mean_p[:stop0]
            var[:stop0] = task_var_p[:stop0]

        arrays = {
            "mean": mean,
            "var": var,
            "task_mean": task_mean_p,
            "task_var": task_var_p,
            **_level_buffers(schedule, store),
        }
        with ParallelService(
            workers=self.workers,
            backend=self.exec_backend,
            retries=self.exec_retries,
            timeout=self.exec_timeout,
            on_failure=self.exec_on_failure,
        ) as service:
            shared = service.backend == "processes"
            if shared:
                state, static_key, spec = self._publish_shared_state(
                    index, store, arrays
                )
                arrays = state.arrays
                slot_kwargs = {"slot_factory": spec}
            else:
                slot_kwargs = {"slot": _CorrelatedFoldSlot(schedule, store, arrays)}
            mean, var = arrays["mean"], arrays["var"]

            try:
                for level in range(1, schedule.num_levels):
                    t_lo = int(level_indptr[level])
                    t_hi = int(level_indptr[level + 1])
                    # The per-level fold partitions: whole groups on one worker
                    # (the historical evaluation order), row chunks of the
                    # degree groups when the service spreads a level over
                    # several workers.
                    if self.workers == 1:
                        parts = tuple(
                            (group, 0, group.stop - group.start)
                            for group in schedule.level_groups(level)
                        )
                    else:
                        parts = schedule.level_partitions(
                            level, _FOLD_PARTITION_ROWS
                        )
                    w_lo = store.window_start(level)
                    m_level = t_hi - t_lo
                    base = int(schedule.group_indptr[level])
                    ordinal = {
                        id(group): base + i
                        for i, group in enumerate(schedule.level_groups(level))
                    }

                    # Pass 1: fold against the pre-level store; correct for
                    # every entry except the pairs inside this level.  The
                    # operand correlations of each fold step are recorded per
                    # partition for pass 2.
                    records = service.run(
                        _fold_partition,
                        [
                            (ordinal[id(group)], lo, hi, w_lo, t_lo, t_hi, None)
                            for group, lo, hi in parts
                        ],
                        **slot_kwargs,
                    )
                    mean[t_lo:t_hi] = arrays["level_mean"][:m_level]
                    var[t_lo:t_hi] = arrays["level_var"][:m_level]
                    store.write_level(
                        level, w_lo, arrays["rows"][:m_level, : t_hi - w_lo]
                    )

                    if m_level > 1:
                        # Pass 2: re-fold now that the level's columns are
                        # written, restricted to those columns (the only
                        # entries pass 1 got wrong); the recorded rho12
                        # sequences stand in for the full-window gathers.
                        # Clark's third-variable update is independent per
                        # column, so the re-fold recovers, for every
                        # within-level pair, the entry the *later* task (in
                        # topological order) computes from the earlier task's
                        # fresh row — exactly the value the sequential
                        # recurrence leaves in the matrix.
                        service.run(
                            _fold_partition,
                            [
                                (ordinal[id(group)], lo, hi, t_lo, t_lo, t_hi,
                                 records[i])
                                for i, (group, lo, hi) in enumerate(parts)
                            ],
                            **slot_kwargs,
                        )
                        block = arrays["rows"][:m_level, :m_level]
                        order = topo_rank[perm[t_lo:t_hi]]
                        later = order[:, None] > order[None, :]
                        final_block = np.where(later, block, block.T)
                        np.fill_diagonal(final_block, 1.0)
                        store.write_block(level, final_block)

                final = _fold_sinks_correlated(
                    mean[sink_rows], var[sink_rows], store.pair_matrix(sink_rows)
                )
            finally:
                if shared:
                    # Order matters for hygiene: drop this process's cached
                    # attachments (built by degradation slots, if any) before
                    # destroying the state segment, then drop the registry
                    # reference on the schedule segment (kept warm for the
                    # next estimate over the same DAG unless the registry's
                    # budget evicts it).
                    detach_segment(state.name)
                    detach_segment(spec.static[0])
                    state.destroy()
                    REGISTRY.release(static_key)

        details = {
            "makespan_variance": final.variance,
            "makespan_std": final.std,
            "reexecution_factor": self.reexecution_factor,
            "correlation_backend": store.backend,
            "correlation_store_bytes": store.nbytes,
            "kernel_backend": self.kernel_backend,
            "fold_workers": self.workers,
            "execution": service.report.as_dict(),
        }
        if store.backend != "dense":
            details["correlation_bandwidth"] = store.bandwidth
            details["exact_bandwidth"] = exact_bandwidth(schedule, sink_rows)

        return EstimateResult(
            method=self.name,
            expected_makespan=final.mean,
            failure_free_makespan=critical_path_length(index),
            wall_time=0.0,
            details=details,
        )
