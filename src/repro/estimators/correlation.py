"""Correlation-storage backends for the correlated-normal estimator.

The correlated estimator propagates a full correlation matrix between task
completion times, which costs ``Θ(|V|²)`` memory — the reason the paper's
correlated-normal ablation historically capped out around ~23k tasks.  This
module factors the *storage* of that matrix out of the propagation into
two interchangeable backends keyed off the compiled
:class:`~repro.core.kernels.LevelSchedule`:

``dense``
    The classical ``(n, n)`` float64 matrix (in level-permuted row order).
    Exact, and the bit-reference of the differential tests.

``banded``
    A symmetric banded block structure: the row of a task at level ``L``
    stores its correlations with tasks of levels ``[L - bandwidth, L]``
    only (one contiguous CSR-like segment per row; the upper half of the
    band is served through symmetry from the *later* task's row).
    Correlations between tasks more than ``bandwidth`` levels apart are
    dropped (read as zero).  Memory is ``Θ(|V| · band)`` where ``band`` is
    the number of tasks inside a ``bandwidth``-level window.

    Whenever ``bandwidth >= exact_bandwidth(schedule, ...)`` — the maximum
    of the schedule's edge level span and the level spread of the sink
    tasks — every correlation entry the level sweep *consumes* lies inside
    the band, and the banded propagation is **bit-identical** to dense
    (Clark's third-variable update is column-independent, so restricting
    the tracked columns never perturbs the retained ones).

All stores work in the schedule's *permuted* row space, where levels are
contiguous: a level's band window is one contiguous column range, so
gathers and scatters stay vectorised.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..core.backends import get_kernel, resolve_kernel_backend
from ..core.kernels import LevelSchedule
from ..exceptions import EstimationError, GraphError
from ..options import KNOBS

__all__ = [
    "CORRELATION_BACKENDS",
    "exact_bandwidth",
    "projected_store_bytes",
    "largest_feasible_bandwidth",
    "CorrelationStore",
    "DenseCorrelationStore",
    "BandedCorrelationStore",
    "attach_correlation_store",
    "make_correlation_store",
]

#: The correlation-storage backends of the correlated estimator.
CORRELATION_BACKENDS = KNOBS["CORR_BACKEND"].choices

#: Row-chunk budget of the masked band gathers (elements per chunk): keeps
#: the integer index temporaries of one gather below ~256 MiB even on
#: paper-scale levels.
_GATHER_CHUNK_ELEMENTS = 1 << 24


def normalize_correlation_backend(name: str) -> str:
    """Validate a correlation-backend name."""
    return KNOBS["CORR_BACKEND"].parse(name, "correlation backend")


def exact_bandwidth(schedule: LevelSchedule, sink_rows: np.ndarray) -> int:
    """Smallest bandwidth at which the banded store is bit-equal to dense.

    The level sweep only ever consumes correlation entries between tasks at
    most ``max_edge_level_span`` levels apart, and the final sink fold
    consumes entries between sinks — at most their level spread apart.
    A band covering both therefore retains every consumed entry.
    """
    bandwidth = int(schedule.max_edge_level_span)
    sink_rows = np.asarray(sink_rows)
    if sink_rows.size:
        levels = schedule.row_level[sink_rows]
        bandwidth = max(bandwidth, int(levels.max() - levels.min()))
    return bandwidth


def _band_widths(level_sizes: np.ndarray, bandwidth: int) -> np.ndarray:
    """Per-level stored row width (columns of levels ``[L - b, L]``)."""
    num_levels = level_sizes.shape[0]
    prefix = np.concatenate(([0], np.cumsum(level_sizes)))
    lo = np.maximum(np.arange(num_levels) - bandwidth, 0)
    return prefix[1 : num_levels + 1] - prefix[lo]


def _banded_data_bytes(level_sizes: np.ndarray, bandwidth: int) -> int:
    widths = _band_widths(level_sizes, bandwidth)
    return int((level_sizes * widths).sum()) * np.dtype(np.float64).itemsize


def projected_store_bytes(schedule: LevelSchedule, backend: str, bandwidth: int) -> int:
    """Projected memory footprint of one backend, *before* any allocation.

    Covers the persistent storage plus the worst-case per-level fold
    temporaries (a few band-window-wide row blocks for the largest level).
    """
    n = schedule.num_tasks
    itemsize = np.dtype(np.float64).itemsize
    level_sizes = np.diff(schedule.level_indptr).astype(np.int64)
    if backend == "dense":
        return 2 * n * n * itemsize
    max_level = int(level_sizes.max()) if level_sizes.size else 0
    window_span = max(bandwidth, int(schedule.max_edge_level_span)) + 1
    if level_sizes.size:
        prefix = np.concatenate(([0], np.cumsum(level_sizes)))
        K = level_sizes.shape[0]
        lo = np.maximum(np.arange(K) - (window_span - 1), 0)
        max_window = int((prefix[1 : K + 1] - prefix[lo]).max())
    else:
        max_window = 0
    data = _banded_data_bytes(level_sizes, bandwidth)
    return data + 4 * max_level * max_window * itemsize


def largest_feasible_bandwidth(
    schedule: LevelSchedule,
    backend: str,
    max_bytes: int,
    start: Optional[int] = None,
) -> Optional[int]:
    """Largest bandwidth whose projected footprint fits ``max_bytes``.

    Scans downwards from ``start`` (default: the number of levels minus
    one); returns ``None`` when even ``bandwidth=0`` does not fit.
    """
    if backend == "dense":
        backend = "banded"
    num_levels = schedule.num_levels
    upper = num_levels - 1 if start is None else min(start, num_levels - 1)
    for bandwidth in range(max(upper, 0), -1, -1):
        if projected_store_bytes(schedule, backend, bandwidth) <= max_bytes:
            return bandwidth
    return None


class CorrelationStore:
    """Storage interface the correlated level sweep runs against.

    All row/column indices are *permuted* (level-contiguous) buffer rows of
    the schedule.  The store is initialised to the identity (every task
    perfectly correlated with itself, uncorrelated with everything else).
    """

    backend = "abstract"

    def __init__(self, schedule: LevelSchedule) -> None:
        self.schedule = schedule
        self._indptr = schedule.level_indptr

    def window_start(self, level: int) -> int:
        """First permuted column the level-``level`` fold must gather."""
        raise NotImplementedError

    def gather(self, rows: np.ndarray, w_lo: int, w_hi: int) -> np.ndarray:
        """Correlation rows over the column window ``[w_lo, w_hi)``.

        Returns a fresh ``(len(rows), w_hi - w_lo)`` array; out-of-band
        entries of the banded store read as 0.
        """
        raise NotImplementedError

    def write_level(self, level: int, w_lo: int, rows_block: np.ndarray) -> None:
        """Store a level's freshly folded rows over the window columns."""
        raise NotImplementedError

    def write_block(self, level: int, block: np.ndarray) -> None:
        """Overwrite a level's within-level correlation block."""
        raise NotImplementedError

    def pair_matrix(self, rows: np.ndarray) -> np.ndarray:
        """The ``(k, k)`` correlation matrix of an arbitrary row subset."""
        raise NotImplementedError

    @property
    def nbytes(self) -> int:
        """Bytes held by the store's persistent arrays."""
        raise NotImplementedError

    def shared_arrays(self) -> Dict[str, np.ndarray]:
        """The mutable persistent arrays, for shared-memory publication."""
        raise NotImplementedError

    def bind_shared(self, arrays: Dict[str, np.ndarray]) -> None:
        """Rebind the persistent arrays to (already-copied) shared views."""
        raise NotImplementedError

    def _level_range(self, level: int) -> Tuple[int, int]:
        return int(self._indptr[level]), int(self._indptr[level + 1])


class DenseCorrelationStore(CorrelationStore):
    """The classical ``(n, n)`` matrix — exact, and the bit-reference."""

    backend = "dense"

    def __init__(self, schedule: LevelSchedule) -> None:
        super().__init__(schedule)
        self._corr = np.eye(schedule.num_tasks, dtype=np.float64)

    @classmethod
    def attach(
        cls, schedule: LevelSchedule, arrays: Dict[str, np.ndarray]
    ) -> "DenseCorrelationStore":
        """A store over an existing (attached) correlation matrix view."""
        store = cls.__new__(cls)
        CorrelationStore.__init__(store, schedule)
        store._corr = arrays["corr"]
        return store

    def shared_arrays(self) -> Dict[str, np.ndarray]:
        return {"corr": self._corr}

    def bind_shared(self, arrays: Dict[str, np.ndarray]) -> None:
        self._corr = arrays["corr"]

    def window_start(self, level: int) -> int:
        # Dense keeps the full history: every processed column participates.
        return 0

    def gather(self, rows: np.ndarray, w_lo: int, w_hi: int) -> np.ndarray:
        return self._corr[rows, w_lo:w_hi].copy()

    def write_level(self, level: int, w_lo: int, rows_block: np.ndarray) -> None:
        t_lo, t_hi = self._level_range(level)
        self._corr[t_lo:t_hi, w_lo:t_hi] = rows_block
        self._corr[w_lo:t_lo, t_lo:t_hi] = rows_block[:, : t_lo - w_lo].T

    def write_block(self, level: int, block: np.ndarray) -> None:
        t_lo, t_hi = self._level_range(level)
        self._corr[t_lo:t_hi, t_lo:t_hi] = block

    def pair_matrix(self, rows: np.ndarray) -> np.ndarray:
        return self._corr[np.ix_(rows, rows)].copy()

    @property
    def nbytes(self) -> int:
        return self._corr.nbytes


class BandedCorrelationStore(CorrelationStore):
    """Symmetric banded storage: each row keeps ``bandwidth`` levels back.

    Row ``r`` at level ``L`` stores the contiguous column segment
    ``[level_start(max(0, L - bandwidth)), level_stop(L))``; an entry with
    the *higher*-level task is stored in that task's row and read through
    symmetry.  Entries outside both rows' bands read as zero.
    """

    backend = "banded"

    def __init__(
        self,
        schedule: LevelSchedule,
        bandwidth: int,
        *,
        kernel_backend: Optional[str] = None,
    ) -> None:
        super().__init__(schedule)
        self._init_band_geometry(bandwidth, kernel_backend=kernel_backend)
        self._data = np.zeros(int(self._ptr[-1]), dtype=np.float64)
        rows = np.arange(schedule.num_tasks, dtype=np.int64)
        self._data[self._ptr[rows] + rows - self._off] = 1.0

    def _init_band_geometry(
        self, bandwidth: int, *, kernel_backend: Optional[str] = None
    ) -> None:
        """Band CSR geometry — cheap vectorised O(n), shared by attach()."""
        if bandwidth < 0:
            raise EstimationError("correlation bandwidth must be >= 0")
        try:
            self.kernel_backend = resolve_kernel_backend(kernel_backend)
        except GraphError as exc:
            raise EstimationError(str(exc)) from None
        #: Fused masked-symmetric gather of the compiled backend
        #: (``None`` = run the chunked NumPy reference).
        self._gather_fn = get_kernel("band_gather", self.kernel_backend)
        schedule = self.schedule
        self.bandwidth = int(bandwidth)
        indptr = schedule.level_indptr
        num_levels = schedule.num_levels
        level = schedule.row_level
        # Per-row band geometry (uniform within a level).
        lo_level = np.maximum(np.arange(num_levels) - self.bandwidth, 0)
        self._level_off = indptr[lo_level]
        self._level_wid = indptr[1 : num_levels + 1] - self._level_off
        self._off = self._level_off[level]
        self._wid = self._level_wid[level]
        self._ptr = np.concatenate(
            ([0], np.cumsum(self._wid, dtype=np.int64))
        )
        self._window_span = max(
            self.bandwidth, int(schedule.max_edge_level_span)
        )
        # Per-window gather plans, cached *on the schedule* keyed by
        # bandwidth: every store over the same (schedule, bandwidth) pair —
        # including worker-side attached stores — shares one plan dict, so
        # the column-side index arrays of the level sweep's masked
        # symmetric gathers are materialised once per window instead of
        # once per partition (ROADMAP 3a).
        plans = schedule.__dict__.get("_band_gather_plans")
        if plans is None:
            plans = {}
            object.__setattr__(schedule, "_band_gather_plans", plans)
        self._gather_plans = plans.setdefault(self.bandwidth, {})

    @classmethod
    def attach(
        cls,
        schedule: LevelSchedule,
        bandwidth: int,
        arrays: Dict[str, np.ndarray],
        *,
        kernel_backend: Optional[str] = None,
    ) -> "BandedCorrelationStore":
        """A store over an existing (attached) band-data view.

        Recomputes the cheap geometry arrays locally and binds the heavy
        ``band_data`` payload zero-copy; no identity initialisation runs
        (the creating process already did it).
        """
        store = cls.__new__(cls)
        CorrelationStore.__init__(store, schedule)
        store._init_band_geometry(bandwidth, kernel_backend=kernel_backend)
        store._data = arrays["band_data"]
        return store

    def shared_arrays(self) -> Dict[str, np.ndarray]:
        return {"band_data": self._data}

    def bind_shared(self, arrays: Dict[str, np.ndarray]) -> None:
        self._data = arrays["band_data"]

    def window_start(self, level: int) -> int:
        # Wide enough to contain every predecessor of the level (the fold
        # reads operand correlations at predecessor columns) and the band.
        return int(self._indptr[max(0, level - self._window_span)])

    def _window_plan(self, w_lo: int, w_hi: int):
        """The cached column-side gather indices of one window.

        The column arrays of :meth:`_gather_with` depend only on the
        column range — not on the gathered rows — and every partition of a
        level gathers the same window, so they are computed once per
        ``(bandwidth, w_lo, w_hi)`` and shared through the schedule.
        """
        plan = self._gather_plans.get((w_lo, w_hi))
        if plan is None:
            cols = np.arange(w_lo, w_hi, dtype=np.int64)
            plan = (
                cols,
                self._off[w_lo:w_hi][None, :],
                self._wid[w_lo:w_hi][None, :],
                self._ptr[w_lo:w_hi][None, :],
            )
            self._gather_plans[(w_lo, w_hi)] = plan
        return plan

    def _gather_with(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        col_off: np.ndarray,
        col_wid: np.ndarray,
        col_ptr: np.ndarray,
    ) -> np.ndarray:
        """Masked symmetric gather with precomputed column-side indices."""
        m, w = rows.shape[0], cols.shape[0]
        fn = self._gather_fn
        if fn is not None and m and w:
            # One fused pass over the output: no per-window index/mask
            # temporaries, no chunking (the compiled loop allocates only
            # the result).  Bit-identical to the chunked reference: pure
            # data movement.
            out = np.empty((m, w), dtype=np.float64)
            try:
                fn(
                    out,
                    self._data,
                    rows,
                    cols,
                    np.ravel(col_off),
                    np.ravel(col_wid),
                    np.ravel(col_ptr),
                    self._off,
                    self._wid,
                    self._ptr,
                )
            except Exception:
                # Graceful per-function fallback for unsupported
                # dtypes/shapes: disable the fused path for this store.
                self._gather_fn = None
            else:
                return out
        out = np.empty((m, w), dtype=np.float64)
        chunk = max(1, _GATHER_CHUNK_ELEMENTS // max(w, 1))
        ptr, off, wid = self._ptr, self._off, self._wid
        for a in range(0, m, chunk):
            b = min(a + chunk, m)
            sub = rows[a:b]
            rel_r = cols[None, :] - off[sub][:, None]
            in_r = (rel_r >= 0) & (rel_r < wid[sub][:, None])
            rel_c = sub[:, None] - col_off
            in_c = (rel_c >= 0) & (rel_c < col_wid) & ~in_r
            idx = np.where(in_r, ptr[sub][:, None] + rel_r, 0)
            idx = np.where(in_c, col_ptr + rel_c, idx)
            val = self._data[idx]
            val[~(in_r | in_c)] = 0.0
            out[a:b] = val
        return out

    def _gather_cols(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Masked symmetric gather of arbitrary rows × columns."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        return self._gather_with(
            rows,
            cols,
            self._off[cols][None, :],
            self._wid[cols][None, :],
            self._ptr[cols][None, :],
        )

    def gather(self, rows: np.ndarray, w_lo: int, w_hi: int) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        return self._gather_with(rows, *self._window_plan(int(w_lo), int(w_hi)))

    def write_level(self, level: int, w_lo: int, rows_block: np.ndarray) -> None:
        t_lo, t_hi = self._level_range(level)
        off = int(self._level_off[level])
        wid = int(self._level_wid[level])
        seg = rows_block[:, off - w_lo : off - w_lo + wid]
        self._data[self._ptr[t_lo] : self._ptr[t_hi]] = seg.ravel()

    def write_block(self, level: int, block: np.ndarray) -> None:
        t_lo, t_hi = self._level_range(level)
        m = t_hi - t_lo
        wid = int(self._level_wid[level])
        base = t_lo - int(self._level_off[level])
        view = self._data[self._ptr[t_lo] : self._ptr[t_hi]].reshape(m, wid)
        view[:, base : base + m] = block

    def pair_matrix(self, rows: np.ndarray) -> np.ndarray:
        return self._gather_cols(rows, rows)

    @property
    def nbytes(self) -> int:
        return self._data.nbytes


def make_correlation_store(
    schedule: LevelSchedule,
    backend: str,
    *,
    bandwidth: Optional[int],
    sink_rows: np.ndarray,
    max_bytes: int,
    kernel_backend: Optional[str] = None,
) -> CorrelationStore:
    """Build a store, refusing — with a clear error — when it cannot fit.

    ``bandwidth=None`` resolves to :func:`exact_bandwidth`, i.e. the
    smallest band at which the banded store is bit-equal to dense.  The
    memory guard projects the footprint *before* allocating and names the
    selected backend plus the largest bandwidth that *would* fit under
    ``max_bytes``, so the knob is discoverable from the failure.
    """
    backend = normalize_correlation_backend(backend)
    resolved_bw = exact_bandwidth(schedule, sink_rows) if bandwidth is None else int(bandwidth)
    n = schedule.num_tasks
    projected = projected_store_bytes(schedule, backend, resolved_bw)
    if projected > max_bytes:
        feasible = largest_feasible_bandwidth(
            schedule, "banded", max_bytes,
            start=resolved_bw if backend != "dense" else None,
        )
        if feasible is None:
            hint = (
                "no bandwidth fits under the ceiling; use the 'normal' "
                "(Sculli) estimator whose memory is Θ(|V|)"
            )
        else:
            hint = (
                ("correlation_backend='banded' with " if backend == "dense" else "")
                + f"bandwidth<={feasible} "
                f"(~{projected_store_bytes(schedule, 'banded', feasible):,} "
                f"bytes) would fit"
            )
        raise EstimationError(
            f"correlated estimator with correlation_backend={backend!r}"
            + ("" if backend == "dense" else f" (bandwidth={resolved_bw})")
            + f": {n} tasks project to ~{projected:,} bytes "
            f"({projected / 1024**3:.2f} GiB), above the max_matrix_bytes "
            f"ceiling of {max_bytes:,}; raise max_matrix_bytes, or {hint}"
        )
    if backend == "dense":
        return DenseCorrelationStore(schedule)
    return BandedCorrelationStore(schedule, resolved_bw, kernel_backend=kernel_backend)


def attach_correlation_store(
    schedule: LevelSchedule,
    backend: str,
    *,
    bandwidth: int,
    arrays: Dict[str, np.ndarray],
    kernel_backend: Optional[str] = None,
) -> CorrelationStore:
    """A store bound to another process's :meth:`shared_arrays` payload.

    The counterpart of :func:`make_correlation_store` for the ``processes``
    execution backend: geometry is recomputed locally (cheap, deterministic
    given ``schedule``/``bandwidth``), the heavy data arrays are zero-copy
    views of the creator's shared segment.  No memory guard runs — the
    creating process already passed it.
    """
    backend = normalize_correlation_backend(backend)
    if backend == "dense":
        return DenseCorrelationStore.attach(schedule, arrays)
    return BandedCorrelationStore.attach(
        schedule, int(bandwidth), arrays, kernel_backend=kernel_backend
    )
