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

    Every row of a level stores the same column range, so the level's rows
    lie back to back as one ``(size(L), width(L))`` *level block*: entry
    ``(r, c)`` is

    * in row ``r``'s own block row when ``level(c) <= level(r)`` (and
      ``c`` lies inside that row's band);
    * column ``r - level_start(level(c) - bandwidth)`` of ``level(c)``'s
      block, transposed, when ``level(r) < level(c) <= level(r) +
      bandwidth``;
    * zero otherwise.

    A gather therefore zeroes its output and makes one row-indexed slice
    copy per distinct row level plus one transposed copy per later column
    level inside the band — pure data movement, no per-entry index or
    mask arrays.  :meth:`~BandedCorrelationStore.pair_matrix` gathers one
    column level at a time.

All stores work in the schedule's *permuted* row space, where levels are
contiguous: a level's band window is one contiguous column range, so
gathers and scatters stay vectorised.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..core.kernels import LevelSchedule
from ..exceptions import EstimationError
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

    The segment geometry is uniform within a level, so the rows of level
    ``L`` lie back to back as one ``(size(L), width(L))`` *level block*
    (see the module docstring for how reads are served from the blocks).
    """

    backend = "banded"

    def __init__(self, schedule: LevelSchedule, bandwidth: int) -> None:
        super().__init__(schedule)
        self._init_band_geometry(bandwidth)
        self.bind_shared(
            {"band_data": np.zeros(self._level_ptr[-1], dtype=np.float64)}
        )
        for level, block in enumerate(self._blocks):
            t_lo, t_hi = self._level_range(level)
            base = t_lo - self._level_off[level]
            diagonal = np.arange(t_hi - t_lo)
            block[diagonal, base + diagonal] = 1.0

    def _init_band_geometry(self, bandwidth: int) -> None:
        """Level-block geometry — ``O(levels)``, shared by attach()."""
        if bandwidth < 0:
            raise EstimationError("correlation bandwidth must be >= 0")
        schedule = self.schedule
        self.bandwidth = int(bandwidth)
        indptr = schedule.level_indptr[: schedule.num_levels + 1]
        lo_level = np.maximum(np.arange(schedule.num_levels) - self.bandwidth, 0)
        level_off = indptr[lo_level]
        level_wid = indptr[1:] - level_off
        level_ptr = np.concatenate(
            ([0], np.cumsum(np.diff(indptr) * level_wid, dtype=np.int64))
        )
        # Plain ints: every gather walks these per level, not per entry.
        self._level_starts = indptr.tolist()
        self._level_off = level_off.tolist()
        self._level_wid = level_wid.tolist()
        self._level_ptr = level_ptr.tolist()
        self._window_span = max(
            self.bandwidth, int(schedule.max_edge_level_span)
        )

    @classmethod
    def attach(
        cls,
        schedule: LevelSchedule,
        bandwidth: int,
        arrays: Dict[str, np.ndarray],
    ) -> "BandedCorrelationStore":
        """A store over an existing (attached) band-data view.

        Recomputes the cheap geometry locally and binds the heavy
        ``band_data`` payload zero-copy; no identity initialisation runs
        (the creating process already did it).
        """
        store = cls.__new__(cls)
        CorrelationStore.__init__(store, schedule)
        store._init_band_geometry(bandwidth)
        store.bind_shared(arrays)
        return store

    def shared_arrays(self) -> Dict[str, np.ndarray]:
        return {"band_data": self._data}

    def bind_shared(self, arrays: Dict[str, np.ndarray]) -> None:
        self._data = arrays["band_data"]
        #: One ``(size, width)`` view per level over its stored rows.
        self._blocks = [
            self._data[self._level_ptr[level] : self._level_ptr[level + 1]]
            .reshape(-1, self._level_wid[level])
            for level in range(len(self._level_wid))
        ]

    def window_start(self, level: int) -> int:
        # Wide enough to contain every predecessor of the level (the fold
        # reads operand correlations at predecessor columns) and the band.
        return self._level_starts[max(0, level - self._window_span)]

    def gather(self, rows: np.ndarray, w_lo: int, w_hi: int) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        w_lo, w_hi = int(w_lo), int(w_hi)
        out = np.zeros((rows.shape[0], w_hi - w_lo), dtype=np.float64)
        if not rows.size or w_hi <= w_lo:
            return out
        row_level = self.schedule.row_level
        levels = row_level[rows]
        lev_lo, lev_hi = int(levels.min()), int(levels.max())
        # The row positions grouped by level: rows of levels ``[a, b]`` are
        # ``order[cum[a - lev_lo] : cum[b + 1 - lev_lo]]``.
        if lev_lo == lev_hi:
            # One row level, the fold's usual case: plain slices select.
            order, cum = None, [0, rows.shape[0]]
        else:
            order = np.argsort(levels, kind="stable")
            cum = [0] + np.cumsum(np.bincount(levels - lev_lo)).tolist()
        starts, off = self._level_starts, self._level_off
        # Own segments: one row-indexed slice copy per row level.
        for level in range(lev_lo, lev_hi + 1):
            a, b = cum[level - lev_lo], cum[level + 1 - lev_lo]
            c_lo, c_hi = max(w_lo, off[level]), min(w_hi, starts[level + 1])
            if a == b or c_lo >= c_hi:
                continue
            sel = slice(a, b) if order is None else order[a:b]
            out[sel, c_lo - w_lo : c_hi - w_lo] = self._blocks[level][
                rows[sel] - starts[level], c_lo - off[level] : c_hi - off[level]
            ]
        # Symmetric reads: one transposed copy per later column level, for
        # the rows of the ``bandwidth`` levels below it.
        col_lo = max(int(row_level[w_lo]), lev_lo + 1)
        col_hi = min(int(row_level[w_hi - 1]), lev_hi + self.bandwidth)
        for level in range(col_lo, col_hi + 1):
            a = cum[max(level - self.bandwidth - lev_lo, 0)]
            b = cum[min(level, lev_hi + 1) - lev_lo]
            if a == b:
                continue
            sel = slice(a, b) if order is None else order[a:b]
            c_lo, c_hi = max(w_lo, starts[level]), min(w_hi, starts[level + 1])
            out[sel, c_lo - w_lo : c_hi - w_lo] = self._blocks[level][
                c_lo - starts[level] : c_hi - starts[level],
                rows[sel] - off[level],
            ].T
        return out

    def write_level(self, level: int, w_lo: int, rows_block: np.ndarray) -> None:
        off = self._level_off[level]
        self._blocks[level][:] = rows_block[
            :, off - w_lo : off - w_lo + self._level_wid[level]
        ]

    def write_block(self, level: int, block: np.ndarray) -> None:
        t_lo, t_hi = self._level_range(level)
        base = t_lo - self._level_off[level]
        self._blocks[level][:, base : base + t_hi - t_lo] = block

    def pair_matrix(self, rows: np.ndarray) -> np.ndarray:
        # One window gather per column level keeps the temporaries at
        # ``len(rows)`` x one level's width.
        rows = np.asarray(rows, dtype=np.int64)
        out = np.empty((rows.shape[0], rows.shape[0]), dtype=np.float64)
        levels = self.schedule.row_level[rows]
        for level in np.unique(levels).tolist():
            cols = np.flatnonzero(levels == level)
            t_lo, t_hi = self._level_range(level)
            out[:, cols] = self.gather(rows, t_lo, t_hi)[:, rows[cols] - t_lo]
        return out

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
    return BandedCorrelationStore(schedule, resolved_bw)


def attach_correlation_store(
    schedule: LevelSchedule,
    backend: str,
    *,
    bandwidth: int,
    arrays: Dict[str, np.ndarray],
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
    return BandedCorrelationStore.attach(schedule, int(bandwidth), arrays)
