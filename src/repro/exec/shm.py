"""Zero-copy shared-memory kernel plane for the processes backend.

The processes backend historically shipped every worker a pickled graph
payload and let it *rebuild* compiled kernels (level schedules, moment
vectors, band CSR geometry) from scratch — an O(V + E) Python recompile
per worker per pool, plus a full copy of every hot array in every worker's
private heap.  This module removes both costs:

``SharedSegment``
    Packs a dict of named NumPy arrays into **one** POSIX shared-memory
    block (``multiprocessing.shared_memory``) with a picklable layout
    (name, dtype, shape, byte offset).  The parent creates and owns the
    block (and is responsible for unlinking it); workers attach zero-copy
    views by their picklable :data:`SegmentHandle` (segment name, layout)
    through the slot-factory protocol.

``SegmentRegistry``
    A process-global, content-addressed cache of published segments: a
    :class:`PinnedLRU`, the pin/latch/LRU/budget protocol that the
    estimation service's :class:`~repro.service.cache.ScheduleCache`
    shares.  Keys are structural hashes (:func:`content_key`) of the
    arrays' *sources* — e.g. the DAG's CSR arrays plus schedule
    parameters — so repeated runs over the same graph re-use one warm
    segment instead of republishing.  ``publish`` pins a segment until its
    ``release``; released segments stay warm until the budget evicts them
    (a budget of 0 unlinks on last release) or :meth:`clear` (registered
    ``atexit``) does, so no ``/dev/shm`` entry outlives the parent process.

``publish_schedule`` / ``attach_schedule``
    The one place that knows the registry key of a compiled
    :class:`~repro.core.kernels.LevelSchedule` (:func:`schedule_key`), so
    every publisher of the same DAG's schedule — the Monte Carlo processes
    backend, the correlated and second-order estimators, the estimation
    service's cache — shares one warm segment.

Determinism is unaffected by any of this: segments hold *read-only*
inputs (schedules, moment vectors, band geometry) plus per-partition
writeback slices that are disjoint by construction and folded by the
parent strictly in partition-index order — the same contract the threads
backend honours.
"""

from __future__ import annotations

import atexit
import hashlib
import threading
from collections import OrderedDict
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.graph import GraphIndex
from ..core.kernels import (
    LevelSchedule,
    schedule_arrays,
    schedule_for,
    schedule_from_arrays,
)

__all__ = [
    "AttachedSegment",
    "PinnedLRU",
    "REGISTRY",
    "SegmentHandle",
    "SegmentRegistry",
    "SharedSegment",
    "attach_schedule",
    "attach_segment",
    "attach_shared_memory",
    "content_key",
    "detach_segment",
    "publish_schedule",
    "schedule_key",
]

#: Byte alignment of every array inside a segment (one cache line).
_ALIGNMENT = 64

#: ``(name, dtype string, shape, byte offset)`` per array — picklable, so
#: worker slot specs can carry it next to the segment name.
SegmentLayout = Tuple[Tuple[str, str, Tuple[int, ...], int], ...]

#: ``(segment name, layout)`` — everything a worker needs to attach a
#: segment; what slot specs carry instead of the segment itself.
SegmentHandle = Tuple[str, SegmentLayout]


def content_key(*parts: Union[np.ndarray, str, int, float, bool, None]) -> str:
    """Structural hash of arrays and scalars, usable as a registry key.

    Arrays contribute dtype, shape and raw bytes; everything else its
    ``repr``.  Equal inputs therefore always map to the same key and the
    registry can deduplicate publications across independent callers.
    """
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            digest.update(str(arr.dtype).encode())
            digest.update(repr(arr.shape).encode())
            digest.update(arr.tobytes())
        else:
            digest.update(repr(part).encode())
        digest.update(b"|")
    return digest.hexdigest()


def _pack_layout(arrays: Dict[str, np.ndarray]) -> Tuple[SegmentLayout, int]:
    layout = []
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = -(-offset // _ALIGNMENT) * _ALIGNMENT
        layout.append((name, array.dtype.str, tuple(array.shape), offset))
        offset += array.nbytes
    return tuple(layout), max(offset, 1)


def _map_views(buf, layout: SegmentLayout) -> Dict[str, np.ndarray]:
    views = {}
    for name, dtype, shape, offset in layout:
        views[name] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf, offset=offset)
    return views


#: Serialises the pre-3.13 ``resource_tracker.register`` swap below: the
#: monkeypatch is process-global state, and two threads attaching
#: concurrently could otherwise interleave their save/restore and leave
#: tracker registration suppressed (leak warnings lost forever) or
#: re-enabled mid-attach (the worker "owns" — and later destroys — a
#: segment it merely attached).
_TRACKER_LOCK = threading.Lock()


def attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership.

    Only the creating process may unlink a segment; attaching workers must
    not register it with their ``resource_tracker`` or the segment would be
    destroyed (with a warning) when the *worker* exits.  Python >= 3.13
    exposes ``track=False`` for exactly this; older versions need the
    registration suppressed manually — under :data:`_TRACKER_LOCK`, since
    the suppression is a process-global monkeypatch.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        with _TRACKER_LOCK:
            original = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                return shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original


class SharedSegment:
    """A parent-owned shared-memory block holding named array views.

    The creating process is the owner: it must eventually :meth:`unlink`
    the segment (removing its ``/dev/shm`` entry; live mappings keep
    working until they are closed).  ``close`` is best-effort — NumPy
    views handed out to callers can legitimately outlive the segment
    object, in which case the mapping is released when they are collected.
    """

    def __init__(self, shm: shared_memory.SharedMemory, layout: SegmentLayout) -> None:
        self._shm = shm
        self.layout = layout
        self.arrays = _map_views(shm.buf, layout)
        self._unlinked = False

    @classmethod
    def create(cls, arrays: Dict[str, np.ndarray]) -> "SharedSegment":
        layout, nbytes = _pack_layout(arrays)
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        segment = cls(shm, layout)
        for name, array in arrays.items():
            segment.arrays[name][...] = array
        return segment

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def handle(self) -> SegmentHandle:
        """The picklable ``(name, layout)`` workers attach by."""
        return (self.name, self.layout)

    @property
    def nbytes(self) -> int:
        """Size of the underlying block (the segment's resident footprint)."""
        return int(self._shm.size)

    def close(self) -> None:
        self.arrays = {}
        try:
            self._shm.close()
        except BufferError:
            # Views exported from this mapping are still alive; the mmap is
            # released when the last of them is garbage-collected.
            pass

    def unlink(self) -> None:
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def destroy(self) -> None:
        """Unlink the name, then release this process's mapping."""
        self.unlink()
        self.close()


class AttachedSegment:
    """A read/write zero-copy view of a segment owned by another process."""

    def __init__(self, name: str, layout: SegmentLayout) -> None:
        self._shm = attach_shared_memory(name)
        self.name = name
        self.layout = layout
        self.arrays = _map_views(self._shm.buf, layout)

    def close(self) -> None:
        self.arrays = {}
        try:
            self._shm.close()
        except BufferError:
            pass


#: Per-process attach cache: worker slots of one pool (and parent-side
#: degradation slots) share a single mapping per segment name.
_ATTACH_CACHE: Dict[str, AttachedSegment] = {}
_ATTACH_LOCK = threading.Lock()


def attach_segment(name: str, layout: SegmentLayout) -> AttachedSegment:
    """Attach (or re-use this process's attachment of) a named segment."""
    with _ATTACH_LOCK:
        segment = _ATTACH_CACHE.get(name)
        if segment is None:
            segment = AttachedSegment(name, layout)
            _ATTACH_CACHE[name] = segment
        return segment


def detach_segment(name: str) -> None:
    """Drop this process's cached attachment of ``name`` (no-op if absent)."""
    with _ATTACH_LOCK:
        segment = _ATTACH_CACHE.pop(name, None)
    if segment is not None:
        segment.close()


class PinnedLRU:
    """Pinned, byte-budgeted LRU of values built once per key.

    Values carry an ``nbytes`` footprint; ``dispose(value)`` tears one
    down, always outside the lock.  ``get_or_build(key, builder)`` returns
    the resident value (``hits``) or runs ``builder`` (``misses``), and
    either way *pins* it until the caller's :meth:`release`;
    :meth:`acquire` is the hit half alone.

    **Concurrency.**  The builder runs outside the lock, so one large build
    does not serialise other keys.  Same-key callers coalesce through a
    per-key in-flight latch: late arrivals wait on it and then take the
    hit path, so the builder runs at most once per key.  A failed build
    releases the latch and re-raises; the waiters then race to build.

    **Budget.**  While resident bytes exceed the budget (``None`` =
    unbounded), least-recently-used unpinned values are disposed
    (``evictions``), so a budget of 0 disposes each value on its last
    release.  Pinned values are never evicted: the budget is a target
    that in-flight builds may exceed.
    """

    def __init__(
        self, dispose: Callable[[Any], None], budget: Optional[int] = None
    ) -> None:
        self._dispose = dispose
        self._values: OrderedDict[str, Any] = OrderedDict()  # LRU first
        self._pins: Dict[str, int] = {}
        self._pending: Dict[str, threading.Event] = {}
        self._bytes = 0
        self._budget: Optional[int] = None
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.set_budget(budget)

    # -- bookkeeping (all under self._lock) ----------------------------
    def _on_hit(self, value: Any) -> None:
        """Hook of subclasses, called under the lock on every hit."""

    def _hit_locked(self, key: str) -> Any:
        value = self._values.get(key)
        if value is not None:
            self.hits += 1
            self._pins[key] += 1
            self._values.move_to_end(key)
            self._on_hit(value)
        return value

    def _pop_locked(self, key: str) -> Any:
        value = self._values.pop(key)
        del self._pins[key]
        self._bytes -= value.nbytes
        return value

    def _trim_locked(self) -> List[Any]:
        """Pop LRU unpinned values until resident bytes fit the budget."""
        if self._budget is None or self._bytes <= self._budget:
            return []
        dropped = []
        for key in [k for k in self._values if self._pins[k] <= 0]:
            dropped.append(self._pop_locked(key))
            self.evictions += 1
            if self._bytes <= self._budget:
                break
        return dropped

    def _dispose_all(self, values: List[Any]) -> None:
        for value in values:
            self._dispose(value)

    # -- budget --------------------------------------------------------
    @property
    def budget(self) -> Optional[int]:
        """Resident-byte target of the LRU eviction (``None`` = unbounded)."""
        with self._lock:
            return self._budget

    def set_budget(self, budget: Optional[int]) -> None:
        """Arm (or disarm, with ``None``) the LRU memory budget."""
        if budget is not None and budget < 0:
            raise ValueError("budget must be >= 0 bytes (or None)")
        with self._lock:
            self._budget = budget
            dropped = self._trim_locked()
        self._dispose_all(dropped)

    def resident_bytes(self) -> int:
        """Total bytes of all resident (pinned or idle) values."""
        with self._lock:
            return self._bytes

    # -- pin / unpin ---------------------------------------------------
    def get_or_build(self, key: str, builder: Callable[[], Any]) -> Tuple[Any, bool]:
        """The pinned value of ``key``, built (once) if absent.

        Returns ``(value, built)``, where ``built`` says whether *this*
        call ran the builder.
        """
        while True:
            with self._lock:
                value = self._hit_locked(key)
                if value is not None:
                    return value, False
                latch = self._pending.get(key)
                if latch is None:
                    latch = threading.Event()
                    self._pending[key] = latch
                    break
            # Another thread is building this key: wait for its latch and
            # re-check (hit if it succeeded, claim the build if not).
            latch.wait()
        try:
            value = builder()
        except BaseException:
            with self._lock:
                del self._pending[key]
            latch.set()
            raise
        with self._lock:
            del self._pending[key]
            self._values[key] = value
            self._pins[key] = 1
            self._bytes += value.nbytes
            self.misses += 1
            dropped = self._trim_locked()
        latch.set()
        self._dispose_all(dropped)
        return value, True

    def acquire(self, key: str) -> Optional[Any]:
        """The pinned value of ``key`` if resident, else ``None``.

        A miss builds nothing and counts nothing; a hit must be released
        like any other.
        """
        with self._lock:
            return self._hit_locked(key)

    def release(self, key: str) -> None:
        """Unpin ``key`` (a no-op for a key no longer resident)."""
        with self._lock:
            if key not in self._values:
                return
            self._pins[key] -= 1
            dropped = self._trim_locked()
        self._dispose_all(dropped)

    def evict(self, key: str) -> bool:
        """Dispose the value of ``key`` now, regardless of budget.

        Returns ``False`` (and leaves the value alone) when the key is
        unknown or still pinned: callers release their own pin first.
        """
        with self._lock:
            if key not in self._values or self._pins[key] > 0:
                return False
            value = self._pop_locked(key)
            self.evictions += 1
        self._dispose(value)
        return True

    def contains(self, key: str) -> bool:
        with self._lock:
            return key in self._values

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def clear(self) -> None:
        """Dispose every value, pinned ones included (idempotent)."""
        with self._lock:
            values = list(self._values.values())
            self._values.clear()
            self._pins.clear()
            self._bytes = 0
        self._dispose_all(values)


def _destroy_segment(segment: SharedSegment) -> None:
    detach_segment(segment.name)
    segment.destroy()


class SegmentRegistry(PinnedLRU):
    """Content-addressed :class:`PinnedLRU` of published segments.

    ``publish(key, builder)`` pins the warm segment of ``key``, or
    materialises the builder's arrays (a dict, or a callable returning
    one) into a fresh segment.  Disposal detaches and unlinks.
    """

    def __init__(self, budget: Optional[int] = None) -> None:
        super().__init__(_destroy_segment, budget)

    def publish(
        self,
        key: str,
        builder: Union[Dict[str, np.ndarray], Callable[[], Dict[str, np.ndarray]]],
    ) -> SharedSegment:
        return self.get_or_build(
            key,
            lambda: SharedSegment.create(builder() if callable(builder) else builder),
        )[0]


#: The process-global registry used by the estimators and MC backends.
REGISTRY = SegmentRegistry()

atexit.register(REGISTRY.clear)


def schedule_key(index: GraphIndex, direction: str) -> str:
    """The registry key of the DAG's compiled ``direction`` schedule.

    Hashes the CSR structure only: weights do not enter a schedule, so
    graphs differing in weights alone share one segment.
    """
    return content_key(
        "schedule",
        direction,
        index.pred_indptr,
        index.pred_indices,
        index.succ_indptr,
        index.succ_indices,
    )


def publish_schedule(
    index: GraphIndex, direction: str, registry: SegmentRegistry = REGISTRY
) -> Tuple[str, SharedSegment]:
    """Publish (or re-use) the DAG's ``direction`` schedule segment.

    Returns the registry key — the caller's reference, to
    :meth:`~SegmentRegistry.release` when done — and the segment.
    """
    key = schedule_key(index, direction)
    segment = registry.publish(
        key, lambda: schedule_arrays(schedule_for(index, direction))
    )
    return key, segment


def attach_schedule(handle: SegmentHandle) -> LevelSchedule:
    """Rebuild a published schedule from zero-copy views, without compiling."""
    return schedule_from_arrays(attach_segment(*handle).arrays)
