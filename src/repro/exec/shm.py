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
    A process-global, content-addressed cache of published segments.
    Keys are structural hashes (:func:`content_key`) of the arrays'
    *sources* — e.g. the DAG's CSR arrays plus schedule parameters — so
    repeated runs over the same graph re-use one warm segment instead of
    republishing.  ``publish``/``release`` are refcounted; with
    ``REPRO_EXEC_SHM`` disabled, segments are unlinked as soon as the last
    user releases them, otherwise they stay warm until :meth:`clear`
    (registered ``atexit``) so no ``/dev/shm`` entry ever outlives the
    parent process.

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
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.graph import GraphIndex
from ..core.kernels import (
    LevelSchedule,
    schedule_arrays,
    schedule_for,
    schedule_from_arrays,
)
from ..options import KNOBS, resolve

__all__ = [
    "AttachedSegment",
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
    "shm_enabled",
]

#: Byte alignment of every array inside a segment (one cache line).
_ALIGNMENT = 64

#: ``(name, dtype string, shape, byte offset)`` per array — picklable, so
#: worker slot specs can carry it next to the segment name.
SegmentLayout = Tuple[Tuple[str, str, Tuple[int, ...], int], ...]

#: ``(segment name, layout)`` — everything a worker needs to attach a
#: segment; what slot specs carry instead of the segment itself.
SegmentHandle = Tuple[str, SegmentLayout]


#: ``REPRO_EXEC_SHM`` spellings already warned about (warn once per value,
#: not once per call — the knob is consulted on every registry release).
_WARNED_SHM_VALUES: set = KNOBS["EXEC_SHM"].warned


def shm_enabled(default: bool = True) -> bool:
    """Whether published segments stay warm for re-use (``REPRO_EXEC_SHM``).

    Disabling the knob does not turn shared memory off — the processes
    backend still needs segments to exist while a run is in flight — it
    makes the registry unlink each segment as soon as its last user
    releases it instead of keeping it warm for the next run.  An
    unrecognised value falls back to ``default`` but warns once (per
    value, per process) instead of silently swallowing e.g.
    ``REPRO_EXEC_SHM=flase``.
    """
    return resolve("EXEC_SHM", fallback=default)


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


class SegmentRegistry:
    """Process-global content-addressed cache of published segments.

    ``publish(key, builder)`` returns the warm segment for ``key`` when one
    exists (``hits``) and otherwise materialises the builder's arrays into
    a fresh segment (``misses``).  Publications are refcounted via
    ``release``; a segment whose refcount drops to zero is kept warm while
    :func:`shm_enabled` holds and unlinked immediately otherwise.
    :meth:`clear` (registered ``atexit``) unlinks everything, so normal
    interpreter exit never leaks a ``/dev/shm`` entry.

    **Concurrency.**  A miss materialises the builder's arrays *outside*
    the registry lock — one large publication must not serialise every
    concurrent publish/release/attach in the process (a multi-request
    server publishes many independent DAGs at once).  Same-key publishers
    still coalesce onto one build through a per-key in-flight latch:
    late arrivals wait on the latch and then take the hit path, so the
    builder runs at most once per key.

    **Memory budget.**  Warm zero-reference segments historically lived
    until :meth:`clear`; a workload of ever-fresh DAGs therefore grew
    ``/dev/shm`` without bound.  :meth:`set_budget` arms LRU eviction:
    whenever resident bytes exceed the budget, least-recently-used
    segments *without* live references are unlinked (``evictions``).
    Referenced segments are never evicted — the budget is a target, and
    in-flight publications may transiently exceed it.  :meth:`evict`
    force-unlinks one named warm segment (cache layers above the registry
    use it to drop a key they no longer want regardless of the budget).
    """

    def __init__(self, budget: Optional[int] = None) -> None:
        self._segments: Dict[str, SharedSegment] = {}
        self._refs: Dict[str, int] = {}
        self._pending: Dict[str, threading.Event] = {}
        self._stamp: Dict[str, int] = {}
        self._counter = 0
        self._bytes = 0
        self._budget = budget
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- bookkeeping (all under self._lock) ----------------------------
    def _touch(self, key: str) -> None:
        self._counter += 1
        self._stamp[key] = self._counter

    def _pop_locked(self, key: str) -> SharedSegment:
        segment = self._segments.pop(key)
        del self._refs[key]
        self._stamp.pop(key, None)
        self._bytes -= segment.nbytes
        return segment

    def _trim_locked(self) -> List[SharedSegment]:
        """Pop LRU zero-ref segments until resident bytes fit the budget."""
        if self._budget is None:
            return []
        dropped = []
        while self._bytes > self._budget:
            idle = [k for k, refs in self._refs.items() if refs <= 0]
            if not idle:
                break
            victim = min(idle, key=lambda k: self._stamp.get(k, 0))
            dropped.append(self._pop_locked(victim))
            self.evictions += 1
        return dropped

    @staticmethod
    def _destroy(segments: List[SharedSegment]) -> None:
        for segment in segments:
            detach_segment(segment.name)
            segment.destroy()

    # -- budget --------------------------------------------------------
    @property
    def budget(self) -> Optional[int]:
        """Resident-byte target of the LRU eviction (``None`` = unbounded)."""
        with self._lock:
            return self._budget

    def set_budget(self, budget: Optional[int]) -> None:
        """Arm (or disarm, with ``None``) the LRU memory budget."""
        if budget is not None and budget < 0:
            raise ValueError("registry budget must be >= 0 bytes (or None)")
        with self._lock:
            self._budget = budget
            dropped = self._trim_locked()
        self._destroy(dropped)

    def resident_bytes(self) -> int:
        """Total bytes of all published (referenced or warm) segments."""
        with self._lock:
            return self._bytes

    # -- publish / release ---------------------------------------------
    def publish(
        self,
        key: str,
        builder: Union[Dict[str, np.ndarray], Callable[[], Dict[str, np.ndarray]]],
    ) -> SharedSegment:
        while True:
            with self._lock:
                segment = self._segments.get(key)
                if segment is not None:
                    self.hits += 1
                    self._refs[key] += 1
                    self._touch(key)
                    return segment
                latch = self._pending.get(key)
                if latch is None:
                    latch = threading.Event()
                    self._pending[key] = latch
                    break
            # Another thread is materialising this key: wait for its latch
            # and re-check (hit if it succeeded, claim the build if not).
            latch.wait()
        try:
            arrays = builder() if callable(builder) else builder
            segment = SharedSegment.create(arrays)
        except BaseException:
            with self._lock:
                del self._pending[key]
            latch.set()
            raise
        with self._lock:
            del self._pending[key]
            self._segments[key] = segment
            self._refs[key] = 1
            self._bytes += segment.nbytes
            self.misses += 1
            self._touch(key)
            dropped = self._trim_locked()
        latch.set()
        self._destroy(dropped)
        return segment

    def release(self, key: str) -> None:
        with self._lock:
            if key not in self._segments:
                return
            self._refs[key] -= 1
            if self._refs[key] <= 0 and not shm_enabled():
                dropped = [self._pop_locked(key)]
            else:
                dropped = self._trim_locked()
        self._destroy(dropped)

    def evict(self, key: str) -> bool:
        """Unlink the warm segment of ``key`` now, regardless of budget.

        Returns ``False`` (and leaves the segment alone) when the key is
        unknown or still referenced — callers release their own reference
        first; a concurrent holder's reference keeps the segment alive
        until *it* releases, at which point the budget path reclaims it.
        """
        with self._lock:
            if key not in self._segments or self._refs[key] > 0:
                return False
            segment = self._pop_locked(key)
            self.evictions += 1
        self._destroy([segment])
        return True

    def contains(self, key: str) -> bool:
        with self._lock:
            return key in self._segments

    def __len__(self) -> int:
        with self._lock:
            return len(self._segments)

    def clear(self) -> None:
        """Unlink every published segment (idempotent; runs ``atexit``)."""
        with self._lock:
            segments = list(self._segments.values())
            self._segments.clear()
            self._refs.clear()
            self._stamp.clear()
            self._bytes = 0
        self._destroy(segments)


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
