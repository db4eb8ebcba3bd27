"""Content-addressed schedule cache of the estimation server.

The estimation server answers many requests over few distinct DAGs, so
everything per-DAG and expensive is cached behind one content hash of the
graph (CSR structure + weights, :func:`request_key`):

* the built :class:`~repro.core.graph.TaskGraph` with its
  :class:`~repro.core.kernels.LevelSchedule` compiled exactly once and
  warm on the index cache (``schedule_for`` hits, never recompiles);
* the schedule's shared-memory segment, published through the
  content-addressed :data:`~repro.exec.shm.REGISTRY` through
  :func:`~repro.exec.shm.publish_schedule`, as the Monte Carlo processes
  backend and the correlated / second-order estimators publish it — their
  publications become registry hits against the cache's warm segment.

Worker slots are not cached: every estimate runs on its own
:class:`~repro.exec.ParallelService` and closes it when it returns.

:class:`ScheduleCache` is a :class:`~repro.exec.shm.PinnedLRU`, the
protocol the segment registry uses too: concurrent requests for the same
(not-yet-cached) DAG coalesce onto one entry build through a per-key
in-flight latch, so N simultaneous identical requests cost exactly one
schedule compilation, and entries are LRU-evicted while the resident
segment bytes exceed ``budget`` (entries serving in-flight requests are
pinned and never evicted).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.graph import TaskGraph
from ..core.kernels import LevelSchedule, schedule_for
from ..exec.shm import (
    REGISTRY,
    PinnedLRU,
    SegmentRegistry,
    content_key,
    publish_schedule,
)

__all__ = [
    "CacheEntry",
    "ScheduleCache",
    "build_entry",
    "request_key",
]


def request_key(graph: TaskGraph) -> str:
    """Content hash identifying a DAG for the estimation service.

    Covers the CSR structure *and* the task weights: two graphs with this
    key equal produce bit-identical estimates for every method (estimator
    arithmetic sees only the index arrays), while graphs differing in any
    weight or edge hash apart.  Task identifiers deliberately do not
    contribute — renaming tasks changes no number.
    """
    index = graph.index()
    return content_key(
        "service",
        index.pred_indptr,
        index.pred_indices,
        index.succ_indptr,
        index.succ_indices,
        index.weights,
    )


@dataclass
class CacheEntry:
    """Everything the server caches per distinct DAG."""

    key: str
    graph: TaskGraph
    schedule: LevelSchedule
    segment_key: str
    nbytes: int

    def dispose(self, registry: SegmentRegistry) -> None:
        """Tear the entry down: release and evict its warm segment."""
        registry.release(self.segment_key)
        # Our reference is gone; unless a concurrent estimator still holds
        # one, the segment is unlinked now instead of idling warm.
        registry.evict(self.segment_key)


def build_entry(
    graph: TaskGraph,
    registry: SegmentRegistry = REGISTRY,
    key: Optional[str] = None,
) -> CacheEntry:
    """Compile and publish one DAG's cached state.

    Compiles only the ``"up"`` schedule — the one every estimator needs —
    so building an entry costs exactly one schedule compilation; a
    direction the odd method additionally wants (second-order's ``"down"``)
    compiles lazily on the shared cached index and stays warm there too.
    The flattened schedule is published to the segment registry under the
    standard static key, where the Monte Carlo processes backend and the
    shm estimators will find it warm.  ``key`` is the graph's
    :func:`request_key` when the caller has already hashed it.
    """
    if key is None:
        key = request_key(graph)
    schedule = schedule_for(graph, "up")
    segment_key, segment = publish_schedule(graph.index(), "up", registry)
    return CacheEntry(
        key=key,
        graph=graph,
        schedule=schedule,
        segment_key=segment_key,
        nbytes=segment.nbytes,
    )


class ScheduleCache(PinnedLRU):
    """LRU cache of :class:`CacheEntry` objects under a byte budget.

    A :class:`~repro.exec.shm.PinnedLRU` whose values are entries:
    ``get_or_build``/``acquire`` pin the returned entry (its DAG is
    serving a request), and callers must ``release(entry.key)`` when done.
    Unpinned entries are disposed least-recently-used first while resident
    bytes exceed ``budget`` — so a sweep of ever-fresh DAGs keeps the
    cache (and ``/dev/shm``) bounded while a hot DAG mid-request is never
    torn down.
    """

    def __init__(
        self,
        budget: Optional[int] = None,
        registry: SegmentRegistry = REGISTRY,
    ) -> None:
        super().__init__(lambda entry: entry.dispose(registry), budget)
        self.registry = registry

    def stats(self) -> Dict[str, object]:
        """Counters of the cache (for the server's ``stats`` op)."""
        with self._lock:
            return {
                "entries": len(self._values),
                "resident_bytes": self._bytes,
                "max_bytes": self._budget,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "pinned": sum(1 for pins in self._pins.values() if pins > 0),
            }
