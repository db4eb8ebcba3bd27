"""Estimation-as-a-service: the long-lived asyncio front end.

``EstimationServer`` accepts JSON-lines estimation requests (see
:mod:`repro.service.protocol`), keys each DAG by content hash, and serves
repeated or concurrent requests for one DAG from a shared
:class:`~repro.service.cache.ScheduleCache` entry: the graph is built
once, its level schedule compiled once and its shared-memory segment
published once.  Parallel estimators open and close their own
:class:`~repro.exec.ParallelService` per estimate; a ``processes``
estimate leases the process's warm worker pool and releases it with its
response, so no worker keeps a segment of that estimate mapped.  A
payload memo maps repeated graph payloads (the same decoded values in the
same key order) straight to their cache key, so exact repeats skip graph
reconstruction too.  Estimates themselves run
on a bounded thread pool (``REPRO_SERVICE_WORKERS``) so slow requests
never stall the event loop accepting new connections.

**Determinism contract.**  The server never changes what an estimator
computes — it only re-uses read-only compiled state the estimator would
derive itself.  A response's ``expected_makespan`` is therefore
bit-identical to a single-shot run of
:func:`repro.estimate_expected_makespan` with the same method, options
and (for Monte Carlo) explicit seed, no matter how many requests were
served before it or concurrently with it.

**Memory.**  ``cache_bytes`` (``REPRO_SERVICE_CACHE_BYTES``) bounds the
schedule cache *and* arms the same budget on the global segment registry,
so warm segments published outside the cache's entries (e.g. a
second-order estimate's ``"down"`` schedule) are LRU-reclaimed too — a
sweep of ever-fresh DAGs keeps ``/dev/shm`` bounded.
"""

from __future__ import annotations

import asyncio
import hashlib
import marshal
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Set

from ..core.serialize import graph_from_dict
from ..exceptions import ReproError, ServiceError
from ..exec.shm import REGISTRY, SegmentRegistry
from ..experiments.config import service_cache_bytes, service_workers
from ..failures.models import ExponentialErrorModel
from .cache import CacheEntry, ScheduleCache, build_entry, request_key
from .protocol import (
    DEFAULT_HOST,
    MAX_MESSAGE_BYTES,
    EstimationRequest,
    decode_message,
    encode_message,
)

__all__ = ["EstimationServer", "run_server"]

#: Estimation threads when neither the constructor nor
#: ``REPRO_SERVICE_WORKERS`` says otherwise.
DEFAULT_WORKERS = 4


class EstimationServer:
    """A long-lived JSON-lines estimation service.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` (the default) picks a free port, exposed
        as :attr:`port` once the server is up — the pattern tests and
        benchmarks use to avoid collisions.
    cache_bytes:
        Byte budget of the schedule cache and the segment registry
        (``REPRO_SERVICE_CACHE_BYTES`` wins over it; absent both, the
        cache is unbounded, matching a trusted single-tenant setup).
    workers:
        Concurrent estimation threads (``REPRO_SERVICE_WORKERS`` wins over
        it; absent both, 4).  Estimator-level
        parallelism (``workers=...`` in a method's options) multiplies on
        top of this.

    Use :meth:`start`/:meth:`stop` for a background server (tests,
    benchmarks, embedding) or :meth:`serve_forever` to block (the
    ``serve`` CLI subcommand).
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = 0,
        *,
        cache_bytes: Optional[int] = None,
        workers: Optional[int] = None,
        registry: SegmentRegistry = REGISTRY,
    ) -> None:
        self.host = host
        self.port = port
        self.registry = registry
        self.cache_bytes = service_cache_bytes(cache_bytes)
        self.workers = service_workers(workers) or DEFAULT_WORKERS
        self.cache = ScheduleCache(self.cache_bytes, registry)
        self.requests = 0
        self.errors = 0
        self._graph_memo: Dict[str, str] = {}
        self._executor: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._clients: Set[asyncio.Task] = set()

    # -- lifecycle ------------------------------------------------------
    async def _main(self) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-service"
        )
        previous_budget = self.registry.budget
        if self.cache_bytes is not None:
            self.registry.set_budget(self.cache_bytes)
        try:
            server = await asyncio.start_server(
                self._on_client, self.host, self.port, limit=MAX_MESSAGE_BYTES
            )
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            raise
        self.port = server.sockets[0].getsockname()[1]
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._started.set()
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            for task in list(self._clients):
                task.cancel()
            self._executor.shutdown(wait=True, cancel_futures=True)
            self.cache.clear()
            self._graph_memo.clear()
            if self.cache_bytes is not None:
                self.registry.set_budget(previous_budget)

    def serve_forever(self) -> None:
        """Run the server on this thread until interrupted."""
        asyncio.run(self._main())

    def start(self) -> "EstimationServer":
        """Run the server on a daemon thread; returns once it is bound."""
        if self._thread is not None:
            raise ServiceError("server is already running")
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise ServiceError(
                f"estimation server failed to start: {self._startup_error}"
            )
        return self

    def stop(self) -> None:
        """Shut the background server down and release every resource."""
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:
                pass  # loop closed between the check and the call
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "EstimationServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- connection handling --------------------------------------------
    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._clients.add(task)
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        encode_message(
                            {"ok": False, "error": "request exceeds the message limit"}
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                response = await loop.run_in_executor(
                    self._executor, self.handle_line, line
                )
                writer.write(response)
                await writer.drain()
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            if task is not None:
                self._clients.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    # -- request dispatch (worker threads) ------------------------------
    def handle_line(self, line: bytes) -> bytes:
        """One framed request line -> one framed response line."""
        self.requests += 1
        request_id = None
        try:
            payload = decode_message(line)
            request_id = payload.get("id")
            request = EstimationRequest.from_dict(payload)
            if request.op == "stats":
                response = self._handle_stats(request)
            else:
                response = self._handle_estimate(request)
        except ReproError as exc:
            self.errors += 1
            response = {"id": request_id, "ok": False, "error": str(exc)}
        except Exception as exc:  # never let one request kill the server
            self.errors += 1
            response = {
                "id": request_id,
                "ok": False,
                "error": f"internal error: {type(exc).__name__}: {exc}",
            }
        if response.get("id") is None:
            response.pop("id", None)
        return encode_message(response)

    def _resolve_graph(self, request: EstimationRequest):
        if request.graph is not None:
            return graph_from_dict(request.graph)
        from ..workflows.registry import build_dag

        return build_dag(request.workflow, request.size)

    def _payload_memo_key(self, request: EstimationRequest) -> str:
        """A request-key memo key naming the payload without building it.

        Exact-repeat requests (same generator call, or the same decoded
        graph payload) skip graph reconstruction entirely — the dominant
        per-request cost on large DAGs.  A graph payload is hashed as
        ``marshal.dumps(graph, 2)``: format version 2 writes no
        back-references, so the bytes depend only on the decoded values
        (floats bit for bit) and on key order, never on object identity.
        Distinct payloads that describe the same DAG — including the same
        payload with its keys reordered — simply miss the memo and
        converge on the content-addressed ``request_key``.
        """
        if request.graph is None:
            return f"workflow:{request.workflow}:{request.size}"
        return "payload:" + hashlib.sha256(marshal.dumps(request.graph, 2)).hexdigest()

    def _acquire_entry(self, request: EstimationRequest):
        """The pinned cache entry for a request: ``(entry, built)``."""
        memo = self._payload_memo_key(request)
        key = self._graph_memo.get(memo)
        if key is not None:
            entry = self.cache.acquire(key)
            if entry is not None:
                return entry, False
            self._graph_memo.pop(memo, None)  # entry was evicted
        graph = self._resolve_graph(request)
        key = request_key(graph)
        entry, built = self.cache.get_or_build(
            key, lambda: build_entry(graph, self.registry, key=key)
        )
        # The memo only ever maps a payload to the key its graph hashes
        # to, so concurrent writers agree; bound it against unbounded
        # fresh-DAG sweeps (entries are two small strings each).
        if len(self._graph_memo) >= 65536:
            self._graph_memo.clear()
        self._graph_memo[memo] = key
        return entry, built

    def _handle_estimate(self, request: EstimationRequest) -> Dict[str, Any]:
        from .. import estimate_expected_makespan

        entry, built = self._acquire_entry(request)
        key = entry.key
        try:
            model = ExponentialErrorModel.for_graph(entry.graph, request.pfail)
            estimates = []
            for method in request.methods:
                options = request.options.get(method, {})
                result = estimate_expected_makespan(
                    entry.graph, model, method=method, **options
                )
                estimates.append(
                    {
                        "method": result.method,
                        "expected_makespan": result.expected_makespan,
                        "failure_free_makespan": result.failure_free_makespan,
                        "wall_time": result.wall_time,
                    }
                )
        finally:
            self.cache.release(key)
        return {
            "id": request.request_id,
            "ok": True,
            "key": key,
            "cached": not built,
            "num_tasks": entry.graph.num_tasks,
            "error_rate": model.error_rate,
            "estimates": estimates,
        }

    def _handle_stats(self, request: EstimationRequest) -> Dict[str, Any]:
        return {
            "id": request.request_id,
            "ok": True,
            "requests": self.requests,
            "errors": self.errors,
            "workers": self.workers,
            "cache": self.cache.stats(),
            "registry": {
                "segments": len(self.registry),
                "resident_bytes": self.registry.resident_bytes(),
                "budget": self.registry.budget,
                "hits": self.registry.hits,
                "misses": self.registry.misses,
                "evictions": self.registry.evictions,
            },
        }


def run_server(
    host: str = DEFAULT_HOST,
    port: int = 0,
    *,
    cache_bytes: Optional[int] = None,
    workers: Optional[int] = None,
) -> None:
    """Run an estimation server in the foreground (the CLI entry point)."""
    server = EstimationServer(
        host, port, cache_bytes=cache_bytes, workers=workers
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
