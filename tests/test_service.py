"""Tests of the estimation service (``repro.service``).

Three layers, mirroring the package:

* **protocol** — JSON-lines framing round-trips exactly (floats included)
  and malformed requests fail with :class:`ServiceError`, not crashes;
* **cache** — concurrent identical requests coalesce onto one entry build
  (exactly one schedule compilation), LRU eviction honours the byte
  budget, and pinned entries are never torn down mid-request;
* **server** — end-to-end over a real socket: answers are bit-identical
  to single-shot :func:`repro.estimate_expected_makespan` runs for every
  estimator family, one compile per DAG across N concurrent clients, the
  cache budget bounds resident segment bytes over a fresh-DAG sweep,
  parallel estimates leave no worker process behind their response, and
  request errors never kill the connection.
"""

import json
import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro import estimate_expected_makespan
from repro.core.kernels import schedule_compilations
from repro.core.serialize import graph_from_dict, graph_to_dict
from repro.exceptions import ExperimentError, ServiceError
from repro.exec.shm import REGISTRY, SegmentRegistry
from repro.experiments.config import service_cache_bytes, service_workers
from repro.failures.models import ExponentialErrorModel
from repro.service import (
    EstimationRequest,
    EstimationServer,
    ScheduleCache,
    ServiceClient,
    build_entry,
    decode_message,
    encode_message,
    request_key,
)
from repro.workflows.registry import build_dag


def _fresh_graph(tag: float, workflow: str = "cholesky", size: int = 4):
    """A paper DAG with content-unique weights (a fresh cache key per tag)."""
    payload = graph_to_dict(build_dag(workflow, size))
    for task in payload["tasks"]:
        task["weight"] = task["weight"] * (1.0 + tag * 1e-6)
    return graph_from_dict(payload)


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_message_framing_round_trips_floats_exactly(self):
        payload = {"op": "estimate", "pfail": 0.1 + 0.2, "x": [1e-300, 3.14]}
        line = encode_message(payload)
        assert line.endswith(b"\n") and b"\n" not in line[:-1]
        assert decode_message(line) == payload

    def test_decode_rejects_junk(self):
        with pytest.raises(ServiceError, match="malformed"):
            decode_message(b"{nope\n")
        with pytest.raises(ServiceError, match="JSON objects"):
            decode_message(b"[1, 2]\n")

    def test_request_round_trip(self):
        graph = build_dag("lu", 3)
        request = EstimationRequest.from_dict(
            {
                "op": "estimate",
                "id": 7,
                "graph": graph_to_dict(graph),
                "pfail": 1e-2,
                "methods": ["normal", "dodin"],
                "options": {"monte-carlo": {"trials": 10, "seed": 3}},
            }
        )
        assert request.methods == ("normal", "dodin")
        assert EstimationRequest.from_dict(request.to_dict()) == request

    def test_request_validation(self):
        graph_payload = graph_to_dict(build_dag("lu", 3))
        cases = [
            ({"op": "frobnicate"}, "unknown op"),
            ({}, "needs 'graph' or 'workflow'"),
            (
                {"graph": graph_payload, "workflow": "lu", "size": 3},
                "not both",
            ),
            ({"workflow": "lu"}, "integer 'size'"),
            ({"workflow": "lu", "size": "big"}, "'size' must be an integer"),
            ({"graph": graph_payload, "pfail": 0.0}, "must be in"),
            ({"graph": graph_payload, "pfail": "often"}, "must be a number"),
            ({"graph": graph_payload, "methods": []}, "non-empty list"),
            ({"graph": graph_payload, "methods": [3]}, "non-empty list"),
            ({"graph": graph_payload, "options": {"mc": 3}}, "kwargs objects"),
            ({"graph": [1]}, "JSON object"),
        ]
        for payload, match in cases:
            with pytest.raises(ServiceError, match=match):
                EstimationRequest.from_dict(payload)

    def test_stats_request_ignores_graph_fields(self):
        request = EstimationRequest.from_dict({"op": "stats", "id": "x"})
        assert request.op == "stats" and request.request_id == "x"
        assert request.to_dict() == {"op": "stats", "id": "x"}

    def test_client_refuses_unreachable_server(self):
        with pytest.raises(ServiceError, match="cannot reach"):
            ServiceClient("127.0.0.1", 9, timeout=0.5)


# ----------------------------------------------------------------------
# config resolvers
# ----------------------------------------------------------------------
class TestServiceKnobs:
    def test_cache_bytes_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_CACHE_BYTES", raising=False)
        assert service_cache_bytes() is None
        assert service_cache_bytes(1 << 20) == 1 << 20
        monkeypatch.setenv("REPRO_SERVICE_CACHE_BYTES", "4096")
        assert service_cache_bytes(1 << 20) == 4096  # environment wins
        monkeypatch.setenv("REPRO_SERVICE_CACHE_BYTES", "lots")
        with pytest.raises(ExperimentError, match="REPRO_SERVICE_CACHE_BYTES"):
            service_cache_bytes()
        monkeypatch.setenv("REPRO_SERVICE_CACHE_BYTES", "-1")
        with pytest.raises(ExperimentError, match=">= 0"):
            service_cache_bytes()

    def test_workers_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_WORKERS", raising=False)
        assert service_workers() is None
        assert service_workers(3) == 3
        monkeypatch.setenv("REPRO_SERVICE_WORKERS", "8")
        assert service_workers(3) == 8
        monkeypatch.setenv("REPRO_SERVICE_WORKERS", "many")
        with pytest.raises(ExperimentError, match="REPRO_SERVICE_WORKERS"):
            service_workers()
        monkeypatch.setenv("REPRO_SERVICE_WORKERS", "0")
        with pytest.raises(ExperimentError, match=">= 1"):
            service_workers()


# ----------------------------------------------------------------------
# ScheduleCache
# ----------------------------------------------------------------------
class TestScheduleCache:
    def test_concurrent_identical_requests_build_once(self):
        registry = SegmentRegistry()
        cache = ScheduleCache(registry=registry)
        graph = _fresh_graph(1.0)
        key = request_key(graph)
        barrier = threading.Barrier(6)
        builds = []
        entries = []

        def builder():
            builds.append(1)
            return build_entry(graph, registry)

        def hit():
            barrier.wait()
            entry, _built = cache.get_or_build(key, builder)
            entries.append(entry)
            cache.release(entry.key)

        try:
            before = schedule_compilations()
            threads = [threading.Thread(target=hit) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert builds == [1]
            assert schedule_compilations() - before == 1
            assert len({id(e) for e in entries}) == 1
            assert cache.misses == 1 and cache.hits == 5
        finally:
            cache.clear()
            registry.clear()

    def test_lru_eviction_honours_max_bytes(self):
        registry = SegmentRegistry()
        graphs = [_fresh_graph(float(tag)) for tag in range(5)]
        probe = build_entry(graphs[0], registry)
        entry_bytes = probe.nbytes
        probe.dispose(registry)
        cache = ScheduleCache(budget=int(2.5 * entry_bytes), registry=registry)
        try:
            for graph in graphs:
                entry, _ = cache.get_or_build(
                    request_key(graph), lambda g=graph: build_entry(g, registry)
                )
                cache.release(entry.key)
                assert cache.resident_bytes() <= cache.budget
            stats = cache.stats()
            assert stats["entries"] == 2
            assert stats["evictions"] == 3
            # All five graphs share one structural schedule segment (the
            # segment key excludes weights); the surviving entries pin it.
            assert len(registry) == 1
        finally:
            cache.clear()
            registry.clear()

    def test_pinned_entries_survive_eviction_pressure(self):
        registry = SegmentRegistry()
        graph = _fresh_graph(9.0)
        cache = ScheduleCache(budget=0, registry=registry)
        try:
            entry, built = cache.get_or_build(
                request_key(graph), lambda: build_entry(graph, registry)
            )
            assert built
            # Over budget but pinned: still resident.
            assert cache.contains(entry.key)
            other = _fresh_graph(10.0)
            other_entry, _ = cache.get_or_build(
                request_key(other), lambda: build_entry(other, registry)
            )
            cache.release(other_entry.key)  # unpinned sibling goes immediately
            assert not cache.contains(other_entry.key)
            assert cache.contains(entry.key)
            cache.release(entry.key)
            assert not cache.contains(entry.key)
            assert cache.resident_bytes() == 0
        finally:
            cache.clear()
            registry.clear()

    def test_failed_build_releases_the_latch(self):
        cache = ScheduleCache()
        with pytest.raises(RuntimeError, match="boom"):
            cache.get_or_build("k", lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        graph = _fresh_graph(11.0)
        registry = SegmentRegistry()
        try:
            entry, built = cache.get_or_build(
                "k", lambda: build_entry(graph, registry)
            )
            assert built and entry.graph is graph
        finally:
            cache.clear()
            registry.clear()

    def test_request_key_is_structural_not_nominal(self):
        graph = build_dag("lu", 4)
        renamed = build_dag("lu", 4)
        assert request_key(graph) == request_key(renamed)
        reweighted = _fresh_graph(3.0, "lu", 4)
        assert request_key(graph) != request_key(reweighted)


# ----------------------------------------------------------------------
# EstimationServer end to end
# ----------------------------------------------------------------------
class TestEstimationServer:
    def test_estimates_bit_identical_to_single_shot_runs(self):
        graph = build_dag("cholesky", 5)
        model = ExponentialErrorModel.for_graph(graph, 1e-3)
        methods = ["first-order", "normal", "dodin", "normal-correlated",
                   "second-order", "monte-carlo"]
        options = {"monte-carlo": {"trials": 2000, "seed": 11}}
        with EstimationServer() as server:
            with ServiceClient(port=server.port) as client:
                first = client.estimate(
                    graph, pfail=1e-3, methods=methods, options=options
                )
                again = client.estimate(
                    graph, pfail=1e-3, methods=methods, options=options
                )
        assert first["ok"] and not first["cached"]
        assert again["ok"] and again["cached"]
        for response in (first, again):
            for estimate in response["estimates"]:
                direct = estimate_expected_makespan(
                    graph,
                    model,
                    method=estimate["method"],
                    **options.get(estimate["method"], {}),
                )
                assert estimate["expected_makespan"] == direct.expected_makespan
                assert (
                    estimate["failure_free_makespan"]
                    == direct.failure_free_makespan
                )

    def test_workflow_requests_resolve_the_generator(self):
        with EstimationServer() as server:
            with ServiceClient(port=server.port) as client:
                response = client.estimate(
                    workflow="lu", size=4, methods=["first-order"]
                )
        direct = build_dag("lu", 4)
        assert response["num_tasks"] == direct.num_tasks
        assert response["key"] == request_key(direct)

    def test_concurrent_identical_requests_compile_once(self):
        graph = _fresh_graph(101.0)
        payload = graph_to_dict(graph)
        clients = 6
        barrier = threading.Barrier(clients)
        responses = []
        errors = []
        with EstimationServer(workers=clients) as server:

            def fire():
                try:
                    with ServiceClient(port=server.port) as client:
                        barrier.wait()
                        responses.append(
                            client.estimate(payload, methods=["normal"])
                        )
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            before = schedule_compilations()
            threads = [threading.Thread(target=fire) for _ in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []
        assert len(responses) == clients
        # One compilation for the whole burst, exactly one cache miss.
        assert schedule_compilations() - before == 1
        assert sum(1 for r in responses if not r["cached"]) == 1
        values = {r["estimates"][0]["expected_makespan"] for r in responses}
        assert len(values) == 1

    def test_cache_budget_bounds_resident_segments_on_fresh_sweep(self):
        registry = SegmentRegistry()
        probe_graph = _fresh_graph(200.0)
        probe = build_entry(probe_graph, registry)
        entry_bytes = probe.nbytes
        probe.dispose(registry)
        registry.clear()
        budget = int(2.5 * entry_bytes)
        with EstimationServer(cache_bytes=budget, registry=registry) as server:
            with ServiceClient(port=server.port) as client:
                for tag in range(6):
                    response = client.estimate(
                        graph_to_dict(_fresh_graph(300.0 + tag)),
                        methods=["normal"],
                    )
                    assert response["ok"] and not response["cached"]
                stats = client.stats()
        assert stats["cache"]["max_bytes"] == budget
        assert stats["cache"]["resident_bytes"] <= budget
        assert stats["cache"]["entries"] <= 2
        assert stats["cache"]["evictions"] >= 4
        # The registry budget was armed too: warm /dev/shm stays bounded.
        assert stats["registry"]["resident_bytes"] <= budget
        # Shutdown released everything owned by this private registry.
        assert len(registry) == 0 and registry.resident_bytes() == 0

    def test_request_errors_do_not_kill_the_connection(self):
        with EstimationServer() as server:
            with ServiceClient(port=server.port) as client:
                bad = client.request({"op": "estimate"})
                assert bad["ok"] is False and "graph" in bad["error"]
                with pytest.raises(ServiceError, match="unknown estimator"):
                    client.estimate(
                        workflow="lu", size=3, methods=["astrology"]
                    )
                raw = client.request(json.loads('{"op": "stats", "id": 5}'))
                assert raw["ok"] and raw["id"] == 5
                assert raw["errors"] == 2 and raw["requests"] == 3
                good = client.estimate(
                    workflow="lu", size=3, methods=["first-order"]
                )
                assert good["ok"]

    def test_malformed_line_gets_an_error_response(self):
        with EstimationServer() as server:
            response = decode_message(server.handle_line(b"this is not json\n"))
        assert response["ok"] is False and "malformed" in response["error"]

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="no /proc to read mappings from"
    )
    @pytest.mark.parametrize("method", ["second-order", "normal-correlated"])
    def test_parallel_estimates_leave_no_worker_mapping(self, method):
        # The warm worker pool outlives the estimate; what must not is any
        # worker's mapping of a segment the estimate used.
        graph = build_dag("cholesky", 6)
        options = {method: {"workers": 2, "exec_backend": "processes"}}
        with EstimationServer() as server:
            with ServiceClient(port=server.port) as client:
                response = client.estimate(graph, methods=[method], options=options)
                assert response["ok"]
                # Still serving: no worker maps a segment any more.
                mapped = {}
                for child in multiprocessing.active_children():
                    try:
                        with open(f"/proc/{child.pid}/maps") as maps:
                            lines = [line for line in maps if "psm_" in line]
                    except FileNotFoundError:  # exited since listed
                        continue
                    if lines:
                        mapped[child.pid] = lines
                assert mapped == {}

    def test_stop_is_idempotent_and_releases_the_port(self):
        server = EstimationServer()
        server.start()
        port = server.port
        server.stop()
        server.stop()
        with pytest.raises(ServiceError):
            ServiceClient(port=port, timeout=0.5)


# ----------------------------------------------------------------------
# payload memo and the miss path
# ----------------------------------------------------------------------
def _estimate_line(payload):
    return encode_message(
        {"op": "estimate", "graph": payload, "pfail": 1e-3,
         "methods": ["first-order", "normal"]}
    )


def _reordered(value):
    """``value`` with every mapping's keys in reverse order (same content)."""
    if isinstance(value, dict):
        return {k: _reordered(value[k]) for k in reversed(list(value))}
    if isinstance(value, list):
        return [_reordered(item) for item in value]
    return value


class TestPayloadMemo:
    def test_repeats_hit_the_memo_without_rebuilding_the_graph(self, monkeypatch):
        payload = graph_to_dict(_fresh_graph(401.0))
        with EstimationServer() as server:
            resolved = []
            resolve = server._resolve_graph
            monkeypatch.setattr(
                server, "_resolve_graph",
                lambda request: resolved.append(1) or resolve(request),
            )
            first = decode_message(server.handle_line(_estimate_line(payload)))
            again = decode_message(server.handle_line(_estimate_line(payload)))
        assert first["ok"] and not first["cached"]
        assert again["ok"] and again["cached"]
        assert len(resolved) == 1
        def values(response):
            return [(e["method"], e["expected_makespan"]) for e in response["estimates"]]

        assert values(again) == values(first)

    def test_one_ulp_weight_change_is_a_new_memo_key(self):
        payload = graph_to_dict(_fresh_graph(402.0))
        nudged = json.loads(json.dumps(payload))
        weight = nudged["tasks"][3]["weight"]
        nudged["tasks"][3]["weight"] = float(np.nextafter(weight, np.inf))
        with EstimationServer() as server:
            keys = {
                server._payload_memo_key(
                    EstimationRequest.from_dict(decode_message(_estimate_line(p)))
                )
                for p in (payload, json.loads(json.dumps(payload)), nudged)
            }
        assert len(keys) == 2

    def test_reordered_payload_converges_on_the_cached_entry(self):
        payload = graph_to_dict(_fresh_graph(403.0))
        reordered = _reordered(payload)
        assert json.dumps(reordered) != json.dumps(payload)
        with EstimationServer() as server:
            first = decode_message(server.handle_line(_estimate_line(payload)))
            before = schedule_compilations()
            again = decode_message(server.handle_line(_estimate_line(reordered)))
            assert schedule_compilations() == before
            assert len(server._graph_memo) == 2  # a memo miss ...
        assert again["ok"] and again["cached"]  # ... but a cache hit
        assert again["key"] == first["key"]
        for ours, theirs in zip(again["estimates"], first["estimates"]):
            assert ours["method"] == theirs["method"]
            assert ours["expected_makespan"] == theirs["expected_makespan"]
            assert ours["failure_free_makespan"] == theirs["failure_free_makespan"]

    def test_a_miss_hashes_the_graph_once(self, monkeypatch):
        import repro.service.cache as cache_module
        import repro.service.server as server_module

        calls = []

        def counting(graph):
            calls.append(graph)
            return request_key(graph)

        monkeypatch.setattr(server_module, "request_key", counting)
        monkeypatch.setattr(cache_module, "request_key", counting)
        payload = graph_to_dict(_fresh_graph(404.0))
        with EstimationServer() as server:
            response = decode_message(server.handle_line(_estimate_line(payload)))
        assert response["ok"] and not response["cached"]
        assert len(calls) == 1
        assert response["key"] == request_key(graph_from_dict(payload))
