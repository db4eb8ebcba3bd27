"""Tests of the zero-copy shared-memory kernel plane (``repro.exec.shm``).

Three layers, mirroring the module's contract:

* **segments** — a dict of arrays packs into one POSIX block with a
  picklable, 64-byte-aligned layout, and attaches back to bit-identical
  zero-copy views (same physical pages, so writes are visible both ways);
* **registry** — publications are content-addressed, deduplicated and
  pinned; a budget picks warm-vs-eager unlinking, and ``clear()`` always
  empties ``/dev/shm``;
* **estimators** — correlated and second-order folds on the ``processes``
  backend are bit-identical to serial/threads at any worker count, the MC
  backend's workers build kernels from the warm segment without ever
  recompiling the schedule, and no run leaks a segment.
"""

import multiprocessing
import os
import pickle
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from repro.core.graph import GraphIndex, TaskGraph
from repro.core.kernels import (
    WavefrontKernel,
    schedule_arrays,
    schedule_compilations,
    schedule_for,
    schedule_from_arrays,
)
from repro.estimators.correlated import CorrelatedNormalEstimator
from repro.estimators.second_order import SecondOrderEstimator
from repro.exec import partition_stream
from repro.exec.shm import (
    _ATTACH_CACHE,
    REGISTRY,
    AttachedSegment,
    SegmentRegistry,
    SharedSegment,
    attach_segment,
    content_key,
    detach_segment,
    publish_schedule,
)
from repro.failures.models import ErrorModel, ExponentialErrorModel
from repro.service.cache import ScheduleCache, build_entry
from repro.workflows.registry import build_dag


def _processes_available() -> bool:
    try:
        with ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context()
        ) as pool:
            return pool.submit(int, 1).result(timeout=60) == 1
    except Exception:
        return False


HAS_PROCESSES = _processes_available()

needs_processes = pytest.mark.skipif(
    not HAS_PROCESSES, reason="process pools unavailable"
)


def _shm_entries():
    base = "/dev/shm"
    if not os.path.isdir(base):  # pragma: no cover - non-POSIX fallback
        return set()
    return {name for name in os.listdir(base) if name.startswith("psm_")}


# ----------------------------------------------------------------------
# content_key
# ----------------------------------------------------------------------
class TestContentKey:
    def test_equal_inputs_equal_keys(self):
        a = np.arange(12, dtype=np.int64)
        assert content_key("s", a, 3) == content_key("s", a.copy(), 3)

    def test_dtype_shape_and_bytes_all_matter(self):
        a = np.arange(12, dtype=np.int64)
        base = content_key(a)
        assert content_key(a.astype(np.int32)) != base
        assert content_key(a.reshape(3, 4)) != base
        tweaked = a.copy()
        tweaked[5] += 1
        assert content_key(tweaked) != base

    def test_scalar_parts_distinguish(self):
        assert content_key("schedule", "up") != content_key("schedule", "down")
        assert content_key(1) != content_key("1")


# ----------------------------------------------------------------------
# SharedSegment / AttachedSegment
# ----------------------------------------------------------------------
class TestSharedSegment:
    def test_pack_attach_round_trip(self):
        arrays = {
            "f": np.linspace(0.0, 1.0, 17),
            "i": np.arange(40, dtype=np.int64).reshape(8, 5),
            "b": np.array([True, False, True]),
            "empty": np.empty(0, dtype=np.float64),
        }
        segment = SharedSegment.create(arrays)
        try:
            attached = AttachedSegment(segment.name, segment.layout)
            try:
                assert set(attached.arrays) == set(arrays)
                for name, source in arrays.items():
                    view = attached.arrays[name]
                    assert view.dtype == source.dtype
                    assert view.shape == source.shape
                    np.testing.assert_array_equal(view, source)
            finally:
                attached.close()
        finally:
            segment.destroy()

    def test_views_are_aligned_and_shared(self):
        segment = SharedSegment.create(
            {"a": np.zeros(3), "b": np.arange(5, dtype=np.int32)}
        )
        try:
            for _name, _dtype, _shape, offset in segment.layout:
                assert offset % 64 == 0
            attached = AttachedSegment(segment.name, segment.layout)
            try:
                # Same physical pages: a write through the owner's view is
                # visible through the attachment (and vice versa).
                segment.arrays["a"][1] = 7.5
                assert attached.arrays["a"][1] == 7.5
                attached.arrays["b"][0] = -3
                assert segment.arrays["b"][0] == -3
            finally:
                attached.close()
        finally:
            segment.destroy()

    def test_layout_is_picklable(self):
        import pickle

        segment = SharedSegment.create({"x": np.arange(4)})
        try:
            layout = pickle.loads(pickle.dumps(segment.layout))
            assert layout == segment.layout
        finally:
            segment.destroy()

    def test_destroy_is_idempotent_and_unlinks(self):
        segment = SharedSegment.create({"x": np.zeros(2)})
        name = segment.name
        segment.destroy()
        segment.destroy()  # second unlink is a no-op, not an error
        assert name not in _shm_entries()

    def test_attach_cache_shares_one_mapping(self):
        segment = SharedSegment.create({"x": np.arange(6)})
        try:
            first = attach_segment(segment.name, segment.layout)
            again = attach_segment(segment.name, segment.layout)
            assert again is first
            detach_segment(segment.name)
            detach_segment(segment.name)  # idempotent
            fresh = attach_segment(segment.name, segment.layout)
            assert fresh is not first
            detach_segment(segment.name)
        finally:
            segment.destroy()


# ----------------------------------------------------------------------
# SegmentRegistry
# ----------------------------------------------------------------------
class TestSegmentRegistry:
    def test_publish_deduplicates_by_key(self):
        registry = SegmentRegistry()
        built = []

        def builder():
            built.append(1)
            return {"x": np.arange(8)}

        try:
            first = registry.publish("k", builder)
            second = registry.publish("k", builder)
            assert second is first
            assert built == [1]  # builder ran on the miss only
            assert (registry.hits, registry.misses) == (1, 1)
            assert registry.contains("k") and len(registry) == 1
        finally:
            registry.clear()

    def test_release_keeps_segment_warm_when_enabled(self):
        registry = SegmentRegistry()
        try:
            segment = registry.publish("k", {"x": np.zeros(3)})
            registry.release("k")
            assert registry.contains("k")
            assert segment.name in _shm_entries()
            assert registry.publish("k", {"x": np.zeros(3)}) is segment
            assert registry.hits == 1
        finally:
            registry.clear()

    def test_release_unlinks_eagerly_when_disabled(self):
        registry = SegmentRegistry(budget=0)
        segment = registry.publish("k", {"x": np.zeros(3)})
        name = segment.name
        registry.release("k")
        assert not registry.contains("k") and len(registry) == 0
        assert name not in _shm_entries()
        registry.release("k")  # releasing an absent key is a no-op

    def test_refcount_outlives_intermediate_releases(self):
        registry = SegmentRegistry(budget=0)
        segment = registry.publish("k", {"x": np.zeros(3)})
        registry.publish("k", {"x": np.zeros(3)})
        registry.release("k")
        assert segment.name in _shm_entries()  # one user still holds it
        registry.release("k")
        assert segment.name not in _shm_entries()

    def test_clear_unlinks_everything(self):
        registry = SegmentRegistry()
        names = [
            registry.publish(key, {"x": np.zeros(2)}).name for key in "abc"
        ]
        registry.clear()
        assert len(registry) == 0
        assert not (_shm_entries() & set(names))
        registry.clear()  # idempotent


# ----------------------------------------------------------------------
# SegmentRegistry under contention (the estimation-server workload)
# ----------------------------------------------------------------------
class TestSegmentRegistryConcurrency:
    def test_same_key_publishers_coalesce_onto_one_build(self):
        registry = SegmentRegistry()
        built = []
        barrier = threading.Barrier(8)
        results = []

        def builder():
            built.append(1)
            return {"x": np.arange(16)}

        def publish():
            barrier.wait()
            results.append(registry.publish("k", builder))

        try:
            threads = [threading.Thread(target=publish) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert built == [1]  # the latch coalesced every publisher
            assert len({id(seg) for seg in results}) == 1
            assert registry.misses == 1 and registry.hits == 7
            assert registry._pins["k"] == 8
        finally:
            registry.clear()

    def test_builder_runs_outside_the_registry_lock(self):
        """A slow publication of key A must not serialise key B's publish."""
        registry = SegmentRegistry()
        a_building = threading.Event()
        a_release = threading.Event()
        b_done = threading.Event()

        def slow_builder():
            a_building.set()
            assert a_release.wait(timeout=10)
            return {"x": np.zeros(4)}

        def publish_a():
            registry.publish("a", slow_builder)

        try:
            thread = threading.Thread(target=publish_a)
            thread.start()
            assert a_building.wait(timeout=10)
            # Key A's builder is mid-flight.  With materialisation under
            # the lock this publish would block until A finishes; built
            # outside it, B completes immediately.
            def publish_b():
                registry.publish("b", {"x": np.zeros(2)})
                b_done.set()

            helper = threading.Thread(target=publish_b)
            helper.start()
            assert b_done.wait(timeout=5), "publish('b') blocked behind key A's build"
            helper.join()
            a_release.set()
            thread.join()
            assert registry.contains("a") and registry.contains("b")
        finally:
            a_release.set()
            registry.clear()

    def test_failed_build_releases_waiters_to_retry(self):
        registry = SegmentRegistry()
        attempts = []
        barrier = threading.Barrier(2)
        outcomes = []

        def flaky_builder():
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("first build dies")
            return {"x": np.ones(8)}

        def publish():
            barrier.wait()
            try:
                outcomes.append(registry.publish("k", flaky_builder))
            except RuntimeError:
                outcomes.append(None)

        try:
            threads = [threading.Thread(target=publish) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # One publisher saw the failure, the waiter claimed the build
            # and succeeded — the latch never wedges the key.
            assert outcomes.count(None) == 1
            assert registry.contains("k")
            assert len(attempts) == 2
        finally:
            registry.clear()

    def test_hammer_publish_release_attach_refcounts_exact(self):
        registry = SegmentRegistry()
        keys = [f"hammer-{i}" for i in range(4)]
        errors = []
        before = _shm_entries()

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for step in range(50):
                    key = keys[int(rng.integers(len(keys)))]
                    segment = registry.publish(
                        key, lambda: {"x": np.arange(32, dtype=np.int64)}
                    )
                    attached = attach_segment(segment.name, segment.layout)
                    assert int(attached.arrays["x"][7]) == 7
                    registry.release(key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "registry deadlocked"
        assert errors == []
        # Balanced publish/release: every key warm with exactly zero refs.
        assert all(registry._pins[key] == 0 for key in registry._pins)
        registry.clear()
        assert len(registry) == 0 and registry.resident_bytes() == 0
        assert _shm_entries() - before == set()

    def test_hammer_with_concurrent_clears_leaves_shm_empty(self):
        registry = SegmentRegistry()
        stop = threading.Event()
        errors = []
        before = _shm_entries()

        def churn(seed):
            rng = np.random.default_rng(seed)
            try:
                for step in range(40):
                    key = f"churn-{int(rng.integers(3))}"
                    registry.publish(key, {"x": np.zeros(16)})
                    registry.release(key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def clearer():
            while not stop.is_set():
                registry.clear()

        threads = [threading.Thread(target=churn, args=(s,)) for s in range(8)]
        sweeper = threading.Thread(target=clearer)
        for t in threads:
            t.start()
        sweeper.start()
        for t in threads:
            t.join(timeout=60)
        stop.set()
        sweeper.join(timeout=60)
        assert not sweeper.is_alive() and not any(t.is_alive() for t in threads)
        assert errors == []
        registry.clear()
        assert _shm_entries() - before == set()

    def test_tracker_monkeypatch_is_locked_and_restored(self, monkeypatch):
        """The pre-3.13 attach fallback must leave ``register`` intact."""
        import repro.exec.shm as shm_mod
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        real_cls = shm_mod.shared_memory.SharedMemory

        def legacy_shared_memory(*args, **kwargs):
            if "track" in kwargs:
                raise TypeError("unexpected keyword argument 'track'")
            return real_cls(*args, **kwargs)

        monkeypatch.setattr(
            shm_mod.shared_memory, "SharedMemory", legacy_shared_memory
        )
        segment = SharedSegment.create({"x": np.arange(8)})
        errors = []

        def attach_loop():
            try:
                for _ in range(20):
                    shm = shm_mod.attach_shared_memory(segment.name)
                    shm.close()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        try:
            threads = [threading.Thread(target=attach_loop) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert errors == []
            # Interleaved save/restore without the lock can leave the
            # no-op lambda installed for good; with it, the original
            # tracker hook always survives the storm.
            assert resource_tracker.register is original_register
        finally:
            segment.destroy()


# ----------------------------------------------------------------------
# SegmentRegistry memory budget
# ----------------------------------------------------------------------
class TestSegmentRegistryBudget:
    def test_budget_trims_lru_zero_ref_segments(self):
        registry = SegmentRegistry()
        try:
            names = {}
            for key in "abcd":
                names[key] = registry.publish(
                    key, {"x": np.zeros(1024)}
                ).name
                registry.release(key)
            per_segment = registry.resident_bytes() // 4
            registry.set_budget(int(2.5 * per_segment))
            # LRU order is publication order here: a and b go, c and d stay.
            assert not registry.contains("a") and not registry.contains("b")
            assert registry.contains("c") and registry.contains("d")
            assert registry.evictions == 2
            assert registry.resident_bytes() <= registry.budget
            assert names["a"] not in _shm_entries()
            assert names["d"] in _shm_entries()
        finally:
            registry.clear()

    def test_publish_over_budget_evicts_the_coldest(self):
        registry = SegmentRegistry()
        try:
            registry.publish("old", {"x": np.zeros(1024)})
            registry.release("old")
            per_segment = registry.resident_bytes()
            registry.set_budget(int(1.5 * per_segment))
            registry.publish("new", {"x": np.zeros(1024)})
            assert not registry.contains("old")
            assert registry.contains("new")
            assert registry.resident_bytes() <= registry.budget + per_segment
        finally:
            registry.clear()

    def test_referenced_segments_are_never_evicted(self):
        registry = SegmentRegistry(budget=0)
        try:
            segment = registry.publish("k", {"x": np.zeros(64)})
            # Over budget but referenced: pinned.
            assert registry.contains("k")
            assert registry.resident_bytes() == segment.nbytes
            registry.release("k")
            # The release lets the budget path reclaim it.
            assert not registry.contains("k")
            assert registry.resident_bytes() == 0
        finally:
            registry.clear()

    def test_evict_force_unlinks_warm_segments_only(self):
        registry = SegmentRegistry()
        try:
            name = registry.publish("k", {"x": np.zeros(32)}).name
            assert registry.evict("k") is False  # still referenced
            registry.release("k")
            assert registry.evict("k") is True
            assert registry.evict("k") is False  # unknown now
            assert name not in _shm_entries()
            assert registry.resident_bytes() == 0
        finally:
            registry.clear()

    def test_set_budget_rejects_negative(self):
        registry = SegmentRegistry()
        with pytest.raises(ValueError):
            registry.set_budget(-1)


# ----------------------------------------------------------------------
# The PinnedLRU protocol, once per subclass
# ----------------------------------------------------------------------
class _SegmentsHarness:
    """A registry whose values are segments, released by key."""

    def __init__(self):
        self.registry = self.lru = SegmentRegistry()

    def build(self, key):
        return SharedSegment.create({"x": np.zeros(64)})

    def release(self, key, value):
        self.lru.release(key)

    def disposed(self, value):
        return value.name not in _shm_entries()

    def close(self):
        self.registry.clear()


class _EntriesHarness:
    """A schedule cache whose values are entries."""

    def __init__(self):
        self.registry = SegmentRegistry()
        self.lru = ScheduleCache(registry=self.registry)

    def build(self, key):
        return build_entry(build_dag("lu", 3), self.registry, key=key)

    def release(self, key, value):
        self.lru.release(key)

    def disposed(self, value):
        return not self.registry.contains(value.segment_key)

    def close(self):
        self.lru.clear()
        self.registry.clear()


@pytest.fixture(params=[_SegmentsHarness, _EntriesHarness], ids=["registry", "cache"])
def harness(request):
    harness = request.param()
    yield harness
    harness.close()


class TestPinnedLRUProtocol:
    def test_failed_build_releases_the_latch_to_a_waiter(self, harness):
        lru = harness.lru
        building, waiting = threading.Event(), threading.Event()
        outcomes = {}

        def failing_builder():
            building.set()
            assert waiting.wait(timeout=10)
            time.sleep(0.05)  # let the waiter block on the latch
            raise RuntimeError("first build dies")

        def first():
            try:
                lru.get_or_build("k", failing_builder)
            except RuntimeError as exc:
                outcomes["first"] = exc

        def second():
            assert building.wait(timeout=10)
            waiting.set()
            outcomes["second"] = lru.get_or_build("k", lambda: harness.build("k"))

        threads = [
            threading.Thread(target=first, daemon=True),
            threading.Thread(target=second, daemon=True),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads), "latch wedged the key"
        assert isinstance(outcomes["first"], RuntimeError)
        value, built = outcomes["second"]
        assert built and lru.contains("k")
        assert (lru.hits, lru.misses) == (0, 1)
        harness.release("k", value)

    def test_acquire_on_a_miss_returns_none_and_counts_nothing(self, harness):
        lru = harness.lru
        assert lru.acquire("absent") is None
        assert (lru.hits, lru.misses, lru.evictions) == (0, 0, 0)
        assert len(lru) == 0 and lru.resident_bytes() == 0
        value, _ = lru.get_or_build("k", lambda: harness.build("k"))
        assert lru.acquire("k") is value and lru.hits == 1
        harness.release("k", value)
        harness.release("k", value)

    def test_evict_refuses_a_pinned_key(self, harness):
        lru = harness.lru
        value, _ = lru.get_or_build("k", lambda: harness.build("k"))
        assert lru.evict("k") is False
        assert lru.contains("k") and not harness.disposed(value)
        harness.release("k", value)
        assert lru.evict("k") is True
        assert not lru.contains("k") and harness.disposed(value)
        assert lru.evictions == 1 and lru.resident_bytes() == 0

    def test_zero_budget_disposes_on_the_last_release(self, harness):
        lru = harness.lru
        lru.set_budget(0)
        value, built = lru.get_or_build("k", lambda: harness.build("k"))
        again, rebuilt = lru.get_or_build("k", lambda: harness.build("k"))
        assert again is value and built and not rebuilt
        harness.release("k", value)
        assert lru.contains("k") and not harness.disposed(value)  # still pinned
        harness.release("k", value)
        assert not lru.contains("k") and harness.disposed(value)
        assert lru.resident_bytes() == 0


# ----------------------------------------------------------------------
# Schedule flattening: the zero-recompile path
# ----------------------------------------------------------------------
class TestScheduleSegments:
    def test_round_trip_matches_compiled_schedule(self):
        index = build_dag("lu", 6).index()
        schedule = schedule_for(index, "up")
        rebuilt = schedule_from_arrays(schedule_arrays(schedule))
        assert rebuilt.num_tasks == schedule.num_tasks
        assert rebuilt.max_group_rows == schedule.max_group_rows
        assert rebuilt.max_edge_level_span == schedule.max_edge_level_span
        for name in ("level_indptr", "level_order", "perm", "rank",
                     "group_indptr", "task_level", "row_level"):
            np.testing.assert_array_equal(
                getattr(rebuilt, name), getattr(schedule, name)
            )
        assert len(rebuilt.groups) == len(schedule.groups)
        for ours, theirs in zip(rebuilt.groups, schedule.groups):
            assert (ours.start, ours.stop) == (theirs.start, theirs.stop)
            np.testing.assert_array_equal(ours.preds, theirs.preds)

    def test_rebuild_never_recompiles(self):
        index = build_dag("cholesky", 5).index()
        arrays = schedule_arrays(schedule_for(index, "up"))
        before = schedule_compilations()
        rebuilt = schedule_from_arrays(arrays)
        kernel = WavefrontKernel.from_schedule(rebuilt, direction="up")
        assert kernel.schedule is rebuilt
        assert schedule_compilations() == before

    def test_round_trip_through_a_real_segment(self):
        index = build_dag("qr", 5).index()
        schedule = schedule_for(index, "up")
        segment = SharedSegment.create(schedule_arrays(schedule))
        try:
            attached = AttachedSegment(segment.name, segment.layout)
            try:
                before = schedule_compilations()
                rebuilt = schedule_from_arrays(attached.arrays)
                assert schedule_compilations() == before
                kernel = WavefrontKernel.from_schedule(rebuilt, direction="up")
                reference = WavefrontKernel(index)
                weights = index.weights.astype(np.float64)
                np.testing.assert_array_equal(
                    kernel.run(weights[None, :]),
                    reference.run(weights[None, :]),
                )
            finally:
                attached.close()
        finally:
            segment.destroy()


# ----------------------------------------------------------------------
# MC processes backend: warm segments, zero worker rebuilds
# ----------------------------------------------------------------------
@contextmanager
def _mc_worker_spec(engine):
    """The slot spec the MC processes backend ships for ``engine``.

    Built like the backend builds it (the engine's plan without its
    schedule, the registry's schedule segment, a fresh result buffer), so
    tests can construct worker slots in this process.  Both segments are
    released on exit.
    """
    from repro.sim.executors import _ProcessSpec

    key, schedule = publish_schedule(engine.index, "up")
    out = SharedSegment.create({"makespans": np.zeros(engine.batch_size)})
    try:
        yield _ProcessSpec(
            plan=replace(engine._plan, schedule=None),
            schedule=schedule.handle,
            out=out.handle,
        )
    finally:
        detach_segment(out.name)
        out.destroy()
        detach_segment(schedule.name)
        REGISTRY.release(key)


def _mc_engine(mode="two-state", dtype="float64", **kwargs):
    from repro.sim.engine import MonteCarloEngine

    graph = build_dag("cholesky", 5)
    model = ExponentialErrorModel.for_graph(graph, 5e-2)
    return MonteCarloEngine(
        graph, model, trials=600, batch_size=256, seed=9, mode=mode,
        dtype=dtype, **kwargs,
    )


class TestMonteCarloWarmSegment:
    def test_worker_state_skips_schedule_compilation(self):
        # Build the worker-process slot *in this process* from the spec
        # the backend ships, and watch the compile counter: a spec
        # carrying a schedule segment must not recompile.
        from repro.sim.executors import _ProcessWorkerState

        with _mc_worker_spec(_mc_engine()) as spec:
            before = schedule_compilations()
            warm = _ProcessWorkerState(spec)
            warm.close()
            assert schedule_compilations() == before  # zero rebuilds

    def test_worker_state_builds_no_graph(self, monkeypatch):
        from repro.core import serialize
        from repro.sim.executors import _ProcessWorkerState

        engine = _mc_engine()
        with _mc_worker_spec(engine) as spec:

            def boom(*args, **kwargs):
                raise AssertionError("a worker slot rebuilt the graph")

            monkeypatch.setattr(serialize, "graph_from_dict", boom)
            monkeypatch.setattr(GraphIndex, "__init__", boom)
            _ProcessWorkerState(spec).close()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("mode", ["two-state", "geometric"])
    def test_worker_slot_matches_the_serial_slot(self, mode, dtype):
        from repro.sim.executors import _ProcessWorkerState, _process_eval_batch

        engine = _mc_engine(mode, dtype)
        with _mc_worker_spec(engine) as spec:
            state = _ProcessWorkerState(spec)
            try:
                for batch, size in enumerate((256, 88)):
                    rng = partition_stream(engine.seed_entropy, batch)
                    expected = engine._slots[0].evaluate(size, rng)
                    rng = partition_stream(engine.seed_entropy, batch)
                    _process_eval_batch((size, 0), state, rng)
                    assert np.array_equal(state.out[:size], expected)
            finally:
                state.close()

    def test_spec_pickles_without_graph_or_model(self):
        import io

        from repro.core.kernels import LevelSchedule
        from repro.sim.executors import _ProcessWorkerState

        found = []

        class Spy(pickle.Pickler):
            def persistent_id(self, obj):
                if isinstance(obj, (TaskGraph, GraphIndex, ErrorModel, LevelSchedule)):
                    found.append(type(obj).__name__)
                return None

        engine = _mc_engine()
        with _mc_worker_spec(engine) as spec:
            Spy(io.BytesIO()).dump(spec)
            assert found == []
            state = _ProcessWorkerState(pickle.loads(pickle.dumps(spec)))
            try:
                rng = partition_stream(engine.seed_entropy, 0)
                expected = engine._slots[0].evaluate(256, rng)
                rng = partition_stream(engine.seed_entropy, 0)
                assert np.array_equal(state.slot.evaluate(256, rng), expected)
            finally:
                state.close()

    def test_close_detaches_both_segments(self):
        from repro.sim.executors import _ProcessWorkerState

        with _mc_worker_spec(_mc_engine()) as spec:
            state = _ProcessWorkerState(spec)
            names = {spec.schedule[0], spec.out[0]}
            assert names <= set(_ATTACH_CACHE)
            state.close()
            assert not names & set(_ATTACH_CACHE)

    @needs_processes
    def test_repeated_runs_reuse_one_warm_segment(self):
        from repro.sim.engine import MonteCarloEngine

        graph = build_dag("lu", 4)
        model = ExponentialErrorModel.for_graph(graph, 1e-2)

        def run():
            return MonteCarloEngine(
                graph, model, trials=2_000, batch_size=512, seed=3,
                workers=2, backend="processes",
            ).run()

        first = run()
        hits = REGISTRY.hits
        size = len(REGISTRY)
        second = run()
        assert REGISTRY.hits > hits  # second run attached the warm segment
        assert len(REGISTRY) == size  # ... instead of publishing a new one
        assert second.mean == first.mean and second.std == first.std


# ----------------------------------------------------------------------
# One schedule key for every publisher; in-process backends stay local
# ----------------------------------------------------------------------
@needs_processes
def test_every_publisher_hits_the_service_cache_segment(monkeypatch):
    # The estimation service pre-publishes the DAG's "up" schedule; the MC
    # processes backend and the correlated and second-order processes folds
    # must each find that very segment warm.
    from repro.service.cache import build_entry
    from repro.sim.engine import MonteCarloEngine

    graph = build_dag("cholesky", 4)
    model = ExponentialErrorModel.for_graph(graph, 1e-2)
    entry = build_entry(graph)
    found_warm = []
    publish = REGISTRY.publish

    def spy(key, builder):
        if key == entry.segment_key:
            found_warm.append(REGISTRY.contains(key))
        return publish(key, builder)

    monkeypatch.setattr(REGISTRY, "publish", spy)
    try:
        MonteCarloEngine(
            graph, model, trials=1_000, batch_size=500, seed=1,
            workers=2, backend="processes",
        ).run()
        CorrelatedNormalEstimator(
            workers=2, exec_backend="processes"
        ).estimate(graph, model)
        SecondOrderEstimator(
            workers=2, exec_backend="processes"
        ).estimate(graph, model)
    finally:
        entry.dispose(REGISTRY)
    assert found_warm == [True, True, True]


@pytest.mark.parametrize("backend,workers", [("serial", 1), ("threads", 2)])
def test_in_process_backends_touch_no_shared_memory(backend, workers):
    from repro.sim.engine import MonteCarloEngine

    graph = build_dag("lu", 4)
    model = ExponentialErrorModel.for_graph(graph, 1e-2)
    before = (REGISTRY.hits, REGISTRY.misses, _shm_entries())
    for correlation_backend in ("dense", "banded"):
        CorrelatedNormalEstimator(
            correlation_backend=correlation_backend,
            workers=workers,
            exec_backend=backend,
        ).estimate(graph, model)
    SecondOrderEstimator(workers=workers, exec_backend=backend).estimate(
        graph, model
    )
    MonteCarloEngine(
        graph, model, trials=1_000, batch_size=250, seed=1,
        workers=workers, backend=backend,
    ).run()
    assert (REGISTRY.hits, REGISTRY.misses, _shm_entries()) == before


# ----------------------------------------------------------------------
# Estimators on the processes backend: bit-identity and clean exits
# ----------------------------------------------------------------------
@needs_processes
class TestEstimatorProcessParity:
    @pytest.mark.parametrize("backend", ["dense", "banded"])
    def test_correlated_processes_bit_identical(self, backend):
        graph = build_dag("cholesky", 6)
        model = ExponentialErrorModel.for_graph(graph, 1e-3)

        def estimate(**kwargs):
            result = CorrelatedNormalEstimator(
                correlation_backend=backend, **kwargs
            ).estimate(graph, model)
            return (
                result.expected_makespan,
                result.details["makespan_variance"],
            )

        reference = estimate(workers=1)
        assert estimate(workers=2, exec_backend="threads") == reference
        for workers in (1, 2, 3):
            assert (
                estimate(workers=workers, exec_backend="processes")
                == reference
            )

    def test_second_order_processes_bit_identical(self):
        graph = build_dag("qr", 5)
        model = ExponentialErrorModel.for_graph(graph, 1e-2)

        def estimate(**kwargs):
            return SecondOrderEstimator(**kwargs).estimate(
                graph, model
            ).expected_makespan

        reference = estimate(workers=1)
        assert estimate(workers=3, exec_backend="threads") == reference
        for workers in (1, 2, 3):
            assert (
                estimate(workers=workers, exec_backend="processes")
                == reference
            )

    def test_estimates_leave_no_unowned_segments(self):
        graph = build_dag("lu", 5)
        model = ExponentialErrorModel.for_graph(graph, 1e-3)
        owned = lambda: {seg.name for seg in REGISTRY._values.values()}
        before = _shm_entries() - owned()
        CorrelatedNormalEstimator(
            workers=2, exec_backend="processes"
        ).estimate(graph, model)
        SecondOrderEstimator(
            workers=2, exec_backend="processes"
        ).estimate(graph, model)
        after = _shm_entries() - owned()
        assert after <= before

    def test_registry_clear_reclaims_warm_schedule_segments(self):
        graph = build_dag("cholesky", 5)
        model = ExponentialErrorModel.for_graph(graph, 1e-2)
        CorrelatedNormalEstimator(
            workers=2, exec_backend="processes"
        ).estimate(graph, model)
        warm = {seg.name for seg in REGISTRY._values.values()}
        REGISTRY.clear()
        assert not (_shm_entries() & warm)


# ----------------------------------------------------------------------
# Compiled-kernel backends across execution backends
# ----------------------------------------------------------------------
def _have_numba() -> bool:
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


_KERNEL_BACKENDS = ["numpy"] + (["numba"] if _have_numba() else [])


@needs_processes
class TestKernelBackendProcessParity:
    """Workers must resolve the parent's *resolved* kernel backend.

    The specs shipped to worker processes carry the backend name
    explicitly, so a per-process environment difference can never make a
    worker disagree with the parent — and because every ported kernel is
    bit-identical to the NumPy reference, results match serial/threads
    at any worker count for every backend (including an unavailable one,
    which degrades to NumPy on both sides).
    """

    @pytest.mark.parametrize("kernel_backend", _KERNEL_BACKENDS)
    @pytest.mark.parametrize("corr_backend", ["banded"])
    def test_correlated_fold_bit_identical(self, corr_backend, kernel_backend):
        graph = build_dag("cholesky", 6)
        model = ExponentialErrorModel.for_graph(graph, 1e-3)

        def estimate(**kwargs):
            result = CorrelatedNormalEstimator(
                correlation_backend=corr_backend,
                kernel_backend=kernel_backend,
                **kwargs,
            ).estimate(graph, model)
            return (
                result.expected_makespan,
                result.details["makespan_variance"],
            )

        reference = estimate(workers=1)
        assert estimate(workers=2, exec_backend="threads") == reference
        for workers in (1, 2, 3):
            assert (
                estimate(workers=workers, exec_backend="processes")
                == reference
            )

    @pytest.mark.parametrize("kernel_backend", _KERNEL_BACKENDS)
    def test_monte_carlo_processes_bit_identical(self, kernel_backend):
        from repro.sim.engine import MonteCarloEngine

        graph = build_dag("lu", 5)
        model = ExponentialErrorModel.for_graph(graph, 1e-2)

        def mean(**kwargs):
            return MonteCarloEngine(
                graph,
                model,
                trials=2_048,
                batch_size=512,
                seed=77,
                kernel_backend=kernel_backend,
                **kwargs,
            ).run().mean

        # threads/processes share the per-batch RNG stream derivation, so
        # they agree with each other at any worker count (serial uses the
        # historical sequential stream and is compared elsewhere).
        reference = mean(workers=2, backend="threads")
        for workers in (1, 2, 3):
            assert mean(workers=workers, backend="processes") == reference

    def test_unavailable_backend_degrades_identically_everywhere(self):
        # "numba" requested but (possibly) not installed: every execution
        # backend must degrade to the same NumPy-reference results.
        graph = build_dag("cholesky", 5)
        model = ExponentialErrorModel.for_graph(graph, 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            reference = CorrelatedNormalEstimator(
                correlation_backend="banded", kernel_backend="numpy"
            ).estimate(graph, model)
            requested = CorrelatedNormalEstimator(
                correlation_backend="banded",
                kernel_backend="numba",
                workers=2,
                exec_backend="processes",
            ).estimate(graph, model)
        assert requested.expected_makespan == reference.expected_makespan
        assert requested.details["kernel_backend"] == "numba"

    def test_process_spec_carries_resolved_backend(self, monkeypatch):
        # The Monte Carlo spec pins the parent's resolution; a worker-side
        # environment variable must not change it.
        from repro.sim.executors import _ProcessWorkerState

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        with _mc_worker_spec(_mc_engine()) as spec:
            assert spec.plan.kernel_backend == "numpy"
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
            state = _ProcessWorkerState(spec)
            try:
                assert state.slot.kernel.kernel_backend == "numpy"
            finally:
                state.close()
