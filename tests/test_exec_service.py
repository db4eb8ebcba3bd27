"""Property-based determinism tests of the shared execution service.

The contract of :class:`repro.exec.ParallelService` (mirroring the
executor-backend properties of ``tests/test_executor_properties.py``): the
outcome of a run is a pure function of the partition list — for *any*
client partition set,

* ``threads`` at any worker count produces results bit-identical to
  ``serial`` (with or without per-partition RNG streams, with or without
  worker slots);
* ``processes`` matches ``threads`` exactly (where the platform can spawn
  a pool);
* early stopping folds the same partitions in the same order at any
  worker count;
* the estimator clients riding the service (second-order sweeps, Dodin
  rounds) inherit those properties end to end.
"""

import contextlib
import gc
import multiprocessing
import sys
import time
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.estimators.correlated import CorrelatedNormalEstimator
from repro.exceptions import EstimationError
from repro.exec import service as exec_service
from repro.exec import (
    EXEC_BACKENDS,
    ParallelService,
    partition_stream,
    resolve_exec_backend,
    resolve_workers,
)
from repro.failures.models import ExponentialErrorModel
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


def _transform(item, slot, rng):
    """A deterministic partition function exercising the rng stream."""
    size = int(item) % 7 + 1
    base = np.full(size, float(item))
    if rng is not None:
        base = base + rng.standard_normal(size)
    return float(base.sum())


def _slot_transform(item, slot, rng):
    """A partition function computing through per-worker slot scratch."""
    scratch = slot["scratch"]
    scratch[:] = 0.0
    scratch[: int(item) % scratch.size + 1] = float(item)
    value = float(scratch.sum())
    if rng is not None:
        value += float(rng.random())
    return value


def _make_slots(k):
    return [{"scratch": np.empty(8, dtype=np.float64)} for _ in range(k)]


#: A weak reference to parent-process garbage, read by forked workers.
_GARBAGE = {}


def _collect_and_probe(item, slot, rng):
    """Run the worker's collector; report whether the parent's garbage lives."""
    gc.collect()
    return _GARBAGE["ref"]() is not None


def _worker_fork_state(item, slot, rng):
    """Whether the worker collects, and whether its pool-fork lock is held."""
    return gc.isenabled(), exec_service._FORK_LOCK.locked()


partition_lists = st.lists(st.integers(0, 1000), min_size=0, max_size=40)


class TestBackendResolution:
    def test_default_resolution(self):
        assert resolve_exec_backend(None, 1) == "serial"
        assert resolve_exec_backend(None, 4) == "threads"

    def test_explicit_names(self):
        for name in EXEC_BACKENDS:
            workers = 1 if name == "serial" else 2
            assert resolve_exec_backend(name, workers) == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(EstimationError):
            resolve_exec_backend("gpu", 1)

    def test_serial_with_many_workers_rejected(self):
        with pytest.raises(EstimationError):
            ParallelService(workers=4, backend="serial")

    def test_worker_count_validation(self):
        with pytest.raises(EstimationError):
            ParallelService(workers=0)

    def test_partition_stream_matches_seedsequence_spawn(self):
        root = np.random.SeedSequence(7)
        children = root.spawn(4)
        for i in range(4):
            a = np.random.default_rng(children[i]).random(8)
            b = partition_stream(7, i).random(8)
            assert np.array_equal(a, b)


class TestWorkerResolution:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_EST_WORKERS", raising=False)
        assert resolve_workers() == 1
        assert resolve_workers(3) == 3

    def test_env_fills_unset_knob_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_EST_WORKERS", "5")
        assert resolve_workers() == 5
        # An explicit argument wins over the environment (the correlation
        # knobs' convention).
        assert resolve_workers(2) == 2

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EST_WORKERS", "zero")
        with pytest.raises(EstimationError):
            resolve_workers()
        monkeypatch.setenv("REPRO_EST_WORKERS", "0")
        with pytest.raises(EstimationError):
            resolve_workers()

    def test_invalid_default_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_EST_WORKERS", raising=False)
        with pytest.raises(EstimationError):
            resolve_workers(0)


class TestThreadsDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(
        items=partition_lists,
        workers=st.integers(1, 6),
        entropy=st.one_of(st.none(), st.integers(0, 2**16)),
    )
    def test_threads_bit_identical_to_serial(self, items, workers, entropy):
        serial = ParallelService(workers=1).run(_transform, items, entropy=entropy)
        threads = ParallelService(workers=workers, backend="threads").run(
            _transform, items, entropy=entropy
        )
        assert serial == threads

    @settings(max_examples=15, deadline=None)
    @given(
        items=partition_lists,
        workers=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        entropy=st.integers(0, 2**16),
    )
    def test_threads_identical_across_worker_counts_with_slots(
        self, items, workers, entropy
    ):
        a = ParallelService(workers=workers[0], backend="threads").run(
            _slot_transform, items, slots=_make_slots(workers[0]), entropy=entropy
        )
        b = ParallelService(workers=workers[1], backend="threads").run(
            _slot_transform, items, slots=_make_slots(workers[1]), entropy=entropy
        )
        serial = ParallelService(workers=1).run(
            _slot_transform, items, slots=_make_slots(1), entropy=entropy
        )
        assert a == b == serial

    @settings(max_examples=15, deadline=None)
    @given(
        items=st.lists(st.integers(0, 1000), min_size=1, max_size=40),
        workers=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        threshold=st.integers(0, 1000),
        use_slots=st.booleans(),
    )
    def test_early_stop_folds_same_prefix(self, items, workers, threshold, use_slots):
        def run(k):
            folded = []

            def consume(index, result):
                folded.append((index, result))
                return items[index] >= threshold

            ParallelService(workers=k, backend="threads").run(
                _transform,
                items,
                slots=_make_slots(k) if use_slots else None,
                entropy=11,
                consume=consume,
            )
            return folded

        a, b = run(workers[0]), run(workers[1])
        assert a == b
        # The fold is an in-order prefix that stops at the trigger.
        indices = [i for i, _ in a]
        assert indices == list(range(len(indices)))
        triggers = [i for i, item in enumerate(items) if item >= threshold]
        if triggers:
            assert indices[-1] == triggers[0]
        else:
            assert len(indices) == len(items)


    def test_a_slot_never_serves_two_partitions_at_once(self):
        # More workers than slots and cores, a short switch interval and
        # uneven partitions: a window that handed a still-busy slot another
        # partition would find the slot's busy flag set.
        slots = [{"busy": False} for _ in range(3)]
        overlaps = []

        def occupy(item, slot, rng):
            if slot["busy"]:
                overlaps.append(item)
            slot["busy"] = True
            time.sleep(0.0002 * (item % 4))
            slot["busy"] = False
            return item

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = ParallelService(workers=8, backend="threads").run(
                occupy, range(300), slots=slots
            )
        finally:
            sys.setswitchinterval(interval)
        assert result == list(range(300))
        assert not overlaps


@pytest.mark.skipif(not HAS_PROCESSES, reason="process pools unavailable")
class TestProcessesDeterminism:
    """Process pools are slow to spin up, so a small fixed case set."""

    @pytest.mark.parametrize("seed,count,workers", [
        (3, 9, 2),
        (17, 25, 3),
    ])
    def test_processes_match_threads_exactly(self, seed, count, workers):
        rng = np.random.default_rng(seed)
        items = [int(v) for v in rng.integers(0, 1000, size=count)]
        threads = ParallelService(workers=workers, backend="threads").run(
            _transform, items, entropy=seed
        )
        processes = ParallelService(workers=workers, backend="processes").run(
            _transform, items, entropy=seed
        )
        assert processes == threads

    def test_processes_early_stop_matches_threads(self):
        items = [5, 900, 3, 950, 1]

        def run(backend):
            folded = []

            def consume(index, result):
                folded.append((index, result))
                return items[index] >= 900

            ParallelService(workers=2, backend=backend).run(
                _transform, items, entropy=0, consume=consume
            )
            return folded

        assert run("processes") == run("threads")

    def test_one_pool_per_estimate(self, monkeypatch):
        # Level 1 of cholesky has one partition, fewer than the workers:
        # sizing the pool from the partitions would fork a 1-worker pool,
        # then replace it with a 2-worker one at the first wider level.
        sizes = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(exec_service, "ProcessPoolExecutor", CountingPool)
        graph = build_dag("cholesky", 6)
        model = ExponentialErrorModel.for_graph(graph, 1e-2)
        CorrelatedNormalEstimator(exec_backend="processes", workers=2).estimate(
            graph, model
        )
        assert sizes == [2]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only forked workers inherit the parent's heap",
    )
    def test_forked_workers_never_collect_inherited_garbage(self):
        # Regression: a worker's collector freed a discarded executor
        # inherited from the parent, whose weakref callback then waited
        # forever on a lock held by a parent thread at the fork.  The
        # stand-in here is a plain reference cycle that is garbage at the
        # fork: the worker must leave it alone.
        class Node:
            pass

        gc.disable()
        try:
            node = Node()
            node.cycle = node
            _GARBAGE["ref"] = weakref.ref(node)
            del node
            service = ParallelService(workers=1, backend="processes")
            assert service.run(_collect_and_probe, [0]) == [True]
            service.close()
        finally:
            gc.enable()
            gc.collect()
            _GARBAGE.clear()
        assert gc.get_freeze_count() == 0

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only forked workers inherit the parent's heap",
    )
    def test_pool_forks_leave_the_parents_collector_alone(self):
        # The parent only pauses its collector across a fork.  A heap it
        # froze beforehand, as a benchmark harness does after set-up, must
        # not take in what was allocated since, or that garbage would
        # never be collected.
        gc.collect()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            service = ParallelService(workers=2, backend="processes")
            states = service.run(_worker_fork_state, [0, 1])
            service.close()
            gc.collect()
            # Frozen objects may still die by reference count; none join.
            assert gc.get_freeze_count() <= frozen
            assert gc.isenabled()
        finally:
            gc.unfreeze()
        # Workers collect again, and could fork pools of their own.
        assert states == [(True, False), (True, False)]


class TestServiceLifecycle:
    """``with ParallelService(...)`` closes its pools however the block ends."""

    @pytest.mark.parametrize("backend", [
        "threads",
        pytest.param("processes", marks=pytest.mark.skipif(
            not HAS_PROCESSES, reason="no process pools on this platform"
        )),
    ])
    @pytest.mark.parametrize("raises", [False, True])
    def test_leaving_the_block_closes_the_pools(self, backend, raises):
        workers = []
        with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
            with ParallelService(workers=2, backend=backend) as service:
                assert service.run(_transform, [1, 2, 3], entropy=0)
                pool = service._thread_pool or service._process_pool
                assert pool is not None
                workers = list(getattr(pool, "_processes", {}).values())
                if raises:
                    raise RuntimeError("inside the block")
        assert service._thread_pool is None
        assert service._process_pool is None
        assert bool(workers) == (backend == "processes")
        # The executor's own thread may be reaping them: poll, don't join.
        deadline = time.monotonic() + 5.0
        while any(w.is_alive() for w in workers) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(w.is_alive() for w in workers)


class TestServiceClients:
    """The analytical estimators riding the service stay worker-invariant."""

    @pytest.fixture(scope="class")
    def case(self):
        graph = build_dag("lu", 5)
        model = ExponentialErrorModel.for_graph(graph, 1e-2)
        return graph, model

    def test_second_order_bit_identical_across_workers(self, case):
        from repro.estimators.second_order import SecondOrderEstimator

        graph, model = case
        values = {
            SecondOrderEstimator(workers=k).estimate(graph, model).expected_makespan
            for k in (1, 2, 4)
        }
        assert len(values) == 1

    def test_dodin_differential_holds_at_any_worker_count(self, case):
        from oracles.estimators import sequential_dodin_estimate
        from repro.estimators.dodin import DodinEstimator

        graph, model = case
        reference = sequential_dodin_estimate(graph, model)
        for k in (1, 3):
            value = DodinEstimator(workers=k).estimate(graph, model).expected_makespan
            assert value == pytest.approx(reference, rel=1e-9)

    def test_correlated_bit_identical_across_workers(self, case):
        from repro.estimators.correlated import CorrelatedNormalEstimator

        graph, model = case
        results = [
            CorrelatedNormalEstimator(
                correlation_backend="banded", workers=k
            ).estimate(graph, model)
            for k in (1, 2, 5)
        ]
        assert len({r.expected_makespan for r in results}) == 1
        assert len({r.details["makespan_variance"] for r in results}) == 1

    def test_workers_recorded_in_details(self, case):
        from repro.estimators.correlated import CorrelatedNormalEstimator
        from repro.estimators.second_order import SecondOrderEstimator

        graph, model = case
        corr = CorrelatedNormalEstimator(workers=2).estimate(graph, model)
        assert corr.details["fold_workers"] == 2
        second = SecondOrderEstimator(workers=3).estimate(graph, model)
        assert second.details["sweep_workers"] == 3

    def test_env_knob_feeds_estimators(self, case, monkeypatch):
        from repro.estimators.correlated import CorrelatedNormalEstimator
        from repro.estimators.dodin import DodinEstimator

        monkeypatch.setenv("REPRO_EST_WORKERS", "3")
        assert CorrelatedNormalEstimator().workers == 3
        assert DodinEstimator().workers == 3
        # An explicit argument wins over the environment.
        assert CorrelatedNormalEstimator(workers=1).workers == 1
