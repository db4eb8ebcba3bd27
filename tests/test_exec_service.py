"""Property-based determinism tests of the shared execution service.

The contract of :class:`repro.exec.ParallelService` (mirroring the
executor-backend properties of ``tests/test_executor_properties.py``): the
outcome of a run is a pure function of the partition list — for *any*
client partition set,

* ``processes`` at any worker count produces results bit-identical to
  ``serial`` (with or without per-partition RNG streams, with or without
  worker slots), where the platform can spawn a pool;
* early stopping folds the same partitions in the same order at any
  worker count;
* the estimator clients riding the service (correlated fold, second-order
  sweeps) inherit those properties end to end.
"""

import contextlib
import gc
import multiprocessing
import os
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.estimators.correlated import CorrelatedNormalEstimator
from repro.exceptions import EstimationError, OptionError
from repro.exec import service as exec_service
from repro.exec import (
    EXEC_BACKENDS,
    ParallelService,
    partition_stream,
    resolve_exec_backend,
    resolve_workers,
)
from repro.exec.shm import SharedSegment, attach_segment, detach_segment
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


def _make_slot():
    return {"scratch": np.empty(8, dtype=np.float64)}


def _run(workers, fn, items, *, slot=False, **kwargs):
    """One run on ``serial`` (one worker) or ``processes`` (more); with
    ``slot``, against a scratch slot built where the backend evaluates."""
    if slot:
        key = "slot" if workers == 1 else "slot_factory"
        kwargs[key] = _make_slot() if workers == 1 else _make_slot
    with ParallelService(workers=workers) as service:
        return service.run(fn, items, **kwargs)


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
        assert resolve_exec_backend(None, 4) == "processes"
        assert ParallelService(workers=2).backend == "processes"

    def test_explicit_names(self):
        for name in EXEC_BACKENDS:
            workers = 1 if name == "serial" else 2
            assert resolve_exec_backend(name, workers) == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(EstimationError):
            resolve_exec_backend("gpu", 1)

    def test_threads_is_no_backend(self):
        with pytest.raises(OptionError, match="threads"):
            ParallelService(workers=2, backend="threads")
        with pytest.raises(OptionError, match="threads"):
            resolve_exec_backend("threads", 1)

    def test_serial_with_many_workers_rejected(self):
        with pytest.raises(EstimationError):
            ParallelService(workers=4, backend="serial")

    def test_serial_rejection_points_to_processes(self):
        with pytest.raises(EstimationError) as excinfo:
            resolve_exec_backend("serial", 2)
        message = str(excinfo.value)
        assert "backend='processes'" in message
        assert "threads" not in message

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


class _ScratchSlot(dict):
    """``_make_slot``'s scratch, with a ``close()`` that records the call."""

    def __init__(self):
        super().__init__(_make_slot())
        self.closed = False

    def close(self):
        self.closed = True


class TestServiceSlots:
    """``serial`` evaluates every partition against one in-process slot:
    the client's, or one it builds from the factory and closes after."""

    ITEMS = [3, 1, 4, 1, 5]

    def test_serial_uses_the_given_slot_and_never_the_factory(self):
        slot = _ScratchSlot()
        seen = []

        def record(item, scratch, rng):
            seen.append(scratch)
            return _slot_transform(item, scratch, rng)

        def factory():
            raise AssertionError("serial built a slot beside the given one")

        with ParallelService(workers=1, faults=None) as service:
            values = service.run(
                record, self.ITEMS, slot=slot, slot_factory=factory, entropy=2
            )
        assert values == _run(1, _slot_transform, self.ITEMS, slot=True, entropy=2)
        assert len(seen) == len(self.ITEMS) and all(s is slot for s in seen)
        # The client's slot stays the client's to close.
        assert not slot.closed

    def test_serial_builds_and_closes_one_factory_slot(self):
        built = []

        def factory():
            built.append(_ScratchSlot())
            return built[-1]

        with ParallelService(workers=1, faults=None) as service:
            values = service.run(
                _slot_transform, self.ITEMS, slot_factory=factory, entropy=2
            )
        assert values == _run(1, _slot_transform, self.ITEMS, slot=True, entropy=2)
        assert len(built) == 1 and built[0].closed


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


@pytest.mark.skipif(not HAS_PROCESSES, reason="process pools unavailable")
class TestProcessesDeterminism:
    """Process pools are slow to spin up, so few examples at 1-3 workers."""

    @settings(max_examples=10, deadline=None)
    @given(
        items=partition_lists,
        workers=st.integers(2, 3),
        entropy=st.one_of(st.none(), st.integers(0, 2**16)),
    )
    def test_processes_bit_identical_to_serial(self, items, workers, entropy):
        serial = _run(1, _transform, items, entropy=entropy)
        assert _run(workers, _transform, items, entropy=entropy) == serial

    @settings(max_examples=8, deadline=None)
    @given(
        items=partition_lists,
        workers=st.tuples(st.integers(2, 3), st.integers(2, 3)),
        entropy=st.integers(0, 2**16),
    )
    def test_processes_identical_across_worker_counts_with_slots(
        self, items, workers, entropy
    ):
        a = _run(workers[0], _slot_transform, items, slot=True, entropy=entropy)
        b = _run(workers[1], _slot_transform, items, slot=True, entropy=entropy)
        serial = _run(1, _slot_transform, items, slot=True, entropy=entropy)
        assert a == b == serial

    @settings(max_examples=8, deadline=None)
    @given(
        items=st.lists(st.integers(0, 1000), min_size=1, max_size=40),
        workers=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        threshold=st.integers(0, 1000),
        use_slot=st.booleans(),
    )
    def test_early_stop_folds_same_prefix(self, items, workers, threshold, use_slot):
        def run(k):
            folded = []

            def consume(index, result):
                folded.append((index, result))
                return items[index] >= threshold

            _run(k, _transform, items, slot=use_slot, entropy=11, consume=consume)
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

    @pytest.mark.parametrize("seed,count,workers", [
        (3, 9, 2),
        (17, 25, 3),
    ])
    def test_processes_match_serial_exactly(self, seed, count, workers):
        rng = np.random.default_rng(seed)
        items = [int(v) for v in rng.integers(0, 1000, size=count)]
        serial = _run(1, _transform, items, entropy=seed)
        assert _run(workers, _transform, items, entropy=seed) == serial

    def test_processes_early_stop_matches_serial(self):
        items = [5, 900, 3, 950, 1]

        def run(workers):
            folded = []

            def consume(index, result):
                folded.append((index, result))
                return items[index] >= 900

            _run(workers, _transform, items, entropy=0, consume=consume)
            return folded

        assert run(2) == run(1)

    def test_one_pool_across_estimates(self, monkeypatch):
        # Level 1 of cholesky has one partition, fewer than the workers:
        # sizing the pool from the partitions would fork a 1-worker pool,
        # then replace it with a 2-worker one at the first wider level.
        # The next estimate leases the same warm pool.
        sizes = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        # Start from no warm pool, so that the first estimate builds it.
        exec_service.end_warm_pool()
        monkeypatch.setattr(exec_service, "ProcessPoolExecutor", CountingPool)
        graph = build_dag("cholesky", 6)
        model = ExponentialErrorModel.for_graph(graph, 1e-2)
        for _ in range(2):
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

        # Workers forked before the garbage existed would prove nothing.
        exec_service.end_warm_pool()
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


class _AttachSlot:
    """A slot factory that maps a segment, as the estimators' specs do."""

    def __init__(self, handle):
        self.handle = handle

    def __call__(self):
        return _AttachedSlot(self.handle)


class _AttachedSlot:
    def __init__(self, handle):
        self.name = handle[0]
        self.values = attach_segment(*handle).arrays["values"]

    def close(self):
        self.values = None
        detach_segment(self.name)


def _read_slot(item, slot, rng):
    return float(slot.values[int(item)])


def _psm_mappings(pid):
    """The ``psm_`` shared-memory mappings of process ``pid``."""
    with open(f"/proc/{pid}/maps") as maps:
        return [line.split()[-1] for line in maps if "psm_" in line]


@pytest.mark.skipif(
    not HAS_PROCESSES or not os.path.isdir("/proc/self"),
    reason="no process pools, or no /proc to read mappings from",
)
class TestServiceLifecycle:
    """``with ParallelService(...)`` releases its pool however the block
    ends: the warm process pool's workers drop every slot and segment."""

    @pytest.mark.parametrize("raises", [False, True])
    def test_leaving_the_block_closes_the_pools(self, raises):
        workers = []
        with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
            with ParallelService(workers=2, backend="processes") as service:
                # As an estimate does: the slots map a segment that is
                # unlinked before the block ends.
                segment = SharedSegment.create({"values": np.arange(4.0)})
                try:
                    assert service.run(
                        _read_slot, [1, 2, 3],
                        slot_factory=_AttachSlot(segment.handle),
                    ) == [1.0, 2.0, 3.0]
                finally:
                    segment.destroy()
                assert service._processes.leased
                workers = list(service._processes.pool.executor._processes.values())
                if raises:
                    raise RuntimeError("inside the block")
        assert service._processes.pool is None
        assert not service._processes.leased
        # Warm for the next service, and mapping nothing of this one.
        assert len(workers) == 2 and all(w.is_alive() for w in workers)
        assert [_psm_mappings(w.pid) for w in workers] == [[], []]


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

    def test_dodin_runs_on_one_worker(self, case, monkeypatch):
        from oracles.estimators import sequential_dodin_estimate
        from repro.estimators.dodin import DodinEstimator

        graph, model = case
        reference = sequential_dodin_estimate(graph, model)
        value = DodinEstimator(workers=1).estimate(graph, model).expected_makespan
        assert value == pytest.approx(reference, rel=1e-9)
        for workers in (0, 2, 3):
            with pytest.raises(OptionError, match="workers"):
                DodinEstimator(workers=workers)
        # The analytic worker knob does not reach Dodin.
        monkeypatch.setenv("REPRO_EST_WORKERS", "2")
        result = DodinEstimator().estimate(graph, model)
        assert result.expected_makespan == value
        assert result.details["execution"]["workers"] == 1

    def test_dodin_retries_replay_the_clean_run(self, case, monkeypatch):
        # Dodin keeps its serial service for retries and fault injection.
        from repro.estimators.dodin import DodinEstimator

        graph, model = case
        monkeypatch.delenv("REPRO_EXEC_FAULTS", raising=False)
        clean = DodinEstimator().estimate(graph, model)
        monkeypatch.setenv("REPRO_EXEC_FAULTS", "raise@0")
        monkeypatch.setenv("REPRO_EXEC_BACKOFF", "0")
        faulty = DodinEstimator(exec_retries=1).estimate(graph, model)
        assert faulty.expected_makespan == clean.expected_makespan
        execution = faulty.details["execution"]
        assert execution["backend"] == execution["effective_backend"] == "serial"
        assert execution["faults_injected"] >= 1
        assert execution["retries"] == execution["faults_injected"]

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

        monkeypatch.setenv("REPRO_EST_WORKERS", "3")
        assert CorrelatedNormalEstimator().workers == 3
        # An explicit argument wins over the environment.
        assert CorrelatedNormalEstimator(workers=1).workers == 1
