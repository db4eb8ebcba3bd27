"""The process's one warm worker pool and its fork hygiene.

Every ``processes`` run leases the same fork-started pool instead of
forking its own.  What that must not change, and what it must not leave
behind:

* no worker maps a ``psm_`` segment it did not attach itself — not even
  one its parent held at the fork — and none after its service closes;
* ``REGISTRY.clear()`` ends the pool, and an interpreter that ran a
  ``processes`` estimate exits promptly and quietly;
* slots are built inside tasks, so a short run never races its workers'
  start-up;
* concurrent services, a fork while a thread pool is busy, and a killed
  worker all keep seeded results bit-identical to ``serial``.
"""

import gc
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.estimators.correlated import CorrelatedNormalEstimator
from repro.estimators.second_order import SecondOrderEstimator
from repro.exec import ParallelService
from repro.exec.faults import FaultPlan
from repro.exec import service as exec_service
from repro.exec.service import end_warm_pool
from repro.exec.shm import REGISTRY, SharedSegment, attach_segment, detach_segment
from repro.failures.models import ExponentialErrorModel
from repro.sim.engine import MonteCarloEngine
from repro.workflows.registry import build_dag

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork"
    or not os.path.isdir("/proc/self")
    or not os.path.isdir("/dev/shm"),
    reason="the warm pool forks its workers; mappings are read from /proc",
)

_SRC = Path(__file__).resolve().parents[1] / "src"


def _psm_mappings(pid):
    """The ``psm_`` shared-memory mappings of process ``pid``."""
    try:
        with open(f"/proc/{pid}/maps") as maps:
            return [line.split()[-1] for line in maps if "psm_" in line]
    except FileNotFoundError:  # exited since it was listed
        return []


def _children_mappings():
    return {
        child.pid: _psm_mappings(child.pid)
        for child in multiprocessing.active_children()
    }


def _shm_segments():
    """The ``psm_`` segments in ``/dev/shm``."""
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def _double(item, slot, rng):
    return 2 * item


def _report_own_mappings(queue):
    queue.put(_psm_mappings("self"))


def _report_processes_mean(queue, graph, model):
    queue.put(_mc(graph, model, "processes", 2).mean)


def _mc(graph, model, backend, workers, **kwargs):
    kwargs.setdefault("trials", 2_000)
    kwargs.setdefault("batch_size", 256)
    kwargs.setdefault("seed", 5)
    return MonteCarloEngine(
        graph, model, workers=workers, backend=backend, **kwargs
    ).run()


@pytest.fixture(scope="module")
def case():
    graph = build_dag("cholesky", 6)
    return graph, ExponentialErrorModel.for_graph(graph, 1e-2)


class TestForkHygiene:
    def test_child_forked_while_segments_are_mapped_maps_none(self):
        owned = SharedSegment.create({"values": np.arange(8.0)})
        source = SharedSegment.create({"values": np.arange(4.0)})
        attached = attach_segment(*source.handle)
        try:
            assert _psm_mappings("self")
            context = multiprocessing.get_context("fork")
            queue = context.Queue()
            child = context.Process(target=_report_own_mappings, args=(queue,))
            child.start()
            mappings = queue.get(timeout=30)
            child.join(30)
            assert child.exitcode == 0
            assert mappings == []
            # The parent's own mappings are untouched by the fork.
            assert attached.arrays["values"].tolist() == [0.0, 1.0, 2.0, 3.0]
            assert owned.arrays["values"].sum() == 28.0
        finally:
            detach_segment(source.name)
            source.destroy()
            owned.destroy()

    def test_no_worker_maps_a_segment_after_the_estimates(self, case):
        graph, model = case
        _mc(graph, model, "processes", 2)
        CorrelatedNormalEstimator(workers=2, exec_backend="processes").estimate(
            graph, model
        )
        SecondOrderEstimator(workers=2, exec_backend="processes").estimate(
            graph, model
        )
        mappings = _children_mappings()
        assert len(mappings) >= 2  # the warm workers are still alive
        assert all(found == [] for found in mappings.values()), mappings


class TestLifetime:
    @pytest.mark.parametrize("backend, faults", [
        ("processes", "raise@1;raise@2"),
        ("processes", "kill@1"),
        ("serial", "raise@1;raise@2"),
    ])
    def test_unclosed_service_that_saw_failures_is_freed(self, backend, faults):
        # A recorded failure must not hold the service in a reference
        # cycle: reference counting, not the cyclic collector, frees it,
        # and its finalizer frees the lease.
        service = ParallelService(
            workers=1 if backend == "serial" else 2,
            backend=backend,
            retries=2,
            backoff=0.0,
            faults=FaultPlan.parse(faults),
        )
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert service.run(_double, range(6)) == [0, 2, 4, 6, 8, 10]
            assert service.report.failure_count > 0
            assert exec_service._WARM_POOL._leased == (backend == "processes")
            alive = weakref.ref(service)
            del service
            assert alive() is None
            assert not exec_service._WARM_POOL._leased
        finally:
            if enabled:
                gc.enable()

    def test_registry_clear_ends_the_pool(self, case):
        graph, model = case
        _mc(graph, model, "processes", 2)
        assert multiprocessing.active_children()
        REGISTRY.clear()
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert multiprocessing.active_children() == []

    def test_interpreter_exits_promptly_and_quietly(self):
        script = textwrap.dedent(
            """
            import multiprocessing
            from repro.failures.models import ExponentialErrorModel
            from repro.sim.engine import MonteCarloEngine
            from repro.workflows.registry import build_dag

            graph = build_dag("cholesky", 6)
            model = ExponentialErrorModel.for_graph(graph, 1e-2)
            MonteCarloEngine(
                graph, model, trials=2000, batch_size=256, seed=1,
                workers=2, backend="processes",
            ).run()
            print(*[child.pid for child in multiprocessing.active_children()])
            """
        )
        env = dict(os.environ, PYTHONPATH=str(_SRC))
        env.pop("REPRO_EXEC_FAULTS", None)
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert done.returncode == 0
        assert done.stderr == ""
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2

        def alive(pid):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return False
            return True

        deadline = time.monotonic() + 5.0
        while any(map(alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(map(alive, pids))

    @pytest.mark.parametrize("warm_parent", [False, True])
    def test_forked_child_runs_and_exits(self, case, warm_parent):
        # The child neither uses nor ends the pool it inherited, and its
        # own pool ends before multiprocessing joins the child's children.
        # It unlinks the segments it published before it exits.
        graph, model = case
        serial = _mc(graph, model, "serial", 1).mean
        if warm_parent:
            _mc(graph, model, "processes", 2)
        else:
            end_warm_pool()
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(
            target=_report_processes_mean, args=(queue, graph, model)
        )
        before = _shm_segments()
        child.start()
        try:
            assert queue.get(timeout=30) == serial
            child.join(30)
            assert child.exitcode == 0
            assert _shm_segments() <= before
        finally:
            if child.is_alive():
                child.kill()
                child.join(5)

    def test_short_runs_never_race_worker_start_up(self, case, capfd):
        graph, model = case
        for run in range(100):
            end_warm_pool()  # every run forks, as a cold process would
            _mc(graph, model, "processes", 2, trials=256 * (2 + run % 2))
        assert "Exception in initializer" not in capfd.readouterr().err


class TestDeterminism:
    def test_concurrent_services_match_serial(self, case):
        # More threads than cores race for the one lease; the losers fork
        # private pools.  Every result matches, and the lease ends free.
        graph, model = case
        serial = _mc(graph, model, "serial", 1).mean
        results = [[] for _ in range(4)]

        def worker(slot):
            for _ in range(3):
                results[slot].append(_mc(graph, model, "processes", 2).mean)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[serial] * 3] * 4
        assert exec_service._WARM_POOL.lease()
        exec_service._WARM_POOL.unlease()

    def test_processes_run_while_another_thread_runs_a_service(self, case):
        graph, model = case
        serial = _mc(graph, model, "serial", 1).mean
        end_warm_pool()  # the run below forks while the other thread works
        started, release = threading.Barrier(2), threading.Event()

        def busy(item, slot, rng):
            started.wait(30)
            release.wait(30)
            return item

        with ParallelService(workers=1) as other:
            runner = threading.Thread(target=other.run, args=(busy, [0]))
            runner.start()
            try:
                started.wait(30)
                assert _mc(graph, model, "processes", 2).mean == serial
            finally:
                release.set()
                runner.join(30)
            assert not runner.is_alive()

    def test_kill_replays_bit_identically_twice(self, case, monkeypatch):
        graph, model = case
        serial = _mc(graph, model, "serial", 1, trials=4_000)
        monkeypatch.setenv("REPRO_EXEC_FAULTS", "kill@5")
        monkeypatch.setenv("REPRO_EXEC_BACKOFF", "0")
        for _ in range(2):
            chaotic = _mc(
                graph, model, "processes", 2, trials=4_000, exec_retries=2
            )
            assert (chaotic.mean, chaotic.std) == (serial.mean, serial.std)
            assert chaotic.execution["pool_rebuilds"] >= 1
