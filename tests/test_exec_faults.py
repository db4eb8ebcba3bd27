"""Chaos tests of the execution service's fault-tolerance layer.

The central property (mirroring the determinism contract of
``tests/test_exec_service.py``): for *any* injected fault plan below the
retry budget, every backend folds a result **bit-identical** to the
fault-free run — including identical early-stop prefixes — because a
retried partition replays its index-keyed RNG stream.  On top of that:
structured :class:`~repro.exceptions.ExecutionError` on exhausted budgets,
worker-kill recovery through pool rebuilds, preemptive deadlines on the
``processes`` backend, opt-in backend degradation, and a clean
shared-memory lifecycle when workers die mid-run.
"""

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import (
    EstimationError,
    ExecutionError,
    ExecutionTimeoutError,
    ReproError,
)
from repro.exec import (
    ExecutionPolicy,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ParallelService,
    RandomFaults,
)


def _processes_available() -> bool:
    try:
        with ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context()
        ) as pool:
            return pool.submit(int, 1).result(timeout=60) == 1
    except Exception:
        return False


HAS_PROCESSES = _processes_available()

#: Worker counts of the property tests: one is ``serial``, more resolve to
#: ``processes``.
worker_counts = st.integers(1, 3) if HAS_PROCESSES else st.just(1)


def _transform(item, slot, rng):
    """A deterministic partition function exercising the rng stream."""
    size = int(item) % 7 + 1
    base = np.full(size, float(item))
    if rng is not None:
        base = base + rng.standard_normal(size)
    return float(base.sum())


def _service(**kwargs):
    """A service with fault-plan/backoff defaults suited to fast tests."""
    kwargs.setdefault("backoff", 0.0)
    kwargs.setdefault("faults", None)
    return ParallelService(**kwargs)


# ----------------------------------------------------------------------
# Fault-plan grammar and semantics
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_spec_entries(self):
        plan = FaultPlan.parse("raise@3; hang@2:0.25; kill@5#1; raise@0#2")
        assert plan.lookup(3, 0) == FaultSpec("raise", 3)
        assert plan.lookup(2, 0).duration == 0.25
        assert plan.lookup(5, 1).kind == "kill"
        assert plan.lookup(0, 2).kind == "raise"
        assert plan.lookup(3, 1) is None
        assert plan.lookup(7, 0) is None

    def test_parse_random_entry(self):
        plan = FaultPlan.parse("random(p=0.5, seed=42, kinds=raise+kill)")
        assert plan.random == RandomFaults(0.5, seed=42, kinds=("raise", "kill"))
        # Decisions are per-partition deterministic and attempt-0 only.
        first = [plan.lookup(i, 0) for i in range(64)]
        again = [plan.lookup(i, 0) for i in range(64)]
        assert first == again
        assert any(spec is not None for spec in first)
        assert all(plan.lookup(i, 1) is None for i in range(64))

    def test_parse_rejects_malformed(self):
        for text in ("explode@1", "raise", "raise@x", "random(p=2)",
                     "random(p=0.1,unknown=3)", "raise@1#z",
                     "random(p=0.1);random(p=0.2)"):
            with pytest.raises(EstimationError):
                FaultPlan.parse(text)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_FAULTS", raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_EXEC_FAULTS", "raise@1")
        assert FaultPlan.from_env() == FaultPlan.parse("raise@1")

    def test_plan_pickles(self):
        plan = FaultPlan.parse("kill@2; random(p=0.1, seed=7)")
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_apply_raise_and_kill_downgrade_in_process(self):
        plan = FaultPlan.parse("raise@0; kill@1")
        with pytest.raises(InjectedFault):
            plan.apply(0, 0, in_child=False)
        # The serial backend cannot kill the interpreter: kill -> raise.
        with pytest.raises(InjectedFault):
            plan.apply(1, 0, in_child=False)
        plan.apply(2, 0, in_child=False)  # no fault scheduled: no-op

    def test_injected_faults_are_not_repro_errors(self):
        # They model *external* worker failures, so catch-all ReproError
        # handlers must not swallow them before the retry layer does.
        assert not issubclass(InjectedFault, ReproError)


class TestExecutionPolicy:
    def test_env_resolution_and_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_RETRIES", "3")
        monkeypatch.setenv("REPRO_EXEC_TIMEOUT", "1.5")
        monkeypatch.setenv("REPRO_EXEC_ON_FAILURE", "degrade")
        monkeypatch.setenv("REPRO_EXEC_BACKOFF", "0")
        policy = ExecutionPolicy.resolve()
        assert policy == ExecutionPolicy(3, 1.5, "degrade", 0.0)
        # Explicit arguments win over the environment.
        explicit = ExecutionPolicy.resolve(retries=1, on_failure="raise")
        assert explicit.retries == 1 and explicit.on_failure == "raise"
        assert explicit.timeout == 1.5  # unset knob still env-filled

    def test_validation(self):
        with pytest.raises(EstimationError):
            ExecutionPolicy(retries=-1)
        with pytest.raises(EstimationError):
            ExecutionPolicy(timeout=0.0)
        with pytest.raises(EstimationError):
            ExecutionPolicy(on_failure="panic")

    def test_backoff_jitter_is_deterministic(self):
        policy = ExecutionPolicy(retries=3, backoff=0.1)
        a = policy.backoff_delay(42, 5, 2)
        b = policy.backoff_delay(42, 5, 2)
        assert a == b and 0.1 <= a <= 0.2
        assert policy.backoff_delay(42, 5, 0) == 0.0
        assert ExecutionPolicy(backoff=0.0).backoff_delay(42, 5, 2) == 0.0


# ----------------------------------------------------------------------
# Retry determinism (the tentpole property)
# ----------------------------------------------------------------------
faulted_attempts = st.dictionaries(
    st.integers(0, 29), st.integers(1, 2), max_size=6
)


class TestRetryDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(
        items=st.lists(st.integers(0, 1000), min_size=1, max_size=30),
        workers=worker_counts,
        entropy=st.integers(0, 2**16),
        faulted=faulted_attempts,
    )
    def test_faulty_run_bit_identical_to_fault_free(
        self, items, workers, entropy, faulted
    ):
        # Partition p fails on attempts 0..f-1 and succeeds on attempt f;
        # the retry budget covers the deepest failure chain.
        specs = [
            FaultSpec("raise", p, attempt=a)
            for p, f in faulted.items()
            for a in range(f)
        ]
        plan = FaultPlan(specs)
        retries = max(faulted.values(), default=0)
        clean = _service(workers=workers).run(_transform, items, entropy=entropy)
        chaotic = _service(workers=workers, retries=retries, faults=plan).run(
            _transform, items, entropy=entropy
        )
        assert chaotic == clean

    @settings(max_examples=15, deadline=None)
    @given(
        items=st.lists(st.integers(0, 1000), min_size=1, max_size=30),
        workers=worker_counts,
        threshold=st.integers(0, 1000),
        faulted=faulted_attempts,
    )
    def test_early_stop_prefix_identical_under_faults(
        self, items, workers, threshold, faulted
    ):
        plan = FaultPlan(
            [
                FaultSpec("raise", p, attempt=a)
                for p, f in faulted.items()
                for a in range(f)
            ]
        )
        retries = max(faulted.values(), default=0)

        def run(faults, budget):
            folded = []

            def consume(index, result):
                folded.append((index, result))
                return items[index] >= threshold

            _service(workers=workers, retries=budget, faults=faults).run(
                _transform, items, entropy=11, consume=consume
            )
            return folded

        clean, chaotic = run(None, 0), run(plan, retries)
        assert chaotic == clean
        indices = [i for i, _ in clean]
        assert indices == list(range(len(indices)))

    def test_serial_slot_stream_replays_on_retry(self):
        # Every MC batch draws from its own partition stream, which the
        # service re-derives on each attempt, so retries replay their draws.
        from repro.failures.models import ExponentialErrorModel
        from repro.sim.engine import MonteCarloEngine
        from repro.workflows.registry import build_dag

        graph = build_dag("cholesky", 4)
        model = ExponentialErrorModel.for_graph(graph, 1e-2)

        def run(env):
            # Start from a fault-free environment (the chaos CI job exports
            # a global REPRO_EXEC_FAULTS plan) so the clean reference really
            # is clean, then apply this run's own plan.
            keys = ("REPRO_EXEC_FAULTS", "REPRO_EXEC_BACKOFF")
            saved = {key: os.environ.pop(key, None) for key in keys}
            for key, value in env.items():
                os.environ[key] = value
            try:
                return MonteCarloEngine(
                    graph, model, trials=4_000, batch_size=512, seed=9,
                    exec_retries=2,
                ).run()
            finally:
                for key in env:
                    os.environ.pop(key, None)
                for key, value in saved.items():
                    if value is not None:
                        os.environ[key] = value

        clean = run({})
        chaotic = run({"REPRO_EXEC_FAULTS": "raise@1; raise@3#0; raise@3#1",
                       "REPRO_EXEC_BACKOFF": "0"})
        assert chaotic.mean == clean.mean
        assert chaotic.std == clean.std
        assert chaotic.execution["retries"] == 3
        assert chaotic.execution["faults_injected"] == 3
        assert clean.execution["clean"]

    @pytest.mark.parametrize(
        "backend,workers", [("serial", 1), ("processes", 2)]
    )
    def test_mc_retries_replay_the_clean_serial_run(
        self, monkeypatch, backend, workers
    ):
        # One RNG contract: a chaotic run on any backend equals the clean
        # serial run bit for bit.
        if backend == "processes" and not HAS_PROCESSES:
            pytest.skip("process pools unavailable")
        from repro.failures.models import ExponentialErrorModel
        from repro.sim.engine import MonteCarloEngine
        from repro.workflows.registry import build_dag

        graph = build_dag("cholesky", 4)
        model = ExponentialErrorModel.for_graph(graph, 1e-2)
        kw = dict(trials=4_000, batch_size=512, seed=9, exec_retries=2,
                  keep_samples=True)
        monkeypatch.delenv("REPRO_EXEC_FAULTS", raising=False)
        monkeypatch.setenv("REPRO_EXEC_BACKOFF", "0")
        clean = MonteCarloEngine(graph, model, **kw).run()
        monkeypatch.setenv("REPRO_EXEC_FAULTS", "raise@1; raise@3#0")
        chaotic = MonteCarloEngine(
            graph, model, backend=backend, workers=workers, **kw
        ).run()
        assert clean.execution["clean"]
        assert chaotic.execution["retries"] == 2
        assert chaotic.execution["faults_injected"] == 2
        assert np.array_equal(chaotic.samples.samples(), clean.samples.samples())
        assert chaotic.mean == clean.mean
        assert chaotic.std == clean.std
        assert chaotic.minimum == clean.minimum
        assert chaotic.maximum == clean.maximum

    @pytest.mark.skipif(not HAS_PROCESSES, reason="process pools unavailable")
    def test_report_accounts_attempts_and_retries(self):
        service = _service(
            workers=2, backend="processes", retries=1,
            faults=FaultPlan.parse("raise@0; raise@2"),
        )
        assert service.run(_transform, [1, 2, 3, 4], entropy=5) is not None
        report = service.report
        assert report.partitions == 4
        assert report.attempts == 6
        assert report.retries == 2
        assert report.failure_count == 2
        assert report.faults_injected == 2
        assert not report.clean
        assert {f.partition for f in report.failures} == {0, 2}
        assert "2 retries" in report.summary()

    def test_env_fault_plan_feeds_service_unless_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_FAULTS", "raise@0")
        monkeypatch.setenv("REPRO_EXEC_RETRIES", "1")
        monkeypatch.setenv("REPRO_EXEC_BACKOFF", "0")
        implicit = ParallelService(workers=1)
        assert implicit.faults == FaultPlan.parse("raise@0")
        assert implicit.run(_transform, [5, 6]) == _service(workers=1).run(
            _transform, [5, 6]
        )
        assert implicit.report.faults_injected == 1
        # Explicit faults=None opts out regardless of the environment.
        disabled = ParallelService(workers=1, faults=None)
        disabled.run(_transform, [5, 6])
        assert disabled.report.clean


# ----------------------------------------------------------------------
# Structured errors
# ----------------------------------------------------------------------
class TestStructuredErrors:
    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("processes", 3)])
    def test_exhausted_retries_raise_execution_error(self, backend, workers):
        if backend == "processes" and not HAS_PROCESSES:
            pytest.skip("process pools unavailable")
        plan = FaultPlan([FaultSpec("raise", 2, attempt=a) for a in range(3)])
        service = _service(
            workers=workers, backend=backend, retries=2, faults=plan
        )
        with pytest.raises(ExecutionError) as excinfo:
            service.run(_transform, [1, 2, 3, 4], entropy=0)
        err = excinfo.value
        assert err.partition == 2
        assert err.attempts == 3
        assert len(err.causes) == 3
        assert "injected raise fault" in err.causes[0]
        assert isinstance(err, EstimationError)  # under ReproError
        assert service.report.quarantined == [2]

    def test_failure_past_early_stop_cannot_fail_the_run(self):
        # Partition 3 always fails, but the fold stops at partition 1.
        plan = FaultPlan([FaultSpec("raise", 3, attempt=a) for a in range(5)])
        for workers in (1, 3) if HAS_PROCESSES else (1,):
            folded = []
            _service(workers=workers, faults=plan).run(
                _transform,
                [1, 2, 3, 4, 5],
                entropy=3,
                consume=lambda i, r: folded.append(i) or i >= 1,
            )
            assert folded == [0, 1]

    def test_consumer_exceptions_propagate_unwrapped(self):
        class Sentinel(Exception):
            pass

        def consume(index, result):
            raise Sentinel

        for workers in (1, 3) if HAS_PROCESSES else (1,):
            with pytest.raises(Sentinel):
                _service(workers=workers, retries=5).run(
                    _transform, [1, 2, 3], entropy=0, consume=consume
                )

    def test_serial_soft_deadline_is_advisory(self):
        # A hang past the deadline on serial is recorded, not discarded.
        plan = FaultPlan.parse("hang@1:0.05")
        service = _service(workers=1, timeout=0.01, faults=plan)
        clean = _service(workers=1).run(_transform, [7, 8, 9], entropy=1)
        assert service.run(_transform, [7, 8, 9], entropy=1) == clean
        assert service.report.deadline_misses >= 1
        assert service.report.timeouts == 0


# ----------------------------------------------------------------------
# Backend degradation
# ----------------------------------------------------------------------
class _BrokenPool:
    def __init__(self, *args, **kwargs):
        raise OSError("injected: cannot fork")


class _ClosingSlot:
    """An evaluation slot that records its ``close()``."""

    closed = False

    def close(self):
        self.closed = True


class TestDegradation:
    def test_processes_degrade_to_serial(self, monkeypatch):
        import repro.exec.service as service_module

        # A warm pool left by an earlier test would bypass the patch.
        service_module.end_warm_pool()
        monkeypatch.setattr(service_module, "ProcessPoolExecutor", _BrokenPool)
        clean = _service(workers=1).run(_transform, [1, 2, 3], entropy=4)
        service = _service(workers=2, backend="processes", on_failure="degrade")
        assert service.run(_transform, [1, 2, 3], entropy=4) == clean
        report = service.report
        assert [d.as_dict()["to"] for d in report.degradations] == ["serial"]
        assert report.effective_backend == "serial"
        assert report.backend == "processes"

    def test_degraded_run_builds_and_closes_one_parent_slot(self, monkeypatch):
        import repro.exec.service as service_module

        service_module.end_warm_pool()
        monkeypatch.setattr(service_module, "ProcessPoolExecutor", _BrokenPool)
        built = []

        def factory():
            built.append(_ClosingSlot())
            return built[-1]

        clean = _service(workers=1).run(_transform, [1, 2, 3], entropy=4)
        service = _service(workers=2, backend="processes", on_failure="degrade")
        assert service.run(
            _transform, [1, 2, 3], slot_factory=factory, entropy=4
        ) == clean
        assert len(built) == 1 and built[0].closed

    def test_second_order_degrades_to_serial_bit_identical(self, monkeypatch):
        import repro.exec.service as service_module
        from repro.estimators.second_order import SecondOrderEstimator
        from repro.failures.models import ExponentialErrorModel
        from repro.workflows.registry import build_dag

        graph = build_dag("lu", 5)
        model = ExponentialErrorModel.for_graph(graph, 1e-2)
        serial = SecondOrderEstimator(workers=1).estimate(graph, model)
        service_module.end_warm_pool()
        monkeypatch.setattr(service_module, "ProcessPoolExecutor", _BrokenPool)
        degraded = SecondOrderEstimator(
            workers=2, exec_backend="processes", exec_on_failure="degrade"
        ).estimate(graph, model)
        assert degraded.expected_makespan == serial.expected_makespan
        execution = degraded.details["execution"]
        assert execution["effective_backend"] == "serial"
        assert [d["to"] for d in execution["degradations"]] == ["serial"]

    def test_degradation_is_opt_in(self, monkeypatch):
        import repro.exec.service as service_module

        service_module.end_warm_pool()
        monkeypatch.setattr(service_module, "ProcessPoolExecutor", _BrokenPool)
        service = _service(workers=2, backend="processes")  # on_failure="raise"
        with pytest.raises(ExecutionError) as excinfo:
            service.run(_transform, [1, 2, 3], entropy=4)
        assert "unusable" in str(excinfo.value)
        assert excinfo.value.partition is None


# ----------------------------------------------------------------------
# Process backend: kills, preemption, shared-memory lifecycle
# ----------------------------------------------------------------------
def _leaked_shm_segments():
    """The ``/dev/shm`` segments nothing accounts for.

    Segments held warm by the content-addressed registry are *owned*, not
    leaked: the registry refcounts them and unlinks everything on clear()
    / interpreter exit, so they are excluded from the leak census.
    """
    from repro.exec.shm import REGISTRY

    base = "/dev/shm"
    if not os.path.isdir(base):  # pragma: no cover - non-POSIX fallback
        return set()
    owned = {seg.name for seg in REGISTRY._values.values()}
    return {
        name
        for name in os.listdir(base)
        if name.startswith("psm_") and name not in owned
    }


@pytest.mark.skipif(not HAS_PROCESSES, reason="process pools unavailable")
class TestProcessChaos:
    def test_worker_kill_recovered_bit_identical(self):
        items = [3, 1, 4, 1, 5, 9, 2, 6]
        clean = _service(workers=2, backend="processes").run(
            _transform, items, entropy=8
        )
        service = _service(
            workers=2, backend="processes", retries=2,
            faults=FaultPlan.parse("kill@3"),
        )
        assert service.run(_transform, items, entropy=8) == clean
        assert service.report.pool_rebuilds >= 1
        assert any(f.kind == "worker-lost" for f in service.report.failures)

    def test_random_plan_matches_serial(self):
        items = [int(v) for v in np.random.default_rng(5).integers(0, 999, 16)]
        plan = FaultPlan.parse("random(p=0.3, seed=12)")
        serial = _service(workers=1, retries=1, faults=plan).run(
            _transform, items, entropy=5
        )
        processes = _service(
            workers=3, backend="processes", retries=1, faults=plan
        ).run(_transform, items, entropy=5)
        clean = _service(workers=1).run(_transform, items, entropy=5)
        assert processes == serial == clean

    def test_hung_worker_preempted_and_retried(self):
        items = [1, 2, 3]
        clean = _service(workers=2, backend="processes").run(
            _transform, items, entropy=6
        )
        service = _service(
            workers=2, backend="processes", retries=1, timeout=0.25,
            faults=FaultPlan.parse("hang@0:30"),
        )
        assert service.run(_transform, items, entropy=6) == clean
        assert service.report.timeouts >= 1
        assert service.report.pool_rebuilds >= 1

    def test_hang_past_budget_raises_timeout_error(self):
        service = _service(
            workers=2, backend="processes", timeout=0.25,
            faults=FaultPlan(
                [FaultSpec("hang", 0, attempt=a, duration=30) for a in range(4)]
            ),
        )
        with pytest.raises(ExecutionTimeoutError) as excinfo:
            service.run(_transform, [1, 2], entropy=0)
        assert excinfo.value.partition == 0
        assert "deadline" in excinfo.value.causes[0]

    def test_mc_worker_kill_leaves_no_shm_leak(self, monkeypatch):
        # Satellite: kill a worker mid-run; the engine's result buffer must
        # be unlinked and the resource tracker left clean.
        from repro.failures.models import ExponentialErrorModel
        from repro.sim.engine import MonteCarloEngine
        from repro.workflows.registry import build_dag

        graph = build_dag("cholesky", 4)
        model = ExponentialErrorModel.for_graph(graph, 1e-2)

        def run():
            return MonteCarloEngine(
                graph, model, trials=4_000, batch_size=512, seed=13,
                workers=2, backend="processes", exec_retries=2,
            ).run()

        before = _leaked_shm_segments()
        clean = run()
        monkeypatch.setenv("REPRO_EXEC_FAULTS", "kill@2")
        monkeypatch.setenv("REPRO_EXEC_BACKOFF", "0")
        chaotic = run()
        after = _leaked_shm_segments()
        assert after <= before  # no new segments survived either run
        assert chaotic.mean == clean.mean and chaotic.std == clean.std
        assert chaotic.execution["pool_rebuilds"] >= 1
        assert not chaotic.execution["clean"]

    def test_shm_fold_bit_identical_under_faults_any_worker_count(self):
        # Hypothesis property over the shared-memory kernel plane: the
        # correlated per-level fold on the ``processes`` backend — workers
        # attached zero-copy to the estimate's segments — replays faulted
        # partitions bit-identically to the serial reference,
        # at any worker count, for raise *and* kill (pool-rebuild) plans.
        from repro.estimators.correlated import CorrelatedNormalEstimator
        from repro.failures.models import ExponentialErrorModel
        from repro.workflows.registry import build_dag

        graph = build_dag("cholesky", 5)
        model = ExponentialErrorModel.for_graph(graph, 1e-3)

        def estimate(env, **kwargs):
            keys = ("REPRO_EXEC_FAULTS", "REPRO_EXEC_BACKOFF")
            saved = {key: os.environ.pop(key, None) for key in keys}
            os.environ["REPRO_EXEC_BACKOFF"] = "0"
            for key, value in env.items():
                os.environ[key] = value
            try:
                result = CorrelatedNormalEstimator(**kwargs).estimate(
                    graph, model
                )
                return (
                    result.expected_makespan,
                    result.details["makespan_variance"],
                )
            finally:
                for key in keys:
                    os.environ.pop(key, None)
                for key, value in saved.items():
                    if value is not None:
                        os.environ[key] = value

        reference = estimate({}, workers=1)
        # Several workers with no backend named run on processes.
        assert estimate({}, workers=3) == reference

        @settings(max_examples=5, deadline=None)
        @given(
            workers=st.integers(1, 3),
            plan=st.sampled_from(
                ["raise@0", "raise@1#0; raise@1#1", "kill@0",
                 "kill@2; raise@0"]
            ),
        )
        def property_holds(workers, plan):
            chaotic = estimate(
                {"REPRO_EXEC_FAULTS": plan},
                workers=workers,
                exec_backend="processes",
                exec_retries=2,
            )
            assert chaotic == reference

        property_holds()

    def test_shm_degrade_to_serial_bit_identical_and_leak_free(
        self, monkeypatch
    ):
        # A dead process backend degrades to serial *within the run*: the
        # parent builds its slot through the same spec (attaching its own
        # segments by name), folds bit-identically, and the teardown path
        # still leaves /dev/shm clean.
        import repro.exec.service as service_module
        from repro.estimators.correlated import CorrelatedNormalEstimator
        from repro.failures.models import ExponentialErrorModel
        from repro.workflows.registry import build_dag

        graph = build_dag("lu", 5)
        model = ExponentialErrorModel.for_graph(graph, 1e-3)

        def estimate(**kwargs):
            result = CorrelatedNormalEstimator(**kwargs).estimate(graph, model)
            return (
                result.expected_makespan,
                result.details["makespan_variance"],
            )

        serial = estimate(workers=1)
        before = _leaked_shm_segments()
        service_module.end_warm_pool()
        monkeypatch.setattr(service_module, "ProcessPoolExecutor", _BrokenPool)
        degraded = estimate(
            workers=2, exec_backend="processes", exec_on_failure="degrade"
        )
        assert degraded == serial
        assert _leaked_shm_segments() <= before

    def test_shm_pool_rebuilds_leave_no_leak(self, monkeypatch):
        # Regression: killed workers force pool rebuilds mid-estimate; the
        # segments published for that estimate must all be reclaimed (the
        # registry's warm schedule segment stays owned, not leaked).
        from repro.estimators.correlated import CorrelatedNormalEstimator
        from repro.estimators.second_order import SecondOrderEstimator
        from repro.failures.models import ExponentialErrorModel
        from repro.workflows.registry import build_dag

        graph = build_dag("cholesky", 5)
        model = ExponentialErrorModel.for_graph(graph, 1e-2)
        monkeypatch.setenv("REPRO_EXEC_FAULTS", "kill@0")
        monkeypatch.setenv("REPRO_EXEC_BACKOFF", "0")
        before = _leaked_shm_segments()

        correlated = CorrelatedNormalEstimator(
            workers=2, exec_backend="processes", exec_retries=2
        ).estimate(graph, model)
        second = SecondOrderEstimator(
            workers=2, exec_backend="processes", exec_retries=2
        ).estimate(graph, model)

        assert _leaked_shm_segments() <= before
        assert correlated.details["execution"]["pool_rebuilds"] >= 1
        monkeypatch.delenv("REPRO_EXEC_FAULTS")
        clean = SecondOrderEstimator(
            workers=2, exec_backend="processes"
        ).estimate(graph, model)
        assert second.expected_makespan == clean.expected_makespan

    def test_mc_degrades_processes_to_serial_bit_identical(self, monkeypatch):
        # End to end through the engine: a dead process backend falls back
        # to serial, and per-batch streams keep the result bit-identical.
        from repro.failures.models import ExponentialErrorModel
        from repro.sim.engine import MonteCarloEngine
        from repro.workflows.registry import build_dag

        graph = build_dag("lu", 4)
        model = ExponentialErrorModel.for_graph(graph, 1e-3)

        def engine(backend, workers):
            return MonteCarloEngine(
                graph, model, trials=3_000, batch_size=512, seed=21,
                workers=workers, backend=backend, exec_on_failure="degrade",
            )

        serial = engine("serial", 1).run()
        import repro.exec.service as service_module

        service_module.end_warm_pool()
        monkeypatch.setattr(service_module, "ProcessPoolExecutor", _BrokenPool)
        degraded = engine("processes", 2).run()
        assert degraded.mean == serial.mean
        assert degraded.execution["effective_backend"] == "serial"
        assert degraded.execution["degradations"]
