"""Unit tests for repro.scheduling (platforms, priorities, CP, HEFT, schedule DAGs)."""

import runpy
from pathlib import Path

import numpy as np
import pytest

from oracles.schedule_simulation import execute_schedule
from repro.core.generators import chain_graph, fork_join, independent_tasks
from repro.core.paths import critical_path_length
from repro.core.task import Task
from repro.exceptions import SchedulingError
from repro.failures.models import ExponentialErrorModel, FixedProbabilityModel
from repro.scheduling.heft import heft_schedule
from repro.scheduling.list_scheduling import cp_schedule
from repro.scheduling.platform import Platform, Processor
from repro.scheduling.priorities import (
    deterministic_bottom_levels,
    expected_bottom_levels_first_order,
    expected_bottom_levels_sculli,
    upward_ranks,
)
from repro.scheduling.schedule import Schedule, expected_schedule_makespan, schedule_dag
from repro.workflows.registry import build_dag


class TestPlatform:
    def test_homogeneous(self):
        platform = Platform.homogeneous(4)
        assert platform.num_processors == 4
        assert platform.is_homogeneous
        task = Task("t", 2.0)
        assert platform.processor(1).execution_time(task) == 2.0
        assert platform.average_execution_time(task) == 2.0

    def test_heterogeneous(self):
        platform = Platform.heterogeneous([1.0, 2.0, 4.0])
        assert not platform.is_homogeneous
        task = Task("t", 4.0)
        times = platform.execution_times(task)
        assert times == pytest.approx({0: 4.0, 1: 2.0, 2: 1.0})
        assert platform.fastest_processor(task).proc_id == 2

    def test_kernel_specific_speed(self):
        accel = Processor(0, speed=1.0, kernel_speed={"GEMM": 10.0})
        gemm = Task("g", 5.0, kernel="GEMM")
        other = Task("o", 5.0, kernel="TRSM")
        assert accel.execution_time(gemm) == 0.5
        assert accel.execution_time(other) == 5.0

    def test_validation(self):
        with pytest.raises(SchedulingError):
            Platform([])
        with pytest.raises(SchedulingError):
            Platform([Processor(0), Processor(0)])
        with pytest.raises(SchedulingError):
            Processor(0, speed=0.0)
        with pytest.raises(SchedulingError):
            Platform.homogeneous(0)
        with pytest.raises(SchedulingError):
            Platform.homogeneous(2).processor(5)


class TestPriorities:
    def test_deterministic_bottom_levels(self, diamond):
        bl = deterministic_bottom_levels(diamond)
        assert bl["t"] == pytest.approx(1.0)
        assert bl["right"] == pytest.approx(5.0)
        assert bl["s"] == pytest.approx(6.0)

    def test_expected_bottom_levels_exceed_deterministic(self, cholesky4):
        model = ExponentialErrorModel.for_graph(cholesky4, 0.01)
        deterministic = deterministic_bottom_levels(cholesky4)
        first_order = expected_bottom_levels_first_order(cholesky4, model)
        sculli = expected_bottom_levels_sculli(cholesky4, model)
        for tid in cholesky4.task_ids():
            assert first_order[tid] >= deterministic[tid] - 1e-12
            assert sculli[tid] >= deterministic[tid] - 1e-9

    def test_expected_bottom_level_of_sink_matches_task_expectation(self, diamond):
        model = FixedProbabilityModel(0.2)
        first_order = expected_bottom_levels_first_order(diamond, model)
        # The sink's bottom level is just its own expected execution time.
        assert first_order["t"] == pytest.approx(1.0 + 0.2 * 1.0)

    def test_root_expected_bottom_level_equals_first_order_makespan(self, cholesky4):
        """For a single-source graph, the expected bottom level of the source
        is the first-order expected makespan of the whole graph."""
        from repro.estimators.first_order import FirstOrderEstimator

        model = ExponentialErrorModel.for_graph(cholesky4, 0.001)
        levels = expected_bottom_levels_first_order(cholesky4, model)
        source = cholesky4.sources()[0]
        whole = FirstOrderEstimator().estimate(cholesky4, model).expected_makespan
        assert levels[source] == pytest.approx(whole, rel=1e-12)

    def test_upward_ranks_decrease_along_edges(self, lu4):
        platform = Platform.homogeneous(3)
        ranks = upward_ranks(lu4, platform)
        for src, dst in lu4.edges():
            assert ranks[src] > ranks[dst]

    def test_error_aware_upward_ranks_larger(self, lu4):
        platform = Platform.homogeneous(3)
        plain = upward_ranks(lu4, platform)
        model = ExponentialErrorModel.for_graph(lu4, 0.05)
        aware = upward_ranks(lu4, platform, model=model)
        assert all(aware[t] >= plain[t] for t in lu4.task_ids())


class TestCpScheduling:
    def test_single_processor_serialises_all_work(self, cholesky4):
        schedule = cp_schedule(cholesky4, Platform.homogeneous(1))
        assert schedule.makespan == pytest.approx(cholesky4.total_weight())
        assert schedule.utilisation() == pytest.approx(1.0)

    def test_unlimited_processors_reach_critical_path(self, cholesky4):
        schedule = cp_schedule(cholesky4, Platform.homogeneous(cholesky4.num_tasks))
        assert schedule.makespan == pytest.approx(critical_path_length(cholesky4))

    def test_makespan_bounded_by_graham(self, lu4):
        """Any list schedule satisfies M <= W/p + (1 - 1/p) * CP."""
        p = 3
        schedule = cp_schedule(lu4, Platform.homogeneous(p))
        bound = lu4.total_weight() / p + (1 - 1 / p) * critical_path_length(lu4)
        assert schedule.makespan <= bound + 1e-9

    def test_independent_tasks_balanced(self):
        g = independent_tasks(8, weight=1.0)
        schedule = cp_schedule(g, Platform.homogeneous(4))
        assert schedule.makespan == pytest.approx(2.0)

    def test_validation_catches_everything(self, qr4):
        schedule = cp_schedule(qr4, Platform.homogeneous(2))
        schedule.validate()
        assert schedule.is_complete()

    def test_error_aware_priorities_accepted(self, cholesky4):
        model = ExponentialErrorModel.for_graph(cholesky4, 0.01)
        for scheme in ("expected-first-order", "expected-sculli"):
            schedule = cp_schedule(
                cholesky4, Platform.homogeneous(4), priority=scheme, model=model
            )
            schedule.validate()

    def test_error_aware_priority_requires_model(self, diamond):
        with pytest.raises(SchedulingError):
            cp_schedule(diamond, Platform.homogeneous(2), priority="expected-first-order")

    def test_unknown_priority(self, diamond):
        with pytest.raises(SchedulingError):
            cp_schedule(diamond, Platform.homogeneous(2), priority="nope")


class TestHeft:
    def test_prefers_fast_processor(self):
        g = chain_graph(3, weight=[1.0, 1.0, 1.0])
        platform = Platform.heterogeneous([1.0, 10.0])
        schedule = heft_schedule(g, platform)
        # A chain should entirely run on the fast processor.
        assert all(schedule.entry(t).processor == 1 for t in g.task_ids())
        assert schedule.makespan == pytest.approx(0.3)

    def test_valid_on_factorization_dag(self, cholesky4):
        platform = Platform.heterogeneous([1.0, 1.0, 2.0])
        schedule = heft_schedule(cholesky4, platform)
        schedule.validate()
        assert schedule.makespan > 0

    def test_insertion_never_hurts(self, lu4):
        platform = Platform.heterogeneous([1.0, 2.0])
        with_insertion = heft_schedule(lu4, platform, allow_insertion=True)
        without = heft_schedule(lu4, platform, allow_insertion=False)
        assert with_insertion.makespan <= without.makespan + 1e-9

    def test_error_aware_variants_run(self, qr4):
        model = ExponentialErrorModel.for_graph(qr4, 0.02)
        plain = heft_schedule(qr4, Platform.homogeneous(3))
        aware = heft_schedule(qr4, Platform.homogeneous(3), model=model)
        conservative = heft_schedule(
            qr4, Platform.homogeneous(3), model=model, error_aware_placement=True
        )
        for s in (plain, aware, conservative):
            s.validate()
        # Conservative placement plans with inflated durations.
        assert conservative.makespan >= plain.makespan - 1e-9


class TestScheduleObject:
    def test_place_and_query(self, diamond):
        schedule = Schedule(diamond, Platform.homogeneous(2))
        schedule.place("s", 0, 0.0, 1.0)
        assert "s" in schedule and len(schedule) == 1
        assert schedule.entry("s").duration == 1.0
        with pytest.raises(SchedulingError):
            schedule.place("s", 0, 1.0, 2.0)  # already placed
        with pytest.raises(SchedulingError):
            schedule.place("unknown", 0, 0.0, 1.0)
        with pytest.raises(SchedulingError):
            schedule.entry("left")

    def test_validate_detects_violations(self, diamond):
        platform = Platform.homogeneous(1)
        schedule = Schedule(diamond, platform)
        schedule.place("s", 0, 0.0, 1.0)
        with pytest.raises(SchedulingError):
            schedule.validate()  # incomplete
        # Complete it but violate a precedence: left starts before s ends.
        schedule.place("left", 0, 5.0, 7.0)
        schedule.place("right", 0, 1.0, 5.0)
        schedule.place("t", 0, 6.0, 7.0)
        with pytest.raises(SchedulingError):
            schedule.validate()

    def test_to_dict(self, diamond):
        schedule = cp_schedule(diamond, Platform.homogeneous(2))
        payload = schedule.to_dict()
        assert payload["processors"] == 2
        assert len(payload["tasks"]) == 4


class TestExecutionSimulation:
    def test_no_failures_reproduces_planned_makespan(self, cholesky4):
        schedule = cp_schedule(cholesky4, Platform.homogeneous(3))
        trace = execute_schedule(
            schedule, ExponentialErrorModel(0.0), np.random.default_rng(0)
        )
        assert trace.makespan == pytest.approx(schedule.makespan)
        assert trace.total_failures == 0
        assert not trace.failed_tasks

    def test_failures_delay_execution(self, cholesky4):
        schedule = cp_schedule(cholesky4, Platform.homogeneous(3))
        trace = execute_schedule(
            schedule, FixedProbabilityModel(0.5), np.random.default_rng(1)
        )
        assert trace.makespan > schedule.makespan
        assert trace.total_failures > 0

    def test_expected_schedule_makespan(self, diamond):
        schedule = cp_schedule(diamond, Platform.homogeneous(2))
        model = FixedProbabilityModel(0.5)
        mean, distribution = expected_schedule_makespan(schedule, model, trials=400, seed=2)
        assert mean > schedule.makespan
        assert distribution.count == 400
        assert distribution.min() >= schedule.makespan - 1e-12

    def test_error_aware_schedule_no_worse_under_failures(self, cholesky4):
        """With failure-inflated priorities the simulated expected makespan
        should not be (meaningfully) worse than with deterministic ones."""
        model = ExponentialErrorModel.for_graph(cholesky4, 0.05)
        platform = Platform.homogeneous(3)
        plain = cp_schedule(cholesky4, platform, priority="bottom-level")
        aware = cp_schedule(
            cholesky4, platform, priority="expected-first-order", model=model
        )
        mean_plain, _ = expected_schedule_makespan(plain, model, trials=300, seed=3)
        mean_aware, _ = expected_schedule_makespan(aware, model, trials=300, seed=3)
        assert mean_aware <= mean_plain * 1.05

    def test_incomplete_schedule_rejected(self, diamond):
        schedule = Schedule(diamond, Platform.homogeneous(1))
        with pytest.raises(SchedulingError):
            execute_schedule(schedule, FixedProbabilityModel(0.1), np.random.default_rng(0))


def _hetero_platform():
    """Fast, accelerated-GEMM and reference processors."""
    return Platform(
        [Processor(0, speed=4.0), Processor(1, kernel_speed={"GEMM": 3.0}), Processor(2)]
    )


def _schedules(graph):
    """A CP schedule on identical processors and a HEFT one on mixed ones."""
    return {
        "cp": cp_schedule(graph, Platform.homogeneous(3)),
        "heft": heft_schedule(graph, _hetero_platform()),
    }


class TestScheduleDag:
    def test_tasks_weights_and_edges(self, cholesky4):
        schedule = _schedules(cholesky4)["heft"]
        dag = schedule_dag(schedule)
        assert dag.task_ids() == cholesky4.task_ids()
        for task in cholesky4.tasks():
            copy = dag.task(task.task_id)
            assert (copy.kernel, copy.metadata) == (task.kernel, task.metadata)
            processor = schedule.platform.processor(schedule.entry(task.task_id).processor)
            assert copy.weight == processor.execution_time(task)
        timelines = [schedule.processor_timeline(p.proc_id) for p in schedule.platform.processors]
        chains = {(a.task_id, b.task_id) for t in timelines for a, b in zip(t, t[1:])}
        expected = set(cholesky4.edges()) | chains
        assert set(dag.edges()) == expected and dag.num_edges == len(expected)

    @pytest.mark.parametrize("workflow", ["cholesky", "lu", "qr"])
    @pytest.mark.parametrize("scheduler", ["cp", "heft"])
    def test_failure_free_longest_path_is_the_makespan(self, workflow, scheduler):
        schedule = _schedules(build_dag(workflow, 6))[scheduler]
        assert critical_path_length(schedule_dag(schedule)) == schedule.makespan

    @pytest.mark.parametrize("scheduler", ["cp", "heft"])
    def test_no_errors_every_sample_is_the_makespan(self, lu4, scheduler):
        schedule = _schedules(lu4)[scheduler]
        _, distribution = expected_schedule_makespan(
            schedule, ExponentialErrorModel(0.0), trials=64, seed=0
        )
        assert distribution.min() == distribution.max() == schedule.makespan

    # Two-state with f = 1 and 0.5, and re-execution until success.
    MODES = [(1, 1.0), (1, 0.5), (None, 1.0)]

    @pytest.mark.parametrize("max_reexecutions, factor", MODES)
    @pytest.mark.parametrize("scheduler", ["cp", "heft"])
    def test_engine_agrees_with_the_event_loop(
        self, cholesky4, scheduler, max_reexecutions, factor
    ):
        schedule = _schedules(cholesky4)[scheduler]
        model = ExponentialErrorModel.for_graph(cholesky4, 0.2)
        options = dict(max_reexecutions=max_reexecutions, reexecution_factor=factor)
        rng = np.random.default_rng(7)
        oracle = np.array(
            [execute_schedule(schedule, model, rng, **options).makespan for _ in range(2_000)]
        )
        mean, distribution = expected_schedule_makespan(
            schedule, model, trials=20_000, seed=7, **options
        )
        assert distribution.count == 20_000
        sigma = np.hypot(
            oracle.std(ddof=1) / np.sqrt(oracle.size), distribution.std() / np.sqrt(20_000)
        )
        assert abs(mean - oracle.mean()) <= 4 * sigma

    def test_infeasible_order_rejected(self, diamond):
        schedule = Schedule(diamond, Platform.homogeneous(1))
        for tid, start, finish in (("t", 0, 1), ("s", 1, 2), ("left", 2, 4), ("right", 4, 8)):
            schedule.place(tid, 0, start, finish)
        with pytest.raises(SchedulingError, match="infeasible"):
            schedule_dag(schedule)
        with pytest.raises(SchedulingError):
            execute_schedule(schedule, FixedProbabilityModel(0.1), np.random.default_rng(0))

    def test_incomplete_schedule_rejected(self, diamond):
        schedule = Schedule(diamond, Platform.homogeneous(1))
        schedule.place("s", 0, 0.0, 1.0)
        with pytest.raises(SchedulingError):
            schedule_dag(schedule)
        with pytest.raises(SchedulingError):
            expected_schedule_makespan(schedule, FixedProbabilityModel(0.1), trials=10)

    @pytest.mark.parametrize(
        "options",
        [
            dict(max_reexecutions=2),
            dict(max_reexecutions=0),
            dict(max_reexecutions=None, reexecution_factor=0.5),
            dict(reexecution_factor=-0.5),
            dict(trials=0),
        ],
    )
    def test_unsupported_options_rejected(self, diamond, options):
        schedule = cp_schedule(diamond, Platform.homogeneous(2))
        with pytest.raises(SchedulingError):
            expected_schedule_makespan(schedule, FixedProbabilityModel(0.1), **options)


def test_error_aware_scheduling_example(capsys):
    example = Path(__file__).resolve().parents[1] / "examples" / "error_aware_scheduling.py"
    runpy.run_path(str(example), run_name="__main__")
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.startswith(("CP /", "HEFT"))]
    assert len(rows) == 5
    assert "HEFT (heterogeneous, failure-aware ranks)" in rows[-1]
    for row in rows:
        planned, mean, p99 = map(float, row.split()[-3:])
        assert planned <= mean <= p99
    # The CP priority rules must schedule differently, or the comparison
    # shows nothing.
    cp_numbers = {tuple(row.split()[-3:]) for row in rows if row.startswith("CP /")}
    assert len(cp_numbers) > 1
