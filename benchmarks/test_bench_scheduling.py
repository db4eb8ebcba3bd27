"""Benchmarks of the scheduling extension (the paper's motivating use case).

The paper motivates its approximation by silent-error-aware list scheduling:
priorities based on *expected* bottom levels need a cheap, accurate expected
path-length estimate.  These benchmarks time the priority computations and
the schedulers, and measure (once, printed) the makespan impact of
error-aware priorities when the produced schedules are executed under
injected failures.
"""

from __future__ import annotations

import pytest

from repro.failures.models import ExponentialErrorModel
from repro.scheduling.heft import heft_schedule
from repro.scheduling.list_scheduling import cp_schedule
from repro.scheduling.platform import Platform
from repro.scheduling.priorities import (
    deterministic_bottom_levels,
    expected_bottom_levels_first_order,
    expected_bottom_levels_sculli,
)
from repro.scheduling.schedule import expected_schedule_makespan
from repro.workflows.cholesky import cholesky_dag

PFAIL = 1e-2
K = 8
PROCESSORS = 8


@pytest.fixture(scope="module")
def inputs():
    graph = cholesky_dag(K)
    model = ExponentialErrorModel.for_graph(graph, PFAIL)
    platform = Platform.homogeneous(PROCESSORS)
    return graph, model, platform


@pytest.mark.parametrize(
    "scheme", ["deterministic", "expected-first-order", "expected-sculli"]
)
def test_priority_computation_runtime(benchmark, inputs, scheme):
    graph, model, _ = inputs
    if scheme == "deterministic":
        benchmark(lambda: deterministic_bottom_levels(graph))
    elif scheme == "expected-first-order":
        benchmark.pedantic(
            lambda: expected_bottom_levels_first_order(graph, model), rounds=1, iterations=1
        )
    else:
        benchmark.pedantic(
            lambda: expected_bottom_levels_sculli(graph, model), rounds=1, iterations=1
        )


@pytest.mark.parametrize("scheduler", ["cp", "heft"])
def test_scheduler_runtime(benchmark, inputs, scheduler):
    graph, model, platform = inputs
    if scheduler == "cp":
        schedule = benchmark(lambda: cp_schedule(graph, platform))
    else:
        schedule = benchmark.pedantic(
            lambda: heft_schedule(graph, platform), rounds=1, iterations=1
        )
    assert schedule.is_complete()


def test_error_aware_priorities_under_failures(benchmark, inputs):
    """Compare simulated expected makespans of deterministic vs error-aware
    CP schedules (printed; the assertion only checks sanity)."""
    graph, model, platform = inputs

    def run():
        plain = cp_schedule(graph, platform, priority="bottom-level")
        aware = cp_schedule(graph, platform, priority="expected-first-order", model=model)
        mean_plain, _ = expected_schedule_makespan(plain, model, trials=200, seed=1)
        mean_aware, _ = expected_schedule_makespan(aware, model, trials=200, seed=1)
        return mean_plain, mean_aware

    mean_plain, mean_aware = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\n[scheduling under failures] deterministic priorities: {mean_plain:.4f}s, "
        f"first-order expected priorities: {mean_aware:.4f}s"
    )
    assert mean_aware <= mean_plain * 1.1
