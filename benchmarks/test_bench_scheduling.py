"""Benchmarks of the scheduling extension (the paper's motivating use case).

The paper motivates its approximation by silent-error-aware list scheduling:
priorities based on *expected* bottom levels need a cheap, accurate expected
path-length estimate.  These benchmarks time the priority computations and
the schedulers, and measure (once, printed) the makespan impact of
error-aware priorities when the produced schedules are executed under
injected failures.  On cholesky k=16 (816 tasks) the first-order expected
bottom levels run against the per-root loop they replaced
(``tests/oracles/priorities.py``): both times are printed, the results must
be bit-identical and the cone sweeps at least 5x faster.
"""

from __future__ import annotations

import numpy as np
import pytest

from _common import paired_median_ratio
from oracles.priorities import sequential_expected_bottom_levels
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
from repro.workflows.qr import qr_dag

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


@pytest.fixture(scope="module")
def qr_inputs():
    # On cholesky and lu the plain and error-aware CP schedules coincide at
    # these settings; on qr they differ, so the comparison measures something.
    graph = qr_dag(K)
    model = ExponentialErrorModel.for_graph(graph, PFAIL)
    return graph, model, Platform.homogeneous(PROCESSORS)


def test_error_aware_priorities_under_failures(benchmark, qr_inputs):
    """Compare the simulated expected makespans of the deterministic and
    the error-aware CP schedules, which differ on qr (printed; the
    assertion only checks that error-aware priorities cost at most 10%)."""
    graph, model, platform = qr_inputs
    plain = cp_schedule(graph, platform, priority="bottom-level")
    aware = cp_schedule(graph, platform, priority="expected-first-order", model=model)
    assert plain.to_dict() != aware.to_dict()

    def run():
        mean_plain, _ = expected_schedule_makespan(plain, model, trials=20_000, seed=1)
        mean_aware, _ = expected_schedule_makespan(aware, model, trials=20_000, seed=1)
        return mean_plain, mean_aware

    mean_plain, mean_aware = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\n[scheduling under failures, qr k={K}] deterministic priorities: "
        f"{mean_plain:.4f}s, first-order expected priorities: {mean_aware:.4f}s "
        f"({mean_aware / mean_plain - 1:+.2%})"
    )
    assert mean_aware <= mean_plain * 1.1


def test_expected_bottom_levels_against_the_loop(benchmark):
    """Cone sweeps against the per-root loop on cholesky k=16, alternating."""
    graph = cholesky_dag(16)
    model = ExponentialErrorModel.for_graph(graph, PFAIL)
    swept = expected_bottom_levels_first_order(graph, model)
    looped = sequential_expected_bottom_levels(graph, model)
    assert np.array_equal(
        np.fromiter(swept.values(), dtype=np.float64),
        np.fromiter((looped[t] for t in swept), dtype=np.float64),
    )

    def run():
        return paired_median_ratio(
            lambda: sequential_expected_bottom_levels(graph, model),
            lambda: expected_bottom_levels_first_order(graph, model),
            pairs=5,
        )

    t_loop, t_sweep, speedup = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\n[expected bottom levels, cholesky k=16, {graph.num_tasks} tasks] "
        f"per-root loop {t_loop * 1e3:.1f} ms, cone sweeps {t_sweep * 1e3:.1f} ms "
        f"({speedup:.1f}x, median of 5 alternating pairs)"
    )
    assert speedup >= 5.0
