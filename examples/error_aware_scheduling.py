#!/usr/bin/env python3
"""Silent-error-aware list scheduling (the paper's motivating application).

The paper's introduction argues that computing expected path lengths under
silent errors is the missing ingredient for error-aware versions of CP
scheduling and HEFT.  This example puts the pieces together:

1. build a factorization DAG and a finite homogeneous platform;
2. compute task priorities three ways — deterministic bottom levels,
   first-order *expected* bottom levels, and Sculli-based expected bottom
   levels;
3. build the corresponding CP schedules (plus a HEFT schedule on a
   heterogeneous platform);
4. execute every schedule many times under injected silent errors with
   verification + re-execution, and compare the resulting expected
   makespans.

Run with:  ``python examples/error_aware_scheduling.py``
"""

from __future__ import annotations

import repro
from repro.scheduling import (
    Platform,
    cp_schedule,
    expected_schedule_makespan,
    heft_schedule,
)

# On qr k=8 the CP priority rules give different schedules (on cholesky
# they coincide, and the comparison would show nothing).
WORKFLOW = "qr"
K = 8
PROCESSORS = 8
PFAIL = 1e-2        # deliberately pessimistic so re-executions matter
TRIALS = 400


def main() -> None:
    graph = repro.build_dag(WORKFLOW, K)
    model = repro.ExponentialErrorModel.for_graph(graph, PFAIL)
    platform = Platform.homogeneous(PROCESSORS)

    print(f"workflow : {graph.name} ({graph.num_tasks} tasks)")
    print(f"platform : {PROCESSORS} identical processors")
    print(f"errors   : p_fail = {PFAIL:g} per average-weight task "
          f"(λ = {model.error_rate:.4f}/s)\n")

    schedules = {
        "CP / deterministic bottom levels": cp_schedule(
            graph, platform, priority="bottom-level"
        ),
        "CP / first-order expected bottom levels": cp_schedule(
            graph, platform, priority="expected-first-order", model=model
        ),
        "CP / Sculli expected bottom levels": cp_schedule(
            graph, platform, priority="expected-sculli", model=model
        ),
    }

    print(f"{'scheduler':42s} {'planned':>10s} {'E[makespan]':>12s} {'p99':>10s}")
    for name, schedule in schedules.items():
        mean, distribution = expected_schedule_makespan(
            schedule, model, trials=TRIALS, seed=0
        )
        print(
            f"{name:42s} {schedule.makespan:10.4f} {mean:12.4f} "
            f"{distribution.quantile(0.99):10.4f}"
        )

    # Heterogeneous platform: two fast accelerators and four slow cores.
    hetero = Platform.heterogeneous([4.0, 4.0, 1.0, 1.0, 1.0, 1.0])
    plain_heft = heft_schedule(graph, hetero)
    aware_heft = heft_schedule(graph, hetero, model=model, error_aware_placement=True)
    for name, schedule in (
        ("HEFT (heterogeneous, failure-free ranks)", plain_heft),
        ("HEFT (heterogeneous, failure-aware ranks)", aware_heft),
    ):
        mean, distribution = expected_schedule_makespan(
            schedule, model, trials=TRIALS, seed=0
        )
        print(
            f"{name:42s} {schedule.makespan:10.4f} {mean:12.4f} "
            f"{distribution.quantile(0.99):10.4f}"
        )

    print("\nNote: with unlimited processors the expected makespan would be")
    first_order = repro.estimate_expected_makespan(graph, model, method="first-order")
    print(f"the first-order estimate {first_order.expected_makespan:.4f} s "
          f"(critical path {first_order.failure_free_makespan:.4f} s).")


if __name__ == "__main__":
    main()
