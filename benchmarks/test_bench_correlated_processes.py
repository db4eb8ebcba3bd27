"""Shared-memory process-backend correlated-sweep throughput.

Measures, on the paper's Cholesky DAGs, the sustained task rate of the
banded correlated estimator's per-level fold with ``exec_backend =
"processes"`` — worker processes attached zero-copy to the estimate's
shared-memory segments (:mod:`repro.exec.shm`) — against the one-worker
in-process reference.  Bit-identity is asserted on the way: the process
fold must produce *identical* estimates to the sequential path.

Regression guard:

* the 4-worker process sweep must be at least
  :data:`GUARD_SPEEDUP` x faster than one worker — armed only on DAGs with
  >= :data:`GUARD_MIN_TASKS` tasks (k >= 40, where the levels are wide
  enough to split and the per-level fan-out amortises the pool round
  trips) *and* on machines with >= 4 CPUs (the entry records the CPU
  count so the rate report can tell the cases apart).  Process workers pay
  pickling of the partition descriptors and results.

The measurements are archived (appended) to
``benchmarks/results/kernel_rates.json`` with
``benchmark = "correlated_processes"`` and an explicit ``guard_min`` per
entry (``null`` when the guard did not apply), so
``benchmarks/report_rates.py`` can track the trend PR-over-PR.

Knobs: ``REPRO_BENCH_SIZES`` restricts the tile counts (default ``16``;
CI smoke keeps it small — the guard only applies at k >= 40, e.g.
``REPRO_BENCH_SIZES=40`` on a >= 4-CPU runner; ``84`` reproduces the
102,340-task paper-scale sweep).
"""

from __future__ import annotations

import os

from repro.estimators.correlated import CorrelatedNormalEstimator
from repro.failures.models import ExponentialErrorModel
from repro.workflows.registry import build_dag

from _common import archive_rates, best_time, throughput_bench_sizes

DEFAULT_SIZES = (16,)

GUARD_MIN_TASKS = 11_000  # cholesky k=40 has 11,480 tasks
GUARD_SPEEDUP = 1.5
PARALLEL_WORKERS = 4
PFAIL = 1e-3


def _entry(method, k, n, serial_time, time, workers, cpus, guard_min):
    return {
        "benchmark": "correlated_processes",
        "workflow": "cholesky",
        "method": method,
        "k": k,
        "tasks": n,
        "workers": workers,
        "cpus": cpus,
        "seconds": round(time, 6),
        "tasks_per_second": round(n / time, 1),
        "speedup": round(serial_time / time, 3),
        "guard_min": guard_min,
    }


def test_correlated_processes_throughput():
    entries = []
    cpus = os.cpu_count() or 1
    print()
    for k in throughput_bench_sizes(DEFAULT_SIZES):
        graph = build_dag("cholesky", k)
        n = graph.num_tasks
        model = ExponentialErrorModel.for_graph(graph, PFAIL)
        repeats = 2 if n < GUARD_MIN_TASKS else 1
        estimates = {}

        def run(workers, **kwargs):
            estimates[workers] = CorrelatedNormalEstimator(
                correlation_backend="banded", workers=workers, **kwargs
            ).estimate(graph, model)

        serial_time = best_time(lambda: run(1), repeats=repeats)
        entries.append(
            _entry("banded-serial", k, n, serial_time, serial_time, 1, cpus, None)
        )
        print(
            f"  banded x1 k={k:3d} ({n:6d} tasks): {serial_time:8.2f} s  "
            f"({n / serial_time:9.0f} tasks/s)"
        )

        process_time = best_time(
            lambda: run(PARALLEL_WORKERS, exec_backend="processes"),
            repeats=repeats,
        )
        guard = (
            GUARD_SPEEDUP
            if (n >= GUARD_MIN_TASKS and cpus >= PARALLEL_WORKERS)
            else None
        )
        entries.append(
            _entry(
                f"banded-shm-w{PARALLEL_WORKERS}", k, n, serial_time,
                process_time, PARALLEL_WORKERS, cpus, guard,
            )
        )
        print(
            f"  banded shm x{PARALLEL_WORKERS} k={k:3d} ({n:6d} tasks): "
            f"{process_time:8.2f} s  ({serial_time / process_time:5.2f}x, "
            f"{cpus} cpus)"
        )

        # Bit-identity of the shared-memory process fold (asserted on the
        # timed runs' own results — no extra sweeps).
        assert (
            estimates[1].expected_makespan
            == estimates[PARALLEL_WORKERS].expected_makespan
        )

    for entry in entries:
        if entry["guard_min"] is not None:
            assert entry["speedup"] >= entry["guard_min"], (
                f"shared-memory process sweep regressed: {entry['speedup']}x "
                f"< {entry['guard_min']}x over one worker on "
                f"{entry['tasks']}-task cholesky ({entry['cpus']} cpus)"
            )
    archive_rates(entries)
