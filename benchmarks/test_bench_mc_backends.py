"""Monte Carlo executor-backend throughput: serial vs threads vs processes.

Measures, on the paper's Cholesky DAGs at several sizes, the sustained
trial rate of the three execution backends (including pool start-up — the
user-facing cost of one ``run()``), plus the serial streaming-mode rate
(sketch-fold overhead tracking).  Cross-backend determinism is asserted on
the way: threads and processes must produce *identical* means at any
worker count.

Regression guard (asserted on DAGs with >= 2,600 tasks, i.e. k = 24):

* the ``processes`` backend at 8 workers must be at least 2x faster than
  ``serial`` — only enforced when the machine actually has >= 8 CPUs (the
  speedup is physically impossible otherwise; the entry records the CPU
  count so the rate report can tell the cases apart).

At k = 24 one more ``processes-x2`` row times the end-to-end benchmark's
Monte Carlo shape — 10,000 trials, the default batch, 2 workers, the
speedup taken over serial at that same shape — where pool and worker
start-up weigh most.  It is tracked only (``guard_min`` is ``null``).

Two more tracked rows, ``serial-pfail1e-3``, time serial runs at the
paper's rate (pfail 1e-3, the default batch) on cholesky k = 10 (4,000
trials) and k = 24 (10,000 trials): there most trials have no failed task
(about 80% at k = 10, 7% at k = 24), and only the failed ones are swept.
Their ``speedup`` is over the same shape at the dense rows' pfail 1e-2.

The measurements are archived (appended) to
``benchmarks/results/kernel_rates.json`` with ``benchmark = "mc_backends"``
and an explicit ``guard_min`` per entry (``null`` when the guard did not
apply), so ``benchmarks/report_rates.py`` can track the trend PR-over-PR.

Knobs: ``REPRO_BENCH_SIZES`` restricts the tile counts (e.g. ``4,6`` for a
CI smoke run — guards only apply at >= 2,600 tasks);
``REPRO_MC_BENCH_TRIALS`` overrides the trial count (default 16,384).
"""

from __future__ import annotations

import os

import numpy as np

from repro.failures.models import ExponentialErrorModel
from repro.sim.engine import MonteCarloEngine
from repro.workflows.registry import build_dag

from _common import archive_rates, best_time, throughput_bench_sizes

DEFAULT_SIZES = (8, 16, 24)

GUARD_MIN_TASKS = 2_600
GUARD_PROCESSES = 2.0
THREAD_WORKERS = 4
PROCESS_WORKERS = 8
BATCH_SIZE = 2_048
PFAIL = 1e-2
#: The end-to-end benchmark's Monte Carlo shape (default batch size).
E2E_K = 24
E2E_TRIALS = 10_000
E2E_WORKERS = 2
#: Tracked serial rows at the paper's rate: trials per tile count.
SPARSE_PFAIL = 1e-3
SPARSE_TRIALS = {10: 4_000, 24: 10_000}


def mc_trials() -> int:
    return int(os.environ.get("REPRO_MC_BENCH_TRIALS", "16384"))


def _entry(method, k, n, trials, serial_time, time, workers, cpus, guard_min, **extra):
    record = {
        "benchmark": "mc_backends",
        "workflow": "cholesky",
        "method": method,
        "k": k,
        "tasks": n,
        "trials": trials,
        "workers": workers,
        "cpus": cpus,
        "seconds": round(time, 6),
        "trials_per_second": round(trials / time, 1),
        "speedup": round(serial_time / time, 3),
        "guard_min": guard_min,
    }
    record.update(extra)
    return record


def _e2e_processes_entry(graph, model, cpus):
    """The unguarded ``processes-x2`` row at the end-to-end shape."""

    def run(**kwargs):
        MonteCarloEngine(graph, model, trials=E2E_TRIALS, seed=1, **kwargs).run()

    serial_time = best_time(lambda: run(backend="serial"), repeats=3)
    process_time = best_time(
        lambda: run(backend="processes", workers=E2E_WORKERS), repeats=3
    )
    print(
        f"  processes x{E2E_WORKERS} k={E2E_K:3d} ({graph.num_tasks:5d} tasks, "
        f"{E2E_TRIALS} trials): {process_time * 1e3:8.1f} ms  "
        f"({E2E_TRIALS / process_time:9.0f} trials/s, "
        f"{serial_time / process_time:5.2f}x vs serial)"
    )
    return _entry(
        f"processes-x{E2E_WORKERS}", E2E_K, graph.num_tasks, E2E_TRIALS,
        serial_time, process_time, E2E_WORKERS, cpus, None,
    )


def _sparse_serial_entry(k, cpus):
    """The unguarded ``serial-pfail1e-3`` row of one tile count."""
    graph = build_dag("cholesky", k)
    trials = SPARSE_TRIALS.get(k, 4_000)

    def timed(pfail):
        model = ExponentialErrorModel.for_graph(graph, pfail)
        return best_time(
            lambda: MonteCarloEngine(graph, model, trials=trials, seed=1).run(),
            repeats=5,
        )

    dense_time = timed(PFAIL)
    sparse_time = timed(SPARSE_PFAIL)
    print(
        f"  serial pfail={SPARSE_PFAIL:g} k={k:3d} ({graph.num_tasks:5d} tasks, "
        f"{trials} trials): {sparse_time * 1e3:8.1f} ms  "
        f"({trials / sparse_time:9.0f} trials/s, "
        f"{dense_time / sparse_time:5.2f}x vs pfail={PFAIL:g})"
    )
    return _entry(
        "serial-pfail1e-3", k, graph.num_tasks, trials,
        dense_time, sparse_time, 1, cpus, None, pfail=SPARSE_PFAIL,
    )


def test_mc_backend_throughput():
    entries = []
    cpus = os.cpu_count() or 1
    trials = mc_trials()
    print()
    for k in throughput_bench_sizes(DEFAULT_SIZES):
        graph = build_dag("cholesky", k)
        n = graph.num_tasks
        model = ExponentialErrorModel.for_graph(graph, PFAIL)
        guarded = n >= GUARD_MIN_TASKS

        def engine(**kwargs):
            return MonteCarloEngine(
                graph, model, trials=trials, batch_size=BATCH_SIZE, seed=1, **kwargs
            )

        serial_time = best_time(lambda: engine(backend="serial").run(), repeats=2)
        entries.append(
            _entry("serial", k, n, trials, serial_time, serial_time, 1, cpus, None)
        )
        print(
            f"  serial        k={k:3d} ({n:5d} tasks): {serial_time * 1e3:8.1f} ms  "
            f"({trials / serial_time:9.0f} trials/s)"
        )

        streaming_time = best_time(
            lambda: engine(backend="serial", streaming=True).run(), repeats=2
        )
        entries.append(
            _entry(
                "serial-streaming", k, n, trials, serial_time, streaming_time,
                1, cpus, None,
            )
        )
        print(
            f"  streaming     k={k:3d} ({n:5d} tasks): {streaming_time * 1e3:8.1f} ms  "
            f"({serial_time / streaming_time:5.2f}x vs serial)"
        )

        threads = engine(backend="threads", workers=THREAD_WORKERS)
        threads_time = best_time(threads.run, repeats=2)
        entries.append(
            _entry(
                "threads", k, n, trials, serial_time, threads_time,
                THREAD_WORKERS, cpus, None,
            )
        )
        print(
            f"  threads x{THREAD_WORKERS}    k={k:3d} ({n:5d} tasks): "
            f"{threads_time * 1e3:8.1f} ms  ({serial_time / threads_time:5.2f}x)"
        )

        processes = engine(backend="processes", workers=PROCESS_WORKERS)
        process_time = best_time(processes.run, repeats=2)
        process_guard = GUARD_PROCESSES if (guarded and cpus >= PROCESS_WORKERS) else None
        entries.append(
            _entry(
                "processes", k, n, trials, serial_time, process_time,
                PROCESS_WORKERS, cpus, process_guard,
            )
        )
        print(
            f"  processes x{PROCESS_WORKERS} k={k:3d} ({n:5d} tasks): "
            f"{process_time * 1e3:8.1f} ms  ({serial_time / process_time:5.2f}x, "
            f"{cpus} cpus)"
        )

        if k == E2E_K:
            entries.append(_e2e_processes_entry(graph, model, cpus))

        # Determinism spot-check: the parallel backends must agree exactly.
        thread_mean = engine(backend="threads", workers=2).run().mean
        process_mean = engine(backend="processes", workers=2).run().mean
        assert thread_mean == process_mean, (
            f"threads/processes diverged on cholesky k={k}: "
            f"{thread_mean} != {process_mean}"
        )

    for k in throughput_bench_sizes(tuple(SPARSE_TRIALS)):
        entries.append(_sparse_serial_entry(k, cpus))

    for entry in entries:
        if entry["guard_min"] is not None:
            assert entry["speedup"] >= entry["guard_min"], (
                f"{entry['method']} backend regressed: {entry['speedup']}x < "
                f"{entry['guard_min']}x over serial on "
                f"{entry['tasks']}-task cholesky ({entry['cpus']} cpus)"
            )
    archive_rates(entries)
