"""Fault-tolerance layer overhead and recovery throughput.

Two questions about the execution service's fault-tolerance machinery
(retries, deadlines, degradation — ``repro.exec``), answered on the
paper's Cholesky Monte Carlo runs:

* **Zero-fault overhead** — arming the full policy (``retries=2``, a
  generous deadline, ``on_failure="degrade"``) on a run where no fault
  ever fires must cost **< 2%** against the fail-fast defaults: the
  machinery is bookkeeping-only until something actually goes wrong.
  Guarded on the serial backend (the lowest-noise path) on DAGs with
  >= 2,600 tasks, as ``speedup = baseline/armed >= 0.98``.  A 2% bound is
  below the host's run-to-run noise, so the ratio is the median over
  ``IDLE_PAIRS`` back-to-back pairs of one-batch runs, each pair in
  alternating order: drift hits both sides of a pair alike, and the median
  ignores the pairs a background burst lands on.
* **Recovery throughput** — with seeded random faults failing ~5% of the
  partitions (``random(p=0.05)`` via ``REPRO_EXEC_FAULTS``) the run must
  still complete *bit-identically* to the clean run; the archived entry
  records how much throughput the retries cost (informational, no guard —
  the cost is dominated by how much work the faults destroy).

Entries append to ``benchmarks/results/kernel_rates.json`` with
``benchmark = "exec_faults"`` and are trended by
``benchmarks/report_rates.py``.

Knobs: ``REPRO_BENCH_SIZES`` (tile counts, default 24 — guards only apply
at >= 2,600 tasks), ``REPRO_MC_BENCH_TRIALS`` (default 16,384).
"""

from __future__ import annotations

import os

from repro.failures.models import ExponentialErrorModel
from repro.sim.engine import MonteCarloEngine
from repro.workflows.registry import build_dag

from _common import (
    archive_rates,
    best_time,
    paired_median_ratio,
    throughput_bench_sizes,
)

DEFAULT_SIZES = (24,)

GUARD_MIN_TASKS = 2_600
#: Minimal admissible baseline/armed ratio: < 2% zero-fault overhead.
GUARD_IDLE_POLICY = 0.98
#: Pairs of one-batch (``BATCH_SIZE``-trial) serial runs behind the guard.
IDLE_PAIRS = 100
THREAD_WORKERS = 4
BATCH_SIZE = 2_048
PFAIL = 1e-2
#: Partition failure probability of the recovery-throughput measurement,
#: and the finer batch size giving it enough partitions to bite on.
CHAOS_RATE = 0.05
CHAOS_PLAN = f"random(p={CHAOS_RATE},seed=6)"
CHAOS_BATCH = 256


def mc_trials() -> int:
    return int(os.environ.get("REPRO_MC_BENCH_TRIALS", "16384"))


def interleaved_best(fn_a, fn_b, repeats: int = 4):
    """Best-of-``repeats`` for two timed calls, alternating a/b each round.

    A sub-2% guard cannot survive run-order bias (warm-up, turbo decay,
    background load drift all land on whichever side runs second);
    alternating the measurements cancels the drift.
    """
    import time

    best_a = best_b = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def _entry(method, k, n, trials, base_time, time, guard_min, **extra):
    record = {
        "benchmark": "exec_faults",
        "workflow": "cholesky",
        "method": method,
        "k": k,
        "tasks": n,
        "trials": trials,
        "seconds": round(time, 6),
        "trials_per_second": round(trials / time, 1),
        "speedup": round(base_time / time, 3),
        "guard_min": guard_min,
    }
    record.update(extra)
    return record


def test_exec_fault_tolerance_overhead():
    entries = []
    trials = mc_trials()
    print()
    for k in throughput_bench_sizes(DEFAULT_SIZES):
        graph = build_dag("cholesky", k)
        n = graph.num_tasks
        model = ExponentialErrorModel.for_graph(graph, PFAIL)
        guarded = n >= GUARD_MIN_TASKS

        def engine(batch=BATCH_SIZE, **kwargs):
            return MonteCarloEngine(
                graph, model, trials=trials, batch_size=batch, seed=1, **kwargs
            )

        armed = dict(exec_retries=2, exec_timeout=300.0, exec_on_failure="degrade")

        # Zero-fault overhead, serial (guarded: the low-noise path), from
        # paired one-batch runs.
        def one_batch(**kwargs):
            return MonteCarloEngine(
                graph, model, trials=BATCH_SIZE, batch_size=BATCH_SIZE, seed=1,
                backend="serial", **kwargs,
            ).run

        base_time, armed_time, ratio = paired_median_ratio(
            one_batch(), one_batch(**armed), IDLE_PAIRS
        )
        entry = _entry(
            "policy-idle-serial", k, n, BATCH_SIZE, base_time, armed_time,
            GUARD_IDLE_POLICY if guarded else None,
            baseline_seconds=round(base_time, 6),
            pairs=IDLE_PAIRS,
        )
        entry["speedup"] = round(ratio, 3)
        entries.append(entry)
        print(
            f"  policy idle   k={k:3d} ({n:5d} tasks): serial "
            f"{base_time * 1e3:8.1f} -> {armed_time * 1e3:8.1f} ms "
            f"({(1.0 / ratio - 1.0) * 100:+5.2f}% overhead, median of "
            f"{IDLE_PAIRS} pairs)"
        )

        # Zero-fault overhead, threads (informational: pool noise).
        threads_time, armed_threads_time = interleaved_best(
            engine(backend="threads", workers=THREAD_WORKERS).run,
            engine(backend="threads", workers=THREAD_WORKERS, **armed).run,
        )
        entries.append(
            _entry(
                "policy-idle-threads", k, n, trials, threads_time,
                armed_threads_time, None,
                baseline_seconds=round(threads_time, 6),
                workers=THREAD_WORKERS,
            )
        )
        print(
            f"  policy idle   k={k:3d} ({n:5d} tasks): threads x{THREAD_WORKERS} "
            f"{threads_time * 1e3:8.1f} -> {armed_threads_time * 1e3:8.1f} ms "
            f"({(armed_threads_time / threads_time - 1.0) * 100:+5.2f}% overhead)"
        )

        # Recovery throughput at ~5% partition failures, on a finer batch
        # grid (64 partitions at the default trial count) so the random
        # plan actually bites.  The chaos result must stay bit-identical.
        clean_chaos_grid = engine(
            batch=CHAOS_BATCH, backend="threads", workers=THREAD_WORKERS
        )
        clean_grid_time = best_time(clean_chaos_grid.run, repeats=3)
        clean_result = clean_chaos_grid.run()
        os.environ["REPRO_EXEC_FAULTS"] = CHAOS_PLAN
        try:
            chaos_engine = engine(
                batch=CHAOS_BATCH, backend="threads", workers=THREAD_WORKERS,
                exec_retries=2,
            )
            chaos_time = best_time(chaos_engine.run, repeats=3)
            chaos_result = chaos_engine.run()
        finally:
            os.environ.pop("REPRO_EXEC_FAULTS", None)
        assert chaos_result.mean == clean_result.mean, (
            f"chaos run diverged on cholesky k={k}: "
            f"{chaos_result.mean} != {clean_result.mean}"
        )
        execution = chaos_result.execution or {}
        entries.append(
            _entry(
                "chaos-5pct-threads", k, n, trials, clean_grid_time, chaos_time,
                None,
                workers=THREAD_WORKERS,
                batch_size=CHAOS_BATCH,
                fault_rate=CHAOS_RATE,
                faults_injected=execution.get("faults_injected"),
                retries=execution.get("retries"),
            )
        )
        print(
            f"  chaos {CHAOS_RATE:4.0%}    k={k:3d} ({n:5d} tasks): threads "
            f"x{THREAD_WORKERS} {chaos_time * 1e3:8.1f} ms "
            f"({clean_grid_time / chaos_time:5.2f}x of clean, "
            f"{execution.get('faults_injected', 0)} faults, "
            f"{execution.get('retries', 0)} retries)"
        )

    for entry in entries:
        if entry["guard_min"] is not None:
            assert entry["speedup"] >= entry["guard_min"], (
                f"{entry['method']}: zero-fault overhead too high — "
                f"{(1.0 / entry['speedup'] - 1.0) * 100:.2f}% "
                f"(baseline/armed {entry['speedup']}x < {entry['guard_min']}x) "
                f"on {entry['tasks']}-task cholesky"
            )
    archive_rates(entries)
