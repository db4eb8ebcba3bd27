"""Vectorised-vs-sequential estimator throughput (level-wavefront PR).

Measures, on the paper's Cholesky DAGs at several sizes:

* the batched Clark moment propagation (Sculli/Normal) against the
  per-task sequential fold;
* the level-batched discrete sweep against the per-task
  :class:`DiscreteRV` chain.

Regression guard (asserted on DAGs with >= 2,600 tasks, i.e. k = 24):
vectorised sculli and sweep must be at least 3x faster than the
sequential paths.  The Monte Carlo backends are timed by
``test_bench_mc_backends.py``.

The measurements are archived (appended) to
``benchmarks/results/kernel_rates.json`` next to the longest-path kernel
rates, with ``benchmark = "estimator_wavefront"`` and an explicit
``guard_min`` per entry (``null`` when the guard did not apply), so
``benchmarks/report_rates.py`` can track the trend PR-over-PR.

Knobs: ``REPRO_BENCH_SIZES`` restricts the tile counts (e.g. ``4,6`` for a
CI smoke run — guards only apply at >= 2,600 tasks).
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.estimators import sequential_completion_moments, sequential_sweep_estimate
from repro.core.kernels import propagate_moments, schedule_for
from repro.estimators.sweep import DiscreteSweepEstimator
from repro.failures.models import ExponentialErrorModel
from repro.failures.twostate import two_state_moment_vectors
from repro.workflows.registry import build_dag

from _common import archive_rates, best_time, throughput_bench_sizes

DEFAULT_SIZES = (8, 16, 24)

GUARD_MIN_TASKS = 2_600
GUARD_SCULLI = 3.0
GUARD_SWEEP = 3.0

#: Support cap of the sweep benchmark (smaller than the estimator default
#: so the sequential baseline stays manageable at k = 24).
SWEEP_SUPPORT = 64


def _entry(method, k, n, seq_time, vec_time, guard_min, **extra):
    record = {
        "benchmark": "estimator_wavefront",
        "workflow": "cholesky",
        "method": method,
        "k": k,
        "tasks": n,
        "sequential_seconds": round(seq_time, 6),
        "vectorised_seconds": round(vec_time, 6),
        "speedup": round(seq_time / vec_time, 3),
        "guard_min": guard_min,
    }
    record.update(extra)
    return record


def test_estimator_wavefront_throughput():
    entries = []
    print()
    for k in throughput_bench_sizes(DEFAULT_SIZES):
        graph = build_dag("cholesky", k)
        index = graph.index()
        n = index.num_tasks
        model = ExponentialErrorModel.for_graph(graph, 1e-2)
        guarded = n >= GUARD_MIN_TASKS
        schedule_for(index, "up")  # compile once; both paths share the cost

        # -- Sculli moment propagation --------------------------------
        task_mean, task_var = two_state_moment_vectors(index.weights, model)
        seq = best_time(lambda: sequential_completion_moments(index, model))
        vec = best_time(
            lambda: propagate_moments(index, task_mean, task_var, direction="up")
        )
        ref_mean, _ = sequential_completion_moments(index, model)
        got_mean, _ = propagate_moments(index, task_mean, task_var, direction="up")
        assert np.allclose(got_mean, ref_mean, rtol=1e-9, atol=0.0)
        entries.append(
            _entry("sculli", k, n, seq, vec, GUARD_SCULLI if guarded else None)
        )
        print(
            f"  sculli     k={k:3d} ({n:5d} tasks): seq={seq * 1e3:8.2f} ms  "
            f"vec={vec * 1e3:8.2f} ms  ({seq / vec:5.2f}x)"
        )

        # -- Discrete sweep -------------------------------------------
        sweeper = DiscreteSweepEstimator(max_support=SWEEP_SUPPORT)
        seq = best_time(
            lambda: sequential_sweep_estimate(graph, model, max_support=SWEEP_SUPPORT)
        )
        vec = best_time(lambda: sweeper._makespan_distribution(graph, model))
        ref = sequential_sweep_estimate(graph, model, max_support=SWEEP_SUPPORT)
        got = sweeper._makespan_distribution(graph, model)
        # Support-cap pruning is discontinuous: a one-ulp difference in the
        # batched partial sums can flip a tolerance-merge decision, after
        # which the two pipelines prune along different (equally valid)
        # paths.  Their disagreement is bounded by the pruning error, well
        # under the distribution's own spread — not by float rounding.
        assert abs(got.mean() - ref.mean()) <= max(
            1e-9 * abs(ref.mean()), 0.1 * ref.std()
        )
        entries.append(
            _entry(
                "sweep", k, n, seq, vec, GUARD_SWEEP if guarded else None,
                max_support=SWEEP_SUPPORT,
            )
        )
        print(
            f"  sweep      k={k:3d} ({n:5d} tasks): seq={seq * 1e3:8.2f} ms  "
            f"vec={vec * 1e3:8.2f} ms  ({seq / vec:5.2f}x)"
        )

    for entry in entries:
        if entry["guard_min"] is not None:
            assert entry["speedup"] >= entry["guard_min"], (
                f"{entry['method']} regressed: {entry['speedup']}x < "
                f"{entry['guard_min']}x on {entry['tasks']}-task cholesky"
            )
    archive_rates(entries)
