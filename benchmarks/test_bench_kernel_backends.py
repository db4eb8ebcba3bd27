"""Compiled-kernel backend families, side by side.

Measures the two hot loops the :mod:`repro.core.backends` registry ports
to compiled kernels, each against its own NumPy reference on the same
inputs:

* ``band_gather`` — the banded correlated estimator's masked symmetric
  window gathers, timed through a full banded sweep (``kernel_backend =
  "numpy"`` vs ``"numba"``);
* ``mc_two_state`` — the Monte Carlo engine's compiled per-tile
  two-state weight fill plus the compiled level recurrence, timed on a
  float32 batch sweep.

Bit-identity is asserted on the timed runs' own results: every ported
kernel must reproduce the NumPy reference exactly, so the speedup is
never bought with a numerical difference.

Regression guards (self-arming):

* the fused gather must be >= :data:`GUARD_GATHER` x faster than the
  NumPy banded sweep — armed only when numba is importable *and* the DAG
  has >= :data:`GUARD_MIN_TASKS` tasks (cholesky k >= 40, where the
  windows are wide enough for per-window index temporaries to dominate);
* the fused MC kernel must be >= :data:`GUARD_MC` x faster than the
  NumPy two-state pipeline — armed only when numba is importable and
  k >= :data:`GUARD_MC_MIN_K` (the paper-scale cholesky k = 24 batch).

Without an accelerator installed every entry records the NumPy fallback
(``speedup = 1.0``, ``guard_min = null``) so the rate archive still
tracks the reference throughput on tier-1 machines.

The measurements are archived (appended) to
``benchmarks/results/kernel_rates.json`` with
``benchmark = "kernel_backends"``; ``benchmarks/report_rates.py``
compares the backend families side by side and trend PR-over-PR.

Knobs: ``REPRO_BENCH_SIZES`` restricts the tile counts (default ``16``;
the gather guard arms at ``40``, the MC guard at ``24``);
``REPRO_KERNEL_BENCH_TRIALS`` sets the MC batch width (default 4,096).
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from repro.core.backends import backend_available
from repro.estimators.correlated import CorrelatedNormalEstimator
from repro.failures.models import ExponentialErrorModel
from repro.sim.engine import MonteCarloEngine
from repro.workflows.registry import build_dag

from _common import BENCH_SEED, archive_rates, best_time, throughput_bench_sizes

DEFAULT_SIZES = (16,)

GUARD_MIN_TASKS = 11_000  # cholesky k=40 has 11,480 tasks
GUARD_GATHER = 1.5
GUARD_MC = 1.3
GUARD_MC_MIN_K = 24
PFAIL = 1e-3


def _mc_trials() -> int:
    return int(os.environ.get("REPRO_KERNEL_BENCH_TRIALS", "4096"))


def _entry(op, workflow, k, n, backend, dtype, ref_time, time, guard_min, **extra):
    entry = {
        "benchmark": "kernel_backends",
        "op": op,
        "workflow": workflow,
        "k": k,
        "tasks": n,
        "kernel_backend": backend,
        "dtype": dtype,
        "seconds": round(time, 6),
        "tasks_per_second": round(n / time, 1),
        "speedup": round(ref_time / time, 3),
        "guard_min": guard_min,
    }
    entry.update(extra)
    return entry


def test_fused_band_gather_throughput():
    have_numba = backend_available("numba")
    entries = []
    print()
    for k in throughput_bench_sizes(DEFAULT_SIZES):
        graph = build_dag("cholesky", k)
        n = graph.num_tasks
        model = ExponentialErrorModel.for_graph(graph, PFAIL)
        repeats = 2 if n < GUARD_MIN_TASKS else 1
        estimates = {}

        def run(backend):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                estimates[backend] = CorrelatedNormalEstimator(
                    correlation_backend="banded", kernel_backend=backend
                ).estimate(graph, model)

        ref_time = best_time(lambda: run("numpy"), repeats=repeats)
        entries.append(
            _entry(
                "band_gather", "cholesky", k, n, "numpy", "float64",
                ref_time, ref_time, None,
            )
        )
        print(
            f"  gather numpy k={k:3d} ({n:6d} tasks): {ref_time:8.2f} s  "
            f"({n / ref_time:9.0f} tasks/s)"
        )

        if have_numba:
            run("numba")  # compile outside the timed region
        jit_time = best_time(lambda: run("numba"), repeats=repeats)
        guard = (
            GUARD_GATHER if (have_numba and n >= GUARD_MIN_TASKS) else None
        )
        entries.append(
            _entry(
                "band_gather", "cholesky", k, n, "numba", "float64",
                ref_time, jit_time, guard, accelerated=have_numba,
            )
        )
        print(
            f"  gather numba k={k:3d} ({n:6d} tasks): {jit_time:8.2f} s  "
            f"({ref_time / jit_time:5.2f}x"
            f"{'' if have_numba else ', numpy fallback'})"
        )

        # The fused gather is pure data movement: bit-identical, always.
        assert (
            estimates["numba"].expected_makespan
            == estimates["numpy"].expected_makespan
        )

    for entry in entries:
        if entry["guard_min"] is not None:
            assert entry["speedup"] >= entry["guard_min"], (
                f"fused band gather regressed: {entry['speedup']}x < "
                f"{entry['guard_min']}x over NumPy on "
                f"{entry['tasks']}-task cholesky"
            )
    archive_rates(entries)


def test_fused_mc_two_state_throughput():
    have_numba = backend_available("numba")
    trials = _mc_trials()
    entries = []
    print()
    for k in throughput_bench_sizes(DEFAULT_SIZES):
        graph = build_dag("cholesky", k)
        n = graph.num_tasks
        model = ExponentialErrorModel.for_graph(graph, PFAIL)
        means = {}

        def run(backend):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                means[backend] = MonteCarloEngine(
                    graph,
                    model,
                    trials=trials,
                    batch_size=min(trials, 1_024),
                    seed=BENCH_SEED,
                    dtype="float32",
                    kernel_backend=backend,
                ).run().mean

        ref_time = best_time(lambda: run("numpy"), repeats=2)
        rate = trials * n / ref_time
        entries.append(
            _entry(
                "mc_two_state", "cholesky", k, n, "numpy", "float32",
                ref_time, ref_time, None, trials=trials,
                task_trials_per_second=round(rate, 1),
            )
        )
        print(
            f"  mc numpy k={k:3d} ({n:6d} tasks, {trials} trials): "
            f"{ref_time:8.2f} s  ({rate:12.0f} task-trials/s)"
        )

        if have_numba:
            run("numba")  # compile outside the timed region
        jit_time = best_time(lambda: run("numba"), repeats=2)
        guard = GUARD_MC if (have_numba and k >= GUARD_MC_MIN_K) else None
        entries.append(
            _entry(
                "mc_two_state", "cholesky", k, n, "numba", "float32",
                ref_time, jit_time, guard, trials=trials,
                task_trials_per_second=round(trials * n / jit_time, 1),
                accelerated=have_numba,
            )
        )
        print(
            f"  mc numba k={k:3d} ({n:6d} tasks, {trials} trials): "
            f"{jit_time:8.2f} s  ({ref_time / jit_time:5.2f}x"
            f"{'' if have_numba else ', numpy fallback'})"
        )

        # Same seed, same RNG stream, bit-identical kernels.
        assert means["numba"] == means["numpy"]

    for entry in entries:
        if entry["guard_min"] is not None:
            assert entry["speedup"] >= entry["guard_min"], (
                f"fused MC kernel regressed: {entry['speedup']}x < "
                f"{entry['guard_min']}x over NumPy on cholesky "
                f"k={entry['k']} float32"
            )
    archive_rates(entries)
