"""Old-vs-new longest-path kernel throughput (trials per second).

Compares the level-wavefront kernel of :mod:`repro.core.kernels` (float64
and float32) against the pre-kernel per-task recurrence on the paper's
three DAG families at several sizes, in both sweep directions, plus the
single-scenario ``upward_lengths()`` / ``downward_lengths()`` sweeps the
estimators call, asserting the regression guard of the
kernel refactor on the ``"up"`` batch sweep:

* float64 results are bit-identical to the reference, and at least
  1.2x faster on a >= 2,600-task Cholesky DAG;
* float32 is at least 1.8x faster than the reference on the same DAG.

The ``"down"`` sweep (successor edges, where a level mixes many
in-degrees) and the single-scenario sweeps are checked bit for bit and
timed, but not gated.

The measured rates are archived (appended) to
``benchmarks/results/kernel_rates.json`` so the performance trajectory can
be tracked PR-over-PR; every entry carries its sweep ``direction``.

Knobs: ``REPRO_BENCH_SIZES`` restricts the tile counts (e.g. ``4,6`` for a
CI smoke run — guards only apply to sizes with >= 2,600 tasks);
``REPRO_KERNEL_BENCH_TRIALS`` overrides the batch width (default 2,048).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.kernels import WavefrontKernel
from repro.core.paths import downward_lengths, upward_lengths
from repro.workflows.registry import build_dag

from _common import archive_rates, best_time, throughput_bench_sizes

#: Default tile counts: k = 24 gives a 2,600-task Cholesky DAG, the size
#: the acceptance guard is calibrated on.
DEFAULT_SIZES = (8, 16, 24)

#: Minimum speedups on DAGs with at least GUARD_MIN_TASKS tasks.
GUARD_MIN_TASKS = 2_600
GUARD_FLOAT64 = 1.2
GUARD_FLOAT32 = 1.8


def bench_trials() -> int:
    return int(os.environ.get("REPRO_KERNEL_BENCH_TRIALS", "2048"))


def reference_lengths(idx, weight_matrix, direction="up") -> np.ndarray:
    """The pre-kernel implementation: one Python iteration per task.

    Returns the ``(trials, tasks)`` path lengths of one sweep direction.
    """
    w = np.asarray(weight_matrix, dtype=np.float64)
    completion = np.zeros((w.shape[0], idx.num_tasks), dtype=np.float64)
    if direction == "up":
        indptr, indices, order = idx.pred_indptr, idx.pred_indices, idx.topo_order
    else:
        indptr, indices = idx.succ_indptr, idx.succ_indices
        order = idx.topo_order[::-1]
    for i in order:
        preds = indices[indptr[i] : indptr[i + 1]]
        if preds.size:
            completion[:, i] = w[:, i] + completion[:, preds].max(axis=1)
        else:
            completion[:, i] = w[:, i]
    return completion


def reference_batched_makespans(idx, weight_matrix, direction="up") -> np.ndarray:
    return reference_lengths(idx, weight_matrix, direction).max(axis=1)


def _best_rate(fn, trials: int, repeats: int = 3) -> float:
    return trials / best_time(fn, repeats=repeats)


@pytest.mark.parametrize("workflow", ["cholesky", "lu", "qr"])
def test_kernel_wavefront_throughput(workflow):
    trials = bench_trials()
    rng = np.random.default_rng(20160814)
    entries = []
    print()
    for k in throughput_bench_sizes(DEFAULT_SIZES):
        graph = build_dag(workflow, k)
        idx = graph.index()
        n = idx.num_tasks
        w = idx.weights[None, :] * rng.uniform(0.5, 2.0, size=(trials, n))

        for direction in ("up", "down"):
            reference = reference_batched_makespans(idx, w, direction)
            old_rate = _best_rate(
                lambda: reference_batched_makespans(idx, w, direction), trials
            )

            kernel64 = WavefrontKernel(idx, direction=direction, dtype=np.float64)
            assert np.array_equal(kernel64.run(w), reference), "float64 not bit-exact"
            new64_rate = _best_rate(lambda: kernel64.run(w), trials)

            kernel32 = WavefrontKernel(idx, direction=direction, dtype=np.float32)
            out32 = kernel32.run(w).astype(np.float64)
            assert np.max(np.abs(out32 - reference) / reference) < 1e-5
            new32_rate = _best_rate(lambda: kernel32.run(w), trials)

            for dtype, rate in (("float64", new64_rate), ("float32", new32_rate)):
                entries.append(
                    {
                        "workflow": workflow,
                        "k": k,
                        "tasks": n,
                        "levels": idx.num_levels,
                        "trials": trials,
                        "direction": direction,
                        "dtype": dtype,
                        "reference_rate": round(old_rate, 1),
                        "kernel_rate": round(rate, 1),
                        "speedup": round(rate / old_rate, 3),
                    }
                )
            print(
                f"  {workflow} k={k:3d} {direction:>4s} ({n:5d} tasks, "
                f"{idx.num_levels:3d} levels): "
                f"reference={old_rate:10,.0f}/s  "
                f"float64={new64_rate:10,.0f}/s ({new64_rate / old_rate:4.2f}x)  "
                f"float32={new32_rate:10,.0f}/s ({new32_rate / old_rate:4.2f}x)"
            )

            # The guards bound the "up" batch sweep (the Monte Carlo path).
            if direction == "up" and workflow == "cholesky" and n >= GUARD_MIN_TASKS:
                assert new64_rate >= GUARD_FLOAT64 * old_rate, (
                    f"float64 kernel regressed: {new64_rate / old_rate:.2f}x < "
                    f"{GUARD_FLOAT64}x on {n}-task cholesky"
                )
                assert new32_rate >= GUARD_FLOAT32 * old_rate, (
                    f"float32 kernel regressed: {new32_rate / old_rate:.2f}x < "
                    f"{GUARD_FLOAT32}x on {n}-task cholesky"
                )

        # Single-scenario sweeps (first- and second-order path metrics),
        # timed through the calls the estimators make.
        single = w[:1]
        for direction, lengths in (("up", upward_lengths), ("down", downward_lengths)):
            kernel = WavefrontKernel(idx, direction=direction)
            reference = reference_lengths(idx, single, direction)[0]
            assert np.array_equal(kernel.lengths(single[0]), reference)
            assert np.array_equal(lengths(idx, single[0]), reference)
            ref_time = best_time(
                lambda: reference_lengths(idx, single, direction), repeats=3
            )
            new_time = best_time(lambda: lengths(idx, single[0]), repeats=5)
            entries.append(
                {
                    "benchmark": "kernel_lengths",
                    "workflow": workflow,
                    "k": k,
                    "tasks": n,
                    "direction": direction,
                    "dtype": "float64",
                    "reference_s": round(ref_time, 6),
                    "kernel_s": round(new_time, 6),
                    "speedup": round(ref_time / new_time, 3),
                    "guard_min": None,
                }
            )
            print(
                f"  {workflow} k={k:3d} {direction:>4s} {lengths.__name__}(): "
                f"reference={ref_time * 1e3:8.2f} ms  "
                f"kernel={new_time * 1e3:8.2f} ms ({ref_time / new_time:5.2f}x)"
            )

    archive_rates(entries)
