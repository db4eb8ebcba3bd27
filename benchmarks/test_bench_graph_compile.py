"""Fresh-graph compile: the whole-array passes against the per-level reference.

Two methods, each timed on the package and on the per-level / per-group
reference kept as a test oracle (``tests/oracles/graph_compile.py``):

* ``fresh-compile`` — what a batched estimate (Monte Carlo, normal,
  second-order, ...) builds on a fresh DAG: the
  :class:`~repro.core.graph.GraphIndex`, the
  :class:`~repro.core.kernels.LevelSchedule` of each sweep direction and
  the level-column plans of the longest-path kernels.  Every run checks
  that both sides build the same schedule arrays.
* ``fresh-path-metrics`` — what a first-order estimate does on a fresh
  DAG: the index and :func:`~repro.core.paths.compute_path_metrics`,
  whose single-scenario sweeps compile no schedule.  The reference takes
  the route that used to serve it: the oracle index, the oracle schedule
  of each direction, its level-column plan and a one-trial column fold
  through :meth:`~repro.core.kernels.WavefrontKernel.from_schedule`.
  Every run checks that both sides give the same ``up`` / ``down``.

Regression guard (self-arming): the package must be at least
:data:`GUARD_SPEEDUP` x (``fresh-compile``) or
:data:`GUARD_PATH_METRICS` x (``fresh-path-metrics``) faster than the
reference on DAGs with >= :data:`GUARD_MIN_TASKS` tasks (lu/qr k = 16,
cholesky k = 24).  The ratio is the median over :data:`PAIRS`
back-to-back pairs in alternating order (``_common.paired_median_ratio``),
so host drift hits both sides alike.  Below the size floor the rates are
still measured and archived with ``guard_min = null``.

Entries append to ``benchmarks/results/kernel_rates.json`` with
``benchmark = "graph_compile"`` and their ``method``, and are trended by
``benchmarks/report_rates.py``.

Knobs: ``REPRO_BENCH_SIZES`` (tile counts, default 16,24 for each of
cholesky, lu and qr).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.core.kernels import (
    WavefrontKernel,
    _level_columns,
    schedule_arrays,
    schedule_for,
    schedule_from_arrays,
    schedule_level_columns,
)
from repro.core.paths import compute_path_metrics
from repro.workflows.registry import build_dag

from _common import archive_rates, paired_median_ratio, throughput_bench_sizes

DEFAULT_SIZES = (16, 24)
WORKFLOWS = ("cholesky", "lu", "qr")

GUARD_MIN_TASKS = 1_496  # lu/qr k=16 have 1,496 tasks
GUARD_SPEEDUP = 1.5
GUARD_PATH_METRICS = 1.8
PAIRS = 30

_ORACLE = Path(__file__).resolve().parents[1] / "tests" / "oracles" / "graph_compile.py"


def _load_oracle():
    spec = importlib.util.spec_from_file_location("graph_compile_oracle", _ORACLE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _package_compile(graph):
    index = graph._build_index()
    for direction in ("up", "down"):
        schedule_level_columns(schedule_for(index, direction))
    return index


def _reference_compile(oracle, graph):
    index = oracle.build_index(graph)
    arrays = {}
    for direction in ("up", "down"):
        arrays[direction] = flat = oracle.reference_schedule_arrays(index, direction)
        # The reference schedule flattened its groups for the kernels; its
        # level-column plan is the package's, derived from those arrays.
        _level_columns(
            SimpleNamespace(
                level_indptr=flat["level_indptr"],
                group_indptr=flat["group_indptr"],
                num_levels=flat["level_indptr"].shape[0] - 1,
                group_start=flat["group_start"],
                group_stop=flat["group_stop"],
                group_width=flat["group_width"],
                group_ptr=flat["group_ptr"],
                group_preds=flat["group_preds"],
            )
        )
    return arrays


def _package_path_metrics(graph):
    return compute_path_metrics(graph._build_index())


def _reference_path_metrics(oracle, graph):
    index = oracle.build_index(graph)
    lengths = {}
    for direction in ("up", "down"):
        schedule = schedule_from_arrays(
            oracle.reference_schedule_arrays(index, direction)
        )
        # propagate() derives the level-column plan (_level_columns).
        kernel = WavefrontKernel.from_schedule(schedule, direction=direction)
        kernel.weight_view(1)[:, 0] = index.weights[schedule.perm]
        kernel.propagate(1)
        lengths[direction] = kernel.completion_matrix(1)[:, 0]
    return lengths


def _entry(method, workflow, k, graph, base_time, new_time, speedup, guard):
    return {
        "benchmark": "graph_compile",
        "method": method,
        "workflow": workflow,
        "k": k,
        "tasks": graph.num_tasks,
        "edges": graph.num_edges,
        "seconds": round(new_time, 6),
        "baseline_seconds": round(base_time, 6),
        "speedup": round(speedup, 3),
        "pairs": PAIRS,
        "guard_min": guard,
    }


def test_graph_compile_against_the_reference():
    oracle = _load_oracle()
    entries = []
    failures = []
    print()
    for k in throughput_bench_sizes(DEFAULT_SIZES):
        for workflow in WORKFLOWS:
            graph = build_dag(workflow, k)
            n = graph.num_tasks
            index = _package_compile(graph)
            reference = _reference_compile(oracle, graph)
            for direction in ("up", "down"):
                ours = schedule_arrays(schedule_for(index, direction))
                for name, array in reference[direction].items():
                    np.testing.assert_array_equal(ours[name], array, err_msg=name)

            metrics = _package_path_metrics(graph)
            lengths = _reference_path_metrics(oracle, graph)
            np.testing.assert_array_equal(metrics.up, lengths["up"])
            np.testing.assert_array_equal(metrics.down, lengths["down"])

            armed = n >= GUARD_MIN_TASKS
            for method, floor, reference_fn, package_fn in (
                (
                    "fresh-compile",
                    GUARD_SPEEDUP,
                    lambda: _reference_compile(oracle, graph),
                    lambda: _package_compile(graph),
                ),
                (
                    "fresh-path-metrics",
                    GUARD_PATH_METRICS,
                    lambda: _reference_path_metrics(oracle, graph),
                    lambda: _package_path_metrics(graph),
                ),
            ):
                guard = floor if armed else None
                base_time, new_time, speedup = paired_median_ratio(
                    reference_fn, package_fn, PAIRS
                )
                entries.append(
                    _entry(method, workflow, k, graph, base_time, new_time, speedup, guard)
                )
                print(
                    f"  {method:18s} {workflow:8s} k={k:3d} ({n:5d} tasks): reference "
                    f"{base_time * 1e3:7.2f} ms -> {new_time * 1e3:7.2f} ms "
                    f"({speedup:5.2f}x, median of {PAIRS} pairs"
                    + (f", guard >= {guard}x)" if guard else ", guard unarmed)")
                )
                if guard is not None and speedup < guard:
                    failures.append(f"{method} {workflow} k={k}: {speedup:.2f}x < {guard}x")
    archive_rates(entries)
    assert not failures, failures
