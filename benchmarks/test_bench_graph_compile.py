"""Fresh-graph compile: the whole-array passes against the per-level reference.

Every estimate on a fresh DAG first builds its
:class:`~repro.core.graph.GraphIndex`, the level structure and
:class:`~repro.core.kernels.LevelSchedule` of each sweep direction and
the level-column plans of the longest-path kernels.  This benchmark times
exactly that work — a fresh index, both schedules and both plans — on the
package and on the per-level / per-group reference kept as a test oracle
(``tests/oracles/graph_compile.py``), and checks on every run that the two
build the same schedule arrays.

Regression guard (self-arming): the package must compile at least
:data:`GUARD_SPEEDUP` x faster than the reference on DAGs with >=
:data:`GUARD_MIN_TASKS` tasks (lu/qr k = 16, cholesky k = 24).  The ratio
is the median over :data:`PAIRS` back-to-back pairs in alternating order
(``_common.paired_median_ratio``), so host drift hits both sides alike.
Below the size floor the rates are still measured and archived with
``guard_min = null``.

Entries append to ``benchmarks/results/kernel_rates.json`` with
``benchmark = "graph_compile"`` and are trended by
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
    _level_columns,
    schedule_arrays,
    schedule_for,
    schedule_level_columns,
)
from repro.workflows.registry import build_dag

from _common import archive_rates, paired_median_ratio, throughput_bench_sizes

DEFAULT_SIZES = (16, 24)
WORKFLOWS = ("cholesky", "lu", "qr")

GUARD_MIN_TASKS = 1_496  # lu/qr k=16 have 1,496 tasks
GUARD_SPEEDUP = 1.5
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

            base_time, new_time, speedup = paired_median_ratio(
                lambda: _reference_compile(oracle, graph),
                lambda: _package_compile(graph),
                PAIRS,
            )
            guard = GUARD_SPEEDUP if n >= GUARD_MIN_TASKS else None
            entries.append(
                {
                    "benchmark": "graph_compile",
                    "method": "fresh-compile",
                    "workflow": workflow,
                    "k": k,
                    "tasks": n,
                    "edges": graph.num_edges,
                    "seconds": round(new_time, 6),
                    "baseline_seconds": round(base_time, 6),
                    "speedup": round(speedup, 3),
                    "pairs": PAIRS,
                    "guard_min": guard,
                }
            )
            print(
                f"  compile {workflow:8s} k={k:3d} ({n:5d} tasks): reference "
                f"{base_time * 1e3:7.2f} ms -> {new_time * 1e3:7.2f} ms "
                f"({speedup:5.2f}x, median of {PAIRS} pairs"
                + (f", guard >= {guard}x)" if guard else ", guard unarmed)")
            )
            if guard is not None and speedup < guard:
                failures.append(f"{workflow} k={k}: {speedup:.2f}x < {guard}x")
    archive_rates(entries)
    assert not failures, failures
