"""Benchmark regenerating Table I of the paper (scalability study).

Table I evaluates the three approximations on the LU DAG with ``k = 20``
(2,870 tasks) and ``p_fail = 1e-4``, reporting the normalised difference
with a long Monte Carlo run and the wall-clock time of each method.  The
qualitative expectations asserted here:

* First Order is the most accurate of the three and runs in well under a
  second;
* Dodin shows by far the largest error;
* First Order is faster than both competitors' useful configurations
  (in the paper: < 1 s vs. ~2 min for Dodin and ~20 min for Normal).

The tile count can be reduced for smoke runs with ``REPRO_TABLE1_K``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.estimators.registry import get_estimator
from repro.experiments.config import ScalabilityConfig
from repro.experiments.reporting import scalability_table
from repro.experiments.scalability import run_scalability
from repro.failures.models import ExponentialErrorModel
from repro.workflows.lu import lu_dag

from _common import BENCH_SEED, write_report


def _table1_config() -> ScalabilityConfig:
    size = int(os.environ.get("REPRO_TABLE1_K", "20"))
    return ScalabilityConfig(workflow="lu", size=size, pfail=1e-4)


def test_table1_regenerate(benchmark):
    """Regenerate Table I: error and execution time of the three methods."""
    config = _table1_config()

    def run():
        return run_scalability(config, seed=BENCH_SEED)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    report = scalability_table(result)
    print()
    print(report)
    write_report("table1", result.to_rows(), report)

    errors = {r.estimator: r.relative_error for r in result.rows}
    times = {r.estimator: r.wall_time for r in result.rows}
    # Accuracy shape: First Order best, Dodin worst.
    assert errors["first-order"] <= errors["normal"]
    assert errors["first-order"] < errors["dodin"]
    assert errors["dodin"] >= errors["normal"]
    # Speed shape: First Order negligible and faster than Dodin.
    assert times["first-order"] < 1.0
    assert times["first-order"] < times["dodin"]


@pytest.mark.parametrize("estimator", ["first-order", "normal", "dodin"])
def test_table1_estimator_runtime(benchmark, estimator):
    """Wall-clock time of each approximation on the Table I graph."""
    config = _table1_config()
    graph = lu_dag(config.size)
    model = ExponentialErrorModel.for_graph(graph, config.pfail)
    est = get_estimator(estimator)
    result = benchmark.pedantic(lambda: est.estimate(graph, model), rounds=1, iterations=1)
    assert result.expected_makespan >= result.failure_free_makespan - 1e-9
