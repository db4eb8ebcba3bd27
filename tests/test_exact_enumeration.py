"""Exact enumeration against the two loops it replaced.

:class:`repro.estimators.exact.ExactEstimator` writes each batch of failure
subsets task-major into the wavefront kernel.  ``tests/oracles/estimators.py``
keeps the trial-major batch loop that ``estimate`` ran before (asserted
``==``) and the one-kernel-call-per-subset loop of
``expected_makespan_from_table`` (asserted to 1e-12).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.estimators.exact as exact_module
from oracles.estimators import subset_loop_expected_makespan, trial_major_exact_estimate
from repro.core.generators import erdos_renyi_dag
from repro.estimators.exact import ExactEstimator
from repro.failures.models import ExponentialErrorModel, FixedProbabilityModel
from repro.workflows.registry import build_dag


def _zero_weight_dag(n, seed):
    # Every third task weighs nothing; the rest repeat a few values.
    weights = [0.0 if i % 3 == 0 else float(1 + i % 2) for i in range(n)]
    return erdos_renyi_dag(n, 0.3, weight=weights, rng=seed)


@pytest.mark.parametrize(
    "graph",
    [
        erdos_renyi_dag(15, 0.3, rng=1),
        erdos_renyi_dag(17, 0.2, rng=2),
        _zero_weight_dag(16, 3),
        _zero_weight_dag(9, 4),
        build_dag("cholesky", 4),
    ],
    ids=["gnp-15", "gnp-17", "zeros-16", "zeros-9", "cholesky-4"],
)
@pytest.mark.parametrize("factor", [2.0, 1.5])
def test_estimate_equals_trial_major_loop(graph, factor):
    n = graph.index().num_tasks
    if n >= 15:
        assert 1 << n > exact_module._BATCH
    for model in (ExponentialErrorModel(0.05), FixedProbabilityModel(0.2)):
        got = ExactEstimator(reexecution_factor=factor).estimate(graph, model)
        assert got.expected_makespan == trial_major_exact_estimate(graph, model, factor)
        assert got.details["num_scenarios"] == 1 << n


def _tables(graph, nominal, alternative, q):
    ids = graph.index().task_ids
    return tuple(dict(zip(ids, v.tolist())) for v in (nominal, alternative, q))


@pytest.mark.parametrize(
    "graph",
    [erdos_renyi_dag(11, 0.35, rng=5), _zero_weight_dag(10, 6), build_dag("cholesky", 3)],
    ids=["gnp-11", "zeros-10", "cholesky-3"],
)
def test_table_matches_subset_loop(graph):
    index = graph.index()
    n = index.num_tasks
    rng = np.random.default_rng(7)
    nominal = index.weights.copy()
    alternative = 1.5 * nominal  # not a doubling
    alternative[1] = nominal[1] + 0.25
    q = rng.uniform(0.0, 0.6, size=n)
    q[0], q[-1] = 0.0, 1.0
    got = ExactEstimator().expected_makespan_from_table(
        graph, *_tables(graph, nominal, alternative, q)
    )
    want = subset_loop_expected_makespan(graph, nominal, alternative, q)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

