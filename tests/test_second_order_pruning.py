"""The second-order pair sum sweeps only the tasks that can interact.

``SecondOrderEstimator`` sums ``P({i, j})·L({i, j})`` as a closed-form
all-pairs part ``P(∅) Σ r_i r_j max(L_i, L_j)`` plus corrections from one
doubled-weight sweep per *row*, a task with an interacting partner.  These
tests hold it to the unpruned all-rows sum (``oracles.estimators``), check
the interaction argument on the kernel itself, and check the sort-based row
selection against a dense pair mask.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.estimators import unpruned_second_order_estimates
from repro.core.generators import chain_graph, erdos_renyi_dag
from repro.core.kernels import WavefrontKernel
from repro.core.paths import compute_path_metrics
from repro.estimators.second_order import (
    _TIE_ULPS,
    SecondOrderEstimator,
    _interacting_rows,
)
from repro.failures.models import ExponentialErrorModel
from repro.workflows.registry import build_dag


def _processes_available() -> bool:
    try:
        with ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context()
        ) as pool:
            return pool.submit(int, 1).result(timeout=60) == 1
    except Exception:
        return False


HAS_PROCESSES = _processes_available()
TAILS = ("failure-free", "drop", "worst-pair")
RTOL = 1e-12


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _selection_inputs(graph):
    index = graph.index()
    metrics = compute_path_metrics(index)
    d_g = metrics.critical_length
    gap = d_g - (metrics.up + metrics.down)
    margin = _TIE_ULPS * float(np.spacing(d_g))
    return index, metrics, gap, margin


def _dense_rows(gap, weights, margin):
    """Rows by the O(n²) pair mask: some j != i with a_j < w_i + m, a_i < w_j + m."""
    limit = weights + margin
    mask = (gap[None, :] < limit[:, None]) & (gap[:, None] < limit[None, :])
    np.fill_diagonal(mask, False)
    return np.flatnonzero(mask.any(axis=1))


def _assert_matches_oracle(graph, model):
    reference = unpruned_second_order_estimates(graph, model)
    for tail in TAILS:
        result = SecondOrderEstimator(tail_handling=tail).estimate(graph, model)
        assert _rel(result.expected_makespan, reference[tail]) <= RTOL, tail


@st.composite
def tied_dag(draw, max_tasks: int = 10):
    """A random DAG whose weights come from a small set holding 0: ties and
    zero-weight tasks on and off the critical path."""
    n = draw(st.integers(min_value=2, max_value=max_tasks))
    p = draw(st.floats(min_value=0.0, max_value=0.8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    weights = draw(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), min_size=n, max_size=n)
    )
    return erdos_renyi_dag(n, p, weight=weights, rng=seed)


@pytest.mark.parametrize(
    "workflow,size",
    [("cholesky", 10), ("cholesky", 24), ("lu", 16), ("qr", 16), ("gemm", 8)],
)
def test_matches_unpruned_sum_on_workflows(workflow, size):
    graph = build_dag(workflow, size)
    _assert_matches_oracle(graph, ExponentialErrorModel.for_graph(graph, 1e-3))


@pytest.mark.parametrize("pfail", [1e-4, 1e-2])
def test_matches_unpruned_sum_across_rates(pfail):
    graph = build_dag("qr", 8)
    _assert_matches_oracle(graph, ExponentialErrorModel.for_graph(graph, pfail))


@settings(max_examples=60, deadline=None)
@given(tied_dag(), st.floats(min_value=0.01, max_value=0.5))
def test_matches_unpruned_sum_on_random_dags(graph, rate):
    _assert_matches_oracle(graph, ExponentialErrorModel(rate))


@settings(max_examples=60, deadline=None)
@given(tied_dag(max_tasks=14))
def test_rows_match_dense_mask_on_random_dags(graph):
    _, _, gap, margin = _selection_inputs(graph)
    weights = graph.index().weights
    for m in (0.0, margin):
        assert np.array_equal(
            _interacting_rows(gap, weights, m), _dense_rows(gap, weights, m)
        )


@pytest.mark.parametrize(
    "workflow,size", [("cholesky", 10), ("cholesky", 24), ("lu", 16), ("qr", 16)]
)
def test_rows_match_dense_mask_on_workflows(workflow, size):
    index, _, gap, margin = _selection_inputs(build_dag(workflow, size))
    for m in (0.0, margin):
        rows = _interacting_rows(gap, index.weights, m)
        assert np.array_equal(rows, _dense_rows(gap, index.weights, m))
        assert 0 < rows.size < index.num_tasks


def test_task_that_interacts_only_with_itself_is_not_a_row():
    # A unit-weight critical chain (d = 10) beside a lone task of weight 4:
    # slack 6 < 2·4, so the lone task passes its own test, but with any
    # chain task max(s) = 6 >= 4 + 1, so it has no partner.
    graph = chain_graph(10, weight=1.0)
    graph.add_task("lone", 4.0)
    index, _, gap, margin = _selection_inputs(graph)
    lone = index.task_ids.index("lone")
    for m in (0.0, margin):
        rows = _interacting_rows(gap, index.weights, m)
        assert np.array_equal(rows, _dense_rows(gap, index.weights, m))
        assert lone not in rows and rows.size == 10


def test_tie_margin_only_adds_rows():
    index, _, gap, margin = _selection_inputs(build_dag("cholesky", 10))
    exact = _interacting_rows(gap, index.weights, 0.0)
    padded = _interacting_rows(gap, index.weights, margin)
    assert set(exact) < set(padded)


def _completions(index, scenarios, direction):
    kernel = WavefrontKernel(index, direction=direction)
    kernel.load(scenarios)
    kernel.propagate(len(scenarios))
    return kernel.completion_matrix(len(scenarios))


@pytest.mark.parametrize("workflow,size", [("cholesky", 10), ("lu", 10), ("qr", 8)])
def test_non_interacting_pairs_do_not_stretch(workflow, size):
    """L({i, j}) = max(L_i, L_j), to 1 ulp of d, for pairs outside the mask.

    ``L({i, j})`` as the row sweep of ``i`` computes it: ``max(L_i,
    up_i(j) + down_i(j))`` from the up/down arrays of ``G_i``.
    """
    index, metrics, gap, margin = _selection_inputs(build_dag(workflow, size))
    weights = index.weights
    limit = weights + margin
    interacting = (gap[None, :] < limit[:, None]) & (gap[:, None] < limit[None, :])
    np.fill_diagonal(interacting, True)
    rng = np.random.default_rng(7)
    rows = rng.choice(index.num_tasks, size=min(64, index.num_tasks), replace=False)
    scenarios = np.broadcast_to(weights, (rows.size, weights.size)).copy()
    scenarios[np.arange(rows.size), rows] *= 2.0
    through = _completions(index, scenarios, "up") + _completions(index, scenarios, "down")
    single = metrics.doubled_makespans()
    pair = np.maximum(single[rows][None, :], through)  # (tasks j, rows i)
    expected = np.maximum.outer(single, single[rows])
    outside = ~interacting[:, rows]
    assert outside.sum() > rows.size
    ulp = np.spacing(metrics.critical_length)
    assert np.all(np.abs(pair - expected)[outside] <= ulp)


def test_pair_rows_reported():
    # cholesky k=10: 172 rows interact strictly, 10 more only at a tie,
    # and the estimator sweeps those too.
    graph = build_dag("cholesky", 10)
    index, _, gap, margin = _selection_inputs(graph)
    result = SecondOrderEstimator().estimate(
        graph, ExponentialErrorModel.for_graph(graph, 1e-3)
    )
    assert result.details["pair_rows"] == _interacting_rows(
        gap, index.weights, margin
    ).size
    assert result.details["pair_rows"] == 182
    assert _interacting_rows(gap, index.weights, 0.0).size == 172


@pytest.mark.skipif(not HAS_PROCESSES, reason="process pools unavailable")
@pytest.mark.parametrize("backend,workers", [(None, 2), ("processes", 2)])
def test_row_partitions_bit_identical(backend, workers):
    # cholesky k=20 sweeps 932 rows: 8 chunks, enough for a fault plan
    # that kills partition 5 to hit one.
    graph = build_dag("cholesky", 20)
    model = ExponentialErrorModel.for_graph(graph, 1e-2)
    reference = SecondOrderEstimator(workers=1).estimate(graph, model)
    result = SecondOrderEstimator(
        workers=workers, exec_backend=backend
    ).estimate(graph, model)
    assert result.details["execution"]["backend"] == "processes"
    assert result.expected_makespan == reference.expected_makespan
    assert result.details["pair_contribution"] == reference.details["pair_contribution"]
    assert result.details["execution"]["partitions"] == 8
