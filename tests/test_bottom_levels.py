"""First-order expected bottom levels: cone sweeps against the per-root loop.

:func:`repro.scheduling.priorities.expected_bottom_levels_first_order` runs
chunked cone sweeps on the wavefront kernel; the per-root Python loop it
replaced is kept in ``tests/oracles/priorities.py``.  Every case asserts
bit-identity (``np.array_equal``), on the linear-algebra DAGs, on random
DAGs with zero weights, ties and isolated tasks, and with several root
chunks per graph.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.scheduling.priorities as priorities
from oracles.priorities import sequential_expected_bottom_levels
from repro.core.graph import TaskGraph
from repro.failures.models import ExponentialErrorModel, FixedProbabilityModel
from repro.scheduling.priorities import expected_bottom_levels_first_order
from repro.workflows.registry import build_dag


def assert_bit_identical(graph, model):
    got = expected_bottom_levels_first_order(graph, model)
    want = sequential_expected_bottom_levels(graph, model)
    assert list(got) == list(want)
    assert np.array_equal(
        np.fromiter(got.values(), dtype=np.float64),
        np.fromiter(want.values(), dtype=np.float64),
    )


@pytest.mark.parametrize("k", [3, 6, 10])
@pytest.mark.parametrize("workflow", ["cholesky", "lu", "qr"])
def test_linear_algebra_dags(workflow, k):
    graph = build_dag(workflow, k)
    assert_bit_identical(graph, ExponentialErrorModel.for_graph(graph, 1e-2))


@pytest.mark.parametrize("workflow", ["lu", "qr"])
def test_several_root_chunks(workflow):
    graph = build_dag(workflow, 10)
    assert graph.index().num_tasks > priorities._ROOT_CHUNK
    assert_bit_identical(graph, ExponentialErrorModel.for_graph(graph, 1e-3))


@pytest.mark.parametrize("workflow", ["cholesky", "lu", "qr"])
def test_fixed_probability_model(workflow):
    # No error rate: the factors are the per-task probabilities q_i.
    assert_bit_identical(build_dag(workflow, 6), FixedProbabilityModel(0.05))


def test_empty_graph():
    assert expected_bottom_levels_first_order(TaskGraph(), ExponentialErrorModel(0.1)) == {}


@st.composite
def dags_with_ties(draw):
    """Random DAGs whose weights repeat and include zeros, plus isolated tasks."""
    n = draw(st.integers(min_value=1, max_value=24))
    weights = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            ),
            min_size=n,
            max_size=n,
        )
    )
    isolated = draw(st.integers(min_value=0, max_value=3))
    p = draw(st.floats(min_value=0.0, max_value=0.7))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    graph = TaskGraph()
    for i, w in enumerate(weights):
        graph.add_task(f"t{i}", w)
    for i, j in zip(*np.nonzero(np.triu(rng.random((n, n)) < p, k=1))):
        graph.add_edge(f"t{int(i)}", f"t{int(j)}")
    for i in range(isolated):
        graph.add_task(f"iso{i}", weights[i % n])
    return graph


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    dags_with_ties(),
    st.sampled_from([1, 3, 256]),
    st.one_of(
        st.floats(min_value=0.0, max_value=0.5).map(ExponentialErrorModel),
        st.floats(min_value=0.0, max_value=0.99).map(FixedProbabilityModel),
    ),
)
def test_random_dags(graph, chunk, model):
    with mock.patch.object(priorities, "_ROOT_CHUNK", chunk):
        assert_bit_identical(graph, model)
