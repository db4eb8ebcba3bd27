"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
import types

import numpy as np
import pytest

from repro.core.backends import _reset_backend_state
from repro.core.graph import TaskGraph
from repro.core.generators import erdos_renyi_dag
from repro.failures.models import ExponentialErrorModel, FixedProbabilityModel
from repro.workflows.cholesky import cholesky_dag
from repro.workflows.lu import lu_dag
from repro.workflows.qr import qr_dag


@pytest.fixture
def rng():
    """A deterministic NumPy random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def chain3() -> TaskGraph:
    """Three tasks in a chain: a(1) -> b(2) -> c(3)."""
    g = TaskGraph(name="chain3")
    g.add_task("a", 1.0)
    g.add_task("b", 2.0)
    g.add_task("c", 3.0)
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    return g


@pytest.fixture
def diamond() -> TaskGraph:
    """The classic diamond: s -> {left, right} -> t."""
    g = TaskGraph(name="diamond")
    g.add_task("s", 1.0)
    g.add_task("left", 2.0)
    g.add_task("right", 4.0)
    g.add_task("t", 1.0)
    g.add_edge("s", "left")
    g.add_edge("s", "right")
    g.add_edge("left", "t")
    g.add_edge("right", "t")
    return g


@pytest.fixture
def non_sp_graph() -> TaskGraph:
    """The smallest non-series-parallel DAG (the 'N' / interdiction graph).

    Edges: a->c, a->d, b->d (plus b has no edge to c), so the graph cannot be
    reduced by series/parallel operations.
    """
    g = TaskGraph(name="N-graph")
    g.add_task("a", 1.0)
    g.add_task("b", 2.0)
    g.add_task("c", 3.0)
    g.add_task("d", 4.0)
    g.add_edge("a", "c")
    g.add_edge("a", "d")
    g.add_edge("b", "d")
    return g


@pytest.fixture
def small_random_dag() -> TaskGraph:
    """A 10-task random DAG, small enough for exact enumeration."""
    return erdos_renyi_dag(10, 0.35, rng=7, name="small-random")


@pytest.fixture
def cholesky4() -> TaskGraph:
    """The Cholesky DAG for k = 4 (20 tasks)."""
    return cholesky_dag(4)


@pytest.fixture
def lu4() -> TaskGraph:
    """The LU DAG for k = 4 (30 tasks)."""
    return lu_dag(4)


@pytest.fixture
def qr4() -> TaskGraph:
    """The QR DAG for k = 4 (30 tasks)."""
    return qr_dag(4)


@pytest.fixture
def model_1em2() -> ExponentialErrorModel:
    """An exponential model with rate chosen directly (λ = 0.01)."""
    return ExponentialErrorModel(0.01)


@pytest.fixture
def fixed_model() -> FixedProbabilityModel:
    """A weight-independent failure probability of 5%."""
    return FixedProbabilityModel(0.05)


@pytest.fixture
def stub_numba(monkeypatch):
    """A stand-in ``numba`` whose ``njit`` is the identity decorator.

    ``_build_numba_ops`` then returns its kernels as plain Python
    functions — the genuine fused loops, minus the compilation step.
    """
    fake = types.ModuleType("numba")

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def decorate(fn):
            return fn

        return decorate

    fake.njit = njit
    _reset_backend_state()
    monkeypatch.setitem(sys.modules, "numba", fake)
    yield fake
    _reset_backend_state()
