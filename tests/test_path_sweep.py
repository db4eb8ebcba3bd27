"""The single-scenario path sweep against the batched column fold.

``upward_lengths`` / ``downward_lengths`` (and everything built on them:
path metrics, first-order, HEFT ranks) run one gather, one
``np.maximum.reduceat`` and one add per level over the forward levels
the index build recorded.  They must equal, dtype for dtype and value for
value, the column fold of a one-trial :class:`WavefrontKernel`, and they
must compile no :class:`~repro.core.kernels.LevelSchedule`.
"""

import sys
import threading

import numpy as np
import pytest

import repro.core.graph
import repro.core.kernels
from oracles import graph_compile as oracle
from repro import estimate_expected_makespan
from repro.core.kernels import (
    WavefrontKernel,
    schedule_compilations,
    schedule_for,
    sweep_lengths,
)
from repro.core.paths import compute_path_metrics, downward_lengths, upward_lengths
from repro.exceptions import GraphError
from repro.failures import ExponentialErrorModel
from repro.workflows.registry import build_dag
from test_graph_compile import _CASES

_LENGTHS = {"up": upward_lengths, "down": downward_lengths}


@pytest.fixture(params=[build for _, build in _CASES], ids=[name for name, _ in _CASES])
def graph(request):
    return request.param()


def _weight_vectors(index):
    n = index.num_tasks
    rng = np.random.default_rng(11)
    with_zeros = rng.uniform(0.0, 3.0, n)
    with_zeros[rng.random(n) < 0.3] = 0.0
    return [
        ("graph", index.weights),
        ("uniform", rng.uniform(0.5, 2.0, n)),
        ("exponential", rng.exponential(1.0, n)),
        ("with-zeros", with_zeros),
    ]


def _column_fold(index, weights, direction):
    kernel = WavefrontKernel(index, direction=direction)
    kernel.load(weights[None])
    kernel.propagate(1)
    return kernel, kernel.completion_matrix(1)[:, 0]


@pytest.mark.parametrize("direction", ["up", "down"])
def test_lengths_equal_the_column_fold(graph, direction):
    index = graph.index()
    for name, weights in _weight_vectors(index):
        ours = _LENGTHS[direction](index, weights)
        kernel, theirs = _column_fold(index, weights, direction)
        assert ours.dtype == theirs.dtype, name
        assert np.array_equal(ours, theirs), name
        # The kernel's own single-scenario sweep, from the index and from
        # the schedule alone (as on a worker that attached it).
        assert np.array_equal(kernel.lengths(weights), theirs), name
        rebuilt = WavefrontKernel.from_schedule(kernel.schedule, direction=direction)
        from_schedule = rebuilt.lengths(weights)
        assert from_schedule.dtype == theirs.dtype, name
        assert np.array_equal(from_schedule, theirs), name


def test_float32_kernel_lengths_equal_its_column_fold():
    index = build_dag("qr", 6).index()
    for direction in ("up", "down"):
        kernel = WavefrontKernel(index, direction=direction, dtype=np.float32)
        kernel.load(index.weights[None])
        kernel.propagate(1)
        theirs = kernel.completion_matrix(1)[:, 0]
        ours = kernel.lengths(index.weights)
        assert ours.dtype == np.float32
        assert np.array_equal(ours, theirs)


def _refuse(*args, **kwargs):
    raise AssertionError("compute_level_structure called")


def test_levels_come_from_the_index_build(graph, monkeypatch):
    monkeypatch.setattr(repro.core.graph, "compute_level_structure", _refuse)
    monkeypatch.setattr(repro.core.kernels, "compute_level_structure", _refuse)
    index = graph.index()
    theirs = oracle.compute_level_structure(
        index.pred_indptr, index.succ_indptr, index.succ_indices
    )
    for name, ours, reference in zip(
        ("level_indptr", "level_order"), index.level_structure(), theirs
    ):
        assert ours.dtype == reference.dtype, name
        np.testing.assert_array_equal(ours, reference, err_msg=name)
        assert not ours.flags.writeable, name
    # Neither sweep direction needs another level pass.
    compute_path_metrics(index)


def test_first_order_compiles_no_schedule():
    graph = build_dag("cholesky", 10)
    model = ExponentialErrorModel.for_graph(graph, 0.01)
    before = schedule_compilations()
    estimate_expected_makespan(graph, model, method="first-order")
    assert schedule_compilations() == before
    schedule_for(graph, "up")  # the batched path still compiles its own
    assert schedule_compilations() == before + 1


def test_threads_racing_the_plan_cache_agree_with_serial():
    graph = build_dag("lu", 12)
    serial = compute_path_metrics(build_dag("lu", 12).index())
    index = graph.index()
    barrier = threading.Barrier(4)
    results = [None] * 4

    def work(slot):
        barrier.wait(timeout=60)
        results[slot] = compute_path_metrics(index)

    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for metrics in results:
        assert np.array_equal(metrics.up, serial.up)
        assert np.array_equal(metrics.down, serial.down)
        assert metrics.critical_length == serial.critical_length


def test_unknown_direction_rejected():
    with pytest.raises(GraphError):
        sweep_lengths(build_dag("cholesky", 3), np.ones(10), "sideways")
