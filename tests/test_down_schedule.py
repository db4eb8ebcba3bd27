"""The "down" schedule takes its levels from the "down" sweep.

A task's level in the reversed graph is its longest path to a sink, in
edges: the "down" sweep over unit weights, minus one.  The compile reads
it from there instead of running a level pass over the reversed CSR, and
builds the same arrays as the per-level reference.
"""

import numpy as np
import pytest

import repro.core.graph
import repro.core.kernels
from oracles import graph_compile as oracle
from repro.core.kernels import schedule_arrays, schedule_compilations, schedule_for
from repro.workflows.registry import build_dag


def _refuse(*args, **kwargs):
    raise AssertionError("compute_level_structure called")


@pytest.mark.parametrize("workflow, k", [("cholesky", 10), ("lu", 8), ("qr", 8), ("gemm", 4)])
def test_down_schedule_runs_no_level_pass(workflow, k, monkeypatch):
    graph = build_dag(workflow, k)
    reference = oracle.reference_schedule_arrays(graph.index(), "down")
    monkeypatch.setattr(repro.core.graph, "compute_level_structure", _refuse)
    monkeypatch.setattr(repro.core.kernels, "compute_level_structure", _refuse)
    before = schedule_compilations()
    ours = schedule_arrays(schedule_for(graph, "down"))
    assert schedule_compilations() == before + 1
    assert ours.keys() == reference.keys()
    for name in reference:
        assert ours[name].dtype == reference[name].dtype, name
        np.testing.assert_array_equal(ours[name], reference[name], err_msg=name)
