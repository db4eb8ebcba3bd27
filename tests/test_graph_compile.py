"""The vectorised graph compile against the per-level reference.

``tests/oracles/graph_compile.py`` holds the index build, level structure
and schedule compile as they were written with per-level / per-group
Python loops.  The package's whole-array passes must build the same
:class:`~repro.core.graph.GraphIndex`, the same level structures and the
same :func:`~repro.core.kernels.schedule_arrays` in both sweep directions,
value for value and dtype for dtype, with every array read-only.
"""

import numpy as np
import pytest

from oracles import graph_compile as oracle
from repro.core.generators import (
    chain_graph,
    erdos_renyi_dag,
    independent_tasks,
    layered_random_dag,
)
from repro.core.graph import TaskGraph, compute_level_structure
from repro.core.kernels import (
    schedule_arrays,
    schedule_compilations,
    schedule_flat_groups,
    schedule_for,
    schedule_from_arrays,
)
from repro.exceptions import CycleError
from repro.exec.shm import AttachedSegment, SharedSegment
from repro.workflows.registry import build_dag

_INDEX_ARRAYS = (
    "weights",
    "topo_order",
    "pred_indptr",
    "pred_indices",
    "succ_indptr",
    "succ_indices",
)


def _empty():
    return TaskGraph(name="empty")


def _one_task():
    graph = TaskGraph(name="one")
    graph.add_task("only", 2.5)
    return graph


def _shuffled_edges():
    # Edges inserted against task order, so insertion-order successor
    # lists (the topological order's tie-break) differ from CSR order.
    graph = TaskGraph(name="shuffled")
    for i in range(8):
        graph.add_task(i, float(i + 1))
    for src, dst in ((0, 7), (0, 3), (2, 5), (0, 1), (1, 5), (3, 4), (2, 4), (4, 7), (5, 6)):
        graph.add_edge(src, dst)
    return graph


_CASES = (
    [(f"cholesky-{k}", lambda k=k: build_dag("cholesky", k)) for k in range(1, 25)]
    + [(f"{wf}-{k}", lambda wf=wf, k=k: build_dag(wf, k))
       for wf in ("lu", "qr") for k in range(1, 17)]
    + [
        ("gnp-60", lambda: erdos_renyi_dag(60, 0.1, rng=3)),
        ("gnp-200", lambda: erdos_renyi_dag(200, 0.03, rng=4)),
        ("layered", lambda: layered_random_dag(7, 9, rng=5)),
        ("independent", lambda: independent_tasks(12, rng=6)),
        ("chain", lambda: chain_graph(30, rng=7)),
        ("shuffled-edges", _shuffled_edges),
        ("empty", _empty),
        ("one-task", _one_task),
    ]
)


@pytest.fixture(params=[build for _, build in _CASES], ids=[name for name, _ in _CASES])
def graph(request):
    return request.param()


def _assert_same_array(ours, theirs, what):
    assert ours.dtype == theirs.dtype, what
    assert ours.shape == theirs.shape, what
    np.testing.assert_array_equal(ours, theirs, err_msg=what)


def test_index_matches_the_reference(graph):
    ours = graph.index()
    theirs = oracle.build_index(graph)
    assert ours.task_ids == theirs.task_ids
    assert dict(ours.index_of) == dict(theirs.index_of)
    for name in _INDEX_ARRAYS:
        array = getattr(ours, name)
        _assert_same_array(array, getattr(theirs, name), name)
        assert not array.flags.writeable, name
    assert graph.topological_order() == oracle.topological_order(graph)


@pytest.mark.parametrize("direction", ["up", "down"])
def test_level_structure_matches_the_reference(graph, direction):
    index = graph.index()
    if direction == "up":
        args = (index.pred_indptr, index.succ_indptr, index.succ_indices)
    else:
        args = (index.succ_indptr, index.pred_indptr, index.pred_indices)
    ours = compute_level_structure(*args)
    theirs = oracle.compute_level_structure(*args)
    for name, a, b in zip(("level_indptr", "level_order"), ours, theirs):
        _assert_same_array(a, b, name)
        assert not a.flags.writeable, name
    if direction == "up":
        for a, b in zip(index.level_structure(), theirs):
            _assert_same_array(a, b, "cached level structure")


@pytest.mark.parametrize("direction", ["up", "down"])
def test_schedule_arrays_match_the_reference(graph, direction):
    ours = schedule_arrays(schedule_for(graph, direction))
    theirs = oracle.reference_schedule_arrays(graph.index(), direction)
    assert ours.keys() == theirs.keys()
    for name in theirs:
        _assert_same_array(ours[name], theirs[name], name)
        if name != "scalars":  # packed per call
            assert not ours[name].flags.writeable, name


@pytest.mark.parametrize("direction", ["up", "down"])
def test_groups_are_views_of_the_flat_arrays(graph, direction):
    schedule = schedule_for(graph, direction)
    start, stop, width, ptr, preds = schedule_flat_groups(schedule)
    assert len(schedule.groups) == start.shape[0]
    for g, group in enumerate(schedule.groups):
        assert (group.start, group.stop) == (start[g], stop[g])
        assert group.preds.shape == (stop[g] - start[g], width[g])
        assert np.shares_memory(group.preds, preds)
        np.testing.assert_array_equal(group.preds.ravel(), preds[ptr[g] : ptr[g + 1]])
        assert not group.preds.flags.writeable


def test_one_compile_per_direction_per_index():
    graph = build_dag("lu", 6)
    index = graph.index()
    before = schedule_compilations()
    for _ in range(3):
        schedule_for(index, "up")
        schedule_for(graph, "down")
    assert schedule_compilations() == before + 2
    schedule_for(build_dag("lu", 6), "up")  # a fresh index compiles afresh
    assert schedule_compilations() == before + 3


def _cyclic_graph():
    graph = TaskGraph(name="cyclic")
    for tid in ("a", "b", "c", "d", "e"):
        graph.add_task(tid, 1.0)
    for src, dst in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "b"), ("d", "e")):
        graph.add_edge(src, dst)
    return graph


def _long_cycle():
    graph = TaskGraph(name="ring")
    for i in range(15):
        graph.add_task(i, 1.0)
    for i in range(15):
        graph.add_edge(i, (i + 1) % 15)
    return graph


@pytest.mark.parametrize("build", [_cyclic_graph, _long_cycle])
def test_cycle_error_parity(build):
    graph = build()
    with pytest.raises(CycleError) as theirs:
        oracle.build_index(graph)
    with pytest.raises(CycleError) as ours:
        graph.index()
    assert type(ours.value) is type(theirs.value)
    assert ours.value.cycle == theirs.value.cycle
    assert str(ours.value) == str(theirs.value)
    with pytest.raises(CycleError) as order:
        graph.topological_order()
    assert order.value.cycle == theirs.value.cycle
    assert not graph.is_acyclic()


def test_level_structure_cycle_error_parity():
    # CSR arrays of a 3-cycle behind an entry task: 0 -> 1 -> 2 -> 3 -> 1.
    indptr = np.array([0, 1, 2, 3, 4])
    indices = np.array([1, 2, 3, 1])
    in_indptr = np.array([0, 0, 2, 3, 4])
    with pytest.raises(CycleError) as theirs:
        oracle.compute_level_structure(in_indptr, indptr, indices)
    with pytest.raises(CycleError) as ours:
        compute_level_structure(in_indptr, indptr, indices)
    assert ours.value.cycle == theirs.value.cycle == [1, 2, 3]


def test_attached_schedule_shares_the_segment():
    schedule = schedule_for(build_dag("qr", 5), "up")
    segment = SharedSegment.create(schedule_arrays(schedule))
    try:
        attached = AttachedSegment(segment.name, segment.layout)
        try:
            rebuilt = schedule_from_arrays(attached.arrays)
            flat = schedule_flat_groups(rebuilt)
            names = ("group_start", "group_stop", "group_width", "group_ptr", "group_preds")
            for name, array in zip(names, flat):
                assert np.shares_memory(array, attached.arrays[name]), name
            for group in rebuilt.groups:
                assert np.shares_memory(group.preds, attached.arrays["group_preds"])
            for name in ("perm", "rank", "row_level", "task_level"):
                assert np.shares_memory(getattr(rebuilt, name), attached.arrays[name])
            del rebuilt, flat, group  # no views left when the segment detaches
        finally:
            attached.close()
    finally:
        segment.destroy()
