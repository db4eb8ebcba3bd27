"""Tests for the level-wavefront longest-path kernels (repro.core.kernels).

The kernels are differential-tested against a straight per-task reference
implementation of the recurrence (the pre-kernel code path) on every
registered workflow generator plus random synthetic DAGs; float64 results
must be *bit-identical*, float32 within a small relative tolerance.
"""

import numpy as np
import pytest

from repro.core.generators import (
    erdos_renyi_dag,
    fork_join,
    layered_random_dag,
    random_out_tree,
)
from repro.core.graph import TaskGraph, compute_level_structure
from repro.core.kernels import (
    WavefrontKernel,
    clark_max_moments_batched,
    norm_pdf_batched,
    normalize_dtype,
    wavefront_kernel,
)
from repro.core.paths import (
    batched_makespans,
    critical_path_length,
    downward_lengths,
    makespan_with_weights,
    upward_lengths,
)
from repro.exceptions import GraphError
from repro.workflows.registry import available_workflows, build_dag


# ----------------------------------------------------------------------
# Reference implementations: the pre-kernel per-task recurrences.
# ----------------------------------------------------------------------
def reference_batched_makespans(idx, weight_matrix):
    w = np.asarray(weight_matrix, dtype=np.float64)
    num_scenarios = w.shape[0]
    if idx.num_tasks == 0:
        return np.zeros(num_scenarios, dtype=np.float64)
    completion = np.zeros((num_scenarios, idx.num_tasks), dtype=np.float64)
    indptr, indices = idx.pred_indptr, idx.pred_indices
    for i in idx.topo_order:
        preds = indices[indptr[i] : indptr[i + 1]]
        if preds.size:
            completion[:, i] = w[:, i] + completion[:, preds].max(axis=1)
        else:
            completion[:, i] = w[:, i]
    return completion.max(axis=1)


def reference_upward(idx, w):
    up = np.zeros(idx.num_tasks, dtype=np.float64)
    indptr, indices = idx.pred_indptr, idx.pred_indices
    for i in idx.topo_order:
        preds = indices[indptr[i] : indptr[i + 1]]
        up[i] = w[i] + (up[preds].max() if preds.size else 0.0)
    return up


def reference_downward(idx, w):
    down = np.zeros(idx.num_tasks, dtype=np.float64)
    indptr, indices = idx.succ_indptr, idx.succ_indices
    for i in idx.topo_order[::-1]:
        succs = indices[indptr[i] : indptr[i + 1]]
        down[i] = w[i] + (down[succs].max() if succs.size else 0.0)
    return down


def random_weight_matrix(idx, trials, seed):
    rng = np.random.default_rng(seed)
    return idx.weights[None, :] * rng.uniform(0.5, 2.5, size=(trials, idx.num_tasks))


SYNTHETIC_DAGS = [
    erdos_renyi_dag(25, 0.25, rng=1, name="er-dense"),
    erdos_renyi_dag(40, 0.08, rng=2, name="er-sparse"),
    layered_random_dag(5, 6, edge_probability=0.5, rng=3),
    fork_join(17),
    random_out_tree(31, max_children=4, rng=4),
]


class TestLevelStructure:
    @pytest.mark.parametrize("workflow", available_workflows())
    def test_levels_are_valid(self, workflow):
        idx = build_dag(workflow, 5).index()
        indptr, order = idx.level_structure()
        assert indptr[0] == 0 and indptr[-1] == idx.num_tasks
        assert np.all(np.diff(indptr) > 0)
        assert sorted(order.tolist()) == list(range(idx.num_tasks))
        # Every predecessor must lie in a strictly lower level, and at
        # least one exactly one level below.
        level_of = np.empty(idx.num_tasks, dtype=np.int64)
        for level in range(len(indptr) - 1):
            level_of[order[indptr[level] : indptr[level + 1]]] = level
        for i in range(idx.num_tasks):
            preds = idx.predecessors(i)
            if preds.size == 0:
                assert level_of[i] == 0
            else:
                assert np.all(level_of[preds] < level_of[i])
                assert level_of[preds].max() == level_of[i] - 1

    def test_chain_has_one_task_per_level(self, chain3):
        idx = chain3.index()
        assert idx.num_levels == 3
        assert np.array_equal(np.diff(idx.level_indptr), [1, 1, 1])

    def test_independent_tasks_form_one_level(self):
        g = TaskGraph()
        for i in range(4):
            g.add_task(i, 1.0)
        assert g.index().num_levels == 1

    def test_empty_graph(self):
        idx = TaskGraph().index()
        assert idx.num_levels == 0
        assert idx.level_order.shape == (0,)

    def test_reverse_direction_levels(self, diamond):
        idx = diamond.index()
        indptr, order = compute_level_structure(
            idx.succ_indptr, idx.pred_indptr, idx.pred_indices
        )
        # Reversed diamond: t is the only source of the reversed graph.
        assert indptr[-1] == 4
        assert order[0] == idx.index_of["t"]

    def test_structure_is_cached(self, diamond):
        idx = diamond.index()
        assert idx.level_structure()[0] is idx.level_structure()[0]


class TestKernelDifferential:
    @pytest.mark.parametrize("workflow", available_workflows())
    def test_bitexact_on_workflows(self, workflow):
        for size in (2, 5):
            idx = build_dag(workflow, size).index()
            w = random_weight_matrix(idx, 13, seed=size)
            expected = reference_batched_makespans(idx, w)
            assert np.array_equal(batched_makespans(idx, w), expected)

    @pytest.mark.parametrize("graph", SYNTHETIC_DAGS, ids=lambda g: g.name)
    def test_bitexact_on_synthetic_dags(self, graph):
        idx = graph.index()
        w = random_weight_matrix(idx, 11, seed=0)
        expected = reference_batched_makespans(idx, w)
        assert np.array_equal(batched_makespans(idx, w), expected)

    @pytest.mark.parametrize("graph", SYNTHETIC_DAGS, ids=lambda g: g.name)
    def test_matches_per_trial_critical_path(self, graph):
        idx = graph.index()
        w = random_weight_matrix(idx, 7, seed=42)
        batched = batched_makespans(idx, w)
        singles = [makespan_with_weights(idx, row) for row in w]
        assert np.array_equal(batched, np.asarray(singles))

    @pytest.mark.parametrize("workflow", available_workflows())
    def test_up_down_bitexact(self, workflow):
        idx = build_dag(workflow, 4).index()
        rng = np.random.default_rng(3)
        w = idx.weights * rng.uniform(0.5, 2.0, size=idx.num_tasks)
        assert np.array_equal(upward_lengths(idx, w), reference_upward(idx, w))
        assert np.array_equal(downward_lengths(idx, w), reference_downward(idx, w))

    def test_float32_tolerance(self):
        idx = build_dag("cholesky", 10).index()
        w = random_weight_matrix(idx, 64, seed=5)
        exact = batched_makespans(idx, w)
        approx = batched_makespans(idx, w, dtype="float32")
        assert approx.dtype == np.float32
        rel = np.abs(approx.astype(np.float64) - exact) / exact
        assert rel.max() < 1e-5


class TestKernelEdgeCases:
    def test_empty_graph(self):
        idx = TaskGraph().index()
        assert batched_makespans(idx, np.zeros((4, 0))).tolist() == [0.0] * 4
        assert upward_lengths(idx).shape == (0,)
        assert downward_lengths(idx).shape == (0,)

    def test_single_task(self):
        g = TaskGraph()
        g.add_task("only", 2.5)
        out = batched_makespans(g, np.array([[2.5], [5.0]]))
        assert out.tolist() == [2.5, 5.0]
        assert upward_lengths(g).tolist() == [2.5]

    def test_zero_scenarios(self, diamond):
        # An empty scenario batch is valid and returns an empty result,
        # as it did before the kernel refactor.
        out = batched_makespans(diamond, np.empty((0, 4)))
        assert out.shape == (0,)

    def test_disconnected_tasks(self):
        g = TaskGraph()
        for i, w in enumerate([1.0, 5.0, 3.0]):
            g.add_task(i, w)
        idx = g.index()
        assert critical_path_length(idx) == pytest.approx(5.0)
        out = batched_makespans(idx, idx.weights[None, :] * 2.0)
        assert out.tolist() == [10.0]

    def test_disconnected_sink_component(self):
        # Two components: a chain and an isolated heavy sink.
        g = TaskGraph()
        g.add_task("a", 1.0)
        g.add_task("b", 2.0)
        g.add_task("lonely", 10.0)
        g.add_edge("a", "b")
        idx = g.index()
        expected = reference_batched_makespans(idx, idx.weights[None, :])
        assert np.array_equal(batched_makespans(idx, idx.weights[None, :]), expected)
        assert expected[0] == pytest.approx(10.0)

    def test_shape_validation(self, diamond):
        with pytest.raises(GraphError):
            batched_makespans(diamond, np.ones((2, 3)))
        with pytest.raises(GraphError):
            WavefrontKernel(diamond).lengths(np.ones(3))

    def test_invalid_dtype_rejected(self, diamond):
        with pytest.raises(GraphError):
            batched_makespans(diamond, np.ones((1, 4)), dtype="int32")
        with pytest.raises(GraphError):
            normalize_dtype("float16")

    def test_invalid_direction_rejected(self, diamond):
        with pytest.raises(GraphError):
            WavefrontKernel(diamond, direction="sideways")


class TestKernelBufferReuse:
    def test_buffer_allocated_once_and_grows(self, cholesky4):
        kernel = WavefrontKernel(cholesky4)
        view8 = kernel.weight_view(8)
        buf = kernel._buffer
        assert view8.shape == (cholesky4.num_tasks, 8)
        # Smaller or equal requests reuse the same allocation.
        kernel.weight_view(4)
        kernel.weight_view(8)
        assert kernel._buffer is buf
        # Larger requests grow it.
        kernel.weight_view(16)
        assert kernel._buffer is not buf
        assert kernel.capacity == 16

    def test_repeated_runs_reuse_buffer(self, lu4):
        idx = lu4.index()
        kernel = WavefrontKernel(idx)
        w = random_weight_matrix(idx, 12, seed=1)
        first = kernel.run(w)
        buf = kernel._buffer
        second = kernel.run(w)
        assert kernel._buffer is buf
        assert np.array_equal(first, second)
        assert np.array_equal(first, reference_batched_makespans(idx, w))

    def test_shared_kernel_cached_on_index(self, qr4):
        idx = qr4.index()
        assert wavefront_kernel(idx) is wavefront_kernel(idx)
        assert wavefront_kernel(idx) is not wavefront_kernel(idx, dtype="float32")
        assert wavefront_kernel(idx) is not wavefront_kernel(idx, direction="down")

    def test_release_drops_buffers(self, lu4):
        kernel = WavefrontKernel(lu4)
        kernel.weight_view(4)
        assert kernel.buffer_nbytes > 0
        kernel.release()
        assert kernel.buffer_nbytes == 0
        assert kernel.capacity == 0

    def test_partial_width_propagation(self, cholesky4):
        # Propagating fewer trials than the buffer capacity must be correct
        # (the engine's final partial batch exercises this path).
        idx = cholesky4.index()
        kernel = WavefrontKernel(idx)
        kernel.weight_view(32)
        w = random_weight_matrix(idx, 5, seed=9)
        out = kernel.run(w)
        assert kernel.capacity == 32
        assert np.array_equal(out, reference_batched_makespans(idx, w))


class TestVectorisedIndexBuild:
    @pytest.mark.parametrize("graph", SYNTHETIC_DAGS, ids=lambda g: g.name)
    def test_csr_matches_adjacency_dicts(self, graph):
        idx = graph.index()
        for i, tid in enumerate(idx.task_ids):
            assert {idx.task_ids[j] for j in idx.predecessors(i)} == set(
                graph.predecessors(tid)
            )
            assert {idx.task_ids[j] for j in idx.successors(i)} == set(
                graph.successors(tid)
            )

    def test_counts_match(self, cholesky4):
        idx = cholesky4.index()
        assert idx.num_edges == cholesky4.num_edges
        assert int(idx.pred_indptr[-1]) == idx.num_edges
        assert int(idx.succ_indptr[-1]) == idx.num_edges

    def test_segments_are_canonical_regardless_of_edge_insertion_order(self):
        # Neighbour order must not depend on the order edges were added:
        # the content-addressed schedule keys and the kernels' reduction
        # order both read these arrays.
        g = TaskGraph()
        for t in ("a", "b", "c", "d"):
            g.add_task(t, 1.0)
        g.add_edge("a", "d")
        g.add_edge("a", "b")
        g.add_edge("a", "c")
        idx = g.index()
        assert [idx.task_ids[j] for j in idx.successors(0)] == ["b", "c", "d"]
        assert g.successors("a") == ["b", "c", "d"]

        h = TaskGraph()
        for t in ("a", "b", "c", "d"):
            h.add_task(t, 1.0)
        for dst in ("c", "b", "d"):
            h.add_edge("a", dst)
        assert np.array_equal(h.index().succ_indices, idx.succ_indices)
        assert np.array_equal(h.index().pred_indices, idx.pred_indices)


class TestScheduleMetadata:
    """PR 4: edge level-span metadata compiled onto the LevelSchedule."""

    def test_task_and_row_levels_consistent(self, cholesky4):
        from repro.core.kernels import schedule_for

        index = cholesky4.index()
        schedule = schedule_for(index, "up")
        level_indptr, level_order = index.level_structure()
        for level in range(schedule.num_levels):
            tasks = level_order[level_indptr[level] : level_indptr[level + 1]]
            assert set(schedule.task_level[tasks].tolist()) == {level}
        np.testing.assert_array_equal(
            schedule.row_level, schedule.task_level[schedule.perm]
        )

    def test_max_edge_level_span_matches_bruteforce(self):
        from repro.core.kernels import schedule_for

        for workflow in ("cholesky", "lu", "qr", "stencil"):
            graph = build_dag(workflow, 5)
            index = graph.index()
            schedule = schedule_for(index, "up")
            level = schedule.task_level
            spans = [
                int(level[i] - level[p])
                for i in range(index.num_tasks)
                for p in index.predecessors(i)
            ]
            assert schedule.max_edge_level_span == max(spans)

    def test_skip_edge_widens_the_span(self):
        from repro.core.kernels import schedule_for

        g = TaskGraph(name="skip")
        for t in ("a", "b", "c", "d"):
            g.add_task(t, 1.0)
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("c", "d")
        g.add_edge("a", "d")  # spans three levels
        schedule = schedule_for(g.index(), "up")
        assert schedule.max_edge_level_span == 3

    def test_edge_free_graph_has_zero_span(self):
        from repro.core.kernels import schedule_for

        g = TaskGraph(name="independent")
        for t in ("a", "b", "c"):
            g.add_task(t, 1.0)
        schedule = schedule_for(g.index(), "up")
        assert schedule.max_edge_level_span == 0
        assert schedule.num_levels == 1

    def test_down_schedule_has_its_own_metadata(self, cholesky4):
        from repro.core.kernels import schedule_for

        index = cholesky4.index()
        down = schedule_for(index, "down")
        assert down.max_edge_level_span >= 1
        assert down.task_level.shape == (index.num_tasks,)
        np.testing.assert_array_equal(
            down.row_level, down.task_level[down.perm]
        )


class TestGroupPartitionMetadata:
    """PR 5: degree-group partition metadata for the execution service."""

    @pytest.mark.parametrize("workflow", ["cholesky", "lu", "qr", "stencil"])
    def test_group_indptr_partitions_the_groups(self, workflow):
        from repro.core.kernels import schedule_for

        schedule = schedule_for(build_dag(workflow, 5).index(), "up")
        indptr = schedule.group_indptr
        assert indptr.shape == (schedule.num_levels + 1,)
        assert indptr[0] == 0 and indptr[-1] == len(schedule.groups)
        assert np.all(np.diff(indptr) >= 0)
        # Level 0 has no incoming edges, hence no groups.
        assert indptr[1] == 0
        for level in range(schedule.num_levels):
            groups = schedule.level_groups(level)
            lo, hi = int(schedule.level_indptr[level]), int(
                schedule.level_indptr[level + 1]
            )
            assert all(lo <= g.start and g.stop <= hi for g in groups)
            if level > 0:
                # The level's groups tile its row range exactly.
                covered = sorted((g.start, g.stop) for g in groups)
                assert covered[0][0] == lo and covered[-1][1] == hi
                assert all(
                    a_stop == b_start
                    for (_, a_stop), (b_start, _) in zip(covered, covered[1:])
                )

    def test_level_groups_range_checked(self, cholesky4):
        from repro.core.kernels import schedule_for
        from repro.exceptions import GraphError

        schedule = schedule_for(cholesky4.index(), "up")
        with pytest.raises(GraphError):
            schedule.level_groups(schedule.num_levels)
        with pytest.raises(GraphError):
            schedule.level_groups(-1)

    def test_level_partitions_tile_each_group(self, cholesky4):
        from repro.core.kernels import schedule_for
        from repro.exceptions import GraphError

        schedule = schedule_for(cholesky4.index(), "up")
        for level in range(1, schedule.num_levels):
            for target in (1, 2, 1_000_000):
                parts = schedule.level_partitions(level, target)
                by_group = {}
                for group, lo, hi in parts:
                    assert 0 <= lo < hi <= group.stop - group.start
                    assert hi - lo <= target
                    by_group.setdefault(id(group), []).append((lo, hi))
                for group in schedule.level_groups(level):
                    spans = sorted(by_group[id(group)])
                    assert spans[0][0] == 0
                    assert spans[-1][1] == group.stop - group.start
                    assert all(
                        a == b for (_, a), (b, _) in zip(spans, spans[1:])
                    )
        with pytest.raises(GraphError):
            schedule.level_partitions(1, 0)


# ----------------------------------------------------------------------
# The level-column fold on degree-skewed levels
# ----------------------------------------------------------------------
def per_task_lengths(idx, weight_matrix, direction, dtype):
    """The per-task loop of the kernel benchmark, for either direction and
    dtype: ``(trials, tasks)`` path lengths, computed in ``dtype``."""
    w = np.asarray(weight_matrix, dtype=dtype)
    if direction == "up":
        indptr, indices, order = idx.pred_indptr, idx.pred_indices, idx.topo_order
    else:
        indptr, indices = idx.succ_indptr, idx.succ_indices
        order = idx.topo_order[::-1]
    lengths = np.zeros_like(w)
    for i in order:
        nbrs = indices[indptr[i] : indptr[i + 1]]
        if nbrs.size:
            lengths[:, i] = w[:, i] + lengths[:, nbrs].max(axis=1)
        else:
            lengths[:, i] = w[:, i]
    return lengths


def skewed_dag():
    """Levels that mix one hub of degree 22 with degree-1 and degree-2 rows.

    ``hub`` has 22 successors (in-degree 22 of the ``"down"`` sweep) and
    shares its level with single-successor tasks; its mirror ``join`` has
    22 predecessors and shares its level with single-predecessor tasks.
    The hub's neighbours get heavier in CSR order, so its last column
    often holds the maximum.
    """
    g = TaskGraph(name="skewed")
    rng = np.random.default_rng(11)

    def task(name, weight=None):
        g.add_task(name, float(rng.uniform(0.5, 3.0)) if weight is None else weight)
        return name

    sinks = [task(f"s{i:02d}", 1.0 + 0.1 * i) for i in range(22)]
    hub = task("hub")
    for s in sinks:
        g.add_edge(hub, s)
    for k in range(6):
        g.add_edge(task(f"x{k}"), sinks[k])
    g.add_edge(task("pair_down"), sinks[0])
    g.add_edge("pair_down", sinks[1])
    g.add_edge(task("top"), hub)
    g.add_edge("top", "x0")

    sources = [task(f"u{i:02d}", 1.0 + 0.1 * i) for i in range(22)]
    join = task("join")
    for u in sources:
        g.add_edge(u, join)
    for k in range(6):
        g.add_edge(sources[k], task(f"z{k}"))
    g.add_edge(sources[0], task("pair_up"))
    g.add_edge(sources[1], "pair_up")
    g.add_edge(join, task("bottom"))
    g.add_edge("z0", "bottom")
    return g


def _edge_free():
    g = TaskGraph(name="edge-free")
    for i, w in enumerate([2.0, 1.0, 4.0, 3.0]):
        g.add_task(i, w)
    return g


SKEWED_DAGS = [skewed_dag(), build_dag("mapreduce", 6), _edge_free()]


class TestLevelColumnFold:
    def test_skewed_dag_mixes_degrees_in_one_level(self):
        from repro.core.kernels import schedule_for

        idx = skewed_dag().index()
        for direction in ("up", "down"):
            schedule = schedule_for(idx, direction)
            widths = [g.preds.shape[1] for g in schedule.level_groups(1)]
            assert widths[0] == 1 and widths[-1] >= 20

    @pytest.mark.parametrize("graph", SKEWED_DAGS, ids=lambda g: g.name)
    @pytest.mark.parametrize("direction", ["up", "down"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_bitexact_against_per_task_loop(self, graph, direction, dtype):
        idx = graph.index()
        kernel = WavefrontKernel(idx, direction=direction, dtype=dtype)
        # Growing batches, then a strided call below the capacity.
        for trials in (1, 3, 128, 5):
            w = random_weight_matrix(idx, trials, seed=trials)
            kernel.load(w)
            kernel.propagate(trials)
            expected = per_task_lengths(idx, w, direction, dtype)
            assert np.array_equal(kernel.completion_matrix(trials), expected.T)
        assert kernel.capacity == 128

    @pytest.mark.parametrize("graph", SKEWED_DAGS, ids=lambda g: g.name)
    def test_single_scenario_matches_pair_reference(self, graph):
        from oracles.estimators import sequential_pair_up_down

        idx = graph.index()
        up, down = sequential_pair_up_down(idx, idx.weights)
        assert np.array_equal(WavefrontKernel(idx).lengths(idx.weights), up)
        assert np.array_equal(
            WavefrontKernel(idx, direction="down").lengths(idx.weights), down
        )


class TestLevelColumnPlan:
    @pytest.mark.parametrize("direction,gathers", [("up", 135), ("down", 1_059)])
    def test_one_gather_per_level_column(self, direction, gathers):
        from repro.core.kernels import (
            schedule_compilations,
            schedule_for,
            schedule_level_columns,
        )

        idx = build_dag("cholesky", 24).index()
        schedule = schedule_for(idx, direction)
        compiled = schedule_compilations()
        columns = schedule_level_columns(schedule)
        assert schedule_compilations() == compiled
        assert schedule_level_columns(schedule) is columns
        max_degree = sum(
            max((g.preds.shape[1] for g in schedule.level_groups(level)), default=0)
            for level in range(schedule.num_levels)
        )
        assert max_degree == gathers

        class CountingBuffer(np.ndarray):
            gathers = 0

            def __getitem__(self, key):
                if isinstance(key, np.ndarray):
                    CountingBuffer.gathers += 1
                return super().__getitem__(key)

        kernel = WavefrontKernel.from_schedule(schedule, direction=direction)
        kernel.weight_view(4)[...] = 1.0
        # The buffer plus one scratch row for the compiled backends.
        assert kernel.buffer_nbytes == (idx.num_tasks + 1) * 4 * 8
        kernel._buffer = kernel._buffer.view(CountingBuffer)
        kernel.propagate(4)
        assert CountingBuffer.gathers == gathers

    @pytest.mark.parametrize("workflow", ["cholesky", "lu", "qr", "mapreduce"])
    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_columns_regroup_the_degree_groups(self, workflow, direction):
        from repro.core.kernels import schedule_for, schedule_level_columns

        schedule = schedule_for(build_dag(workflow, 5).index(), direction)
        columns = schedule_level_columns(schedule)
        for level in range(schedule.num_levels):
            hi = int(schedule.level_indptr[level + 1])
            first = int(columns.col_indptr[level])
            for group in schedule.level_groups(level):
                for j in range(group.preds.shape[1]):
                    c = first + j
                    start = int(columns.col_start[c])
                    assert start <= group.start and hi - start == (
                        columns.col_ptr[c + 1] - columns.col_ptr[c]
                    )
                    lo = int(columns.col_ptr[c]) + group.start - start
                    np.testing.assert_array_equal(
                        columns.col_preds[lo : lo + group.stop - group.start],
                        group.preds[:, j],
                    )

    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_worker_rebuilt_schedule_derives_the_same_plan(self, direction):
        from repro.core.kernels import (
            schedule_arrays,
            schedule_compilations,
            schedule_for,
            schedule_from_arrays,
            schedule_level_columns,
        )

        schedule = schedule_for(build_dag("qr", 6).index(), direction)
        compiled = schedule_compilations()
        rebuilt = schedule_from_arrays(schedule_arrays(schedule))
        ours, theirs = schedule_level_columns(schedule), schedule_level_columns(rebuilt)
        assert schedule_compilations() == compiled
        for name in ("col_indptr", "col_start", "col_ptr", "col_preds"):
            np.testing.assert_array_equal(getattr(theirs, name), getattr(ours, name))

    def test_edge_free_graph_has_no_columns(self):
        from repro.core.kernels import schedule_for, schedule_level_columns

        columns = schedule_level_columns(schedule_for(_edge_free().index(), "up"))
        assert columns.steps == ()
        assert columns.col_indptr.tolist() == [0, 0]


class TestReservedGatherRows:
    """``reserve`` gathers into kept rows; the results do not change."""

    @pytest.mark.parametrize("workflow,size", [("cholesky", 8), ("lu", 6), ("qr", 6)])
    @pytest.mark.parametrize("direction", ["up", "down"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_bit_identical_on_full_and_partial_batches(
        self, workflow, size, direction, dtype
    ):
        idx = build_dag(workflow, size).index()
        plain = WavefrontKernel(idx, direction=direction, dtype=dtype)
        reserved = WavefrontKernel(idx, direction=direction, dtype=dtype)
        reserved.reserve(64)
        for trials in (64, 17, 1, 64):
            w = random_weight_matrix(idx, trials, seed=trials)
            expected = plain.run(w)
            assert np.array_equal(reserved.run(w), expected)
            assert np.array_equal(
                reserved.completion_matrix(trials), plain.completion_matrix(trials)
            )
        assert reserved.capacity == 64

    def test_rows_sized_to_the_widest_level_and_kept(self):
        from repro.core.kernels import schedule_for, schedule_level_columns

        idx = build_dag("cholesky", 8).index()
        steps = schedule_level_columns(schedule_for(idx, "up")).steps
        widest = max(hi - lo for lo, hi, _, _ in steps)
        kernel = WavefrontKernel(idx)
        kernel.reserve(16)
        rows = kernel._gather
        assert all(block.shape == (widest, 16) for block in rows)
        assert kernel.buffer_nbytes == (idx.num_tasks + 1 + 2 * widest) * 16 * 8
        kernel.run(random_weight_matrix(idx, 16, seed=1))
        kernel.reserve(8)  # no shrink, no new rows
        assert kernel._gather is rows
        kernel.weight_view(32)  # growing regrows them to the new capacity
        assert all(block.shape == (widest, 32) for block in kernel._gather)
        w = random_weight_matrix(idx, 32, seed=2)
        assert np.array_equal(kernel.run(w), reference_batched_makespans(idx, w))
        kernel.release()
        assert kernel.buffer_nbytes == 0

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_no_rows_under_a_compiled_fold(self, stub_numba, dtype):
        from repro.failures.models import ExponentialErrorModel
        from repro.sim.engine import MonteCarloEngine

        graph = build_dag("cholesky", 6)
        idx = graph.index()
        only_buffer = (idx.num_tasks + 1) * 16 * np.dtype(dtype).itemsize
        plain = WavefrontKernel(idx, dtype=dtype, kernel_backend="numpy")
        kernel = WavefrontKernel(idx, dtype=dtype, kernel_backend="numba")
        kernel.reserve(16)
        assert kernel._propagate_fn is not None and kernel._gather is None
        assert kernel.buffer_nbytes == only_buffer
        w = random_weight_matrix(idx, 16, seed=1)
        expected = plain.run(w)
        assert np.array_equal(kernel.run(w), expected)

        def unsupported(*args):
            raise RuntimeError("unsupported")

        # A runtime fallback folds with fancy indexing: the same bits, and
        # still no gather rows.
        kernel._propagate_fn = unsupported
        assert np.array_equal(kernel.run(w), expected)
        assert kernel._propagate_fn is None and kernel._gather is None
        assert kernel.buffer_nbytes == only_buffer
        # The Monte Carlo slots reserve through the same path.
        engine = MonteCarloEngine(
            graph, ExponentialErrorModel.for_graph(graph, 1e-2), trials=16,
            dtype=dtype, kernel_backend="numba",
        )
        assert engine._kernel.buffer_nbytes == only_buffer

    def test_no_allocation_per_batch(self):
        import tracemalloc

        idx = build_dag("cholesky", 8).index()
        kernel = WavefrontKernel(idx)
        kernel.reserve(256)
        kernel.weight_view(256)[...] = 1.0
        kernel.propagate(256)
        tracemalloc.start()
        try:
            kernel.propagate(256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Well under one 256-trial row: no per-level temporaries.
        assert peak < 256 * 8

    def test_edge_free_graph(self):
        idx = _edge_free().index()
        kernel = WavefrontKernel(idx)
        kernel.reserve(4)
        w = random_weight_matrix(idx, 4, seed=3)
        assert np.array_equal(kernel.run(w), w.max(axis=1))


def test_huge_standardised_gaps_warn_nothing():
    # x * x overflows past |x| ~ 1e154; the density is 0 and no
    # RuntimeWarning may leak to the caller.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        density = norm_pdf_batched(np.array([1e200, -1e200, np.inf]))
        # a = 1e-155, so the Clark gap (1 - 0) / a squares past the range.
        mean, var = clark_max_moments_batched(
            np.array([1.0]), np.array([1e-310]), np.array([0.0]), np.array([0.0])
        )
    assert np.array_equal(density, np.zeros(3))
    assert mean[0] == 1.0 and var[0] == pytest.approx(1e-310, rel=1e-6)
