"""Unit tests for repro.sim (sampling, Monte Carlo engine, statistics)."""

import tracemalloc

import numpy as np
import pytest

import repro.sim.engine as engine_module
from repro.core.generators import chain_graph, independent_tasks
from repro.core.paths import critical_path_length
from repro.exceptions import EstimationError
from repro.exec import partition_stream
from repro.failures.models import ExponentialErrorModel, FixedProbabilityModel
from repro.rv.empirical import RunningMoments
from repro.sim.engine import MonteCarloEngine, simulate_expected_makespan
from repro.sim.sampler import sample_failure_mask, sample_task_times
from repro.sim.stats import ConvergenceTracker, relative_half_width, required_trials
from repro.workflows.registry import build_dag
from oracles.two_state_sampling import failure_mask


class TestSampler:
    def test_two_state_values(self, diamond, rng):
        model = FixedProbabilityModel(0.5)
        times = sample_task_times(diamond, model, 1000, rng)
        idx = diamond.index()
        for j, tid in enumerate(idx.task_ids):
            w = diamond.weight(tid)
            unique = np.unique(times[:, j])
            assert set(unique.tolist()) <= {w, 2 * w}

    def test_two_state_failure_frequency(self, rng):
        g = chain_graph(1, weight=[1.0])
        model = FixedProbabilityModel(0.25)
        times = sample_task_times(g, model, 100_000, rng)
        frequency = np.mean(times[:, 0] > 1.5)
        assert frequency == pytest.approx(0.25, abs=0.01)

    def test_exponential_model_failure_frequency(self, rng):
        g = chain_graph(1, weight=[2.0])
        model = ExponentialErrorModel(0.3)
        times = sample_task_times(g, model, 100_000, rng)
        frequency = np.mean(times[:, 0] > 3.0)
        assert frequency == pytest.approx(model.failure_probability(2.0), abs=0.01)

    def test_geometric_mode_mean(self, rng):
        g = chain_graph(1, weight=[1.0])
        model = FixedProbabilityModel(0.5)
        times = sample_task_times(g, model, 200_000, rng, mode="geometric")
        # expected executions = 1/(1-q) = 2
        assert times[:, 0].mean() == pytest.approx(2.0, rel=0.02)

    def test_reexecution_factor(self, rng):
        g = chain_graph(1, weight=[1.0])
        model = FixedProbabilityModel(0.9999)  # essentially always fails
        times = sample_task_times(g, model, 100, rng, reexecution_factor=3.0)
        assert times.max() == pytest.approx(3.0)

    def test_failure_mask_shape(self, cholesky4, rng):
        model = ExponentialErrorModel.for_graph(cholesky4, 0.01)
        mask = sample_failure_mask(cholesky4.index().weights, model, 50, rng)
        assert mask.shape == (50, cholesky4.num_tasks)
        assert mask.dtype == bool

    def test_invalid_arguments(self, diamond, rng):
        model = ExponentialErrorModel(0.1)
        with pytest.raises(EstimationError):
            sample_task_times(diamond, model, 0, rng)
        with pytest.raises(EstimationError):
            sample_task_times(diamond, model, 10, rng, mode="bogus")
        with pytest.raises(EstimationError):
            sample_task_times(diamond, model, 10, rng, reexecution_factor=0.5)


class TestEngine:
    def test_engine_matches_estimator_shortcut(self, cholesky4):
        model = ExponentialErrorModel.for_graph(cholesky4, 0.01)
        engine_mean = MonteCarloEngine(cholesky4, model, trials=8_000, seed=5).run().mean
        shortcut = simulate_expected_makespan(cholesky4, model, trials=8_000, seed=5)
        assert engine_mean == pytest.approx(shortcut)

    def test_batching_does_not_change_the_estimate(self, cholesky4):
        model = ExponentialErrorModel.for_graph(cholesky4, 0.01)
        small_batches = MonteCarloEngine(
            cholesky4, model, trials=10_000, seed=9, batch_size=512
        ).run()
        one_batch = MonteCarloEngine(
            cholesky4, model, trials=10_000, seed=9, batch_size=10_000
        ).run()
        # Different batch layout consumes the RNG differently, so means are
        # statistically equal but not identical.
        assert small_batches.mean == pytest.approx(one_batch.mean, rel=5e-3)
        assert small_batches.trials == one_batch.trials == 10_000

    def test_result_fields(self, diamond):
        model = FixedProbabilityModel(0.2)
        result = MonteCarloEngine(diamond, model, trials=2_000, seed=1, keep_samples=True).run()
        assert result.trials == 2_000
        assert result.minimum <= result.mean <= result.maximum
        assert result.samples is not None and result.samples.count == 2_000
        assert result.history  # at least one batch recorded
        assert "MC[" in result.summary()

    def test_mean_bounded_by_extremes(self, lu4):
        model = ExponentialErrorModel.for_graph(lu4, 0.05)
        result = MonteCarloEngine(lu4, model, trials=3_000, seed=2).run()
        d = critical_path_length(lu4)
        assert d - 1e-9 <= result.minimum
        assert result.maximum <= 2 * d + 1e-9

    def test_invalid_parameters(self, diamond):
        model = FixedProbabilityModel(0.1)
        with pytest.raises(EstimationError):
            MonteCarloEngine(diamond, model, trials=-1)
        with pytest.raises(EstimationError):
            MonteCarloEngine(diamond, model, batch_size=0)

    @pytest.mark.parametrize(
        "seed", [np.random.default_rng(3), -1], ids=["generator", "negative"]
    )
    def test_invalid_seed_rejected(self, diamond, seed):
        from repro import estimate_expected_makespan

        model = FixedProbabilityModel(0.1)
        with pytest.raises(EstimationError, match="seed"):
            MonteCarloEngine(diamond, model, trials=10, seed=seed)
        with pytest.raises(EstimationError, match="seed"):
            estimate_expected_makespan(
                diamond, model, method="monte-carlo", trials=10, seed=seed
            )

    def test_integer_seeds_accepted(self, diamond):
        model = FixedProbabilityModel(0.1)
        runs = [
            MonteCarloEngine(diamond, model, trials=100, seed=seed).run().mean
            for seed in (0, 7, np.int64(7))
        ]
        assert runs[1] == runs[2]


class CountingModel(FixedProbabilityModel):
    """Fixed-probability model that counts vectorised probability queries."""

    calls = 0

    def failure_probabilities(self, weights):
        type(self).calls += 1
        return super().failure_probabilities(weights)


class TestZeroCopyPipeline:
    """The engine's zero-copy refactor must not change any sampled result."""

    @staticmethod
    def _reference_makespans(graph, model, trials, seed, batch_size, factor=2.0):
        """The pre-refactor pipeline: trial-major sampling + per-task sweep.

        Batch ``k`` draws from ``partition_stream(seed entropy, k)``.
        """
        idx = graph.index()
        entropy = np.random.SeedSequence(seed).entropy
        q = model.failure_probabilities(idx.weights)
        out = []
        remaining = trials
        while remaining > 0:
            b = min(batch_size, remaining)
            rng = partition_stream(entropy, len(out))
            failures = failure_mask(rng, q, b)
            times = idx.weights[None, :] + failures * ((factor - 1.0) * idx.weights[None, :])
            completion = np.zeros((b, idx.num_tasks))
            indptr, indices = idx.pred_indptr, idx.pred_indices
            for i in idx.topo_order:
                preds = indices[indptr[i] : indptr[i + 1]]
                if preds.size:
                    completion[:, i] = times[:, i] + completion[:, preds].max(axis=1)
                else:
                    completion[:, i] = times[:, i]
            out.append(completion.max(axis=1))
            remaining -= b
        return np.concatenate(out)

    def test_results_unchanged_after_refactor(self, cholesky4):
        model = ExponentialErrorModel.for_graph(cholesky4, 0.02)
        ref = self._reference_makespans(cholesky4, model, 5_000, seed=77, batch_size=1_024)
        result = MonteCarloEngine(
            cholesky4, model, trials=5_000, seed=77, batch_size=1_024, keep_samples=True
        ).run()
        assert np.array_equal(np.sort(result.samples.samples()), np.sort(ref))
        assert result.minimum == ref.min()
        assert result.maximum == ref.max()

    def test_seed_reproducible(self, lu4):
        model = ExponentialErrorModel.for_graph(lu4, 0.01)
        a = MonteCarloEngine(lu4, model, trials=4_000, seed=3).run()
        b = MonteCarloEngine(lu4, model, trials=4_000, seed=3).run()
        assert a.mean == b.mean
        assert a.std == b.std
        assert a.minimum == b.minimum and a.maximum == b.maximum

    def test_failure_probabilities_computed_once(self, cholesky4):
        CountingModel.calls = 0
        model = CountingModel(0.1)
        engine = MonteCarloEngine(cholesky4, model, trials=10_000, seed=0, batch_size=1_000)
        assert CountingModel.calls == 1  # computed eagerly, in the constructor
        engine.run()
        assert CountingModel.calls == 1  # ... and never again per batch

    @pytest.mark.parametrize("batch_size", [1_024, 32_768])
    def test_buffers_allocated_once(self, monkeypatch, batch_size):
        # 8 kB chunks: 512 candidate cells, many per batch at q = 0.2.
        monkeypatch.setattr(engine_module, "CHUNK_BYTES", 8_192)
        graph = build_dag("cholesky", 5)
        n = graph.num_tasks
        model = FixedProbabilityModel(0.2)
        engine = MonteCarloEngine(
            graph, model, trials=2 * batch_size + 100, seed=1, batch_size=batch_size,
        )
        slot = engine._slot
        kernel_buffer = engine._kernel._buffer
        assert kernel_buffer is not None  # allocated by the constructor
        # The slot keeps no sampling array: candidates are drawn per chunk.
        assert not [v for v in vars(slot).values() if isinstance(v, np.ndarray)]
        engine.run()  # 3 batches later ...
        assert engine._kernel._buffer is kernel_buffer
        # Nothing of the kernel buffer's size besides it: no array holds a
        # (batch, tasks) block.
        for owner in (engine, slot, slot.kernel):
            for value in vars(owner).values():
                if isinstance(value, np.ndarray) and value is not kernel_buffer:
                    assert value.size < batch_size * n
        # Sampling a batch allocates a few chunks' worth whatever the batch
        # (the fold's per-level gathers are the kernel's own and are left
        # out; the returned makespans are one float64 per trial).
        monkeypatch.setattr(slot.kernel, "propagate", lambda trials: None)
        rng = partition_stream(engine.seed_entropy, 0)
        tracemalloc.start()
        try:
            slot.evaluate(batch_size, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * engine_module.CHUNK_BYTES + 8 * batch_size

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("shape", ["edge-free", "mapreduce", "zero-weight-sinks"])
    def test_sink_rows_reduce_like_all_rows(self, shape, dtype):
        if shape == "edge-free":
            graph = independent_tasks(12, rng=3)  # every task is a sink
        elif shape == "mapreduce":
            graph = build_dag("mapreduce", 6)
        else:
            graph = build_dag("cholesky", 4)
            sink = graph.index().task_ids[graph.index().sink_indices()[0]]
            graph.set_weight(sink, 0.0)
            for i, parent in enumerate(graph.index().task_ids[:2]):
                graph.add_task(f"zero{i}", 0.0)
                graph.add_edge(parent, f"zero{i}")
        model = ExponentialErrorModel.for_graph(graph, 0.1)
        engine = MonteCarloEngine(graph, model, trials=300, seed=4, dtype=dtype)
        slot = engine._slot
        makespans = slot.evaluate(300, partition_stream(engine.seed_entropy, 0))
        # The same batch swept in full, each trial reduced over all rows.
        plan, kernel = slot.plan, slot.kernel
        q = model.failure_probabilities(graph.index().weights)
        mask = failure_mask(partition_stream(engine.seed_entropy, 0), q, 300)
        kernel.weight_view(300)[...] = np.where(
            mask.T[kernel.perm], plan.fail[:, None], plan.ok[:, None]
        )
        kernel.propagate(300)
        assert makespans.tobytes() == kernel.makespans(300).tobytes()

    def test_float32_close_to_float64(self, lu4):
        model = ExponentialErrorModel.for_graph(lu4, 0.01)
        exact = MonteCarloEngine(lu4, model, trials=5_000, seed=11).run()
        approx = MonteCarloEngine(lu4, model, trials=5_000, seed=11, dtype="float32").run()
        assert approx.dtype == "float32"
        assert exact.dtype == "float64"
        assert approx.mean == pytest.approx(exact.mean, rel=1e-5)

    def test_geometric_mode_unchanged(self, cholesky4):
        model = ExponentialErrorModel.for_graph(cholesky4, 0.05)
        idx = cholesky4.index()
        entropy = np.random.SeedSequence(21).entropy
        ref = []
        remaining = 3_000
        while remaining > 0:
            b = min(1_024, remaining)
            rng = partition_stream(entropy, len(ref))
            times = sample_task_times(idx, model, b, rng, mode="geometric")
            completion = np.zeros((b, idx.num_tasks))
            indptr, indices = idx.pred_indptr, idx.pred_indices
            for i in idx.topo_order:
                preds = indices[indptr[i] : indptr[i + 1]]
                base = completion[:, preds].max(axis=1) if preds.size else 0.0
                completion[:, i] = times[:, i] + base
            ref.append(completion.max(axis=1))
            remaining -= b
        ref = np.concatenate(ref)
        result = MonteCarloEngine(
            cholesky4, model, trials=3_000, seed=21, batch_size=1_024,
            mode="geometric", keep_samples=True,
        ).run()
        assert np.array_equal(np.sort(result.samples.samples()), np.sort(ref))

    def test_geometric_broadcast_matches_materialised_probabilities(self, rng):
        # The sampler fix: broadcasting the success vector must consume the
        # RNG exactly like the old full (trials, tasks) probability matrix.
        success = np.array([0.7, 0.1, 0.5, 0.001, 0.999])
        a = np.random.default_rng(5).geometric(success[None, :].repeat(100, axis=0))
        b = np.random.default_rng(5).geometric(success, size=(100, 5))
        assert np.array_equal(a, b)

    def test_invalid_dtype_rejected(self, diamond):
        model = FixedProbabilityModel(0.1)
        with pytest.raises(EstimationError):
            MonteCarloEngine(diamond, model, trials=10, dtype="int8")


class TestStats:
    def test_required_trials_shrinks_with_looser_target(self):
        tight = required_trials(std=1.0, mean=10.0, target_relative_error=1e-3)
        loose = required_trials(std=1.0, mean=10.0, target_relative_error=1e-2)
        assert tight > loose
        assert loose >= 1

    def test_relative_half_width(self, rng):
        moments = RunningMoments()
        moments.update(rng.normal(100.0, 1.0, size=10_000))
        assert relative_half_width(moments) < 1e-3

    def test_tracker_convergence_flag(self, rng):
        tracker = ConvergenceTracker(target_relative_half_width=0.05)
        assert not tracker.converged
        tracker.update(rng.normal(10.0, 0.5, size=5_000))
        assert tracker.converged
        summary = tracker.summary()
        assert summary["trials"] == 5_000
        assert summary["batches"] == 1

    def test_invalid_inputs(self):
        with pytest.raises(EstimationError):
            required_trials(1.0, 10.0, target_relative_error=0.0)
        with pytest.raises(EstimationError):
            required_trials(1.0, 0.0, target_relative_error=0.1)
