"""Cross-backend determinism and streaming-statistics tests.

The executor-backend contract (see :mod:`repro.sim.executors`):

* every backend derives one RNG stream per *batch* and folds in
  batch-index order, so a fixed seed yields identical merged estimates on
  ``serial``, ``threads`` and ``processes`` at any worker count;
* streaming mode serves mean/std/CI from the same fold (exact agreement)
  and quantiles from the fixed-grid sketch (one-bin accuracy).
"""

import numpy as np
import pytest

import repro.sim.engine as engine_module
from repro.core.generators import erdos_renyi_dag
from repro.core.kernels import WavefrontKernel
from repro.exceptions import EstimationError, ReproError
from repro.exec import partition_stream, resolve_exec_backend
from repro.failures.models import ExponentialErrorModel, FixedProbabilityModel
from repro.sim.engine import MonteCarloEngine
from repro.sim.executors import BACKENDS, run_batches
from repro.sim.sampler import DEFAULT_MAX_EXECUTIONS, task_failure_probabilities
from repro.sim.stats import (
    QuantileSketch,
    ReservoirSample,
    StreamingSummary,
)
from oracles.p2_quantile import P2Quantile
from repro.rv.empirical import RunningMoments
from repro.workflows.registry import build_dag


@pytest.fixture(scope="module")
def case():
    graph = build_dag("cholesky", 5)
    model = ExponentialErrorModel.for_graph(graph, 1e-2)
    return graph, model


KW = dict(trials=6_000, batch_size=1_024, seed=123, keep_samples=True)


class TestBackendResolution:
    def test_default_resolution(self):
        assert resolve_exec_backend(None, 1) == "serial"
        assert resolve_exec_backend(None, 4) == "threads"

    def test_explicit_names(self):
        for name in BACKENDS:
            workers = 1 if name == "serial" else 2
            assert resolve_exec_backend(name, workers) == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(EstimationError):
            resolve_exec_backend("gpu", 1)

    def test_serial_with_many_workers_rejected(self, case):
        graph, model = case
        with pytest.raises(EstimationError):
            MonteCarloEngine(graph, model, backend="serial", workers=4)

    def test_batch_stream_matches_seedsequence_spawn(self):
        root = np.random.SeedSequence(99)
        children = root.spawn(5)
        for b in range(5):
            a = np.random.default_rng(children[b]).random(8)
            c = partition_stream(99, b).random(8)
            assert np.array_equal(a, c)


class TestCrossBackendDeterminism:
    def test_serial_bit_identical_to_default_engine(self, case):
        graph, model = case
        default = MonteCarloEngine(graph, model, **KW).run()
        serial = MonteCarloEngine(graph, model, backend="serial", **KW).run()
        assert serial.backend == "serial"
        assert np.array_equal(
            serial.samples.samples(), default.samples.samples()
        )
        assert serial.mean == default.mean
        assert serial.std == default.std

    def test_identical_across_backends_and_worker_counts(self, case):
        graph, model = case
        results = [
            MonteCarloEngine(
                graph, model, backend=backend, workers=workers, **KW
            ).run()
            for backend, workers in [
                ("serial", 1),
                ("threads", 1),
                ("threads", 2),
                ("threads", 4),
                ("processes", 2),
            ]
        ]
        reference = results[0]
        assert reference.trials == KW["trials"]
        for other in results[1:]:
            assert np.array_equal(
                other.samples.samples(), reference.samples.samples()
            ), f"{other.backend}/{other.workers} diverged"
            assert other.mean == reference.mean
            assert other.std == reference.std
            assert other.minimum == reference.minimum
            assert other.maximum == reference.maximum

    def test_processes_reproducible_across_runs(self, case):
        graph, model = case
        kw = dict(trials=3_000, batch_size=512, seed=5, keep_samples=True)
        a = MonteCarloEngine(graph, model, backend="processes", workers=2, **kw).run()
        b = MonteCarloEngine(graph, model, backend="processes", workers=2, **kw).run()
        assert np.array_equal(a.samples.samples(), b.samples.samples())

    def test_processes_geometric_mode_matches_threads(self, case):
        graph, model = case
        kw = dict(trials=2_000, batch_size=512, seed=11, mode="geometric",
                  keep_samples=True)
        t = MonteCarloEngine(graph, model, backend="threads", workers=2, **kw).run()
        p = MonteCarloEngine(graph, model, backend="processes", workers=2, **kw).run()
        assert np.array_equal(p.samples.samples(), t.samples.samples())

    def test_early_stopping_identical_across_worker_counts(self, case):
        graph, model = case
        kw = dict(trials=100_000, batch_size=1_024, seed=9,
                  target_relative_half_width=5e-3)
        a = MonteCarloEngine(graph, model, backend="threads", workers=2, **kw).run()
        b = MonteCarloEngine(graph, model, backend="threads", workers=4, **kw).run()
        assert a.trials == b.trials < 100_000
        assert a.mean == b.mean


def _folded_batches(engine):
    """Run ``engine`` and return its makespans in trial order.

    The kept sample is sorted, so the batches are recorded as
    :func:`run_batches` folds them.
    """
    folded = []

    def recording_run(engine, consume):
        def record(makespans):
            folded.append(np.array(makespans, dtype=np.float64))
            return consume(makespans)

        return run_batches(engine, record)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "run_batches", recording_run)
        result = engine.run()
    return result, np.concatenate(folded)


def _dense_reference(
    graph, model, *, trials, batch_size, seed, dtype="float64",
    mode="two-state", reexecution_factor=2.0,
):
    """The dense sampling pipeline the tiled sampler replaced (test oracle).

    Batch ``b`` is drawn from ``partition_stream(seed entropy, b)`` as one
    trial-major ``(batch, tasks)`` matrix; the kernel buffer is filled from
    its transposed failure mask as ``mask * (f - 1) w`` then ``+= w``
    (geometric: capped draws times ``w``), folded, and reduced by a
    maximum over *all* rows.  Returns the makespans in trial order.
    """
    idx = graph.index()
    n = idx.num_tasks
    q = task_failure_probabilities(model, idx.weights)
    kernel = WavefrontKernel(idx, dtype=dtype, kernel_backend="numpy")
    perm = kernel.perm
    w_rows = idx.weights[perm][:, None]
    extra_rows = ((reexecution_factor - 1.0) * idx.weights)[perm][:, None]
    entropy = np.random.SeedSequence(seed).entropy
    out = []
    for b, start in enumerate(range(0, trials, batch_size)):
        batch = min(batch_size, trials - start)
        rng = partition_stream(entropy, b)
        view = kernel.weight_view(batch)
        if mode == "two-state":
            mask = rng.random((batch, n)) < q
            np.multiply(mask.T[perm], extra_rows, out=view)
            view += w_rows
        else:
            draws = rng.geometric(1.0 - q, size=(batch, n))
            np.minimum(draws, DEFAULT_MAX_EXECUTIONS, out=draws)
            np.multiply(draws.T[perm], w_rows, out=view)
        kernel.propagate(batch)
        out.append(np.asarray(kernel.makespans(batch), dtype=np.float64))
    return np.concatenate(out)


BACKEND_CASES = [("serial", 1), ("threads", 2), ("processes", 2)]


class _CertainFailure(FixedProbabilityModel):
    """Every first attempt fails (``q = 1``, which the base model refuses)."""

    def __init__(self) -> None:
        super().__init__(0.0)

    def failure_probabilities(self, weights):
        return np.ones_like(weights, dtype=np.float64)


class TestDenseReferenceIdentity:
    """The tiled, sparse sampler stores the dense pipeline's bits."""

    #: A partial last batch: 1,024 + 1,024 + 452 trials.
    KW = dict(trials=2_500, batch_size=1_024, seed=2016)

    @pytest.fixture(autouse=True)
    def small_tiles(self, monkeypatch):
        # 100 kB of uniforms is 223 trials on cholesky k=6 (56 tasks):
        # every batch spans several tiles and ends on a ragged one.
        monkeypatch.setattr(engine_module, "TILE_BYTES", 100_000)

    def _assert_identical(self, graph, model, backend, workers, **kw):
        engine = MonteCarloEngine(
            graph, model, backend=backend, workers=workers,
            keep_samples=True, **self.KW, **kw,
        )
        result, folded = _folded_batches(engine)
        ref = _dense_reference(graph, model, **self.KW, **kw)
        assert np.array_equal(folded, ref)
        assert np.array_equal(result.samples.samples(), np.sort(ref))

    @pytest.mark.parametrize("backend,workers", BACKEND_CASES)
    @pytest.mark.parametrize("mode", ["two-state", "geometric"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_matches_dense_pipeline(self, backend, workers, mode, dtype):
        graph = build_dag("cholesky", 6)
        model = ExponentialErrorModel.for_graph(graph, 5e-2)
        self._assert_identical(graph, model, backend, workers, mode=mode, dtype=dtype)

    @pytest.mark.parametrize("backend,workers", BACKEND_CASES[:2])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize(
        "model", [FixedProbabilityModel(0.0), _CertainFailure()], ids=["q0", "q1"]
    )
    def test_no_failures_and_every_failure(self, model, dtype, backend, workers):
        # q = 0 scatters nothing; q = 1 scatters every (trial, task) entry.
        graph = build_dag("cholesky", 6)
        self._assert_identical(graph, model, backend, workers, dtype=dtype)

    @pytest.mark.parametrize("mode", ["two-state", "geometric"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_zero_weight_tasks(self, mode, dtype):
        graph = build_dag("cholesky", 6)
        for task_id in graph.index().task_ids[::3]:
            graph.set_weight(task_id, 0.0)
        model = FixedProbabilityModel(0.3)
        self._assert_identical(graph, model, "serial", 1, mode=mode, dtype=dtype)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_stored_bits_of_a_non_doubling_factor(self, dtype):
        # With f = 1.7 the float32 store of (f - 1) w before the float64
        # add differs from rounding f w once; many distinct weights make
        # the two roundings disagree somewhere.
        graph = erdos_renyi_dag(60, 0.1, rng=np.random.default_rng(8))
        model = FixedProbabilityModel(0.4)
        self._assert_identical(
            graph, model, "serial", 1, dtype=dtype, reexecution_factor=1.7
        )


class TestStreamingMode:
    def test_streaming_matches_materialised_moments(self, case):
        graph, model = case
        kept = MonteCarloEngine(graph, model, **KW).run()
        streamed = MonteCarloEngine(
            graph, model, trials=KW["trials"], batch_size=KW["batch_size"],
            seed=KW["seed"], streaming=True,
        ).run()
        assert streamed.streaming and streamed.samples is None
        assert abs(streamed.mean - kept.mean) <= 1e-9 * abs(kept.mean)
        assert abs(streamed.std - kept.std) <= 1e-9 * abs(kept.std)
        for a, b in zip(streamed.confidence_interval, kept.confidence_interval):
            assert abs(a - b) <= 1e-9 * abs(b)
        assert streamed.minimum == kept.minimum
        assert streamed.maximum == kept.maximum

    def test_streaming_quantiles_close_to_exact(self, case):
        graph, model = case
        kept = MonteCarloEngine(graph, model, **KW).run()
        streamed = MonteCarloEngine(
            graph, model, trials=KW["trials"], batch_size=KW["batch_size"],
            seed=KW["seed"], streaming=True,
        ).run()
        span = kept.maximum - kept.minimum
        for q in (0.1, 0.5, 0.9, 0.99):
            exact = kept.quantile(q)
            approx = streamed.quantile(q)
            # One (padded) sketch bin of the sample span.
            assert abs(approx - exact) <= 1.5 * span / streamed.sketch.bins * (
                1 + 2 * streamed.sketch.padding
            ) + 1e-12

    def test_streaming_works_on_parallel_backends(self, case):
        graph, model = case
        s = MonteCarloEngine(
            graph, model, trials=4_000, batch_size=512, seed=3,
            backend="threads", workers=2, streaming=True, reservoir=256,
        ).run()
        assert s.samples is None and s.sketch is not None
        assert s.reservoir is not None and s.reservoir.shape == (256,)
        assert s.minimum <= s.quantile(0.5) <= s.maximum
        assert s.minimum <= s.reservoir.min() <= s.reservoir.max() <= s.maximum

    def test_streaming_memory_is_batch_bounded(self, case):
        graph, model = case
        engine = MonteCarloEngine(
            graph, model, trials=64_000, batch_size=1_024, seed=1, streaming=True
        )
        result = engine.run()
        # The sketch is the only distribution state kept: a fixed grid,
        # independent of the trial count.
        assert result.sketch.nbytes < 100_000
        assert result.sketch.count == 64_000

    def test_streaming_and_keep_samples_conflict(self, case):
        graph, model = case
        with pytest.raises(EstimationError):
            MonteCarloEngine(graph, model, streaming=True, keep_samples=True)

    def test_quantile_requires_distribution_state(self, case):
        graph, model = case
        bare = MonteCarloEngine(
            graph, model, trials=1_000, batch_size=512, seed=2
        ).run()
        with pytest.raises(EstimationError):
            bare.quantile(0.5)


class TestStreamingPrimitives:
    def test_running_moments_merge_matches_concatenation(self, rng):
        a_data = rng.normal(10.0, 2.0, size=5_000)
        b_data = rng.normal(12.0, 0.5, size=3_000)
        a = RunningMoments()
        a.update(a_data)
        b = RunningMoments()
        b.update(b_data)
        a.merge(b)
        both = np.concatenate([a_data, b_data])
        assert a.count == both.size
        assert a.mean == pytest.approx(both.mean(), rel=1e-12)
        assert a.std == pytest.approx(both.std(ddof=1), rel=1e-12)
        assert a.minimum == both.min() and a.maximum == both.max()

    def test_merge_into_empty(self):
        a = RunningMoments()
        b = RunningMoments()
        b.update(np.array([1.0, 2.0, 3.0]))
        a.merge(b)
        assert a.count == 3 and a.mean == pytest.approx(2.0)
        a.merge(RunningMoments())  # merging an empty accumulator is a no-op
        assert a.count == 3

    def test_sketch_quantiles_vs_numpy(self, rng):
        data = rng.normal(50.0, 5.0, size=40_000)
        sketch = QuantileSketch(bins=2_048)
        for chunk in np.split(data, 10):
            sketch.update(chunk)
        for q in (0.05, 0.25, 0.5, 0.75, 0.95):
            assert sketch.quantile(q) == pytest.approx(
                float(np.quantile(data, q)), abs=0.1
            )

    def test_sketch_handles_out_of_grid_mass(self, rng):
        sketch = QuantileSketch(bins=128)
        sketch.update(rng.uniform(0.0, 1.0, size=1_000))
        # Later batches escape the frozen grid on both sides.
        sketch.update(np.full(500, -10.0))
        sketch.update(np.full(500, 20.0))
        assert sketch.count == 2_000
        assert sketch.quantile(0.0) == pytest.approx(-10.0)
        assert sketch.quantile(1.0) == pytest.approx(20.0)
        assert 0.0 <= sketch.quantile(0.5) <= 1.0

    def test_sketch_validation(self):
        with pytest.raises(EstimationError):
            QuantileSketch(bins=1)
        empty = QuantileSketch()
        with pytest.raises(EstimationError):
            empty.quantile(0.5)
        sketch = QuantileSketch()
        sketch.update(np.array([1.0, 2.0]))
        with pytest.raises(EstimationError):
            sketch.quantile(1.5)

    def test_p2_quantile_vs_numpy(self, rng):
        data = rng.normal(0.0, 1.0, size=20_000)
        for q in (0.25, 0.5, 0.95):
            p2 = P2Quantile(q)
            p2.update(data)
            assert p2.value() == pytest.approx(float(np.quantile(data, q)), abs=0.05)

    def test_p2_small_samples(self):
        p2 = P2Quantile(0.5)
        p2.update(np.array([3.0, 1.0, 2.0]))
        assert p2.value() == pytest.approx(2.0)
        with pytest.raises(EstimationError):
            P2Quantile(0.0)
        with pytest.raises(EstimationError):
            P2Quantile(1.0)

    def test_reservoir_is_uniform_subsample(self):
        rng = np.random.default_rng(0)
        reservoir = ReservoirSample(500, rng=rng)
        stream = np.arange(50_000, dtype=np.float64)
        for chunk in np.split(stream, 25):
            reservoir.update(chunk)
        sample = reservoir.samples()
        assert sample.shape == (500,)
        assert reservoir.count == 50_000
        # A uniform subsample's mean is close to the stream mean.
        assert sample.mean() == pytest.approx(stream.mean(), rel=0.1)

    def test_streaming_summary_bundle(self, rng):
        summary = StreamingSummary(bins=256, reservoir=100, rng=rng)
        data = rng.normal(5.0, 1.0, size=10_000)
        for chunk in np.split(data, 5):
            summary.update(chunk)
        assert summary.moments.count == 10_000
        assert summary.quantile(0.5) == pytest.approx(
            float(np.median(data)), abs=0.1
        )
        assert summary.reservoir.samples().shape == (100,)


class TestConfigResolution:
    def test_backend_env_override(self, monkeypatch):
        from repro.experiments.config import monte_carlo_backend

        monkeypatch.delenv("REPRO_MC_BACKEND", raising=False)
        assert monte_carlo_backend() is None
        assert monte_carlo_backend("threads") == "threads"
        monkeypatch.setenv("REPRO_MC_BACKEND", "processes")
        assert monte_carlo_backend() == "processes"
        assert monte_carlo_backend("serial") == "processes"  # environment wins

    def test_backend_env_validation(self, monkeypatch):
        from repro.exceptions import ExperimentError
        from repro.experiments.config import monte_carlo_backend

        monkeypatch.setenv("REPRO_MC_BACKEND", "gpu")
        with pytest.raises(ExperimentError):
            monte_carlo_backend()

    def test_streaming_env_override(self, monkeypatch):
        from repro.exceptions import ExperimentError
        from repro.experiments.config import monte_carlo_streaming

        monkeypatch.delenv("REPRO_MC_STREAMING", raising=False)
        assert monte_carlo_streaming() is False
        assert monte_carlo_streaming(True) is True
        monkeypatch.setenv("REPRO_MC_STREAMING", "yes")
        assert monte_carlo_streaming() is True
        monkeypatch.setenv("REPRO_MC_STREAMING", "off")
        assert monte_carlo_streaming(True) is False  # environment wins
        monkeypatch.setenv("REPRO_MC_STREAMING", "maybe")
        with pytest.raises(ExperimentError):
            monte_carlo_streaming()

    def test_config_properties(self):
        from repro.experiments.config import FigureConfig, ScalabilityConfig
        from repro.exceptions import ExperimentError

        fig = FigureConfig(
            figure="t", workflow="lu", pfail=1e-3,
            mc_backend="processes", mc_streaming=True,
        )
        assert fig.backend == "processes"
        assert fig.streaming is True
        tab = ScalabilityConfig(mc_backend="threads")
        assert tab.backend == "threads"
        with pytest.raises(ExperimentError):
            FigureConfig(figure="t", workflow="lu", pfail=1e-3, mc_backend="gpu")


class TestCorrelatedMemoryGuard:
    def test_guard_raises_before_allocation(self, cholesky4):
        from repro.estimators.correlated import CorrelatedNormalEstimator

        model = FixedProbabilityModel(0.1)
        estimator = CorrelatedNormalEstimator(max_matrix_bytes=64)
        with pytest.raises(ReproError) as excinfo:
            estimator.estimate(cholesky4, model)
        message = str(excinfo.value)
        assert str(cholesky4.num_tasks) in message
        assert "bytes" in message

    def test_default_cap_admits_small_graphs(self, cholesky4):
        from repro.estimators.correlated import CorrelatedNormalEstimator

        model = FixedProbabilityModel(0.1)
        result = CorrelatedNormalEstimator().estimate(cholesky4, model)
        assert result.expected_makespan > 0.0

    def test_invalid_cap_rejected(self):
        from repro.estimators.correlated import CorrelatedNormalEstimator

        with pytest.raises(EstimationError):
            CorrelatedNormalEstimator(max_matrix_bytes=0)


class TestBatchedDodinDifferential:
    """Batched reduction rounds must match the scalar reference <= 1e-9."""

    @pytest.mark.parametrize("workflow,size", [
        ("cholesky", 6), ("lu", 5), ("qr", 5),
    ])
    def test_batched_matches_sequential(self, workflow, size):
        from oracles.estimators import sequential_dodin_estimate
        from repro.estimators.dodin import DodinEstimator

        graph = build_dag(workflow, size)
        model = ExponentialErrorModel.for_graph(graph, 1e-2)
        batched = DodinEstimator().estimate(graph, model).expected_makespan
        sequential = sequential_dodin_estimate(graph, model)
        assert abs(batched - sequential) <= 1e-9 * abs(sequential)

    def test_batched_matches_sequential_coarse_pruning(self, lu4):
        from oracles.estimators import sequential_dodin_estimate
        from repro.estimators.dodin import DodinEstimator

        model = ExponentialErrorModel.for_graph(lu4, 5e-2)
        batched = DodinEstimator(max_support=8).estimate(lu4, model).expected_makespan
        sequential = sequential_dodin_estimate(lu4, model, max_support=8)
        assert abs(batched - sequential) <= 1e-9 * abs(sequential)

    def test_round_metadata_reported(self, cholesky4):
        from repro.estimators.dodin import DodinEstimator

        model = ExponentialErrorModel.for_graph(cholesky4, 1e-2)
        details = DodinEstimator().estimate(cholesky4, model).details
        assert details["reduction_rounds"] >= 1
        assert details["batched"] is True


@pytest.fixture(scope="module")
def cholesky24():
    graph = build_dag("cholesky", 24)  # 2,600 tasks: a 256-trial batch
    return graph, ExponentialErrorModel.for_graph(graph, 1e-3)


class TestDefaultBatchSize:
    """``batch_size=None`` sizes the batch from the task count."""

    @pytest.mark.parametrize(
        "tasks,batch", [(220, 4_096), (1_496, 512), (2_600, 256), (5_984, 128)]
    )
    def test_paper_dag_sizes(self, tasks, batch):
        assert engine_module.default_batch_size(300_000, tasks) == batch

    def test_power_of_two_cap_floor_and_trials(self):
        resolve = engine_module.default_batch_size
        assert resolve(10**6, 1) == engine_module.DEFAULT_BATCH
        assert resolve(10**6, 0) == engine_module.DEFAULT_BATCH
        # 2,048 tasks fill the 8 MiB budget at 512 trials exactly; one more
        # task rounds down to the next power of two.
        assert resolve(10**6, 2_048) == 512
        assert resolve(10**6, 2_049) == 256
        # The floor binds from 4,097 tasks on, however large the DAG.
        assert resolve(10**6, 4_097) == engine_module.MIN_DEFAULT_BATCH
        assert resolve(10**6, 10**7) == engine_module.MIN_DEFAULT_BATCH
        # Never more than the run's trials.
        assert resolve(100, 2_600) == 100
        assert resolve(1_000, 220) == 1_000

    @pytest.mark.parametrize("workflow,size", [("cholesky", 10), ("qr", 16)])
    def test_engine_resolves_independently_of_dtype_backend_workers(
        self, workflow, size
    ):
        graph = build_dag(workflow, size)
        model = ExponentialErrorModel.for_graph(graph, 1e-3)
        expected = engine_module.default_batch_size(10_000, graph.num_tasks)
        for dtype in ("float64", "float32"):
            for backend, workers in [
                ("serial", 1), ("threads", 1), ("threads", 2), ("processes", 2),
            ]:
                engine = MonteCarloEngine(
                    graph, model, trials=10_000, seed=1, dtype=dtype,
                    backend=backend, workers=workers,
                )
                assert engine.batch_size == expected, (dtype, backend, workers)

    def test_explicit_batch_size_is_kept(self, cholesky24):
        graph, model = cholesky24
        for batch in (1, 100, 8_192, 32_768):
            engine = MonteCarloEngine(graph, model, trials=500, batch_size=batch)
            assert engine.batch_size == batch

    def test_every_backend_bit_identical_at_the_default(self, cholesky24):
        graph, model = cholesky24
        kw = dict(trials=600, seed=7, keep_samples=True)
        results = [
            _folded_batches(
                MonteCarloEngine(graph, model, backend=backend, workers=workers, **kw)
            )
            for backend, workers in [
                ("serial", 1), ("threads", 1), ("threads", 2), ("processes", 2),
            ]
        ]
        (reference, reference_trials), *others = results
        assert reference.batch_size == 256  # 256 + 256 + 88: three streams
        for result, trials in others:
            assert np.array_equal(trials, reference_trials), result.backend
            assert result.mean == reference.mean
            assert result.std == reference.std

    def test_details_report_the_resolved_batch(self, cholesky24):
        from repro import estimate_expected_makespan

        graph, model = cholesky24
        estimate = estimate_expected_makespan(
            graph, model, method="monte-carlo", trials=300, seed=1
        )
        assert estimate.details["batch_size"] == 256
        small = build_dag("cholesky", 10)
        estimate = estimate_expected_makespan(
            small, 1e-3, method="monte-carlo", trials=4_000, seed=1
        )
        assert estimate.details["batch_size"] == 4_000  # one batch
        estimate = estimate_expected_makespan(
            small, 1e-3, method="monte-carlo", trials=300, seed=1, batch_size=64
        )
        assert estimate.details["batch_size"] == 64

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_kernel_buffers_fit_the_budget(self, cholesky24, dtype):
        from repro.core.kernels import schedule_for, schedule_level_columns

        graph, model = cholesky24
        engine = MonteCarloEngine(graph, model, trials=10_000, seed=1, dtype=dtype)
        n, batch = graph.num_tasks, engine.batch_size
        itemsize = np.dtype(dtype).itemsize
        assert engine.batch_size > engine_module.MIN_DEFAULT_BATCH
        assert n * batch * 8 <= engine_module.BATCH_BUFFER_BYTES
        steps = schedule_level_columns(schedule_for(graph.index(), "up")).steps
        widest = max(hi - lo for lo, hi, _, _ in steps)
        # The completion buffer, one scratch row and two gather blocks.
        assert engine._kernel.buffer_nbytes == (n + 1 + 2 * widest) * batch * itemsize
        assert (n + 1) * batch * itemsize <= (
            engine_module.BATCH_BUFFER_BYTES + batch * 8
        )


class TestDroppedEngineIsFreed:
    """No reference cycle keeps a dropped engine and its buffers alive."""

    @pytest.fixture(autouse=True)
    def no_cyclic_gc(self):
        import gc

        gc.collect()
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    @pytest.mark.parametrize("backend,workers", BACKEND_CASES)
    def test_freed_on_del(self, case, backend, workers):
        import weakref

        graph, model = case
        engine = MonteCarloEngine(
            graph, model, trials=3_000, batch_size=1_024, seed=1,
            backend=backend, workers=workers,
        )
        engine.run()
        ref = weakref.ref(engine)
        del engine
        assert ref() is None

    def test_freed_after_an_estimate(self, case, monkeypatch):
        import weakref

        from repro import estimate_expected_makespan

        graph, model = case
        refs = []
        run = MonteCarloEngine.run

        def recording_run(engine):
            refs.append(weakref.ref(engine))
            return run(engine)

        monkeypatch.setattr(MonteCarloEngine, "run", recording_run)
        estimate_expected_makespan(
            graph, model, method="monte-carlo", trials=2_000, seed=1
        )
        assert len(refs) == 1 and refs[0]() is None
