"""Differential tests for the level-wavefront analytical estimators.

PR 2 rewrote the sculli/sweep/correlated/second-order estimators (and the
scheduling priorities) on top of the moment/discrete level kernels.  Each
module retains its per-task sequential implementation as a reference; the
tests here assert that the vectorised paths reproduce the sequential
results to <= 1e-9 relative error across the workflow registry, and that
the threaded Monte Carlo scheduler with ``workers=1`` is bit-identical to
the pre-threading engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.estimators import (
    sequential_completion_moments,
    sequential_correlated_estimate,
    sequential_pair_up_down,
    sequential_sweep_estimate,
)
from oracles.two_state_sampling import failure_mask
from repro.core.kernels import WavefrontKernel, propagate_moments
from repro.estimators.correlated import CorrelatedNormalEstimator
from repro.estimators.sculli import SculliEstimator
from repro.estimators.second_order import SecondOrderEstimator
from repro.estimators.sweep import DiscreteSweepEstimator
from repro.exec import partition_stream
from repro.failures.models import ExponentialErrorModel
from repro.failures.twostate import two_state_moment_vectors
from repro.rv.normal import NormalRV, clark_max
from repro.scheduling.priorities import (
    deterministic_bottom_levels,
    expected_bottom_levels_sculli,
    upward_ranks,
)
from repro.scheduling.platform import Platform
from repro.sim.engine import MonteCarloEngine
from repro.workflows.registry import build_dag

RTOL = 1e-9

#: One representative per DAG family of the registry: the paper's three
#: factorisations, the GEMM workflow and two synthetic families.
CASES = [
    ("cholesky", 6),
    ("lu", 5),
    ("qr", 4),
    ("gemm", 3),
    ("stencil", 6),
    ("mapreduce", 10),
]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


@pytest.mark.parametrize("workflow,size", CASES)
@pytest.mark.parametrize("pfail", [1e-3, 1e-1])
class TestVectorisedMatchesSequential:
    def test_sculli(self, workflow, size, pfail):
        graph = build_dag(workflow, size)
        model = ExponentialErrorModel.for_graph(graph, pfail)
        index = graph.index()
        ref_mean, ref_var = sequential_completion_moments(index, model)
        task_mean, task_var = two_state_moment_vectors(index.weights, model)
        mean, var = propagate_moments(index, task_mean, task_var, direction="up")
        assert np.allclose(mean, ref_mean, rtol=RTOL, atol=0.0)
        assert np.allclose(var, ref_var, rtol=1e-7, atol=1e-18)

        est = SculliEstimator().estimate(graph, model)
        ref_makespan = NormalRV(ref_mean[index.sink_indices()[0]],
                                ref_var[index.sink_indices()[0]])
        for s in index.sink_indices()[1:]:
            ref_makespan = clark_max(
                ref_makespan, NormalRV(ref_mean[s], ref_var[s]), 0.0
            )
        assert _rel(est.expected_makespan, ref_makespan.mean) <= RTOL

    def test_sweep(self, workflow, size, pfail):
        graph = build_dag(workflow, size)
        model = ExponentialErrorModel.for_graph(graph, pfail)
        ref = sequential_sweep_estimate(graph, model, max_support=64)
        est = DiscreteSweepEstimator(max_support=64).estimate(graph, model)
        assert _rel(est.expected_makespan, ref.mean()) <= RTOL
        assert est.details["final_support"] == ref.support_size

    def test_correlated(self, workflow, size, pfail):
        graph = build_dag(workflow, size)
        model = ExponentialErrorModel.for_graph(graph, pfail)
        ref_mean, ref_var = sequential_correlated_estimate(graph, model)
        est = CorrelatedNormalEstimator().estimate(graph, model)
        assert _rel(est.expected_makespan, ref_mean) <= RTOL
        assert _rel(est.details["makespan_variance"], ref_var) <= 1e-7

    def test_second_order_pair_sweeps_bit_exact(self, workflow, size, pfail):
        graph = build_dag(workflow, size)
        index = graph.index()
        weights = index.weights.copy()
        doubled = min(3, index.num_tasks - 1)
        weights[doubled] *= 2.0
        up_ref, down_ref = sequential_pair_up_down(index, weights)
        kernel_up = WavefrontKernel(index, direction="up")
        kernel_up.load(weights[None, :])
        kernel_up.propagate(1)
        kernel_down = WavefrontKernel(index, direction="down")
        kernel_down.load(weights[None, :])
        kernel_down.propagate(1)
        assert np.array_equal(kernel_up.completion_matrix(1)[:, 0], up_ref)
        assert np.array_equal(kernel_down.completion_matrix(1)[:, 0], down_ref)


@pytest.mark.parametrize("workflow,size", [("cholesky", 4), ("lu", 4), ("stencil", 4)])
def test_second_order_estimate_matches_sequential_structure(workflow, size):
    """The chunked second-order estimate equals the per-task recomputation."""
    graph = build_dag(workflow, size)
    index = graph.index()
    model = ExponentialErrorModel.for_graph(graph, 1e-2)
    est = SecondOrderEstimator().estimate(graph, model)

    # Reference: the pre-kernel pair-term loop built on the sequential
    # up/down sweeps (same outer arithmetic as the estimator).
    from repro.core.paths import compute_path_metrics

    n = index.num_tasks
    weights = index.weights
    q = np.asarray(model.failure_probabilities(weights), dtype=np.float64)
    metrics = compute_path_metrics(index)
    d_g = metrics.critical_length
    d_single = metrics.doubled_makespans()
    one_minus_q = 1.0 - q
    log_all = float(np.sum(np.log(one_minus_q)))
    p_none = float(np.exp(log_all))
    p_single = q * np.exp(log_all - np.log(one_minus_q))
    expected = p_none * d_g + float(np.dot(p_single, d_single))
    covered = p_none + float(p_single.sum())
    base = np.exp(log_all - np.log(one_minus_q))
    pair_contribution = 0.0
    pair_probability = 0.0
    for i in range(n):
        w_i = weights.copy()
        w_i[i] *= 2.0
        up, down = sequential_pair_up_down(index, w_i)
        d_pair = np.maximum(d_single[i], up + down)
        p_pair = q[i] * q * base / one_minus_q[i]
        p_pair[i] = 0.0
        d_pair[i] = 0.0
        pair_contribution += float(np.dot(p_pair, d_pair))
        pair_probability += float(p_pair.sum())
    expected += 0.5 * pair_contribution
    covered += 0.5 * pair_probability
    expected += max(0.0, 1.0 - covered) * d_g

    assert _rel(est.expected_makespan, expected) <= RTOL


class TestPrioritiesOnKernels:
    """The four priority recurrences agree with per-task reference loops."""

    @pytest.mark.parametrize("workflow,size", [("cholesky", 5), ("qr", 4)])
    def test_deterministic_and_heft(self, workflow, size):
        graph = build_dag(workflow, size)
        index = graph.index()
        down = deterministic_bottom_levels(graph)
        ref = np.zeros(index.num_tasks)
        indptr, indices = index.succ_indptr, index.succ_indices
        for i in index.topo_order[::-1]:
            succs = indices[indptr[i] : indptr[i + 1]]
            ref[i] = index.weights[i] + (ref[succs].max() if succs.size else 0.0)
        assert all(down[tid] == ref[j] for j, tid in enumerate(index.task_ids))

        platform = Platform.homogeneous(4)
        model = ExponentialErrorModel.for_graph(graph, 1e-2)
        ranks = upward_ranks(graph, platform, model=model)
        for src, dst in graph.edges():
            assert ranks[src] > ranks[dst]

    @pytest.mark.parametrize("workflow,size", [("cholesky", 5), ("lu", 4)])
    def test_sculli_bottom_levels(self, workflow, size):
        graph = build_dag(workflow, size)
        index = graph.index()
        model = ExponentialErrorModel.for_graph(graph, 1e-2)
        levels = expected_bottom_levels_sculli(graph, model)
        # Reference: per-task backwards clark fold (pre-kernel loop).
        from repro.failures.twostate import TwoStateDistribution

        n = index.num_tasks
        mean = np.zeros(n)
        var = np.zeros(n)
        indptr, indices = index.succ_indptr, index.succ_indices
        for i in index.topo_order[::-1]:
            law = TwoStateDistribution.from_model(float(index.weights[i]), model)
            succs = indices[indptr[i] : indptr[i + 1]]
            if succs.size == 0:
                tail = NormalRV.degenerate(0.0)
            else:
                tail = NormalRV(mean[succs[0]], var[succs[0]])
                for s in succs[1:]:
                    tail = clark_max(tail, NormalRV(mean[s], var[s]), 0.0)
            total = tail.add_independent(NormalRV(law.mean, law.variance))
            mean[i] = total.mean
            var[i] = total.variance
        for j, tid in enumerate(index.task_ids):
            assert _rel(levels[tid], mean[j]) <= RTOL


class TestThreadedMonteCarloDeterminism:
    """workers=1 must reproduce the original engine's exact samples."""

    @staticmethod
    def _pr1_reference_makespans(graph, model, trials, seed, batch_size):
        """The original pipeline, reproduced: trial-major uniforms from
        batch ``b``'s ``partition_stream(seed entropy, b)``, fused
        two-state weights, wavefront kernel sweeps."""
        index = graph.index()
        entropy = np.random.SeedSequence(seed).entropy
        q = np.asarray(model.failure_probabilities(index.weights), dtype=np.float64)
        kernel = WavefrontKernel(index, direction="up")
        perm = kernel.perm
        w_rows = index.weights[perm][:, None]
        extra_rows = index.weights[perm][:, None]  # (factor - 1) * w with factor 2
        out = []
        remaining = trials
        while remaining > 0:
            batch = min(batch_size, remaining)
            rng = partition_stream(entropy, len(out))
            mask = failure_mask(rng, q, batch).T
            view = kernel.weight_view(batch)[:, :batch]
            np.multiply(mask[perm], extra_rows, out=view)
            view += w_rows
            kernel.propagate(batch)
            out.append(kernel.makespans(batch).copy())
            remaining -= batch
        return np.concatenate(out)

    def test_single_worker_bit_identical_to_pr1(self):
        graph = build_dag("cholesky", 5)
        model = ExponentialErrorModel.for_graph(graph, 2e-2)
        ref = self._pr1_reference_makespans(
            graph, model, trials=6_000, seed=99, batch_size=1_024
        )
        result = MonteCarloEngine(
            graph, model, trials=6_000, seed=99, batch_size=1_024,
            keep_samples=True, workers=1,
        ).run()
        # EmpiricalDistribution stores its sample sorted.
        assert np.array_equal(result.samples.samples(), np.sort(ref))
        assert result.minimum == ref.min()
        assert result.maximum == ref.max()
        assert result.mean == np.float64(
            MonteCarloEngine(
                graph, model, trials=6_000, seed=99, batch_size=1_024, workers=1
            ).run().mean
        )
        assert result.workers == 1

    def test_multi_worker_reproducible_and_consistent(self):
        graph = build_dag("lu", 5)
        model = ExponentialErrorModel.for_graph(graph, 1e-2)
        kwargs = dict(trials=12_000, batch_size=1_024, seed=7, keep_samples=True)
        a = MonteCarloEngine(graph, model, workers=3, **kwargs).run()
        b = MonteCarloEngine(graph, model, workers=3, **kwargs).run()
        assert np.array_equal(a.samples.samples(), b.samples.samples())
        assert a.trials == 12_000
        assert a.workers == 3

        single = MonteCarloEngine(graph, model, workers=1, **kwargs).run()
        # The same per-batch streams on the serial path: the same sample.
        assert np.array_equal(a.samples.samples(), single.samples.samples())
        assert a.mean == single.mean

    def test_multi_worker_early_stopping(self):
        graph = build_dag("cholesky", 4)
        model = ExponentialErrorModel.for_graph(graph, 1e-2)
        result = MonteCarloEngine(
            graph, model, trials=200_000, batch_size=2_048, seed=3,
            workers=2, target_relative_half_width=5e-3,
        ).run()
        assert result.trials < 200_000


class TestWorkerConfigResolution:
    def test_env_override(self, monkeypatch):
        from repro.experiments.config import monte_carlo_workers

        monkeypatch.delenv("REPRO_MC_WORKERS", raising=False)
        assert monte_carlo_workers() == 1
        assert monte_carlo_workers(3) == 3
        monkeypatch.setenv("REPRO_MC_WORKERS", "4")
        assert monte_carlo_workers() == 4
        assert monte_carlo_workers(2) == 4  # environment wins

    def test_env_validation(self, monkeypatch):
        from repro.exceptions import ExperimentError
        from repro.experiments.config import monte_carlo_workers

        monkeypatch.setenv("REPRO_MC_WORKERS", "zero")
        with pytest.raises(ExperimentError):
            monte_carlo_workers()
        monkeypatch.setenv("REPRO_MC_WORKERS", "0")
        with pytest.raises(ExperimentError):
            monte_carlo_workers()

    def test_config_properties(self):
        from repro.experiments.config import FigureConfig, ScalabilityConfig

        fig = FigureConfig(figure="t", workflow="lu", pfail=1e-3, mc_workers=2)
        assert fig.workers == 2
        tab = ScalabilityConfig(mc_workers=3)
        assert tab.workers == 3
        with pytest.raises(Exception):
            FigureConfig(figure="t", workflow="lu", pfail=1e-3, mc_workers=0)
