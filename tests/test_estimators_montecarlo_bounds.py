"""Unit tests for the Monte Carlo estimator, the bounds and the registry."""

import numpy as np
import pytest

from repro.core.generators import chain_graph
from repro.core.graph import TaskGraph
from repro.core.paths import critical_path_length
from repro.estimators.base import EstimateResult, normalized_difference, relative_error
from repro.estimators.bounds import LowerBoundEstimator, UpperBoundEstimator, makespan_bounds
from repro.estimators.exact import ExactEstimator
from repro.estimators.first_order import FirstOrderEstimator
from repro.estimators.montecarlo import MonteCarloEstimator
from repro.estimators.registry import (
    PAPER_ESTIMATORS,
    available_estimators,
    get_estimator,
    register_estimator,
)
from repro.exceptions import EstimationError
from repro.failures.models import ExponentialErrorModel, FixedProbabilityModel


class TestMonteCarlo:
    def test_reproducible_with_seed(self, cholesky4):
        model = ExponentialErrorModel.for_graph(cholesky4, 0.01)
        a = MonteCarloEstimator(trials=5_000, seed=42).estimate(cholesky4, model)
        b = MonteCarloEstimator(trials=5_000, seed=42).estimate(cholesky4, model)
        assert a.expected_makespan == b.expected_makespan

    def test_different_seeds_differ(self, cholesky4):
        model = ExponentialErrorModel.for_graph(cholesky4, 0.01)
        a = MonteCarloEstimator(trials=5_000, seed=1).estimate(cholesky4, model)
        b = MonteCarloEstimator(trials=5_000, seed=2).estimate(cholesky4, model)
        assert a.expected_makespan != b.expected_makespan

    def test_zero_rate_gives_exact_critical_path(self, lu4):
        result = MonteCarloEstimator(trials=500, seed=0).estimate(
            lu4, ExponentialErrorModel(0.0)
        )
        assert result.expected_makespan == pytest.approx(critical_path_length(lu4))
        assert result.details["makespan_std"] == pytest.approx(0.0)

    def test_confidence_interval_and_stderr(self, cholesky4):
        model = ExponentialErrorModel.for_graph(cholesky4, 0.01)
        result = MonteCarloEstimator(trials=20_000, seed=3).estimate(cholesky4, model)
        low, high = result.confidence_interval
        assert low < result.expected_makespan < high
        assert result.std_error == pytest.approx((high - low) / (2 * 1.959964), rel=1e-3)
        assert result.details["trials"] == 20_000

    def test_agrees_with_exact_within_noise(self, small_random_dag):
        model = ExponentialErrorModel.for_graph(small_random_dag, 0.02)
        exact = ExactEstimator().estimate(small_random_dag, model).expected_makespan
        mc = MonteCarloEstimator(trials=200_000, seed=11).estimate(small_random_dag, model)
        assert abs(mc.expected_makespan - exact) < 5 * mc.std_error

    def test_geometric_mode_exceeds_two_state(self, cholesky4):
        """Unbounded re-execution can only lengthen executions, so the
        geometric-mode mean must dominate the two-state mean (at equal seeds
        the difference is tiny for small rates, so use a high rate)."""
        model = ExponentialErrorModel.for_graph(cholesky4, 0.3)
        two_state = MonteCarloEstimator(trials=40_000, seed=7, mode="two-state").estimate(
            cholesky4, model
        )
        geometric = MonteCarloEstimator(trials=40_000, seed=7, mode="geometric").estimate(
            cholesky4, model
        )
        assert geometric.expected_makespan > two_state.expected_makespan

    def test_keep_samples_quantiles(self, diamond):
        model = FixedProbabilityModel(0.3)
        result = MonteCarloEstimator(trials=5_000, seed=1, keep_samples=True).estimate(
            diamond, model
        )
        assert "median" in result.details and "p99" in result.details
        assert result.details["median"] <= result.details["p99"]

    def test_early_stopping(self, cholesky4):
        model = ExponentialErrorModel.for_graph(cholesky4, 0.01)
        result = MonteCarloEstimator(
            trials=1_000_000,
            seed=0,
            batch_size=4_000,
            target_relative_half_width=1e-3,
        ).estimate(cholesky4, model)
        assert result.details["trials"] < 1_000_000

    def test_invalid_parameters(self, diamond):
        with pytest.raises(EstimationError):
            MonteCarloEstimator(trials=0).estimate(diamond, ExponentialErrorModel(0.1))


class TestMonteCarloAgainstExact:
    """Seeded Monte Carlo lands within 4 standard errors of exact enumeration.

    For a correct sampler the standardised error is close to a standard
    normal at 20,000 trials, so each ``|mean - exact| <= 4 * std_error``
    check fails with two-sided probability 2 (1 - Phi(4)) = 6.3e-5; over
    the 12 checks below (3 DAGs x 2 rates x 2 seeds) the family-wise
    false-positive rate is at most 12 x 6.3e-5 = 7.6e-4 (union bound).
    The seeds are fixed, so the outcome is deterministic: these are the
    odds that a different choice of seeds would fail.
    """

    DAGS = [("cholesky", 3), ("lu", 3), ("qr", 3)]  # 10, 14 and 14 tasks
    TRIALS = 20_000

    @pytest.mark.parametrize("seed", [2016, 2024])
    @pytest.mark.parametrize("pfail", [1e-1, 1e-2])
    @pytest.mark.parametrize("workflow,size", DAGS)
    def test_within_four_standard_errors(self, workflow, size, pfail, seed):
        from repro.workflows.registry import build_dag

        graph = build_dag(workflow, size)
        assert graph.num_tasks <= 16
        model = ExponentialErrorModel.for_graph(graph, pfail)
        exact = ExactEstimator().estimate(graph, model).expected_makespan
        mc = MonteCarloEstimator(trials=self.TRIALS, seed=seed).estimate(graph, model)
        assert mc.std_error > 0.0
        assert abs(mc.expected_makespan - exact) <= 4.0 * mc.std_error

    def test_every_backend_returns_the_same_mean(self):
        from repro.workflows.registry import build_dag

        graph = build_dag("lu", 3)
        model = ExponentialErrorModel.for_graph(graph, 1e-1)
        means = [
            MonteCarloEstimator(
                trials=self.TRIALS, seed=2016, batch_size=4_096,
                backend=backend, workers=workers,
            ).estimate(graph, model).expected_makespan
            for backend, workers in [("serial", 1), ("threads", 2), ("processes", 2)]
        ]
        assert means[0] == means[1] == means[2]


class TestBounds:
    @pytest.mark.parametrize("pfail", [0.001, 0.01, 0.1])
    def test_bounds_bracket_exact_value(self, small_random_dag, pfail):
        model = ExponentialErrorModel.for_graph(small_random_dag, pfail)
        exact = ExactEstimator().estimate(small_random_dag, model).expected_makespan
        low, high = makespan_bounds(small_random_dag, model)
        assert low - 1e-12 <= exact <= high + 1e-12

    def test_bounds_bracket_first_order_at_low_rates(self, cholesky4):
        model = ExponentialErrorModel.for_graph(cholesky4, 1e-4)
        low, high = makespan_bounds(cholesky4, model)
        first = FirstOrderEstimator().estimate(cholesky4, model).expected_makespan
        assert low <= first <= high

    def test_lower_bound_at_least_failure_free(self, qr4):
        model = ExponentialErrorModel.for_graph(qr4, 0.05)
        result = LowerBoundEstimator().estimate(qr4, model)
        assert result.expected_makespan >= critical_path_length(qr4)

    def test_upper_bound_at_most_worst_case(self, lu4):
        model = ExponentialErrorModel.for_graph(lu4, 0.05)
        result = UpperBoundEstimator().estimate(lu4, model)
        assert result.expected_makespan <= 2 * critical_path_length(lu4) + 1e-12


class TestBaseAndRegistry:
    def test_normalized_difference_and_relative_error(self):
        assert normalized_difference(1.1, 1.0) == pytest.approx(0.1)
        assert normalized_difference(0.9, 1.0) == pytest.approx(-0.1)
        assert relative_error(0.9, 1.0) == pytest.approx(0.1)
        with pytest.raises(EstimationError):
            normalized_difference(1.0, 0.0)

    def test_result_slowdown_and_summary(self):
        result = EstimateResult(
            method="x", expected_makespan=12.0, failure_free_makespan=10.0, wall_time=0.5
        )
        assert result.slowdown == pytest.approx(1.2)
        assert "x" in result.summary()
        assert result.relative_error_with(10.0) == pytest.approx(0.2)

    def test_registry_lists_paper_estimators(self):
        names = available_estimators()
        for expected in PAPER_ESTIMATORS:
            assert expected in names
        for expected in ("monte-carlo", "exact", "second-order", "normal-correlated"):
            assert expected in names

    def test_get_estimator_with_kwargs_and_aliases(self):
        mc = get_estimator("mc", trials=123, seed=9)
        assert mc.trials == 123
        assert get_estimator("sculli").name == "normal"
        assert get_estimator("FIRST_ORDER").name == "first-order"

    def test_unknown_estimator(self):
        with pytest.raises(EstimationError):
            get_estimator("does-not-exist")

    def test_register_custom_estimator(self, diamond):
        class ConstantEstimator(FirstOrderEstimator):
            name = "constant-42"

            def _estimate(self, graph, model):
                result = super()._estimate(graph, model)
                result.expected_makespan = 42.0
                return result

        register_estimator("constant-42", ConstantEstimator)
        est = get_estimator("constant-42")
        value = est.estimate(diamond, ExponentialErrorModel(0.0)).expected_makespan
        assert value == 42.0
        with pytest.raises(EstimationError):
            register_estimator("constant-42", ConstantEstimator)

    def test_estimator_is_callable(self, diamond):
        model = ExponentialErrorModel(0.01)
        estimator = FirstOrderEstimator()
        assert estimator(diamond, model).expected_makespan == estimator.estimate(
            diamond, model
        ).expected_makespan
