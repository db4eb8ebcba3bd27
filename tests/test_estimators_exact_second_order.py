"""Unit tests for the exact enumerator and the second-order extension."""

import math

import numpy as np
import pytest

from repro.core.generators import chain_graph, erdos_renyi_dag
from repro.core.graph import TaskGraph
from repro.core.paths import critical_path_length
from repro.estimators.exact import ExactEstimator
from repro.estimators.first_order import FirstOrderEstimator
from repro.estimators.second_order import SecondOrderEstimator
from repro.exceptions import EstimationError
from repro.failures.models import ExponentialErrorModel, FixedProbabilityModel
from repro.workflows.registry import build_dag


class TestExactEstimator:
    def test_single_task_closed_form(self):
        g = TaskGraph()
        g.add_task("t", 3.0)
        model = FixedProbabilityModel(0.25)
        result = ExactEstimator().estimate(g, model)
        assert result.expected_makespan == pytest.approx(0.75 * 3.0 + 0.25 * 6.0)

    def test_two_independent_tasks_closed_form(self):
        g = TaskGraph()
        g.add_task("a", 1.0)
        g.add_task("b", 1.0)
        q = 0.5
        model = FixedProbabilityModel(q)
        # makespan = 1 unless at least one task fails (then 2).
        expected = (1 - q) ** 2 * 1.0 + (1 - (1 - q) ** 2) * 2.0
        result = ExactEstimator().estimate(g, model)
        assert result.expected_makespan == pytest.approx(expected)

    def test_chain_expectation_is_sum_of_task_expectations(self):
        weights = [1.0, 2.0, 0.5]
        g = chain_graph(3, weight=weights)
        model = ExponentialErrorModel(0.3)
        expected = sum(
            (1 - model.failure_probability(w)) * w + model.failure_probability(w) * 2 * w
            for w in weights
        )
        result = ExactEstimator().estimate(g, model)
        assert result.expected_makespan == pytest.approx(expected)

    def test_refuses_large_graphs(self, cholesky4):
        with pytest.raises(EstimationError):
            ExactEstimator(max_tasks=10).estimate(cholesky4, ExponentialErrorModel(0.01))

    def test_zero_rate(self, small_random_dag):
        result = ExactEstimator().estimate(small_random_dag, ExponentialErrorModel(0.0))
        assert result.expected_makespan == pytest.approx(
            critical_path_length(small_random_dag)
        )

    def test_reexecution_factor(self):
        g = TaskGraph()
        g.add_task("t", 1.0)
        model = FixedProbabilityModel(0.5)
        result = ExactEstimator(reexecution_factor=3.0).estimate(g, model)
        assert result.expected_makespan == pytest.approx(0.5 * 1.0 + 0.5 * 3.0)

    def test_agrees_with_custom_table_method(self, diamond):
        model = FixedProbabilityModel(0.2)
        est = ExactEstimator()
        via_model = est.estimate(diamond, model).expected_makespan
        nominal = diamond.weights()
        alternative = {t: 2 * w for t, w in nominal.items()}
        pfail = {t: 0.2 for t in nominal}
        via_table = est.expected_makespan_from_table(diamond, nominal, alternative, pfail)
        assert via_table == pytest.approx(via_model)

    def test_monte_carlo_agrees_with_exact(self, small_random_dag):
        from repro.estimators.montecarlo import MonteCarloEstimator

        model = ExponentialErrorModel.for_graph(small_random_dag, 0.05)
        exact = ExactEstimator().estimate(small_random_dag, model).expected_makespan
        mc = MonteCarloEstimator(trials=150_000, seed=3).estimate(small_random_dag, model)
        low, high = mc.confidence_interval
        # Allow 4 standard errors of slack around the 95% interval.
        slack = 2 * (mc.std_error or 0.0)
        assert low - slack <= exact <= high + slack


class TestSecondOrderEstimator:
    @pytest.mark.parametrize("pfail", [0.005, 0.01, 0.02])
    def test_closer_to_exact_than_first_order(self, small_random_dag, pfail):
        model = ExponentialErrorModel.for_graph(small_random_dag, pfail)
        exact = ExactEstimator().estimate(small_random_dag, model).expected_makespan
        first = FirstOrderEstimator().estimate(small_random_dag, model).expected_makespan
        second = SecondOrderEstimator().estimate(small_random_dag, model).expected_makespan
        assert abs(second - exact) <= abs(first - exact) + 1e-12

    def test_second_order_error_scales_cubically(self):
        graph = erdos_renyi_dag(9, 0.4, rng=11)
        errors = []
        for pfail in (0.08, 0.04, 0.02):
            model = ExponentialErrorModel.for_graph(graph, pfail)
            exact = ExactEstimator().estimate(graph, model).expected_makespan
            second = SecondOrderEstimator().estimate(graph, model).expected_makespan
            errors.append(abs(second - exact) / exact)
        # Each halving of p_fail should reduce the error by roughly 8x; allow
        # a generous band because the residual also contains the tail term.
        assert errors[0] > errors[1] > errors[2]
        assert errors[0] / errors[2] > 16

    def test_probability_coverage_reported(self, small_random_dag):
        model = ExponentialErrorModel.for_graph(small_random_dag, 0.01)
        result = SecondOrderEstimator().estimate(small_random_dag, model)
        covered = result.details["probability_covered"]
        assert 0.99 < covered <= 1.0 + 1e-12
        assert result.details["residual_probability"] == pytest.approx(1 - covered, abs=1e-12)

    def test_expected_failures_reported(self):
        # μ = Σ_i q_i with the exact q_i = 1 − e^{−λ a_i}, not λ a_i.
        weights = [1.0, 2.0, 0.5]
        g = chain_graph(3, weight=weights)
        model = ExponentialErrorModel(0.3)
        mu = sum(1.0 - np.exp(-0.3 * w) for w in weights)
        for estimator in (FirstOrderEstimator(), SecondOrderEstimator()):
            result = estimator.estimate(g, model)
            assert result.details["expected_failures"] == pytest.approx(mu, rel=1e-12)

    @pytest.mark.parametrize("estimator_cls", [FirstOrderEstimator, SecondOrderEstimator])
    @pytest.mark.parametrize("workflow,size,pfail", [
        ("cholesky", 6, 1e-2),
        ("lu", 5, 1e-2),
        ("qr", 5, 1e-3),
        ("gemm", 4, 1e-2),
        ("stencil", 5, 5e-2),
        ("mapreduce", 6, 1e-2),
    ])
    def test_expected_failures_on_workflows(self, workflow, size, pfail, estimator_cls):
        graph = build_dag(workflow, size)
        model = ExponentialErrorModel.for_graph(graph, pfail)
        mu = math.fsum(
            -math.expm1(-model.error_rate * task.weight) for task in graph.tasks()
        )
        reported = estimator_cls().estimate(graph, model).details["expected_failures"]
        assert reported == pytest.approx(mu, rel=1e-12)
        # q is concave in the weight and calibrated at the mean weight, so
        # μ never exceeds n·pfail (equality when all weights are equal).
        assert reported <= graph.num_tasks * pfail * (1 + 1e-12)

    @pytest.mark.parametrize("estimator_cls", [FirstOrderEstimator, SecondOrderEstimator])
    def test_expected_failures_weight_independent_model(self, estimator_cls):
        # Zero-weight tasks never fail: μ = pfail × (number of weighted tasks).
        g = chain_graph(4, weight=[1.0, 0.0, 3.0, 2.0])
        result = estimator_cls().estimate(g, FixedProbabilityModel(0.05))
        assert result.details["expected_failures"] == pytest.approx(0.15, rel=1e-12)

    def test_tail_handling_ordering(self, small_random_dag):
        model = ExponentialErrorModel.for_graph(small_random_dag, 0.1)
        drop = SecondOrderEstimator(tail_handling="drop").estimate(
            small_random_dag, model
        ).expected_makespan
        free = SecondOrderEstimator(tail_handling="failure-free").estimate(
            small_random_dag, model
        ).expected_makespan
        worst = SecondOrderEstimator(tail_handling="worst-pair").estimate(
            small_random_dag, model
        ).expected_makespan
        assert drop <= free <= worst

    def test_invalid_tail_handling(self):
        with pytest.raises(EstimationError):
            SecondOrderEstimator(tail_handling="bogus")

    def test_zero_rate(self, diamond):
        result = SecondOrderEstimator().estimate(diamond, ExponentialErrorModel(0.0))
        assert result.expected_makespan == pytest.approx(critical_path_length(diamond))

    def test_reduces_to_first_order_at_tiny_rates(self, cholesky4):
        model = ExponentialErrorModel.for_graph(cholesky4, 1e-6)
        first = FirstOrderEstimator().estimate(cholesky4, model).expected_makespan
        second = SecondOrderEstimator().estimate(cholesky4, model).expected_makespan
        assert second == pytest.approx(first, rel=1e-9)
