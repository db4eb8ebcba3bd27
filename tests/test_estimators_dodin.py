"""Unit tests for the Dodin series-parallel estimator."""

import pytest

from repro.core.generators import chain_graph, fork_join, independent_tasks
from repro.core.paths import critical_path_length
from repro.estimators.dodin import DodinEstimator
from repro.estimators.exact import ExactEstimator
from repro.exceptions import EstimationError
from repro.failures.models import ExponentialErrorModel, FixedProbabilityModel


class TestExactOnSeriesParallelGraphs:
    """On series-parallel graphs no duplication is needed, so Dodin's
    evaluation is exact (up to support pruning, disabled here by using a
    large ``max_support``)."""

    def test_chain(self):
        g = chain_graph(5, weight=[1.0, 2.0, 1.5, 0.5, 3.0])
        model = ExponentialErrorModel(0.1)
        exact = ExactEstimator().estimate(g, model).expected_makespan
        dodin = DodinEstimator(max_support=4096).estimate(g, model)
        assert dodin.expected_makespan == pytest.approx(exact, rel=1e-9)
        assert dodin.details["duplications"] == 0

    def test_fork_join(self):
        g = fork_join(4, weight=1.0)
        model = FixedProbabilityModel(0.2)
        exact = ExactEstimator().estimate(g, model).expected_makespan
        dodin = DodinEstimator(max_support=4096).estimate(g, model)
        assert dodin.expected_makespan == pytest.approx(exact, rel=1e-9)
        assert dodin.details["duplications"] == 0

    def test_independent_tasks(self):
        g = independent_tasks(4, weight=[1.0, 2.0, 3.0, 4.0])
        model = FixedProbabilityModel(0.3)
        exact = ExactEstimator().estimate(g, model).expected_makespan
        dodin = DodinEstimator(max_support=4096).estimate(g, model)
        assert dodin.expected_makespan == pytest.approx(exact, rel=1e-9)

    def test_diamond(self, diamond):
        model = ExponentialErrorModel(0.05)
        exact = ExactEstimator().estimate(diamond, model).expected_makespan
        dodin = DodinEstimator(max_support=4096).estimate(diamond, model)
        assert dodin.expected_makespan == pytest.approx(exact, rel=1e-9)


class TestGeneralGraphs:
    def test_requires_duplications_on_non_sp_graph(self, non_sp_graph):
        model = ExponentialErrorModel(0.05)
        result = DodinEstimator().estimate(non_sp_graph, model)
        assert result.details["duplications"] >= 1
        assert result.expected_makespan >= critical_path_length(non_sp_graph)

    def test_duplication_cap(self, cholesky4):
        model = ExponentialErrorModel.for_graph(cholesky4, 0.01)
        with pytest.raises(EstimationError):
            DodinEstimator(max_duplications=0).estimate(cholesky4, model)

    def test_runs_on_factorization_dags(self, cholesky4, lu4, qr4):
        for graph in (cholesky4, lu4, qr4):
            model = ExponentialErrorModel.for_graph(graph, 0.001)
            result = DodinEstimator().estimate(graph, model)
            assert result.expected_makespan >= critical_path_length(graph) - 1e-9
            assert result.details["final_support"] <= 64
            assert result.details["series_reductions"] > 0

    def test_zero_rate_recovers_something_close_to_critical_path(self, cholesky4):
        # With λ = 0 every task law is deterministic; Dodin's value is the
        # critical path (duplication does not change deterministic maxima).
        result = DodinEstimator().estimate(cholesky4, ExponentialErrorModel(0.0))
        assert result.expected_makespan == pytest.approx(
            critical_path_length(cholesky4), rel=1e-9
        )

    def test_error_larger_than_first_order_on_non_sp_dag(self, cholesky4):
        """Section V-F: Dodin's approximation is poor on DAGs that are far
        from series-parallel."""
        from repro.estimators.first_order import FirstOrderEstimator

        model = ExponentialErrorModel.for_graph(cholesky4, 0.001)
        exact_like = ExactEstimator(max_tasks=22)
        # cholesky4 has 20 tasks: exact enumeration is feasible.
        reference = exact_like.estimate(cholesky4, model).expected_makespan
        dodin_err = abs(
            DodinEstimator().estimate(cholesky4, model).expected_makespan - reference
        )
        first_err = abs(
            FirstOrderEstimator().estimate(cholesky4, model).expected_makespan - reference
        )
        assert dodin_err > first_err

    def test_support_pruning_tradeoff(self, lu4):
        model = ExponentialErrorModel.for_graph(lu4, 0.01)
        coarse = DodinEstimator(max_support=8).estimate(lu4, model).expected_makespan
        fine = DodinEstimator(max_support=512).estimate(lu4, model).expected_makespan
        # Both must stay in a sane range around the failure-free makespan.
        d = critical_path_length(lu4)
        assert 0.9 * d < coarse < 1.5 * d
        assert 0.9 * d < fine < 1.5 * d

    def test_parameter_validation(self):
        with pytest.raises(EstimationError):
            DodinEstimator(max_support=1)
        with pytest.raises(EstimationError):
            DodinEstimator(reexecution_factor=0.9)

    def test_deterministic_output(self, qr4):
        model = ExponentialErrorModel.for_graph(qr4, 0.001)
        a = DodinEstimator().estimate(qr4, model).expected_makespan
        b = DodinEstimator().estimate(qr4, model).expected_makespan
        assert a == b


class TestJoinRounds:
    """Independent (non-adjacent) joins are duplicated in rounds."""

    @staticmethod
    def _twin_gadget():
        from repro.core.graph import TaskGraph

        g = TaskGraph(name="twin-gadget")
        for i in ("1", "2"):
            for t in ("s", "a", "b", "c", "d", "t"):
                g.add_task(t + i, 1.0)
            g.add_edge("s" + i, "a" + i)
            g.add_edge("s" + i, "b" + i)
            g.add_edge("a" + i, "c" + i)
            g.add_edge("a" + i, "d" + i)
            g.add_edge("b" + i, "c" + i)
            g.add_edge("b" + i, "d" + i)
            g.add_edge("c" + i, "t" + i)
            g.add_edge("d" + i, "t" + i)
        return g

    def test_parallel_gadgets_share_rounds(self):
        """Two disjoint non-series-parallel gadgets have their joins at
        equal levels: the round schedule resolves them together instead of
        one at a time."""
        g = self._twin_gadget()
        model = FixedProbabilityModel(0.05)
        result = DodinEstimator(max_support=512).estimate(g, model)
        assert result.details["duplications"] > result.details["join_rounds"] >= 1

    def test_round_schedule_matches_scalar_reference(self):
        from oracles.estimators import sequential_dodin_estimate

        g = self._twin_gadget()
        model = FixedProbabilityModel(0.05)
        batched = DodinEstimator(max_support=512).estimate(g, model)
        reference = sequential_dodin_estimate(g, model, max_support=512)
        assert batched.expected_makespan == pytest.approx(reference, rel=1e-9)

    def test_cascade_size_stays_small_on_paper_dags(self, cholesky4, lu4):
        """Same-level rounds must not inflate the duplication cascade (the
        historical one-at-a-time rule resolves the same joins, one round
        each)."""
        for graph in (cholesky4, lu4):
            model = ExponentialErrorModel.for_graph(graph, 0.001)
            details = DodinEstimator().estimate(graph, model).details
            assert details["duplications"] <= 5 * graph.num_tasks
            assert details["join_rounds"] <= details["duplications"]
