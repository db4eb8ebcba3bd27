"""Unit tests for repro.rv.normal (Clark's formulas) and repro.rv.empirical."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import repro
from repro.exceptions import EstimationError
from repro.rv.empirical import EmpiricalDistribution, RunningMoments, mean_confidence_interval
from repro.rv.normal import (
    NormalRV,
    clark_correlation_with_third,
    clark_max,
    clark_max_moments,
    norm_cdf,
    norm_pdf,
)
from repro.sim.stats import required_trials


class TestNormalBasics:
    def test_pdf_cdf_against_scipy(self):
        for x in (-3.0, -0.5, 0.0, 1.2, 4.0):
            assert norm_pdf(x) == pytest.approx(stats.norm.pdf(x))
            assert norm_cdf(x) == pytest.approx(stats.norm.cdf(x))

    def test_sum_of_independent_normals(self):
        a = NormalRV(1.0, 4.0)
        b = NormalRV(2.0, 9.0)
        s = a.add_independent(b)
        assert s.mean == 3.0 and s.variance == 13.0
        assert (a + b).mean == 3.0
        assert (a + 5.0).mean == 6.0

    def test_negative_variance_rejected_but_roundoff_clamped(self):
        assert NormalRV(0.0, -1e-12).variance == 0.0
        with pytest.raises(EstimationError):
            NormalRV(0.0, -0.5)

    def test_cdf_and_quantile(self):
        rv = NormalRV(10.0, 4.0)
        assert rv.cdf(10.0) == pytest.approx(0.5)
        assert rv.quantile(0.5) == pytest.approx(10.0)
        assert rv.quantile(0.975) == pytest.approx(10.0 + 1.959964 * 2.0, rel=1e-4)
        degenerate = NormalRV.degenerate(3.0)
        assert degenerate.cdf(2.9) == 0.0 and degenerate.cdf(3.0) == 1.0
        assert degenerate.quantile(0.9) == 3.0


class TestClarkMax:
    def test_against_monte_carlo_independent(self, rng):
        x = rng.normal(2.0, 1.0, size=400_000)
        y = rng.normal(2.5, 2.0, size=400_000)
        sample_max = np.maximum(x, y)
        mean, var = clark_max_moments(2.0, 1.0, 2.5, 4.0, 0.0)
        assert mean == pytest.approx(sample_max.mean(), rel=2e-3)
        assert var == pytest.approx(sample_max.var(), rel=1e-2)

    def test_against_monte_carlo_correlated(self, rng):
        rho = 0.6
        cov = [[1.0, rho * 1.0 * 2.0], [rho * 1.0 * 2.0, 4.0]]
        samples = rng.multivariate_normal([1.0, 0.5], cov, size=400_000)
        sample_max = samples.max(axis=1)
        mean, var = clark_max_moments(1.0, 1.0, 0.5, 4.0, rho)
        assert mean == pytest.approx(sample_max.mean(), rel=3e-3)
        assert var == pytest.approx(sample_max.var(), rel=1.5e-2)

    def test_max_with_identical_variables(self):
        # a == 0 case: max(X, X) = X.
        mean, var = clark_max_moments(3.0, 2.0, 3.0, 2.0, 1.0)
        assert mean == 3.0 and var == 2.0

    def test_max_with_constants(self):
        mean, var = clark_max_moments(1.0, 0.0, 5.0, 0.0, 0.0)
        assert mean == 5.0 and var == 0.0

    def test_max_dominates_means(self):
        m, _ = clark_max_moments(1.0, 1.0, 1.5, 2.0, 0.0)
        assert m >= 1.5

    def test_invalid_correlation(self):
        with pytest.raises(EstimationError):
            clark_max_moments(0, 1, 0, 1, 2.0)

    def test_clark_max_returns_normal(self):
        out = clark_max(NormalRV(0, 1), NormalRV(0, 1), 0.0)
        assert isinstance(out, NormalRV)
        # Known closed form: E[max of two iid N(0,1)] = 1/sqrt(pi)
        assert out.mean == pytest.approx(1.0 / math.sqrt(math.pi))

    def test_correlation_with_third_variable(self, rng):
        # Z correlated with X1 only; check Clark's formula against sampling.
        n = 400_000
        z = rng.normal(size=n)
        x1 = 0.8 * z + math.sqrt(1 - 0.64) * rng.normal(size=n) + 1.0
        x2 = rng.normal(2.0, 1.5, size=n)
        m = np.maximum(x1, x2)
        empirical_rho = np.corrcoef(m, z)[0, 1]
        rho = clark_correlation_with_third(
            NormalRV(1.0, 1.0), NormalRV(2.0, 2.25), 0.0, 0.8, 0.0
        )
        assert rho == pytest.approx(empirical_rho, abs=0.02)


class TestRunningMoments:
    def test_matches_numpy_batched(self, rng):
        data = rng.normal(5.0, 2.0, size=10_000)
        moments = RunningMoments()
        for chunk in np.array_split(data, 7):
            moments.update(chunk)
        assert moments.count == data.size
        assert moments.mean == pytest.approx(data.mean())
        assert moments.variance == pytest.approx(data.var(ddof=1))
        assert moments.minimum == data.min() and moments.maximum == data.max()

    def test_empty_batch_ignored(self):
        moments = RunningMoments()
        moments.update(np.array([]))
        assert moments.count == 0
        moments.update(np.array([1.0, 2.0]))
        assert moments.count == 2

    def test_confidence_interval_contains_mean(self, rng):
        data = rng.normal(0.0, 1.0, size=50_000)
        moments = RunningMoments()
        moments.update(data)
        low, high = moments.confidence_interval()
        assert low < data.mean() < high
        assert (high - low) < 0.05


class TestEmpiricalDistribution:
    def test_summary_statistics(self, rng):
        data = rng.exponential(2.0, size=20_000)
        emp = EmpiricalDistribution(data)
        assert emp.count == 20_000
        assert emp.mean() == pytest.approx(data.mean())
        assert emp.std() == pytest.approx(data.std(ddof=1))
        assert emp.min() == data.min() and emp.max() == data.max()
        assert emp.quantile(0.5) == pytest.approx(np.quantile(data, 0.5))
        assert 0.0 <= emp.cdf(emp.quantile(0.3)) <= 0.35

    def test_histogram(self, rng):
        emp = EmpiricalDistribution(rng.normal(size=1000))
        densities, edges = emp.histogram(bins=20)
        assert len(densities) == 20 and len(edges) == 21

    def test_validation(self):
        with pytest.raises(EstimationError):
            EmpiricalDistribution([])
        with pytest.raises(EstimationError):
            EmpiricalDistribution([1.0, float("nan")])
        with pytest.raises(EstimationError):
            EmpiricalDistribution([1.0]).quantile(2.0)

    def test_samples_readonly(self):
        emp = EmpiricalDistribution([3.0, 1.0, 2.0])
        view = emp.samples()
        assert view.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            view[0] = 99.0

    def test_mean_confidence_interval_helper(self):
        low, high = mean_confidence_interval(10.0, 2.0, 400, confidence=0.95)
        assert low == pytest.approx(10.0 - 1.959964 * 0.1, rel=1e-4)
        assert high == pytest.approx(10.0 + 1.959964 * 0.1, rel=1e-4)
        assert mean_confidence_interval(1.0, 1.0, 1) == (-math.inf, math.inf)


class TestNormalQuantiles:
    """The three normal-quantile sites use ``scipy.special.ndtri``: values
    equal to ``scipy.stats.norm.ppf`` to the last bit, without paying the
    ``scipy.stats`` import."""

    LEVELS = np.concatenate([np.linspace(0.001, 0.999, 999), [0.9, 0.95, 0.99, 0.999]])

    def test_confidence_interval_matches_norm_ppf_bitwise(self):
        for confidence in self.LEVELS:
            z = float(stats.norm.ppf(0.5 + confidence / 2.0))
            half = z * 2.5 / math.sqrt(400)
            low, high = mean_confidence_interval(10.0, 2.5, 400, confidence=confidence)
            assert (low.hex(), high.hex()) == ((10.0 - half).hex(), (10.0 + half).hex())

    def test_required_trials_matches_norm_ppf(self):
        for confidence in self.LEVELS:
            z = float(stats.norm.ppf(0.5 + confidence / 2.0))
            expected = max(1, int(math.ceil((z * 3.0 / (1e-3 * 7.0)) ** 2)))
            assert required_trials(3.0, 7.0, 1e-3, confidence=confidence) == expected

    def test_normal_quantile_matches_norm_ppf_bitwise(self):
        rng = np.random.default_rng(20160814)
        for q, mean, std in zip(
            rng.uniform(1e-6, 1 - 1e-6, 2000),
            rng.uniform(-100.0, 100.0, 2000),
            rng.uniform(1e-3, 50.0, 2000),
        ):
            rv = NormalRV(mean, std * std)
            expected = float(stats.norm.ppf(q, loc=rv.mean, scale=rv.std))
            assert rv.quantile(q).hex() == expected.hex()

    def test_monte_carlo_result_does_not_import_scipy_stats(self):
        script = (
            "import sys\n"
            "from repro.failures.models import ExponentialErrorModel\n"
            "from repro.rv.normal import NormalRV\n"
            "from repro.sim.engine import MonteCarloEngine\n"
            "from repro.workflows.registry import build_dag\n"
            "graph = build_dag('cholesky', 4)\n"
            "model = ExponentialErrorModel.for_graph(graph, 1e-2)\n"
            "MonteCarloEngine(graph, model, trials=1000, seed=1).run()\n"
            "NormalRV(1.0, 4.0).quantile(0.9)\n"
            "assert 'scipy.stats' not in sys.modules\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
