"""Tests of the pluggable compiled-kernel backend layer.

Three groups:

* **Resolution** — knob precedence (explicit argument >
  ``REPRO_KERNEL_BACKEND`` > ``"numpy"``), strict validation of explicit
  names, the warn-once-and-fall-back contract for unrecognised
  environment values, and the per-``(backend, op)`` fallback warnings.

* **Differential (stub JIT)** — the numba op table built with a stub
  ``numba`` module whose ``njit`` is the identity decorator.  This runs
  the *real* fused kernels as pure Python, so the call-site wiring and
  the bit-identity contracts are exercised even on machines without any
  accelerator installed (exactly the tier-1 situation).

* **Differential (real JIT)** — the same contracts against the actual
  compiled kernels, skipped unless ``numba`` is importable (the CI
  ``accel`` job installs it).
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.backends as backends
from repro.core.backends import (
    DEFAULT_KERNEL_BACKEND,
    KERNEL_BACKENDS,
    KERNEL_OPS,
    _reset_backend_state,
    backend_available,
    env_kernel_backend,
    get_kernel,
    kernel_backend_status,
    normalize_kernel_backend,
    resolve_kernel_backend,
)
from repro.core.generators import erdos_renyi_dag
from repro.core.kernels import WavefrontKernel, propagate_moments
from repro.estimators.correlated import CorrelatedNormalEstimator
from repro.estimators.montecarlo import MonteCarloEstimator
from repro.estimators.sculli import SculliEstimator
from repro.exceptions import EstimationError, GraphError
from repro.failures.models import ExponentialErrorModel
from repro.sim.engine import MonteCarloEngine
from repro.workflows.registry import build_dag

#: Probed directly (uncached) so the skip marks never pollute the
#: module-level availability cache the resolution tests reset.
HAVE_NUMBA = backends._probe("numba")


@pytest.fixture
def clean_state():
    """Pristine backend caches before and after the test."""
    _reset_backend_state()
    yield
    _reset_backend_state()


def _case(n=14, p=0.35, pfail=5e-3, seed=7):
    graph = erdos_renyi_dag(n, p, rng=np.random.default_rng(seed))
    model = ExponentialErrorModel.for_graph(graph, pfail)
    return graph, model


def _assert_down_sweep_bit_identical(graph, dtype, trials):
    """Compiled ``propagate`` == the NumPy level-column fold, direction
    ``"down"``: a full batch, then a strided one below the capacity."""
    idx = graph.index()
    rng = np.random.default_rng(trials)
    ref = WavefrontKernel(idx, direction="down", dtype=dtype, kernel_backend="numpy")
    jit = WavefrontKernel(idx, direction="down", dtype=dtype, kernel_backend="numba")
    for batch in (trials, trials // 3):
        w = idx.weights[None, :] * rng.uniform(0.5, 2.0, size=(batch, idx.num_tasks))
        for kernel in (ref, jit):
            kernel.load(w)
            kernel.propagate(batch)
        # Still compiled: a failing JIT call would have fallen back to NumPy.
        assert jit._propagate_fn is not None
        assert np.array_equal(
            jit.completion_matrix(batch), ref.completion_matrix(batch)
        )


# ----------------------------------------------------------------------
# Resolution, validation, warnings
# ----------------------------------------------------------------------


class TestResolution:
    def test_normalize_accepts_known_names(self):
        for name in KERNEL_BACKENDS:
            assert normalize_kernel_backend(name) == name
        assert normalize_kernel_backend("  NumPy ") == "numpy"

    def test_normalize_rejects_unknown_names(self):
        with pytest.raises(GraphError):
            normalize_kernel_backend("fpga")

    def test_default_is_numpy(self, clean_state, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        assert resolve_kernel_backend() == DEFAULT_KERNEL_BACKEND

    def test_environment_wins_over_default(self, clean_state, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
        assert resolve_kernel_backend() == "numba"

    def test_explicit_argument_wins_over_environment(self, clean_state, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
        assert resolve_kernel_backend("numpy") == "numpy"

    def test_explicit_bad_name_is_strict(self, clean_state, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
        with pytest.raises(GraphError):
            resolve_kernel_backend("tpu")

    def test_unrecognised_env_warns_once_and_falls_back(
        self, clean_state, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "gpuzilla")
        with pytest.warns(RuntimeWarning, match="gpuzilla"):
            assert env_kernel_backend() is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_kernel_backend() is None
            assert resolve_kernel_backend() == "numpy"

    def test_estimator_rejects_bad_backend(self):
        graph, model = _case(n=6)
        with pytest.raises(EstimationError):
            # The MC estimator resolves lazily, at engine construction.
            MonteCarloEstimator(trials=10, seed=0, kernel_backend="tpu").estimate(
                graph, model
            )
        with pytest.raises(EstimationError):
            CorrelatedNormalEstimator(kernel_backend="tpu")

    def test_numpy_backend_has_no_compiled_kernels(self, clean_state):
        for op in KERNEL_OPS:
            assert get_kernel(op, "numpy") is None

    def test_unknown_op_rejected(self, clean_state):
        with pytest.raises(GraphError):
            get_kernel("fft", "numpy")

    def test_numpy_always_available(self):
        assert backend_available("numpy") is True
        assert kernel_backend_status()["numpy"] is True

    def test_unavailable_backend_warns_once_per_op(self, clean_state, monkeypatch):
        monkeypatch.setattr(backends, "_probe", lambda name: name == "numpy")
        with pytest.warns(RuntimeWarning, match="backend unavailable"):
            assert get_kernel("propagate", "numba") is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # Cached miss: no second warning for the same (backend, op).
            assert get_kernel("propagate", "numba") is None
        with pytest.warns(RuntimeWarning, match="backend unavailable"):
            assert get_kernel("moment_fold", "numba") is None

    def test_unported_op_warns_and_falls_back(self, clean_state, monkeypatch):
        monkeypatch.setattr(backends, "_probe", lambda name: True)
        monkeypatch.setattr(backends, "_build_numba_ops", dict)
        with pytest.warns(RuntimeWarning, match="operation not ported"):
            assert get_kernel("band_gather", "numba") is None

    def test_broken_builder_warns_and_falls_back(self, clean_state, monkeypatch):
        monkeypatch.setattr(backends, "_probe", lambda name: True)

        def boom():
            raise RuntimeError("no compiler")

        monkeypatch.setattr(backends, "_build_numba_ops", boom)
        with pytest.warns(RuntimeWarning, match="failed to initialise"):
            assert get_kernel("propagate", "numba") is None

    def test_estimators_report_backend_in_details(self):
        graph, model = _case(n=8)
        result = MonteCarloEstimator(trials=200, seed=1).estimate(graph, model)
        assert result.details["kernel_backend"] == "numpy"
        result = CorrelatedNormalEstimator().estimate(graph, model)
        assert result.details["kernel_backend"] == "numpy"


# ----------------------------------------------------------------------
# Differential tests against the stubbed (pure-Python) numba kernels
# ----------------------------------------------------------------------


class TestStubJitDifferential:
    def test_stub_backend_is_served(self, stub_numba):
        assert backend_available("numba") is True
        for op in KERNEL_OPS:
            assert get_kernel(op, "numba") is not None

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_mc_engine_bit_identical(self, stub_numba, dtype):
        graph, model = _case()
        kwargs = dict(trials=512, batch_size=128, seed=42, dtype=dtype,
                      keep_samples=True)
        ref = MonteCarloEngine(graph, model, kernel_backend="numpy", **kwargs).run()
        jit = MonteCarloEngine(graph, model, kernel_backend="numba", **kwargs).run()
        assert np.array_equal(ref.samples.samples(), jit.samples.samples())
        assert ref.mean == jit.mean

    def test_mc_engine_geometric_mode_unaffected(self, stub_numba):
        graph, model = _case(n=10)
        kwargs = dict(trials=256, batch_size=64, seed=3, mode="geometric",
                      keep_samples=True)
        ref = MonteCarloEngine(graph, model, kernel_backend="numpy", **kwargs).run()
        jit = MonteCarloEngine(graph, model, kernel_backend="numba", **kwargs).run()
        assert np.array_equal(ref.samples.samples(), jit.samples.samples())

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_wavefront_down_bit_identical(self, stub_numba, dtype):
        _assert_down_sweep_bit_identical(build_dag("cholesky", 4), dtype, 48)

    @pytest.mark.parametrize("backend,options", [
        ("banded", {}),
        ("banded", {"bandwidth": 1}),
    ])
    def test_correlated_gather_bit_identical(self, stub_numba, backend, options):
        graph, model = _case(n=16, p=0.3)
        ref = CorrelatedNormalEstimator(
            correlation_backend=backend, kernel_backend="numpy", **options
        ).estimate(graph, model)
        jit = CorrelatedNormalEstimator(
            correlation_backend=backend, kernel_backend="numba", **options
        ).estimate(graph, model)
        assert jit.expected_makespan == ref.expected_makespan
        assert jit.details["kernel_backend"] == "numba"

    def test_moment_fold_close(self, stub_numba):
        graph, model = _case(n=18, p=0.4)
        ref = SculliEstimator(kernel_backend="numpy").estimate(graph, model)
        jit = SculliEstimator(kernel_backend="numba").estimate(graph, model)
        rel = abs(jit.expected_makespan - ref.expected_makespan) / max(
            abs(ref.expected_makespan), 1.0
        )
        assert rel <= 1e-9

    def test_propagate_moments_fold_close(self, stub_numba):
        graph, _ = _case(n=20, p=0.35)
        rng = np.random.default_rng(11)
        mean = rng.uniform(0.5, 2.0, graph.num_tasks)
        var = rng.uniform(0.01, 0.2, graph.num_tasks)
        m_ref, v_ref = propagate_moments(graph, mean, var, kernel_backend="numpy")
        m_jit, v_jit = propagate_moments(graph, mean, var, kernel_backend="numba")
        np.testing.assert_allclose(m_jit, m_ref, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(v_jit, v_ref, rtol=1e-9, atol=1e-12)

    def test_runtime_kernel_failure_degrades_to_numpy(
        self, clean_state, monkeypatch
    ):
        def raising(*args, **kwargs):
            raise RuntimeError("typing failed")

        monkeypatch.setattr(backends, "_probe", lambda name: True)
        monkeypatch.setattr(
            backends,
            "_build_numba_ops",
            lambda: {op: raising for op in KERNEL_OPS},
        )
        graph, model = _case(n=10)
        ref = MonteCarloEstimator(trials=256, seed=5).estimate(graph, model)
        jit = MonteCarloEstimator(
            trials=256, seed=5, kernel_backend="numba"
        ).estimate(graph, model)
        assert jit.expected_makespan == ref.expected_makespan
        ref = CorrelatedNormalEstimator(correlation_backend="banded").estimate(
            graph, model
        )
        jit = CorrelatedNormalEstimator(
            correlation_backend="banded", kernel_backend="numba"
        ).estimate(graph, model)
        assert jit.expected_makespan == ref.expected_makespan
        m_ref, v_ref = propagate_moments(
            graph, np.ones(graph.num_tasks), np.full(graph.num_tasks, 0.1)
        )
        m_jit, v_jit = propagate_moments(
            graph,
            np.ones(graph.num_tasks),
            np.full(graph.num_tasks, 0.1),
            kernel_backend="numba",
        )
        assert np.array_equal(m_ref, m_jit)
        assert np.array_equal(v_ref, v_jit)

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n=st.integers(min_value=2, max_value=18),
        p=st.floats(min_value=0.05, max_value=0.9),
        dtype=st.sampled_from(["float64", "float32"]),
        bandwidth=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_hypothesis_differential(self, stub_numba, n, p, dtype, bandwidth, seed):
        graph = erdos_renyi_dag(n, p, rng=np.random.default_rng(seed))
        model = ExponentialErrorModel.for_graph(graph, 1e-3)
        kwargs = dict(trials=128, batch_size=64, seed=seed, dtype=dtype,
                      keep_samples=True)
        ref = MonteCarloEngine(graph, model, kernel_backend="numpy", **kwargs).run()
        jit = MonteCarloEngine(graph, model, kernel_backend="numba", **kwargs).run()
        assert np.array_equal(ref.samples.samples(), jit.samples.samples())
        ref = CorrelatedNormalEstimator(
            correlation_backend="banded", bandwidth=bandwidth,
            kernel_backend="numpy",
        ).estimate(graph, model)
        jit = CorrelatedNormalEstimator(
            correlation_backend="banded", bandwidth=bandwidth,
            kernel_backend="numba",
        ).estimate(graph, model)
        assert jit.expected_makespan == ref.expected_makespan


# ----------------------------------------------------------------------
# Differential tests against the real compiled kernels (CI accel job)
# ----------------------------------------------------------------------


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
class TestRealJitDifferential:
    @pytest.fixture(autouse=True)
    def fresh(self, clean_state):
        yield

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("workflow,size", [("cholesky", 5), ("lu", 4)])
    def test_mc_engine_bit_identical(self, dtype, workflow, size):
        graph = build_dag(workflow, size)
        model = ExponentialErrorModel.for_graph(graph, 1e-2)
        kwargs = dict(trials=2_048, batch_size=512, seed=9, dtype=dtype,
                      keep_samples=True)
        ref = MonteCarloEngine(graph, model, kernel_backend="numpy", **kwargs).run()
        jit = MonteCarloEngine(graph, model, kernel_backend="numba", **kwargs).run()
        assert np.array_equal(ref.samples.samples(), jit.samples.samples())

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("workflow,size", [("cholesky", 8), ("lu", 6), ("qr", 6)])
    def test_wavefront_down_bit_identical(self, dtype, workflow, size):
        _assert_down_sweep_bit_identical(build_dag(workflow, size), dtype, 2_048)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n=st.integers(min_value=2, max_value=24),
        p=st.floats(min_value=0.05, max_value=0.9),
        dtype=st.sampled_from(["float64", "float32"]),
        bandwidth=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_hypothesis_differential(self, n, p, dtype, bandwidth, seed):
        graph = erdos_renyi_dag(n, p, rng=np.random.default_rng(seed))
        model = ExponentialErrorModel.for_graph(graph, 1e-3)
        kwargs = dict(trials=256, batch_size=128, seed=seed, dtype=dtype,
                      keep_samples=True)
        ref = MonteCarloEngine(graph, model, kernel_backend="numpy", **kwargs).run()
        jit = MonteCarloEngine(graph, model, kernel_backend="numba", **kwargs).run()
        assert np.array_equal(ref.samples.samples(), jit.samples.samples())
        ref = CorrelatedNormalEstimator(
            correlation_backend="banded", bandwidth=bandwidth,
            kernel_backend="numpy",
        ).estimate(graph, model)
        jit = CorrelatedNormalEstimator(
            correlation_backend="banded", bandwidth=bandwidth,
            kernel_backend="numba",
        ).estimate(graph, model)
        assert jit.expected_makespan == ref.expected_makespan

    def test_moment_fold_close(self):
        graph = build_dag("qr", 5)
        rng = np.random.default_rng(17)
        mean = rng.uniform(0.5, 2.0, graph.num_tasks)
        var = rng.uniform(0.01, 0.2, graph.num_tasks)
        m_ref, v_ref = propagate_moments(graph, mean, var, kernel_backend="numpy")
        m_jit, v_jit = propagate_moments(graph, mean, var, kernel_backend="numba")
        np.testing.assert_allclose(m_jit, m_ref, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(v_jit, v_ref, rtol=1e-9, atol=1e-12)
