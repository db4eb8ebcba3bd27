"""Differential tests of the correlation-storage backends.

Contracts (see :mod:`repro.estimators.correlation`):

* ``banded`` is **bit-identical** to ``dense`` whenever
  the bandwidth covers the exact bandwidth of the schedule — the max edge
  level span joined with the sinks' level spread — which is what the
  default ``bandwidth=None`` resolves to;
* below the exact bandwidth the approximation error is bounded and shrinks
  monotonically as the bandwidth grows;
* the memory guard refuses over-budget stores *before* allocating, naming
  the selected backend and the bandwidth that would fit.
"""

import multiprocessing
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from oracles.estimators import sequential_correlated_estimate
from repro.core.kernels import schedule_for
from repro.estimators.correlated import CorrelatedNormalEstimator
from repro.estimators.correlation import (
    BandedCorrelationStore,
    DenseCorrelationStore,
    exact_bandwidth,
    largest_feasible_bandwidth,
    projected_store_bytes,
)
from repro.exceptions import EstimationError, OptionError, ReproError
from repro.failures.models import ExponentialErrorModel
from repro.options import KNOBS
from repro.workflows.registry import build_dag

#: The DAG families of the paper's figure suite plus the extra workloads.
CASES = [
    ("cholesky", 8, 1e-2),
    ("lu", 6, 1e-2),
    ("qr", 6, 1e-3),
    ("gemm", 5, 1e-2),
    ("stencil", 6, 5e-2),
    ("mapreduce", 8, 1e-2),
]


def _processes_available() -> bool:
    try:
        with ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context()
        ) as pool:
            return pool.submit(int, 1).result(timeout=60) == 1
    except Exception:
        return False


HAS_PROCESSES = _processes_available()


@pytest.fixture(scope="module")
def estimates():
    """Dense reference estimates, one per workflow case."""
    out = {}
    for workflow, size, pfail in CASES:
        graph = build_dag(workflow, size)
        model = ExponentialErrorModel.for_graph(graph, pfail)
        dense = CorrelatedNormalEstimator(correlation_backend="dense").estimate(
            graph, model
        )
        out[workflow] = (graph, model, dense)
    return out


def _run(graph, model, **kwargs):
    return CorrelatedNormalEstimator(**kwargs).estimate(graph, model)


class TestBitEquality:
    @pytest.mark.parametrize("workflow,size,pfail", CASES)
    @pytest.mark.parametrize("backend", ["banded"])
    def test_auto_bandwidth_bit_equal_to_dense(
        self, workflow, size, pfail, backend, estimates
    ):
        graph, model, dense = estimates[workflow]
        result = _run(graph, model, correlation_backend=backend)
        assert result.expected_makespan == dense.expected_makespan
        assert result.details["makespan_variance"] == dense.details["makespan_variance"]

    @pytest.mark.parametrize("workflow,size,pfail", CASES)
    @pytest.mark.parametrize("exec_backend", [
        "threads",
        pytest.param("processes", marks=pytest.mark.skipif(
            not HAS_PROCESSES, reason="process pools unavailable"
        )),
    ])
    def test_parallel_banded_bit_equal_to_serial_dense(
        self, workflow, size, pfail, exec_backend, estimates
    ):
        graph, model, dense = estimates[workflow]
        result = _run(
            graph, model, correlation_backend="banded",
            exec_backend=exec_backend, workers=2,
        )
        assert result.expected_makespan == dense.expected_makespan
        assert result.details["makespan_variance"] == dense.details["makespan_variance"]

    @pytest.mark.parametrize("workflow,size,pfail", CASES[:3])
    def test_over_wide_band_still_bit_equal(self, workflow, size, pfail, estimates):
        graph, model, dense = estimates[workflow]
        schedule = schedule_for(graph.index(), "up")
        sink_rows = schedule.rank[graph.index().sink_indices()]
        wide = exact_bandwidth(schedule, sink_rows) + 3
        result = _run(
            graph, model, correlation_backend="banded", bandwidth=wide
        )
        assert result.expected_makespan == dense.expected_makespan

    @pytest.mark.parametrize("workflow,size,pfail", CASES[:2])
    def test_dense_matches_sequential_reference(self, workflow, size, pfail, estimates):
        graph, model, dense = estimates[workflow]
        seq_mean, seq_var = sequential_correlated_estimate(graph, model)
        assert dense.expected_makespan == pytest.approx(seq_mean, rel=1e-9)
        assert dense.details["makespan_variance"] == pytest.approx(
            seq_var, rel=1e-9, abs=1e-15
        )


class TestApproximationError:
    @pytest.mark.parametrize("workflow,size,pfail", CASES)
    @pytest.mark.parametrize("backend", ["banded"])
    def test_error_bounded_and_monotone_in_bandwidth(
        self, workflow, size, pfail, backend, estimates
    ):
        graph, model, dense = estimates[workflow]
        reference = dense.expected_makespan
        schedule = schedule_for(graph.index(), "up")
        sink_rows = schedule.rank[graph.index().sink_indices()]
        exact = exact_bandwidth(schedule, sink_rows)
        errors = []
        for bandwidth in range(exact + 1):
            value = _run(
                graph, model, correlation_backend=backend, bandwidth=bandwidth
            ).expected_makespan
            errors.append(abs(value - reference) / abs(reference))
        # Bounded: even the narrowest band stays within a few percent of
        # dense on the paper's DAG families at these failure rates.
        assert max(errors) < 0.05
        # Monotone: widening the band never makes the estimate worse
        # (beyond floating-point noise).
        for narrow, wide in zip(errors, errors[1:]):
            assert wide <= narrow + 1e-12
        # At the exact bandwidth the error is identically zero.
        exact_value = _run(
            graph, model, correlation_backend=backend, bandwidth=exact
        ).expected_makespan
        assert exact_value == reference


class TestParallelFold:
    """The per-level fold on the execution service is worker-invariant."""

    @pytest.mark.parametrize("workflow,size,pfail", [CASES[0], CASES[1], CASES[4]])
    @pytest.mark.parametrize("backend", ["dense", "banded"])
    def test_bit_identical_at_any_worker_count(
        self, workflow, size, pfail, backend, estimates
    ):
        graph, model, _ = estimates[workflow]
        results = [
            _run(graph, model, correlation_backend=backend, workers=k)
            for k in (1, 2, 4)
        ]
        assert len({r.expected_makespan for r in results}) == 1
        assert len({r.details["makespan_variance"] for r in results}) == 1

    @pytest.mark.parametrize("workflow,size,pfail", CASES)
    @pytest.mark.parametrize("bandwidth", [0, 1])
    def test_narrow_band_bit_identical_at_any_worker_count(
        self, workflow, size, pfail, bandwidth, estimates
    ):
        # Below the exact bandwidth the fold reads out-of-band zeros; the
        # partitioning must not change which ones.
        graph, model, _ = estimates[workflow]
        results = [
            _run(graph, model, correlation_backend="banded",
                 bandwidth=bandwidth, workers=k)
            for k in (1, 2, 4)
        ]
        assert len({r.expected_makespan for r in results}) == 1
        assert len({r.details["makespan_variance"] for r in results}) == 1

    def test_workers_validation(self):
        with pytest.raises(EstimationError):
            CorrelatedNormalEstimator(workers=0)


class TestStores:
    def test_banded_symmetric_reads(self, cholesky4):
        index = cholesky4.index()
        schedule = schedule_for(index, "up")
        dense = DenseCorrelationStore(schedule)
        banded = BandedCorrelationStore(schedule, schedule.num_levels)
        n = schedule.num_tasks
        rng = np.random.default_rng(0)
        # Write one level through both stores and compare arbitrary reads.
        level = 1
        t_lo, t_hi = int(schedule.level_indptr[1]), int(schedule.level_indptr[2])
        w_lo_d, w_lo_b = dense.window_start(level), banded.window_start(level)
        block = rng.uniform(-1, 1, size=(t_hi - t_lo, t_hi - w_lo_b))
        dense.write_level(level, w_lo_d, block[:, w_lo_b - w_lo_d :] if w_lo_d < w_lo_b else block)
        banded.write_level(level, w_lo_b, block)
        rows = np.arange(n)
        np.testing.assert_array_equal(
            dense.pair_matrix(rows), banded.pair_matrix(rows)
        )

    def test_identity_initialisation(self, diamond):
        schedule = schedule_for(diamond.index(), "up")
        for store in (
            DenseCorrelationStore(schedule),
            BandedCorrelationStore(schedule, 1),
        ):
            pair = store.pair_matrix(np.arange(schedule.num_tasks))
            np.testing.assert_array_equal(pair, np.eye(schedule.num_tasks))

    def test_banded_out_of_band_reads_zero(self, chain3):
        schedule = schedule_for(chain3.index(), "up")
        store = BandedCorrelationStore(schedule, 0)
        pair = store.pair_matrix(np.arange(3))
        np.testing.assert_array_equal(pair, np.eye(3))

    @pytest.mark.parametrize("workflow,size", [("lu", 5), ("cholesky", 5), ("qr", 4)])
    @pytest.mark.parametrize("band", ["0", "1", "2", "exact", "exact+3"])
    def test_gather_matches_masked_symmetric_reference(self, workflow, size, band):
        graph = build_dag(workflow, size)
        schedule = schedule_for(graph.index(), "up")
        exact = exact_bandwidth(schedule, schedule.rank[graph.index().sink_indices()])
        bandwidth = {"exact": exact, "exact+3": exact + 3}.get(band) or int(band)
        store = BandedCorrelationStore(schedule, bandwidth)
        indptr, level = schedule.level_indptr, schedule.row_level
        n = schedule.num_tasks
        # Reference: a row stores the columns of its own level and the
        # ``bandwidth`` levels below it; a lower-level column reads back
        # through symmetry; every other entry is zero.  Every level is
        # written as the fold writes it: its window rows, then its
        # within-level block.
        reference = np.eye(n)
        rng = np.random.default_rng(bandwidth)
        for lev in range(1, schedule.num_levels):
            t_lo, t_hi = int(indptr[lev]), int(indptr[lev + 1])
            w_lo = store.window_start(lev)
            rows_block = rng.uniform(-1, 1, size=(t_hi - t_lo, t_hi - w_lo))
            # Signed zeros must survive every read bit for bit.
            rows_block[rng.random(rows_block.shape) < 0.1] = -0.0
            store.write_level(lev, w_lo, rows_block)
            within = rng.uniform(-1, 1, size=(t_hi - t_lo, t_hi - t_lo))
            store.write_block(lev, within)
            rows_block[:, t_lo - w_lo :] = within
            band_lo = int(indptr[max(0, lev - bandwidth)])
            for r in range(t_lo, t_hi):
                for c in range(band_lo, t_hi):
                    value = rows_block[r - t_lo, c - w_lo]
                    reference[r, c] = value
                    if c < t_lo:
                        reference[c, r] = value
        for r in range(n):
            for c in range(n):
                if abs(int(level[r]) - int(level[c])) > bandwidth:
                    assert reference[r, c] == 0.0

        def check(got, want):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

        rows = np.arange(n)
        for lev in range(schedule.num_levels):
            t_lo, t_hi = int(indptr[lev]), int(indptr[lev + 1])
            w_lo = store.window_start(lev)
            check(store.gather(rows, w_lo, t_hi), reference[:, w_lo:t_hi])
            # The row sets the fold issues: column ``j`` of each degree
            # group's predecessors (unsorted, repeated, spanning levels),
            # over the pass-1 window and the pass-2 within-level window.
            for group in schedule.level_groups(lev) if lev else ():
                for j in range(group.preds.shape[1]):
                    preds = group.preds[:, j]
                    check(store.gather(preds, w_lo, t_hi), reference[preds, w_lo:t_hi])
                    check(store.gather(preds, t_lo, t_hi), reference[preds, t_lo:t_hi])
        check(store.pair_matrix(rows), reference)
        subset = rng.permutation(n)[: max(2, n // 2)]
        check(store.pair_matrix(subset), reference[np.ix_(subset, subset)])

    def test_wide_gather_allocates_little_beyond_its_output(self):
        # The level-block gather allocates its output plus one block copy
        # at a time; per-entry index and mask temporaries would cost
        # several times the output.
        graph = build_dag("cholesky", 16)
        schedule = schedule_for(graph.index(), "up")
        store = BandedCorrelationStore(
            schedule, exact_bandwidth(schedule, schedule.rank[graph.index().sink_indices()])
        )
        rows = np.arange(schedule.num_tasks)
        tracemalloc.start()
        try:
            out = store.gather(rows, 0, schedule.num_tasks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.nbytes >= 1 << 20
        assert peak < 2.5 * out.nbytes

    def test_exact_bandwidth_metadata(self, cholesky4, chain3, diamond):
        for graph, expected in ((chain3, 1), (diamond, 1)):
            index = graph.index()
            schedule = schedule_for(index, "up")
            assert schedule.max_edge_level_span == expected
            assert exact_bandwidth(schedule, schedule.rank[index.sink_indices()]) == expected
        index = cholesky4.index()
        schedule = schedule_for(index, "up")
        assert schedule.max_edge_level_span >= 1
        assert exact_bandwidth(schedule, schedule.rank[index.sink_indices()]) >= (
            schedule.max_edge_level_span
        )

    def test_store_memory_scales_with_band(self, estimates):
        graph, _, _ = estimates["cholesky"]
        schedule = schedule_for(graph.index(), "up")
        narrow = projected_store_bytes(schedule, "banded", 0)
        wide = projected_store_bytes(schedule, "banded", schedule.num_levels)
        dense = projected_store_bytes(schedule, "dense", 0)
        assert narrow < wide
        assert wide < dense  # half-band symmetric storage beats two matrices


class TestMemoryGuard:
    def test_dense_failure_names_backend_and_feasible_bandwidth(self, cholesky4):
        model = ExponentialErrorModel.for_graph(cholesky4, 1e-2)
        estimator = CorrelatedNormalEstimator(
            correlation_backend="dense", max_matrix_bytes=4096
        )
        with pytest.raises(ReproError) as excinfo:
            estimator.estimate(cholesky4, model)
        message = str(excinfo.value)
        assert "dense" in message
        assert str(cholesky4.num_tasks) in message
        assert "bytes" in message
        assert "banded" in message and "bandwidth<=" in message

    def test_banded_failure_names_bandwidth_that_fits(self, cholesky4):
        model = ExponentialErrorModel.for_graph(cholesky4, 1e-2)
        schedule = schedule_for(cholesky4.index(), "up")
        wide = schedule.num_levels
        cap = projected_store_bytes(schedule, "banded", 1)
        estimator = CorrelatedNormalEstimator(
            correlation_backend="banded", bandwidth=wide, max_matrix_bytes=cap
        )
        with pytest.raises(ReproError) as excinfo:
            estimator.estimate(cholesky4, model)
        message = str(excinfo.value)
        assert "banded" in message and "bandwidth<=" in message

    def test_guard_hopeless_case_suggests_sculli(self, cholesky4):
        model = ExponentialErrorModel.for_graph(cholesky4, 1e-2)
        estimator = CorrelatedNormalEstimator(
            correlation_backend="banded", max_matrix_bytes=8
        )
        with pytest.raises(ReproError) as excinfo:
            estimator.estimate(cholesky4, model)
        assert "Sculli" in str(excinfo.value)

    def test_feasible_bandwidth_search(self, cholesky4):
        schedule = schedule_for(cholesky4.index(), "up")
        huge = largest_feasible_bandwidth(schedule, "banded", 1 << 40)
        assert huge == schedule.num_levels - 1
        assert largest_feasible_bandwidth(schedule, "banded", 8) is None

    def test_banded_admits_what_dense_refuses(self, estimates):
        graph, model, dense = estimates["cholesky"]
        schedule = schedule_for(graph.index(), "up")
        sink_rows = schedule.rank[graph.index().sink_indices()]
        banded_bytes = projected_store_bytes(
            schedule, "banded", exact_bandwidth(schedule, sink_rows)
        )
        dense_bytes = projected_store_bytes(schedule, "dense", 0)
        assert banded_bytes < dense_bytes
        cap = (banded_bytes + dense_bytes) // 2
        with pytest.raises(ReproError):
            CorrelatedNormalEstimator(
                correlation_backend="dense", max_matrix_bytes=cap
            ).estimate(graph, model)
        result = CorrelatedNormalEstimator(
            correlation_backend="banded", max_matrix_bytes=cap
        ).estimate(graph, model)
        assert result.expected_makespan == dense.expected_makespan


class TestKnobs:
    def test_invalid_backend_rejected(self):
        for backend in ("sparse", "lowrank"):
            with pytest.raises(EstimationError):
                CorrelatedNormalEstimator(correlation_backend=backend)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(EstimationError):
            CorrelatedNormalEstimator(correlation_backend="banded", bandwidth=-1)

    def test_knobs_the_backend_would_ignore_are_rejected(self):
        # An explicit bandwidth must not be silently ignored by a backend
        # that does not consume it.
        with pytest.raises(EstimationError, match="banded"):
            CorrelatedNormalEstimator(bandwidth=2)

    def test_env_knobs_stay_lenient_for_other_backends(self, monkeypatch):
        # A globally exported REPRO_CORR_BANDWIDTH must not poison dense
        # runs — only explicit constructor arguments conflict.
        monkeypatch.setenv("REPRO_CORR_BANDWIDTH", "2")
        estimator = CorrelatedNormalEstimator(correlation_backend="dense")
        assert estimator.correlation_backend == "dense"

    def test_env_overrides_fill_unset_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORR_BACKEND", "banded")
        monkeypatch.setenv("REPRO_CORR_BANDWIDTH", "2")
        estimator = CorrelatedNormalEstimator()
        assert estimator.correlation_backend == "banded"
        assert estimator.bandwidth == 2
        monkeypatch.setenv("REPRO_CORR_BANDWIDTH", "auto")
        assert CorrelatedNormalEstimator().bandwidth is None

    def test_explicit_argument_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORR_BACKEND", "banded")
        estimator = CorrelatedNormalEstimator(correlation_backend="dense")
        assert estimator.correlation_backend == "dense"

    def test_invalid_env_rejected(self, monkeypatch):
        for value in ("gpu", "lowrank"):
            monkeypatch.setenv("REPRO_CORR_BACKEND", value)
            with pytest.raises(OptionError, match="REPRO_CORR_BACKEND"):
                CorrelatedNormalEstimator()
        monkeypatch.delenv("REPRO_CORR_BACKEND")
        monkeypatch.setenv("REPRO_CORR_BANDWIDTH", "wide")
        with pytest.raises(EstimationError):
            CorrelatedNormalEstimator()

    def test_details_expose_backend_and_band(self, estimates):
        graph, model, dense = estimates["mapreduce"]
        assert dense.details["correlation_backend"] == "dense"
        banded = _run(graph, model, correlation_backend="banded")
        assert banded.details["correlation_backend"] == "banded"
        assert banded.details["correlation_bandwidth"] == banded.details["exact_bandwidth"]
        assert banded.details["correlation_store_bytes"] < dense.details["correlation_store_bytes"]

    def test_config_and_cli_threading(self, monkeypatch):
        from repro.experiments.config import (
            FigureConfig,
            correlation_backend,
            correlation_bandwidth,
            estimator_options_for,
        )
        from repro.exceptions import ExperimentError

        # Hermetic against the caller's environment (CI's chaos job
        # exports REPRO_EXEC_*): the options dict below is compared exactly.
        for knob in KNOBS.values():
            monkeypatch.delenv(knob.env, raising=False)
        assert correlation_backend() is None
        assert correlation_backend("banded") == "banded"
        monkeypatch.setenv("REPRO_CORR_BACKEND", "dense")
        assert correlation_backend("banded") == "dense"  # environment wins
        monkeypatch.setenv("REPRO_CORR_BACKEND", "gpu")
        with pytest.raises(ExperimentError):
            correlation_backend()
        monkeypatch.delenv("REPRO_CORR_BACKEND")

        monkeypatch.setenv("REPRO_CORR_BANDWIDTH", "auto")
        assert correlation_bandwidth(3) is None  # environment wins
        monkeypatch.delenv("REPRO_CORR_BANDWIDTH")
        assert correlation_bandwidth(3) == 3

        config = FigureConfig(
            figure="t", workflow="lu", pfail=1e-3,
            corr_backend="banded", corr_bandwidth=2,
        )
        options = estimator_options_for(config, "normal-correlated")
        assert options == {"correlation_backend": "banded", "bandwidth": 2}
        assert estimator_options_for(config, "dodin") == {}
        with pytest.raises(ExperimentError):
            FigureConfig(figure="t", workflow="lu", pfail=1e-3, corr_backend="gpu")

    def test_config_rejects_removed_backend(self):
        from repro.experiments.config import FigureConfig
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            FigureConfig(figure="t", workflow="lu", pfail=1e-3, corr_backend="lowrank")
        with pytest.raises(TypeError):
            FigureConfig(figure="t", workflow="lu", pfail=1e-3, corr_rank=4)

    @pytest.mark.parametrize("flags", [
        ["--corr-backend", "lowrank"],
        ["--corr-rank", "4"],
    ])
    def test_cli_rejects_removed_flags(self, flags, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "estimate", "--workflow", "mapreduce", "--size", "6",
                "--method", "normal-correlated", *flags,
            ])
        assert excinfo.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_cli_estimate_passes_corr_flags(self, capsys):
        from repro.cli import main

        code = main([
            "estimate", "--workflow", "mapreduce", "--size", "6",
            "--method", "normal-correlated",
            "--corr-backend", "banded", "--corr-bandwidth", "1",
        ])
        assert code == 0
        assert "normal-correlated" in capsys.readouterr().out
