"""Property-based cross-backend determinism tests of the Monte Carlo
executors.

Generalises the hand-picked cases of ``tests/test_mc_backends.py`` to
random small DAGs × random worker counts (hypothesis): the executor
contract of :mod:`repro.sim.executors` says parallel backends derive RNG
streams per *batch* and fold results in batch-index order, so for a fixed
seed

* ``processes`` at any worker count (where the platform can spawn a pool)
  produces identical merged estimates and identical samples, and matches
  ``serial`` exactly;
* early stopping triggers after the *same* trial count at any worker
  count;
* ``serial`` is reproducible run-to-run.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.generators import erdos_renyi_dag
from repro.failures.models import ExponentialErrorModel
from repro.sim.engine import MonteCarloEngine


def _random_case(graph_seed, num_tasks, density, pfail):
    graph = erdos_renyi_dag(
        num_tasks, density, rng=graph_seed, name=f"er-{graph_seed}"
    )
    model = ExponentialErrorModel.for_graph(graph, pfail)
    return graph, model


def _processes_available() -> bool:
    try:
        with ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context()
        ) as pool:
            return pool.submit(int, 1).result(timeout=60) == 1
    except Exception:
        return False


HAS_PROCESSES = _processes_available()

case_strategy = dict(
    graph_seed=st.integers(0, 2**16),
    num_tasks=st.integers(2, 14),
    density=st.floats(min_value=0.1, max_value=0.9),
    pfail=st.sampled_from([1e-3, 1e-2, 5e-2]),
)


@pytest.mark.skipif(not HAS_PROCESSES, reason="process pools unavailable")
class TestProcessesDeterminism:
    @settings(max_examples=15, deadline=None)
    @given(
        **case_strategy,
        workers=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        batch_size=st.sampled_from([64, 128, 256]),
        run_seed=st.integers(0, 2**16),
    )
    def test_identical_across_worker_counts(
        self, graph_seed, num_tasks, density, pfail, workers, batch_size, run_seed
    ):
        graph, model = _random_case(graph_seed, num_tasks, density, pfail)
        kw = dict(trials=600, batch_size=batch_size, seed=run_seed, keep_samples=True)
        a = MonteCarloEngine(
            graph, model, backend="processes", workers=workers[0], **kw
        ).run()
        b = MonteCarloEngine(
            graph, model, backend="processes", workers=workers[1], **kw
        ).run()
        assert np.array_equal(a.samples.samples(), b.samples.samples())
        assert a.mean == b.mean
        assert a.std == b.std
        assert a.trials == b.trials == 600

    @settings(max_examples=10, deadline=None)
    @given(**case_strategy, run_seed=st.integers(0, 2**16))
    def test_serial_reproducible_and_matches_processes(
        self, graph_seed, num_tasks, density, pfail, run_seed
    ):
        graph, model = _random_case(graph_seed, num_tasks, density, pfail)
        kw = dict(trials=800, batch_size=128, seed=run_seed, keep_samples=True)
        serial_a = MonteCarloEngine(graph, model, backend="serial", **kw).run()
        serial_b = MonteCarloEngine(graph, model, backend="serial", **kw).run()
        assert np.array_equal(serial_a.samples.samples(), serial_b.samples.samples())
        processes = MonteCarloEngine(
            graph, model, backend="processes", workers=3, **kw
        ).run()
        # Per-batch streams: the same draws, so the same mean bit for bit.
        assert processes.mean == serial_a.mean

    @settings(max_examples=8, deadline=None)
    @given(
        **case_strategy,
        workers=st.tuples(st.integers(2, 4), st.integers(2, 4)),
        run_seed=st.integers(0, 2**16),
    )
    def test_early_stop_trial_count_identical(
        self, graph_seed, num_tasks, density, pfail, workers, run_seed
    ):
        graph, model = _random_case(graph_seed, num_tasks, density, pfail)
        kw = dict(
            trials=60_000,
            batch_size=256,
            seed=run_seed,
            target_relative_half_width=2e-2,
        )
        a = MonteCarloEngine(
            graph, model, backend="processes", workers=workers[0], **kw
        ).run()
        b = MonteCarloEngine(
            graph, model, backend="processes", workers=workers[1], **kw
        ).run()
        assert a.trials == b.trials
        assert a.mean == b.mean
        assert a.std == b.std

    @pytest.mark.parametrize("graph_seed,num_tasks,density,pfail,run_seed", [
        (7, 10, 0.35, 1e-2, 11),
        (101, 6, 0.6, 5e-2, 23),
        (2024, 13, 0.2, 1e-3, 5),
    ])
    def test_processes_match_serial_exactly(
        self, graph_seed, num_tasks, density, pfail, run_seed
    ):
        graph, model = _random_case(graph_seed, num_tasks, density, pfail)
        kw = dict(trials=1_000, batch_size=256, seed=run_seed, keep_samples=True)
        serial = MonteCarloEngine(graph, model, backend="serial", **kw).run()
        processes = MonteCarloEngine(
            graph, model, backend="processes", workers=2, **kw
        ).run()
        assert np.array_equal(
            processes.samples.samples(), serial.samples.samples()
        )
        assert processes.mean == serial.mean
        assert processes.std == serial.std
        assert processes.trials == serial.trials
