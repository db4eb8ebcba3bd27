"""Statistical tests of the two-state Monte Carlo failure sampler.

The engine draws a batch's failed ``(trial, task)`` cells by geometric
skips with thinning (:meth:`repro.sim.engine._BatchWorker._failed_cells`).
These tests read the sampled cells from that walk and check that every
cell fails independently with the probability of its task, and that a
batch draws far fewer variates than it has cells.
"""

import numpy as np
import pytest

from repro.core.generators import chain_graph
from repro.exec import partition_stream
from repro.failures.models import ExponentialErrorModel, FixedProbabilityModel
from repro.sim.engine import MonteCarloEngine
from repro.workflows.registry import build_dag


class _GivenProbabilities(FixedProbabilityModel):
    """Per-task failure probabilities given in task-index order."""

    def __init__(self, q) -> None:
        super().__init__(0.0)
        self.q = np.asarray(q, dtype=np.float64)

    def failure_probabilities(self, weights):
        return self.q.copy()


class _SpyGenerator:
    """Records the number of variates of every ``random`` draw."""

    def __init__(self, rng) -> None:
        self.rng = rng
        self.draws = []

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def random(self, size=None, **kwargs):
        out = kwargs.get("out")
        shape = out.shape if out is not None else size
        self.draws.append(int(np.prod(shape)) if shape is not None else 1)
        return self.rng.random(size, **kwargs)


def _failure_cells(engine, batches):
    """Per-task ``(tasks, trials)`` failures of ``batches`` sampled batches."""
    slot = engine._slot
    batch, n = slot.plan.capacity, slot.plan.schedule.num_tasks
    out = []
    for b in range(batches):
        failed = np.zeros((n, batch), dtype=bool)
        rng = partition_stream(engine.seed_entropy, b)
        for task, trials in slot._failed_cells(batch, rng):
            failed[task, trials] = True
        out.append(failed)
    return np.concatenate(out, axis=1)


Q_SPARSE = [0.0, 0.02, 1e-3, 0.05, 0.05, 0.3e-3, 0.0, 0.011]
Q_CERTAIN = [0.0, 0.2, 1.0, 0.5, 1.0, 0.01]


@pytest.mark.parametrize("q", [Q_SPARSE, Q_CERTAIN], ids=["q_max<1", "q=1"])
def test_per_task_failure_counts_are_binomial(q):
    q = np.asarray(q)
    graph = chain_graph(q.size, weight=np.arange(1.0, q.size + 1.0))
    engine = MonteCarloEngine(
        graph, _GivenProbabilities(q), trials=2_048, batch_size=2_048, seed=11
    )
    failed = _failure_cells(engine, batches=50)
    trials = failed.shape[1]
    counts = failed.sum(axis=1)
    sigma = np.sqrt(trials * q * (1.0 - q))
    # q = 0 never fails and q = 1 always does: sigma = 0 there.
    assert np.all(np.abs(counts - trials * q) <= 5.0 * sigma)
    assert counts[q == 0.0].sum() == 0
    assert np.all(counts[q == 1.0] == trials)


def test_per_trial_failure_count_moments():
    rng = np.random.default_rng(5)
    q = rng.uniform(0.0, 0.02, size=60)
    q[[3, 17]] = 0.0
    graph = chain_graph(q.size, weight=np.arange(1.0, q.size + 1.0))
    engine = MonteCarloEngine(
        graph, _GivenProbabilities(q), trials=4_096, batch_size=4_096, seed=3
    )
    per_trial = _failure_cells(engine, batches=40).sum(axis=0)
    trials = per_trial.size
    # Cumulants of a sum of independent Bernoulli(q_i) variables.
    k2 = np.sum(q * (1.0 - q))
    k4 = np.sum(q * (1.0 - q) * (1.0 - 6.0 * q * (1.0 - q)))
    assert abs(per_trial.mean() - q.sum()) <= 5.0 * np.sqrt(k2 / trials)
    variance_sigma = np.sqrt((k4 + 2.0 * k2 * k2) / trials)
    assert abs(per_trial.var(ddof=1) - k2) <= 5.0 * variance_sigma


def test_a_batch_draws_far_fewer_variates_than_cells():
    graph = build_dag("cholesky", 10)
    model = ExponentialErrorModel.for_graph(graph, 1e-3)
    engine = MonteCarloEngine(graph, model, trials=4_096, seed=2)
    slot = engine._slot
    batch, n = slot.plan.capacity, graph.num_tasks
    for b in range(4):
        spy = _SpyGenerator(partition_stream(engine.seed_entropy, b))
        makespans = slot.evaluate(batch, spy)
        assert spy.draws and max(spy.draws) < batch * n
        assert sum(spy.draws) < 0.01 * batch * n
        # The spy is transparent: the same batch from the plain stream.
        plain = slot.evaluate(batch, partition_stream(engine.seed_entropy, b))
        assert np.array_equal(makespans, plain)


def test_no_failure_probability_draws_nothing():
    graph = build_dag("cholesky", 4)
    engine = MonteCarloEngine(graph, FixedProbabilityModel(0.0), trials=64, seed=0)
    spy = _SpyGenerator(partition_stream(engine.seed_entropy, 0))
    makespans = engine._slot.evaluate(64, spy)
    assert spy.draws == []
    assert np.all(makespans == makespans[0])
