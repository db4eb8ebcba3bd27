"""Two-state Monte Carlo sweeps only the trials that failed.

A batch's failed trials are compacted into the kernel's contiguous
``(tasks, m)`` view and swept; every other trial takes the kernel's own
failure-free makespan.  Each case here checks that a batch evaluated that
way is bit-identical to the same stream swept in full, on both dtypes and
on the NumPy and (stub) numba ``propagate``, and that the sweep sees only
the failed trials.
"""

import numpy as np
import pytest

import repro.sim.engine as engine_module
from repro.core.kernels import WavefrontKernel
from repro.exec import partition_stream
from repro.failures.models import ExponentialErrorModel, FixedProbabilityModel
from repro.sim.engine import MonteCarloEngine
from repro.sim.sampler import task_failure_probabilities
from repro.workflows.registry import build_dag
from oracles.two_state_sampling import failure_mask

DTYPES = ["float64", "float32"]


class _GivenProbabilities(FixedProbabilityModel):
    """Per-task failure probabilities given in task-index order."""

    def __init__(self, q) -> None:
        super().__init__(0.0)
        self.q = np.asarray(q, dtype=np.float64)

    def failure_probabilities(self, weights):
        return self.q.copy()


@pytest.fixture(params=["numpy", "numba"])
def kernel_backend(request):
    """The NumPy fold, or the numba loops run as plain Python."""
    if request.param == "numba":
        request.getfixturevalue("stub_numba")
    return request.param


def _full_sweep(engine, batch, b):
    """Batch ``b`` of ``engine`` swept in full from the oracle's mask."""
    plan = engine._plan
    q = task_failure_probabilities(engine.model, engine.index.weights)
    mask = failure_mask(partition_stream(engine.seed_entropy, b), q, batch)
    kernel = WavefrontKernel.from_schedule(
        plan.schedule, dtype=plan.dtype, kernel_backend=plan.kernel_backend
    )
    kernel.weight_view(batch)[...] = np.where(
        mask.T[kernel.perm], plan.fail[:, None], plan.ok[:, None]
    )
    kernel.propagate(batch)
    return kernel.makespans(batch), mask


def _spy_propagate(monkeypatch, slot):
    """Record the width of every sweep of the slot's kernel."""
    widths = []
    sweep = slot.kernel.propagate

    def spy(trials):
        widths.append(trials)
        sweep(trials)

    monkeypatch.setattr(slot.kernel, "propagate", spy)
    return widths


def _evaluate(engine, b, monkeypatch):
    slot = engine._slots[0]
    widths = _spy_propagate(monkeypatch, slot)
    batch = engine._batch_plan()[b]
    makespans = slot.evaluate(batch, partition_stream(engine.seed_entropy, b))
    expected, mask = _full_sweep(engine, batch, b)
    assert makespans.dtype == expected.dtype
    assert makespans.tobytes() == expected.tobytes()
    return widths, mask


@pytest.mark.parametrize("dtype", DTYPES)
def test_a_batch_without_failure_is_not_swept(monkeypatch, dtype, kernel_backend):
    graph = build_dag("cholesky", 4)
    model = FixedProbabilityModel(1e-6)
    engine = MonteCarloEngine(
        graph, model, trials=200, seed=5, dtype=dtype, kernel_backend=kernel_backend
    )
    widths, mask = _evaluate(engine, 0, monkeypatch)
    assert not mask.any()
    assert widths == []


@pytest.mark.parametrize("dtype", DTYPES)
def test_every_trial_failing_sweeps_the_whole_batch(
    monkeypatch, dtype, kernel_backend
):
    graph = build_dag("cholesky", 4)
    model = _GivenProbabilities(np.ones(graph.num_tasks))
    engine = MonteCarloEngine(
        graph, model, trials=200, seed=5, dtype=dtype, kernel_backend=kernel_backend
    )
    widths, mask = _evaluate(engine, 0, monkeypatch)
    assert mask.all()
    assert widths == [200]


@pytest.mark.parametrize("dtype", DTYPES)
def test_a_trial_straddling_two_chunks(monkeypatch, dtype, kernel_backend):
    # 2 kB of variates is 125 candidate cells: a 256-trial batch of 20
    # tasks at q = 0.05 spans several chunks, and is walked twice.
    monkeypatch.setattr(engine_module, "CHUNK_BYTES", 2_000)
    graph = build_dag("cholesky", 4)
    engine = MonteCarloEngine(
        graph, FixedProbabilityModel(0.05), trials=8 * 256, batch_size=256,
        seed=3, dtype=dtype, kernel_backend=kernel_backend,
    )
    slot = engine._slots[0]
    straddles = 0
    for b in range(8):
        rng = partition_stream(engine.seed_entropy, b)
        trials = [chunk[1] for chunk in slot._failed_cells(256, rng)]
        assert len(trials) > 1
        straddles += sum(
            int(left[-1] == right[0]) for left, right in zip(trials, trials[1:])
        )
        widths, mask = _evaluate(engine, b, monkeypatch)
        failed = int(mask.any(axis=1).sum())
        assert 0 < failed < 256 and widths == [failed]
    assert straddles > 0


@pytest.mark.parametrize("dtype", DTYPES)
def test_backends_agree(dtype):
    graph = build_dag("cholesky", 6)
    model = ExponentialErrorModel.for_graph(graph, 5e-3)
    results = [
        MonteCarloEngine(
            graph, model, trials=2_500, batch_size=1_024, seed=17, dtype=dtype,
            backend=backend, workers=workers, keep_samples=True,
        ).run()
        for backend, workers in [("serial", 1), ("threads", 2), ("processes", 2)]
    ]
    reference = results[0].samples.samples()
    # Both kinds of trials occur: failure-free ones and failed ones.
    assert reference.min() < reference.max()
    for result in results[1:]:
        assert np.array_equal(result.samples.samples(), reference)
        assert result.mean == results[0].mean
        assert result.standard_error == results[0].standard_error


def test_the_sweep_sees_only_the_failed_trials(monkeypatch):
    # At the paper's rate most cholesky k=10 trials (220 tasks) have no
    # failed task: a 4,096-trial batch sweeps only ~800 columns.
    graph = build_dag("cholesky", 10)
    model = ExponentialErrorModel.for_graph(graph, 1e-3)
    engine = MonteCarloEngine(graph, model, trials=4_096, seed=2)
    widths, mask = _evaluate(engine, 0, monkeypatch)
    failed = int(mask.any(axis=1).sum())
    assert widths == [failed]
    assert 500 < failed < 1_200


class TestCarvedViews:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_every_width_is_c_contiguous(self, dtype):
        kernel = WavefrontKernel(build_dag("cholesky", 4), dtype=dtype)
        kernel.reserve(64)
        for trials in range(1, 65):
            view = kernel.weight_view(trials)
            assert view.shape == (kernel.num_tasks, trials)
            assert view.flags.c_contiguous
            assert np.shares_memory(view, kernel._buffer)

    @pytest.mark.parametrize("reserved", [True, False])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_a_narrow_sweep_after_a_wide_reserve(self, dtype, reserved, kernel_backend):
        graph = build_dag("cholesky", 5)
        weights = np.random.default_rng(4).uniform(0.5, 2.0, (graph.num_tasks, 48))
        kernel = WavefrontKernel(graph, dtype=dtype, kernel_backend=kernel_backend)
        if reserved:
            kernel.reserve(48)
        else:
            kernel.weight_view(48)
        perm = kernel.perm
        kernel.weight_view(48)[...] = weights[perm]
        kernel.propagate(48)
        wide = kernel.completion_matrix(48)
        for trials in (1, 7, 47):
            kernel.weight_view(trials)[...] = weights[perm, :trials]
            kernel.propagate(trials)
            narrow = kernel.completion_matrix(trials)
            assert narrow.tobytes() == np.ascontiguousarray(wide[:, :trials]).tobytes()
            assert kernel.makespans(trials).tobytes() == wide[:, :trials].max(axis=0).tobytes()
        assert kernel.capacity == 48
