"""Per-task reference implementations of the wavefront estimators.

The pre-kernel, one-Python-iteration-per-task versions of the Sculli
moment propagation, the second-order ``up``/``down`` pair sweep, the
discrete topological sweep and the correlation-aware normal propagation,
plus the scalar-arithmetic Dodin reduction and the unpruned second-order
pair sum (every task swept, every pair summed).  They exist only as test
oracles: the differential suites assert that the package's batched
estimators agree with them (bit for bit or to <= 1e-9), and
``benchmarks/test_bench_estimator_wavefront.py`` times the package
against them.  The bodies are unchanged from when they lived in
``repro.estimators``.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.graph import GraphIndex, TaskGraph
from repro.core.kernels import WavefrontKernel
from repro.core.paths import compute_path_metrics
from repro.estimators.dodin import DodinEstimator
from repro.failures.models import ErrorModel
from repro.failures.twostate import TwoStateDistribution
from repro.rv.discrete import DiscreteRV
from repro.rv.normal import NormalRV, clark_max, clark_max_moments, norm_cdf

__all__ = [
    "sequential_completion_moments",
    "sequential_pair_up_down",
    "unpruned_second_order_estimates",
    "sequential_sweep_estimate",
    "sequential_dodin_estimate",
    "sequential_correlated_estimate",
]


def sequential_completion_moments(
    index: GraphIndex, model: ErrorModel, reexecution_factor: float = 2.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference per-task propagation (one Python iteration per task).

    This is the pre-kernel implementation, retained verbatim as the ground
    truth of the differential tests and the baseline of the estimator
    throughput benchmark.
    """
    n = index.num_tasks
    weights = index.weights
    completion_mean = np.zeros(n, dtype=np.float64)
    completion_var = np.zeros(n, dtype=np.float64)
    indptr, indices = index.pred_indptr, index.pred_indices
    for i in index.topo_order:
        law = TwoStateDistribution.from_model(
            float(weights[i]), model, reexecution_factor=reexecution_factor
        )
        preds = indices[indptr[i] : indptr[i + 1]]
        if preds.size == 0:
            ready = NormalRV.degenerate(0.0)
        else:
            ready = NormalRV(completion_mean[preds[0]], completion_var[preds[0]])
            for p in preds[1:]:
                ready = clark_max(
                    ready, NormalRV(completion_mean[p], completion_var[p]), 0.0
                )
        total = ready.add_independent(NormalRV(law.mean, law.variance))
        completion_mean[i] = total.mean
        completion_var[i] = total.variance
    return completion_mean, completion_var


def sequential_pair_up_down(
    index: GraphIndex, weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference per-task ``up``/``down`` sweep for one weight assignment.

    The pre-kernel inner loops of the pair-term computation, kept as the
    bit-exactness oracle of the differential tests.
    """
    n = index.num_tasks
    indptr_p, indices_p = index.pred_indptr, index.pred_indices
    indptr_s, indices_s = index.succ_indptr, index.succ_indices
    topo = index.topo_order
    up = np.zeros(n, dtype=np.float64)
    for v in topo:
        preds = indices_p[indptr_p[v] : indptr_p[v + 1]]
        up[v] = weights[v] + (up[preds].max() if preds.size else 0.0)
    down = np.zeros(n, dtype=np.float64)
    for v in topo[::-1]:
        succs = indices_s[indptr_s[v] : indptr_s[v + 1]]
        down[v] = weights[v] + (down[succs].max() if succs.size else 0.0)
    return up, down


class _UnprunedPairSlot:
    """The per-estimate inputs of :func:`unpruned_pair_chunk`."""

    def __init__(self, index, weights, q, base, one_minus_q, d_single, d_g):
        self.kernel_up = WavefrontKernel(index, direction="up", dtype=np.float64)
        self.kernel_down = WavefrontKernel(index, direction="down", dtype=np.float64)
        self.weights = weights
        self.q = q
        self.base = base
        self.one_minus_q = one_minus_q
        self.d_single = d_single
        self.d_g = d_g


def unpruned_pair_chunk(
    bounds: Tuple[int, int], slot: _UnprunedPairSlot
) -> Tuple[float, float, float]:
    """One scenario chunk of the pair sweep: its partial pair sums.

    Doubles each task of the chunk in turn, sweeps the ``(chunk, tasks)``
    scenario block up and down, and accumulates the pair terms of every
    doubled task in task order.
    """
    start, stop = bounds
    n = slot.weights.shape[0]
    chunk = np.arange(start, stop)
    scenario = np.broadcast_to(slot.weights, (chunk.size, n)).copy()
    scenario[np.arange(chunk.size), chunk] *= 2.0
    slot.kernel_up.load(scenario)
    slot.kernel_up.propagate(chunk.size)
    ups = slot.kernel_up.completion_matrix(chunk.size)  # (tasks, chunk)
    slot.kernel_down.load(scenario)
    slot.kernel_down.propagate(chunk.size)
    downs = slot.kernel_down.completion_matrix(chunk.size)
    through = ups + downs
    contribution = 0.0
    probability = 0.0
    worst = slot.d_g
    for offset, i in enumerate(chunk):
        d_pair = np.maximum(slot.d_single[i], through[:, offset])
        # P({i, j}) = q_i q_j prod_{l not in {i,j}} (1 - q_l)
        p_pair = slot.q[i] * slot.q * slot.base / slot.one_minus_q[i]
        p_pair[i] = 0.0
        d_pair[i] = 0.0
        contribution += float(np.dot(p_pair, d_pair))
        probability += float(p_pair.sum())
        if d_pair.size:
            worst = max(worst, float(d_pair.max()))
    return contribution, probability, worst


def unpruned_second_order_estimates(
    graph: TaskGraph, model: ErrorModel, chunk_size: int = 128
) -> Dict[str, float]:
    """The second-order estimate with one pair sweep for *every* task.

    The pre-pruning ``SecondOrderEstimator`` sum, run serially: every task
    is doubled in turn and its pair terms ``P({i, j})·L({i, j})`` are
    summed over all ``j``, each unordered pair counted twice and halved.
    Returns the estimate under each ``tail_handling`` mode.
    """
    index = graph.index()
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

    worst_pair = d_g
    if n >= 2:
        base = np.exp(log_all - np.log(one_minus_q))
        slot = _UnprunedPairSlot(index, weights, q, base, one_minus_q, d_single, d_g)
        contribution = probability = 0.0
        for start in range(0, n, chunk_size):
            part = unpruned_pair_chunk((start, min(start + chunk_size, n)), slot)
            contribution += part[0]
            probability += part[1]
            worst_pair = max(worst_pair, part[2])
        expected += 0.5 * contribution
        covered += 0.5 * probability

    residual = max(0.0, 1.0 - covered)
    return {
        "failure-free": expected + residual * d_g,
        "drop": expected,
        "worst-pair": expected + residual * worst_pair,
    }


def sequential_sweep_estimate(
    graph: TaskGraph,
    model: ErrorModel,
    *,
    max_support: int = 128,
    reexecution_factor: float = 2.0,
) -> DiscreteRV:
    """Reference per-task sweep returning the makespan distribution.

    The pre-kernel implementation (one :class:`DiscreteRV` operation chain
    per task), retained verbatim as the oracle of the differential tests
    and the baseline of the estimator throughput benchmark.
    """
    index = graph.index()
    weights = index.weights
    indptr, indices = index.pred_indptr, index.pred_indices
    cap = max_support

    completion = [None] * index.num_tasks
    zero = DiscreteRV.constant(0.0)
    for i in index.topo_order:
        law = TwoStateDistribution.from_model(
            float(weights[i]), model, reexecution_factor=reexecution_factor
        ).to_discrete()
        preds = indices[indptr[i] : indptr[i + 1]]
        if preds.size == 0:
            ready = zero
        else:
            ready = completion[preds[0]]
            for p in preds[1:]:
                ready = ready.maximum(completion[p], max_support=cap)
        completion[i] = ready.add(law, max_support=cap)

    sinks = index.sink_indices()
    makespan = completion[sinks[0]]
    for s in sinks[1:]:
        makespan = makespan.maximum(completion[s], max_support=cap)
    return makespan


def sequential_dodin_estimate(
    graph: TaskGraph,
    model: ErrorModel,
    *,
    max_support: int = 64,
    max_duplications: Optional[int] = None,
    reexecution_factor: float = 2.0,
) -> float:
    """Scalar-arithmetic reference of the batched Dodin estimator.

    Runs the *same* round schedule (independent arc groups, selection-order
    parallel merges, deepest-first independent-join duplication rounds)
    with one scalar :class:`~repro.rv.discrete.DiscreteRV` operation per
    arc — the oracle of the differential tests: at the tested sizes the
    batched estimator agrees with this value to <= 1e-9 relative error at
    any worker count (the module docstring gives the measured gap on
    larger DAGs).
    """
    return (
        DodinEstimator(
            max_support=max_support,
            max_duplications=max_duplications,
            reexecution_factor=reexecution_factor,
            batched=False,
        )
        .estimate(graph, model)
        .expected_makespan
    )


def _sequential_fold_sinks(
    index, mean: np.ndarray, var: np.ndarray, corr: np.ndarray
) -> NormalRV:
    """Full-matrix sink fold of the sequential reference.

    Kept verbatim from the pre-backend implementation (blending the full
    ``n``-wide correlation rows) so the oracle shares *no* code with the
    production sweep's restricted sink fold.
    """
    n = mean.shape[0]
    sinks = index.sink_indices()
    final = NormalRV(float(mean[sinks[0]]), float(var[sinks[0]]))
    final_corr = corr[int(sinks[0])].copy()
    for s_raw in sinks[1:]:
        s = int(s_raw)
        rho = float(np.clip(final_corr[s], -1.0, 1.0))
        m, v = clark_max_moments(final.mean, final.variance, mean[s], var[s], rho)
        sigma1, sigma2 = final.std, math.sqrt(max(var[s], 0.0))
        a = math.sqrt(max(final.variance + var[s] - 2 * rho * sigma1 * sigma2, 0.0))
        if v <= 0.0:
            final_corr = np.zeros(n, dtype=np.float64)
        elif a == 0.0:
            final_corr = final_corr if final.mean >= mean[s] else corr[s].copy()
        else:
            alpha = (final.mean - mean[s]) / a
            final_corr = (
                sigma1 * norm_cdf(alpha) * final_corr + sigma2 * norm_cdf(-alpha) * corr[s]
            ) / math.sqrt(v)
            np.clip(final_corr, -1.0, 1.0, out=final_corr)
        final = NormalRV(m, v)
    return final


def sequential_correlated_estimate(
    graph: TaskGraph, model: ErrorModel, *, reexecution_factor: float = 2.0
) -> Tuple[float, float]:
    """Reference per-task propagation returning ``(mean, variance)``.

    The pre-kernel implementation (one Python iteration per task, scalar
    Clark formulas, full dense matrix, full-width sink fold), retained
    verbatim as the oracle of the differential tests — it shares no
    storage or fold code with the production sweep.
    """
    index = graph.index()
    n = index.num_tasks
    weights = index.weights
    indptr, indices = index.pred_indptr, index.pred_indices

    mean = np.zeros(n, dtype=np.float64)
    var = np.zeros(n, dtype=np.float64)
    corr = np.eye(n, dtype=np.float64)

    for i in index.topo_order:
        law = TwoStateDistribution.from_model(
            float(weights[i]), model, reexecution_factor=reexecution_factor
        )
        task_mean, task_var = law.mean, law.variance

        preds = indices[indptr[i] : indptr[i + 1]]
        if preds.size == 0:
            ready_mean, ready_var = 0.0, 0.0
            ready_corr = np.zeros(n, dtype=np.float64)
        else:
            first = int(preds[0])
            ready_mean, ready_var = mean[first], var[first]
            ready_corr = corr[first].copy()
            for p_raw in preds[1:]:
                p = int(p_raw)
                rho12 = float(np.clip(ready_corr[p], -1.0, 1.0))
                m, v = clark_max_moments(ready_mean, ready_var, mean[p], var[p], rho12)
                # Correlation of the new maximum with every other
                # completion variable (Clark's third-variable formula).
                sigma1 = math.sqrt(max(ready_var, 0.0))
                sigma2 = math.sqrt(max(var[p], 0.0))
                a_sq = ready_var + var[p] - 2.0 * rho12 * sigma1 * sigma2
                a = math.sqrt(max(a_sq, 0.0))
                if v <= 0.0:
                    new_corr = np.zeros(n, dtype=np.float64)
                elif a == 0.0:
                    new_corr = ready_corr if ready_mean >= mean[p] else corr[p].copy()
                else:
                    alpha = (ready_mean - mean[p]) / a
                    w1 = norm_cdf(alpha)
                    w2 = norm_cdf(-alpha)
                    new_corr = (
                        sigma1 * w1 * ready_corr + sigma2 * w2 * corr[p]
                    ) / math.sqrt(v)
                    np.clip(new_corr, -1.0, 1.0, out=new_corr)
                ready_mean, ready_var, ready_corr = m, v, new_corr

        # C_i = ready + X_i with X_i independent of everything.
        mean[i] = ready_mean + task_mean
        var[i] = ready_var + task_var
        if var[i] > 0.0:
            scale = math.sqrt(max(ready_var, 0.0)) / math.sqrt(var[i])
            row = ready_corr * scale
        else:
            row = np.zeros(n, dtype=np.float64)
        row[i] = 1.0
        corr[i, :] = row
        corr[:, i] = row

    final = _sequential_fold_sinks(index, mean, var, corr)
    return final.mean, final.variance
