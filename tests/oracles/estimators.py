"""Per-task reference implementations of the wavefront estimators.

The pre-kernel, one-Python-iteration-per-task versions of the Sculli
moment propagation, the second-order ``up``/``down`` pair sweep, the
discrete topological sweep and the correlation-aware normal propagation,
plus the scalar-arithmetic Dodin reduction.  They exist only as test
oracles: the differential suites assert that the package's batched
estimators agree with them (bit for bit or to <= 1e-9), and
``benchmarks/test_bench_estimator_wavefront.py`` times the package
against them.  The bodies are unchanged from when they lived in
``repro.estimators``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.core.graph import GraphIndex, TaskGraph
from repro.estimators.dodin import DodinEstimator
from repro.failures.models import ErrorModel
from repro.failures.twostate import TwoStateDistribution
from repro.rv.discrete import DiscreteRV
from repro.rv.normal import NormalRV, clark_max, clark_max_moments, norm_cdf

__all__ = [
    "sequential_completion_moments",
    "sequential_pair_up_down",
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
