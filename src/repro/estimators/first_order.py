"""The paper's contribution: the first-order approximation of ``E(G)``.

Section IV derives, by neglecting every ``O(λ²)`` term (equivalently, by
assuming that no task fails more than once and that at most one task of the
whole graph fails),

.. math::

    E(G) \\;=\\; d(G) \\; + \\; \\lambda \\sum_{i \\in V} a_i \\,(d(G_i) - d(G))
    \\; + \\; O(\\lambda^2),

where ``d(G)`` is the failure-free makespan and ``G_i`` is ``G`` with task
``i``'s weight doubled.

Two evaluation strategies are provided:

* ``mode="fast"`` (default) — a single ``O(|V| + |E|)`` pass.  With
  ``up(i)`` / ``down(i)`` the longest paths ending / starting at ``i``
  (inclusive), doubling ``a_i`` yields
  ``d(G_i) = max(d(G), up(i) + down(i))``, so the correction term is
  ``λ Σ_i a_i · max(0, up(i) + down(i) − d(G))``.
* ``mode="naive"`` — recompute ``d(G_i)`` from scratch for every task, in
  ``O(|V|² + |V|·|E|)`` as analysed in the paper.  Kept for cross-checking
  and for the complexity ablation benchmark.

Both modes produce bit-identical results on the same input (this is asserted
by the test suite and by a property-based test).
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..core.graph import TaskGraph
from ..core.paths import compute_path_metrics, makespan_with_weights
from ..exceptions import EstimationError
from ..failures.models import ErrorModel, ExponentialErrorModel
from .base import EstimateResult, MakespanEstimator

__all__ = [
    "FirstOrderEstimator",
    "first_order_expected_makespan",
    "first_order_factors",
]


def first_order_factors(model: ErrorModel, weights: np.ndarray) -> np.ndarray:
    """Per-task first-order factors: ``λ a_i``, or ``q_i`` without a rate.

    The paper's expansion weighs task ``i`` by ``λ a_i``.  Models without
    an error rate (e.g. :class:`~repro.failures.models.FixedProbabilityModel`)
    fall back to the per-attempt failure probability, which plays its role.
    Shared by :class:`FirstOrderEstimator` and the error-aware bottom levels
    of :mod:`repro.scheduling.priorities`.
    """
    rate = getattr(model, "error_rate", None)
    if rate is None:
        return np.asarray(model.failure_probabilities(weights), dtype=np.float64)
    return float(rate) * weights


class FirstOrderEstimator(MakespanEstimator):
    """First-order (in the error rate λ) expected-makespan approximation.

    Parameters
    ----------
    mode:
        ``"fast"`` for the ``O(V + E)`` evaluation, ``"naive"`` for the
        per-task re-evaluation of the paper's complexity analysis.
    use_exact_probabilities:
        When ``True`` the per-task failure probability ``1 − e^{-λ a_i}`` is
        used instead of its first-order expansion ``λ a_i``.  The paper's
        derivation uses ``λ a_i``; the exact-probability variant changes the
        estimate only at order ``λ²`` and is exposed for the ablation study.
    """

    name = "first-order"

    def __init__(
        self,
        *,
        mode: Literal["fast", "naive"] = "fast",
        use_exact_probabilities: bool = False,
        validate: bool = True,
    ) -> None:
        super().__init__(validate=validate)
        if mode not in ("fast", "naive"):
            raise EstimationError(f"unknown first-order mode {mode!r}")
        self.mode = mode
        self.use_exact_probabilities = use_exact_probabilities

    # ------------------------------------------------------------------
    def _failure_weights(self, model: ErrorModel, weights: np.ndarray) -> np.ndarray:
        """Per-task factors multiplying ``(d(G_i) − d(G))``.

        In the paper this factor is ``λ a_i``; with exact probabilities it is
        ``1 − e^{-λ a_i}`` (or whatever the model returns).
        """
        if self.use_exact_probabilities:
            return np.asarray(model.failure_probabilities(weights), dtype=np.float64)
        return first_order_factors(model, weights)

    def _estimate(self, graph: TaskGraph, model: ErrorModel) -> EstimateResult:
        index = graph.index()
        weights = index.weights

        if self.mode == "fast":
            metrics = compute_path_metrics(index)
            d_g = metrics.critical_length
            doubled = metrics.doubled_makespans()
        else:
            d_g = makespan_with_weights(index, weights)
            doubled = np.empty(index.num_tasks, dtype=np.float64)
            for i in range(index.num_tasks):
                perturbed = weights.copy()
                perturbed[i] *= 2.0
                doubled[i] = makespan_with_weights(index, perturbed)

        factors = self._failure_weights(model, weights)
        correction = float(np.dot(factors, doubled - d_g))
        expected = d_g + correction
        # μ = Σ q_i with the exact per-task probabilities: the expansion
        # assumes at most one failure, so μ ≳ 1 flags a run outside its
        # regime.
        expected_failures = float(np.sum(model.failure_probabilities(weights)))

        return EstimateResult(
            method=self.name,
            expected_makespan=expected,
            failure_free_makespan=d_g,
            wall_time=0.0,
            details={
                "mode": self.mode,
                "correction": correction,
                "use_exact_probabilities": self.use_exact_probabilities,
                "num_critical_tasks": int(np.count_nonzero(doubled - d_g > 0)),
                "expected_failures": expected_failures,
            },
        )


def first_order_expected_makespan(
    graph: TaskGraph,
    error_rate: float,
    *,
    mode: Literal["fast", "naive"] = "fast",
) -> float:
    """Functional shortcut: first-order expected makespan for a given λ."""
    estimator = FirstOrderEstimator(mode=mode)
    model = ExponentialErrorModel(error_rate)
    return estimator.estimate(graph, model).expected_makespan
