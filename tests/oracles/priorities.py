"""Per-root reference for the first-order expected bottom levels.

The double loop that :func:`repro.scheduling.priorities.expected_bottom_levels_first_order`
ran before it became chunked cone sweeps on the wavefront kernel: one
Python pass over the topological order for every root, ``O(|V|·(|V| + |E|))``.
Kept only as a test oracle (``tests/test_bottom_levels.py`` asserts the
package is bit-identical to it) and as the baseline of
``benchmarks/test_bench_scheduling.py``.  The body is unchanged.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.graph import TaskGraph
from repro.core.paths import downward_lengths
from repro.core.task import TaskId
from repro.failures.models import ErrorModel

__all__ = ["sequential_expected_bottom_levels"]


def sequential_expected_bottom_levels(
    graph: TaskGraph, model: ErrorModel
) -> Dict[TaskId, float]:
    """First-order expected bottom level of every task, one root at a time."""
    index = graph.index()
    n = index.num_tasks
    weights = index.weights
    rate = getattr(model, "error_rate", None)
    if rate is None:
        factors = np.asarray(model.failure_probabilities(weights), dtype=np.float64)
    else:
        factors = float(rate) * weights

    indptr_s, indices_s = index.succ_indptr, index.succ_indices
    topo = index.topo_order

    # down[j]: longest path starting at j (inclusive) -- shared by all
    # roots, evaluated level by level with no compiled schedule.
    down = downward_lengths(index)

    result: Dict[TaskId, float] = {}
    # For each root i, compute within the descendant cone:
    #   depth[j] = longest path from i to j (inclusive of both),
    # then the longest path through j in the cone is depth[j] + down[j] - a_j
    # and doubling a_j yields depth[j] + down[j].
    for i in range(n):
        depth = np.full(n, -np.inf)
        depth[i] = weights[i]
        correction = 0.0
        base = down[i]
        for j in topo:
            if depth[j] == -np.inf:
                continue
            through_doubled = depth[j] + down[j]  # a_j counted twice = doubled
            if through_doubled > base:
                correction += factors[j] * (through_doubled - base)
            succs = indices_s[indptr_s[j] : indptr_s[j + 1]]
            if succs.size:
                candidate = depth[j] + weights[succs]
                depth[succs] = np.maximum(depth[succs], candidate)
        result[index.task_ids[i]] = float(base + correction)
    return result
