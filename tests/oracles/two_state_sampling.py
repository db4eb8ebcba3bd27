"""Per-candidate reference of the two-state Monte Carlo failure draw.

The engine (:meth:`repro.sim.engine._BatchWorker._scatter_failures`) finds
a batch's failed ``(trial, task)`` cells by geometric skips with thinning,
drawn in vectorised chunks.  This walks the same contract one candidate at
a time and returns the dense failure mask, so the tests' dense pipelines
can fill, round and fold from it exactly as before.
"""

from __future__ import annotations

import numpy as np

__all__ = ["failure_mask"]


def failure_mask(rng: np.random.Generator, q, trials: int) -> np.ndarray:
    """The ``(trials, tasks)`` failure mask of one batch drawn from ``rng``.

    The cells are the trial-major grid, tasks in index order.  Each
    candidate draws two uniforms ``(skip, accept)``: it lies
    ``1 + floor(log1p(-skip) / log1p(-q_max))`` cells past the previous
    candidate (the first one past cell ``-1``) and fails when
    ``accept < q / q_max`` of its task.
    """
    q = np.asarray(q, dtype=np.float64)
    n = q.size
    cells = trials * n
    failed = np.zeros(cells, dtype=bool)
    q_max = q.max(initial=0.0)
    if q_max > 0.0:
        with np.errstate(divide="ignore"):
            log_keep = np.log1p(-q_max)  # -inf when q_max = 1
        accept = q / q_max
        cell = -1
        while True:
            skip, u = rng.random(2)
            cell += 1 + int(min(np.floor(np.log1p(-skip) / log_keep), cells))
            if cell >= cells:
                break
            failed[cell] = u < accept[cell % n]
    return failed.reshape(trials, n)
