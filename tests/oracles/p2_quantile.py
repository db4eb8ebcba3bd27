"""The P² streaming quantile, the reference of the sketch accuracy tests.

:class:`repro.sim.stats.QuantileSketch` is checked against it in
``tests/test_mc_backends.py`` and ``tests/test_stats_properties.py``; the
Monte Carlo engine uses the sketch.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.exceptions import EstimationError

__all__ = ["P2Quantile"]


class P2Quantile:
    """P² single-quantile estimator (Jain & Chlamtac 1985).

    Five markers track the running quantile in O(1) memory without storing
    or sorting observations.  The per-observation update is a scalar Python
    loop, so this is the *reference* streaming quantile (used to validate
    the vectorised :class:`QuantileSketch`), not the engine's hot path.
    """

    def __init__(self, q: float) -> None:
        if not (0.0 < q < 1.0):
            raise EstimationError("P² quantile level must be in (0, 1)")
        self.q = float(q)
        self._initial: List[float] = []
        self._heights: Optional[List[float]] = None
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def update(self, batch: np.ndarray) -> None:
        """Fold a batch of observations, one at a time."""
        for x in np.asarray(batch, dtype=np.float64).ravel():
            self._observe(float(x))

    def _observe(self, x: float) -> None:
        self._count += 1
        if self._heights is None:
            self._initial.append(x)
            if len(self._initial) == 5:
                self._initial.sort()
                self._heights = list(self._initial)
            return
        h, pos = self._heights, self._positions
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while x >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        for i in (1, 2, 3):
            d = self._desired[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                d <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                pos[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float:
        """The current quantile estimate."""
        if self._count == 0:
            raise EstimationError("P² estimator is empty")
        if self._heights is None:
            data = sorted(self._initial)
            return float(np.quantile(np.asarray(data), self.q))
        return float(self._heights[2])
