"""Second-order extension of the first-order approximation.

The conclusion of the paper notes that the same approach yields "a (more
complicated but still tractable) second order approximation".  This module
implements it: in the two-state model (each task fails at most once, the
failed task's weight doubles), the exact expectation is

.. math::

    E(G) = \\sum_{S \\subseteq V} P(S) \\; L(S),

where ``P(S)`` is the probability that exactly the tasks of ``S`` fail and
``L(S)`` the corresponding longest-path length.  The second-order
approximation keeps all the terms with ``|S| ≤ 2`` and exact subset
probabilities.  The neglected mass is ``P(|S| ≥ 3)``, which grows with the
expected number of failures ``μ = Σ q_i`` rather than as ``O(λ³)``: on a
2,600-task Cholesky DAG at ``pfail = 1e-3`` the kept terms cover only about
half of the probability.  ``tail_handling`` decides what it is charged at.

With ``r_i = q_i / (1 - q_i)`` and ``P(∅)`` the failure-free probability,
``P({i, j}) = P(∅) r_i r_j``.  The doubled-pair makespan is

``L({i, j}) = max( L({i}), L({j}), up_i(j) + down_i(j) )``,

where ``up_i``/``down_i`` are the up/down arrays of ``G_i`` (task ``i``
doubled): doubling ``a_j`` on top of ``G_i`` stretches exactly the paths
through ``j``.  The pair sum therefore splits into

* the *all-pairs part* ``P(∅) Σ_{i<j} r_i r_j max(L({i}), L({j}))``, in
  closed form from one stable sort of ``L({i})`` and a prefix sum of ``r``;
* the *corrections* ``P(∅) Σ_{i<j} r_i r_j max(up_i(j) + down_i(j) -
  max(L({i}), L({j})), 0)``, which vanish unless the two tasks *interact*.

With ``s`` the slack and ``a = s - w`` (``d(G) - up - down``), a path
through both ``i`` and ``j`` is at most ``d(G) - max(s_i, s_j)`` long, so
the pair interacts only if ``a_j < w_i`` and ``a_i < w_j``.  Only the
*rows* ``i`` with such a partner need a doubled-weight sweep; they are
found with one sort by ``a``, a ``searchsorted`` and a prefix maximum of
``w`` (:func:`_interacting_rows`), with a margin of a few ulps of ``d(G)``
so that float ties keep a row rather than drop it.  A row's sweep costs
``O(|V| + |E|)``, so the total is ``O(rows·(|V| + |E|))``.

The row sweeps are evaluated in *chunks* on two private level-wavefront
kernels (one per direction): a chunk of doubled-weight scenarios forms a
``(chunk, tasks)`` weight matrix whose per-task completion times the kernel
returns in one batched sweep — float64 results are bit-identical to the
per-task reference recurrence (a test oracle in
``tests/oracles/estimators.py``, which also keeps the unpruned all-rows
sum) because ``max`` and the single addition per task are
order-independent at fixed precision.

The chunks are mutually independent work partitions (each owns its block
of the row list and returns its own partial correction), so they run on
the shared :class:`~repro.exec.ParallelService` (``workers=`` /
``REPRO_EST_WORKERS``): every worker slot holds a private up/down kernel
pair, and the per-chunk partials fold in chunk-index order — results are
bit-identical at **any** worker count and backend.  Every backend runs the
same chunk function, :func:`_sweep_pair_chunk`; the backend only decides
where a slot's inputs live — local arrays in-process, zero-copy segment
views (the schedules from the registry; the row list, ``L({i})``, ``r``
and the weights from a fresh segment) in ``processes`` workers.  Each
estimate opens its own service in a ``with`` block, so its worker pools
end with the estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Literal, Optional, Tuple

import numpy as np

from ..core.graph import TaskGraph
from ..core.kernels import WavefrontKernel
from ..core.paths import compute_path_metrics
from ..exceptions import EstimationError
from ..exec import (
    ParallelService,
    resolve_exec_backend,
    resolve_workers,
)
from ..exec.shm import (
    REGISTRY,
    SegmentHandle,
    SharedSegment,
    attach_schedule,
    attach_segment,
    detach_segment,
    publish_schedule,
)
from ..failures.models import ErrorModel
from ..options import resolve
from .base import EstimateResult, MakespanEstimator

__all__ = ["SecondOrderEstimator"]

#: Rows (doubled-task scenarios) per batched kernel sweep (memory ~ 4 x
#: chunk x tasks float64 on top of the kernel buffers, per worker slot).
_PAIR_CHUNK = 128

#: Row-selection margin, in ulps of ``d(G)``: a pair whose interaction
#: test is decided by rounding is kept (an extra row costs only time).
_TIE_ULPS = 4


def _interacting_rows(
    gap: np.ndarray, weights: np.ndarray, margin: float
) -> np.ndarray:
    """Tasks with at least one interacting partner, in index order.

    ``gap`` is ``a = d(G) - up - down`` (the slack less the weight).  Tasks
    ``i != j`` interact when ``a_j < w_i + margin`` and ``a_i < w_j +
    margin``.  With the tasks sorted by ``a``, the candidates of ``i`` are a
    prefix (``searchsorted`` of ``w_i + margin``); ``i`` has a partner when
    the largest weight in that prefix, ``i`` itself left out, exceeds
    ``a_i - margin``.  Leaving ``i`` out needs the prefix's second-largest
    weight too, which is the prefix maximum of ``min(previous maximum,
    w)``.
    """
    order = np.argsort(gap, kind="stable")
    sorted_gap = gap[order]
    sorted_w = weights[order]
    top = np.maximum.accumulate(sorted_w)
    previous = np.concatenate(([-np.inf], top[:-1]))
    second = np.maximum.accumulate(np.minimum(previous, sorted_w))
    limit = weights + margin
    count = np.searchsorted(sorted_gap, limit, side="left")
    last = np.maximum(count - 1, 0)
    best = np.where(count > 0, top[last], -np.inf)
    # i is among its own candidates and (one of) their heaviest.
    own = (gap < limit) & (weights == best)
    best = np.where(own, second[last], best)
    return np.flatnonzero(best > gap - margin)


class _PairChunkSlot:
    """One worker's pair-sweep state: a private up/down kernel pair plus the
    per-estimate vectors (``rows``, the swept tasks; ``weights``;
    ``d_single``, ``L({i})``; ``r``, ``q / (1 - q)``).

    The wavefront kernels are non-reentrant (they own their scenario
    buffers), so every service slot holds its own pair.  In-process
    backends build slots from local arrays; ``processes`` workers build
    them from attached segment views (:class:`_PairSweepSpec`) — every
    backend runs the same :func:`_sweep_pair_chunk`.
    """

    def __init__(
        self,
        kernel_up: WavefrontKernel,
        kernel_down: WavefrontKernel,
        vectors: Dict[str, np.ndarray],
        attached: Tuple[str, ...] = (),
    ) -> None:
        self.kernel_up = kernel_up
        self.kernel_down = kernel_down
        self.rows = vectors["rows"]
        self.weights = vectors["weights"]
        self.d_single = vectors["d_single"]
        self.r = vectors["r"]
        self._attached = attached

    def close(self) -> None:
        # Parent-built (degradation) slots only; pool workers keep their
        # cached attachments for the life of the process.
        for name in self._attached:
            detach_segment(name)


@dataclass(frozen=True)
class _PairSweepSpec:
    """Picklable slot factory of the shared-memory pair sweep.

    The two schedule segments come from the content-addressed registry
    (the ``"up"`` one is the very segment the Monte Carlo and correlated
    processes backends publish for the same DAG); the vector segment holds
    the row list and the per-estimate inputs.  Workers rebuild their
    private kernel pair from the attached schedules without recompiling.
    """

    up: SegmentHandle
    down: SegmentHandle
    vectors: SegmentHandle

    def __call__(self) -> _PairChunkSlot:
        return _PairChunkSlot(
            WavefrontKernel.from_schedule(
                attach_schedule(self.up), direction="up", dtype=np.float64
            ),
            WavefrontKernel.from_schedule(
                attach_schedule(self.down), direction="down", dtype=np.float64
            ),
            attach_segment(*self.vectors).arrays,
            attached=(self.vectors[0], self.up[0], self.down[0]),
        )


def _doubled_completions(
    kernel: WavefrontKernel, weights: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Completion times, ``(tasks, rows)`` in task order, of one scenario
    per row: ``weights`` with that row's task doubled.

    Fills the kernel buffer in its own task-major layout, so the scenario
    block is never built trial-major and transposed by ``load``.
    """
    view = kernel.weight_view(rows.size)
    view[...] = weights[kernel.perm][:, None]
    view[kernel.rank[rows], np.arange(rows.size)] *= 2.0
    kernel.propagate(rows.size)
    return kernel.completion_matrix(rows.size)


def _sweep_pair_chunk(
    bounds: Tuple[int, int], slot: _PairChunkSlot, rng
) -> Tuple[float, float]:
    """One chunk of the row list: its pair corrections and largest ``L({i, j})``.

    Doubles each row's task in turn, sweeps the ``(chunk, tasks)``
    scenario block up and down, and returns ``Σ_i r_i Σ_{j != i} r_j
    max(up_i(j) + down_i(j) - max(L({i}), L({j})), 0)`` over the chunk's
    rows ``i``.  The term is zero for every pair that does not interact,
    so it needs no per-pair mask.
    """
    start, stop = bounds
    rows = slot.rows[start:stop]
    cols = np.arange(rows.size)
    through = _doubled_completions(slot.kernel_up, slot.weights, rows)
    through += _doubled_completions(slot.kernel_down, slot.weights, rows)
    # floor[j, c] = max(L({j}), L({rows[c]})); L({i, j}) = max(floor, through).
    floor = np.maximum.outer(slot.d_single, slot.d_single[rows])
    pair = np.maximum(through, floor, out=through)
    pair[rows, cols] = floor[rows, cols]  # no pair of a task with itself
    worst = float(pair.max())
    pair -= floor
    correction = float(np.dot(slot.r[rows], slot.r @ pair))
    return correction, worst


class SecondOrderEstimator(MakespanEstimator):
    """Expected makespan exact up to (and including) two simultaneous failures.

    Only the tasks with an interacting partner get a doubled-weight
    up/down sweep (see the module docstring); ``details["pair_rows"]``
    reports how many.

    Parameters
    ----------
    tail_handling:
        What longest-path value to associate with the neglected scenarios
        (three or more failing tasks).  Their total probability
        ``P(|S| ≥ 3)`` grows with the expected number of failures
        ``μ = Σ q_i`` (reported as ``details["expected_failures"]``), so
        on large DAGs it can be most of the mass:

        * ``"failure-free"`` (default) — use ``d(G)``, the cheapest
          consistent choice;
        * ``"drop"`` — ignore the mass entirely (an underestimate);
        * ``"worst-pair"`` — use the largest ``L({i, j})`` computed, an
          inexpensive upper-biased choice.
    workers:
        Worker count of the chunked row sweeps on the shared
        :class:`~repro.exec.ParallelService` (``None`` consults
        ``REPRO_EST_WORKERS`` and falls back to 1).  A pure throughput
        knob: the per-chunk partials fold in chunk-index order, so the
        result is bit-identical at any worker count.
    exec_backend:
        Execution backend of the chunked sweeps: ``None`` (after the
        ``REPRO_EXEC_BACKEND`` override) keeps the conventional mapping —
        serial at ``workers=1``, threads otherwise; ``"processes"`` runs
        the chunks in worker processes whose kernel pairs are rebuilt
        zero-copy from the registry's shared schedule segments (no
        per-worker recompilation).  Bit-identical to the threads backend
        at any worker count.
    """

    name = "second-order"

    def __init__(
        self,
        *,
        tail_handling: Literal["failure-free", "drop", "worst-pair"] = "failure-free",
        workers: Optional[int] = None,
        exec_backend: Optional[str] = None,
        exec_retries: Optional[int] = None,
        exec_timeout: Optional[float] = None,
        exec_on_failure: Optional[str] = None,
        validate: bool = True,
    ) -> None:
        super().__init__(validate=validate)
        if tail_handling not in ("failure-free", "drop", "worst-pair"):
            raise EstimationError(f"unknown tail handling {tail_handling!r}")
        self.tail_handling = tail_handling
        self.workers = resolve_workers(workers)
        exec_backend = resolve("EXEC_BACKEND", exec_backend)
        self.exec_backend = (
            resolve_exec_backend(exec_backend, self.workers)
            if exec_backend is not None
            else None
        )
        self.exec_retries = exec_retries
        self.exec_timeout = exec_timeout
        self.exec_on_failure = exec_on_failure

    def _sweep_rows(self, index, vectors: Dict[str, np.ndarray]):
        """Run the chunks of ``vectors["rows"]`` on the service: the
        per-chunk ``(correction, worst)`` partials and the execution report."""
        rows = vectors["rows"]
        chunks = [
            (start, min(start + _PAIR_CHUNK, rows.size))
            for start in range(0, rows.size, _PAIR_CHUNK)
        ]
        with ParallelService(
            workers=self.workers,
            backend=self.exec_backend,
            retries=self.exec_retries,
            timeout=self.exec_timeout,
            on_failure=self.exec_on_failure,
        ) as service:
            if service.backend != "processes":
                slots = [
                    _PairChunkSlot(
                        WavefrontKernel(index, direction="up", dtype=np.float64),
                        WavefrontKernel(index, direction="down", dtype=np.float64),
                        vectors,
                    )
                    for _ in range(min(self.workers, len(chunks)))
                ]
                partials = service.run(_sweep_pair_chunk, chunks, slots=slots)
                return partials, service.report.as_dict()
            up_key, up_seg = publish_schedule(index, "up")
            down_key, down_seg = publish_schedule(index, "down")
            vec_seg = SharedSegment.create(vectors)
            spec = _PairSweepSpec(
                up=up_seg.handle, down=down_seg.handle, vectors=vec_seg.handle
            )
            try:
                partials = service.run(_sweep_pair_chunk, chunks, slot_factory=spec)
            finally:
                for name in (vec_seg.name, up_seg.name, down_seg.name):
                    detach_segment(name)
                vec_seg.destroy()
                REGISTRY.release(up_key)
                REGISTRY.release(down_key)
            return partials, service.report.as_dict()

    def _estimate(self, graph: TaskGraph, model: ErrorModel) -> EstimateResult:
        index = graph.index()
        n = index.num_tasks
        weights = index.weights
        q = np.asarray(model.failure_probabilities(weights), dtype=np.float64)
        if np.any(q >= 1.0):
            raise EstimationError("some task fails with probability 1; expectation diverges")

        metrics = compute_path_metrics(index)
        d_g = metrics.critical_length
        d_single = metrics.doubled_makespans()  # L({i}) for every i

        one_minus_q = 1.0 - q
        log_all = float(np.sum(np.log(one_minus_q)))
        p_none = float(np.exp(log_all))
        # P({i}) = q_i * prod_{j != i} (1 - q_j)
        p_single = q * np.exp(log_all - np.log(one_minus_q))

        expected = p_none * d_g + float(np.dot(p_single, d_single))
        probability_covered = p_none + float(p_single.sum())

        # Pair terms: P({i, j}) = p_none r_i r_j.  The all-pairs part
        # sum_{i<j} r_i r_j max(L_i, L_j) takes one stable sort of L: each
        # task pairs with every task sorted before it at its own L.
        worst_pair = d_g
        pair_contribution = 0.0
        pair_probability = 0.0
        pair_rows = 0
        execution = None
        if n >= 2:
            r = q / one_minus_q
            order = np.argsort(d_single, kind="stable")
            r_sorted = r[order]
            below = np.concatenate(([0.0], np.cumsum(r_sorted)[:-1]))
            pair_base = float(np.dot(r_sorted * d_single[order], below))
            pair_probability = p_none * float(np.dot(r_sorted, below))

            # Corrections: one doubled-weight sweep per row that has an
            # interacting partner, in chunks of _PAIR_CHUNK rows; each chunk
            # is one service partition, folded in chunk-index order.
            margin = _TIE_ULPS * float(np.spacing(d_g))
            gap = d_g - (metrics.up + metrics.down)
            rows = _interacting_rows(gap, weights, margin)
            pair_rows = int(rows.size)
            partials, execution = self._sweep_rows(
                index, {"rows": rows, "weights": weights, "d_single": d_single, "r": r}
            )
            corrections = 0.0
            worst_pair = float(d_single.max())
            for correction, worst in partials:
                corrections += correction
                worst_pair = max(worst_pair, worst)
            # Every interacting pair was corrected twice (once per row).
            pair_contribution = p_none * (pair_base + 0.5 * corrections)

        expected += pair_contribution
        probability_covered += pair_probability

        residual = max(0.0, 1.0 - probability_covered)
        if self.tail_handling == "failure-free":
            expected += residual * d_g
        elif self.tail_handling == "worst-pair":
            expected += residual * worst_pair
        # "drop": nothing to add.

        return EstimateResult(
            method=self.name,
            expected_makespan=expected,
            failure_free_makespan=d_g,
            wall_time=0.0,
            details={
                "tail_handling": self.tail_handling,
                "expected_failures": float(q.sum()),
                "probability_covered": probability_covered,
                "residual_probability": residual,
                "pair_contribution": pair_contribution,
                "pair_rows": pair_rows,
                "sweep_workers": self.workers,
                **({"execution": execution} if execution is not None else {}),
            },
        )
