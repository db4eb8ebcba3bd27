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
probabilities; the neglected mass is ``O(λ³)``.

The doubled-pair makespans ``L({i, j})`` are obtained without enumerating
paths: for a fixed ``i``, recompute the ``up``/``down`` arrays of ``G_i``
(task ``i`` doubled) in ``O(|V| + |E|)``; then for every ``j``

``L({i, j}) = max( L({i}), up_i(j) + down_i(j) )``,

because doubling ``a_j`` on top of ``G_i`` stretches exactly the paths
through ``j``.  The total cost is ``O(|V|·(|V| + |E|))``.

The ``n`` up/down recomputations are evaluated in *chunks* on two private
level-wavefront kernels (one per direction): a chunk of doubled-weight
scenarios forms a ``(chunk, tasks)`` weight matrix whose per-task completion
times the kernel returns in one batched sweep — float64 results are
bit-identical to the per-task reference recurrence (retained as
:func:`sequential_pair_up_down` for the differential tests) because ``max``
and the single addition per task are order-independent at fixed precision.

The chunks are mutually independent work partitions (each owns its own
scenario block and accumulates its own partial pair sums), so they run on
the shared :class:`~repro.exec.ParallelService` (``workers=`` /
``REPRO_EST_WORKERS``): every worker slot holds a private up/down kernel
pair, and the per-chunk partials fold in chunk-index order — results are
bit-identical at **any** worker count, and within the usual ``<= 1e-9``
differential of the sequential reference (the only change against the
historical single pass is the chunk-boundary association of the partial
sums, ~1 ulp).  Every backend runs the same chunk function,
:func:`_sweep_pair_chunk`; the backend only decides where a slot's inputs
live — local arrays in-process, zero-copy segment views (the schedules
from the registry, the per-estimate vectors from a fresh segment) in
``processes`` workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Literal, Optional, Tuple

import numpy as np

from ..core.graph import GraphIndex, TaskGraph
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

__all__ = ["SecondOrderEstimator", "sequential_pair_up_down"]

#: Scenarios evaluated per batched kernel sweep (memory ~ 2 x chunk x tasks
#: float64 on top of the kernel buffers, per worker slot).
_PAIR_CHUNK = 128


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


class _PairChunkSlot:
    """One worker's pair-sweep state: a private up/down kernel pair plus the
    per-estimate vectors (``weights``, ``q``, ``base``, ``one_minus_q``,
    ``d_single``) and the failure-free makespan ``d_g``.

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
        d_g: float,
        attached: Tuple[str, ...] = (),
    ) -> None:
        self.kernel_up = kernel_up
        self.kernel_down = kernel_down
        self.weights = vectors["weights"]
        self.q = vectors["q"]
        self.base = vectors["base"]
        self.one_minus_q = vectors["one_minus_q"]
        self.d_single = vectors["d_single"]
        self.d_g = d_g
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
    the per-estimate probability/makespan inputs.  Workers rebuild their
    private kernel pair from the attached schedules without recompiling.
    """

    up: SegmentHandle
    down: SegmentHandle
    vectors: SegmentHandle
    d_g: float

    def __call__(self) -> _PairChunkSlot:
        return _PairChunkSlot(
            WavefrontKernel.from_schedule(
                attach_schedule(self.up), direction="up", dtype=np.float64
            ),
            WavefrontKernel.from_schedule(
                attach_schedule(self.down), direction="down", dtype=np.float64
            ),
            attach_segment(*self.vectors).arrays,
            self.d_g,
            attached=(self.vectors[0], self.up[0], self.down[0]),
        )


def _sweep_pair_chunk(
    bounds: Tuple[int, int], slot: _PairChunkSlot, rng
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


class SecondOrderEstimator(MakespanEstimator):
    """Expected makespan exact up to (and including) two simultaneous failures.

    Parameters
    ----------
    tail_handling:
        What longest-path value to associate with the neglected scenarios
        (three or more failing tasks), whose total probability is ``O(λ³)``:

        * ``"failure-free"`` (default) — use ``d(G)``, the cheapest
          consistent choice;
        * ``"drop"`` — ignore the mass entirely (slight underestimation);
        * ``"worst-pair"`` — use the largest ``L({i, j})`` computed, an
          inexpensive upper-biased choice.
    workers:
        Worker count of the chunked pair sweeps on the shared
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
        service_pool=None,
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
        #: Optional lease/restore pool of ParallelService instances (the
        #: estimation server's warm-pool seam); ``None`` keeps the
        #: construct-per-estimate behaviour.  Results are identical.
        self.service_pool = service_pool

    def _acquire_service(self) -> ParallelService:
        if self.service_pool is not None:
            return self.service_pool.lease(
                workers=self.workers,
                backend=self.exec_backend,
                retries=self.exec_retries,
                timeout=self.exec_timeout,
                on_failure=self.exec_on_failure,
            )
        return ParallelService(
            workers=self.workers,
            backend=self.exec_backend,
            retries=self.exec_retries,
            timeout=self.exec_timeout,
            on_failure=self.exec_on_failure,
        )

    def _release_service(self, service: ParallelService) -> None:
        if self.service_pool is not None:
            self.service_pool.restore(service)
        else:
            service.close()

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

        # Pair terms: for every i, recompute up/down with a_i doubled.  The
        # n scenarios are evaluated in chunks of _PAIR_CHUNK batched kernel
        # sweeps (one per direction) instead of two per-task Python loops
        # per scenario; each chunk is one service partition owning its
        # partial pair sums (per-i accumulation order unchanged inside a
        # chunk, chunk partials folded in chunk-index order).
        worst_pair = d_g
        pair_contribution = 0.0
        pair_probability = 0.0
        execution = None
        if n >= 2:
            base = np.exp(log_all - np.log(one_minus_q))  # prod_{l != i} (1-q_l)
            chunks = [
                (start, min(start + _PAIR_CHUNK, n))
                for start in range(0, n, _PAIR_CHUNK)
            ]

            vectors = {
                "weights": weights,
                "q": q,
                "base": base,
                "one_minus_q": one_minus_q,
                "d_single": d_single,
            }
            service = self._acquire_service()
            shared = service.backend == "processes"
            if shared:
                up_key, up_seg = publish_schedule(index, "up")
                down_key, down_seg = publish_schedule(index, "down")
                vec_seg = SharedSegment.create(vectors)
                slot_kwargs = {
                    "slot_factory": _PairSweepSpec(
                        up=up_seg.handle,
                        down=down_seg.handle,
                        vectors=vec_seg.handle,
                        d_g=d_g,
                    )
                }
            else:
                slot_kwargs = {
                    "slots": [
                        _PairChunkSlot(
                            WavefrontKernel(index, direction="up", dtype=np.float64),
                            WavefrontKernel(index, direction="down", dtype=np.float64),
                            vectors,
                            d_g,
                        )
                        for _ in range(min(self.workers, len(chunks)))
                    ]
                }
            try:
                partials = service.run(_sweep_pair_chunk, chunks, **slot_kwargs)
            finally:
                self._release_service(service)
                if shared:
                    for name in (vec_seg.name, up_seg.name, down_seg.name):
                        detach_segment(name)
                    vec_seg.destroy()
                    REGISTRY.release(up_key)
                    REGISTRY.release(down_key)
            for contribution, probability, worst in partials:
                pair_contribution += contribution
                pair_probability += probability
                worst_pair = max(worst_pair, worst)
            # Every unordered pair was counted twice (once per orientation).
            pair_contribution *= 0.5
            pair_probability *= 0.5

            execution = service.report.as_dict()

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
                "sweep_workers": self.workers,
                **({"execution": execution} if execution is not None else {}),
            },
        )
