"""Dodin's series-parallel approximation of the makespan distribution.

Dodin (1985) bounds the completion-time distribution of an arbitrary PERT
network by transforming it into a series-parallel network and evaluating
that network exactly:

1. the node-weighted task graph is converted to an activity-on-arc network
   (task -> arc carrying the task's 2-state execution-time law, precedence
   edge -> zero-length arc);
2. *series* reductions (a vertex with one incoming and one outgoing arc is
   removed, the arcs are fused and their laws convolved) and *parallel*
   reductions (two arcs sharing both endpoints are fused, their laws are
   combined by multiplying CDFs) are applied as long as possible;
3. when the network is not series-parallel, no reduction applies at some
   point; a *join* vertex (in-degree >= 2) is then **duplicated**: one of its
   incoming arcs is redirected to a fresh copy of the vertex, which receives
   copies of all outgoing arcs.  The copies are treated as independent —
   this is the approximation — and the reductions resume.

The estimate returned is the mean of the resulting source->sink law.
Supports are pruned to ``max_support`` atoms after every combination
(mean-preserving merging), which is the standard pseudo-polynomial device
for 2-state task laws; the pruning granularity is explored by an ablation
benchmark.

The duplication rule resolves joins in *rounds of independent joins*:
among the vertices with in-degree >= 2, the non-adjacent joins tied at
the deepest topological *level* (ordered by the historical priority —
largest topological rank, then smallest out-degree — within the level)
are duplicated in one round, each using its incoming arc with the
deepest tail.  Two joins may share a round unless one serves as the
other's chosen tail — every other combination of duplications commutes
exactly, so a round equals resolving its joins one at a time in
selection order (the round schedule *is* the approximation contract).
Only equal-level joins share a round because a deeper join's resolution
can dissolve shallower ones through the reductions it unlocks; resolving
from the sink upwards keeps the cascade of induced joins small relative
to the graph (276 duplications in 91 rounds on cholesky k=10, 4,301 on
cholesky k=24 with its 2,600 tasks).  A configurable cap on the number of
duplications guards against pathological blow-up on adversarial graphs.

Incremental candidate sets
--------------------------

Neither kind of round scans the network.  The reduction network files
every vertex in two candidate sets and re-files both endpoints whenever an
arc is written or removed (``set_arc``/``remove_arc``, which every
mutation — including a round's re-attached fused arcs — goes through):

* ``_joins_by_level`` buckets the joins (in-degree >= 2) by topological
  level, so a duplication round reads the deepest bucket;
* ``series`` holds the series vertices (in-degree 1 and out-degree 1,
  terminals excluded), so a reduction round sorts only the candidates.
  Scanning every vertex in ascending order and skipping non-series ones
  visits exactly the sorted candidates, so the round schedule is the
  historical one.

Batched reduction rounds
------------------------

Series reductions at vertices that share no arc commute *exactly*: each one
touches only its own pair of incident arcs.  The estimator therefore
schedules reductions in **rounds of independent arc groups**: every round
selects a maximal set of pairwise non-adjacent series vertices (in
ascending vertex order), fuses all their arc pairs with **one** row-batched
:meth:`repro.rv.discrete_batch.DiscreteBatch.add`, and then performs the
parallel merges induced by coinciding endpoints with row-batched CDF-product
maxima — turning thousands of tiny per-arc NumPy calls into a handful of
``(rows, width)`` array operations.  The batched operations mirror the
scalar :class:`~repro.rv.discrete.DiscreteRV` arithmetic step by step, and
the *same* round schedule evaluated with scalar operations
(``batched=False``) is the oracle of the differential tests.
The two paths differ only by ulp-level rounding (NumPy's pairwise row
sums), but a rounding difference can move an atom across an equal-mass
pruning boundary, and later rounds amplify it.  Measured relative gaps at
pfail 1e-3 / 1e-2: <= 1.3e-13 on cholesky, LU and QR up to k=10 (the
differential tests use k <= 6 and a 1e-9 tolerance); 1.4e-9 / 5.8e-14 on
QR k=16; 1.3e-12 / 1.5e-4 on LU k=16; 1.2e-4 / 9.6e-4 on cholesky k=24.

Each round's batched operation is one partition of a serial
:class:`~repro.exec.ParallelService`, so retries, fault injection and the
``details["execution"]`` report work as for the other estimators.  The
rounds run on one worker: each depends on the network the previous one
left.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.graph import TaskGraph
from ..core.kernels import schedule_for
from ..core.paths import critical_path_length
from ..exceptions import EstimationError, OptionError
from ..exec import ParallelService
from ..failures.models import ErrorModel
from ..failures.twostate import TwoStateDistribution
from ..rv.discrete import DiscreteRV
from ..rv.discrete_batch import DiscreteBatch
from .base import EstimateResult, MakespanEstimator

__all__ = ["DodinEstimator"]

#: Minimum number of rows for which the batched discrete operations beat
#: the scalar ones (padding + row bookkeeping have a fixed cost); smaller
#: rounds — typical of the duplication cascade's tail — fall back to the
#: scalar path, which executes the *same* operation sequence.
_BATCH_MIN_ROWS = 8


class _ReductionNetwork:
    """Activity-on-arc multigraph with eager parallel merging.

    Vertices are integers; at most one arc exists per ordered vertex pair
    (adding a second one immediately performs the parallel reduction).
    """

    def __init__(self, max_support: int) -> None:
        self.max_support = max_support
        self.succ: Dict[int, Dict[int, DiscreteRV]] = {}
        self.pred: Dict[int, Dict[int, DiscreteRV]] = {}
        self.rank: Dict[int, int] = {}
        self.level: Dict[int, int] = {}
        self._next_vertex = 0
        self.parallel_reductions = 0
        self.series_reductions = 0
        #: The source and sink, which are never series vertices.
        self.terminals: Tuple[int, ...] = ()
        #: Join candidates (in-degree >= 2) bucketed by topological level,
        #: maintained incrementally by ``set_arc``/``remove_arc`` — the
        #: duplication rounds query the deepest bucket instead of scanning
        #: every vertex per round.
        self._joins_by_level: Dict[int, set] = {}
        #: Series candidates (in-degree 1 and out-degree 1, terminals
        #: excluded), maintained by the same arc mutations — the reduction
        #: rounds sort this set instead of scanning every vertex.
        self.series: set = set()

    # -- construction ----------------------------------------------------
    def new_vertex(self, rank: int, level: int = 0) -> int:
        v = self._next_vertex
        self._next_vertex += 1
        self.succ[v] = {}
        self.pred[v] = {}
        self.rank[v] = rank
        self.level[v] = level
        return v

    def delete_vertex(self, v: int) -> None:
        """Drop a vertex whose arcs have all been removed.

        Removing its last arcs already took it out of both candidate sets.
        """
        del self.succ[v]
        del self.pred[v]
        del self.rank[v]
        del self.level[v]

    def add_arc(self, tail: int, head: int, law: DiscreteRV) -> None:
        existing = self.succ[tail].get(head)
        if existing is not None:
            law = existing.maximum(law, max_support=self.max_support)
            self.parallel_reductions += 1
        self.set_arc(tail, head, law)

    def set_arc(self, tail: int, head: int, law: DiscreteRV) -> None:
        """Write the arc ``tail -> head``, replacing any existing law."""
        self.succ[tail][head] = law
        self.pred[head][tail] = law
        self._update_candidates(tail, head)

    def remove_arc(self, tail: int, head: int) -> DiscreteRV:
        law = self.succ[tail].pop(head)
        self.pred[head].pop(tail)
        self._update_candidates(tail, head)
        return law

    def _update_candidates(self, tail: int, head: int) -> None:
        """Re-file both endpoints of a mutated arc in the candidate sets."""
        self._update_join(head)
        self._update_series(tail)
        self._update_series(head)

    def _update_series(self, v: int) -> None:
        if (
            len(self.pred[v]) == 1
            and len(self.succ[v]) == 1
            and v not in self.terminals
        ):
            self.series.add(v)
        else:
            self.series.discard(v)

    def _update_join(self, head: int) -> None:
        """Keep ``head``'s join-bucket membership in sync with its in-degree."""
        level = self.level[head]
        bucket = self._joins_by_level.get(level)
        if len(self.pred[head]) >= 2:
            if bucket is None:
                bucket = set()
                self._joins_by_level[level] = bucket
            bucket.add(head)
        elif bucket is not None:
            bucket.discard(head)
            if not bucket:
                del self._joins_by_level[level]

    def deepest_join_level(self, exclude=()) -> Optional[int]:
        """The deepest level holding a join outside ``exclude`` (or ``None``).

        O(number of non-empty buckets) — the per-round replacement of the
        historical O(|V|) candidate scan.
        """
        best: Optional[int] = None
        for level, bucket in self._joins_by_level.items():
            if (best is None or level > best) and any(
                v not in exclude for v in bucket
            ):
                best = level
        return best

    def joins_at_level(self, level: int, exclude=()) -> List[int]:
        return [
            v for v in self._joins_by_level.get(level, ()) if v not in exclude
        ]

    # -- queries -----------------------------------------------------------
    def out_degree(self, v: int) -> int:
        return len(self.succ[v])


class DodinEstimator(MakespanEstimator):
    """Series-parallel reduction with node duplication (Dodin 1985).

    Parameters
    ----------
    max_support:
        Maximum number of atoms kept in any intermediate distribution.
    max_duplications:
        Safety cap on node duplications; ``None`` derives a generous default
        from the graph size (``50 × (|V| + |E|)``).
    reexecution_factor:
        Execution-time multiplier of a failed task (2 = full re-execution).
    batched:
        Evaluate each reduction round's independent arc group with the
        row-batched :class:`~repro.rv.discrete_batch.DiscreteBatch`
        operations (default).  ``False`` runs the *same* round schedule
        with scalar :class:`~repro.rv.discrete.DiscreteRV` arithmetic —
        the reference path of the differential tests.
    workers:
        Accepted for a uniform estimator signature: ``None`` or ``1``.
        The reduction runs on one worker whatever ``REPRO_EST_WORKERS``
        says; any other count raises :class:`~repro.exceptions.OptionError`.
    """

    name = "dodin"

    def __init__(
        self,
        *,
        max_support: int = 64,
        max_duplications: Optional[int] = None,
        reexecution_factor: float = 2.0,
        batched: bool = True,
        workers: Optional[int] = None,
        exec_retries: Optional[int] = None,
        exec_timeout: Optional[float] = None,
        exec_on_failure: Optional[str] = None,
        validate: bool = True,
    ) -> None:
        super().__init__(validate=validate)
        if max_support < 2:
            raise EstimationError("max_support must be at least 2")
        if reexecution_factor < 1.0:
            raise EstimationError("re-execution factor must be >= 1")
        self.max_support = max_support
        self.max_duplications = max_duplications
        self.reexecution_factor = reexecution_factor
        self.batched = batched
        if workers is not None and workers != 1:
            raise OptionError(
                f"dodin runs on one worker; got workers={workers!r}"
            )
        self.exec_retries = exec_retries
        self.exec_timeout = exec_timeout
        self.exec_on_failure = exec_on_failure

    # ------------------------------------------------------------------
    def _build_network(
        self, graph: TaskGraph, model: ErrorModel
    ) -> Tuple[_ReductionNetwork, int, int]:
        index = graph.index()
        network = _ReductionNetwork(self.max_support)

        # Topological rank of every task, reused as vertex rank so that the
        # duplication rule can resolve the earliest joins first — the
        # cached inverse permutation on the index, not a per-call dict —
        # plus the task's topological level, the tie granularity of the
        # independent-join duplication rounds.
        rank_of_task = index.topo_rank
        level_of_task = schedule_for(index, "up").task_level

        source = network.new_vertex(-1, -1)
        sink = network.new_vertex(
            len(index.task_ids) + 1, int(level_of_task.max(initial=0)) + 1
        )
        network.terminals = (source, sink)
        vertex_in: Dict[int, int] = {}
        vertex_out: Dict[int, int] = {}
        zero = DiscreteRV.constant(0.0)

        # Task laws depend on the weight alone and DiscreteRV is immutable,
        # so each distinct weight builds its law once (the paper's DAGs
        # have a handful of kernel weights across thousands of tasks).
        laws: Dict[float, DiscreteRV] = {}
        for i, (r, lv, weight) in enumerate(
            zip(rank_of_task.tolist(), level_of_task.tolist(), index.weights.tolist())
        ):
            vertex_in[i] = network.new_vertex(r, lv)
            vertex_out[i] = network.new_vertex(r, lv)
            law = laws.get(weight)
            if law is None:
                law = laws[weight] = TwoStateDistribution.from_model(
                    weight, model, reexecution_factor=self.reexecution_factor
                ).to_discrete()
            network.add_arc(vertex_in[i], vertex_out[i], law)

        index_of = index.index_of
        for src, dst in graph.edges():
            network.add_arc(vertex_out[index_of[src]], vertex_in[index_of[dst]], zero)
        for tid in graph.sources():
            network.add_arc(source, vertex_in[index_of[tid]], zero)
        for tid in graph.sinks():
            network.add_arc(vertex_out[index_of[tid]], sink, zero)
        return network, source, sink

    # ------------------------------------------------------------------
    # Batched reduction rounds
    # ------------------------------------------------------------------
    def _combine_pairs(
        self,
        service: ParallelService,
        lhs: List[DiscreteRV],
        rhs: List[DiscreteRV],
        op: str,
    ) -> List[DiscreteRV]:
        """Row-batched ``add``/``maximum`` over aligned operand lists: one
        :class:`DiscreteBatch` evaluation, the service's one partition."""
        cap = self.max_support

        def combine(part, slot, rng) -> List[DiscreteRV]:
            batch = getattr(DiscreteBatch.from_rvs(lhs), op)(
                DiscreteBatch.from_rvs(rhs), cap
            )
            return [batch.row(i) for i in range(len(lhs))]

        (out,) = service.run(combine, [None])
        return out

    @staticmethod
    def _select_series_round(network: _ReductionNetwork) -> List[int]:
        """A maximal set of pairwise non-adjacent series vertices.

        Candidates are scanned in ascending vertex order; a vertex is
        selected unless its (unique) tail or head was already selected —
        reductions of the resulting set touch pairwise disjoint arcs, so
        they commute exactly and can run as one batch.
        """
        selected: List[int] = []
        chosen = set()
        for v in sorted(network.series):
            (tail,) = network.pred[v]
            (head,) = network.succ[v]
            if tail in chosen or head in chosen:
                continue
            selected.append(v)
            chosen.add(v)
        return selected

    def _reduce_series_round(
        self,
        network: _ReductionNetwork,
        selected: List[int],
        service: ParallelService,
    ) -> None:
        """Fuse one round's independent arc pairs, then merge collisions.

        All series fusions (convolutions) of the round run as one batched
        ``add``; the parallel merges induced by fused arcs landing on an
        occupied ``(tail, head)`` pair run as batched CDF-product maxima,
        folded left-to-right in selection order — exactly the operation
        sequence the scalar path (``batched=False``) executes one
        :class:`DiscreteRV` at a time.
        """
        cap = self.max_support
        firsts: List[DiscreteRV] = []
        seconds: List[DiscreteRV] = []
        endpoints: List[Tuple[int, int]] = []
        for v in selected:
            ((tail, first_law),) = network.pred[v].items()
            ((head, second_law),) = network.succ[v].items()
            firsts.append(first_law)
            seconds.append(second_law)
            endpoints.append((tail, head))

        if self.batched and len(selected) >= _BATCH_MIN_ROWS:
            fused = self._combine_pairs(service, firsts, seconds, "add")
        else:
            fused = [
                first.add(second, max_support=cap)
                for first, second in zip(firsts, seconds)
            ]

        # Detach the reduced vertices (disjoint arcs: order is irrelevant).
        for v, (tail, head) in zip(selected, endpoints):
            network.remove_arc(tail, v)
            network.remove_arc(v, head)
            network.delete_vertex(v)
            network.series_reductions += 1

        # Re-attach the fused arcs.  Fused laws landing on an occupied
        # (tail, head) pair — an existing arc, or several fusions of the
        # same round — fold with CDF-product maxima in selection order.
        chains: Dict[Tuple[int, int], List[DiscreteRV]] = {}
        for (tail, head), law in zip(endpoints, fused):
            chain = chains.get((tail, head))
            if chain is None:
                existing = network.succ[tail].get(head)
                chain = [] if existing is None else [existing]
                chains[(tail, head)] = chain
            chain.append(law)

        while True:
            pending = [key for key, chain in chains.items() if len(chain) > 1]
            if not pending:
                break
            if self.batched and len(pending) >= _BATCH_MIN_ROWS:
                merged = self._combine_pairs(
                    service,
                    [chains[key][0] for key in pending],
                    [chains[key][1] for key in pending],
                    "maximum",
                )
            else:
                merged = [
                    chains[key][0].maximum(chains[key][1], max_support=cap)
                    for key in pending
                ]
            for key, law in zip(pending, merged):
                chains[key][0:2] = [law]
                network.parallel_reductions += 1

        for (tail, head), chain in chains.items():
            network.set_arc(tail, head, chain[0])

    @staticmethod
    def _select_join_round(
        network: _ReductionNetwork, joins: List[int]
    ) -> List[Tuple[int, int]]:
        """The independent joins of one duplication round.

        ``joins`` holds the candidates of one (the deepest) level bucket;
        they are ranked by the historical duplication priority (largest
        topological rank, then smallest out-degree, then vertex id) and
        the round takes the non-adjacent ones.  Together with the
        same-level restriction the bucket already enforces, this is what
        makes a round equal to duplicating its joins one at a time in
        selection order:

        * two selected joins must not be adjacent through a chosen tail —
          a duplication removes the arc ``tail -> join`` and copies the
          join's out-arcs, so a join serving as another's tail would make
          the copied arc set order-dependent.  Everything else commutes:
          shared tails lose disjoint arcs, and shared heads only *gain*
          arcs from distinct fresh copies.
        * only equal-level joins share a round, because a deeper join's
          resolution (and the series/parallel reductions it unlocks) can
          dissolve shallower joins outright — duplicating across depths in
          one round inflates the cascade by an order of magnitude on the
          paper DAGs, while same-level joins cannot dissolve each other
          that way.
        """
        order = sorted(
            joins,
            key=lambda u: (network.rank[u], -network.out_degree(u), u),
            reverse=True,
        )
        selected: List[Tuple[int, int]] = []
        touched: set = set()
        for v in order:
            if v in touched:
                continue
            tail = max(network.pred[v], key=lambda u: (network.rank[u], u))
            if tail in touched:
                continue
            selected.append((v, tail))
            touched.add(v)
            touched.add(tail)
        return selected

    def _duplicate_join_round(self, network: _ReductionNetwork) -> int:
        """Duplicate one round of independent joins; return how many.

        The joins come from the incrementally maintained level buckets
        (the deepest one), not from an O(|V|) candidate scan.
        """
        terminals = network.terminals
        deepest = network.deepest_join_level(exclude=terminals)
        if deepest is None:
            raise EstimationError(
                "Dodin reduction is stuck without a join vertex; "
                "the input graph is malformed"
            )
        joins = network.joins_at_level(deepest, exclude=terminals)
        selected = self._select_join_round(network, joins)
        for v, tail in selected:
            moved_law = network.remove_arc(tail, v)
            copy = network.new_vertex(network.rank[v], network.level[v])
            network.add_arc(tail, copy, moved_law)
            for head, law in list(network.succ[v].items()):
                network.add_arc(copy, head, law)
        return len(selected)

    def _estimate(self, graph: TaskGraph, model: ErrorModel) -> EstimateResult:
        network, source, sink = self._build_network(graph, model)
        cap = self.max_duplications
        if cap is None:
            cap = 50 * (graph.num_tasks + graph.num_edges + 10)
        duplications = 0
        rounds = 0
        join_rounds = 0
        with ParallelService(
            retries=self.exec_retries,
            timeout=self.exec_timeout,
            on_failure=self.exec_on_failure,
        ) as service:
            while True:
                # Exhaust series reductions in rounds of independent arc
                # groups (the induced parallel merges happen at the end of
                # each round).
                while True:
                    selected = self._select_series_round(network)
                    if not selected:
                        break
                    self._reduce_series_round(network, selected, service)
                    rounds += 1

                # Finished when only source and sink remain (vertex deletion
                # never touches the terminals, so two survivors mean only the
                # source->sink arc is left).
                if len(network.succ) <= 2:
                    break

                # No series vertex available: duplicate one round of
                # independent (non-adjacent) joins, deepest first.
                duplications += self._duplicate_join_round(network)
                if duplications > cap:
                    raise EstimationError(
                        f"Dodin node duplication exceeded the safety cap "
                        f"({cap}); increase max_duplications or use "
                        "another estimator"
                    )
                join_rounds += 1

        final_law = network.succ[source].get(sink)
        if final_law is None:
            raise EstimationError("Dodin reduction did not produce a source->sink arc")

        return EstimateResult(
            method=self.name,
            expected_makespan=final_law.mean(),
            failure_free_makespan=critical_path_length(graph),
            wall_time=0.0,
            details={
                "makespan_std": final_law.std(),
                "duplications": duplications,
                "join_rounds": join_rounds,
                "series_reductions": network.series_reductions,
                "parallel_reductions": network.parallel_reductions,
                "reduction_rounds": rounds,
                "batched": self.batched,
                "max_support": self.max_support,
                "final_support": final_law.support_size,
                "execution": service.report.as_dict(),
            },
        )
