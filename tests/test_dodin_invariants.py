"""Invariants of Dodin's incrementally maintained reduction network.

The reduction rounds read their series candidates from a set the network
keeps in sync with every arc mutation, and the duplication rounds read
their joins from per-level buckets.  These tests compare both against a
brute-force scan of the network after every round, check that the round
selection equals the historical full-vertex scan, and pin the estimator's
output on the paper's DAGs to values recorded before the incremental
bookkeeping existed.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.generators import erdos_renyi_dag
from repro.estimators.dodin import DodinEstimator
from repro.failures.models import ExponentialErrorModel
from repro.workflows.cholesky import cholesky_dag
from repro.workflows.lu import lu_dag
from repro.workflows.qr import qr_dag


# ----------------------------------------------------------------------
# Scan oracles
# ----------------------------------------------------------------------
def scan_series(network) -> set:
    """Every non-terminal vertex with in-degree 1 and out-degree 1."""
    return {
        v
        for v in network.succ
        if v not in network.terminals
        and len(network.pred[v]) == 1
        and len(network.succ[v]) == 1
    }


def scan_joins(network) -> dict:
    """Vertices with in-degree >= 2, bucketed by level."""
    buckets: dict = {}
    for v in network.succ:
        if len(network.pred[v]) >= 2:
            buckets.setdefault(network.level[v], set()).add(v)
    return buckets


def scan_series_round(network) -> List[int]:
    """The historical selection: scan every vertex in ascending order."""
    selected: List[int] = []
    chosen = set()
    for v in sorted(network.succ):
        if v in network.terminals:
            continue
        if len(network.pred[v]) != 1 or len(network.succ[v]) != 1:
            continue
        (tail,) = network.pred[v]
        (head,) = network.succ[v]
        if tail in chosen or head in chosen:
            continue
        selected.append(v)
        chosen.add(v)
    return selected


class CheckedDodin(DodinEstimator):
    """Dodin that audits its candidate sets after every round."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.series_rounds_checked = 0
        self.join_rounds_checked = 0

    @staticmethod
    def audit(network) -> None:
        assert network.series == scan_series(network)
        assert network._joins_by_level == scan_joins(network)

    def _build_network(self, graph, model):
        network, source, sink = super()._build_network(graph, model)
        assert network.terminals == (source, sink)
        self.audit(network)
        return network, source, sink

    def _reduce_series_round(self, network, selected, service):
        assert selected == scan_series_round(network)
        super()._reduce_series_round(network, selected, service)
        self.audit(network)
        self.series_rounds_checked += 1

    def _duplicate_join_round(self, network):
        count = super()._duplicate_join_round(network)
        self.audit(network)
        self.join_rounds_checked += 1
        return count


# ----------------------------------------------------------------------
# Candidate sets equal the brute-force scan after every round
# ----------------------------------------------------------------------
class TestIncrementalCandidates:
    @settings(max_examples=40, deadline=None)
    @given(
        graph_seed=st.integers(0, 2**16),
        num_tasks=st.integers(1, 18),
        density=st.floats(min_value=0.05, max_value=0.8),
        batched=st.booleans(),
    )
    def test_sets_match_scan_on_random_dags(
        self, graph_seed, num_tasks, density, batched
    ):
        graph = erdos_renyi_dag(num_tasks, density, rng=graph_seed)
        model = ExponentialErrorModel.for_graph(graph, 1e-2)
        estimator = CheckedDodin(max_support=16, batched=batched)
        result = estimator.estimate(graph, model)
        assert estimator.series_rounds_checked == result.details["reduction_rounds"]
        assert estimator.join_rounds_checked == result.details["join_rounds"]

    def test_rounds_are_audited_on_a_non_series_parallel_dag(self, cholesky4):
        """Exercises both round kinds, including batched multi-row rounds."""
        model = ExponentialErrorModel.for_graph(cholesky4, 1e-3)
        estimator = CheckedDodin()
        result = estimator.estimate(cholesky4, model)
        assert result.details["duplications"] > 0
        assert estimator.join_rounds_checked == result.details["join_rounds"] > 0
        assert estimator.series_rounds_checked == result.details["reduction_rounds"] > 0

    def test_audit_detects_a_stale_set(self, cholesky4):
        """The oracle is not vacuous: a dropped candidate is caught."""
        model = ExponentialErrorModel.for_graph(cholesky4, 1e-3)
        network, _, _ = CheckedDodin()._build_network(cholesky4, model)
        network.series.pop()
        with pytest.raises(AssertionError):
            CheckedDodin.audit(network)


# ----------------------------------------------------------------------
# Output pinned to the full-scan implementation
# ----------------------------------------------------------------------
BUILDERS = {"cholesky": cholesky_dag, "lu": lu_dag, "qr": qr_dag}

#: (workflow, k, batched mean, scalar mean, duplications, join_rounds,
#:  reduction_rounds, series_reductions, parallel_reductions), recorded
#: with the per-round full vertex scan at pfail 1e-3, max_support 64.
PINNED = [
    ("cholesky", 6, "0x1.fa23886f2a43bp-1", "0x1.fa23886f2a43bp-1", 50, 25, 38, 162, 50),
    ("cholesky", 7, "0x1.36946772c5d0fp+0", "0x1.36946772c5d10p+0", 85, 38, 54, 253, 85),
    ("cholesky", 8, "0x1.70f489e986b1dp+0", "0x1.70f489e986b21p+0", 133, 53, 74, 373, 133),
    ("cholesky", 9, "0x1.a9447723d37e0p+0", "0x1.a9447723d37dfp+0", 196, 71, 96, 526, 196),
    ("cholesky", 10, "0x1.e0547716582a1p+0", "0x1.e0547716582bfp+0", 276, 91, 121, 716, 276),
    ("lu", 6, "0x1.4b487e127d4afp+0", "0x1.4b487e127d4afp+0", 105, 45, 69, 287, 105),
    ("lu", 7, "0x1.902f51d5c9903p+0", "0x1.902f51d5c9905p+0", 176, 66, 98, 456, 176),
    ("lu", 8, "0x1.d37661a6cf571p+0", "0x1.d37661a6cf57ep+0", 273, 91, 132, 681, 273),
    ("lu", 9, "0x1.0af88fdc5afe9p+1", "0x1.0af88fdc5afebp+1", 400, 120, 171, 970, 400),
    ("lu", 10, "0x1.2c76419fb7190p+1", "0x1.2c76419fb717dp+1", 561, 153, 215, 1331, 561),
    ("qr", 6, "0x1.a6b60193d75cfp+1", "0x1.a6b60193d75cfp+1", 105, 52, 94, 287, 105),
    ("qr", 7, "0x1.0259aa2363728p+2", "0x1.0259aa2363724p+2", 176, 75, 137, 456, 176),
    ("qr", 8, "0x1.30d4d97e00918p+2", "0x1.30d4d97e008b7p+2", 273, 102, 188, 681, 273),
    ("qr", 9, "0x1.5eb3e926d75d2p+2", "0x1.5eb3e926d775dp+2", 400, 133, 247, 970, 400),
    ("qr", 10, "0x1.8df1303183514p+2", "0x1.8df13031831c8p+2", 561, 168, 314, 1331, 561),
]

COUNTERS = (
    "duplications",
    "join_rounds",
    "reduction_rounds",
    "series_reductions",
    "parallel_reductions",
)


@pytest.mark.parametrize("row", PINNED, ids=[f"{r[0]}-{r[1]}" for r in PINNED])
def test_pinned_estimates(row):
    workflow, k, batched_mean, scalar_mean = row[:4]
    graph = BUILDERS[workflow](k)
    model = ExponentialErrorModel.for_graph(graph, 1e-3)
    for batched, mean in ((True, batched_mean), (False, scalar_mean)):
        result = DodinEstimator(batched=batched).estimate(graph, model)
        assert result.expected_makespan.hex() == mean
        assert tuple(result.details[c] for c in COUNTERS) == row[4:]
