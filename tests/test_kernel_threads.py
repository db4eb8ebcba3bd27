"""Concurrent estimates on one shared :class:`TaskGraph`.

The path APIs evaluate on a kernel cached on the graph's index.  A kernel
mutates its buffers in place, so threads sharing one would overwrite each
other's sweeps; the cache therefore holds one kernel per thread.  The
stress test below runs more threads than cores with a tiny switch interval
(so threads interleave inside the sweeps) and requires every result to
equal the single-threaded value exactly.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.core.kernels import wavefront_kernel
from repro.estimators.first_order import FirstOrderEstimator
from repro.estimators.sculli import SculliEstimator
from repro.failures.models import ExponentialErrorModel
from repro.workflows.cholesky import cholesky_dag

#: Wall-clock budget of one stress run; every thread stops at this
#: deadline even if it has not finished its calls.
TIME_BUDGET_S = 10.0
CALLS_PER_THREAD = 60


@pytest.mark.parametrize("estimator_cls", [FirstOrderEstimator, SculliEstimator])
def test_concurrent_estimates_on_one_graph_are_exact(estimator_cls):
    graph = cholesky_dag(6)
    model = ExponentialErrorModel.for_graph(graph, 1e-3)
    expected = estimator_cls().estimate(graph, model).expected_makespan
    threads_n = max(4, 2 * (os.cpu_count() or 1))
    deadline = time.monotonic() + TIME_BUDGET_S
    results = [[] for _ in range(threads_n)]
    errors = []
    start = threading.Barrier(threads_n, timeout=TIME_BUDGET_S)

    def work(out):
        try:
            start.wait()
            for _ in range(CALLS_PER_THREAD):
                if time.monotonic() > deadline:
                    break
                out.append(estimator_cls().estimate(graph, model).expected_makespan)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(out,), daemon=True)
            for out in results
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=TIME_BUDGET_S + 30.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)

    assert not errors
    values = [v for out in results for v in out]
    assert len(values) >= threads_n
    wrong = [v for v in values if v != expected]
    assert not wrong, f"{len(wrong)}/{len(values)} results differ, e.g. {wrong[:3]}"


def test_cached_kernel_is_per_thread(qr4):
    index = qr4.index()
    here = wavefront_kernel(index)
    assert wavefront_kernel(index) is here
    other = []
    t = threading.Thread(target=lambda: other.append(wavefront_kernel(index)))
    t.start()
    t.join(timeout=30.0)
    assert not t.is_alive()
    assert other[0] is not here
    assert other[0].schedule is here.schedule
