"""Workloads, output checks and metrics of the end-to-end benchmark.

Import this module only after ``run.hermetic_environment()`` has scrubbed
the ``REPRO_*`` variables: every knob the package would otherwise read from
the environment is passed explicitly below.

Each workload is a *main* phase, timed for ``--seconds``, interleaved with
short fixed-size *probe* phases of the other two kinds on small graphs.
The main phase is what the workload exists for; the probes exist because
every run reports every end-to-end and per-layer metric, so each run
touches every layer at least a little.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import multiprocessing
import os
import platform
import re
import resource
import signal
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

from repro import estimate_expected_makespan
from repro.core import ensure_valid, graph_from_dict, graph_to_dict, schedule_for
from repro.core.backends import kernel_backend_status
from repro.core.kernels import schedule_compilations
from repro.estimators import get_estimator
from repro.exec import REGISTRY
from repro.failures import ExponentialErrorModel
from repro.service import EstimationServer, ServiceClient
from repro.sim import MonteCarloEngine
from repro.workflows import KernelTimings, build_dag

from tracing import Tracer

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
OUT = HERE / "out"

PFAIL = 1e-3
METHODS = ("first-order", "normal", "normal-correlated", "second-order", "dodin")
#: The cheap methods also run on CHEAP_REPEATS more fresh builds of each
#: graph per round, so that their medians rest on more calls.
CHEAP_METHODS = METHODS[:3]
CHEAP_REPEATS = 3

#: Every knob an estimator would resolve from ``REPRO_*``, fixed here.
_EXEC = {"exec_retries": 0, "exec_on_failure": "raise"}
ANALYTIC_OPTIONS = {
    "first-order": {},
    "normal": {"kernel_backend": "numpy"},
    "normal-correlated": {
        "correlation_backend": "banded",
        "kernel_backend": "numpy",
        "workers": 1,
        **_EXEC,
    },
    "second-order": {"workers": 1, **_EXEC},
    "dodin": {"workers": 1, **_EXEC},
}
MC_OPTIONS = {"dtype": "float64", "kernel_backend": "numpy", "streaming": False, **_EXEC}
MC_BACKENDS = {
    "serial": {"backend": "serial", "workers": 1},
    "processes": {"backend": "processes", "workers": 2},
}
SERVICE_METHODS = ("first-order", "normal")
SERVICE_OPTIONS = {"normal": {"kernel_backend": "numpy"}}
CLIENTS = 2

#: Analytic inputs are drawn from this many kernel-time variants, whose
#: estimates ``record.py`` stores in ``references.json``.
VARIANTS = 16
#: Monte Carlo seeds are drawn from ``range(MC_SEEDS)``; ``record.py``
#: checks each of them against the high-trial reference.
MC_SEEDS = 16
#: Relative tolerance of the analytic estimates against the recording.
ANALYTIC_RTOL = 1e-9
#: Monte Carlo estimates must lie within this many standard errors of the
#: high-trial reference (the two errors combined in quadrature).
MC_SIGMAS = 4.0
#: Every eighth fresh service response is re-computed single-shot.
FRESH_CHECK_EVERY = 8
SETUP_REPEATS = 7
#: Slices a run alternates between its main phase and its probes.
SLICES = 8

ANALYTIC_MAIN = {"graphs": (("cholesky", 24), ("lu", 16), ("qr", 16))}
ANALYTIC_PROBE = {"graphs": (("cholesky", 10),), "rounds": 16}
#: 10k trials rather than 20k: four pairs of estimates in a 20 s run instead
#: of two, so that the medians of the two backends hold steady.
MC_MAIN = {"size": 24, "trials": 10_000}
MC_PROBE = {"size": 10, "trials": 4_000, "pairs": 16}
SERVICE_MAIN = {"size": 16, "cache_bytes": 320_000}
SERVICE_PROBE = {"size": 8, "cache_bytes": 64_000, "requests": 160}

#: End-to-end metric -> (unit, reduction of its samples).  A per-method
#: latency is the geometric mean over the graphs of each graph's median
#: call: a pooled median would report only the middle-sized graph.
END_TO_END = {
    "setup_s": ("s", "median"),
    "peak_rss_mb": ("MB", "value"),
    "ok_ratio": ("ratio", "value"),
    **{f"latency_p50_ms.{m}": ("ms", "per-graph median") for m in METHODS},
    "mc_trials_per_s.serial": ("1/s", "median"),
    "mc_trials_per_s.processes": ("1/s", "median"),
    "requests_per_s": ("1/s", "value"),
    "hit_p50_ms": ("ms", "median"),
    "miss_p50_ms": ("ms", "median"),
    "request_p90_ms": ("ms", "p90"),
}

#: Spans whose per-call median self time is a per-layer metric.
SPAN_METRICS = {
    "workflows.build": "workflows.build_s",
    "core.index": "core.index_s",
    "core.schedule.up": "core.schedule_s.up",
    "core.schedule.down": "core.schedule_s.down",
    "core.validate": "core.validate_s",
    "sim.engine_init": "sim.engine_init_s",
    "sim.run": "sim.run_s",
}
#: Per-layer metric -> unit.  Times are per-call medians, counts are run
#: totals, bytes are read at the end of the measured phases.
PER_LAYER = {
    "workflows.build_s": "s",
    "core.index_s": "s",
    "core.schedule_s.up": "s",
    "core.schedule_s.down": "s",
    "core.schedule_compilations": "count",
    "core.validate_s": "s",
    **{f"estimators.{m}.self_s": "s" for m in METHODS},
    "estimators.dodin.duplications": "count",
    "sim.engine_init_s": "s",
    "sim.run_s": "s",
    "sim.trials": "count",
    "exec.attempts": "count",
    "exec.retries": "count",
    "exec.timeouts": "count",
    "exec.pool_rebuilds": "count",
    "exec.degradations": "count",
    "exec.mean_partition_s": "s",
    "exec.shm.hits": "count",
    "exec.shm.misses": "count",
    "exec.shm.resident_bytes": "bytes",
    "service.roundtrip_s": "s",
    "service.handle_s": "s",
    "service.transport_s": "s",
    "service.estimate_s": "s",
    "service.dispatch_s": "s",
    "service.cache.hits": "count",
    "service.cache.misses": "count",
    "service.cache.evictions": "count",
    "service.cache.hit_ratio": "ratio",
    "service.cache.resident_bytes": "bytes",
}


def kernel_timings(variant: int) -> KernelTimings:
    """The default kernel times, each scaled by a factor in [0.9, 1.1] fixed by ``variant``."""
    rng = np.random.default_rng([0xE2E, variant])
    base = KernelTimings.default()
    return KernelTimings(
        {name: t * (0.9 + 0.2 * rng.random()) for name, t in sorted(base.timings.items())},
        tile_size=base.tile_size,
    )


def analytic_key(workflow: str, size: int, variant: int, method: str) -> str:
    return f"{workflow}-{size}-v{variant}-{method}"


#: Seconds one round of the host-speed probe takes on the reference host.
REFERENCE_PROBE_S = 3e-3
_PROBE_PAIRS = [(i * 7919 % 10007, str(i)) for i in range(6000)]
_PROBE_ARRAY = np.random.default_rng(0xE2E).random(1 << 20)
_PROBE_INDEX = np.random.default_rng(0xE2E + 1).integers(0, 1 << 20, 60_000)


def host_factor() -> float:
    """Reference-host seconds per second of this host, measured now.

    Shared hosts switch, every 5 to 20 s, between speeds up to 1.5x
    apart, so a run's medians depend on how much of it fell in the slow
    state.  Every timed call is multiplied by the geometric mean of the
    factors measured right before and right after it.  The probe is a
    fixed mix of work like the package's, unrelated to it: Python dict,
    list and sort work on small objects, and NumPy gathers from an 8 MB
    array; best of two rounds.  The timings then read as seconds on a host
    where one round takes ``REFERENCE_PROBE_S``; a change to the package
    moves them as it moves the raw times.
    """
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        groups = {}
        for key, value in _PROBE_PAIRS:
            groups.setdefault(key % 512, []).append(value)
        sorted(_PROBE_PAIRS, key=lambda pair: pair[0])
        _PROBE_ARRAY[_PROBE_INDEX].sum()
        np.add.at(np.zeros(1000), _PROBE_INDEX % 1000, 1.0)
        best = min(best, time.perf_counter() - start)
    return REFERENCE_PROBE_S / best


def _draws(seed: int, stream: int, pool: int):
    """An endless, seed-determined walk over ``range(pool)``."""
    order = np.random.default_rng([seed, stream]).permutation(pool)
    return (int(order[i % pool]) for i in itertools.count())


class Run:
    """Samples, counters and failures of one benchmark run."""

    def __init__(self, seed: int, traced: bool, references: dict) -> None:
        self.seed = seed
        self.tracer = Tracer() if traced else None
        self.references = references
        self.samples = defaultdict(list)
        self.layer = defaultdict(list)
        self.counts = Counter()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._lock = threading.Lock()

    def span(self, name: str, **args):
        return self.tracer.span(name, **args) if self.tracer else nullcontext()

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, what: str) -> None:
        with self._lock:
            self.failed += 1
            self.errors.append(what)

    def host_factor(self) -> float:
        factor = host_factor()
        self.samples["host_factor"].append(factor)
        return factor


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------


class Phase:
    """One kind of work, measured in slices.

    ``measure(run, until=t)`` continues until the phase has measured ``t``
    seconds in all (a main phase); ``measure(run, units=n)`` does ``n``
    more units of work (a probe).  A run alternates slices of its main
    phase with slices of its probes, so that every phase samples the whole
    run rather than one stretch of it.
    """

    units = None  # a probe's units of work per run

    def setup(self, run: Run) -> None:
        self.elapsed = 0.0

    def measure(self, run: Run, until=None, units=None) -> None:
        while (until is None or self.elapsed < until) and (units is None or units > 0):
            start = time.perf_counter()
            self.step(run)
            self.elapsed += time.perf_counter() - start
            if units is not None:
                units -= 1

    def step(self, run: Run) -> None:
        raise NotImplementedError

    def finish(self, run: Run) -> None:
        pass

    def teardown(self) -> None:
        pass


class AnalyticSweep(Phase):
    """Fresh ``build_dag`` graphs through each analytic estimator in turn.

    A unit is a round over every graph: one fresh build through all five
    methods, then ``CHEAP_REPEATS`` fresh builds through the cheap ones.
    Each graph contributes equally to every per-method median.
    """

    def __init__(self, graphs, rounds=None) -> None:
        self.graphs = graphs
        self.units = rounds

    def setup(self, run: Run) -> None:
        super().setup(run)
        self.variants = _draws(run.seed, 1, VARIANTS)
        warm = build_dag("cholesky", 4)
        model = ExponentialErrorModel.for_graph(warm, PFAIL)
        for method in METHODS:
            estimate_expected_makespan(warm, model, method=method, **ANALYTIC_OPTIONS[method])

    def step(self, run: Run) -> None:
        for workflow, size in self.graphs:
            self._graph(run, workflow, size, METHODS)
            for _ in range(CHEAP_REPEATS):
                self._graph(run, workflow, size, CHEAP_METHODS)

    def _graph(self, run: Run, workflow: str, size: int, methods) -> None:
        variant = next(self.variants)
        gc.collect()
        with run.span("workflows.build", workflow=workflow, size=size, variant=variant):
            graph = build_dag(workflow, size, timings=kernel_timings(variant))
        model = ExponentialErrorModel.for_graph(graph, PFAIL)
        for position, method in enumerate(methods):
            key = analytic_key(workflow, size, variant, method)
            run.attempt()
            before = run.host_factor()
            gc.collect()  # each call pays only for the garbage it makes
            try:
                if run.tracer is None:
                    start = time.perf_counter()
                    result = estimate_expected_makespan(
                        graph, model, method=method, **ANALYTIC_OPTIONS[method]
                    )
                    seconds = time.perf_counter() - start
                else:
                    result, seconds = self._traced(
                        run, graph, model, method, position == 0, workflow=workflow, size=size
                    )
            except Exception as exc:
                run.fail(f"{key}: {exc!r}")
                continue
            factor = math.sqrt(before * run.host_factor())
            run.samples[f"latency_p50_ms.{method}"].append(
                (workflow, size, seconds * factor * 1e3)
            )
            reference = run.references["analytic"].get(key)
            if reference is None or not math.isclose(
                result.expected_makespan, reference, rel_tol=ANALYTIC_RTOL, abs_tol=0.0
            ):
                run.fail(f"{key}: estimate {result.expected_makespan!r} != recorded {reference!r}")

    @staticmethod
    def _traced(run: Run, graph, model, method: str, first: bool, **where):
        """The work of one ``estimate_expected_makespan`` call, split by layer.

        The first method on a fresh graph also pays for its index and both
        level schedules; here those are built by their own calls first.
        """
        with run.span(f"analytic.{method}", **where) as root:
            with run.span("core.validate"):
                ensure_valid(graph)
            if first:
                with run.span("core.index"):
                    graph.index()
                with run.span("core.schedule.up"):
                    schedule_for(graph, "up")
                with run.span("core.schedule.down"):
                    schedule_for(graph, "down")
            with run.span(f"estimators.{method}"):
                estimator = get_estimator(method, validate=False, **ANALYTIC_OPTIONS[method])
                result = estimator.estimate(graph, model)
        run.layer[f"estimators.{method}.self_s"].append(result.wall_time)
        if method == "dodin":
            run.counts["estimators.dodin.duplications"] += result.details["duplications"]
        return result, root.seconds


class MonteCarloReference(Phase):
    """Seeded Monte Carlo on one Cholesky DAG; a unit is one estimate per backend."""

    def __init__(self, size, trials, pairs=None) -> None:
        self.size = size
        self.trials = trials
        self.units = pairs

    def setup(self, run: Run) -> None:
        super().setup(run)
        self.seeds = _draws(run.seed, 2, MC_SEEDS)
        self.graph = build_dag("cholesky", self.size)
        self.model = ExponentialErrorModel.for_graph(self.graph, PFAIL)
        self.reference = run.references["monte-carlo"][f"cholesky-{self.size}"]
        # The first run of each backend in a process is markedly slower.
        for backend in MC_BACKENDS:
            estimate_expected_makespan(
                self.graph,
                self.model,
                method="monte-carlo",
                trials=min(2_000, self.trials),
                seed=0,
                **MC_OPTIONS,
                **MC_BACKENDS[backend],
            )

    def step(self, run: Run) -> None:
        for backend in MC_BACKENDS:
            self._estimate(run, backend, next(self.seeds))

    def _estimate(self, run: Run, backend: str, seed: int) -> None:
        knobs = dict(MC_OPTIONS, **MC_BACKENDS[backend], trials=self.trials, seed=seed)
        run.attempt()
        before = run.host_factor()
        gc.collect()
        try:
            if run.tracer is None:
                start = time.perf_counter()
                result = estimate_expected_makespan(
                    self.graph, self.model, method="monte-carlo", **knobs
                )
                seconds = time.perf_counter() - start
                mean, std_error = result.expected_makespan, result.std_error
            else:
                with run.span(f"mc.{backend}", seed=seed) as root:
                    with run.span("core.validate"):
                        ensure_valid(self.graph)
                    with run.span("sim.engine_init"):
                        engine = MonteCarloEngine(self.graph, self.model, **knobs)
                    with run.span("sim.run"):
                        result = engine.run()
                seconds = root.seconds
                mean, std_error = result.mean, result.standard_error
                self._count(run, result)
        except Exception as exc:
            run.fail(f"monte-carlo {backend} seed {seed}: {exc!r}")
            return
        factor = math.sqrt(before * run.host_factor())
        run.samples[f"mc_trials_per_s.{backend}"].append(self.trials / (seconds * factor))
        reference = self.reference
        tolerance = MC_SIGMAS * math.hypot(std_error, reference["std_error"])
        if not abs(mean - reference["mean"]) <= tolerance:
            run.fail(
                f"monte-carlo {backend} seed {seed}: {mean!r} is more than "
                f"{MC_SIGMAS:g} sigma from the reference {reference['mean']!r}"
            )

    @staticmethod
    def _count(run: Run, result) -> None:
        run.counts["sim.trials"] += result.trials
        execution = result.execution or {}
        for name in ("attempts", "retries", "timeouts", "pool_rebuilds"):
            run.counts[f"exec.{name}"] += execution.get(name, 0)
        run.counts["exec.degradations"] += len(execution.get("degradations", ()))
        if execution.get("partitions"):
            run.layer["exec.mean_partition_s"].append(
                execution["partition_seconds"] / execution["partitions"]
            )


_RESPONSE_ID = re.compile(rb'\{"id":(\d+),')


class ServiceMix(Phase):
    """A closed loop of two clients against an in-process estimation server.

    Each client alternates between repeating its own payload (cache
    hits) and sending a fresh weight perturbation of it (misses), out of
    phase with the other client.  The
    byte budget holds only a handful of entries, so misses also evict.
    The clients repeat different payloads because two in-flight requests
    on one cached DAG can return wrong first-order estimates: estimates on
    one ``TaskGraph`` from two threads race.
    """

    def __init__(self, size, cache_bytes, requests=None) -> None:
        self.size = size
        self.cache_bytes = cache_bytes
        self.units = requests
        self.server = None

    def setup(self, run: Run) -> None:
        self.teardown()
        super().setup(run)
        self.sent = [0] * CLIENTS
        self.completed = 0
        self.step_seconds = 0.0  # lockstep steps, each scaled by its host factor
        self._expected_hot = {}
        self.seed = run.seed
        variants = _draws(run.seed, 3, VARIANTS)
        self.hot = [
            graph_to_dict(build_dag("cholesky", self.size, timings=kernel_timings(next(variants))))
            for _ in range(CLIENTS)
        ]
        self.server = EstimationServer(workers=CLIENTS, cache_bytes=self.cache_bytes).start()
        with ServiceClient(port=self.server.port, timeout=120.0) as client:
            for tag in (0, 2, 1):  # each client's payload, then one miss
                response = client.request(self._message(tag))
                if not response.get("ok"):
                    raise RuntimeError(f"service warm-up failed: {response.get('error')}")

    def _payload(self, tag: int) -> dict:
        """Even tags: a client's repeated payload; odd tags: a fresh perturbation of it."""
        hot = self.hot[(tag // 2) % CLIENTS]
        if tag % 2 == 0:
            return hot
        noise = np.random.default_rng([self.seed, 4, tag]).random(len(hot["tasks"]))
        payload = dict(hot)
        payload["tasks"] = [
            dict(task, weight=task["weight"] * (1.0 + 1e-6 * u))
            for task, u in zip(hot["tasks"], noise)
        ]
        return payload

    def _message(self, tag: int) -> dict:
        return {
            "id": tag,
            "graph": self._payload(tag),
            "pfail": PFAIL,
            "methods": list(SERVICE_METHODS),
            "options": SERVICE_OPTIONS,
        }

    def _stats(self) -> dict:
        with ServiceClient(port=self.server.port, timeout=120.0) as client:
            return client.stats()["cache"]

    def measure(self, run: Run, until=None, units=None) -> None:
        """Run both clients for ``until - elapsed`` seconds, or ``units`` requests.

        The clients move in lockstep: at every step each sends one request
        and both wait for both replies, one client sending a hit while the
        other sends a miss.  Left free-running, which requests overlap
        drifts from run to run and so do the latencies.
        """
        if until is not None and self.elapsed >= until:
            return
        before = self._stats()
        if run.tracer is not None:
            self._trace_handler(run.tracer)
        deadline = None if until is None else time.perf_counter() + until - self.elapsed
        steps = None if units is None else units // CLIENTS
        stop = threading.Event()
        done = []
        factors = []  # the host factor before each step, and after the last
        started = None

        def next_step() -> None:  # runs once per step, when both clients wait
            nonlocal steps, started
            now = time.perf_counter()
            factors.append(run.host_factor())
            if started is not None:
                self.step_seconds += (now - started) * math.sqrt(factors[-2] * factors[-1])
            if steps is not None:
                steps -= 1
                if steps < 0:
                    stop.set()
            if deadline is not None and now >= deadline:
                stop.set()
            started = time.perf_counter()

        barrier = threading.Barrier(CLIENTS, action=next_step)

        def client_loop(client_index: int) -> None:
            try:
                with ServiceClient(port=self.server.port, timeout=120.0) as client:
                    while True:
                        barrier.wait()
                        if stop.is_set():
                            return
                        step = len(factors) - 1
                        k = self.sent[client_index]
                        self.sent[client_index] = k + 1
                        # Tags are unique; parity says hit or miss, and
                        # (tag // 2) % CLIENTS names the client's payload.
                        hot = (k + client_index) % 2 == 0
                        tag = 2 * (CLIENTS * k + client_index) + (0 if hot else 1)
                        message = self._message(tag)
                        span = None
                        if run.tracer is None:
                            start = time.perf_counter()
                            response = client.request(message)
                            latency = time.perf_counter() - start
                        else:
                            with run.tracer.span("service.roundtrip", request=tag) as span:
                                response = client.request(message)
                            latency = span.seconds
                        done.append((tag, latency, step, response, span))
            except threading.BrokenBarrierError:
                return
            except Exception as exc:
                barrier.abort()
                run.attempt()
                run.fail(f"service client {client_index}: {exc!r}")

        threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.elapsed += time.perf_counter() - start
        self.completed += len(done)
        if run.tracer is not None:
            del self.server.handle_line  # back to the class's method
        after = self._stats()

        for tag, latency, step, response, _ in done:
            run.attempt()
            if not response.get("ok"):
                run.fail(f"service request {tag}: {response.get('error')}")
                continue
            after_step = factors[min(step + 1, len(factors) - 1)]
            ms = latency * math.sqrt(factors[step] * after_step) * 1e3
            run.samples["hit_p50_ms" if tag % 2 == 0 else "miss_p50_ms"].append(ms)
            run.samples["request_p90_ms"].append(ms)
        self._check(run, done)
        self._count(run, before, after)
        if run.tracer is not None:
            self._split(run, done)

    def finish(self, run: Run) -> None:
        run.samples["requests_per_s"].append(self.completed / self.step_seconds)
        lookups = run.counts["service.cache.hits"] + run.counts["service.cache.misses"]
        if lookups:
            run.counts["service.cache.hit_ratio"] = run.counts["service.cache.hits"] / lookups

    def _trace_handler(self, tracer: Tracer) -> None:
        """Time ``EstimationServer.handle_line`` on the server's own threads."""
        handle_line = self.server.handle_line

        def traced_handle_line(line: bytes) -> bytes:
            start = time.perf_counter_ns()
            response = handle_line(line)
            end = time.perf_counter_ns()
            match = _RESPONSE_ID.match(response)
            tracer.record("service.handle", start, end, request=int(match.group(1)) if match else None)
            return response

        self.server.handle_line = traced_handle_line

    def _check(self, run: Run, done) -> None:
        """Responses must equal single-shot estimates of the same payload."""
        hot = self._expected_hot
        fresh = 0
        for tag, _, _, response, _ in done:
            if not response.get("ok"):
                continue
            if tag % 2 == 0:
                client_index = (tag // 2) % CLIENTS
                if client_index not in hot:
                    hot[client_index] = self._single_shot(tag)
                expected = hot[client_index]
            else:
                fresh += 1
                if fresh % FRESH_CHECK_EVERY != 1:
                    continue
                expected = self._single_shot(tag)
            got = [estimate["expected_makespan"] for estimate in response["estimates"]]
            if got != expected:
                run.fail(f"service request {tag}: {got} != single-shot {expected}")

    def _single_shot(self, tag: int):
        graph = graph_from_dict(self._payload(tag))
        return [
            estimate_expected_makespan(
                graph, PFAIL, method=method, **SERVICE_OPTIONS.get(method, {})
            ).expected_makespan
            for method in SERVICE_METHODS
        ]

    @staticmethod
    def _count(run: Run, before: dict, after: dict) -> None:
        for name in ("hits", "misses", "evictions"):
            run.counts[f"service.cache.{name}"] += after[name] - before[name]
        run.counts["service.cache.resident_bytes"] = after["resident_bytes"]

    @staticmethod
    def _split(run: Run, done) -> None:
        """Per request: transport = roundtrip − handle, dispatch = handle − estimates."""
        handles = {
            span.args["request"]: span
            for span in run.tracer.by_name("service.handle")
            if span.parent is None and span.args.get("request") is not None
        }
        for tag, roundtrip, _, response, span in done:
            handle = handles.get(tag)
            if handle is None or not response.get("ok"):
                continue
            handle.parent = span.id
            estimate = sum(e["wall_time"] for e in response["estimates"])
            run.layer["service.roundtrip_s"].append(roundtrip)
            run.layer["service.handle_s"].append(handle.seconds)
            run.layer["service.transport_s"].append(roundtrip - handle.seconds)
            run.layer["service.estimate_s"].append(estimate)
            run.layer["service.dispatch_s"].append(handle.seconds - estimate)

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


# Why each workload exists (also in BENCHMARK.json).  The first phase is
# the workload's main phase, timed for --seconds; the others are probes.
WORKLOADS = {
    # The paper's approximation path: fresh factorization DAGs through all
    # five analytic estimators.  The only workload where repro.estimators
    # does most of the work; for the cheap methods, repro.core set-up
    # (validation, GraphIndex, schedule compilation) is a large share.
    "analytic-sweep": lambda: [
        AnalyticSweep(**ANALYTIC_MAIN),
        MonteCarloReference(**MC_PROBE),
        ServiceMix(**SERVICE_PROBE),
    ],
    # The paper's ground truth: 20k-trial Monte Carlo on 2,600 tasks.
    # repro.sim and the kernels dominate and validation is <1%; the
    # processes half is the only place repro.exec and its shared-memory
    # plane carry real work.
    "mc-reference": lambda: [
        MonteCarloReference(**MC_MAIN),
        AnalyticSweep(**ANALYTIC_PROBE),
        ServiceMix(**SERVICE_PROBE),
    ],
    # The estimation service: hits exercise the read path (decode, memo,
    # cache, validation, encode), misses the write path (graph_from_dict,
    # request_key, schedule compile, shm publish, evict).  A gain for hits
    # that costs misses shows here.
    "service-mixed": lambda: [
        ServiceMix(**SERVICE_MAIN),
        AnalyticSweep(**ANALYTIC_PROBE),
        MonteCarloReference(**MC_PROBE),
    ],
}


# ----------------------------------------------------------------------
# Running a workload
# ----------------------------------------------------------------------


def _shm_segments() -> set:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def _join_children(timeout: float = 30.0) -> None:
    """Wait for every worker process the package started to exit."""
    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.terminate()
            child.join(5.0)


def _stop_resource_tracker(timeout: float = 10.0) -> None:
    """Stop multiprocessing's resource tracker process and wait for it.

    Shared memory starts the tracker; left alone it outlives the run until
    it notices that its parent has gone.  Closing its pipe makes it exit.
    Call this after every worker has exited: a worker holds the pipe too.
    """
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is None:
        return
    os.close(fd)
    if pid is None:
        return
    deadline = time.monotonic() + timeout
    try:
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:
        pass


def fingerprint(scrubbed) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backends": kernel_backend_status(),
        "scrubbed_env": list(scrubbed),
    }


def _reduce(values, how: str) -> float:
    if how == "per-graph median":
        graphs = defaultdict(list)
        for workflow, size, value in values:
            graphs[workflow, size].append(value)
        return float(statistics.geometric_mean(statistics.median(v) for v in graphs.values()))
    if how == "p90":
        return float(np.percentile(values, 90))
    if how == "median":
        return float(statistics.median(values))
    return float(values[-1])


def end_to_end(run: Run) -> dict:
    """End-to-end metric -> (value, unit, samples); a traced run times its root spans."""
    return {
        name: (_reduce(run.samples[name], how), unit, len(run.samples[name]))
        for name, (unit, how) in END_TO_END.items()
        if run.samples[name]
    }


def per_layer(run: Run) -> dict:
    """Per-layer metric -> (value, unit, samples) from the spans and counters."""
    self_times = run.tracer.self_times()
    for span in run.tracer.spans:
        metric = SPAN_METRICS.get(span.name)
        if metric is not None:
            run.layer[metric].append(self_times[span.id])
    result = {}
    for name, unit in PER_LAYER.items():
        if name in run.layer:
            samples = run.layer[name]
            result[name] = (float(statistics.median(samples)), unit, len(samples))
        else:
            result[name] = (float(run.counts.get(name, 0)), unit, 1)
    return result


def run_workload(name: str, seed: int, seconds: float, traced: bool, scrubbed) -> dict:
    """Set up, measure and check one workload; return the result object."""
    references = json.loads(REFERENCES.read_text())
    run = Run(seed, traced, references)
    phases = WORKLOADS[name]()
    segments_before = _shm_segments()
    try:
        for _ in range(SETUP_REPEATS):
            before = run.host_factor()
            start = time.perf_counter()
            for phase in phases:
                phase.setup(run)
            took = time.perf_counter() - start
            run.samples["setup_s"].append(took * math.sqrt(before * run.host_factor()))
        # What set-up left behind is long-lived; keep it out of every later
        # collection so that pauses depend on the measured work alone.
        gc.collect()
        gc.freeze()
        compilations = schedule_compilations()
        shm_hits, shm_misses = REGISTRY.hits, REGISTRY.misses
        main, probes = phases[0], phases[1:]
        for part in range(1, SLICES + 1):
            main.measure(run, until=seconds * part / SLICES)
            for probe in probes:
                probe.measure(run, units=probe.units // SLICES)
        for phase in phases:
            phase.finish(run)
        run.counts["core.schedule_compilations"] = schedule_compilations() - compilations
        run.counts["exec.shm.hits"] = REGISTRY.hits - shm_hits
        run.counts["exec.shm.misses"] = REGISTRY.misses - shm_misses
        run.counts["exec.shm.resident_bytes"] = REGISTRY.resident_bytes()
    finally:
        for phase in phases:
            phase.teardown()
        REGISTRY.clear()
        _join_children()
        _stop_resource_tracker()
    run.attempt()
    leaked = sorted(_shm_segments() - segments_before)
    if leaked:
        run.fail(f"leaked shared-memory segments: {', '.join(leaked)}")
    run.samples["peak_rss_mb"].append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    run.samples["ok_ratio"].append((run.attempted - run.failed) / run.attempted)

    host = fingerprint(scrubbed)
    factors = run.samples["host_factor"]
    host["host_factor"] = {
        "median": statistics.median(factors),
        "min": min(factors),
        "max": max(factors),
        "probes": len(factors),
    }
    e2e = end_to_end(run)
    report = {"workload": name, "seed": seed, "traced": traced, "host": host}
    report["end_to_end"] = {k: v[0] for k, v in e2e.items()}
    OUT.mkdir(exist_ok=True)
    _print("end-to-end" + (" (traced)" if traced else ""), e2e)
    if traced:
        layers = per_layer(run)
        report["per_layer"] = {k: v[0] for k, v in layers.items()}
        _print("per-layer", layers)
        _print_overhead(name, seed, report["end_to_end"])
        _print_accounting(run)
        trace_path = OUT / f"trace-{name}-seed{seed}.json"
        run.tracer.write_chrome(trace_path, report)
        print(f"chrome trace: {trace_path}")
        metrics = {k: {"value": v[0], "unit": v[1]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v[0], "unit": v[1]} for k, v in e2e.items()}
    (OUT / f"summary-{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(report, indent=1)
    )
    print(f"host: {json.dumps(host)}")
    for error in run.errors[:20]:
        print(f"FAILED: {error}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def _print(title: str, metrics: dict) -> None:
    print(f"-- {title}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit:6s} (n={samples})")


def _print_overhead(name: str, seed: int, traced: dict) -> None:
    """Traced minus untraced end-to-end values, when an untraced run of this seed exists."""
    path = OUT / f"summary-{name}-seed{seed}-trace0.json"
    if not path.exists():
        print(f"-- tracing overhead: run --trace 0 --seed {seed} first to compare")
        return
    untraced = json.loads(path.read_text())["end_to_end"]
    print("-- tracing overhead (traced - untraced)")
    for metric, value in traced.items():
        if metric in untraced and metric not in ("setup_s", "peak_rss_mb", "ok_ratio"):
            delta = value - untraced[metric]
            print(f"{metric:34s} {delta:+14.6g} ({delta / untraced[metric]:+.1%})")


def _print_accounting(run: Run) -> None:
    """First-order: do the separately timed calls add up to the traced call?"""
    roots = run.tracer.by_name("analytic.first-order")
    if not roots:
        return
    self_times = run.tracer.self_times()
    core = defaultdict(float)
    for span in run.tracer.spans:
        if span.parent is not None and span.name.startswith("core."):
            core[span.parent] += self_times[span.id]
    walls = run.layer["estimators.first-order.self_s"]
    where = [(root.args["workflow"], root.args["size"]) for root in roots]
    parts = [(*w, (core[root.id] + wall) * 1e3) for w, root, wall in zip(where, roots, walls)]
    calls = [(*w, root.seconds * 1e3) for w, root in zip(where, roots)]
    print(
        "-- first-order accounting (per-graph medians, geometric mean): core "
        "(validate + index + schedules) + estimator wall_time = "
        f"{_reduce(parts, 'per-graph median'):.3f} ms; traced call = "
        f"{_reduce(calls, 'per-graph median'):.3f} ms"
    )
