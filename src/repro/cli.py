"""Command-line interface.

The CLI exposes the common workflows of the package without writing Python:

.. code-block:: console

    # Generate a DAG and save it as JSON or DOT
    python -m repro generate --workflow cholesky --size 8 --output chol8.json
    python -m repro generate --workflow lu --size 5 --format dot --output lu5.dot

    # Estimate the expected makespan of a DAG under silent errors
    python -m repro estimate --workflow lu --size 12 --pfail 0.001 \
        --method first-order --method normal --method monte-carlo

    # Re-run the paper's experiments
    python -m repro experiment figure --figure figure5
    python -m repro experiment table1 --size 12
    python -m repro experiment all --output-dir results/

    # Schedule a DAG on a finite platform and simulate it under failures
    python -m repro schedule --workflow cholesky --size 8 --processors 4 \
        --pfail 0.01 --priority expected-first-order

    # Run the long-lived estimation service (JSON lines over TCP)
    python -m repro serve --port 8642 --cache-bytes 268435456
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path
from typing import List, Optional

from . import estimate_expected_makespan
from .core.serialize import save_dot, save_json
from .estimators.registry import available_estimators, canonical_name
from .experiments.config import DRIVER_KNOBS, PAPER_FIGURES, TABLE1, ScalabilityConfig
from .experiments.error_vs_size import run_figure
from .experiments.reporting import figure_ascii_plot, figure_table, scalability_table
from .experiments.runner import run_everything
from .experiments.scalability import run_scalability
from .failures.models import ExponentialErrorModel
from .options import ESTIMATOR_KNOBS, KNOBS
from .scheduling import Platform, cp_schedule, expected_schedule_makespan
from .workflows.registry import available_workflows, build_dag

__all__ = ["main", "build_parser"]


def _add_knob_flags(parser: argparse.ArgumentParser, knobs) -> None:
    """One flag per setting row of :mod:`repro.options`; unset flags stay ``None``."""
    for knob in knobs:
        kwargs = dict(default=None, help=f"{knob.help}; also via {knob.env}")
        if knob.type is bool:
            kwargs["action"] = "store_true"
        elif knob.choices:
            kwargs["choices"] = list(knob.choices)
        else:
            kwargs["type"] = knob.type
        parser.add_argument(knob.flag, **kwargs)


def _add_trials_and_seed(parser: argparse.ArgumentParser, knobs) -> None:
    """The flags of ``knobs`` (``--trials`` first), ``--seed`` after ``--trials``."""
    _add_knob_flags(parser, knobs[:1])
    parser.add_argument("--seed", type=int, default=None, help="Monte Carlo seed")
    _add_knob_flags(parser, knobs[1:])


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser of the ``repro-makespan`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-makespan",
        description=(
            "Expected makespan of task graphs under silent errors "
            "(reproduction of Casanova, Herrmann, Robert, P2S2/ICPP 2016)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # generate ----------------------------------------------------------
    gen = sub.add_parser("generate", help="generate a workflow DAG and write it to a file")
    gen.add_argument("--workflow", required=True, choices=available_workflows())
    gen.add_argument("--size", type=int, required=True, help="graph size parameter (k)")
    gen.add_argument("--format", choices=["json", "dot"], default="json")
    gen.add_argument("--output", required=True, help="output file path")

    # estimate ----------------------------------------------------------
    est = sub.add_parser("estimate", help="estimate the expected makespan of a DAG")
    est.add_argument("--workflow", required=True, choices=available_workflows())
    est.add_argument("--size", type=int, required=True)
    est.add_argument("--pfail", type=float, default=1e-3,
                     help="failure probability of a task of average weight (default 1e-3)")
    est.add_argument("--method", action="append", default=None,
                     help=f"estimator name (repeatable); available: {', '.join(available_estimators())}")
    _add_trials_and_seed(est, ESTIMATOR_KNOBS)
    est.add_argument("--json", action="store_true", help="print machine-readable JSON")

    # experiment ---------------------------------------------------------
    exp = sub.add_parser("experiment", help="re-run the paper's experiments")
    exp_sub = exp.add_subparsers(dest="experiment", required=True)

    fig = exp_sub.add_parser("figure", help="one error-vs-size figure")
    fig.add_argument("--figure", required=True, choices=sorted(PAPER_FIGURES))
    _add_trials_and_seed(fig, DRIVER_KNOBS)
    fig.add_argument("--no-plot", action="store_true")

    tab = exp_sub.add_parser("table1", help="the scalability study (Table I)")
    tab.add_argument("--size", type=int, default=None,
                     help="tile count k (paper: 20; smaller values for quick runs)")
    _add_trials_and_seed(tab, DRIVER_KNOBS)

    allp = exp_sub.add_parser("all", help="all figures and Table I")
    _add_knob_flags(allp, DRIVER_KNOBS[:1])
    allp.add_argument("--table1-size", type=int, default=None)
    allp.add_argument("--seed", type=int, default=None, help="Monte Carlo seed")
    _add_knob_flags(allp, DRIVER_KNOBS[1:])
    allp.add_argument("--output-dir", default=None, help="directory for CSV archives")

    # serve --------------------------------------------------------------
    srv = sub.add_parser(
        "serve",
        help="run the long-lived estimation service (JSON lines over TCP)",
    )
    srv.add_argument("--host", default="127.0.0.1", help="bind address")
    srv.add_argument("--port", type=int, default=8642,
                     help="bind port (0 picks a free port; default 8642)")
    _add_knob_flags(srv, [KNOBS["SERVICE_CACHE_BYTES"], KNOBS["SERVICE_WORKERS"]])

    # schedule -----------------------------------------------------------
    sch = sub.add_parser("schedule", help="CP-schedule a DAG and simulate it under failures")
    sch.add_argument("--workflow", required=True, choices=available_workflows())
    sch.add_argument("--size", type=int, required=True)
    sch.add_argument("--processors", type=int, default=4)
    sch.add_argument("--pfail", type=float, default=1e-2)
    sch.add_argument("--priority", default="bottom-level",
                     choices=["bottom-level", "expected-first-order", "expected-sculli"])
    sch.add_argument("--trials", type=int, default=500, help="execution-simulation trials")
    sch.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = build_dag(args.workflow, args.size)
    path = Path(args.output)
    if args.format == "json":
        save_json(graph, path)
    else:
        save_dot(graph, path)
    print(f"wrote {graph.num_tasks} tasks / {graph.num_edges} edges to {path}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    graph = build_dag(args.workflow, args.size)
    model = ExponentialErrorModel.for_graph(graph, args.pfail)
    methods = args.method or ["first-order", "normal", "dodin"]
    outputs = []
    for method in methods:
        key = canonical_name(method)
        kwargs = {
            knob.kwarg: getattr(args, knob.dest)
            for knob in ESTIMATOR_KNOBS
            if key in knob.applies_to and getattr(args, knob.dest) is not None
        }
        if key == "monte-carlo" and args.seed is not None:
            kwargs["seed"] = args.seed
        result = estimate_expected_makespan(graph, model, method=method, **kwargs)
        outputs.append(result)
        if not args.json:
            print(result.summary())
    if args.json:
        payload = {
            "workflow": args.workflow,
            "size": args.size,
            "num_tasks": graph.num_tasks,
            "pfail": args.pfail,
            "error_rate": model.error_rate,
            "estimates": [
                {
                    "method": r.method,
                    "expected_makespan": r.expected_makespan,
                    "failure_free_makespan": r.failure_free_makespan,
                    "wall_time": r.wall_time,
                }
                for r in outputs
            ],
        }
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    progress = lambda message: print(message, file=sys.stderr)  # noqa: E731
    knobs = {knob.field: getattr(args, knob.dest) for knob in DRIVER_KNOBS}
    if args.experiment == "figure":
        result = run_figure(args.figure, seed=args.seed, progress=progress, **knobs)
        print(figure_table(result))
        if not args.no_plot:
            print()
            print(figure_ascii_plot(result))
        return 0
    if args.experiment == "table1":
        config = TABLE1 if args.size is None else ScalabilityConfig(
            workflow=TABLE1.workflow, size=args.size, pfail=TABLE1.pfail
        )
        result = run_scalability(config, seed=args.seed, progress=progress, **knobs)
        print(scalability_table(result))
        return 0
    # all
    results = run_everything(
        table1_size=args.table1_size,
        seed=args.seed,
        output_dir=args.output_dir,
        progress=progress,
        **knobs,
    )
    for name in sorted(results["figures"], key=lambda n: int(n.replace("figure", ""))):
        print(figure_table(results["figures"][name]))
        print()
    print(scalability_table(results["table1"]))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so the asyncio front end only loads when serving.
    from .service.server import EstimationServer

    server = EstimationServer(
        args.host,
        args.port,
        cache_bytes=args.cache_bytes,
        workers=args.service_workers,
    )
    # Bind before announcing, so `--port 0` reports the port it drew.
    server.start()
    print(
        f"estimation service on {args.host}:{server.port} — "
        f"{server.workers} workers, cache "
        f"{server.cache_bytes if server.cache_bytes is not None else 'unbounded'}"
        f"{' bytes' if server.cache_bytes is not None else ''} "
        "(Ctrl-C to stop)",
        file=sys.stderr,
    )
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        print("estimation service stopped", file=sys.stderr)
    finally:
        server.stop()
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    graph = build_dag(args.workflow, args.size)
    model = ExponentialErrorModel.for_graph(graph, args.pfail)
    platform = Platform.homogeneous(args.processors)
    schedule = cp_schedule(graph, platform, priority=args.priority, model=model)
    mean, distribution = expected_schedule_makespan(
        schedule, model, trials=args.trials, seed=args.seed
    )
    print(f"workflow           : {args.workflow} k={args.size} ({graph.num_tasks} tasks)")
    print(f"processors         : {args.processors}")
    print(f"priority scheme    : {args.priority}")
    print(f"failure-free makespan (schedule): {schedule.makespan:.6g}")
    print(f"expected makespan under failures: {mean:.6g} "
          f"(p99 = {distribution.quantile(0.99):.6g}, {args.trials} simulated executions)")
    print(f"processor utilisation (failure-free): {schedule.utilisation() * 100:.1f}%")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro-makespan`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "estimate":
        return _cmd_estimate(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "schedule":
        return _cmd_schedule(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
