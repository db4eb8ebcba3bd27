#!/usr/bin/env python3
"""End-to-end benchmark of the repro estimation stack.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload analytic-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
workload split into separately timed calls per layer and prints every
per-layer metric, the tracing overhead against an earlier ``--trace 0`` run
of the same seed, and a Chrome trace under ``e2ebench/out/``.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def hermetic_environment() -> list:
    """Drop every ``REPRO_*`` variable and keep bytecode out of the tree.

    The package resolves kernel backend, Monte Carlo, correlation,
    execution (retries, fault plans, shared memory) and service knobs from
    ``REPRO_*`` variables; the benchmark passes each of them explicitly
    instead, so a fault plan or backend choice in the caller's environment
    cannot change the program it measures.  Worker processes inherit the
    scrubbed environment.
    """
    scrubbed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in scrubbed:
        del os.environ[name]
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    return scrubbed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package sources at {SRC}", file=sys.stderr)
        return 2
    scrubbed = hermetic_environment()
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), scrubbed
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
