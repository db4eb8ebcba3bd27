#!/usr/bin/env python3
"""Steadiness self-check of the end-to-end benchmark.

Runs every workload ``--runs`` times (default 10), each with its own
seed, and prints for each end-to-end metric its median and its spread:
the distance between the first and third quartiles of the runs, as a share
of the median.  Exits 1 when a spread other than ``setup_s``'s exceeds the
metric's bound in ``BENCHMARK.json``, or when any run fails.  With
``--traced`` it also makes one traced run per workload, with the last seed,
which prints the per-layer metrics and the tracing overhead.

    python3 e2ebench/steadiness.py --runs 10 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    if trace:
        print(proc.stdout)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    ok = True
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        failed = sum(r["failed"] for r in results)
        ok &= failed == 0 and all(r["correct"] for r in results)
        walls = [r["wall_s"] for r in results]
        print(
            f"== {workload}: {len(results)} runs, seeds {seeds[0]}..{seeds[-1]}, "
            f"{failed} failed, wall {statistics.median(walls):.1f} s median, {max(walls):.1f} s max"
        )
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            share = spread(values)
            verdict = "ok" if share <= bound else ("over (setup)" if name == "setup_s" else "OVER")
            ok &= verdict != "OVER"
            print(
                f"  {name:30s} median {statistics.median(values):12.6g} "
                f"spread {share:7.2%} bound {bound:5.0%} (bound/3 {bound / 3:6.2%}) {verdict}"
            )
        if args.traced:  # right after the untraced run of the same seed
            run_once(workload, seeds[-1], args.seconds, 1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
