#!/usr/bin/env python3
"""Re-record ``references.json``, the benchmark's expected outputs.

Run from the root of a checkout whose estimates are known to be right::

    python3 e2ebench/record.py

It stores every analytic estimate the workloads can request (each graph ×
kernel-time variant × method) and, per Monte Carlo graph, a high-trial
reference mean and standard error.  It then runs every Monte Carlo seed
the workloads draw from on both backends and refuses to write the file if
any of them misses the reference by more than the workloads' tolerance.
Takes about ten minutes on 2 vCPUs.
"""

from __future__ import annotations

import json
import math
import sys

from run import SRC, hermetic_environment

REFERENCE_TRIALS = {24: 400_000, 10: 1_000_000}
REFERENCE_SEED = 1_000_003  # outside the workloads' seed pool


def main() -> int:
    hermetic_environment()
    sys.path.insert(0, str(SRC))
    import workloads as w

    analytic = {}
    for config in (w.ANALYTIC_MAIN, w.ANALYTIC_PROBE):
        for workflow, size in config["graphs"]:
            for variant in range(w.VARIANTS):
                graph = w.build_dag(workflow, size, timings=w.kernel_timings(variant))
                model = w.ExponentialErrorModel.for_graph(graph, w.PFAIL)
                for method in w.METHODS:
                    result = w.estimate_expected_makespan(
                        graph, model, method=method, **w.ANALYTIC_OPTIONS[method]
                    )
                    analytic[w.analytic_key(workflow, size, variant, method)] = (
                        result.expected_makespan
                    )
            print(f"analytic {workflow} k={size}: {w.VARIANTS} variants", flush=True)

    monte_carlo = {}
    bad = []
    for config in (w.MC_MAIN, w.MC_PROBE):
        size = config["size"]
        graph = w.build_dag("cholesky", size)
        model = w.ExponentialErrorModel.for_graph(graph, w.PFAIL)
        reference = w.estimate_expected_makespan(
            graph,
            model,
            method="monte-carlo",
            trials=REFERENCE_TRIALS[size],
            seed=REFERENCE_SEED,
            **w.MC_OPTIONS,
            **w.MC_BACKENDS["processes"],
        )
        entry = {
            "mean": reference.expected_makespan,
            "std_error": reference.std_error,
            "trials": REFERENCE_TRIALS[size],
        }
        monte_carlo[f"cholesky-{size}"] = entry
        print(f"monte-carlo cholesky k={size}: {entry}", flush=True)
        for seed in range(w.MC_SEEDS):
            for backend, knobs in w.MC_BACKENDS.items():
                result = w.estimate_expected_makespan(
                    graph,
                    model,
                    method="monte-carlo",
                    trials=config["trials"],
                    seed=seed,
                    **w.MC_OPTIONS,
                    **knobs,
                )
                z = (result.expected_makespan - entry["mean"]) / math.hypot(
                    result.std_error, entry["std_error"]
                )
                print(f"  seed {seed} {backend}: z = {z:+.2f}", flush=True)
                if abs(z) > w.MC_SIGMAS:
                    bad.append((size, seed, backend, z))
    w.REGISTRY.clear()
    if bad:
        print(f"error: seeds outside {w.MC_SIGMAS:g} sigma: {bad}", file=sys.stderr)
        return 1
    w.REFERENCES.write_text(
        json.dumps({"analytic": analytic, "monte-carlo": monte_carlo}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {w.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
