"""Shared helpers for the benchmark suite.

Every figure benchmark regenerates the corresponding figure of the paper:
it runs the Monte Carlo reference and the three approximations over the
configured graph sizes, prints the same series the paper plots (normalised
difference vs. graph size), archives a CSV + text report under
``benchmarks/results/`` and asserts the qualitative shape of the result
(who wins, by roughly what factor).

Knobs (environment variables):

``REPRO_MC_TRIALS``
    Monte Carlo trials per graph size (default 40,000; the paper uses
    300,000 — set it for a full-fidelity run).
``REPRO_BENCH_SIZES``
    Comma-separated list of graph sizes overriding the paper's
    ``4,6,8,10,12`` (useful for quick smoke runs; also honoured by the
    kernel benchmark ``test_bench_kernel_wavefront.py``, whose regression
    guard only applies to sizes with >= 2,600 tasks).
``REPRO_MC_DTYPE``
    Precision of the Monte Carlo longest-path kernel: ``float64`` (default,
    bit-identical results) or ``float32`` (roughly halves the kernel's
    memory traffic; the ~1e-7 relative rounding is far below Monte Carlo
    standard error at these trial counts).
``REPRO_TABLE1_K``
    Tile count of the Table I scalability run (default 20, as in the paper).
``REPRO_KERNEL_BENCH_TRIALS``
    Batch width of the kernel throughput benchmark (default 2,048).
``REPRO_BENCH_ARCHIVE``
    Set to ``1`` to write results under ``benchmarks/results/`` (figure
    CSV + text reports, appended ``kernel_rates.json`` records).  Off by
    default, so a plain test run leaves the committed results untouched;
    the CI benchmark jobs turn it on.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from report_rates import compact_history
from repro.experiments.config import PAPER_FIGURES, FigureConfig
from repro.experiments.error_vs_size import FigureResult, run_error_vs_size
from repro.experiments.reporting import figure_ascii_plot, figure_table, write_csv

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Machine-readable rate archive shared by the kernel and estimator
#: throughput benchmarks (one record appended per run; the trend is
#: reported by ``benchmarks/report_rates.py``).
RATES_PATH = RESULTS_DIR / "kernel_rates.json"

#: Default seed for the Monte Carlo references of the benchmark suite.
BENCH_SEED = 20160814


def archive_enabled() -> bool:
    """Whether this run writes ``benchmarks/results/`` (``REPRO_BENCH_ARCHIVE=1``)."""
    return os.environ.get("REPRO_BENCH_ARCHIVE") == "1"


def write_report(name: str, rows, text: str) -> None:
    """Archive one experiment as ``<name>.csv`` + ``<name>.txt``, if enabled."""
    if not archive_enabled():
        return
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    write_csv(rows, RESULTS_DIR / f"{name}.csv")
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def archive_rates(entries) -> None:
    """Append one record of benchmark entries to ``kernel_rates.json``, if
    enabled, and compact the archive (see ``report_rates.compact_history``)."""
    if not archive_enabled():
        return
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    history = []
    if RATES_PATH.exists():
        try:
            history = json.loads(RATES_PATH.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            history = []
    history.append(
        {
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "entries": entries,
        }
    )
    history = compact_history(history)
    RATES_PATH.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")


def best_time(fn, repeats: int = 3) -> float:
    """Fastest of ``repeats`` timed calls of ``fn`` (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def paired_median_ratio(fn_a, fn_b, pairs: int):
    """Median over ``pairs`` of ``time(fn_a) / time(fn_b)``, run back to back.

    Every other pair runs ``fn_b`` first, so neither side always pays for
    running second.  Returns the median time of each side and the median
    of the per-pair ratios.
    """
    order = [("a", fn_a), ("b", fn_b)]
    times_a, times_b, ratios = [], [], []
    for pair in range(pairs):
        timed = {}
        for name, fn in order if pair % 2 == 0 else order[::-1]:
            start = time.perf_counter()
            fn()
            timed[name] = time.perf_counter() - start
        times_a.append(timed["a"])
        times_b.append(timed["b"])
        ratios.append(timed["a"] / timed["b"])
    return (
        statistics.median(times_a),
        statistics.median(times_b),
        statistics.median(ratios),
    )


def bench_sizes(config: FigureConfig) -> Tuple[int, ...]:
    """Graph sizes to benchmark (paper sizes unless overridden)."""
    env = os.environ.get("REPRO_BENCH_SIZES")
    if not env:
        return config.sizes
    return tuple(int(part) for part in env.split(",") if part.strip())


def throughput_bench_sizes(default: Tuple[int, ...]) -> Tuple[int, ...]:
    """Tile counts of the kernel/estimator throughput benchmarks.

    Same ``REPRO_BENCH_SIZES`` override as :func:`bench_sizes`, with an
    explicit default instead of a figure configuration.
    """
    env = os.environ.get("REPRO_BENCH_SIZES")
    if not env:
        return default
    return tuple(int(part) for part in env.split(",") if part.strip())


def figure_config(name: str) -> FigureConfig:
    """The (possibly size-overridden) configuration of one paper figure."""
    base = PAPER_FIGURES[name]
    sizes = bench_sizes(base)
    if sizes == base.sizes:
        return base
    return FigureConfig(
        figure=base.figure,
        workflow=base.workflow,
        pfail=base.pfail,
        sizes=sizes,
        estimators=base.estimators,
    )


def run_and_report(name: str) -> FigureResult:
    """Run one figure's experiment, print its report and archive it if enabled."""
    config = figure_config(name)
    result = run_error_vs_size(config, seed=BENCH_SEED)
    report = figure_table(result)
    plot = figure_ascii_plot(result)
    print()
    print(report)
    print()
    print(plot)
    write_report(name, result.to_rows(), report + "\n\n" + plot)
    return result


def assert_paper_shape(result: FigureResult) -> None:
    """Assert the qualitative conclusions of the paper for one figure.

    * Dodin's error is never the (strictly) smallest of the three at the
      largest graph size — it is the weakest method on these DAGs;
    * at p_fail <= 1e-3 First Order is strictly more accurate than both
      competitors at the largest graph size (by an order of magnitude in the
      paper; we assert a conservative factor to stay robust to Monte Carlo
      noise at reduced trial counts).
    """
    largest = max(p.size for p in result.points)
    at_largest: Dict[str, float] = {
        p.estimator: p.relative_error for p in result.points if p.size == largest
    }
    if "dodin" in at_largest and "first-order" in at_largest:
        assert at_largest["dodin"] >= at_largest["first-order"], at_largest
    if result.config.pfail <= 1e-3 and {"first-order", "normal", "dodin"} <= set(at_largest):
        assert at_largest["first-order"] < at_largest["normal"], at_largest
        assert at_largest["first-order"] * 3 < at_largest["dodin"], at_largest
