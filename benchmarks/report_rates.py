#!/usr/bin/env python
"""Kernel/estimator rate tracking report.

Reads ``benchmarks/results/kernel_rates.json`` (one record appended per
benchmark run by ``test_bench_kernel_wavefront.py`` and
``test_bench_estimator_wavefront.py``), prints the per-configuration
speedup trend across runs, and exits non-zero if the *latest* entry of
any configuration (grouped by ``_entry_key``, whichever record holds it)
violates a regression guard:

* longest-path kernel entries (no ``benchmark`` field): float64 >= 1.2x
  and float32 >= 1.8x over the per-task reference on cholesky DAGs with
  >= 2,600 tasks, for the ``"up"`` sweep only (entries archived before
  the ``direction`` field existed are ``"up"`` entries; ``"down"``
  entries are timed but never gate);
* estimator entries (``benchmark = "estimator_wavefront"``), Monte
  Carlo backend entries (``benchmark = "mc_backends"``), parallel
  correlated-sweep entries (``benchmark = "correlated_parallel"``),
  shared-memory process-sweep entries (``benchmark =
  "correlated_processes"``), fault-tolerance entries (``benchmark = "exec_faults"``, where
  ``speedup`` is the baseline/armed time ratio and the guard bounds the
  zero-fault overhead of the policy machinery) and estimation-service
  entries (``benchmark = "service"``, where ``speedup`` is the
  warm-hit/cold-miss request-rate ratio) and fresh-graph
  compile entries (``benchmark = "graph_compile"``, methods
  ``fresh-compile`` and ``fresh-path-metrics``, where ``speedup`` is the
  median reference/package time ratio of paired runs): the archived
  ``guard_min`` per entry (``null`` when the guard did not apply at
  measurement time — small graph, too few CPUs for the parallel
  comparisons).  Dtype error-floor entries
  (``benchmark = "dtype_error_floor"``) and single-scenario kernel
  entries (``benchmark = "kernel_lengths"``) are characterisation-only
  and never gate.

The archive is kept short by :func:`compact_history`, which the
benchmarks' ``archive_rates`` applies on every append.

Stdlib-only so it can run as a bare CI step: ``python
benchmarks/report_rates.py [path/to/kernel_rates.json]``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DEFAULT_PATH = Path(__file__).resolve().parent / "results" / "kernel_rates.json"

#: Guards of the longest-path kernel benchmark (which predates the
#: per-entry ``guard_min`` field); they bound its ``"up"`` entries.
KERNEL_GUARDS = {"float64": 1.2, "float32": 1.8}
KERNEL_GUARD_MIN_TASKS = 2_600

#: Most recent records :func:`compact_history` always keeps.
KEEP_RECORDS = 20


def _entry_key(entry: dict) -> tuple:
    """Stable grouping key of one measurement across records."""
    if entry.get("benchmark") == "estimator_wavefront":
        return ("estimator", entry["method"], entry["workflow"], entry["k"])
    if entry.get("benchmark") == "mc_backends":
        return ("mc-backend", entry["method"], entry["workflow"], entry["k"])
    if entry.get("benchmark") == "correlated_parallel":
        return ("corr-parallel", entry["method"], entry["workflow"], entry["k"])
    if entry.get("benchmark") == "correlated_processes":
        return ("corr-processes", entry["method"], entry["workflow"], entry["k"])
    if entry.get("benchmark") == "exec_faults":
        return ("exec-faults", entry["method"], entry["workflow"], entry["k"])
    if entry.get("benchmark") == "service":
        return ("service", entry["method"], entry["workflow"], entry["k"])
    if entry.get("benchmark") == "graph_compile":
        return ("graph-compile", entry["method"], entry["workflow"], entry["k"])
    if entry.get("benchmark") == "dtype_error_floor":
        return (
            "dtype-floor",
            f"trials={entry.get('trials', '?')}",
            entry["workflow"],
            entry["k"],
        )
    if entry.get("benchmark") == "kernel_lengths":
        return ("kernel-lengths", entry["direction"], entry["workflow"], entry["k"])
    # Kernel entries archived before the direction field are "up" entries
    # and keep their key.
    mode = entry.get("dtype", "?")
    if entry.get("direction", "up") != "up":
        mode = f"{mode}/{entry['direction']}"
    return ("kernel", mode, entry.get("workflow", "?"), entry.get("k"))


def compact_history(history: list) -> list:
    """``history`` without the records the gate and recent trend do not need.

    Keeps the last :data:`KEEP_RECORDS` records plus every older record that still
    holds the latest entry of some :func:`_entry_key`, so :func:`main`
    gates exactly the entries it gated before.  Idempotent.
    """
    holders = {}
    for i, record in enumerate(history):
        for entry in record.get("entries", []):
            holders[_entry_key(entry)] = i
    needed = set(holders.values())
    first_recent = len(history) - KEEP_RECORDS
    return [r for i, r in enumerate(history) if i >= first_recent or i in needed]


def _entry_guard(entry: dict):
    """The minimal admissible speedup of one entry, or ``None``."""
    if entry.get("benchmark") in (
        "estimator_wavefront", "mc_backends", "correlated_parallel",
        "correlated_processes", "exec_faults", "service",
        "dtype_error_floor", "kernel_lengths",
        "graph_compile",
    ):
        return entry.get("guard_min")
    if (
        entry.get("direction", "up") == "up"
        and entry.get("workflow") == "cholesky"
        and entry.get("tasks", 0) >= KERNEL_GUARD_MIN_TASKS
    ):
        return KERNEL_GUARDS.get(entry.get("dtype"))
    return None


def _label(key: tuple) -> str:
    kind, a, b, k = key
    if kind == "estimator":
        return f"estimator/{a:<10s} {b} k={k}"
    if kind == "mc-backend":
        return f"mc-backend/{a:<16s} {b} k={k}"
    if kind == "corr-parallel":
        return f"corr-parallel/{a:<13s} {b} k={k}"
    if kind == "corr-processes":
        return f"corr-processes/{a:<13s} {b} k={k}"
    if kind == "exec-faults":
        return f"exec-faults/{a:<19s} {b} k={k}"
    if kind == "service":
        return f"service/{a:<12s} {b} k={k}"
    if kind == "graph-compile":
        return f"graph-compile/{a:<13s} {b} k={k}"
    if kind == "dtype-floor":
        return f"dtype-floor/{a:<14s} {b} k={k}"
    if kind == "kernel-lengths":
        return f"kernel-lengths/{a:<6s} {b} k={k}"
    return f"kernel/{a:<13s} {b} k={k}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    path = Path(argv[0]) if argv else DEFAULT_PATH
    if not path.exists():
        print(f"no rate history at {path}; nothing to report")
        return 0
    try:
        history = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        print(f"cannot parse {path}: {exc}")
        return 2
    if not history:
        print(f"{path} holds no records; nothing to report")
        return 0

    # Trend: the speedup of every configuration across all records.
    trends: dict = {}
    for record in history:
        stamp = record.get("timestamp", "?")
        for entry in record.get("entries", []):
            trends.setdefault(_entry_key(entry), []).append(
                (stamp, entry.get("speedup"))
            )

    print(f"rate history: {len(history)} record(s) in {path}")
    print()
    for key in sorted(trends):
        series = trends[key]
        line = " -> ".join(
            f"{speedup:.2f}x" if speedup is not None else "?"
            for _, speedup in series
        )
        print(f"  {_label(key)}: {line}")
    print()

    # Guards: the latest entry of every configuration is gated (earlier
    # entries are history).  Each benchmark family archives its own record,
    # so the last record alone would gate only the family that ran last.
    latest: dict = {}
    for record in history:
        for entry in record.get("entries", []):
            latest[_entry_key(entry)] = entry
    violations = []
    for entry in latest.values():
        guard = _entry_guard(entry)
        if guard is None:
            continue
        speedup = entry.get("speedup")
        name = _label(_entry_key(entry)).strip()
        if speedup is None or speedup < guard:
            violations.append(f"{name}: {speedup}x < required {guard}x")
        else:
            print(f"  guard ok: {name}: {speedup:.2f}x >= {guard}x")
    if violations:
        print()
        for violation in violations:
            print(f"  REGRESSION: {violation}")
        return 1
    print()
    print("all guards of the latest entries hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
