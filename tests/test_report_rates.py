"""The rate-archive gate of ``benchmarks/report_rates.py``.

Each benchmark family appends its own record to the archive, so the gate
must check the latest entry of every configuration, not just the record
that happened to be archived last.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "report_rates.py"


@pytest.fixture(scope="module")
def report_rates():
    spec = importlib.util.spec_from_file_location("report_rates", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _kernel(speedup, **fields):
    return {"dtype": "float64", "workflow": "cholesky", "k": 24,
            "tasks": 2_600, "speedup": speedup, **fields}


def _service(speedup):
    return {"benchmark": "service", "method": "warm", "workflow": "cholesky",
            "k": 24, "speedup": speedup, "guard_min": 1.3}


def _archive(tmp_path, *records):
    path = tmp_path / "kernel_rates.json"
    path.write_text(json.dumps(
        [{"timestamp": f"t{i}", "entries": entries}
         for i, entries in enumerate(records)]
    ))
    return str(path)


def test_regression_outside_the_last_record_fails(report_rates, tmp_path):
    # The kernel family regressed (1.0x < 1.2x); the service family ran
    # last and is clean.
    path = _archive(tmp_path, [_kernel(1.0)], [_service(2.0)])
    assert report_rates.main([path]) == 1


def test_clean_archive_passes(report_rates, tmp_path):
    # The early kernel regression is superseded by a later passing entry of
    # the same configuration: history, not a violation.
    path = _archive(
        tmp_path, [_kernel(1.0)], [_kernel(2.0)], [_service(2.0)]
    )
    assert report_rates.main([path]) == 0


def test_latest_entry_of_a_family_is_the_one_gated(report_rates, tmp_path):
    path = _archive(tmp_path, [_service(2.0)], [_service(1.0)], [_kernel(2.0)])
    assert report_rates.main([path]) == 1


def test_legacy_kernel_records_key_as_up(report_rates):
    # Records archived before the direction field keep their key, and a
    # new "up" entry of the same configuration supersedes them.
    assert report_rates._entry_key(_kernel(2.0)) == (
        "kernel", "float64", "cholesky", 24
    )
    assert report_rates._entry_key(_kernel(2.0, direction="up")) == (
        report_rates._entry_key(_kernel(2.0))
    )
    assert report_rates._entry_key(_kernel(2.0, direction="down")) != (
        report_rates._entry_key(_kernel(2.0))
    )


def test_down_entries_are_not_gated_by_the_up_guards(report_rates, tmp_path):
    down = _kernel(1.0, direction="down")
    assert report_rates._entry_guard(down) is None
    path = _archive(tmp_path, [_kernel(2.0, direction="up"), down])
    assert report_rates.main([path]) == 0
    # The "down" entry does not mask a regressed "up" entry either.
    path = _archive(tmp_path, [_kernel(1.0), _kernel(3.0, direction="down")])
    assert report_rates.main([path]) == 1


def test_single_scenario_entries_never_gate(report_rates, tmp_path):
    lengths = {"benchmark": "kernel_lengths", "workflow": "cholesky", "k": 24,
               "tasks": 2_600, "direction": "down", "dtype": "float64",
               "speedup": 0.5, "guard_min": None}
    assert report_rates._entry_key(lengths) == (
        "kernel-lengths", "down", "cholesky", 24
    )
    path = _archive(tmp_path, [_kernel(2.0), lengths])
    assert report_rates.main([path]) == 0


def _graph_compile(speedup, guard_min=1.5, k=24, method="fresh-compile"):
    return {"benchmark": "graph_compile", "method": method,
            "workflow": "cholesky", "k": k, "tasks": 2_600,
            "speedup": speedup, "guard_min": guard_min}


def test_graph_compile_entries_gate_on_their_own_guard(report_rates, tmp_path):
    assert report_rates._entry_key(_graph_compile(2.0)) == (
        "graph-compile", "fresh-compile", "cholesky", 24
    )
    assert report_rates._entry_guard(_graph_compile(2.0)) == 1.5
    path = _archive(tmp_path, [_graph_compile(2.1)], [_kernel(2.0)])
    assert report_rates.main([path]) == 0
    # A regressed compile entry fails the report even when another family
    # ran last; an unarmed (small-DAG) entry never gates.
    path = _archive(tmp_path, [_graph_compile(1.2)], [_kernel(2.0)])
    assert report_rates.main([path]) == 1
    path = _archive(tmp_path, [_graph_compile(1.2, guard_min=None, k=6)])
    assert report_rates.main([path]) == 0


def test_fresh_path_metrics_entries_gate_apart_from_the_compile(report_rates, tmp_path):
    def path_metrics(speedup, **fields):
        return _graph_compile(speedup, guard_min=1.8, method="fresh-path-metrics", **fields)

    assert report_rates._entry_key(path_metrics(2.5)) == (
        "graph-compile", "fresh-path-metrics", "cholesky", 24
    )
    assert report_rates._entry_guard(path_metrics(2.5)) == 1.8
    path = _archive(tmp_path, [_graph_compile(2.1), path_metrics(2.5)])
    assert report_rates.main([path]) == 0
    # A planted regression in the new method fails the report, though the
    # compile entry of the same graph passes and another family ran last.
    path = _archive(tmp_path, [_graph_compile(2.1), path_metrics(1.2)], [_kernel(2.0)])
    assert report_rates.main([path]) == 1
    # A later passing entry of the same configuration supersedes it.
    path = _archive(tmp_path, [path_metrics(1.2)], [path_metrics(2.4)])
    assert report_rates.main([path]) == 0


def _history(count):
    # One early service record, then ``count`` kernel records: only the
    # last kernel record holds that family's latest entry.
    records = [{"timestamp": "t0", "entries": [_service(2.0)]}]
    records += [{"timestamp": f"t{i + 1}", "entries": [_kernel(2.0 + i)]}
                for i in range(count)]
    return records


def test_compaction_keeps_recent_and_latest_holders(report_rates):
    history = _history(report_rates.KEEP_RECORDS + 10)
    compacted = report_rates.compact_history(history)
    assert compacted[0] is history[0]  # holds the service family's latest
    assert compacted[1:] == history[-report_rates.KEEP_RECORDS:]
    assert report_rates.compact_history(compacted) == compacted


def test_planted_regression_survives_compaction(report_rates, tmp_path):
    # The committed archive plus 30 newer records, so that compaction
    # drops records and every committed family's latest entry sits
    # outside the recent window.
    history = json.loads(report_rates.DEFAULT_PATH.read_text(encoding="utf-8"))
    history += _history(30)
    latest = {}
    for i, record in enumerate(history):
        for j, entry in enumerate(record["entries"]):
            latest[report_rates._entry_key(entry)] = (i, j)
    gated = [(key, ij) for key, ij in latest.items()
             if report_rates._entry_guard(history[ij[0]]["entries"][ij[1]])]
    assert gated
    path = tmp_path / "kernel_rates.json"
    for key, (i, j) in gated:
        planted = json.loads(json.dumps(history))
        planted[i]["entries"][j]["speedup"] = 0.0
        path.write_text(json.dumps(report_rates.compact_history(planted)))
        assert report_rates.main([str(path)]) == 1, key
