"""Tests of the ``REPRO_*`` settings table (:mod:`repro.options`).

* **Row contract** — parametrised over every row: precedence (explicit >
  environment > fallback > default, blank environment values unset),
  strict explicit and fallback values, and each row's bad-environment
  policy (warn once for the lenient rows, raise elsewhere).
* **Routing** — experiment-config fields, estimator aliases and the CLI
  reach the estimators through the table.
* **Plumbing guards** — the CLI flag snapshot, the README knob table, and
  ``options`` being the only module reading the environment.
"""

import argparse
import dataclasses
import json
import re
import warnings
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.exceptions import EstimationError, ExperimentError, GraphError, OptionError
from repro.exec import ExecutionPolicy
from repro.experiments.config import FigureConfig, estimator_options_for, execution_retries
from repro.options import ESTIMATOR_KNOBS, KNOBS, resolve
from repro.workflows.registry import available_workflows

ROOT = Path(__file__).resolve().parents[1]
SOURCE = Path(repro.__file__).resolve().parent

WORKFLOWS = tuple(available_workflows())
FIGURES = tuple(f"figure{n}" for n in (10, 11, 12, 4, 5, 6, 7, 8, 9))
MC_BACKENDS = ("serial", "processes")

#: Option string, value kind and choices of every flag, per subcommand.
CLI_SNAPSHOT = {
    "generate": [
        ("--workflow", "store", WORKFLOWS),
        ("--size", "int", None),
        ("--format", "store", ("json", "dot")),
        ("--output", "store", None),
    ],
    "estimate": [
        ("--workflow", "store", WORKFLOWS),
        ("--size", "int", None),
        ("--pfail", "float", None),
        ("--method", "append", None),
        ("--trials", "int", None),
        ("--seed", "int", None),
        ("--dtype", "store", ("float64", "float32")),
        ("--workers", "int", None),
        ("--backend", "store", MC_BACKENDS),
        ("--streaming", "storetrue", None),
        ("--kernel-backend", "store", ("numpy", "numba")),
        ("--est-workers", "int", None),
        ("--corr-backend", "store", ("dense", "banded")),
        ("--corr-bandwidth", "int", None),
        ("--exec-retries", "int", None),
        ("--exec-timeout", "float", None),
        ("--exec-on-failure", "store", ("raise", "degrade")),
        ("--exec-backend", "store", MC_BACKENDS),
        ("--json", "storetrue", None),
    ],
    "experiment figure": [
        ("--figure", "store", FIGURES),
        ("--trials", "int", None),
        ("--seed", "int", None),
        ("--dtype", "store", ("float64", "float32")),
        ("--workers", "int", None),
        ("--backend", "store", MC_BACKENDS),
        ("--streaming", "storetrue", None),
        ("--kernel-backend", "store", ("numpy", "numba")),
        ("--est-workers", "int", None),
        ("--no-plot", "storetrue", None),
    ],
    "experiment table1": [
        ("--size", "int", None),
        ("--trials", "int", None),
        ("--seed", "int", None),
        ("--dtype", "store", ("float64", "float32")),
        ("--workers", "int", None),
        ("--backend", "store", MC_BACKENDS),
        ("--streaming", "storetrue", None),
        ("--kernel-backend", "store", ("numpy", "numba")),
        ("--est-workers", "int", None),
    ],
    "experiment all": [
        ("--trials", "int", None),
        ("--table1-size", "int", None),
        ("--seed", "int", None),
        ("--dtype", "store", ("float64", "float32")),
        ("--workers", "int", None),
        ("--backend", "store", MC_BACKENDS),
        ("--streaming", "storetrue", None),
        ("--kernel-backend", "store", ("numpy", "numba")),
        ("--est-workers", "int", None),
        ("--output-dir", "store", None),
    ],
    "serve": [
        ("--host", "store", None),
        ("--port", "int", None),
        ("--cache-bytes", "int", None),
        ("--service-workers", "int", None),
    ],
    "schedule": [
        ("--workflow", "store", WORKFLOWS),
        ("--size", "int", None),
        ("--processors", "int", None),
        ("--pfail", "float", None),
        ("--priority", "store", ("bottom-level", "expected-first-order", "expected-sculli")),
        ("--trials", "int", None),
        ("--seed", "int", None),
    ],
}


def _kind(action: argparse.Action) -> str:
    if action.type is not None:
        return action.type.__name__
    return type(action).__name__.strip("_").replace("Action", "").lower() or "store"


def _cli_snapshot(parser, path=(), out=None):
    out = {} if out is None else out
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                _cli_snapshot(sub, path + (name,), out)
        elif action.option_strings and action.dest != "help":
            choices = tuple(action.choices) if action.choices is not None else None
            out.setdefault(" ".join(path), []).append(
                (action.option_strings[0], _kind(action), choices)
            )
    return out


def test_cli_flag_snapshot():
    assert _cli_snapshot(build_parser()) == CLI_SNAPSHOT


# ----------------------------------------------------------------------
# Row contract
# ----------------------------------------------------------------------


def _samples(knob):
    """Three (value, environment spelling) pairs, distinct where possible."""
    if knob.type is bool:
        return [(True, "1"), (False, "off"), (True, "yes")]
    if knob.choices:
        picks = [knob.choices[i % len(knob.choices)] for i in (0, 1, 2)]
        return [(value, f" {value.upper()} ") for value in picks]
    if knob.type is str:
        return [(f"raise@{i}", f"raise@{i}") for i in (1, 2, 3)]
    low = knob.minimum if knob.minimum is not None else 0
    values = [knob.type(low + step) for step in (1, 2, 3)]
    return [(value, str(value)) for value in values]


def _bad_values(knob):
    if knob.type is bool:
        return ["maybe"]
    if knob.choices:
        return ["bogus"]
    if knob.type is str:
        return []  # free text, checked by its consumer
    bad = ["many"]
    if knob.minimum is not None:
        bad.append(knob.type(knob.minimum - 1))
    if knob.above is not None:
        bad.append(knob.type(knob.above))
    return bad


ROWS = sorted(KNOBS)
CHECKED_ROWS = [name for name in ROWS if _bad_values(KNOBS[name])]


@pytest.mark.parametrize("name", ROWS)
def test_precedence(name, monkeypatch):
    knob = KNOBS[name]
    (explicit, _), (env_value, env_text), (fallback, _) = _samples(knob)
    monkeypatch.setenv(knob.env, env_text)
    assert resolve(name, explicit, fallback) == explicit
    assert resolve(name, None, fallback) == env_value
    assert resolve(name) == env_value
    monkeypatch.setenv(knob.env, "  ")  # blank counts as unset
    assert resolve(name, None, fallback) == fallback
    monkeypatch.delenv(knob.env)
    assert resolve(name, None, fallback) == fallback
    assert resolve(name) == knob.default


@pytest.mark.parametrize("name", CHECKED_ROWS)
def test_explicit_and_fallback_values_are_strict(name, monkeypatch):
    knob = KNOBS[name]
    monkeypatch.delenv(knob.env, raising=False)
    for bad in _bad_values(knob):
        with pytest.raises(OptionError, match=knob.field):
            resolve(name, bad)
        with pytest.raises(OptionError, match=knob.field):
            resolve(name, None, bad)


@pytest.mark.parametrize("name", CHECKED_ROWS)
def test_bad_environment_policy(name, monkeypatch):
    knob = KNOBS[name]
    _, (fallback, _), _ = _samples(knob)
    for bad in _bad_values(knob):
        raw = str(bad)
        monkeypatch.setenv(knob.env, raw)
        if not knob.lenient:
            with pytest.raises(OptionError, match=knob.env):
                resolve(name, None, fallback)
            continue
        knob.warned.discard(raw)
        with pytest.warns(RuntimeWarning, match=f"unrecognised {knob.env}"):
            assert resolve(name, None, fallback) == fallback
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # once per value and process
            assert resolve(name) == knob.default
        knob.warned.discard(raw)


def test_lenient_rows():
    assert {name for name in ROWS if KNOBS[name].lenient} == {"KERNEL_BACKEND"}


def test_bound_messages(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_RETRIES", "-1")
    with pytest.raises(OptionError, match="REPRO_EXEC_RETRIES must be >= 0"):
        resolve("EXEC_RETRIES")
    with pytest.raises(OptionError, match="est_workers must be >= 1"):
        resolve("EST_WORKERS", 0)
    with pytest.raises(OptionError, match="exec_timeout must be > 0"):
        resolve("EXEC_TIMEOUT", 0.0)


def test_option_error_is_every_layers_error():
    for base in (ExperimentError, EstimationError, GraphError):
        assert issubclass(OptionError, base)


def test_auto_bandwidth_is_a_set_value(monkeypatch):
    monkeypatch.setenv("REPRO_CORR_BANDWIDTH", "auto")
    assert resolve("CORR_BANDWIDTH", None, 3) is None
    assert resolve("CORR_BANDWIDTH", 2) == 2


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


def test_config_fields_are_the_estimator_rows():
    names = {f.name for f in dataclasses.fields(FigureConfig)}
    assert {knob.field for knob in ESTIMATOR_KNOBS} <= names


@pytest.mark.parametrize("knob", ESTIMATOR_KNOBS, ids=lambda k: k.name)
def test_config_fields_are_checked(knob):
    for bad in _bad_values(knob):
        with pytest.raises(ExperimentError, match=knob.field):
            FigureConfig("f", "lu", 0.01, **{knob.field: bad})


def test_blank_environment_is_unset_in_every_layer(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_RETRIES", "")
    monkeypatch.setenv("REPRO_EXEC_ON_FAILURE", " ")
    assert execution_retries() is None
    assert execution_retries(2) == 2
    assert FigureConfig("f", "lu", 0.01).exec_options() == {}
    assert ExecutionPolicy.resolve().retries == 0


def test_config_routing_uses_canonical_names(monkeypatch):
    for name in ("EST_WORKERS", "KERNEL_BACKEND", "EXEC_RETRIES", "EXEC_BACKEND"):
        monkeypatch.delenv(KNOBS[name].env, raising=False)
    config = FigureConfig(
        "f", "lu", 0.01, est_workers=2, kernel_backend="numpy", exec_retries=1,
        exec_backend="processes",
    )
    expected = {"workers": 2, "exec_retries": 1, "exec_backend": "processes"}
    assert estimator_options_for(config, "second_order") == expected
    assert estimator_options_for(config, "second-order") == expected
    assert estimator_options_for(config, "sculli") == {"kernel_backend": "numpy"}
    # A driver argument wins over the environment and the field.
    monkeypatch.setenv("REPRO_EST_WORKERS", "3")
    assert estimator_options_for(config, "second-order")["workers"] == 3
    assert estimator_options_for(config, "second-order", est_workers=4)["workers"] == 4
    # Dodin runs on one worker: the analytic worker count never reaches it.
    assert "workers" not in estimator_options_for(config, "dodin")
    assert "workers" not in estimator_options_for(config, "dodin", est_workers=4)


@pytest.mark.parametrize("name", ["MC_BACKEND", "EXEC_BACKEND"])
def test_threads_is_no_backend(name, monkeypatch):
    knob = KNOBS[name]
    assert knob.choices == ("serial", "processes")
    monkeypatch.setenv(knob.env, "threads")
    with pytest.raises(OptionError, match=knob.env):
        resolve(name)
    monkeypatch.delenv(knob.env)
    with pytest.raises(OptionError, match=knob.field):
        FigureConfig("f", "lu", 0.01, **{knob.field: "threads"})


@pytest.mark.parametrize("flag", ["--backend", "--exec-backend"])
def test_cli_rejects_threads(flag, capsys):
    # Choice flags are checked by argparse: a usage error, exit status 2.
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(
            ["estimate", "--workflow", "lu", "--size", "4", flag, "threads"]
        )
    assert excinfo.value.code == 2
    assert "invalid choice: 'threads'" in capsys.readouterr().err


def _estimate_json(capsys, method):
    code = main([
        "estimate", "--workflow", "lu", "--size", "4", "--pfail", "0.01",
        "--method", method, "--trials", "7", "--seed", "1", "--json",
    ])
    assert code == 0
    (estimate,) = json.loads(capsys.readouterr().out)["estimates"]
    return estimate["expected_makespan"]


def test_cli_routes_flags_to_aliases(capsys):
    reference = repro.estimate_expected_makespan(
        repro.build_dag("lu", 4), 0.01, method="monte-carlo", trials=7, seed=1
    ).expected_makespan
    for method in ("monte-carlo", "monte_carlo", "mc", "montecarlo"):
        assert _estimate_json(capsys, method) == reference


# ----------------------------------------------------------------------
# Plumbing guards
# ----------------------------------------------------------------------


def test_only_options_reads_the_environment():
    pattern = re.compile(r"\b(environ|getenv|putenv|unsetenv)\b")
    readers = [
        str(path.relative_to(SOURCE))
        for path in sorted(SOURCE.rglob("*.py"))
        if path.name != "options.py" and pattern.search(path.read_text())
    ]
    assert readers == []


def test_readme_lists_every_knob():
    readme = (ROOT / "README.md").read_text()
    assert [k.env for k in KNOBS.values() if f"`{k.env}`" not in readme] == []
    # ... and the README's environment table lists nothing else: each row
    # is a knob or a variable some benchmark file reads.
    rows = re.findall(r"^\| `(REPRO_\w+)`", readme, re.MULTILINE)
    bench = "".join(p.read_text() for p in (ROOT / "benchmarks").rglob("*.py"))
    knobs = {k.env for k in KNOBS.values()}
    assert rows and [v for v in rows if v not in knobs and f'"{v}"' not in bench] == []
