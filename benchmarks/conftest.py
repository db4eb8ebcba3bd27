"""Pytest configuration for the benchmark suite.

Ensures the package sources, the shared ``_common`` helpers and the test
oracles (``tests/oracles``, imported as ``oracles.<module>``) are
importable whether or not the package was pip-installed, and registers the
``paper_graph`` fixture used by the per-estimator timing benchmarks.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
for path in (_ROOT / "src", _ROOT / "tests", Path(__file__).resolve().parent):
    if path.is_dir() and str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(scope="session")
def paper_graphs():
    """The largest-size DAG of each family (k = 12), built once per session."""
    from repro.workflows.registry import build_dag

    return {name: build_dag(name, 12) for name in ("cholesky", "lu", "qr")}
