"""Driver for the scalability study (Table I of the paper).

The paper's Table I evaluates the three approximations on the LU DAG with
``k = 20`` (2,870 tasks) and ``p_fail = 1e-4``, reporting for each the
normalised difference with a long Monte Carlo run and the wall-clock
execution time.  The qualitative expectations are:

* First Order: error in the ``1e-5``-``1e-6`` range, computed in well under
  a second;
* Normal: noticeably larger error, noticeably slower;
* Dodin: by far the largest error and minutes of execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..estimators.base import normalized_difference
from ..estimators.registry import get_estimator
from ..failures.models import ExponentialErrorModel
from ..workflows.registry import build_dag
from .config import (
    ScalabilityConfig,
    estimator_options_for as _estimator_options,
)

__all__ = ["ScalabilityRow", "ScalabilityResult", "run_scalability", "run_table1"]


@dataclass(frozen=True)
class ScalabilityRow:
    """One estimator's entry of the scalability table."""

    estimator: str
    estimate: float
    normalized_difference: float
    wall_time: float

    @property
    def relative_error(self) -> float:
        """Absolute normalised difference."""
        return abs(self.normalized_difference)


@dataclass
class ScalabilityResult:
    """The whole scalability table plus the Monte Carlo reference."""

    config: ScalabilityConfig
    num_tasks: int
    reference: float
    reference_stderr: float
    reference_wall_time: float
    mc_trials: int
    rows: List[ScalabilityRow] = field(default_factory=list)

    def row(self, estimator: str) -> ScalabilityRow:
        """The row of one estimator."""
        for r in self.rows:
            if r.estimator == estimator:
                return r
        from ..exceptions import ExperimentError

        raise ExperimentError(f"no row for estimator {estimator!r}")

    def to_rows(self) -> List[Dict]:
        """Plain dictionaries (for CSV output)."""
        return [vars(r).copy() for r in self.rows]


def run_scalability(
    config: ScalabilityConfig,
    *,
    mc_trials: Optional[int] = None,
    mc_dtype: Optional[str] = None,
    mc_workers: Optional[int] = None,
    mc_backend: Optional[str] = None,
    mc_streaming: Optional[bool] = None,
    kernel_backend: Optional[str] = None,
    est_workers: Optional[int] = None,
    seed: Optional[int] = None,
    estimator_options: Optional[Dict[str, Dict]] = None,
    progress: Optional[callable] = None,
) -> ScalabilityResult:
    """Run the scalability study described by ``config``."""
    explicit = dict(
        mc_trials=mc_trials,
        mc_dtype=mc_dtype,
        mc_workers=mc_workers,
        mc_backend=mc_backend,
        mc_streaming=mc_streaming,
        kernel_backend=kernel_backend,
        est_workers=est_workers,
    )
    reference_options = _estimator_options(config, "monte-carlo", **explicit)
    trials = reference_options["trials"]
    base_seed = seed if seed is not None else config.seed
    options = estimator_options or {}

    graph = build_dag(config.workflow, config.size)
    model = ExponentialErrorModel.for_graph(graph, config.pfail)

    reference = get_estimator(
        "monte-carlo", seed=base_seed, **reference_options
    ).estimate(graph, model)
    if progress:
        progress(
            f"[table1] {config.workflow} k={config.size} ({graph.num_tasks} tasks): "
            f"MC mean={reference.expected_makespan:.6g} ({trials} trials, "
            f"{reference.wall_time:.1f}s)"
        )

    result = ScalabilityResult(
        config=config,
        num_tasks=graph.num_tasks,
        reference=reference.expected_makespan,
        reference_stderr=reference.std_error or 0.0,
        reference_wall_time=reference.wall_time,
        mc_trials=trials,
    )
    for name in config.estimators:
        estimator = get_estimator(
            name,
            **_estimator_options(config, name, options, **explicit),
        )
        estimate = estimator.estimate(graph, model)
        row = ScalabilityRow(
            estimator=name,
            estimate=estimate.expected_makespan,
            normalized_difference=normalized_difference(
                estimate.expected_makespan, reference.expected_makespan
            ),
            wall_time=estimate.wall_time,
        )
        result.rows.append(row)
        if progress:
            progress(
                f"    {name:14s} diff={row.normalized_difference:+.3e} "
                f"time={row.wall_time:.3f}s"
            )
    return result


def run_table1(**kwargs) -> ScalabilityResult:
    """Run the paper's Table I configuration (LU k = 20, p_fail = 1e-4)."""
    from .config import TABLE1

    return run_scalability(TABLE1, **kwargs)
