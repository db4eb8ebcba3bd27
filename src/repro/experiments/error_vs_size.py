"""Driver for the error-vs-graph-size experiments (Figures 4-12).

For a given DAG family and ``p_fail``, and for each graph size ``k``, the
driver:

1. builds the DAG and calibrates the error rate so that a task of average
   weight fails with probability ``p_fail`` (Section V-C);
2. runs the Monte Carlo ground truth;
3. runs every configured approximation (Dodin, Normal, First Order by
   default);
4. records the signed normalised difference of each approximation with the
   Monte Carlo reference — exactly the quantity plotted on the figures'
   y-axes — together with wall-clock times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..estimators.base import normalized_difference
from ..estimators.registry import get_estimator
from ..failures.models import ExponentialErrorModel
from ..workflows.registry import build_dag
from .config import (
    FigureConfig,
    estimator_options_for as _estimator_options,
)

__all__ = ["ErrorPoint", "FigureResult", "run_error_vs_size", "run_figure"]


@dataclass(frozen=True)
class ErrorPoint:
    """One (graph size, estimator) measurement of a figure."""

    workflow: str
    size: int
    num_tasks: int
    pfail: float
    estimator: str
    estimate: float
    reference: float
    reference_stderr: float
    normalized_difference: float
    wall_time: float
    reference_wall_time: float

    @property
    def relative_error(self) -> float:
        """Absolute value of the normalised difference."""
        return abs(self.normalized_difference)


@dataclass
class FigureResult:
    """All measurements of one figure."""

    config: FigureConfig
    points: List[ErrorPoint] = field(default_factory=list)

    def series(self, estimator: str) -> List[ErrorPoint]:
        """The measurements of one estimator, ordered by graph size."""
        return sorted(
            (p for p in self.points if p.estimator == estimator), key=lambda p: p.size
        )

    def estimators(self) -> List[str]:
        """Estimators present in the result, in configuration order."""
        seen = []
        for name in self.config.estimators:
            if any(p.estimator == name for p in self.points):
                seen.append(name)
        return seen

    def to_rows(self) -> List[Dict]:
        """Plain dictionaries, one per point (for CSV output)."""
        return [vars(p).copy() for p in self.points]

    def winner_per_size(self) -> Dict[int, str]:
        """The most accurate estimator at each graph size."""
        winners: Dict[int, str] = {}
        for size in sorted({p.size for p in self.points}):
            at_size = [p for p in self.points if p.size == size]
            winners[size] = min(at_size, key=lambda p: p.relative_error).estimator
        return winners


def run_error_vs_size(
    config: FigureConfig,
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
) -> FigureResult:
    """Run one error-vs-size experiment.

    Parameters
    ----------
    config:
        The figure configuration (DAG family, ``p_fail``, sizes).
    mc_trials:
        Override of the Monte Carlo trial count (defaults to the config's
        value, itself overridable through ``REPRO_MC_TRIALS``).
    mc_dtype:
        Override of the Monte Carlo kernel precision (``"float64"`` /
        ``"float32"``; defaults to the config's value, itself overridable
        through ``REPRO_MC_DTYPE``).
    mc_workers:
        Override of the Monte Carlo batch-worker count (defaults to the
        config's value, itself overridable through ``REPRO_MC_WORKERS``).
    mc_backend:
        Override of the Monte Carlo execution backend (``"serial"`` /
        ``"threads"`` / ``"processes"``; defaults to the config's value,
        itself overridable through ``REPRO_MC_BACKEND``).
    mc_streaming:
        Override of the Monte Carlo streaming-statistics switch (defaults
        to the config's value, itself overridable through
        ``REPRO_MC_STREAMING``).
    kernel_backend:
        Override of the compiled-kernel backend of the hot numerical
        loops (``"numpy"`` / ``"numba"``; defaults to the
        config's value, itself overridable through
        ``REPRO_KERNEL_BACKEND``).  Applies to the Monte Carlo reference
        and to the estimators of
        :data:`repro.experiments.config.KERNEL_ESTIMATORS`.
    est_workers:
        Override of the analytical estimators' parallel worker count on
        the shared execution service (wins over ``REPRO_EST_WORKERS`` and
        the config's ``est_workers`` field; applies to the estimators of
        :data:`repro.experiments.config.PARALLEL_ESTIMATORS`).
    seed:
        Base seed for the Monte Carlo runs (one independent stream per
        graph size).
    estimator_options:
        Optional per-estimator constructor keyword arguments, e.g.
        ``{"dodin": {"max_support": 256}}``.
    progress:
        Optional callback ``progress(message: str)`` invoked after each
        measurement (used by the CLI for live output).
    """
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
    result = FigureResult(config=config)

    for offset, size in enumerate(config.sizes):
        graph = build_dag(config.workflow, size)
        model = ExponentialErrorModel.for_graph(graph, config.pfail)

        reference = get_estimator(
            "monte-carlo", seed=base_seed + offset, **reference_options
        ).estimate(graph, model)
        if progress:
            progress(
                f"[{config.figure}] {config.workflow} k={size}: "
                f"MC mean={reference.expected_makespan:.6g} "
                f"({trials} trials, {reference.wall_time:.1f}s)"
            )

        for name in config.estimators:
            estimator = get_estimator(
                name,
                **_estimator_options(config, name, options, **explicit),
            )
            estimate = estimator.estimate(graph, model)
            point = ErrorPoint(
                workflow=config.workflow,
                size=size,
                num_tasks=graph.num_tasks,
                pfail=config.pfail,
                estimator=name,
                estimate=estimate.expected_makespan,
                reference=reference.expected_makespan,
                reference_stderr=reference.std_error or 0.0,
                normalized_difference=normalized_difference(
                    estimate.expected_makespan, reference.expected_makespan
                ),
                wall_time=estimate.wall_time,
                reference_wall_time=reference.wall_time,
            )
            result.points.append(point)
            if progress:
                progress(
                    f"    {name:14s} estimate={point.estimate:.6g} "
                    f"diff={point.normalized_difference:+.3e} ({point.wall_time * 1e3:.1f} ms)"
                )
    return result


def run_figure(figure: str, **kwargs) -> FigureResult:
    """Run one of the paper's figures by name (``"figure4"`` ... ``"figure12"``)."""
    from .config import PAPER_FIGURES

    key = figure.strip().lower()
    if key not in PAPER_FIGURES:
        from ..exceptions import ExperimentError

        raise ExperimentError(
            f"unknown figure {figure!r}; available: {', '.join(sorted(PAPER_FIGURES))}"
        )
    return run_error_vs_size(PAPER_FIGURES[key], **kwargs)
