"""Top-level experiment runner.

``run_all_figures`` and ``run_everything`` regenerate the full evaluation
section of the paper (nine figures + Table I), printing text tables and
ASCII plots and optionally archiving CSV files — this is what the
``python -m repro experiment`` CLI command and the EXPERIMENTS.md record are
built on.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

from ..exceptions import ExperimentError
from .config import PAPER_FIGURES, TABLE1, FigureConfig, ScalabilityConfig
from .error_vs_size import FigureResult, run_error_vs_size
from .reporting import figure_ascii_plot, figure_table, scalability_table, write_csv
from .scalability import ScalabilityResult, run_scalability

__all__ = ["run_all_figures", "run_everything", "summarize_figure", "summarize_table1"]


def summarize_figure(result: FigureResult, *, plot: bool = True) -> str:
    """Text summary (table + optional ASCII plot) of one figure."""
    parts = [figure_table(result)]
    if plot:
        parts.append("")
        parts.append(figure_ascii_plot(result))
    return "\n".join(parts)


def summarize_table1(result: ScalabilityResult) -> str:
    """Text summary of the scalability study."""
    return scalability_table(result)


def run_all_figures(
    figures: Optional[Iterable[str]] = None,
    *,
    mc_trials: Optional[int] = None,
    mc_dtype: Optional[str] = None,
    mc_workers: Optional[int] = None,
    mc_backend: Optional[str] = None,
    mc_streaming: Optional[bool] = None,
    kernel_backend: Optional[str] = None,
    est_workers: Optional[int] = None,
    seed: Optional[int] = None,
    output_dir: Optional[Union[str, Path]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, FigureResult]:
    """Run several (default: all nine) error-vs-size figures.

    When ``output_dir`` is given, one CSV per figure is written there.
    """
    names = list(figures) if figures is not None else sorted(
        PAPER_FIGURES, key=lambda n: int(n.replace("figure", ""))
    )
    results: Dict[str, FigureResult] = {}
    for name in names:
        key = name.strip().lower()
        if key not in PAPER_FIGURES:
            raise ExperimentError(
                f"unknown figure {name!r}; available: {', '.join(sorted(PAPER_FIGURES))}"
            )
        config = PAPER_FIGURES[key]
        result = run_error_vs_size(
            config,
            mc_trials=mc_trials,
            mc_dtype=mc_dtype,
            mc_workers=mc_workers,
            mc_backend=mc_backend,
            mc_streaming=mc_streaming,
            kernel_backend=kernel_backend,
            est_workers=est_workers,
            seed=seed,
            progress=progress,
        )
        results[key] = result
        if output_dir is not None:
            write_csv(result.to_rows(), Path(output_dir) / f"{key}.csv")
    return results


def run_everything(
    *,
    mc_trials: Optional[int] = None,
    mc_dtype: Optional[str] = None,
    mc_workers: Optional[int] = None,
    mc_backend: Optional[str] = None,
    mc_streaming: Optional[bool] = None,
    kernel_backend: Optional[str] = None,
    est_workers: Optional[int] = None,
    table1_trials: Optional[int] = None,
    table1_size: Optional[int] = None,
    seed: Optional[int] = None,
    output_dir: Optional[Union[str, Path]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run the full evaluation: Figures 4-12 and Table I.

    Parameters
    ----------
    mc_trials:
        Monte Carlo trials for the figures.
    mc_dtype:
        Monte Carlo kernel precision (``"float64"`` / ``"float32"``).
    mc_workers:
        Monte Carlo batch-worker count (1 = serial).
    mc_backend:
        Monte Carlo execution backend (``"serial"`` / ``"processes"``).
    mc_streaming:
        Monte Carlo streaming-statistics switch (O(batch) memory).
    kernel_backend:
        Compiled-kernel backend of the hot numerical loops (``"numpy"`` /
        ``"numba"``).
    est_workers:
        Analytical estimators' parallel worker count on the shared
        execution service (correlated fold, second-order sweeps).
    table1_trials:
        Monte Carlo trials for Table I (defaults to ``mc_trials``).
    table1_size:
        Override of the Table I graph size (the paper uses ``k = 20``; a
        smaller value makes a quick smoke run possible).
    seed, output_dir, progress:
        As in :func:`run_all_figures`.

    Returns
    -------
    dict
        ``{"figures": {name: FigureResult}, "table1": ScalabilityResult}``.
    """
    figures = run_all_figures(
        mc_trials=mc_trials,
        mc_dtype=mc_dtype,
        mc_workers=mc_workers,
        mc_backend=mc_backend,
        mc_streaming=mc_streaming,
        kernel_backend=kernel_backend,
        est_workers=est_workers,
        seed=seed,
        output_dir=output_dir,
        progress=progress,
    )
    table_config = TABLE1 if table1_size is None else ScalabilityConfig(
        workflow=TABLE1.workflow, size=table1_size, pfail=TABLE1.pfail
    )
    table1 = run_scalability(
        table_config,
        mc_trials=table1_trials if table1_trials is not None else mc_trials,
        mc_dtype=mc_dtype,
        mc_workers=mc_workers,
        mc_backend=mc_backend,
        mc_streaming=mc_streaming,
        kernel_backend=kernel_backend,
        est_workers=est_workers,
        seed=seed,
        progress=progress,
    )
    if output_dir is not None:
        write_csv(table1.to_rows(), Path(output_dir) / "table1.csv")
    return {"figures": figures, "table1": table1}
