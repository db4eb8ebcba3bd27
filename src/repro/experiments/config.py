"""Experiment configurations for the paper's evaluation section.

Every figure (4-12) and Table I of the paper is described by a declarative
configuration object; the drivers in :mod:`repro.experiments.error_vs_size`
and :mod:`repro.experiments.scalability` execute them.  Both configuration
classes carry one optional field per estimator setting of
:mod:`repro.options` (``mc_trials``, ``corr_backend``, ``exec_retries``, ...).
The matching ``REPRO_*`` environment variable wins over a field, and a
driver argument wins over both.  The paper uses 300,000 Monte Carlo trials,
which is accurate but slow; the default here (``REPRO_MC_TRIALS``) is
smaller so the whole suite runs in minutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..estimators.registry import canonical_name
from ..exceptions import ExperimentError
from ..options import ESTIMATOR_KNOBS, KNOBS, Knob, resolve

__all__ = [
    "FigureConfig",
    "ScalabilityConfig",
    "PAPER_FIGURES",
    "TABLE1",
    "monte_carlo_trials",
    "monte_carlo_dtype",
    "monte_carlo_workers",
    "monte_carlo_backend",
    "monte_carlo_streaming",
    "correlation_backend",
    "correlation_bandwidth",
    "estimator_workers",
    "execution_retries",
    "execution_timeout",
    "execution_on_failure",
    "execution_backend",
    "service_cache_bytes",
    "service_workers",
    "EXEC_ON_FAILURE",
    "EXEC_BACKEND_CHOICES",
    "PARALLEL_ESTIMATORS",
    "SHM_ESTIMATORS",
    "MC_DTYPES",
    "MC_BACKENDS",
    "CORR_BACKENDS",
    "KERNEL_BACKENDS",
    "KERNEL_ESTIMATORS",
    "DRIVER_KNOBS",
    "kernel_backend",
    "estimator_options_for",
    "PAPER_MC_TRIALS",
]

#: Trial count used by the paper for its ground truth.
PAPER_MC_TRIALS = 300_000

MC_DTYPES = KNOBS["MC_DTYPE"].choices
MC_BACKENDS = KNOBS["MC_BACKEND"].choices
CORR_BACKENDS = KNOBS["CORR_BACKEND"].choices
KERNEL_BACKENDS = KNOBS["KERNEL_BACKEND"].choices
EXEC_ON_FAILURE = KNOBS["EXEC_ON_FAILURE"].choices
EXEC_BACKEND_CHOICES = KNOBS["EXEC_BACKEND"].choices

#: Estimators (canonical registry names) taking the compiled-kernel, the
#: execution-service worker and the execution-backend settings.
KERNEL_ESTIMATORS = KNOBS["KERNEL_BACKEND"].applies_to
PARALLEL_ESTIMATORS = KNOBS["EST_WORKERS"].applies_to
SHM_ESTIMATORS = KNOBS["EXEC_BACKEND"].applies_to

#: Settings the experiment drivers also take as arguments (which win over
#: the environment).
DRIVER_KNOBS: Tuple[Knob, ...] = tuple(
    KNOBS[name]
    for name in ("MC_TRIALS", "MC_DTYPE", "MC_WORKERS", "MC_BACKEND", "MC_STREAMING")
    + ("KERNEL_BACKEND", "EST_WORKERS")
)


def _environment_first(name: str):
    knob = KNOBS[name]

    def resolver(default=None):
        return resolve(name, fallback=default)

    resolver.__doc__ = (
        f"``{knob.env}``, then ``default``, then ``{knob.default!r}`` "
        f"({knob.help})."
    )
    return resolver


monte_carlo_trials = _environment_first("MC_TRIALS")
monte_carlo_dtype = _environment_first("MC_DTYPE")
monte_carlo_workers = _environment_first("MC_WORKERS")
monte_carlo_backend = _environment_first("MC_BACKEND")
monte_carlo_streaming = _environment_first("MC_STREAMING")
kernel_backend = _environment_first("KERNEL_BACKEND")
correlation_backend = _environment_first("CORR_BACKEND")
correlation_bandwidth = _environment_first("CORR_BANDWIDTH")
estimator_workers = _environment_first("EST_WORKERS")
execution_retries = _environment_first("EXEC_RETRIES")
execution_timeout = _environment_first("EXEC_TIMEOUT")
execution_on_failure = _environment_first("EXEC_ON_FAILURE")
execution_backend = _environment_first("EXEC_BACKEND")
service_cache_bytes = _environment_first("SERVICE_CACHE_BYTES")
service_workers = _environment_first("SERVICE_WORKERS")


def _set_options(values: Iterable[Tuple[Knob, object]]) -> Dict[str, object]:
    """Constructor kwargs of the resolved settings that are set."""
    return {knob.kwarg: value for knob, value in values if value is not None}


def _setting(name: str) -> property:
    """Read-only attribute: setting ``name`` after the environment override."""
    return property(
        lambda self: self.knob(name),
        doc=f"{KNOBS[name].help} (``{KNOBS[name].env}`` wins over the field).",
    )


@dataclass(frozen=True, kw_only=True)
class _KnobFields:
    """One optional field per estimator setting, plus the base seed.

    ``None`` defers to the setting's environment variable and default; a
    set field is checked against the setting's row.
    """

    mc_trials: Optional[int] = None
    mc_dtype: Optional[str] = None
    mc_workers: Optional[int] = None
    mc_backend: Optional[str] = None
    mc_streaming: Optional[bool] = None
    kernel_backend: Optional[str] = None
    est_workers: Optional[int] = None
    corr_backend: Optional[str] = None
    corr_bandwidth: Optional[int] = None
    exec_retries: Optional[int] = None
    exec_timeout: Optional[float] = None
    exec_on_failure: Optional[str] = None
    exec_backend: Optional[str] = None
    seed: int = 20160814  # date of the paper's HAL deposit, used as base seed

    def __post_init__(self) -> None:
        for knob in ESTIMATOR_KNOBS:
            value = getattr(self, knob.field)
            if value is not None:
                knob.parse(value, knob.field)

    def knob(self, name: str, explicit=None):
        """Setting ``name``: ``explicit``, then ``REPRO_<name>``, then the field."""
        return resolve(name, explicit, getattr(self, KNOBS[name].field))

    def _options(self, *names: str) -> Dict[str, object]:
        return _set_options((KNOBS[name], self.knob(name)) for name in names)

    trials = _setting("MC_TRIALS")
    dtype = _setting("MC_DTYPE")
    workers = _setting("MC_WORKERS")
    backend = _setting("MC_BACKEND")
    streaming = _setting("MC_STREAMING")
    compiled_kernel_backend = _setting("KERNEL_BACKEND")
    estimator_worker_count = _setting("EST_WORKERS")

    def correlated_options(self) -> Dict[str, object]:
        """Constructor kwargs of the correlated estimator, env applied."""
        return self._options("CORR_BACKEND", "CORR_BANDWIDTH")

    def exec_options(self) -> Dict[str, object]:
        """Constructor kwargs of the execution knobs, env applied."""
        return self._options("EXEC_RETRIES", "EXEC_TIMEOUT", "EXEC_ON_FAILURE")


@dataclass(frozen=True)
class FigureConfig(_KnobFields):
    """Configuration of one error-vs-graph-size figure (Figures 4-12)."""

    figure: str
    workflow: str
    pfail: float
    sizes: Tuple[int, ...] = (4, 6, 8, 10, 12)
    estimators: Tuple[str, ...] = ("dodin", "normal", "first-order")

    def __post_init__(self) -> None:
        if not (0.0 < self.pfail < 1.0):
            raise ExperimentError(f"pfail must be in (0, 1), got {self.pfail}")
        if not self.sizes:
            raise ExperimentError("at least one graph size is required")
        if not self.estimators:
            raise ExperimentError("at least one estimator is required")
        super().__post_init__()

    def describe(self) -> str:
        """Human-readable one-line description."""
        return (
            f"{self.figure}: {self.workflow} DAGs, p_fail={self.pfail:g}, "
            f"k in {list(self.sizes)}"
        )


@dataclass(frozen=True)
class ScalabilityConfig(_KnobFields):
    """Configuration of the scalability study (Table I)."""

    workflow: str = "lu"
    size: int = 20
    pfail: float = 1e-4
    estimators: Tuple[str, ...] = ("dodin", "normal", "first-order")

    def __post_init__(self) -> None:
        if not (0.0 < self.pfail < 1.0):
            raise ExperimentError(f"pfail must be in (0, 1), got {self.pfail}")
        if self.size < 2:
            raise ExperimentError("graph size must be at least 2")
        super().__post_init__()


def estimator_options_for(
    config: _KnobFields,
    name: str,
    overrides: Optional[Dict[str, Dict]] = None,
    **explicit,
) -> Dict[str, object]:
    """Constructor kwargs of one estimator of an experiment run.

    Every setting whose row applies to the estimator (``applies_to`` in
    :mod:`repro.options`) resolves as driver argument (``explicit``, keyed
    by config field, e.g. ``est_workers=4``), then ``REPRO_*``, then the
    config's field, and is passed when set.  Explicit per-estimator
    ``overrides`` (the ``estimator_options`` argument of the drivers) win
    over all of it.
    """
    key = canonical_name(name)
    options = _set_options(
        (knob, config.knob(knob.name, explicit.get(knob.field)))
        for knob in ESTIMATOR_KNOBS
        if key in knob.applies_to
    )
    if overrides:
        options.update(overrides.get(name, {}))
    return options


def _figures() -> Dict[str, FigureConfig]:
    figures: Dict[str, FigureConfig] = {}
    layout = [
        ("figure4", "cholesky", 1e-2),
        ("figure5", "cholesky", 1e-3),
        ("figure6", "cholesky", 1e-4),
        ("figure7", "lu", 1e-2),
        ("figure8", "lu", 1e-3),
        ("figure9", "lu", 1e-4),
        ("figure10", "qr", 1e-2),
        ("figure11", "qr", 1e-3),
        ("figure12", "qr", 1e-4),
    ]
    for name, workflow, pfail in layout:
        figures[name] = FigureConfig(figure=name, workflow=workflow, pfail=pfail)
    return figures


#: The nine error-vs-size figures of the paper, keyed ``"figure4"`` ... ``"figure12"``.
PAPER_FIGURES: Dict[str, FigureConfig] = _figures()

#: The scalability study of Table I (LU, k = 20, p_fail = 1e-4).
TABLE1 = ScalabilityConfig()
