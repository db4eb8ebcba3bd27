"""The package's ``REPRO_*`` settings: one table, one resolution rule.

Every environment setting is one :class:`Knob` row of :data:`KNOBS`, and
every consumer reads it through :func:`resolve`::

    explicit argument  >  REPRO_<NAME>  >  fallback  >  row default

Estimator constructors and the execution layer pass their argument as
``explicit`` (code beats the environment).  The experiment configurations
and the estimation server pass their field as ``fallback`` (the
environment beats a configuration).  ``None`` means "not given" at every
step, and a blank or whitespace-only environment value counts as unset.

A value that fails its row's check raises
:class:`~repro.exceptions.OptionError`, which names the variable when the
value came from the environment.  The exception is an unrecognised
environment value of a *lenient* row (``KERNEL_BACKEND``): it
warns once per value and process and counts as unset, so a typo in a batch
script cannot abort a long run.

The same rows generate the CLI's setting flags and route them, and the
experiment configs' setting fields, to the estimators that take them.
This is the only module of the package that reads ``os.environ``.
"""

from __future__ import annotations

import dataclasses
import os
import warnings
from typing import Dict, Optional, Tuple

from .exceptions import OptionError

__all__ = ["Knob", "KNOBS", "ESTIMATOR_KNOBS", "resolve", "TRUTHY", "FALSY"]

#: Spellings of the boolean settings.
TRUTHY = ("1", "true", "yes", "on")
FALSY = ("0", "false", "no", "off")

_MC = ("monte-carlo",)
_CORRELATED = ("normal-correlated",)
_PARALLEL = ("normal-correlated", "second-order", "dodin")
_BACKENDS = ("serial", "threads", "processes")


@dataclasses.dataclass(frozen=True)
class Knob:
    """One ``REPRO_<name>`` setting.

    ``type`` is ``int``, ``float``, ``bool`` or ``str``.  ``choices`` limits
    a ``str`` row (a ``str`` row without choices is free text), ``minimum``
    (inclusive) and ``above`` (exclusive) bound a numeric row, and ``auto``
    reads the spelling ``"auto"`` as ``None``.  ``flag`` is the CLI option.
    ``kwarg`` is the constructor keyword of the estimators in
    ``applies_to`` (canonical registry names); such a row is also a field
    of the experiment configs, named :attr:`field`.
    """

    name: str
    type: type
    help: str
    default: object = None
    choices: Tuple[str, ...] = ()
    minimum: Optional[float] = None
    above: Optional[float] = None
    auto: bool = False
    lenient: bool = False
    flag: Optional[str] = None
    kwarg: Optional[str] = None
    applies_to: Tuple[str, ...] = ()
    #: Environment values already warned about (lenient rows only).
    warned: set = dataclasses.field(default_factory=set, compare=False, repr=False)

    @property
    def env(self) -> str:
        """The environment variable."""
        return "REPRO_" + self.name

    @property
    def field(self) -> str:
        """The experiment-config field and driver argument of the row."""
        return self.name.lower()

    @property
    def dest(self) -> str:
        """The attribute the CLI flag parses into."""
        return self.flag.lstrip("-").replace("-", "_")

    def expected(self) -> str:
        """What a valid value looks like, for messages."""
        if self.type is bool:
            return f"one of {'/'.join(TRUTHY)} or {'/'.join(FALSY)}"
        if self.choices:
            return f"one of {self.choices}"
        return "an integer" if self.type is int else "a number"

    def parse(self, value, source: str):
        """Check one value (``source`` names it in the error message)."""
        text = value.strip().lower() if isinstance(value, str) else value
        if self.auto and text == "auto":
            return None
        if self.type is bool:
            if isinstance(value, bool):
                return value
            if str(text) in TRUTHY + FALSY:
                return str(text) in TRUTHY
        elif self.type is str:
            if not self.choices:
                return str(value).strip()
            if text in self.choices:
                return text
        else:
            try:
                number = self.type(text)
            except (TypeError, ValueError):
                pass
            else:
                if self.minimum is not None and number < self.minimum:
                    raise OptionError(
                        f"{source} must be >= {self.minimum}, got {value!r}"
                    )
                if self.above is not None and number <= self.above:
                    raise OptionError(f"{source} must be > {self.above}, got {value!r}")
                return number
        raise OptionError(f"{source} must be {self.expected()}, got {value!r}")


def _table(*knobs: Knob) -> Dict[str, Knob]:
    return {knob.name: knob for knob in knobs}


#: Every setting of the package, in CLI order.
KNOBS: Dict[str, Knob] = _table(
    # 40,000 keeps one figure's nine Monte Carlo runs to a few minutes while
    # the noise floor stays well below the differences measured at
    # p_fail >= 1e-3 (the paper's ground truth uses 300,000).
    Knob("MC_TRIALS", int, "Monte Carlo trials", default=40_000, minimum=1,
         flag="--trials", kwarg="trials", applies_to=_MC),
    Knob("MC_DTYPE", str, "Monte Carlo kernel precision (float32 halves "
         "memory traffic)", default="float64", choices=("float64", "float32"),
         flag="--dtype", kwarg="dtype", applies_to=_MC),
    Knob("MC_WORKERS", int, "Monte Carlo parallel evaluation workers", default=1,
         minimum=1, flag="--workers", kwarg="workers", applies_to=_MC),
    Knob("MC_BACKEND", str, "Monte Carlo execution backend (default: serial for "
         "1 worker, threads otherwise; processes sidesteps the GIL)",
         choices=_BACKENDS, flag="--backend", kwarg="backend", applies_to=_MC),
    Knob("MC_STREAMING", bool, "Monte Carlo streaming statistics: mean/std/CI/"
         "quantiles in O(batch) memory", default=False, flag="--streaming",
         kwarg="streaming", applies_to=_MC),
    Knob("KERNEL_BACKEND", str, "compiled-kernel backend of the hot numerical "
         "loops (default numpy, the bit-reference; numba JIT-compiles the fused "
         "loops; unavailable backends fall back per function)",
         choices=("numpy", "numba"), lenient=True, flag="--kernel-backend",
         kwarg="kernel_backend", applies_to=_MC + ("normal", "normal-correlated")),
    Knob("EST_WORKERS", int, "parallel workers of the analytical estimators "
         "(normal-correlated fold, second-order sweeps, dodin rounds; default 1)",
         minimum=1, flag="--est-workers", kwarg="workers", applies_to=_PARALLEL),
    Knob("CORR_BACKEND", str, "correlation storage of the normal-correlated "
         "estimator (default dense; banded is bit-equal to dense at the auto "
         "bandwidth)", choices=("dense", "banded"),
         flag="--corr-backend", kwarg="correlation_backend", applies_to=_CORRELATED),
    Knob("CORR_BANDWIDTH", int, "level bandwidth of the banded correlation "
         "store (default: auto = the exact bandwidth)", minimum=0,
         auto=True, flag="--corr-bandwidth", kwarg="bandwidth",
         applies_to=_CORRELATED),
    Knob("EXEC_RETRIES", int, "re-dispatches allowed per work partition "
         "(default 0 = fail fast; retries replay the partition's RNG stream)",
         minimum=0, flag="--exec-retries", kwarg="exec_retries",
         applies_to=_MC + _PARALLEL),
    Knob("EXEC_TIMEOUT", float, "per-partition soft deadline in seconds "
         "(enforced by worker preemption on the processes backend)", above=0,
         flag="--exec-timeout", kwarg="exec_timeout", applies_to=_MC + _PARALLEL),
    Knob("EXEC_ON_FAILURE", str, "unusable-backend policy: raise a structured "
         "ExecutionError (default) or degrade processes->threads->serial",
         choices=("raise", "degrade"), flag="--exec-on-failure",
         kwarg="exec_on_failure", applies_to=_MC + _PARALLEL),
    Knob("EXEC_BACKEND", str, "execution backend of the correlated/second-order "
         "work partitions (processes attaches workers zero-copy to the "
         "shared-memory kernel plane)", choices=_BACKENDS, flag="--exec-backend",
         kwarg="exec_backend", applies_to=("normal-correlated", "second-order")),
    Knob("EXEC_BACKOFF", float, "base delay in seconds of the retry backoff",
         minimum=0),
    Knob("EXEC_FAULTS", str, "fault-injection plan of the execution service"),
    Knob("SERVICE_CACHE_BYTES", int, "byte budget of the schedule cache and the "
         "shared-memory segment registry (default unbounded)", minimum=0,
         flag="--cache-bytes"),
    Knob("SERVICE_WORKERS", int, "concurrent estimation threads (default 4)",
         minimum=1, flag="--service-workers"),
)

#: The rows estimators take as constructor keywords.
ESTIMATOR_KNOBS: Tuple[Knob, ...] = tuple(k for k in KNOBS.values() if k.applies_to)


def resolve(name: str, explicit=None, fallback=None):
    """Setting ``name``: ``explicit``, then ``REPRO_<name>``, then
    ``fallback``, then the row default (the first that is not ``None``)."""
    knob = KNOBS[name]
    if explicit is not None:
        return knob.parse(explicit, knob.field)
    raw = os.environ.get(knob.env)
    if raw is not None and raw.strip():
        try:
            return knob.parse(raw, knob.env)
        except OptionError:
            if not knob.lenient:
                raise
            if raw not in knob.warned:
                knob.warned.add(raw)
                warnings.warn(
                    f"unrecognised {knob.env} value {raw!r} ignored; expected "
                    f"{knob.expected()}",
                    RuntimeWarning,
                    stacklevel=2,
                )
    if fallback is not None:
        return knob.parse(fallback, knob.field)
    return knob.default
