"""Monte Carlo estimator (the paper's ground-truth method).

A thin :class:`~repro.estimators.base.MakespanEstimator` wrapper around
:class:`repro.sim.MonteCarloEngine` so that Monte Carlo estimation plugs
into the same registry, experiment drivers and benchmarks as the analytical
approximations.
"""

from __future__ import annotations

from typing import Optional

from ..core.graph import TaskGraph
from ..core.paths import critical_path_length
from ..failures.models import ErrorModel
from ..sim.engine import DEFAULT_TRIALS, MonteCarloEngine
from ..sim.sampler import SamplingMode
from .base import EstimateResult, MakespanEstimator

__all__ = ["MonteCarloEstimator"]


class MonteCarloEstimator(MakespanEstimator):
    """Brute-force Monte Carlo estimation of the expected makespan.

    Parameters
    ----------
    trials:
        Number of random trials (the paper uses 300,000 for its ground
        truth; the default here is smaller, see
        :data:`repro.sim.engine.DEFAULT_TRIALS`).
    seed:
        Non-negative integer seed for reproducibility, or ``None`` (fresh
        OS entropy); anything else raises
        :class:`~repro.exceptions.EstimationError`.
    mode:
        ``"two-state"`` (at most one re-execution, the paper's evaluation
        model) or ``"geometric"`` (re-execute until success).
    dtype:
        Precision of the longest-path kernel: ``"float64"`` (default,
        bit-identical results) or ``"float32"`` (halves kernel memory
        traffic; the rounding error is far below Monte Carlo noise).
    workers:
        Number of parallel evaluation workers (default 1, the serial
        path); see :class:`repro.sim.MonteCarloEngine`.
    backend:
        Execution backend: ``"serial"`` or ``"processes"``
        (``None`` resolves from the worker count); see
        :mod:`repro.sim.executors`.  A seeded estimate is the same on every
        backend at any worker count.
    streaming:
        Accumulate quantile sketches instead of materialising samples, so
        million-trial references fit in O(batch) memory; the estimate's
        ``details`` still report median/p99 (sketch accuracy).
    exec_retries, exec_timeout, exec_on_failure:
        Fault-tolerance knobs of the execution service (``None`` resolves
        from ``REPRO_EXEC_*``); the resulting
        :class:`~repro.exec.ExecutionReport` lands in
        ``details["execution"]``.
    kernel_backend:
        Compiled-kernel backend of the fused sampling + level recurrence
        (``"numpy"`` or ``"numba"``; ``None`` resolves
        ``REPRO_KERNEL_BACKEND``).  The numba path is bit-identical to
        the NumPy pipeline; see :mod:`repro.core.backends`.
    batch_size:
        Trials per vectorised batch.  ``None`` (default) sizes it from the
        task count (:func:`repro.sim.default_batch_size`: 256 trials on a
        2,600-task DAG); ``details["batch_size"]`` reports the size used.
        Each batch draws its own RNG stream, so a seeded estimate depends
        on it.
    keep_samples, target_relative_half_width:
        Forwarded to :class:`repro.sim.MonteCarloEngine`.
    """

    name = "monte-carlo"

    def __init__(
        self,
        *,
        trials: int = DEFAULT_TRIALS,
        seed: Optional[int] = None,
        mode: SamplingMode = "two-state",
        batch_size: Optional[int] = None,
        reexecution_factor: float = 2.0,
        keep_samples: bool = False,
        target_relative_half_width: Optional[float] = None,
        dtype: Optional[str] = None,
        workers: int = 1,
        backend: Optional[str] = None,
        streaming: bool = False,
        exec_retries: Optional[int] = None,
        exec_timeout: Optional[float] = None,
        exec_on_failure: Optional[str] = None,
        kernel_backend: Optional[str] = None,
        validate: bool = True,
    ) -> None:
        super().__init__(validate=validate)
        self.trials = trials
        self.seed = seed
        self.mode = mode
        self.batch_size = batch_size
        self.reexecution_factor = reexecution_factor
        self.keep_samples = keep_samples
        self.target_relative_half_width = target_relative_half_width
        self.dtype = dtype
        self.workers = workers
        self.backend = backend
        self.streaming = streaming
        self.exec_retries = exec_retries
        self.exec_timeout = exec_timeout
        self.exec_on_failure = exec_on_failure
        self.kernel_backend = kernel_backend

    def _estimate(self, graph: TaskGraph, model: ErrorModel) -> EstimateResult:
        engine = MonteCarloEngine(
            graph,
            model,
            trials=self.trials,
            batch_size=self.batch_size,
            seed=self.seed,
            mode=self.mode,
            reexecution_factor=self.reexecution_factor,
            keep_samples=self.keep_samples,
            target_relative_half_width=self.target_relative_half_width,
            dtype=self.dtype,
            workers=self.workers,
            backend=self.backend,
            streaming=self.streaming,
            exec_retries=self.exec_retries,
            exec_timeout=self.exec_timeout,
            exec_on_failure=self.exec_on_failure,
            kernel_backend=self.kernel_backend,
        )
        result = engine.run()
        details = {
            "trials": result.trials,
            "mode": result.mode,
            "makespan_std": result.std,
            "minimum": result.minimum,
            "maximum": result.maximum,
            "batch_size": result.batch_size,
            "dtype": result.dtype,
            "workers": result.workers,
            "backend": result.backend,
            "kernel_backend": engine.kernel_backend,
            "streaming": result.streaming,
        }
        if result.execution is not None:
            details["execution"] = result.execution
        if result.samples is not None or result.sketch is not None:
            details["median"] = result.quantile(0.5)
            details["p99"] = result.quantile(0.99)
        return EstimateResult(
            method=self.name,
            expected_makespan=result.mean,
            failure_free_makespan=critical_path_length(graph),
            wall_time=0.0,
            std_error=result.standard_error,
            confidence_interval=result.confidence_interval,
            details=details,
        )
