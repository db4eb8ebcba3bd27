"""Monte Carlo simulation: sampling, pluggable execution backends and
streaming statistics."""

from .sampler import (
    SamplingMode,
    sample_failure_mask,
    sample_task_times,
    task_failure_probabilities,
)
from .engine import (
    DEFAULT_BATCH,
    DEFAULT_TRIALS,
    MonteCarloEngine,
    MonteCarloResult,
    default_batch_size,
    simulate_expected_makespan,
)
from .executors import BACKENDS
from .stats import (
    ConvergenceTracker,
    QuantileSketch,
    ReservoirSample,
    StreamingSummary,
    relative_half_width,
    required_trials,
)

__all__ = [
    "sample_failure_mask",
    "sample_task_times",
    "task_failure_probabilities",
    "SamplingMode",
    "MonteCarloEngine",
    "MonteCarloResult",
    "simulate_expected_makespan",
    "DEFAULT_TRIALS",
    "DEFAULT_BATCH",
    "default_batch_size",
    "BACKENDS",
    "ConvergenceTracker",
    "QuantileSketch",
    "ReservoirSample",
    "StreamingSummary",
    "relative_half_width",
    "required_trials",
]
