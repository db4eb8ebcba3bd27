"""Estimation-as-a-service: a long-lived server over the estimator stack.

One process answers many estimation requests (DAG + estimator + knobs)
over a JSON-lines socket protocol, amortising everything per-DAG behind a
content-addressed :class:`~repro.service.cache.ScheduleCache`: graph
construction, level-schedule compilation, shared-memory segment
publication.  Each estimate runs on its own
:class:`~repro.exec.ParallelService` and closes it when it returns; the
one warm process pool outlives it, but no worker slot does.
Responses are bit-identical to single-shot
:func:`repro.estimate_expected_makespan` runs.

>>> from repro.service import EstimationServer, ServiceClient
>>> with EstimationServer() as server:                    # doctest: +SKIP
...     with ServiceClient(port=server.port) as client:
...         reply = client.estimate(workflow="cholesky", size=6,
...                                 methods=["first-order"])
"""

from .cache import CacheEntry, ScheduleCache, build_entry, request_key
from .protocol import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    EstimationRequest,
    ServiceClient,
    decode_message,
    encode_message,
)
from .server import EstimationServer, run_server

__all__ = [
    "CacheEntry",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "EstimationRequest",
    "EstimationServer",
    "ScheduleCache",
    "ServiceClient",
    "build_entry",
    "decode_message",
    "encode_message",
    "request_key",
    "run_server",
]
