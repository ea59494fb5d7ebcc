"""Long-lived synthesis server: network front end with batch coalescing.

The in-process serving layer (:mod:`repro.serve`) made synthesis cheap
for one consumer; this package makes it shared infrastructure.  A single
long-lived process loads models from a
:class:`~repro.serve.registry.ModelRegistry` on demand and serves every
client over HTTP/1.1 — stdlib only, so it runs anywhere the library does:

* :mod:`~repro.serve.server.http` — :class:`SynthesisServer`: the
  threaded socket front end (endpoints, admission control, chunked
  streaming of large exports, graceful drain);
* :mod:`~repro.serve.server.batcher` — :class:`CoalescingBatcher`:
  concurrent small requests for one model drain through a single
  coalesced generator pass per tick, preserving per-request determinism
  (every response is a contiguous, offset-tagged slice of the model's
  one seeded record stream);
* :mod:`~repro.serve.server.router` — :class:`ModelRouter`: lazy
  per-model services with LRU eviction under a memory budget;
* :mod:`~repro.serve.server.procpool` — :class:`WorkerPoolService`:
  the multi-process serving tier (``--server-workers N``): per-core
  model worker processes generating into a shared-memory sample ring,
  served zero-copy by the threaded front end, bit-identical to the
  in-process service;
* :mod:`~repro.serve.server.client` — :class:`SynthesisClient`: the
  stdlib client library (and the benchmark's load-generator transport).

:class:`LatencyHistogram` (behind ``GET /metrics``) lives in
:mod:`repro.obs.metrics` and is re-exported here.

CLI: ``python -m repro serve --registry model-registry --port 8000``
(graceful drain on SIGTERM/SIGINT).
"""

from repro.obs.metrics import LatencyHistogram
from repro.serve.server.batcher import (
    BatcherClosed,
    BatcherDead,
    CoalescingBatcher,
    DeadlineExceeded,
    QueueSaturated,
    QuotaExceeded,
    WorkerCrashed,
)
from repro.serve.server.client import (
    CircuitBreaker,
    CircuitOpenError,
    ClientError,
    DeadlineExpired,
    ProtocolError,
    ServerError,
    SynthesisClient,
)
from repro.serve.server.http import SynthesisServer
from repro.serve.server.procpool import WorkerPoolError, WorkerPoolService
from repro.serve.server.router import (
    ModelRouter,
    RouterClosed,
    UnservableModelError,
)

__all__ = [
    "SynthesisServer",
    "SynthesisClient",
    "ServerError",
    "ClientError",
    "ProtocolError",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExpired",
    "CoalescingBatcher",
    "QueueSaturated",
    "QuotaExceeded",
    "BatcherClosed",
    "BatcherDead",
    "WorkerCrashed",
    "DeadlineExceeded",
    "ModelRouter",
    "RouterClosed",
    "UnservableModelError",
    "WorkerPoolService",
    "WorkerPoolError",
    "LatencyHistogram",
]
