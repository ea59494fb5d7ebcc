"""The synthesis serving subsystem: query trained models at scale.

Training is the expensive, offline phase; this package is the online one.
It turns a trained synthesizer into a queryable service surface:

* :mod:`repro.serve.registry` — :class:`ModelRegistry`: atomic, checksummed
  persistence of trained ``TableGAN``/``ChunkedTableGAN`` artifacts with
  schema + config metadata, listed and loaded by name;
* :mod:`repro.serve.service` — :class:`SynthesisService`: micro-batches
  many small ``n``-row requests into large generator forward passes, with
  an optional replenished sample pool so sub-batch requests are served
  from memory;
* :mod:`repro.serve.sharding` — :class:`ShardedSampler`: fans one large
  request across a ``multiprocessing`` pool with per-shard spawned RNGs;
  output is bit-identical for every worker count;
* :mod:`repro.serve.sinks` — :class:`CsvSink` / :class:`NpzSink`:
  streaming, atomic writers so multi-million-row outputs need bounded
  memory;
* :mod:`repro.serve.server` — :class:`SynthesisServer` /
  :class:`SynthesisClient`: the long-lived HTTP front end (multi-model
  LRU router, cross-request batch coalescing, admission control, chunked
  streaming of large exports) and its stdlib client library.

CLI surface: ``python -m repro train --register NAME``, ``python -m repro
serve-registry``, ``python -m repro synth --model-name NAME -n 1000000
--workers 4 --out rows.csv``, ``python -m repro serve --port 8000``.  See
``docs/architecture.md`` for the dataflow.
"""

from repro.serve.registry import (
    CorruptArtifactError,
    ModelRegistry,
    RegistryError,
    split_ref,
)
from repro.serve.service import ServiceStats, SynthesisService
from repro.serve.sharding import Shard, ShardedSampler, plan_shards
from repro.serve.sinks import CsvSink, NpzSink, read_npz_chunks

#: Names resolved from :mod:`repro.serve.server` on first access (PEP 562),
#: so that exporting, sampling and training import no HTTP, email or TLS
#: modules: only ``repro serve`` loads the HTTP tier.
_SERVER_NAMES = frozenset({
    "CircuitOpenError", "ClientError", "CoalescingBatcher", "ModelRouter",
    "ProtocolError", "QueueSaturated", "ServerError", "SynthesisClient",
    "SynthesisServer",
})

__all__ = [
    "ModelRegistry",
    "RegistryError",
    "CorruptArtifactError",
    "split_ref",
    "SynthesisService",
    "ServiceStats",
    "SynthesisServer",
    "SynthesisClient",
    "ServerError",
    "ClientError",
    "ProtocolError",
    "CircuitOpenError",
    "CoalescingBatcher",
    "QueueSaturated",
    "ModelRouter",
    "ShardedSampler",
    "Shard",
    "plan_shards",
    "CsvSink",
    "NpzSink",
    "read_npz_chunks",
]


def __getattr__(name: str):
    if name in _SERVER_NAMES:
        from repro.serve import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
