"""Sharded parallel sampling: fan generation across a worker pool.

Chunked/trained generators are embarrassingly parallel to *sample* from
(§4.4): rows are i.i.d. draws, so a large request can be split into shards
and generated on several processes at once.  The one thing parallelism
must never change is the output, so determinism is built into the plan,
not the scheduling:

* :func:`plan_shards` splits ``n`` rows into fixed-size shards and gives
  each shard its own child of one ``np.random.SeedSequence`` — the spawn
  tree depends only on ``(n, shard_rows, seed)``, never on the worker
  count;
* each worker loads the model from the :class:`~repro.serve.registry.
  ModelRegistry` (once per process) and samples its shards with the
  shard-local RNG;
* results are assembled in shard order.

Hence ``--workers 1`` and ``--workers 8`` produce **bit-identical**
output; the pool only decides which process computes which shard.  Workers
re-load from the registry instead of inheriting live objects, so the same
code path works under both ``fork`` and ``spawn`` start methods.  The
parent reads the schema from the manifest and never loads the model.

When the sink names a ``chunk_renderer`` (a CSV sink does), each pool
worker also renders its shard, and the parent only writes the bytes in
shard order.  In-process (one worker, or one shard) such a sink gets each
shard block by block instead: every ``RecordSampler.batch_size`` block is
handed over as soon as it is decoded, drawn in order from the shard's RNG,
so the first row waits for one block, not a whole shard.  A rendering
sink's bytes do not depend on how the rows are split among writes; an
:class:`~repro.serve.sinks.NpzSink` writes one member per write, so NPZ
exports, like pooled ones, keep one hand-off per shard.

Each pool worker takes ``max(1, cores // workers)`` BLAS threads (see
:mod:`repro.utils.threads`), so ``N`` workers do not oversubscribe the
cores; the in-process path (one worker) keeps the library default.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from collections import deque
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from repro.data.schema import TableSchema
from repro.data.table import Table
from repro.serve.registry import CorruptArtifactError, ModelRegistry, RegistryError
from repro.utils.threads import budget_blas_threads

#: Shards dispatched to the pool but not yet taken by the consumer, per
#: worker: enough to keep every worker busy while the consumer writes.
IN_FLIGHT_PER_WORKER = 2


@dataclass(frozen=True)
class Shard:
    """One unit of the generation plan: ``rows`` rows under ``seed``."""

    index: int
    rows: int
    seed: np.random.SeedSequence


def plan_shards(n: int, shard_rows: int, seed=None) -> list[Shard]:
    """Deterministic shard plan for ``n`` rows, independent of workers.

    Every shard holds ``shard_rows`` rows except a short final remainder,
    and carries its own spawned :class:`~numpy.random.SeedSequence` child,
    so the plan — and therefore the sampled output — is a pure function of
    ``(n, shard_rows, seed)``.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if shard_rows <= 0:
        raise ValueError(f"shard_rows must be positive, got {shard_rows}")
    n_shards = -(-n // shard_rows)
    children = np.random.SeedSequence(seed).spawn(n_shards)
    return [
        Shard(index=i, rows=min(shard_rows, n - i * shard_rows), seed=child)
        for i, child in enumerate(children)
    ]


# ----------------------------------------------------------------------
# Worker-side machinery.  Module-level (picklable) so both fork and spawn
# start methods can run it; each worker process loads the model from the
# registry once, on its first shard, so a load error reaches the parent
# through that shard's result (an initializer that raises would leave the
# pool restarting workers forever).
# ----------------------------------------------------------------------
_WORKER: dict = {}


def _worker_init(root: str, name: str, workers: int, render) -> None:
    budget_blas_threads(workers)
    _WORKER.update(root=root, name=name, render=render, model=None)


def _sample_shard(shard: Shard):
    if _WORKER["model"] is None:
        _WORKER["model"] = ModelRegistry(_WORKER["root"]).load(_WORKER["name"])
    table = _WORKER["model"].sample(shard.rows,
                                    rng=np.random.default_rng(shard.seed))
    render = _WORKER["render"]
    return table.values if render is None else render(table.values)


def _default_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class ShardedSampler:
    """Sample a registered model across a ``multiprocessing`` pool.

    Parameters
    ----------
    registry:
        :class:`ModelRegistry` or a registry root path.
    name:
        Registered model name (``TableGAN`` or ``ChunkedTableGAN``).
    shard_rows:
        Rows per shard.  Also the unit of streaming: sinks receive at most
        one shard at a time (an in-process CSV sink one block), and at
        most ``IN_FLIGHT_PER_WORKER × workers`` more are dispatched ahead,
        so peak memory is ``O(workers × shard_rows)``, not ``O(n)``.
    start_method:
        ``multiprocessing`` start method; default ``fork`` where available
        (cheap on POSIX), else ``spawn``.
    """

    def __init__(self, registry, name: str, shard_rows: int = 8192,
                 start_method: str | None = None):
        if shard_rows <= 0:
            raise ValueError(f"shard_rows must be positive, got {shard_rows}")
        registry = (
            registry if isinstance(registry, ModelRegistry)
            else ModelRegistry(registry)
        )
        self.registry = registry
        # Pin the registration NOW: a bare name means "newest version", and
        # resolving it once here (rather than independently in the parent
        # and in every worker) keeps the output worker-invariant even if a
        # new version is registered mid-run.
        try:
            self.name = registry.resolve(name)
        except RegistryError as exc:
            raise ValueError(
                f"no model named {name!r} in {registry.root}"
            ) from exc
        self.shard_rows = shard_rows
        self.start_method = start_method or _default_start_method()
        self._model = None

    def model(self):
        """The registry model, loaded lazily in this process."""
        if self._model is None:
            self._model = self.registry.load(self.name)
        return self._model

    @functools.cached_property
    def schema(self) -> TableSchema:
        """Schema of the sampled table, read from the manifest: the schema
        :meth:`ModelRegistry.load` rebuilds the codec from."""
        try:
            return TableSchema.from_dict(
                self.registry.manifest(self.name)["schema"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptArtifactError(
                f"manifest for {self.name!r} holds no readable schema: {exc}"
            ) from exc

    def _shard_chunks(self, shards, workers: int, render=None):
        """Yield the shards' rows, in shard order.

        ``render`` is the sink's ``chunk_renderer``, if it has one.  From a
        pool worker a shard comes as ``render(values)``, or as its decoded
        value matrix without ``render``.  In-process a shard comes as its
        value matrix without ``render``, and block by block with it (see
        the module docstring).  With a pool, at most
        ``IN_FLIGHT_PER_WORKER × workers`` shards are dispatched and not
        yet yielded: a consumer slower than the workers stalls dispatch
        instead of piling finished shards up in memory.
        """
        workers = min(int(workers), len(shards))
        if workers <= 1:
            model = self.model()
            for shard in shards:
                rng = np.random.default_rng(shard.seed)
                if render is None:
                    yield model.sample(shard.rows, rng=rng).values
                    continue
                for block in model.sample_blocks(shard.rows, rng=rng):
                    yield block.values
            return
        ctx = multiprocessing.get_context(self.start_method)
        with ctx.Pool(
            workers, initializer=_worker_init,
            initargs=(os.fspath(self.registry.root), self.name, workers,
                      render),
        ) as pool:
            # Shards compute out of order but are taken in shard order, and
            # a new one is dispatched only as the oldest is taken.
            window = IN_FLIGHT_PER_WORKER * workers
            pending = deque(pool.apply_async(_sample_shard, (shard,))
                            for shard in shards[:window])
            for shard in shards[window:]:
                chunk = pending.popleft().get()
                pending.append(pool.apply_async(_sample_shard, (shard,)))
                yield chunk
            while pending:
                yield pending.popleft().get()

    def sample_values(self, n: int, seed=None, workers: int = 1) -> np.ndarray:
        """``n`` decoded rows as a value matrix, invariant to ``workers``."""
        shards = plan_shards(n, self.shard_rows, seed)
        return np.concatenate(list(self._shard_chunks(shards, workers)), axis=0)

    def sample_table(self, n: int, seed=None, workers: int = 1) -> Table:
        """``n`` decoded rows as a schema-valid :class:`Table`."""
        return Table(self.sample_values(n, seed=seed, workers=workers),
                     self.schema)

    def sample_to_sink(self, n: int, sink, seed=None, workers: int = 1) -> int:
        """Stream ``n`` rows into ``sink`` shard by shard; returns rows written.

        Combined with the streaming sinks this generates multi-million-row
        outputs in bounded memory: besides the shard being written, at most
        ``IN_FLIGHT_PER_WORKER × workers`` shards are dispatched and not yet
        written, and each shard is written and dropped as soon as its turn
        in the output order arrives.  Pool workers apply the sink's
        ``chunk_renderer``, if it has one, before the hand-off; in-process,
        such a sink is written block by block.
        """
        shards = plan_shards(n, self.shard_rows, seed)
        render = getattr(sink, "chunk_renderer", None)
        written = 0
        # closing(): a failed write shuts the pool down now, not whenever
        # the suspended generator is collected.
        with closing(self._shard_chunks(shards, workers, render)) as chunks:
            for chunk in chunks:
                written += sink.write(chunk)
        return written
