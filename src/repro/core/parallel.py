"""Data-parallel Algorithm 2 training with a bit-exact, ordered all-reduce.

:class:`ParallelTrainer` shards every mini-batch across worker processes
and applies each optimizer step exactly once on the master — yet its
result is **bit-identical for every worker count**, the same contract
:class:`~repro.serve.sharding.ShardedSampler` proves for sampling.  The
trick is to make the computation a pure function of a *shard
decomposition* that does not mention workers at all:

1.  Every global batch is split into ``grad_shards`` fixed row ranges
    (:func:`shard_bounds`).  Workers own shards round-robin, but nothing
    a worker computes depends on *which* worker owns a shard — each shard
    is always recomputed from the shared weights, never from another
    shard's caches.
2.  Each shard's gradient is published, pre-weighted by its share of the
    global batch, into a per-shard ``multiprocessing.shared_memory``
    buffer.  The master reduces the buffers **in shard-index order**
    (:meth:`~repro.nn.flatbuf.FlatParameterBuffer.reduce_grads`) —
    floating-point addition is not associative, so the fixed order is
    what makes the sum independent of worker arrival order — and steps
    the fused Adam once per schedule op.
3.  Network parameters live in shared-memory segments
    (:meth:`~repro.nn.flatbuf.FlatParameterBuffer.rebind_storage`), so
    the master's optimizer step *is* the weight broadcast: every process
    aliases the same bytes.
4.  Order-dependent EWMA state never updates concurrently.  Workers
    record BatchNorm batch statistics through a per-layer tap
    (``BatchNorm.stats_tap``) and ship feature mean/sd vectors with their
    round results; the master replays all of it into one canonical stream
    in (round, shard, op) order.
5.  All randomness (epoch shuffles, latent draws) happens on the master's
    single generator, exactly as in the serial loop.

With more than one process, every process computes shards on
``max(1, cores // workers)`` BLAS threads (:mod:`repro.utils.threads`):
the workers from their start, the master for the duration of
:meth:`ParallelTrainer.train`, after which its previous count is
restored.  The thread count changes no result bit.

The per-batch op sequence is the trainer's
:class:`~repro.core.schedule.UpdateSchedule`, partitioned into
synchronization *rounds* (:meth:`UpdateSchedule.rounds`).  Per round the
master broadcasts one command, every process computes its shards, the
master collects results, reduces, steps, and replays statistics.  A
worker that dies mid-round can therefore never contribute a partial
gradient: the master detects the dead process (or an injected fault at
the ``parallel.reduce`` seam) while *collecting*, before any reduce of
that round completes on its behalf, and fails the epoch loudly with
:class:`ParallelTrainingError`.  Combined with
:class:`~repro.core.checkpoint.TrainerCheckpointer` — whose fingerprint
includes the shard count and schedule but *not* the worker count — a
crashed run resumes bit-exactly under any worker count.

**ParallelTrainer is N-invariant, not serial-identical.**  Sharding
changes the numbers (per-shard BatchNorm statistics, per-shard loss
normalization, the ordered float sum), so a sharded run does not
reproduce the unsharded :class:`~repro.core.trainer.TableGanTrainer`
bit-for-bit — it reproduces *itself* under every worker count.  The
serial trainer remains the default for ``fit()`` without ``--workers``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from multiprocessing import shared_memory
from queue import Empty
from types import SimpleNamespace

import numpy as np

from repro.core.config import TableGanConfig
from repro.core.losses import (
    classification_loss,
    discriminator_loss,
    generator_adversarial_loss,
    information_loss,
)
from repro.core.networks import FEATURE_LAYER
from repro.core.schedule import UpdateSchedule
from repro.core.trainer import EpochLosses, FeatureStats, TableGanTrainer, TrainingHistory
from repro.nn import Sequential
from repro.nn.batchnorm import BatchNorm
from repro.obs import trace
from repro.utils.faults import fault_point
from repro.utils.rng import ensure_rng
from repro.utils.threads import budget_blas_threads, set_blas_threads

#: Fixed net order for gradient areas, BatchNorm replay, and payloads.
_NET_TAGS = ("g", "d", "c")


class ParallelTrainingError(RuntimeError):
    """Data-parallel training failed loudly (dead worker, injected fault,
    round timeout).  No partial gradient has been applied: the master
    aborts a round before reducing on behalf of a missing shard."""


def shard_bounds(rows: int, shards: int) -> list[tuple[int, int]]:
    """Split ``rows`` batch rows into ``shards`` contiguous ranges.

    The first ``rows % shards`` shards get one extra row.  This is the
    *fixed decomposition* every determinism guarantee hangs off: it
    depends only on (rows, shards), never on worker count.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if rows < shards:
        raise ValueError(f"cannot split {rows} rows into {shards} shards")
    base, extra = divmod(rows, shards)
    bounds, start = [], 0
    for s in range(shards):
        stop = start + base + (1 if s < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _bn_layers(net: Sequential | None) -> list[BatchNorm]:
    """The BatchNorm layers of ``net`` in layer order (replay targets)."""
    if net is None:
        return []
    return [layer for layer in net.layers if isinstance(layer, BatchNorm)]


class _ShardExecutor:
    """Computes per-shard gradients and statistics inside one process.

    Both the master (rank 0) and every worker run the same executor over
    their own shard subset; determinism across worker counts follows
    because nothing here reads state another shard wrote — forward caches
    are rebuilt per shard, the latent/real rows come from shared-memory
    views written by the master, and the feature statistics are read from
    the master-published snapshot.
    """

    def __init__(self, trainer: "ParallelTrainer", shard_ids, stats_obj):
        self.t = trainer
        self.shard_ids = sorted(shard_ids)
        self.stats_obj = stats_obj
        self._bn = {tag: _bn_layers(net) for tag, net in (
            ("g", trainer.generator), ("d", trainer.discriminator),
            ("c", trainer.classifier if trainer.opt_c is not None else None),
        )}
        self._fake: dict[int, np.ndarray] = {}

    # -- BatchNorm statistics tap ---------------------------------------
    def _arm_taps(self) -> None:
        for layers in self._bn.values():
            for layer in layers:
                layer.stats_tap = []

    def _collect_taps(self) -> dict[str, list]:
        events = {}
        for tag in _NET_TAGS:
            layers = self._bn.get(tag, [])
            events[tag] = [layer.stats_tap or [] for layer in layers]
            for layer in layers:
                layer.stats_tap = None
        return events

    # -- per-op shard computations --------------------------------------
    def _publish(self, shard: int, tag: str, weight: float) -> None:
        """Write this shard's (pre-weighted) gradient into its shared slot.

        The ``parallel.reduce`` fault seam sits here: an injected fault
        makes a shard fail *before* its gradient is visible, which the
        chaos tests use to prove the epoch dies loudly instead of
        stepping on partial sums.
        """
        fault_point("parallel.reduce")
        self.t._flats[tag].export_grads(self.t._grad_views[shard][tag],
                                        scale=weight)

    def _shard_fake(self, shard: int, z_s: np.ndarray) -> np.ndarray:
        fake = self._fake.get(shard)
        if fake is None:
            fake = self.t.generator.forward(z_s)
            self._fake[shard] = fake
        return fake

    def _op_d(self, shard, real, z_s, weight):
        t = self.t
        fake = self._shard_fake(shard, z_s)
        t._flats["d"].zero_grad()
        real_logits = t.discriminator.forward(real)
        _, grad_real, _ = discriminator_loss(
            real_logits, np.zeros_like(real_logits)
        )
        t.discriminator.backward(grad_real)
        fake_logits = t.discriminator.forward(fake)
        loss_full, _, grad_fake = discriminator_loss(real_logits, fake_logits)
        t.discriminator.backward(grad_fake)
        self._publish(shard, "d", weight)
        return loss_full

    def _op_c(self, shard, real, weight):
        t = self.t
        labels = t._labels01(real)
        logits = t.classifier.forward(t._remove_label(real))
        logits = logits.ravel() if labels.ndim == 1 else logits
        loss, grad_logits, _ = classification_loss(logits, labels)
        t._flats["c"].zero_grad()
        t.classifier.backward(grad_logits)
        self._publish(shard, "c", weight)
        return loss

    def _op_stats(self, shard, real, z_s):
        t = self.t
        fake = self._shard_fake(shard, z_s)
        t.discriminator.forward(real)
        real_features = t.discriminator.activation(FEATURE_LAYER)
        r_mean, r_sd = real_features.mean(axis=0), real_features.std(axis=0)
        t.discriminator.forward(fake)
        fake_features = t.discriminator.activation(FEATURE_LAYER)
        f_mean, f_sd = fake_features.mean(axis=0), fake_features.std(axis=0)
        return (r_mean, r_sd, f_mean, f_sd)

    def _op_g(self, shard, z_s, weight):
        t = self.t
        config = t.config
        # Always a fresh generator forward: G's (and D's) internal caches
        # hold whatever shard ran last, so per-shard recomputation is the
        # only worker-count-independent option — and it is exactly what
        # makes the result a pure function of the shard decomposition.
        fake = t.generator.forward(z_s)
        fake_logits = t.discriminator.forward(fake)
        adv_loss, grad_logits = generator_adversarial_loss(
            fake_logits, saturating=config.saturating_generator_loss
        )
        grad_at_features = t.discriminator.backward_to(FEATURE_LAYER, grad_logits)
        info_loss_value = 0.0
        if config.use_info_loss:
            synthetic_features = t.discriminator.activation(FEATURE_LAYER)
            info_loss_value, grad_features = information_loss(
                self.stats_obj, synthetic_features,
                config.delta_mean, config.delta_sd,
            )
            if np.any(grad_features):
                grad_at_features = grad_at_features + grad_features
        grad_at_fake = t.discriminator.backward_from(FEATURE_LAYER, grad_at_features)

        class_loss_value = 0.0
        if t.opt_c is not None:
            labels = t._labels01(fake)
            c_logits = t.classifier.forward(t._remove_label(fake))
            c_logits = c_logits.ravel() if labels.ndim == 1 else c_logits
            class_loss_value, grad_c_logits, grad_labels = classification_loss(
                c_logits, labels
            )
            grad_via_c = t.classifier.backward(grad_c_logits)
            if labels.ndim == 1:
                grad_via_c[t._label_indices[0]] = grad_labels * 0.5
            else:
                for j, index in enumerate(t._label_indices):
                    grad_via_c[index] = grad_labels[:, j] * 0.5
            grad_at_fake = grad_at_fake + grad_via_c

        t._flats["g"].zero_grad()
        t.generator.backward(grad_at_fake)
        self._publish(shard, "g", weight)
        return adv_loss, info_loss_value, class_loss_value

    # -- one synchronization round --------------------------------------
    def run_round(self, offset: int, rows: int, ops, reuse_fake: bool) -> dict:
        """Compute every owned shard for one round; return the payload.

        ``reuse_fake`` says the cached per-shard synthetic batches are
        still valid (no generator step since they were computed) — a
        schedule-position fact the master broadcasts, so cache behaviour
        is identical for every worker count.
        """
        if not reuse_fake:
            self._fake.clear()
        t = self.t
        bounds = shard_bounds(rows, t.grad_shards)
        payload: dict[int, dict] = {}
        for shard in self.shard_ids:
            start, stop = bounds[shard]
            real = t._epoch_view[offset + start : offset + stop]
            z_s = t._z_view[start:stop]
            weight = (stop - start) / rows
            shard_result: dict[str, dict] = {}
            for op in ops:
                if op == "c" and t.opt_c is None:
                    shard_result[op] = {"loss": 0.0, "bn": {tag: [] for tag in _NET_TAGS}}
                    continue
                self._arm_taps()
                result: dict = {}
                if op == "d":
                    result["loss"] = self._op_d(shard, real, z_s, weight)
                elif op == "c":
                    result["loss"] = self._op_c(shard, real, weight)
                elif op == "stats":
                    result["feat"] = self._op_stats(shard, real, z_s)
                else:  # "g"
                    adv, info, cls = self._op_g(shard, z_s, weight)
                    result["loss"] = (adv, info, cls)
                result["bn"] = self._collect_taps()
                shard_result[op] = result
            payload[shard] = shard_result
        return payload


def _worker_main(trainer: "ParallelTrainer", rank: int, shard_ids,
                 cmd_queue, result_queue) -> None:
    """Worker process body (fork-inherited trainer; params alias shared
    memory, gradients are private copy-on-write scratch)."""
    round_id = -1
    try:
        budget_blas_threads(trainer._n_procs)
        executor = _ShardExecutor(trainer, shard_ids, trainer._stats_view())
        while True:
            command = cmd_queue.get()
            if command[0] == "stop":
                break
            _, round_id, offset, rows, ops, reuse_fake = command
            payload = executor.run_round(offset, rows, ops, reuse_fake)
            result_queue.put(("ok", rank, round_id, payload))
    except BaseException as exc:  # noqa: BLE001 — report, then die loudly
        try:
            result_queue.put(
                ("error", rank, round_id, f"{type(exc).__name__}: {exc}")
            )
        except Exception:
            pass
    finally:
        # Flush the queue feeder, then skip interpreter teardown: the
        # fork-inherited shared-memory views must not be "cleaned up"
        # by a child (the master owns the segments).
        result_queue.close()
        result_queue.join_thread()
        os._exit(0)


class ParallelTrainer(TableGanTrainer):
    """Algorithm 2 across worker processes, bit-identical for every N.

    Parameters (beyond :class:`~repro.core.trainer.TableGanTrainer`)
    ----------------------------------------------------------------
    workers:
        Processes computing shards (including the master, which is rank
        0).  Capped at ``grad_shards``; ``workers=1`` runs everything
        in-process through the identical code path.
    grad_shards:
        The fixed number of gradient shards per global batch.  This — not
        the worker count — is what changes the numbers; it participates
        in the checkpoint fingerprint, and the global batch must hold at
        least this many rows.
    round_timeout_s:
        How long the master waits for a round's worker results before
        declaring the round hung.  Dead workers are detected within a
        fraction of a second regardless.
    """

    def __init__(self, generator: Sequential, discriminator: Sequential,
                 classifier: Sequential | None, config: TableGanConfig,
                 label_cell=None, schedule: UpdateSchedule | None = None,
                 workers: int = 1, grad_shards: int = 4,
                 round_timeout_s: float = 300.0):
        super().__init__(generator, discriminator, classifier, config,
                         label_cell=label_cell, schedule=schedule)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if grad_shards < 1:
            raise ValueError(f"grad_shards must be >= 1, got {grad_shards}")
        if round_timeout_s <= 0:
            raise ValueError(
                f"round_timeout_s must be positive, got {round_timeout_s}"
            )
        self.workers = workers
        self.grad_shards = grad_shards
        self.round_timeout_s = round_timeout_s
        self._flats = {"g": self.opt_g._flat, "d": self.opt_d._flat}
        if self.opt_c is not None:
            self._flats["c"] = self.opt_c._flat
        if any(flat is None for flat in self._flats.values()):
            raise ParallelTrainingError(
                "data-parallel training requires the fused flat-buffer "
                "optimizers (the per-parameter reference path has no "
                "all-reduce unit)"
            )
        n_procs = min(workers, grad_shards)
        if n_procs > 1 and "fork" not in multiprocessing.get_all_start_methods():
            raise ParallelTrainingError(
                "workers > 1 requires the 'fork' start method (workers "
                "inherit the network object graph; spawn cannot rebuild "
                "the shared-memory aliasing)"
            )
        self._n_procs = n_procs
        self._segment_seq = 0
        self._segments: list[shared_memory.SharedMemory] = []
        self._procs: list = []
        self.worker_pids: list[int] = []

    # ------------------------------------------------------------------
    # Shared-memory plumbing.
    # ------------------------------------------------------------------
    def _alloc_segment(self, nbytes: int) -> shared_memory.SharedMemory:
        # Recognizably named (``rgrad{pid}_{n}``) rather than the stdlib's
        # anonymous ``psm_*`` so the chaos suite can assert, by listing
        # /dev/shm, that training teardown and crash paths leaked nothing.
        for _ in range(64):
            name = f"rgrad{os.getpid()}_{self._segment_seq}"
            self._segment_seq += 1
            try:
                segment = shared_memory.SharedMemory(
                    name=name, create=True, size=max(1, nbytes))
            except FileExistsError:  # a dead run's leftover; pick a new name
                continue
            self._segments.append(segment)
            return segment
        raise ParallelTrainingError(
            "could not allocate a uniquely named shared-memory segment")

    @staticmethod
    def _segment_views(segment, specs) -> list[np.ndarray]:
        views, offset = [], 0
        for dtype, size in specs:
            views.append(np.frombuffer(segment.buf, dtype=dtype, count=size,
                                       offset=offset))
            offset += size * dtype.itemsize
        return views

    def _setup_shared(self, matrices: np.ndarray, batch: int,
                      n_features: int) -> None:
        # Parameters: one segment per network; rebinding makes every
        # optimizer step a zero-copy broadcast to all forked processes.
        for tag, flat in self._flats.items():
            specs = flat.group_specs()
            segment = self._alloc_segment(
                sum(size * dtype.itemsize for dtype, size in specs)
            )
            flat.rebind_storage(data_backing=self._segment_views(segment, specs))
        # Per-shard gradient slots: shard-indexed so the reduction order
        # is positional, independent of worker arrival order.
        self._grad_views = []
        for _ in range(self.grad_shards):
            per_tag = {}
            for tag, flat in self._flats.items():
                specs = flat.group_specs()
                segment = self._alloc_segment(
                    sum(size * dtype.itemsize for dtype, size in specs)
                )
                per_tag[tag] = self._segment_views(segment, specs)
            self._grad_views.append(per_tag)
        # Epoch data (the master's per-epoch shuffled gather), the global
        # batch's latent draws, and the published feature statistics.
        epoch_segment = self._alloc_segment(matrices.nbytes)
        self._epoch_view = np.frombuffer(
            epoch_segment.buf, dtype=matrices.dtype, count=matrices.size
        ).reshape(matrices.shape)
        z_segment = self._alloc_segment(
            batch * self.config.latent_dim * np.dtype(self._dtype).itemsize
        )
        self._z_view = np.frombuffer(
            z_segment.buf, dtype=self._dtype, count=batch * self.config.latent_dim
        ).reshape(batch, self.config.latent_dim)
        stats_segment = self._alloc_segment(4 * n_features * 8)
        self._stats_arrays = self._segment_views(
            stats_segment, [(np.dtype(np.float64), n_features)] * 4
        )
        self._publish_stats()

    def _publish_stats(self) -> None:
        """Snapshot the canonical EWMA statistics into shared memory."""
        for view, name in zip(self._stats_arrays,
                              ("fx_mean", "fx_sd", "fz_mean", "fz_sd")):
            view[...] = getattr(self.stats, name)

    def _stats_view(self):
        """A FeatureStats-shaped read view of the published statistics."""
        fx_mean, fx_sd, fz_mean, fz_sd = self._stats_arrays
        return SimpleNamespace(fx_mean=fx_mean, fx_sd=fx_sd,
                               fz_mean=fz_mean, fz_sd=fz_sd)

    def _teardown_shared(self) -> None:
        # Move the parameters back onto private memory *before* the
        # segments go away — anything still viewing a closed segment
        # would fault on the next access.
        for flat in self._flats.values():
            flat.rebind_storage(data_backing=[
                np.empty(size, dtype=dtype) for dtype, size in flat.group_specs()
            ])
        # Layer forward caches hold views of the last batch — slices of
        # the shared epoch/latent segments.  Drop them so the segments
        # can actually unmap.
        for net in (self.generator, self.discriminator, self.classifier):
            if net is None:
                continue
            net._activations = None
            for layer in net.layers:
                for attr in ("_x", "_cache"):
                    if hasattr(layer, attr):
                        setattr(layer, attr, None)
        for name in ("_grad_views", "_epoch_view", "_z_view", "_stats_arrays"):
            if hasattr(self, name):
                delattr(self, name)
        segments, self._segments = self._segments, []
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # a stray view (e.g. in a traceback frame)
                pass
            try:
                segment.unlink()
            except FileNotFoundError:
                pass

    # ------------------------------------------------------------------
    # Worker lifecycle.
    # ------------------------------------------------------------------
    def _spawn_workers(self) -> None:
        self._cmd_queues = []
        self._procs = []
        if self._n_procs == 1:
            # Single-process mode runs the identical executor/reduce path
            # with zero children — and with zero multiprocessing plumbing,
            # so it works even where the fork start method does not exist.
            self._result_queue = None
            self._my_shards = list(range(self.grad_shards))
            return
        context = multiprocessing.get_context("fork")
        self._result_queue = context.Queue()
        owners = {
            rank: [s for s in range(self.grad_shards)
                   if s % self._n_procs == rank]
            for rank in range(self._n_procs)
        }
        self._my_shards = owners[0]
        for rank in range(1, self._n_procs):
            cmd_queue = context.Queue()
            process = context.Process(
                target=_worker_main,
                args=(self, rank, owners[rank], cmd_queue, self._result_queue),
                daemon=True,
            )
            process.start()
            self._cmd_queues.append(cmd_queue)
            self._procs.append(process)
        self.worker_pids = [process.pid for process in self._procs]

    def _shutdown_workers(self) -> None:
        for cmd_queue in getattr(self, "_cmd_queues", []):
            try:
                cmd_queue.put(("stop",))
            except Exception:
                pass
        for process in getattr(self, "_procs", []):
            # Keep draining the result queue while waiting: a worker that
            # aborted mid-flush is blocked until its queued payloads are
            # consumed, so join without drain could deadlock into the
            # terminate fallback.
            deadline = time.monotonic() + 5.0
            while process.is_alive() and time.monotonic() < deadline:
                try:
                    self._result_queue.get(timeout=0.05)
                except Empty:
                    pass
            process.join(timeout=0.1)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self._procs = []
        self._cmd_queues = []
        self.worker_pids = []

    def _collect(self, round_id: int) -> dict[int, dict]:
        """Gather one round's worker payloads, failing loudly on loss.

        Polls with a short timeout so a worker death surfaces in well
        under a second; an injected-fault error message from a worker is
        re-raised as :class:`ParallelTrainingError` with the cause."""
        payloads: dict[int, dict] = {}
        deadline = time.monotonic() + self.round_timeout_s
        while len(payloads) < len(self._procs):
            try:
                kind, rank, rid, body = self._result_queue.get(timeout=0.2)
            except Empty:
                dead = [p for p in self._procs if not p.is_alive()]
                if dead:
                    # Give an in-flight error report a moment to land so
                    # the exception can say *why* the worker died.
                    try:
                        kind, rank, rid, body = self._result_queue.get(timeout=0.5)
                        if kind == "error":
                            raise ParallelTrainingError(
                                f"worker {rank} failed in round {rid}: {body}; "
                                "epoch aborted before any partial gradient "
                                "was applied"
                            )
                    except Empty:
                        pass
                    raise ParallelTrainingError(
                        f"worker process(es) {[p.pid for p in dead]} died "
                        f"mid-round {round_id}; epoch aborted before any "
                        "partial gradient was applied"
                    )
                if time.monotonic() > deadline:
                    raise ParallelTrainingError(
                        f"round {round_id} timed out after "
                        f"{self.round_timeout_s:.0f}s waiting for "
                        f"{len(self._procs) - len(payloads)} worker result(s)"
                    )
                continue
            if kind == "error":
                raise ParallelTrainingError(
                    f"worker {rank} failed in round {rid}: {body}; epoch "
                    "aborted before any partial gradient was applied"
                )
            if rid != round_id:
                raise ParallelTrainingError(
                    f"protocol desync: worker {rank} answered round {rid} "
                    f"during round {round_id}"
                )
            payloads[rank] = body
        return payloads

    # ------------------------------------------------------------------
    # Canonical statistics replay.
    # ------------------------------------------------------------------
    def _init_bn_canonical(self) -> None:
        self._bn_layer_map = {
            "g": _bn_layers(self.generator),
            "d": _bn_layers(self.discriminator),
            "c": _bn_layers(self.classifier if self.opt_c is not None else None),
        }
        self._bn_canonical = {
            tag: [(layer.running_mean.copy(), layer.running_var.copy())
                  for layer in layers]
            for tag, layers in self._bn_layer_map.items()
        }

    def _replay_bn(self, ops, merged: dict[int, dict]) -> None:
        """Fold every recorded BatchNorm event in (shard, op, layer) order.

        This is the exact EWMA expression of ``BatchNorm._update_running``
        applied to one canonical stream, so the saved running statistics
        are a pure function of the shard decomposition."""
        for shard in range(self.grad_shards):
            shard_result = merged[shard]
            for op in ops:
                events_by_tag = shard_result[op]["bn"]
                for tag in _NET_TAGS:
                    layers = self._bn_layer_map[tag]
                    canonical = self._bn_canonical[tag]
                    for index, events in enumerate(events_by_tag.get(tag, [])):
                        mean_c, var_c = canonical[index]
                        momentum = layers[index].momentum
                        for mean, var in events:
                            mean_c = momentum * mean_c + (1 - momentum) * mean
                            var_c = momentum * var_c + (1 - momentum) * var
                        canonical[index] = (mean_c, var_c)

    def _sync_bn(self) -> None:
        """Write the canonical running statistics back into the layers
        (before checkpoints and at the end of training), replacing the
        scratch values the master's own shard forwards left behind."""
        for tag, layers in self._bn_layer_map.items():
            for layer, (mean, var) in zip(layers, self._bn_canonical[tag]):
                layer.running_mean = mean.copy()
                layer.running_var = var.copy()

    # ------------------------------------------------------------------
    # The training loop.
    # ------------------------------------------------------------------
    def _apply_round(self, ops, merged: dict[int, dict], rows: int,
                     losses: dict[str, float]) -> None:
        bounds = shard_bounds(rows, self.grad_shards)
        weights = [(stop - start) / rows for start, stop in bounds]

        def folded(values) -> float:
            total = 0.0
            for weight, value in zip(weights, values):
                total += weight * value
            return total

        profile = self.profile
        for op in ops:
            if op == "d":
                fault_point("parallel.reduce")
                t0 = time.perf_counter()
                self._flats["d"].reduce_grads(
                    [self._grad_views[s]["d"] for s in range(self.grad_shards)]
                )
                t1 = time.perf_counter()
                self.opt_d.step()
                profile.add("reduce", t1 - t0)
                profile.add("optimizer_step", time.perf_counter() - t1)
                losses["d"] = folded(
                    merged[s][op]["loss"] for s in range(self.grad_shards)
                )
            elif op == "c":
                if self.opt_c is None:
                    losses["c"] = 0.0
                    continue
                fault_point("parallel.reduce")
                t0 = time.perf_counter()
                self._flats["c"].reduce_grads(
                    [self._grad_views[s]["c"] for s in range(self.grad_shards)]
                )
                t1 = time.perf_counter()
                self.opt_c.step()
                profile.add("reduce", t1 - t0)
                profile.add("optimizer_step", time.perf_counter() - t1)
                losses["c"] = folded(
                    merged[s][op]["loss"] for s in range(self.grad_shards)
                )
            elif op == "stats":
                # Canonical fold order: every shard's real statistics in
                # shard order, then every shard's synthetic statistics —
                # mirroring the serial loop's real-then-synthetic shape.
                for shard in range(self.grad_shards):
                    r_mean, r_sd, _, _ = merged[shard][op]["feat"]
                    self.stats.fold_real(r_mean, r_sd)
                for shard in range(self.grad_shards):
                    _, _, f_mean, f_sd = merged[shard][op]["feat"]
                    self.stats.fold_synthetic(f_mean, f_sd)
                self._publish_stats()
            else:  # "g"
                fault_point("parallel.reduce")
                t0 = time.perf_counter()
                self._flats["g"].reduce_grads(
                    [self._grad_views[s]["g"] for s in range(self.grad_shards)]
                )
                t1 = time.perf_counter()
                self.opt_g.step()
                profile.add("reduce", t1 - t0)
                profile.add("optimizer_step", time.perf_counter() - t1)
                losses["adv"] = folded(
                    merged[s][op]["loss"][0] for s in range(self.grad_shards)
                )
                losses["info"] = folded(
                    merged[s][op]["loss"][1] for s in range(self.grad_shards)
                )
                losses["cls"] = folded(
                    merged[s][op]["loss"][2] for s in range(self.grad_shards)
                )
        t0 = time.perf_counter()
        self._replay_bn(ops, merged)
        profile.add("bn_replay", time.perf_counter() - t0)

    def _run_parallel_batch(self, offset: int, rows: int, rng
                            ) -> tuple[float, float, float, float, float]:
        self._z_view[...] = self.sample_latent(rows, rng)
        losses = {"d": 0.0, "adv": 0.0, "info": 0.0, "cls": 0.0, "c": 0.0}
        fake_valid = False
        profile = self.profile
        for ops in self._rounds:
            self._round_id += 1
            command = ("round", self._round_id, offset, rows, ops, fake_valid)
            for cmd_queue in self._cmd_queues:
                cmd_queue.put(command)
            t0 = time.perf_counter()
            merged = self._executor.run_round(offset, rows, ops, fake_valid)
            t1 = time.perf_counter()
            for body in self._collect(self._round_id).values():
                merged.update(body)
            profile.add("shard_compute", t1 - t0)
            profile.add("reduce_wait", time.perf_counter() - t1)
            if sorted(merged) != list(range(self.grad_shards)):
                raise ParallelTrainingError(
                    f"round {self._round_id} covered shards {sorted(merged)}, "
                    f"expected 0..{self.grad_shards - 1}"
                )
            self._apply_round(ops, merged, rows, losses)
            if "g" in ops:
                fake_valid = False
            elif "d" in ops or "stats" in ops:
                fake_valid = True
        return (losses["d"], losses["adv"], losses["info"], losses["cls"],
                losses["c"])

    def train(self, matrices: np.ndarray, rng=None,
              on_epoch_end=None, checkpointer=None) -> TrainingHistory:
        """Run data-parallel Algorithm 2; see the module docstring.

        The loop structure (probe, restore, per-epoch shuffle, cursors,
        checkpointer hooks) deliberately mirrors the serial trainer so
        checkpoints are interchangeable across worker counts."""
        config = self.config
        matrices = np.ascontiguousarray(matrices, dtype=self._dtype)
        if matrices.ndim not in (3, 4) or matrices.shape[1] != 1:
            raise ValueError(
                f"expected (N, 1, d, d) or (N, 1, L) matrices, got {matrices.shape}"
            )
        n = matrices.shape[0]
        if n < 2:
            raise ValueError("need at least 2 training records")
        rng = ensure_rng(rng if rng is not None else config.seed)

        self.discriminator.forward(matrices[:1], training=False)
        n_features = self.discriminator.activation(FEATURE_LAYER).shape[1]
        self.stats = FeatureStats(n_features, weight=config.ewma_weight)

        history = TrainingHistory()
        batch = min(config.batch_size, n)
        if batch < self.grad_shards:
            raise ParallelTrainingError(
                f"global batch of {batch} rows cannot carry "
                f"{self.grad_shards} gradient shards; lower --grad-shards "
                "or raise the batch size"
            )
        cursor = None
        start_epoch = 0
        if checkpointer is not None:
            cursor = checkpointer.restore(self, rng, history, n_rows=n)
            if cursor is not None:
                start_epoch = cursor.epoch

        self._init_bn_canonical()
        self._rounds = self.schedule.rounds()
        self._round_id = 0
        blas_threads = (budget_blas_threads(self._n_procs)
                        if self._n_procs > 1 else None)
        try:
            self._setup_shared(matrices, batch, n_features)
            self._spawn_workers()
            self._executor = _ShardExecutor(self, self._my_shards, self.stats)
            for epoch in range(start_epoch, config.epochs):
                if cursor is not None and cursor.perm is not None:
                    perm = cursor.perm
                    sums = cursor.sums
                    n_batches = cursor.n_batches
                    first_start = cursor.batch_start
                else:
                    perm = rng.permutation(n)
                    sums = np.zeros(5)
                    n_batches = 0
                    first_start = 0
                cursor = None
                # One shuffled gather per epoch, written straight into the
                # shared segment every process reads its shard rows from.
                np.take(matrices, perm, axis=0, out=self._epoch_view)
                for start in range(first_start, n - batch + 1, batch):
                    with trace.span("train.batch", epoch=epoch, rows=batch,
                                    parallel=True):
                        sums += self._run_parallel_batch(start, batch, rng)
                    n_batches += 1
                    if checkpointer is not None:
                        self._sync_bn()
                        checkpointer.on_batch(
                            self, rng, epoch=epoch, next_start=start + batch,
                            perm=perm, sums=sums, n_batches=n_batches,
                            history=history, n_rows=n,
                        )
                if n_batches == 0:
                    raise RuntimeError(
                        f"batch size {batch} too large for {n} records"
                    )
                means = sums / n_batches
                losses = EpochLosses(*[float(v) for v in means])
                history.append(losses)
                if on_epoch_end is not None:
                    on_epoch_end(epoch, losses)
                if checkpointer is not None:
                    self._sync_bn()
                    checkpointer.on_epoch(self, rng, epoch=epoch,
                                          history=history, n_rows=n)
            self._sync_bn()
        except BaseException as exc:
            # The traceback's frames pin the last batch's row/latent views
            # — slices of the shared segments — in their locals.  Release
            # them so the teardown below can actually unmap the segments.
            traceback.clear_frames(exc.__traceback__)
            raise
        finally:
            self._shutdown_workers()
            self._teardown_shared()
            self._executor = None
            if blas_threads is not None:
                set_blas_threads(blas_threads)

        history.final_l_mean = self.stats.l_mean
        history.final_l_sd = self.stats.l_sd
        return history
