"""Data-parallel Algorithm 2: a round's gradient shards across processes.

:class:`ParallelTrainer` runs the one Algorithm 2 loop of
:mod:`repro.core.trainer` with ``grad_shards`` gradient shards per global
batch, computed by ``workers`` processes.  Its result is **bit-identical
for every worker count**, because it is a pure function of a *shard
decomposition* that does not mention workers at all:

1.  Every global batch is split into ``grad_shards`` fixed row ranges
    (:func:`~repro.core.trainer.shard_bounds`).  Workers own shards
    round-robin, but nothing a worker computes depends on *which* worker
    owns a shard: a shard whose forward caches another shard overwrote
    gets them rebuilt, and the rebuild emits no BatchNorm event
    (:class:`~repro.core.trainer.ShardOps`).
2.  Each shard's gradient is published, pre-weighted by its share of the
    global batch, into a per-shard slot.  The master reduces the slots
    **in shard-index order**
    (:meth:`~repro.nn.flatbuf.FlatParameterBuffer.reduce_grads`) —
    floating-point addition is not associative, so the fixed order is
    what makes the sum independent of worker arrival order — and steps
    the fused Adam once per schedule op.
3.  With more than one process, network parameters live in shared-memory
    segments (:meth:`~repro.nn.flatbuf.FlatParameterBuffer.rebind_storage`),
    so the master's optimizer step *is* the weight broadcast: every
    process aliases the same bytes.
4.  Order-dependent EWMA state never updates concurrently.  Across
    processes, every BatchNorm batch statistic goes to a per-layer tap
    (``BatchNorm.stats_tap``) instead of the running statistics, feature
    mean/sd vectors ship with the round results, and the master replays
    both into one canonical stream in (round, shard) order.  In one
    process the layers fold the same events in that order directly.
5.  All randomness (epoch shuffles, latent draws) happens on the master's
    single generator, exactly as in the serial loop.

With more than one process, every process computes shards on
``max(1, cores // workers)`` BLAS threads (:mod:`repro.utils.threads`):
the workers from their start, the master for the duration of
:meth:`ParallelTrainer.train`, after which its previous count is
restored.  The thread count changes no result bit.

Per synchronization round (:meth:`UpdateSchedule.rounds`) the master
broadcasts one command, every process computes its shards, the master
collects results, reduces, steps, and replays statistics.  A worker that
dies mid-round can therefore never contribute a partial gradient: the
master detects the dead process (or an injected fault at the
``parallel.reduce`` seam) while *collecting*, before any reduce of that
round completes on its behalf, and fails the epoch loudly with
:class:`ParallelTrainingError`.  Combined with
:class:`~repro.core.checkpoint.TrainerCheckpointer` — whose fingerprint
includes the shard count and schedule but *not* the worker count — a
crashed run resumes bit-exactly under any worker count.

**One shard is the serial trainer.**  With ``grad_shards=1`` a run is
bit-identical to :class:`~repro.core.trainer.TableGanTrainer` — weights,
BatchNorm running statistics, EWMA statistics and loss history — at any
worker count, and the two resume each other's checkpoints.  More shards
change the numbers (per-shard BatchNorm batch statistics, per-shard loss
normalization, the ordered float sum), so an S-shard run reproduces
itself under every worker count, not the serial run.  A run in one
process allocates no shared memory and starts no process.
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
from repro.core.schedule import UpdateSchedule
from repro.core.trainer import ShardOps, TableGanTrainer, TrainingHistory
from repro.nn import Sequential
from repro.utils.faults import fault_point
from repro.utils.threads import budget_blas_threads, set_blas_threads


class ParallelTrainingError(RuntimeError):
    """Data-parallel training failed loudly (dead worker, injected fault,
    round timeout).  No partial gradient has been applied: the master
    aborts a round before reducing on behalf of a missing shard."""


class _ShardExecutor(ShardOps):
    """:class:`~repro.core.trainer.ShardOps` that publishes each shard's
    gradient into its reduce slot and, across processes, records each
    shard's BatchNorm events for the master's replay."""

    def _publish(self, shard: int, tag: str, weight: float) -> None:
        """Write this shard's (pre-weighted) gradient into its slot.

        The ``parallel.reduce`` fault seam sits here: an injected fault
        makes a shard fail *before* its gradient is visible, which the
        chaos tests use to prove the epoch dies loudly instead of
        stepping on partial sums.
        """
        fault_point("parallel.reduce")
        self.t._flats[tag].export_grads(self.t._grad_views[shard][tag],
                                        scale=weight)

    def _run_shard(self, shard, ops, real, z, weight) -> dict:
        if self.t._n_procs == 1:
            return super()._run_shard(shard, ops, real, z, weight)
        layers = [layer for per_net in self._bn.values() for layer in per_net]
        for layer in layers:
            layer.stats_tap = []
        try:
            results = super()._run_shard(shard, ops, real, z, weight)
            results["bn"] = {tag: [layer.stats_tap for layer in per_net]
                             for tag, per_net in self._bn.items()}
        finally:
            for layer in layers:
                layer.stats_tap = None
        return results


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
        0).  Capped at ``grad_shards``; one process runs every shard
        in-process through the identical code path, without shared memory.
    grad_shards:
        The fixed number of gradient shards per global batch.  This — not
        the worker count — is what changes the numbers; it participates
        in the checkpoint fingerprint, and the global batch must hold at
        least this many rows.  One shard is the serial trainer.
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
    # Buffers: shared memory across processes, private memory in one.
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

    def _buffers(self, specs) -> list[np.ndarray]:
        """One 1-D array per ``(dtype, size)`` spec: views into one shared
        segment when workers will fork, private arrays otherwise."""
        if self._n_procs == 1:
            return [np.empty(size, dtype=dtype) for dtype, size in specs]
        segment = self._alloc_segment(
            sum(size * dtype.itemsize for dtype, size in specs))
        views, offset = [], 0
        for dtype, size in specs:
            views.append(np.frombuffer(segment.buf, dtype=dtype, count=size,
                                       offset=offset))
            offset += size * dtype.itemsize
        return views

    def _open_rounds(self, matrices: np.ndarray, batch: int) -> ShardOps:
        if batch < self.grad_shards:
            raise ParallelTrainingError(
                f"global batch of {batch} rows cannot carry "
                f"{self.grad_shards} gradient shards; lower --grad-shards "
                "or raise the batch size"
            )
        if self._n_procs > 1:
            # Parameters on shared memory: the master's optimizer step is
            # a zero-copy broadcast to every forked process.
            for flat in self._flats.values():
                flat.rebind_storage(
                    data_backing=self._buffers(flat.group_specs()))
            # The feature statistics the workers' ``g`` ops read.
            self._stats_arrays = self._buffers(
                [(np.dtype(np.float64), self.stats.fx_mean.size)] * 4)
            self._publish_stats()
        # Per-shard gradient slots: shard-indexed so the reduction order
        # is positional, independent of worker arrival order.
        self._grad_views = [
            {tag: self._buffers(flat.group_specs())
             for tag, flat in self._flats.items()}
            for _ in range(self.grad_shards)
        ]
        # The epoch's shuffled rows and the batch's latent draws, which
        # every process reads its shard rows from.
        latent_dim, dtype = self.config.latent_dim, np.dtype(self._dtype)
        epoch_rows, latent = self._buffers(
            [(matrices.dtype, matrices.size), (dtype, batch * latent_dim)])
        self._epoch_rows = epoch_rows.reshape(matrices.shape)
        self._latent = latent.reshape(batch, latent_dim)
        self._round_id = 0
        return _ShardExecutor(self, self._spawn_workers(), self.stats)

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
        if self._segments:
            # Move the parameters back onto private memory *before* the
            # segments go away — anything still viewing a closed segment
            # would fault on the next access.
            for flat in self._flats.values():
                flat.rebind_storage(data_backing=[
                    np.empty(size, dtype=dtype)
                    for dtype, size in flat.group_specs()
                ])
            # Layer forward caches hold views of the last batch — slices
            # of the shared epoch/latent segments.  Drop them so the
            # segments can actually unmap.
            for net in (self.generator, self.discriminator, self.classifier):
                if net is None:
                    continue
                net._activations = None
                for layer in net.layers:
                    for attr in ("_x", "_cache"):
                        if hasattr(layer, attr):
                            setattr(layer, attr, None)
        for name in ("_grad_views", "_epoch_rows", "_latent", "_stats_arrays"):
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
    def _spawn_workers(self) -> list[int]:
        """Fork the worker processes; return the shards the master owns."""
        self._cmd_queues = []
        self._procs = []
        if self._n_procs == 1:
            # One process runs every shard with zero multiprocessing
            # plumbing, so it works even where fork does not exist.
            self._result_queue = None
            return list(range(self.grad_shards))
        context = multiprocessing.get_context("fork")
        self._result_queue = context.Queue()
        owners = {
            rank: [s for s in range(self.grad_shards)
                   if s % self._n_procs == rank]
            for rank in range(self._n_procs)
        }
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
        return owners[0]

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
    # The round, across processes.
    # ------------------------------------------------------------------
    def _compute_round(self, executor: ShardOps, offset: int, rows: int,
                       ops, reuse_fake: bool) -> dict:
        """Broadcast the round, compute the master's shards, then gather
        the workers' shards and replay every shard's BatchNorm events."""
        self._round_id += 1
        command = ("round", self._round_id, offset, rows, ops, reuse_fake)
        for cmd_queue in self._cmd_queues:
            cmd_queue.put(command)
        results = super()._compute_round(executor, offset, rows, ops, reuse_fake)
        if self._n_procs > 1:
            t0 = time.perf_counter()
            for body in self._collect(self._round_id).values():
                results.update(body)
            t1 = time.perf_counter()
            self._replay_bn(executor, results)
            self.profile.add("reduce_wait", t1 - t0)
            self.profile.add("bn_replay", time.perf_counter() - t1)
        if sorted(results) != list(range(self.grad_shards)):
            raise ParallelTrainingError(
                f"round {self._round_id} covered shards {sorted(results)}, "
                f"expected 0..{self.grad_shards - 1}"
            )
        return results

    def _replay_bn(self, executor: ShardOps, results: dict) -> None:
        """Fold every shard's recorded BatchNorm events into the master's
        layers in shard order — one canonical stream, so the running
        statistics are a pure function of the shard decomposition."""
        for shard in range(self.grad_shards):
            for tag, per_layer in results[shard]["bn"].items():
                for layer, events in zip(executor._bn[tag], per_layer):
                    for mean, var in events:
                        layer.fold_running(mean, var)

    def _step(self, tag: str, opt) -> None:
        fault_point("parallel.reduce")
        t0 = time.perf_counter()
        self._flats[tag].reduce_grads(
            [views[tag] for views in self._grad_views])
        self.profile.add("reduce", time.perf_counter() - t0)
        super()._step(tag, opt)

    def _apply_round(self, ops, results: dict, rows: int,
                     losses: np.ndarray) -> None:
        super()._apply_round(ops, results, rows, losses)
        if "stats" in ops and self._n_procs > 1:
            self._publish_stats()

    def train(self, matrices: np.ndarray, rng=None,
              on_epoch_end=None, checkpointer=None) -> TrainingHistory:
        """Run Algorithm 2 over ``grad_shards`` shards per batch; see the
        module docstring.  Workers, shared memory and the BLAS thread
        budget live exactly as long as this call."""
        blas_threads = (budget_blas_threads(self._n_procs)
                        if self._n_procs > 1 else None)
        try:
            return super().train(matrices, rng=rng, on_epoch_end=on_epoch_end,
                                 checkpointer=checkpointer)
        except BaseException as exc:
            # The traceback's frames pin the last batch's row/latent views
            # — slices of the shared segments — in their locals.  Release
            # them so the teardown below can actually unmap the segments.
            traceback.clear_frames(exc.__traceback__)
            raise
        finally:
            self._shutdown_workers()
            self._teardown_shared()
            if blas_threads is not None:
                set_blas_threads(blas_threads)
