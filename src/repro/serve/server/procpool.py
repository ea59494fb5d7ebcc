"""Multi-process synthesis: per-core model workers over a shared-memory pool.

The threaded :class:`~repro.serve.service.SynthesisService` caps aggregate
throughput at roughly one core of generator work: every forward pass runs
under the parent's GIL.  This module promotes the pool to **one model
worker process per core** while keeping every serving contract intact:

* the record stream stays a single seeded stream, bit-identical to the
  threaded service — the front end draws latent vectors **centrally** in
  block order from one RNG (latent consumption is chunk-size invariant,
  so the stream does not depend on how generation is partitioned), and
  workers only run the deterministic latents → records → decode pipeline;
* responses remain contiguous disjoint slices in admission order —
  claims serialize under the front end's pool lock exactly as before;
* pooled rows are produced once and served **zero-copy**: decoded rows
  live in a ``multiprocessing.shared_memory`` ring and pool hits return
  read-only views of it.

Dataflow::

    front end (threads)                      worker processes (one/core)
    ───────────────────                      ───────────────────────────
    rng ──draw z for block k──▶ latent ring ──▶ load model from registry
    task queue (k, trace ctx) ─────────────▶    records_from_latents
    decoded ring ◀──────write slot k % S────    codec.decode
    result queue ◀──("done", rank, k, …)───     (own queue per worker)

The ring holds ``S`` blocks of ``B = batch_rows`` rows; block ``k`` lives
in slot ``k % S``, so stream row ``r`` sits at ring row ``r % (S*B)``.  A
slot is recycled (its successor block tasked) only once its tenant block
is fully generated, fully claimed, copied out by every in-flight
:meth:`WorkerPoolService.take_block`, and free of zero-copy leases — the
same "rows are handed out exactly once, in stream order" guarantee the
threaded pool provides.

Fault tolerance mirrors the PR 6 contract: a killed worker's in-flight
blocks are re-tasked to surviving workers **from the same latents still
in the ring**, so the regenerated bytes are identical and the retry is
transparent; the worker is respawned with exponential backoff, and too
many consecutive crashes fail the service, which surfaces through the
batcher's existing retry → quarantine → reload machinery.  Telemetry
crosses the process boundary: the task carries the submitting trace
context, workers arm their own tracer on the shared JSONL sink, and
worker-reported stage seconds feed the parent's :class:`PhaseProfile`
plus per-worker metrics series.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from multiprocessing import get_context, shared_memory

import numpy as np

from repro.data.schema import TableSchema
from repro.data.table import Table
from repro.obs import trace
from repro.obs.profile import PhaseProfile
from repro.serve.service import ServiceStats
from repro.utils.faults import fault_point
from repro.utils.rng import ensure_rng
from repro.utils.threads import budget_blas_threads


class WorkerPoolError(RuntimeError):
    """The worker pool can no longer produce the record stream."""


#: Monotonic suffix so two services in one process get distinct segment
#: names.  Names are recognizable (``rpool<pid>_<seq>``) so the hygiene
#: test — and an operator — can spot leaked ``/dev/shm`` segments.
_SEGMENT_SEQ = 0
_SEGMENT_LOCK = threading.Lock()


def _segment_name(tag: str) -> str:
    global _SEGMENT_SEQ
    with _SEGMENT_LOCK:
        _SEGMENT_SEQ += 1
        return f"rpool{os.getpid()}_{_SEGMENT_SEQ}{tag}"


def _create_segment(tag: str, nbytes: int) -> shared_memory.SharedMemory:
    while True:
        name = _segment_name(tag)
        try:
            return shared_memory.SharedMemory(name=name, create=True,
                                              size=max(1, nbytes))
        except FileExistsError:  # stale leftover with our counter's name
            continue


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a named segment without adopting unlink responsibility.

    Python 3.13 grew ``track=False`` for exactly this.  On 3.11/3.12 the
    attach re-registers the name with the (shared) resource tracker,
    which is an idempotent no-op; the parent's explicit ``unlink()`` at
    close unregisters it exactly once.  The tracker also doubles as the
    hygiene backstop: if the parent dies without closing, it unlinks the
    leftover ``/dev/shm`` entries at shutdown.
    """
    try:
        return shared_memory.SharedMemory(name=name, create=False,
                                          track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name, create=False)


def _unlink_quietly(shm: shared_memory.SharedMemory) -> None:
    # Unlink FIRST: it removes the /dev/shm entry even while views are
    # live.  close() may then legitimately fail with BufferError if a
    # zero-copy response is still being rendered; the mapping goes away
    # when the last view does.
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
    try:
        shm.close()
    except BufferError:
        pass


def _pool_worker_main(rank, workers, registry_root, ref, dec_name, lat_name,
                      slots, block_rows, batch_rows, n_features, latent_dim,
                      task_q, result_q, trace_log, quality_cfg=None):
    """One model worker: drain ``task_q``, generate blocks into the ring.

    Module-level (spawn-picklable).  Loads its own copy of the model from
    the registry, so the parent never holds generator weights in the
    multi-process mode.

    ``quality_cfg`` is ``(col_min, col_max, bins)`` when the parent runs a
    quality monitor: the worker then computes a stats-only sketch of each
    decoded block (bin edges aligned with the parent's) and ships it in the
    ``"done"`` result, where the parent folds it — the PR 9 metric-folding
    pattern.  A crashing sketch ships ``None`` and the block still lands.
    """
    # The forked child inherits the parent's Tracer object — its lock may
    # be held by a parent thread and its file handle is shared.  Drop the
    # global directly (disarm() would close the shared handle mid-flush)
    # and arm a private sink on the same JSONL path: O_APPEND +
    # line-buffered writes keep records whole across processes.
    trace._TRACER = None
    if trace_log:
        trace.arm(str(trace_log))
    # The pool's workers share the cores: each takes its share of BLAS
    # threads (the threaded tier's single process keeps the default).
    budget_blas_threads(workers)
    dec_shm = _attach_segment(dec_name)
    lat_shm = _attach_segment(lat_name)
    try:
        dec = np.frombuffer(
            dec_shm.buf, dtype=np.float64,
            count=slots * block_rows * n_features,
        ).reshape(slots * block_rows, n_features)
        lat = np.frombuffer(
            lat_shm.buf, dtype=np.float64,
            count=slots * block_rows * latent_dim,
        ).reshape(slots, block_rows, latent_dim)
        from repro.serve.registry import ModelRegistry
        try:
            model = ModelRegistry(registry_root).load(ref)
            sampler = model.record_sampler()
        except Exception as exc:
            result_q.put(("fatal", rank,
                          f"loading {ref!r}: {type(exc).__name__}: {exc}"))
            return
        if quality_cfg is not None:
            from repro.obs.quality import TableSketch
            q_lo, q_hi, q_bins = quality_cfg
        while True:
            task = task_q.get()
            if task is None:
                break
            k, ctx = task
            slot = k % slots
            try:
                # The chaos seam: armed plans are inherited across fork,
                # so a test can make the Nth block of a specific worker
                # raise (error/retry path) or SystemExit (crash path).
                fault_point("pool.block")
                with trace.attach(ctx):
                    t0 = time.perf_counter()
                    with trace.span("worker.generate", block=k, rank=rank,
                                    rows=block_rows):
                        encoded = sampler.records_from_latents(
                            lat[slot], batch_size=batch_rows)
                    t1 = time.perf_counter()
                    with trace.span("worker.decode", block=k, rank=rank):
                        decoded = sampler.codec.decode(encoded).values
                    t2 = time.perf_counter()
                dec[slot * block_rows:(slot + 1) * block_rows] = decoded
                sketch = None
                if quality_cfg is not None:
                    # Observe-only quality sketch; isolated so a broken
                    # sketch (or the armed quality.tap seam) can never
                    # fail the block — the sample stream always wins.
                    try:
                        fault_point("quality.tap")
                        sk = TableSketch(sampler.codec.schema_, q_lo, q_hi,
                                         bins=q_bins, reservoir_rows=0)
                        sk.update(decoded)
                        sketch = sk.to_payload(arrays=True)
                    except BaseException:
                        sketch = None
                result_q.put(("done", rank, k, t1 - t0, t2 - t1, sketch))
            except Exception as exc:
                result_q.put(("error", rank, k,
                              f"{type(exc).__name__}: {exc}"))
    finally:
        del dec, lat
        try:
            dec_shm.close()
            lat_shm.close()
        except (BufferError, UnboundLocalError):
            pass
        if trace_log:
            trace.disarm()


class WorkerPoolService:
    """Drop-in for :class:`SynthesisService` backed by worker processes.

    Exposes the same surface the batcher/router/HTTP stack drives —
    ``take_block`` / ``take_pooled`` / ``replenish``, ``pooled_rows`` /
    ``stream_position`` / ``schema``, ``stats`` / ``profile`` — so the
    coalescing batcher, crash supervision, and telemetry all apply
    unchanged; only row *production* moves out of process.

    Parameters
    ----------
    registry:
        The :class:`ModelRegistry` workers load the model from.
    ref:
        Model reference (pass the canonical ``name@version`` so respawned
        workers can never resolve a newer registration mid-stream).
    workers:
        Worker processes for this model (the per-model concurrency
        weight).
    pool_size, batch_rows, seed:
        As in the threaded service.  ``batch_rows`` doubles as the block
        size ``B``; the ring rounds ``pool_size`` up to whole blocks and
        at least ``workers + 2`` slots so every worker can generate ahead.
    """

    def __init__(self, registry, ref: str, *, workers: int = 2,
                 pool_size: int = 1024, batch_rows: int = 2048, seed=None,
                 start_method: str | None = None, trace_log=None,
                 metrics_registry=None, name: str | None = None,
                 max_restarts: int = 3, restart_backoff_s: float = 0.05,
                 block_retries: int = 2, quality=None):
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if batch_rows <= 0:
            raise ValueError(f"batch_rows must be positive, got {batch_rows}")
        if pool_size < 0:
            raise ValueError(f"pool_size must be non-negative, got {pool_size}")
        manifest = registry.manifest(ref)
        if manifest.get("kind") != "tablegan":
            raise ValueError(
                f"model {ref!r} has kind {manifest.get('kind')!r}; the "
                "worker pool serves single-generator models only"
            )
        self._registry_root = str(registry.root)
        self.ref = ref
        self.name = name if name is not None else ref
        self.workers = workers
        self.batch_rows = batch_rows
        self._schema = TableSchema.from_dict(manifest["schema"])
        self.n_features = int(manifest["n_features"])
        self.latent_dim = int(manifest["config"]["latent_dim"])
        self._B = batch_rows
        self._S = max(-(-max(pool_size, 1) // batch_rows), workers + 2)
        self._ring_rows = self._S * self._B
        #: Effective pool capacity — what replenish-ahead steers toward.
        self.pool_size = self._ring_rows
        self._rng = ensure_rng(seed)
        self.stats = ServiceStats()
        self.profile = PhaseProfile()
        self._trace_log = str(trace_log) if trace_log else None
        # Quality monitor (observe-only): workers sketch each block with
        # bin edges matching the monitor's; the collector folds them here.
        self.quality = quality
        self._quality_cfg = quality.worker_config() if quality else None
        self.max_restarts = max_restarts
        self.restart_backoff_s = restart_backoff_s
        self.block_retries = block_retries

        # Shared rings: decoded rows (what responses serve) and the
        # centrally drawn latents (what makes re-generation bit-exact).
        self._dec_shm = _create_segment(
            "d", self._ring_rows * self.n_features * 8)
        self._lat_shm = _create_segment(
            "z", self._ring_rows * self.latent_dim * 8)
        self._dec = np.frombuffer(
            self._dec_shm.buf, dtype=np.float64,
            count=self._ring_rows * self.n_features,
        ).reshape(self._ring_rows, self.n_features)
        self._lat = np.frombuffer(
            self._lat_shm.buf, dtype=np.float64,
            count=self._ring_rows * self.latent_dim,
        ).reshape(self._S, self._B, self.latent_dim)

        # Stream/ring state, all under one condition.
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._head = 0              # next stream row to claim
        self._ready_mark = 0        # blocks < mark are generated (contiguous)
        self._ready_blocks: set[int] = set()   # generated beyond the mark
        self._next_block = 0        # next block index to task
        self._retask: set[int] = set()         # blocks to re-dispatch
        self._attempts: dict[int, int] = {}    # per-block generation tries
        self._leases = [0] * self._S           # zero-copy views per slot
        self._pending_copies: list[list[int]] = []  # [cursor, end] per claim
        self._failed: WorkerPoolError | None = None
        self._closing = False
        self._closed = False
        self._consecutive_crashes = 0
        self.crashes = 0
        self.restarts = 0

        self._metrics = metrics_registry
        if metrics_registry is not None:
            label = self.name
            self._m_crashes = metrics_registry.counter(
                "pool_worker_crashes_total",
                "Serving worker processes that died",
            ).labels(model=label)
            self._m_restarts = metrics_registry.counter(
                "pool_worker_restarts_total",
                "Serving worker processes respawned after a crash",
            ).labels(model=label)
            self._m_failures = metrics_registry.counter(
                "pool_block_failures_total",
                "Pool blocks whose generation attempt failed",
            ).labels(model=label)
            self._g_alive = metrics_registry.gauge(
                "pool_workers_alive",
                "Live serving worker processes",
            ).labels(model=label)
            self._f_blocks = metrics_registry.counter(
                "pool_blocks_generated_total",
                "Pool blocks generated, per worker process",
            )
        else:
            self._m_crashes = self._m_restarts = None
            self._m_failures = self._g_alive = self._f_blocks = None

        method = start_method or "fork"
        self._ctx = get_context(method)
        self.start_method = method
        self._result_q = self._ctx.Queue()
        self._procs: list = [None] * workers
        self._task_qs: list = [None] * workers
        self._assigned: list[set[int]] = [set() for _ in range(workers)]
        self.worker_pids: list[int | None] = [None] * workers
        try:
            for rank in range(workers):
                self._spawn(rank)
        except BaseException:
            self.close()
            raise
        self._stop = threading.Event()
        self._collector = threading.Thread(
            target=self._collect_forever,
            name=f"pool-collector-{self.name}", daemon=True)
        self._collector.start()

    # ------------------------------------------------------------------
    # Worker lifecycle.
    # ------------------------------------------------------------------
    def _spawn(self, rank: int) -> None:
        q = self._ctx.SimpleQueue()
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(rank, self.workers, self._registry_root, self.ref,
                  self._dec_shm.name, self._lat_shm.name, self._S, self._B,
                  self.batch_rows, self.n_features, self.latent_dim, q,
                  self._result_q, self._trace_log, self._quality_cfg),
            name=f"pool-{self.name}-{rank}", daemon=True)
        proc.start()
        self._task_qs[rank] = q
        self._procs[rank] = proc
        self.worker_pids[rank] = proc.pid
        if self._g_alive is not None:
            self._g_alive.set(self.alive_workers)

    @property
    def alive_workers(self) -> int:
        return sum(1 for p in self._procs if p is not None and p.is_alive())

    def _collect_forever(self) -> None:
        """Drain worker results; supervise crashes and respawns."""
        import queue as _queue
        backoff = self.restart_backoff_s
        while not self._stop.is_set():
            try:
                msg = self._result_q.get(timeout=0.05)
            except (_queue.Empty, OSError, EOFError):
                msg = None
            if msg is not None:
                self._handle_result(msg)
                continue
            # Liveness sweep: a SIGKILL'd worker never reports.
            dead = []
            for rank, proc in enumerate(self._procs):
                if proc is not None and not proc.is_alive():
                    dead.append(rank)
            if not dead:
                backoff = self.restart_backoff_s
                continue
            for rank in dead:
                self._handle_crash(rank)
            if self._failed is not None or self._stop.is_set():
                continue
            # Interruptible exponential backoff before the respawn —
            # a crash-looping model must not spin a core.
            self._stop.wait(backoff)
            backoff = min(backoff * 2, 1.0)
            if self._stop.is_set():
                break
            with self._cond:
                if self._failed is not None:
                    continue
                for rank in dead:
                    self.restarts += 1
                    if self._m_restarts is not None:
                        self._m_restarts.inc()
                    self._spawn(rank)
                self._pump_locked()
                self._cond.notify_all()

    def _handle_result(self, msg) -> None:
        kind = msg[0]
        if kind == "done":
            _, rank, k, gen_s, dec_s, sketch = msg
            with self._cond:
                self._assigned[rank].discard(k)
                already = (k < self._ready_mark or k in self._ready_blocks)
                if not already:
                    self._ready_blocks.add(k)
                    while self._ready_mark in self._ready_blocks:
                        self._ready_blocks.discard(self._ready_mark)
                        self._ready_mark += 1
                    self._retask.discard(k)
                    self._attempts.pop(k, None)
                    self.stats.rows_generated += self._B
                    self.stats.generator_calls += 1
                    self.profile.add("generate", gen_s)
                    self.profile.add("decode", dec_s)
                    if self.quality is not None:
                        # Fold exactly once per stream block (the dedup
                        # above covers re-tasked duplicates); the monitor
                        # reservoir-samples the rows still in the ring.
                        slot = k % self._S
                        self.quality.fold(
                            sketch,
                            rows=self._dec[slot * self._B:
                                           (slot + 1) * self._B])
                    if self._f_blocks is not None:
                        self._f_blocks.labels(
                            model=self.name, worker=str(rank)).inc()
                self._consecutive_crashes = 0
                self._pump_locked()
                self._cond.notify_all()
        elif kind == "error":
            _, rank, k, detail = msg
            trace.log_event("pool.block_error", model=self.name, rank=rank,
                            block=k, error=detail)
            with self._cond:
                self._assigned[rank].discard(k)
                if self._m_failures is not None:
                    self._m_failures.inc()
                if k < self._ready_mark or k in self._ready_blocks:
                    pass  # a duplicate attempt failed after the block landed
                else:
                    tries = self._attempts.get(k, 0) + 1
                    self._attempts[k] = tries
                    if tries > self.block_retries:
                        self._fail_locked(
                            f"block {k} failed {tries} times: {detail}")
                    else:
                        self._retask.add(k)
                        self._pump_locked()
                self._cond.notify_all()
        elif kind == "fatal":
            _, rank, detail = msg
            trace.log_event("pool.worker_fatal", model=self.name, rank=rank,
                            error=detail)
            with self._cond:
                self._fail_locked(f"worker {rank}: {detail}")
                self._cond.notify_all()

    def _handle_crash(self, rank: int) -> None:
        proc = self._procs[rank]
        exitcode = proc.exitcode if proc is not None else None
        self._procs[rank] = None
        self._task_qs[rank] = None  # queued tasks die with the process
        self.worker_pids[rank] = None
        self.crashes += 1
        if self._m_crashes is not None:
            self._m_crashes.inc()
        trace.log_event("pool.worker_crash", model=self.name, rank=rank,
                        exitcode=exitcode)
        with self._cond:
            if self._g_alive is not None:
                self._g_alive.set(self.alive_workers)
            # Blocks the dead worker held regenerate from the same
            # latents still in the ring — the retry is bit-exact.
            for k in self._assigned[rank]:
                if k < self._ready_mark or k in self._ready_blocks:
                    continue
                tries = self._attempts.get(k, 0) + 1
                self._attempts[k] = tries
                if tries > self.block_retries:
                    self._fail_locked(f"block {k} lost to {tries} crashes")
                else:
                    self._retask.add(k)
            self._assigned[rank] = set()
            self._consecutive_crashes += 1
            if self._consecutive_crashes > self.max_restarts:
                self._fail_locked(
                    f"{self._consecutive_crashes} consecutive worker "
                    f"crashes (limit {self.max_restarts})")
            self._pump_locked()
            self._cond.notify_all()

    def _fail_locked(self, why: str) -> None:
        if self._failed is None:
            self._failed = WorkerPoolError(
                f"worker pool for {self.name!r} failed: {why}")
            trace.log_event("pool.failed", model=self.name, why=why)

    # ------------------------------------------------------------------
    # Task pump (callers hold the lock).
    # ------------------------------------------------------------------
    def _alive_ranks(self) -> list[int]:
        return [r for r, p in enumerate(self._procs)
                if p is not None and p.is_alive()]

    def _block_ready_locked(self, k: int) -> bool:
        return k < self._ready_mark or k in self._ready_blocks

    def _block_pinned_locked(self, p: int) -> bool:
        """Is tenant block ``p`` still being produced, read, or copied?"""
        if p in self._retask or any(p in a for a in self._assigned):
            return True  # a (possibly duplicate) generation is in flight
        if self._leases[p % self._S]:
            return True
        lo, hi = p * self._B, (p + 1) * self._B
        if self._head < hi:
            return True  # not fully claimed yet
        for cursor_end in self._pending_copies:
            if cursor_end[0] < hi and cursor_end[1] > lo:
                return True  # an in-flight take_block hasn't copied it out
        return False

    def _dispatch_locked(self, k: int, alive: list[int]) -> None:
        rank = alive[k % len(alive)]
        ctx = trace.current()
        self._task_qs[rank].put((k, ctx))
        self._assigned[rank].add(k)

    def _pump_locked(self) -> None:
        """Issue every block the ring currently has room for."""
        if self._failed is not None or self._closing:
            return
        alive = self._alive_ranks()
        if not alive:
            return
        for k in sorted(self._retask):
            self._retask.discard(k)
            self._dispatch_locked(k, alive)
        while True:
            k = self._next_block
            if k >= self._S:
                p = k - self._S
                if not self._block_ready_locked(p):
                    break
                if self._block_pinned_locked(p):
                    break
            # Latents draw in strict block order from the single seeded
            # stream — this is the whole determinism story.
            self._lat[k % self._S][...] = self._rng.uniform(
                -1.0, 1.0, size=(self._B, self.latent_dim))
            self._attempts.setdefault(k, 0)
            self._next_block = k + 1
            self._dispatch_locked(k, alive)

    # ------------------------------------------------------------------
    # The SynthesisService surface.
    # ------------------------------------------------------------------
    @property
    def schema(self):
        return self._schema

    @property
    def pooled_rows(self) -> int:
        with self._lock:
            return max(0, self._ready_mark * self._B - self._head)

    @property
    def stream_position(self) -> int:
        with self._lock:
            return self._head

    @property
    def health(self) -> str:
        with self._lock:
            if self._failed is not None or self._closing:
                return "dead"
            return "ok" if self.alive_workers == self.workers else "degraded"

    def worker_info(self) -> dict:
        with self._lock:
            return {
                "workers": self.workers,
                "alive": self.alive_workers,
                "pids": [pid for pid in self.worker_pids if pid],
                "crashes": self.crashes,
                "restarts": self.restarts,
                "ring_slots": self._S,
                "block_rows": self._B,
                "start_method": self.start_method,
            }

    def replenish(self, target: int | None = None) -> int:
        """Task every block the ring has room for; returns rows tasked."""
        with self._cond:
            if self._failed is not None or self._closing:
                return 0
            before = self._next_block
            self._pump_locked()
            return (self._next_block - before) * self._B

    def _check_locked(self) -> None:
        if self._failed is not None:
            raise self._failed
        if self._closing:
            raise WorkerPoolError(f"worker pool for {self.name!r} is closed")

    def _copy_rows_locked(self, out: np.ndarray, base: int, lo: int,
                          hi: int) -> None:
        """Copy stream rows [lo, hi) out of the ring (wrap-aware)."""
        cursor = lo
        while cursor < hi:
            o = cursor % self._ring_rows
            chunk = min(hi - cursor, self._ring_rows - o)
            out[cursor - base:cursor - base + chunk] = self._dec[o:o + chunk]
            cursor += chunk

    def take_block(self, counts) -> tuple[list[np.ndarray], int]:
        """Decoded value blocks for a request batch, plus stream offset.

        Claims the next ``sum(counts)`` stream rows atomically (so the
        batch is contiguous and in admission order), then copies rows out
        of the ring as workers land them.  Copies happen under the pool
        lock and the claim registers a pending-copy range, so a slot can
        never be recycled under a reader.
        """
        counts = [int(c) for c in counts]
        if not counts:
            with self._lock:
                return [], self._head
        if any(c <= 0 for c in counts):
            raise ValueError(f"every request must be positive, got {counts}")
        total = sum(counts)
        with trace.span("service.take_block", rows=total,
                        requests=len(counts)):
            out = np.empty((total, self.n_features), dtype=np.float64)
            with self._cond:
                self._check_locked()
                base = self._head
                self._head += total
                self.stats.requests += len(counts)
                self.stats.rows_served += total
                claim = [base, base + total]
                self._pending_copies.append(claim)
                try:
                    self._pump_locked()
                    while claim[0] < base + total:
                        avail = min(self._ready_mark * self._B, base + total)
                        if avail > claim[0]:
                            self._copy_rows_locked(out, base, claim[0], avail)
                            claim[0] = avail
                            # Copied rows may free slots for the pump.
                            self._pump_locked()
                            self._cond.notify_all()
                            continue
                        self._check_locked()
                        self._cond.wait(0.5)
                finally:
                    self._pending_copies.remove(claim)
                    self._cond.notify_all()
        offsets = np.cumsum(counts[:-1])
        return list(np.split(out, offsets, axis=0)), base

    def take_pooled(self, n: int) -> tuple[np.ndarray, int] | None:
        """The next ``n`` decoded rows IF already pooled — zero-copy.

        Returns a **read-only view** of the shared ring when the claimed
        range is contiguous in ring memory; the overlapped slots are
        leased until the view is garbage collected, so the rows cannot be
        overwritten while a handler renders them.  A range that wraps the
        ring end is served as a copy (still a pool hit).  Returns ``None``
        when the rows are not pooled yet — this path never waits.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        with trace.span("service.take_pooled", rows=n) as sp:
            with self._cond:
                if (self._failed is not None or self._closing
                        or self._ready_mark * self._B - self._head < n):
                    sp.set(hit=False)
                    return None
                base = self._head
                o = base % self._ring_rows
                if o + n <= self._ring_rows:
                    values = self._dec[o:o + n]
                    values.setflags(write=False)
                    slots = tuple(range(o // self._B,
                                        (o + n - 1) // self._B + 1))
                    for s in slots:
                        self._leases[s] += 1
                    weakref.finalize(values, self._release_slots, slots)
                else:
                    values = np.empty((n, self.n_features), dtype=np.float64)
                    self._copy_rows_locked(values, base, base, base + n)
                self._head += n
                self.stats.pool_hits += 1
                self.stats.requests += 1
                self.stats.rows_served += n
                self._pump_locked()
                self._cond.notify_all()
            sp.set(hit=True)
            return values, base

    def _release_slots(self, slots) -> None:
        with self._cond:
            for s in slots:
                self._leases[s] -= 1
            if not self._closing and self._failed is None:
                self._pump_locked()
            self._cond.notify_all()

    # Convenience single-request entry points (parity with the threaded
    # service; the server always goes through take_block/take_pooled).
    def sample_records(self, n: int) -> np.ndarray:
        raise NotImplementedError(
            "the worker pool serves decoded rows only; use sample()")

    def sample(self, n: int) -> Table:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        blocks, _ = self.take_block([n])
        return Table(blocks[0], self._schema)

    def sample_many(self, counts) -> list[Table]:
        if not len(counts):
            return []
        blocks, _ = self.take_block(counts)
        return [Table(block, self._schema) for block in blocks]

    # ------------------------------------------------------------------
    # Teardown.
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop workers, join the collector, unlink the shared rings.

        Idempotent; safe on a half-constructed service.  Unlink happens
        before close so the ``/dev/shm`` entries disappear even if a
        zero-copy response view is still alive somewhere.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._closing = True
            self._cond.notify_all()
        stop = getattr(self, "_stop", None)
        if stop is not None:
            stop.set()
        collector = getattr(self, "_collector", None)
        if collector is not None and collector.is_alive():
            collector.join(timeout=5.0)
        for q in self._task_qs:
            if q is not None:
                try:
                    q.put(None)
                except (OSError, ValueError):
                    pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        if self._g_alive is not None:
            self._g_alive.set(0)
        try:
            self._result_q.close()
        except (OSError, ValueError):
            pass
        # Drop our ring views before unlinking so close() can succeed
        # whenever no response views remain.
        self._dec = None
        self._lat = None
        _unlink_quietly(self._dec_shm)
        _unlink_quietly(self._lat_shm)

    def __del__(self):  # last-resort hygiene; close() is the real path
        try:
            self.close()
        except Exception:
            pass
