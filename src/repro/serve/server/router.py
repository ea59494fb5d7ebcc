"""Multi-model router: lazy per-model services with LRU eviction.

The server fronts a whole :class:`~repro.serve.registry.ModelRegistry`,
but a loaded model is not free — generator weights plus the service's
sample pool occupy real memory.  The router therefore instantiates one
:class:`~repro.serve.service.SynthesisService` (wrapped in its
:class:`~repro.serve.server.batcher.CoalescingBatcher`) per model **on
first request**, keeps the working set in an LRU map, and evicts the
least-recently-used idle model once the estimated resident footprint
exceeds ``memory_budget_bytes`` (or the entry count exceeds
``max_models``).  Busy models — anything with queued or in-flight
requests — are never evicted; if every resident model is busy the budget
is temporarily exceeded rather than serving a 500.

References resolve through the registry (``name`` → newest registration,
``name@version`` pinned), so two references to the same registration
share one service, one record stream, and one batcher.

Eviction ends that service's record stream: a model loaded again later
starts a fresh stream from the configured seed.  Offsets reported to
clients are therefore per *service instantiation* — the price of bounding
memory across many models.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict

from repro.core.tablegan import TableGAN
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import LatencyHistogram
from repro.serve.quality import STATUS_CODES, QualityMonitor
from repro.serve.registry import ModelRegistry
from repro.serve.server.batcher import CoalescingBatcher
from repro.serve.server.procpool import WorkerPoolService
from repro.serve.service import SynthesisService


class RouterClosed(RuntimeError):
    """The router is shut down (server draining) and routes no requests."""


class UnservableModelError(RuntimeError):
    """The registration exists but this server cannot sample from it."""


class ModelEntry:
    """One resident model: service + batcher + per-model metrics.

    ``ref_json``/``columns_json`` are the request-invariant fragments of
    every sample response, rendered once here so the handler's hot path
    only serializes the rows.
    """

    __slots__ = ("ref", "service", "batcher", "latency", "est_bytes",
                 "loaded_at", "ref_json", "columns_json", "quality")

    def __init__(self, ref: str, service,
                 batcher: CoalescingBatcher, est_bytes: int, quality=None):
        self.ref = ref
        self.service = service
        self.batcher = batcher
        self.latency = LatencyHistogram()
        self.est_bytes = est_bytes
        self.loaded_at = time.time()
        self.ref_json = json.dumps(ref)
        self.columns_json = json.dumps(list(service.schema.names),
                                       separators=(",", ":"))
        self.quality = quality

    @property
    def health(self) -> str:
        """Worst of batcher and service health (the service has its own
        state machine only in the multi-process mode)."""
        states = [self.batcher.health]
        service_health = getattr(self.service, "health", None)
        if service_health is not None:
            states.append(service_health)
        for level in ("dead", "degraded"):
            if level in states:
                return level
        return "ok"

    def metrics(self) -> dict:
        data = {
            "stats": self.service.stats.as_dict(),
            "supervision": self.batcher.supervision(),
            "queue_depth": self.batcher.queue_depth,
            "batch_ticks": self.batcher.ticks,
            "pooled_rows": self.service.pooled_rows,
            "stream_position": self.service.stream_position,
            "est_bytes": self.est_bytes,
            "loaded_at": self.loaded_at,
            "latency": self.latency.summary(),
            "queue_wait": self.batcher.queue_wait_summary(),
            "stages": self.service.profile.snapshot(),
        }
        # Multi-process pools also report worker supervision: crashes,
        # restarts, and per-worker liveness, aggregated for /metrics.
        worker_info = getattr(self.service, "worker_info", None)
        if worker_info is not None:
            data["workers"] = worker_info()
        if self.quality is not None:
            data["quality"] = self.quality.summary()
        return data

    def close(self) -> None:
        """Batcher first (drains admitted work), then the service (which
        joins worker processes and unlinks shared memory in the
        multi-process mode)."""
        self.batcher.close()
        close = getattr(self.service, "close", None)
        if close is not None:
            close()


def _estimate_bytes(service, pool_size: int) -> int:
    """Rough resident footprint: generator parameters + pool high-water."""
    if isinstance(service, WorkerPoolService):
        # The parent holds no weights in the multi-process mode — its
        # footprint is the shared decoded + latent rings (worker-side
        # copies of the model live in other processes' budgets).
        return int(service.pool_size * 8
                   * (service.n_features + service.latent_dim))
    generator = service.sampler.generator
    param_bytes = sum(p.data.nbytes for p in generator.parameters())
    n_features = len(service.schema.names)
    # The pool holds (encoded, decoded) pairs; decoded is float64.
    row_bytes = n_features * (service.sampler._dtype.itemsize + 8)
    return int(param_bytes + pool_size * row_bytes)


class ModelRouter:
    """Resolve model references to live, batched synthesis services.

    Parameters
    ----------
    registry:
        A :class:`ModelRegistry` or a path to one.
    pool_size, batch_rows, seed:
        Forwarded to every :class:`SynthesisService` the router creates
        (each model gets its own independent seeded stream).
    coalesce, max_queue_depth, client_quota:
        Forwarded to every :class:`CoalescingBatcher`.
    server_workers:
        ``0`` (default) keeps the threaded in-process
        :class:`SynthesisService`; ``N >= 1`` serves every model through
        a :class:`WorkerPoolService` of ``N`` model worker processes
        over a shared-memory sample ring.
    worker_weights:
        Per-model concurrency weights overriding ``server_workers``:
        maps a model name or canonical ``name@version`` reference to its
        worker-process count (``0`` pins that model to the threaded
        service).  Ignored when ``server_workers`` is 0.
    worker_start_method / trace_log:
        Multiprocessing start method (default ``fork``) and the JSONL
        trace sink worker processes arm, forwarded to every
        :class:`WorkerPoolService`.
    max_models:
        Hard cap on resident models (LRU beyond it).
    memory_budget_bytes:
        Estimated-footprint budget across resident models; ``None``
        disables the byte-based trigger and leaves only ``max_models``.
    resolve_ttl_s:
        How long a reference → registration resolution is cached.
        Resolution scans the registry directory (it is what makes
        ``name`` mean "newest version"), which would otherwise put
        filesystem syscalls on every request's hot path; the TTL bounds
        how stale a bare-name alias can be after a new version is
        registered mid-flight.
    metrics_registry:
        :class:`~repro.obs.metrics.MetricsRegistry` behind the Prometheus
        exposition: router counters, pool/queue-depth gauges (refreshed
        by a collector at scrape time, never on the request path), and
        every batcher's series.  Defaults to the process-wide registry.
    quality:
        ``True`` (default) attaches a
        :class:`~repro.serve.quality.QualityMonitor` to every loaded
        model: decoded blocks are sketched on the decode path, drift is
        scored against the manifest's frozen reference stats, and
        per-(model, column) drift gauges publish at exposition time.
        ``False`` disables the tap entirely (responses are byte-identical
        either way — the tap is observe-only).
    """

    def __init__(self, registry, *, pool_size: int = 0, batch_rows: int = 2048,
                 seed=0, coalesce: bool = True, max_queue_depth: int = 64,
                 max_models: int = 8, memory_budget_bytes: int | None = None,
                 resolve_ttl_s: float = 5.0, server_workers: int = 0,
                 worker_weights: dict | None = None,
                 worker_start_method: str | None = None,
                 client_quota: int | None = None, trace_log=None,
                 metrics_registry=None, quality: bool = True):
        if max_models < 1:
            raise ValueError(f"max_models must be >= 1, got {max_models}")
        if server_workers < 0:
            raise ValueError(
                f"server_workers must be non-negative, got {server_workers}")
        self.registry = (registry if isinstance(registry, ModelRegistry)
                         else ModelRegistry(registry))
        self.pool_size = pool_size
        self.batch_rows = batch_rows
        self.seed = seed
        self.coalesce = coalesce
        self.max_queue_depth = max_queue_depth
        self.server_workers = server_workers
        self.worker_weights = dict(worker_weights or {})
        self.worker_start_method = worker_start_method
        self.client_quota = client_quota
        self.trace_log = trace_log
        self.quality = quality
        self.max_models = max_models
        self.memory_budget_bytes = memory_budget_bytes
        self.resolve_ttl_s = resolve_ttl_s
        self._entries: OrderedDict[str, ModelEntry] = OrderedDict()
        self._resolved: dict[str, tuple[str, float]] = {}
        self._lock = threading.Lock()
        self._loading: dict[str, threading.Event] = {}
        self._closed = False
        self.evictions = 0
        self.dead_evictions = 0
        reg = (metrics_registry if metrics_registry is not None
               else obs_metrics.REGISTRY)
        self.metrics_registry = reg
        self._m_loads = reg.counter(
            "router_model_loads_total", "Models loaded into the router",
        ).labels()
        self._m_evictions = reg.counter(
            "router_evictions_total", "Models evicted from the router",
        ).labels()
        self._m_dead_evictions = reg.counter(
            "router_dead_evictions_total",
            "Evictions forced by a dead batcher worker",
        ).labels()
        self._g_resident = reg.gauge(
            "router_resident_models", "Models currently resident",
        ).labels()
        self._g_queue_depth = reg.gauge(
            "batcher_queue_depth", "Requests queued or in flight",
        )
        self._g_pooled_rows = reg.gauge(
            "service_pooled_rows", "Pre-generated rows waiting in the pool",
        )
        self._g_quality_stat = reg.gauge(
            "quality_drift_statistic",
            "Per-column drift statistic vs the registered reference "
            "(binned KS for numeric columns, total variation for "
            "categorical)",
        )
        self._g_quality_status = reg.gauge(
            "quality_status",
            "Per-model drift rollup (0=ok, 1=warn, 2=drift)",
        )
        self._g_quality_rows = reg.gauge(
            "quality_rows_sketched",
            "Decoded rows folded into the model's live quality sketch",
        )
        reg.add_collector(self._refresh_gauges)

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------
    def get(self, ref: str) -> ModelEntry:
        """The live entry for ``ref``, loading the model on first use.

        Raises :class:`~repro.serve.registry.RegistryError` for unknown
        references and :class:`RouterClosed` while draining.  Loading
        happens *outside* the router lock — a cold model must not stall
        requests for resident ones — with a per-registration guard so
        concurrent first requests for the same model wait for one load
        instead of racing two.

        A resident entry whose batcher worker is **dead** (restart budget
        exhausted) is evicted here and reloaded fresh: the new service
        starts a new record stream, exactly like any other eviction.
        """
        now = time.monotonic()
        cached = self._resolved.get(ref)
        if cached is not None and now - cached[1] < self.resolve_ttl_s:
            canonical = cached[0]
        else:
            canonical = self.registry.resolve(ref)
            self._resolved[ref] = (canonical, now)
        while True:
            wait_for = None
            evicted = None
            with self._lock:
                if self._closed:
                    raise RouterClosed("router is shut down")
                entry = self._entries.get(canonical)
                if entry is not None and entry.health == "dead":
                    self._entries.pop(canonical, None)
                    self.evictions += 1
                    self.dead_evictions += 1
                    self._m_evictions.inc()
                    self._m_dead_evictions.inc()
                    evicted = entry
                    entry = None
                if entry is not None:
                    self._entries.move_to_end(canonical)
                    return entry
                loading = self._loading.get(canonical)
                if loading is None:
                    loading = threading.Event()
                    self._loading[canonical] = loading
                else:
                    wait_for = loading
            if evicted is not None:
                # Join the dead worker outside the router lock (it exited
                # already, so this is cheap bookkeeping, not a drain).
                evicted.close()
            if wait_for is None:
                break
            # Another thread is loading this model; wait, then re-check
            # (its load may also have failed — then we try ourselves).
            wait_for.wait()
        try:
            entry = self._load_entry(canonical)
        finally:
            with self._lock:
                self._loading.pop(canonical, None)
            loading.set()
        return entry

    def _workers_for(self, canonical: str) -> int:
        """Worker processes for this model: weight override or default."""
        if self.server_workers <= 0:
            return 0
        weight = self.worker_weights.get(canonical)
        if weight is None and "@" in canonical:
            weight = self.worker_weights.get(canonical.partition("@")[0])
        return self.server_workers if weight is None else int(weight)

    def _quality_monitor(self, canonical: str):
        """Build this model's quality monitor (never blocks a load)."""
        if not self.quality:
            return None
        try:
            return QualityMonitor.from_manifest(
                canonical, self.registry.manifest(canonical), seed=self.seed)
        except Exception:
            # A malformed manifest costs the quality signal, not serving.
            return None

    def _build_service(self, canonical: str, monitor=None):
        workers = self._workers_for(canonical)
        if workers > 0:
            # Multi-process pool: the parent reads only the manifest
            # (kind/schema/dims); workers load the weights themselves.
            kind = self.registry.manifest(canonical).get("kind")
            if kind != "tablegan":
                raise UnservableModelError(
                    f"model {canonical!r} has kind {kind!r}; only "
                    "single-generator TableGAN registrations are servable "
                    "over HTTP (use `repro synth` for chunked models)"
                )
            return WorkerPoolService(
                self.registry, canonical, workers=workers,
                pool_size=self.pool_size, batch_rows=self.batch_rows,
                seed=self.seed, start_method=self.worker_start_method,
                trace_log=self.trace_log, name=canonical,
                metrics_registry=self.metrics_registry, quality=monitor,
            )
        model = self.registry.load(canonical)
        if not isinstance(model, TableGAN):
            # ChunkedTableGAN has no single record stream to slice;
            # surface a clear "not servable here" instead of a 500.
            raise UnservableModelError(
                f"model {canonical!r} is a {type(model).__name__}; only "
                "single-generator TableGAN registrations are servable "
                "over HTTP (use `repro synth` for chunked models)"
            )
        return SynthesisService(
            model, pool_size=self.pool_size, batch_rows=self.batch_rows,
            seed=self.seed, quality=monitor,
        )

    def _load_entry(self, canonical: str) -> ModelEntry:
        """Load + wire one model (no router lock held during the load)."""
        monitor = self._quality_monitor(canonical)
        service = self._build_service(canonical, monitor)
        batcher = CoalescingBatcher(
            service, max_queue_depth=self.max_queue_depth,
            coalesce=self.coalesce, name=canonical,
            client_quota=self.client_quota,
            registry=self.metrics_registry,
        )
        entry = ModelEntry(canonical, service, batcher,
                           _estimate_bytes(service, self.pool_size),
                           quality=monitor)
        self._m_loads.inc()
        with self._lock:
            if self._closed:
                entry.close()
                raise RouterClosed("router is shut down")
            self._entries[canonical] = entry
            victims = self._evict_over_budget(keep=canonical)
        # Closing a batcher joins its worker (possibly mid-replenish, i.e.
        # a generator forward) — never under the router lock, or one
        # eviction would stall requests for every resident model.
        for victim in victims:
            victim.close()
        return entry

    def _evict_over_budget(self, keep: str) -> list[ModelEntry]:
        """Pop idle LRU entries until inside budget (lock held).

        Returns the evicted entries; the caller closes their batchers
        after releasing the lock.
        """
        def over() -> bool:
            if len(self._entries) > self.max_models:
                return True
            if self.memory_budget_bytes is None:
                return False
            total = sum(e.est_bytes for e in self._entries.values())
            return total > self.memory_budget_bytes

        victims = []
        while over():
            victim = next(
                (ref for ref, entry in self._entries.items()
                 if ref != keep and entry.batcher.queue_depth == 0),
                None,
            )
            if victim is None:
                break  # everything else is busy; exceed budget for now
            victims.append(self._entries.pop(victim))
            self.evictions += 1
            self._m_evictions.inc()
        return victims

    # ------------------------------------------------------------------
    # Introspection / lifecycle.
    # ------------------------------------------------------------------
    def _refresh_gauges(self) -> None:
        """Exposition-time collector: mirror live state into gauges so
        the request path never pays for them."""
        with self._lock:
            entries = list(self._entries.items())
        self._g_resident.set(len(entries))
        live = {ref for ref, _ in entries}
        for family in (self._g_queue_depth, self._g_pooled_rows,
                       self._g_quality_stat, self._g_quality_status,
                       self._g_quality_rows):
            for key, _series in family.series():
                labels = dict(key)
                if labels.get("model") not in live:
                    family.remove(**labels)
        for ref, entry in entries:
            self._g_queue_depth.labels(model=ref).set(
                entry.batcher.queue_depth)
            self._g_pooled_rows.labels(model=ref).set(
                entry.service.pooled_rows)
            if entry.quality is not None:
                status, per_column, rows = entry.quality.gauge_scores()
                self._g_quality_status.labels(model=ref).set(
                    STATUS_CODES[status])
                self._g_quality_rows.labels(model=ref).set(rows)
                for column, stat in per_column.items():
                    self._g_quality_stat.labels(
                        model=ref, column=column).set(stat)

    def resident(self) -> list[str]:
        """Currently loaded references, least recently used first."""
        with self._lock:
            return list(self._entries)

    def health(self) -> dict:
        """Per-resident-model worker health (``ok``/``degraded``/``dead``)."""
        with self._lock:
            entries = list(self._entries.items())
        return {ref: entry.health for ref, entry in entries}

    def quality_status(self) -> dict:
        """Per-resident-model drift rollup (``ok``/``warn``/``drift``).

        Surfaced in ``/healthz`` alongside — not merged into — worker
        health: a drifting model still serves, it just should not be
        trusted silently.
        """
        with self._lock:
            entries = list(self._entries.items())
        return {ref: entry.quality.status for ref, entry in entries
                if entry.quality is not None}

    def metrics(self) -> dict:
        """Per-model serving metrics for every resident model."""
        with self._lock:
            entries = list(self._entries.items())
            evictions = self.evictions
            dead_evictions = self.dead_evictions
        return {
            "resident_models": [ref for ref, _ in entries],
            "evictions": evictions,
            "dead_evictions": dead_evictions,
            "models": {ref: entry.metrics() for ref, entry in entries},
        }

    def close(self) -> None:
        """Drain and stop every resident batcher (graceful; idempotent)."""
        self.metrics_registry.remove_collector(self._refresh_gauges)
        with self._lock:
            self._closed = True
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            entry.close()
