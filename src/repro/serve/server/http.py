"""The long-lived synthesis server: an HTTP/1.1 front end over the registry.

Stdlib only (``http.server`` + threads — the serving environment is
offline), long-lived, and multi-model: one process serves every model in
a :class:`~repro.serve.registry.ModelRegistry` through the
:class:`~repro.serve.server.router.ModelRouter` (lazy load, LRU under a
memory budget) and the :class:`~repro.serve.server.batcher.
CoalescingBatcher` (concurrent small requests for one model cost one
generator forward per tick).

Endpoints::

    GET  /healthz                   liveness (+ "draining" once shutdown starts)
                                    and per-model worker health — "degraded"
                                    while any model's worker is between a
                                    crash and its next clean tick, "dead"
                                    models force status "degraded" too
    GET  /metrics                   ServiceStats, queue depths, latency
                                    histograms, per-model supervision counters
                                    (crashes/restarts/poisoned/deadline_drops);
                                    ``?model=NAME`` restricts either rendering
                                    to one model's series (content negotiation
                                    unchanged)
    GET  /models                    every registration in the registry
    GET  /models/{ref}              one manifest; ref is name[@version|@latest]
    GET  /models/{ref}/quality      live quality sketch + drift scores vs the
                                    registered reference stats (status
                                    ok|warn|drift)
    POST /models/{ref}/sample       {"n": rows, "format": "json"|"csv"}
                                    (or Accept: text/csv); responses over
                                    stream_threshold_rows arrive as chunked
                                    CSV / NDJSON in bounded memory; an
                                    ``X-Deadline-Ms`` request header bounds
                                    queue wait — expired work is dropped with
                                    504 before it reaches the generator;
                                    ``X-Priority`` (higher drains first) and
                                    ``X-Client-Id`` (round-robin fairness +
                                    per-client quota) shape admission

Failure handling: each model's batcher worker is supervised (crash →
restart with backoff, poison quarantine, dead models evicted and
reloaded by the router on the next request), a corrupt artifact is 503 +
``Retry-After`` (retryable: re-registration repairs it) rather than 500,
and the whole surface is driven by the deterministic fault-injection
points documented in :mod:`repro.utils.faults`.

Every sample response carries ``X-Stream-Offset`` and ``X-Row-Count``:
the slice of the model's single seeded record stream it holds.  Slices
are contiguous, disjoint, and tile the stream — concatenating responses
by offset reproduces a single
:class:`~repro.core.sampler.RecordSampler` run exactly, no matter how
many clients were interleaved.  (``X-Stream-Offset`` is the order: a
request served by the pool-hit fast path can claim its slice while an
earlier, larger request is still waiting on generation, so wall-clock
arrival order and offset order may differ under concurrency.)

Admission control: a bounded per-model queue (429 + ``Retry-After`` when
saturated), an absolute per-request row cap (413), and 503 +
``Retry-After`` while draining.  ``SynthesisServer.shutdown`` is a
graceful drain: stop accepting, finish every in-flight request, then stop
the batcher workers.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

import numpy as np

from repro.data.io import decoded_rows, row_renderer
from repro.data.table import Table
from repro.obs import trace
from repro.serve.registry import CorruptArtifactError, RegistryError
from repro.serve.server.batcher import (
    BatcherClosed,
    DeadlineExceeded,
    QueueSaturated,
    WorkerCrashed,
)
from repro.serve.server.router import (
    ModelRouter,
    RouterClosed,
    UnservableModelError,
)
from repro.utils.faults import fault_bytes


class _HttpError(Exception):
    """Internal: mapped to one JSON error response."""

    def __init__(self, status: int, message: str, headers: dict | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _json_bytes(payload) -> bytes:
    # Compact separators: sample responses are mostly float text, and the
    # default ", " separators add ~15% bytes (and encode/parse time) to
    # every response on the hot path.
    return (json.dumps(payload, default=_json_default,
                       separators=(",", ":")) + "\n").encode("utf-8")


def _ndjson_bytes(rows) -> bytes:
    return b"".join(
        json.dumps(row, default=_json_default,
                   separators=(",", ":")).encode("utf-8") + b"\n"
        for row in rows
    )


class _SynthesisHTTPServer(ThreadingHTTPServer):
    # Graceful drain depends on these: server_close() joins every live
    # handler thread instead of abandoning daemons mid-response.
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True
    # socketserver's default listen backlog is 5: a burst of clients
    # connecting at once overflows it, the kernel drops the excess SYNs,
    # and those clients stall ~1 s in retransmit before the server even
    # sees them.  A serving front end should absorb connect storms.
    request_queue_size = 128

    def __init__(self, address, handler, app: "SynthesisServer"):
        self.app = app
        super().__init__(address, handler)

    def handle_error(self, request, client_address):
        # A client hanging up mid-response is normal server life, not a
        # stack trace; keep real bugs visible.
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError, TimeoutError)):
            return
        super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-synthesis/1"
    # Idle keep-alive connections time out so drain cannot hang on a
    # client that simply holds its socket open.
    timeout = 5
    # The socket timeout above also governs writes; a streamed export to
    # a legitimately slow reader (backpressure is the design) gets this
    # much time per write to make progress instead.
    stream_write_timeout = 60.0
    # Responses are written as two segments (header buffer, then body);
    # with Nagle on, the body write stalls behind the client's delayed
    # ACK (~40 ms per request on loopback), which would dwarf every cost
    # this server exists to amortize.  (socketserver reads this off the
    # handler class in StreamRequestHandler.setup.)
    disable_nagle_algorithm = True
    # The RFC-format Date header is rendered per response by the stdlib;
    # memoize it per second (benign race: worst case two threads format
    # the same timestamp).
    _date_cache: tuple[int, str] = (-1, "")

    def date_time_string(self, timestamp=None):
        if timestamp is not None:
            return super().date_time_string(timestamp)
        now = int(time.time())
        cached_at, cached = _Handler._date_cache
        if cached_at != now:
            cached = super().date_time_string(now)
            _Handler._date_cache = (now, cached)
        return cached

    # ------------------------------------------------------------------
    # Plumbing.
    # ------------------------------------------------------------------
    @property
    def app(self) -> "SynthesisServer":
        return self.server.app

    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        if not self.app.quiet:
            sys.stderr.write(
                f"{self.address_string()} - {format % args}\n"
            )

    def _send_body(self, status: int, body: bytes, content_type: str,
                   headers: dict | None = None) -> None:
        # Wire seam: a fault armed at ``socket.send`` may truncate or
        # corrupt the bytes actually written; Content-Length still
        # describes the intended body, so clients see a broken response —
        # exactly what a mid-write connection cut looks like.
        sent = fault_bytes("socket.send", body)
        self.app.record_status(status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, str(value))
        if self.app.draining:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(sent)
        if len(sent) != len(body):
            self.close_connection = True

    def _send_json(self, status: int, payload, headers: dict | None = None) -> None:
        self._send_body(status, _json_bytes(payload),
                        "application/json; charset=utf-8", headers)

    # ------------------------------------------------------------------
    # Routing.
    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")

    def _route(self, method: str) -> None:
        try:
            self._dispatch(method)
        except _HttpError as err:
            self._send_json(err.status, {"error": err.message}, err.headers)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        except Exception as exc:  # defensive: a bug must not kill the thread
            try:
                self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            except OSError:
                self.close_connection = True

    def _dispatch(self, method: str) -> None:
        path = urlsplit(self.path).path
        parts = [unquote(part) for part in path.split("/") if part]
        if parts == ["healthz"]:
            self._require(method, "GET")
            return self._handle_healthz()
        if parts == ["metrics"]:
            self._require(method, "GET")
            return self._handle_metrics()
        if parts == ["models"]:
            self._require(method, "GET")
            return self._handle_models()
        if len(parts) == 2 and parts[0] == "models":
            self._require(method, "GET")
            return self._handle_manifest(parts[1])
        if len(parts) == 3 and parts[:1] == ["models"] and parts[2] == "sample":
            self._require(method, "POST")
            return self._handle_sample(parts[1])
        if len(parts) == 3 and parts[:1] == ["models"] and parts[2] == "quality":
            self._require(method, "GET")
            return self._handle_quality(parts[1])
        raise _HttpError(404, f"no route for {method} {path}")

    def _require(self, method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected} for this endpoint",
                             {"Allow": expected})

    # ------------------------------------------------------------------
    # Read-only endpoints.
    # ------------------------------------------------------------------
    def _handle_healthz(self) -> None:
        model_health = self.app.router.health()
        if self.app.draining:
            status = "draining"
        elif any(h != "ok" for h in model_health.values()):
            status = "degraded"
        else:
            status = "ok"
        self._send_json(200, {
            "status": status,
            "uptime_s": self.app.uptime_s,
            "resident_models": self.app.router.resident(),
            "models": model_health,
            # Data-quality drift is reported alongside — not merged into —
            # worker health: a drifting model still serves.
            "quality": self.app.router.quality_status(),
        })

    def _handle_metrics(self) -> None:
        # Content negotiation: the JSON payload (the SynthesisClient's
        # default Accept) keeps its shape; anything else — a Prometheus
        # scraper sends */* — gets the registry's text exposition.
        # ``?model=NAME`` restricts either rendering to one model's
        # series: exact name or any ``NAME@version``.
        query = parse_qs(urlsplit(self.path).query)
        model = (query.get("model") or [None])[0]
        accept = self.headers.get("Accept", "")
        if "application/json" in accept:
            payload = self.app.metrics()
            if model is not None:
                payload = self._filter_metrics_json(payload, model)
            return self._send_json(200, payload)
        label_filter = None
        if model is not None:
            label_filter = {"model": self._model_matcher(model)}
        body = self.app.metrics_registry.render_text(
            label_filter=label_filter).encode("utf-8")
        self._send_body(200, body, "text/plain; version=0.0.4; charset=utf-8")

    @staticmethod
    def _model_matcher(model: str):
        """Match the exact model name or any of its pinned versions."""
        return lambda value: value == model or value.startswith(model + "@")

    @classmethod
    def _filter_metrics_json(cls, payload: dict, model: str) -> dict:
        matches = cls._model_matcher(model)
        filtered = dict(payload)
        if isinstance(payload.get("models"), dict):
            filtered["models"] = {ref: stats
                                  for ref, stats in payload["models"].items()
                                  if matches(ref)}
        if isinstance(payload.get("resident_models"), list):
            filtered["resident_models"] = [
                ref for ref in payload["resident_models"] if matches(ref)]
        return filtered

    def _handle_models(self) -> None:
        try:
            entries = self.app.router.registry.describe()
        except RegistryError as exc:
            raise _HttpError(500, f"registry unreadable: {exc}") from exc
        resident = set(self.app.router.resident())
        for entry in entries:
            entry["resident"] = entry["name"] in resident
            entry["servable"] = entry.get("kind") == "tablegan"
        self._send_json(200, {"models": entries})

    def _handle_manifest(self, ref: str) -> None:
        try:
            manifest = self.app.router.registry.manifest(ref)
        except CorruptArtifactError as exc:
            raise _HttpError(503, str(exc), {"Retry-After": "1"}) from exc
        except RegistryError as exc:
            raise _HttpError(404, str(exc)) from exc
        self._send_json(200, manifest)

    def _handle_quality(self, ref: str) -> None:
        entry = self._entry_for(ref)
        if entry.quality is None:
            return self._send_json(200, {
                "model": entry.ref, "status": "off", "reference": False,
            })
        self._send_json(200, entry.quality.report())

    # ------------------------------------------------------------------
    # Sampling.
    # ------------------------------------------------------------------
    def _read_request(self) -> tuple[int, str]:
        """Parse and validate the sample request body; returns (n, format)."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError as exc:
            raise _HttpError(400, "malformed Content-Length") from exc
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        n = payload.get("n")
        if isinstance(n, bool) or not isinstance(n, int) or n <= 0:
            raise _HttpError(400, f'"n" must be a positive integer, got {n!r}')
        if n > self.app.max_request_rows:
            raise _HttpError(413, (
                f"n={n} exceeds the per-request cap of "
                f"{self.app.max_request_rows} rows; split the export"
            ))
        fmt = payload.get("format")
        if fmt is None:
            accept = self.headers.get("Accept", "")
            fmt = "csv" if "text/csv" in accept else "json"
        if fmt not in ("json", "csv"):
            raise _HttpError(400, f'"format" must be "json" or "csv", got {fmt!r}')
        return n, fmt

    def _entry_for(self, ref: str):
        try:
            return self.app.router.get(ref)
        except (RouterClosed, BatcherClosed) as exc:
            raise _HttpError(503, "server is draining",
                             {"Retry-After": "1"}) from exc
        except UnservableModelError as exc:
            raise _HttpError(501, str(exc)) from exc
        except CorruptArtifactError as exc:
            # The artifact is broken *on disk*; nothing was cached, so the
            # model serves again as soon as the file is repaired — 503,
            # not 500: the request may succeed on retry.
            raise _HttpError(503, str(exc), {"Retry-After": "1"}) from exc
        except RegistryError as exc:
            raise _HttpError(404, str(exc)) from exc

    def _read_deadline(self) -> float | None:
        """``X-Deadline-Ms`` (relative ms) → absolute monotonic deadline."""
        raw = self.headers.get("X-Deadline-Ms")
        if raw is None:
            return None
        try:
            ms = float(raw)
        except ValueError as exc:
            raise _HttpError(
                400, f"malformed X-Deadline-Ms header: {raw!r}"
            ) from exc
        if ms <= 0:
            raise _HttpError(
                400, f"X-Deadline-Ms must be positive, got {raw!r}"
            )
        return time.monotonic() + ms / 1000.0

    def _read_priority(self) -> int:
        """``X-Priority`` (integer; higher drains first) or 0.

        Clamped to ±1000 so a hostile header cannot mint unbounded
        priority bands in the admission queue."""
        raw = self.headers.get("X-Priority")
        if raw is None:
            return 0
        try:
            priority = int(raw)
        except ValueError as exc:
            raise _HttpError(
                400, f"malformed X-Priority header: {raw!r}"
            ) from exc
        return max(-1000, min(1000, priority))

    def _client_id(self) -> str | None:
        """``X-Client-Id`` (sanitized, <= 64 chars) or None.

        Identified clients get round-robin fairness within a priority
        band and a per-client admission quota; header-less traffic
        shares one anonymous FIFO lane."""
        raw = self.headers.get("X-Client-Id")
        if raw is None:
            return None
        client = raw.strip()[:64]
        return client or None

    def _trace_id(self) -> str:
        """Inbound ``X-Trace-Id`` (sanitized) or a fresh id.  Requests
        always carry one — tracing armed or not — so clients can
        correlate responses with server logs."""
        raw = self.headers.get("X-Trace-Id")
        if raw:
            raw = raw.strip()[:64]
            if raw:
                return raw
        return trace.new_trace_id()

    def _handle_sample(self, ref: str) -> None:
        if self.app.draining:
            raise _HttpError(503, "server is draining", {"Retry-After": "1"})
        n, fmt = self._read_request()
        deadline = self._read_deadline()
        priority = self._read_priority()
        client = self._client_id()
        trace_id = self._trace_id()
        started = time.perf_counter()
        # Root span of the request's trace: everything downstream — the
        # batcher probe/tick, service take, generator forward, decode,
        # render — parents under it via the context var (or, across the
        # worker-thread hop, via the ctx captured at admission).
        with trace.span("handler", trace_id=trace_id, model=ref, n=n,
                        fmt=fmt):
            if n > self.app.stream_threshold_rows:
                entry = self._stream_sample(ref, n, fmt, deadline, trace_id,
                                            priority, client)
            else:
                entry = self._small_sample(ref, n, fmt, deadline, trace_id,
                                           priority, client)
        entry.latency.record(time.perf_counter() - started)

    def _submit(self, ref: str, method: str, *args):
        """Route + submit with one retry if LRU eviction closed the batcher
        between the router lookup and the submit (the entry is reloaded and
        the request really is served; 503 is reserved for actual drains).
        A dead batcher takes the same retry: ``router.get`` evicts it and
        loads a fresh service, so the retried submit lands on a live
        worker."""
        for attempt in (0, 1):
            entry = self._entry_for(ref)
            try:
                return entry, getattr(entry.batcher, method)(*args)
            except QueueSaturated as exc:
                raise _HttpError(429, str(exc), {
                    "Retry-After": f"{exc.retry_after_s:g}",
                }) from exc
            except DeadlineExceeded as exc:
                raise _HttpError(504, str(exc)) from exc
            except WorkerCrashed as exc:
                raise _HttpError(500, str(exc)) from exc
            except BatcherClosed as exc:
                if self.app.draining or attempt:
                    raise _HttpError(503, "server is draining",
                                     {"Retry-After": "1"}) from exc
        raise AssertionError("unreachable")

    def _small_sample(self, ref: str, n: int, fmt: str,
                      deadline: float | None = None,
                      trace_id: str | None = None,
                      priority: int = 0, client: str | None = None):
        entry, (values, offset) = self._submit(ref, "submit", n, deadline,
                                               priority, client)
        schema = entry.service.schema
        table = Table(values, schema)
        headers = {"X-Stream-Offset": offset, "X-Row-Count": n}
        if trace_id is not None:
            headers["X-Trace-Id"] = trace_id
        render_started = time.perf_counter()
        with trace.span("render", fmt=fmt, rows=n):
            if fmt == "csv":
                body = row_renderer(schema).csv_bytes(table.values, header=True)
                content_type = "text/csv; charset=utf-8"
            else:
                # Hand-assembled but byte-identical to _json_bytes of the
                # equivalent dict: the model/columns fragments are request-
                # invariant (pre-rendered on the entry), so the hot path
                # only serializes the rows.
                rows_json = json.dumps(decoded_rows(table),
                                       default=_json_default,
                                       separators=(",", ":"))
                body = (
                    f'{{"model":{entry.ref_json},"n":{n},"offset":{offset},'
                    f'"columns":{entry.columns_json},"rows":{rows_json}}}\n'
                ).encode("utf-8")
                content_type = "application/json; charset=utf-8"
        self.app.observe_render(time.perf_counter() - render_started)
        self._send_body(200, body, content_type, headers)
        return entry

    def _stream_sample(self, ref: str, n: int, fmt: str,
                       deadline: float | None = None,
                       trace_id: str | None = None,
                       priority: int = 0, client: str | None = None):
        """Serve a large export as chunked transfer in bounded memory.

        The stream is admitted like any other request — it owns one
        contiguous slice of the record stream — but rows cross the wire
        chunk by chunk as they are generated, so neither side ever holds
        the full export.
        """
        entry, stream = self._submit(ref, "submit_stream", n,
                                     self.app.stream_chunk_rows, deadline,
                                     priority, client)
        schema = entry.service.schema
        chunks = iter(stream)
        try:
            try:
                first_values, base_offset = next(chunks)
            except StopIteration:  # pragma: no cover - n > 0 yields >= 1 chunk
                raise _HttpError(500, "empty stream") from None
            except DeadlineExceeded as exc:
                raise _HttpError(504, str(exc)) from exc
            except Exception as exc:
                raise _HttpError(500, f"stream failed: {exc}") from exc

            content_type = ("text/csv; charset=utf-8" if fmt == "csv"
                            else "application/x-ndjson")
            # The 5 s keep-alive timeout would truncate exports to slow
            # readers mid-body; give each write a real budget instead (the
            # connection closes after a stream, so idle-reaping no longer
            # applies to this socket).
            self.connection.settimeout(self.stream_write_timeout)
            self.app.record_status(200)
            self.send_response(200)
            self.send_header("Content-Type", content_type)
            self.send_header("Transfer-Encoding", "chunked")
            self.send_header("X-Stream-Offset", str(base_offset))
            self.send_header("X-Row-Count", str(n))
            if trace_id is not None:
                self.send_header("X-Trace-Id", trace_id)
            if fmt != "csv":
                # CSV streams carry their header row; NDJSON streams name
                # the columns here so the client can return the same shape
                # as a buffered JSON response.
                self.send_header("X-Columns", entry.columns_json)
            self.send_header("Connection", "close")
            self.close_connection = True
            self.end_headers()

            # From here the response has started: an error must truncate
            # the chunked body (the client sees an incomplete read), never
            # fall through to a second HTTP response written mid-body.
            try:
                if fmt == "csv":
                    self._write_chunk(
                        row_renderer(schema).csv_header.encode("utf-8"))
                self._write_rows(schema, fmt, first_values)
                for values, _offset in chunks:
                    self._write_rows(schema, fmt, values)
                self.wfile.write(b"0\r\n\r\n")
            except (BrokenPipeError, ConnectionResetError):
                self.close_connection = True
            except Exception as exc:
                # Truncate; surface in the access log, not on the wire.
                self.log_message("streamed response truncated: %s", exc)
                self.close_connection = True
        finally:
            # Covers client disconnects and handler errors alike: the
            # worker stops generating rows nobody will read.
            stream.cancel()
        return entry

    def _write_rows(self, schema, fmt: str, values) -> None:
        render_started = time.perf_counter()
        table = Table(values, schema)
        if fmt == "csv":
            data = row_renderer(schema).csv_bytes(table.values)
        else:
            data = _ndjson_bytes(decoded_rows(table))
        self.app.observe_render(time.perf_counter() - render_started)
        self._write_chunk(data)

    def _write_chunk(self, data: bytes) -> None:
        if not data:
            return
        # Wire seam: a raise here aborts mid-body (the client sees a
        # truncated chunked read); a truncate writes fewer bytes than the
        # chunk header promised, then cuts the connection.
        sent = fault_bytes("socket.send", data)
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
        self.wfile.write(sent)
        if len(sent) != len(data):
            raise ConnectionResetError(
                "socket.send fault truncated the chunk"
            )
        self.wfile.write(b"\r\n")


class SynthesisServer:
    """A long-lived, multi-model synthesis server (stdlib HTTP front end).

    Parameters
    ----------
    registry:
        :class:`ModelRegistry` or path; every registered model is servable.
    host, port:
        Bind address; port 0 picks a free port (read it back from
        :attr:`port` — how the tests and the benchmark run fleets of
        servers).
    pool_size, batch_rows, seed:
        Per-model :class:`~repro.serve.service.SynthesisService` knobs.
        The default pool (1024 rows per model) pre-generates across
        replenishment ticks so sub-batch requests are usually served
        from memory; 0 disables it (every tick generates exactly its
        shortfall).
    coalesce:
        ``False`` disables cross-request coalescing (one generator pass
        per request) — the baseline the benchmark measures against.
    max_queue_depth:
        Per-model admission bound; saturation returns 429.
    max_request_rows:
        Absolute per-request cap; beyond it returns 413.
    stream_threshold_rows:
        Responses above this arrive as chunked CSV/NDJSON streamed in
        ``stream_chunk_rows`` slices (bounded memory on both sides).
    max_models, memory_budget_bytes:
        Router LRU policy.
    quiet:
        Suppress per-request access logging (default).
    metrics_registry:
        :class:`~repro.obs.metrics.MetricsRegistry` behind
        ``GET /metrics``'s text exposition.  Defaults to the
        process-wide registry; the bench injects a fresh one per server
        so serving modes don't share series.
    server_workers:
        ``N >= 1`` serves each model from ``N`` dedicated worker
        *processes* over a shared-memory sample pool (the HTTP front end
        stays threaded; see :mod:`repro.serve.server.procpool`).  ``0``
        (default) keeps the in-process threaded service.  Responses are
        bit-identical either way.
    worker_weights:
        Per-model worker-count overrides (``{"name": k}``); ``0`` pins a
        model to the in-process service.
    worker_start_method:
        ``multiprocessing`` start method for pool workers (default
        ``"fork"``).
    client_quota:
        Per-client admission cap: requests carrying ``X-Client-Id`` are
        429'd while that client already has this many requests queued or
        in flight (anonymous traffic is bounded only by the queue depth).
    trace_log:
        Path for worker-process trace spans; each worker appends to its
        own arming of the sink so ``X-Trace-Id`` correlates across the
        process boundary.
    quality:
        ``True`` (default) taps every decoded sample block into a
        bounded-memory quality sketch per model and scores drift against
        the reference statistics frozen at registration (``GET
        /models/{ref}/quality``).  ``False`` disables the tap entirely;
        responses are byte-identical either way.
    """

    def __init__(self, registry, host: str = "127.0.0.1", port: int = 0, *,
                 pool_size: int = 1024, batch_rows: int = 2048, seed=0,
                 coalesce: bool = True, max_queue_depth: int = 64,
                 max_request_rows: int = 1_000_000,
                 stream_threshold_rows: int = 10_000,
                 stream_chunk_rows: int = 2048,
                 max_models: int = 8, memory_budget_bytes: int | None = None,
                 quiet: bool = True, metrics_registry=None,
                 server_workers: int = 0,
                 worker_weights: dict | None = None,
                 worker_start_method: str | None = None,
                 client_quota: int | None = None, trace_log=None,
                 quality: bool = True):
        if stream_chunk_rows <= 0:
            raise ValueError(
                f"stream_chunk_rows must be positive, got {stream_chunk_rows}"
            )
        if max_request_rows <= 0:
            raise ValueError(
                f"max_request_rows must be positive, got {max_request_rows}"
            )
        if max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be non-negative, got {max_queue_depth}"
            )
        self.router = ModelRouter(
            registry, pool_size=pool_size, batch_rows=batch_rows, seed=seed,
            coalesce=coalesce, max_queue_depth=max_queue_depth,
            max_models=max_models, memory_budget_bytes=memory_budget_bytes,
            server_workers=server_workers, worker_weights=worker_weights,
            worker_start_method=worker_start_method,
            client_quota=client_quota, trace_log=trace_log,
            metrics_registry=metrics_registry, quality=quality,
        )
        self.metrics_registry = self.router.metrics_registry
        self.max_request_rows = max_request_rows
        self.stream_threshold_rows = stream_threshold_rows
        self.stream_chunk_rows = stream_chunk_rows
        self.quiet = quiet
        self._httpd = _SynthesisHTTPServer((host, port), _Handler, self)
        self._thread: threading.Thread | None = None
        self._draining = threading.Event()
        self._closed = threading.Event()
        self._started_at = time.monotonic()
        self._status_lock = threading.Lock()
        self._status_counts: dict[str, int] = {}
        self._m_responses = self.metrics_registry.counter(
            "http_responses_total", "HTTP responses by status code",
        )
        self._m_render = self.metrics_registry.histogram(
            "http_render_seconds",
            "Response-body render time (row decode + serialization)",
        ).labels()
        self._g_uptime = self.metrics_registry.gauge(
            "server_uptime_seconds", "Seconds since the server started",
        ).labels()
        self.metrics_registry.add_collector(self._refresh_gauges)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started_at

    def record_status(self, status: int) -> None:
        with self._status_lock:
            key = str(status)
            self._status_counts[key] = self._status_counts.get(key, 0) + 1
        self._m_responses.labels(status=str(status)).inc()

    def observe_render(self, seconds: float) -> None:
        self._m_render.record(seconds)

    def _refresh_gauges(self) -> None:
        self._g_uptime.set(self.uptime_s)

    def metrics(self) -> dict:
        with self._status_lock:
            responses = dict(self._status_counts)
        return {
            "uptime_s": self.uptime_s,
            "draining": self.draining,
            "responses": responses,
            "render": self._m_render.summary(),
            "registry_root": str(self.router.registry.root),
            **self.router.metrics(),
        }

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> "SynthesisServer":
        """Serve in a background thread; returns self (for chaining)."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05},
            name=f"synthesis-server-{self.port}", daemon=True,
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, stop workers.

        Idempotent and safe to call from any thread (including a signal
        handler's).  Order matters: the accept loop stops first, then
        every live handler thread is joined (``block_on_close``), and only
        then — once no handler can queue new work — are the per-model
        batchers closed.
        """
        if self._closed.is_set():
            return
        self._draining.set()
        self.metrics_registry.remove_collector(self._refresh_gauges)
        self._httpd.shutdown()
        self._httpd.server_close()
        self.router.close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._closed.set()

    def __enter__(self) -> "SynthesisServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False
