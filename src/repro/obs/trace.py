"""Structured tracing: context-propagated trace_id/span_id, JSONL spans.

Same discipline as :mod:`repro.utils.faults`: a module-global
``_TRACER`` that is ``None`` in the steady state.  Disarmed,
:func:`span` is one global load, an ``is None`` test, and a shared
no-op singleton — the hot paths keep their seams permanently.  Armed
(:func:`arm`, or the :func:`tracing` context manager), spans carry
``trace_id``/``span_id``/``parent`` through a :class:`contextvars.ContextVar`
and are written as one JSON object per line to a file, or appended as
dicts, unserialized, to an in-memory list.

Cross-thread propagation is explicit: a producer captures
:func:`current` into its queue entry, the consumer re-enters it with
:func:`attach` — this is how a request's handler span becomes the
parent of the batcher-worker spans that serve it.

Span record schema (see ``docs/observability.md``)::

    {"kind": "span", "name": "handler", "trace": "16-hex", "span": "16-hex",
     "parent": "16-hex" | null, "ts": unix_seconds, "dur_ms": float,
     "attrs": {...}}

:func:`log_event` emits ``{"kind": "event", ...}`` records for rare
structured facts (worker crashes); disarmed they fall back to one JSON
line on stderr so the fact is never silently dropped.
"""

import json
import os
import random
import sys
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar

_TRACER = None

#: (trace_id, span_id) of the innermost live span, or None.
_CTX = ContextVar("repro_trace_ctx", default=None)


def new_trace_id():
    """16-hex-char id; usable disarmed (the server always echoes one)."""
    return f"{random.getrandbits(64):016x}"


class _NoopSpan:
    """Shared singleton returned by :func:`span` while disarmed."""

    __slots__ = ()
    trace_id = None
    span_id = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        return self


_NOOP_SPAN = _NoopSpan()


class _NoopAttach:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOOP_ATTACH = _NoopAttach()


class Span:
    """A live span; use as a context manager.  ``set()`` adds attrs."""

    __slots__ = ("_tracer", "name", "trace_id", "parent_id", "span_id",
                 "attrs", "_ts", "_start", "_token")

    def __init__(self, tracer, name, trace_id, parent_id, attrs):
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.span_id = f"{random.getrandbits(64):016x}"
        self.attrs = attrs

    def set(self, **attrs):
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        self._token = _CTX.set((self.trace_id, self.span_id))
        self._ts = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dur_s = time.perf_counter() - self._start
        _CTX.reset(self._token)
        if exc_type is not None:
            self.attrs["error"] = f"{exc_type.__name__}: {exc}"
        self._tracer._write({
            "kind": "span",
            "name": self.name,
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "ts": round(self._ts, 6),
            "dur_ms": round(dur_s * 1e3, 4),
            "attrs": self.attrs,
        })
        return False


class _Attach:
    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx):
        self._ctx = ctx

    def __enter__(self):
        self._token = _CTX.set(self._ctx)
        return self

    def __exit__(self, *exc):
        _CTX.reset(self._token)
        return False


class Tracer:
    """Serializes span records to a JSONL file, or appends them unserialized
    to a list.

    A list sink holds each record as the dict a file sink would write as
    one JSON line (``json.loads`` of that line gives it back).

    File sinks support size-capped rotation: when ``max_bytes`` is set
    and the live file would exceed it, the tracer shifts ``path.N`` →
    ``path.N+1`` (dropping the oldest beyond ``keep``), moves ``path``
    to ``path.1``, and reopens a fresh file — all under the write lock
    and only *between* whole-line writes, so no JSON record is ever
    torn across files.  Rotation state is per-process: pool workers
    arming the same path rotate independently (see
    ``docs/observability.md``).
    """

    def __init__(self, sink, *, max_bytes=None, keep=3):
        self._lock = threading.Lock()
        self.emitted = 0
        self.rotations = 0
        self._max_bytes = max_bytes if max_bytes and max_bytes > 0 else None
        self._keep = max(1, int(keep))
        if isinstance(sink, str):
            self._path = sink
            self._file = open(sink, "a", encoding="utf-8")
            self._sink = None
        else:
            self._path = None
            self._file = None
            self._sink = sink

    def _rotate_locked(self):
        """Shift the rotation chain and reopen; caller holds the lock."""
        self._file.close()
        for i in range(self._keep - 1, 0, -1):
            src = f"{self._path}.{i}"
            if os.path.exists(src):
                os.replace(src, f"{self._path}.{i + 1}")
        os.replace(self._path, f"{self._path}.1")
        self._file = open(self._path, "a", encoding="utf-8")
        self.rotations += 1

    def _write(self, record):
        if self._sink is not None:
            # An in-memory sink keeps the record itself: no JSON line is
            # built only to be dropped.
            with self._lock:
                self.emitted += 1
                self._sink.append(record)
            return
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self._lock:
            self.emitted += 1
            if (self._max_bytes is not None
                    and self._file.tell() + len(line) > self._max_bytes
                    and self._file.tell() > 0):
                self._rotate_locked()
            self._file.write(line)
            self._file.flush()

    def close(self):
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


def armed():
    return _TRACER is not None


def span(name, *, trace_id=None, **attrs):
    """Open a span.  Disarmed: returns the shared no-op singleton.

    With ``trace_id`` the span is a root of that trace (the handler
    passes the inbound/generated ``X-Trace-Id``); otherwise it parents
    to the innermost live span, or starts a fresh trace.
    """
    tracer = _TRACER
    if tracer is None:
        return _NOOP_SPAN
    if trace_id is not None:
        return Span(tracer, name, str(trace_id), None, attrs)
    ctx = _CTX.get()
    if ctx is None:
        return Span(tracer, name, new_trace_id(), None, attrs)
    return Span(tracer, name, ctx[0], ctx[1], attrs)


def emit(name, start_s, *, parent=None, parent_span=None, **attrs):
    """Emit an already-finished span timed from ``perf_counter`` value
    ``start_s``.  ``parent`` is a ``(trace_id, span_id)`` ctx tuple
    (defaults to the current one); ``parent_span`` overrides just the
    parent span id within the resolved trace.  Returns the new span id,
    or None while disarmed.
    """
    tracer = _TRACER
    if tracer is None:
        return None
    dur_s = time.perf_counter() - start_s
    ctx = parent if parent is not None else _CTX.get()
    if ctx is None:
        trace_id, parent_id = new_trace_id(), None
    else:
        trace_id, parent_id = ctx
    if parent_span is not None:
        parent_id = parent_span
    span_id = f"{random.getrandbits(64):016x}"
    tracer._write({
        "kind": "span",
        "name": name,
        "trace": trace_id,
        "span": span_id,
        "parent": parent_id,
        "ts": round(time.time() - dur_s, 6),
        "dur_ms": round(dur_s * 1e3, 4),
        "attrs": attrs,
    })
    return span_id


def current():
    """(trace_id, span_id) of the innermost live span, or None.

    Producers capture this into queue entries; consumers re-enter it
    with :func:`attach` so worker-thread spans parent correctly.
    """
    if _TRACER is None:
        return None
    return _CTX.get()


def attach(ctx):
    """Re-enter a captured trace context in another thread (no-op when
    disarmed or when there is nothing to attach)."""
    if _TRACER is None or ctx is None:
        return _NOOP_ATTACH
    return _Attach(ctx)


def log_event(name, **fields):
    """Structured one-line event.  Armed: written to the span sink.
    Disarmed: one JSON line on stderr — rare operational facts (worker
    crashes, quarantines) must survive without a tracer."""
    ctx = _CTX.get()
    record = {
        "kind": "event",
        "name": name,
        "ts": round(time.time(), 6),
        "trace": ctx[0] if ctx else None,
        "attrs": fields,
    }
    tracer = _TRACER
    if tracer is not None:
        tracer._write(record)
    else:
        sys.stderr.write(json.dumps(record, separators=(",", ":"),
                                    default=repr) + "\n")


def arm(sink, *, max_bytes=None, keep=3):
    """Install a tracer writing to ``sink`` (path or list). Returns it.

    ``max_bytes`` caps file sinks: the live file rotates to ``path.1``
    (… up to ``path.keep``) before a write would exceed the cap."""
    global _TRACER
    tracer = Tracer(sink, max_bytes=max_bytes, keep=keep)
    _TRACER = tracer
    return tracer


def disarm():
    global _TRACER
    tracer = _TRACER
    _TRACER = None
    if tracer is not None:
        tracer.close()
    return tracer


@contextmanager
def tracing(sink, *, max_bytes=None, keep=3):
    """Arm tracing for a scope; restores the previous tracer on exit."""
    global _TRACER
    previous = _TRACER
    tracer = Tracer(sink, max_bytes=max_bytes, keep=keep)
    _TRACER = tracer
    try:
        yield tracer
    finally:
        _TRACER = previous
        tracer.close()
