"""The tracing seam: disarmed no-ops, armed spans, context propagation."""

import json
import random
import threading

import pytest

from repro.obs import trace


class TestDisarmed:
    def test_span_returns_the_shared_noop_singleton(self):
        first = trace.span("a")
        second = trace.span("b", rows=3)
        assert first is second is trace._NOOP_SPAN
        with first as sp:
            assert sp.set(hit=True) is sp
            assert sp.trace_id is None

    def test_armed_is_false_and_current_is_none(self):
        assert trace.armed() is False
        assert trace.current() is None

    def test_attach_and_emit_are_noops(self):
        with trace.attach(("t", "s")):
            pass
        assert trace.emit("x", 0.0) is None

    def test_log_event_falls_back_to_stderr(self, capsys):
        trace.log_event("worker_crash", model="tiny", pid=object())
        line = capsys.readouterr().err.strip()
        record = json.loads(line)
        assert record["kind"] == "event"
        assert record["name"] == "worker_crash"
        assert record["attrs"]["model"] == "tiny"  # default=repr for the rest

    def test_new_trace_id_is_16_hex(self):
        tid = trace.new_trace_id()
        assert len(tid) == 16
        int(tid, 16)


class TestArmed:
    def test_nested_spans_share_a_trace_and_parent_correctly(self):
        sink = []
        with trace.tracing(sink):
            with trace.span("outer", kind="root") as outer:
                with trace.span("inner") as inner:
                    assert trace.current() == (inner.trace_id, inner.span_id)
                    inner.set(rows=4)
        assert [r["name"] for r in sink] == ["inner", "outer"]
        inner_rec, outer_rec = sink
        assert inner_rec["trace"] == outer_rec["trace"]
        assert inner_rec["parent"] == outer_rec["span"]
        assert outer_rec["parent"] is None
        assert outer_rec["attrs"] == {"kind": "root"}
        assert inner_rec["attrs"] == {"rows": 4}
        assert inner_rec["dur_ms"] >= 0
        assert inner_rec["kind"] == "span"

    def test_explicit_trace_id_starts_a_root(self):
        sink = []
        with trace.tracing(sink):
            with trace.span("handler", trace_id="abcd1234abcd1234"):
                pass
        assert sink[0]["trace"] == "abcd1234abcd1234"
        assert sink[0]["parent"] is None

    def test_exception_is_recorded_and_propagates(self):
        sink = []
        with trace.tracing(sink):
            try:
                with trace.span("boom"):
                    raise ValueError("bad rows")
            except ValueError:
                pass
        assert sink[0]["attrs"]["error"] == "ValueError: bad rows"

    def test_attach_propagates_context_across_threads(self):
        """The batcher pattern: the producer captures current() into the
        queue entry, the worker re-enters it with attach()."""
        sink = []
        with trace.tracing(sink):
            with trace.span("handler") as handler:
                ctx = trace.current()

            def worker():
                with trace.attach(ctx):
                    with trace.span("batcher"):
                        pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        batcher_rec = next(r for r in sink if r["name"] == "batcher")
        assert batcher_rec["trace"] == handler.trace_id
        assert batcher_rec["parent"] == handler.span_id

    def test_emit_writes_an_after_the_fact_span(self):
        import time

        sink = []
        with trace.tracing(sink):
            start = time.perf_counter()
            span_id = trace.emit("batcher", start,
                                 parent=("feed" * 4, "beef" * 4), rows=8)
        record = sink[0]
        assert record["span"] == span_id
        assert record["trace"] == "feed" * 4
        assert record["parent"] == "beef" * 4
        assert record["attrs"] == {"rows": 8}

    def test_log_event_goes_to_the_sink_with_trace_context(self):
        sink = []
        with trace.tracing(sink):
            with trace.span("handler") as handler:
                trace.log_event("crash", dead=False)
        event = next(r for r in sink if r["kind"] == "event")
        assert event["trace"] == handler.trace_id
        assert event["attrs"] == {"dead": False}

    def test_tracing_restores_the_previous_tracer(self):
        outer_sink, inner_sink = [], []
        with trace.tracing(outer_sink):
            with trace.tracing(inner_sink):
                with trace.span("in"):
                    pass
            with trace.span("out"):
                pass
        assert [r["name"] for r in inner_sink] == ["in"]
        assert [r["name"] for r in outer_sink] == ["out"]
        assert trace.armed() is False

    def test_file_sink_appends_jsonl(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with trace.tracing(str(path)) as tracer:
            with trace.span("a"):
                pass
            with trace.span("b"):
                pass
            assert tracer.emitted == 2
        lines = path.read_text().strip().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]

    def test_list_and_file_sinks_hold_equal_records(self, tmp_path,
                                                    monkeypatch):
        """A list sink keeps each record unserialized: the same spans sent
        to a file give the same records after ``json.loads`` of a line."""

        class Clock:
            def __init__(self):
                self.now = 1_700_000_000.0

            def time(self):
                self.now += 0.00125
                return self.now

            perf_counter = time

        def run(sink):
            random.seed(3)
            monkeypatch.setattr(trace, "time", Clock())
            with trace.tracing(sink) as tracer:
                with trace.span("outer", model="tiny", rows=4) as outer:
                    started = trace.time.perf_counter()
                    with trace.span("inner", hit=True, ratio=0.25):
                        pass
                    trace.emit("emitted", started, parent_span=None, n=None)
                    outer.set(nested={"codes": [1, 2], "name": "é"})
                    trace.log_event("worker_crash", pid=12)
                with pytest.raises(KeyError), trace.span("failed"):
                    raise KeyError("k")
                return tracer.emitted

        listed = []
        path = tmp_path / "spans.jsonl"
        assert run(listed) == run(str(path)) == 5
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == listed
        assert [r["name"] for r in listed] == [
            "inner", "emitted", "worker_crash", "outer", "failed"]
        assert listed[-1]["attrs"] == {"error": "KeyError: 'k'"}

    def test_arm_disarm_round_trip(self):
        sink = []
        tracer = trace.arm(sink)
        try:
            with trace.span("x"):
                pass
            assert trace.armed() is True
        finally:
            assert trace.disarm() is tracer
        assert trace.armed() is False
        assert len(sink) == 1


class TestRotation:
    """Size-capped trace-log rotation must never tear a JSON record."""

    def _emit(self, tracer, n):
        for i in range(n):
            tracer._write({"kind": "span", "name": f"s{i}", "trace": "t",
                           "span": f"{i:016x}", "parent": None,
                           "ts": 0.0, "dur_ms": 0.1, "attrs": {}})

    def test_rotates_at_cap_and_keeps_n_files(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with trace.tracing(str(path), max_bytes=512, keep=2) as tracer:
            self._emit(tracer, 60)
        assert tracer.rotations > 2
        assert path.exists()
        assert (tmp_path / "spans.jsonl.1").exists()
        assert (tmp_path / "spans.jsonl.2").exists()
        assert not (tmp_path / "spans.jsonl.3").exists()
        # Rotation happens before a write would exceed the cap, so every
        # retained file stays within it.
        for name in ("spans.jsonl", "spans.jsonl.1", "spans.jsonl.2"):
            assert (tmp_path / name).stat().st_size <= 512

    def test_rotation_never_tears_a_record(self, tmp_path):
        """Every line across the live file and every rotated file parses
        as one complete JSON record (rotation only between whole lines)."""
        path = tmp_path / "spans.jsonl"
        with trace.tracing(str(path), max_bytes=400, keep=3) as tracer:
            self._emit(tracer, 80)
        names = []
        for candidate in (path, *(tmp_path / f"spans.jsonl.{i}"
                                  for i in range(1, 4))):
            if not candidate.exists():
                continue
            for line in candidate.read_text().splitlines():
                record = json.loads(line)  # raises if any record tore
                names.append(record["name"])
        assert len(names) == len(set(names))  # no record duplicated either

    def test_concurrent_writers_never_tear_records(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with trace.tracing(str(path), max_bytes=600, keep=4) as tracer:
            threads = [
                threading.Thread(target=self._emit, args=(tracer, 40))
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert tracer.emitted == 160
        total = 0
        for candidate in (path, *(tmp_path / f"spans.jsonl.{i}"
                                  for i in range(1, 5))):
            if candidate.exists():
                for line in candidate.read_text().splitlines():
                    json.loads(line)
                    total += 1
        # Old records may rotate off the end of the keep chain, but every
        # surviving line must be whole.
        assert 0 < total <= 160

    def test_no_cap_means_no_rotation(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with trace.tracing(str(path)) as tracer:
            self._emit(tracer, 50)
        assert tracer.rotations == 0
        assert not (tmp_path / "spans.jsonl.1").exists()
        assert len(path.read_text().splitlines()) == 50

    def test_oversized_single_record_still_lands(self, tmp_path):
        """A record bigger than the cap rotates once then writes anyway —
        the cap bounds growth, it never drops data."""
        path = tmp_path / "spans.jsonl"
        with trace.tracing(str(path), max_bytes=64, keep=2) as tracer:
            tracer._write({"kind": "span", "name": "big", "attrs":
                           {"blob": "x" * 500}})
            tracer._write({"kind": "span", "name": "after", "attrs": {}})
        names = []
        for candidate in (path, tmp_path / "spans.jsonl.1",
                          tmp_path / "spans.jsonl.2"):
            if candidate.exists():
                names += [json.loads(line)["name"]
                          for line in candidate.read_text().splitlines()]
        assert set(names) == {"big", "after"}
