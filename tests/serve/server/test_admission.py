"""Admission shaping (PR 9): priorities, per-client quotas, fairness.

Requests now carry an optional priority band and client identity
(``X-Priority`` / ``X-Client-Id`` over HTTP).  The admission queue pops
crash retries first (bit-exact recovery order is sacred), then the
highest priority band, round-robin across clients within a band, FIFO
per client — and a per-client quota bounds how much of the queue any
one identity can own.  These tests pin each property deterministically
using the blocked-stream idiom: an unconsumed stream occupies the
batcher worker, so everything submitted behind it queues in a known
order before a single row is served.
"""

import http.client
import json
import threading
import time

import pytest

from repro.serve import SynthesisService, SynthesisServer
from repro.serve.server import (
    CoalescingBatcher,
    QueueSaturated,
    QuotaExceeded,
    SynthesisClient,
)

SEED = 3


@pytest.fixture()
def service(trained_gan):
    return SynthesisService(trained_gan, seed=SEED)


def _blocked_stream(batcher, chunk_rows=4, chunks_ahead=8):
    """Occupy the worker: an unconsumed stream blocks it after 2 chunks."""
    return batcher.submit_stream(chunk_rows * chunks_ahead, chunk_rows)


def _submit_in_order(batcher, specs):
    """Admit ``(tag, n, priority, client)`` specs in exactly that order.

    Each submission runs in its own thread (submit blocks until served);
    the next is released only once the previous is visibly queued, so
    admission order is deterministic.  ``queue_depth`` already counts the
    blocking stream, so each wait is relative to the depth on entry; the
    helper returns only after the last spec is queued too.  Returns
    (threads, results dict).
    """
    results = {}
    lock = threading.Lock()

    def submit(tag, n, priority, client):
        values, offset = batcher.submit(n, None, priority, client)
        with lock:
            results[tag] = (offset, len(values))

    threads = []
    base = batcher.queue_depth
    for depth, (tag, n, priority, client) in enumerate(specs, start=base + 1):
        thread = threading.Thread(target=submit,
                                  args=(tag, n, priority, client))
        thread.start()
        threads.append(thread)
        deadline = time.monotonic() + 30
        while batcher.queue_depth < depth:
            assert time.monotonic() < deadline, "request never queued"
            time.sleep(0.002)
    return threads, results


class TestPriorityOrdering:
    def test_higher_priority_drains_first_under_saturation(self, service,
                                                           trained_gan):
        batcher = CoalescingBatcher(service)
        stream = _blocked_stream(batcher)  # owns offsets [0, 32)
        threads, results = _submit_in_order(batcher, [
            ("lo1", 2, 0, "a"),
            ("hi1", 3, 5, "b"),
            ("lo2", 4, 0, "c"),
            ("hi2", 5, 5, "d"),
        ])
        list(stream)  # unblock the worker
        for thread in threads:
            thread.join(timeout=30)
        batcher.close()
        # Serve order is offset order: the priority-5 band drains before
        # the priority-0 band even though "lo1" was admitted first.
        assert results["hi1"] == (32, 3)
        assert results["hi2"] == (35, 5)
        assert results["lo1"] == (40, 2)
        assert results["lo2"] == (42, 4)

    def test_headerless_traffic_stays_fifo(self, service):
        batcher = CoalescingBatcher(service)
        stream = _blocked_stream(batcher)
        threads, results = _submit_in_order(batcher, [
            ("r1", 2, 0, None),
            ("r2", 3, 0, None),
            ("r3", 4, 0, None),
        ])
        list(stream)
        for thread in threads:
            thread.join(timeout=30)
        batcher.close()
        assert results["r1"][0] < results["r2"][0] < results["r3"][0]


class TestClientFairness:
    def test_round_robin_across_clients_within_a_band(self, service):
        """A greedy client's backlog cannot starve a later arrival: lanes
        alternate, so client b's requests interleave with a's even though
        every one of a's was admitted first."""
        batcher = CoalescingBatcher(service)
        stream = _blocked_stream(batcher)
        threads, results = _submit_in_order(batcher, [
            ("a1", 2, 0, "a"),
            ("a2", 2, 0, "a"),
            ("a3", 2, 0, "a"),
            ("a4", 2, 0, "a"),
            ("b1", 2, 0, "b"),
            ("b2", 2, 0, "b"),
        ])
        list(stream)
        for thread in threads:
            thread.join(timeout=30)
        batcher.close()
        order = sorted(results, key=lambda tag: results[tag][0])
        assert order == ["a1", "b1", "a2", "b2", "a3", "a4"]

    def test_no_client_starves_under_a_two_worker_server(
            self, populated_registry):
        """End to end through the multi-process tier: a heavy client and a
        light client share a 2-worker server; every request completes and
        the responses still tile one stream."""
        with SynthesisServer(populated_registry, port=0, seed=SEED,
                             server_workers=2) as server:
            outcomes = {"a": [], "b": []}
            errors = []

            def run(client_id, requests):
                try:
                    with SynthesisClient(port=server.port) as client:
                        for _ in range(requests):
                            reply = client.sample("tiny", 8)
                            outcomes[client_id].append(reply["offset"])
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            heavy = threading.Thread(target=run, args=("a", 24))
            light = threading.Thread(target=run, args=("b", 6))
            heavy.start()
            light.start()
            heavy.join(timeout=120)
            light.join(timeout=120)
            assert errors == []
            assert len(outcomes["a"]) == 24
            assert len(outcomes["b"]) == 6
            offsets = sorted(outcomes["a"] + outcomes["b"])
            assert offsets == list(range(0, 240, 8))


class TestClientQuota:
    def test_quota_exceeded_at_the_batcher(self, service):
        batcher = CoalescingBatcher(service, client_quota=1)
        stream = batcher.submit_stream(32, 4, None, 0, "greedy")
        # The unconsumed stream holds greedy's one admission slot
        # (queued or in flight — both count against the quota).
        with pytest.raises(QuotaExceeded) as excinfo:
            batcher.submit(1, None, 0, "greedy")
        assert excinfo.value.client == "greedy"
        assert excinfo.value.quota == 1
        assert excinfo.value.retry_after_s > 0
        # Quota saturation inherits the 429 mapping from QueueSaturated.
        assert isinstance(excinfo.value, QueueSaturated)
        # Anonymous traffic and other clients are untouched.
        list(stream)
        values, _ = batcher.submit(2, None, 0, "patient")
        assert len(values) == 2
        batcher.close()

    def test_quota_is_429_with_retry_after_over_http(self,
                                                     populated_registry):
        with SynthesisServer(populated_registry, port=0, seed=SEED,
                             client_quota=1, stream_threshold_rows=512,
                             stream_chunk_rows=256) as server:
            def sample(client_id, extra_headers=None):
                inner = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=60)
                try:
                    inner.request(
                        "POST", "/models/tiny/sample",
                        body=json.dumps({"n": 8}).encode(),
                        headers={"Content-Type": "application/json",
                                 "X-Client-Id": client_id,
                                 **(extra_headers or {})})
                    response = inner.getresponse()
                    payload = response.read()
                    return response, payload
                finally:
                    inner.close()

            # A large streamed export from "greedy", never consumed: the
            # stream stays in flight and holds the client's quota slot.
            body = json.dumps({"n": 30_000}).encode()
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=60)
            stream_resp = None
            try:
                conn.request("POST", "/models/tiny/sample", body=body,
                             headers={"Content-Type": "application/json",
                                      "X-Client-Id": "greedy"})
                stream_resp = conn.getresponse()
                assert stream_resp.status == 200

                # The quota violation is rejected *at admission* — 429 with
                # Retry-After, instantly, even though the queue itself has
                # plenty of room.
                over, _ = sample("greedy")
                assert over.status == 429
                assert float(over.headers["Retry-After"]) > 0
                # (A different client would be *admitted* here — it only
                # queues behind the outstanding stream; the per-client
                # scoping of the quota is pinned deterministically at the
                # batcher level above.)
            finally:
                # Close the *response* too: conn.close() alone only drops a
                # refcount while the unread HTTPResponse keeps the socket
                # alive, so no RST would reach the blocked server write.
                if stream_resp is not None:
                    stream_resp.close()
                conn.close()  # cancels the abandoned stream

            # With the stream cancelled the quota slot frees up and the
            # same client serves normally again.
            deadline = time.monotonic() + 60
            while True:
                try:
                    ok, payload = sample("greedy")
                    if ok.status == 200:
                        break
                except OSError:
                    pass
                assert time.monotonic() < deadline, "stream never cancelled"
                time.sleep(0.05)
            assert len(json.loads(payload)["rows"]) == 8
