"""The multi-process serving tier: worker processes over a shared pool.

The contract under test is the PR 9 tentpole: a
:class:`WorkerPoolService` of N worker processes generating into a
shared-memory ring must be **byte-identical** to the in-process
:class:`SynthesisService` for the same seeded stream — across worker
counts, across crash/retry recovery, and on both the block (generate)
and pooled (zero-copy fast) paths — while leaving no shared-memory
segments behind when it closes.

Small batch geometry everywhere: the ring wraps several times per test,
so slot recycling (the part that could silently corrupt the stream) is
always exercised.
"""

import gc
import os
import signal
import time

import numpy as np
import pytest

from repro.core.sampler import RecordSampler
from repro.serve import SynthesisService
from repro.serve.server import WorkerPoolError, WorkerPoolService
from repro.utils.faults import FaultPlan
from repro.utils.threads import blas_threads, usable_cores

BATCH = 64


def make_pool(populated_registry, **overrides):
    kwargs = dict(workers=2, pool_size=128, batch_rows=BATCH, seed=3,
                  restart_backoff_s=0.001)
    kwargs.update(overrides)
    return WorkerPoolService(populated_registry, "tiny", **kwargs)


def reference_stream(trained_gan, total, counts):
    """The same slices taken from the in-process threaded service."""
    service = SynthesisService(trained_gan, pool_size=128, batch_rows=BATCH,
                               seed=3)
    taken, base = service.take_block(counts)
    assert base == 0
    return taken


def drain_blocks(pool, counts):
    taken, base = pool.take_block(counts)
    return taken, base


def shm_segments():
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    return sorted(name for name in os.listdir("/dev/shm")
                  if name.startswith("rpool"))


class TestBitEquality:
    def test_mixed_block_takes_match_threaded_service(self, populated_registry,
                                                      trained_gan):
        counts = [13, 50, 1, 200, 64, 300, 7, 7, 100]
        expected = reference_stream(trained_gan, sum(counts), counts)
        pool = make_pool(populated_registry)
        try:
            taken, base = drain_blocks(pool, counts)
            assert base == 0
            for got, want in zip(taken, expected):
                np.testing.assert_array_equal(got, want)
        finally:
            pool.close()

    def test_stream_is_worker_count_invariant(self, populated_registry):
        counts = [40, 9, 111, 64, 200]
        streams = {}
        for workers in (1, 3):
            pool = make_pool(populated_registry, workers=workers)
            try:
                taken, base = drain_blocks(pool, counts)
                assert base == 0
                streams[workers] = np.concatenate(taken)
            finally:
                pool.close()
        np.testing.assert_array_equal(streams[1], streams[3])

    def test_pooled_fast_path_is_zero_copy_and_identical(self,
                                                         populated_registry,
                                                         trained_gan):
        expected = reference_stream(trained_gan, 32, [32])[0]
        pool = make_pool(populated_registry)
        try:
            deadline = time.monotonic() + 30
            while pool.pooled_rows < 32:
                pool.replenish()
                assert time.monotonic() < deadline, "pool never filled"
                time.sleep(0.005)
            hit = pool.take_pooled(32)
            assert hit is not None
            values, offset = hit
            assert offset == 0
            np.testing.assert_array_equal(values, expected)
            # The fast path serves a read-only *view* of the shared ring,
            # not a copy — the tentpole's zero-copy claim.
            assert not values.flags.writeable
            assert values.base is not None
            del values, hit
            gc.collect()  # release the slot leases before teardown
        finally:
            pool.close()


class TestBlasThreadBudget:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_workers_take_their_share(self, populated_registry, blas_probe,
                                      workers):
        default = blas_threads()
        blas_probe.wrap(RecordSampler, "records_from_latents")
        pool = make_pool(populated_registry, workers=workers)
        try:
            drain_blocks(pool, [4 * BATCH])
        finally:
            pool.close()
        records = blas_probe.records()
        assert records
        assert os.getpid() not in {pid for pid, _count in records}
        assert {count for _pid, count in records} == {
            max(1, usable_cores() // workers)}
        # The front end (a threaded server process) keeps its default.
        assert blas_threads() == default


class TestCrashRecovery:
    def test_sigkill_mid_stream_is_transparent_and_bit_exact(
            self, populated_registry, trained_gan):
        counts = [100, 300, 250, 64, 86]
        expected = reference_stream(trained_gan, 800, [800])[0]
        pool = make_pool(populated_registry)
        try:
            first, base = pool.take_block(counts[:1])
            assert base == 0
            os.kill(pool.worker_info()["pids"][0], signal.SIGKILL)
            rest, _ = pool.take_block(counts[1:])
            got = np.concatenate(first + rest)
            np.testing.assert_array_equal(got, expected)
            info = pool.worker_info()
            assert info["crashes"] >= 1
            deadline = time.monotonic() + 30
            while pool.worker_info()["alive"] < 2:
                assert time.monotonic() < deadline, "worker never respawned"
                time.sleep(0.005)
            assert pool.health == "ok"
        finally:
            pool.close()

    def test_fault_seam_kills_propagate_into_forked_workers(
            self, populated_registry):
        # SystemExit armed at pool.block escapes the worker loop's
        # ``except Exception`` and kills the process — the fork-inherited
        # deterministic stand-in for a real SIGKILL at the seam.
        # Every respawned worker forks a fresh copy of the armed plan (the
        # parent never traverses the seam), so each worker life completes
        # one block then dies; queued blocks collect one lost attempt per
        # crash while assigned, hence the generous block_retries.
        plan = FaultPlan().arm("pool.block", "raise", after=1,
                               exc=SystemExit(13))
        with plan:
            pool = make_pool(populated_registry, workers=1, block_retries=10)
            try:
                taken, base = pool.take_block([150, 150])
                assert base == 0
                assert sum(len(t) for t in taken) == 300
                assert pool.worker_info()["crashes"] >= 1
            finally:
                pool.close()

    def test_crash_streak_past_max_restarts_fails_the_pool(
            self, populated_registry):
        plan = FaultPlan().arm("pool.block", "raise", times=None,
                               exc=SystemExit(13))
        with plan:
            pool = make_pool(populated_registry, workers=1, max_restarts=2)
            try:
                with pytest.raises(WorkerPoolError):
                    pool.take_block([BATCH])
                assert pool.health == "dead"
            finally:
                pool.close()


class TestShmHygiene:
    def test_close_unlinks_every_segment(self, populated_registry):
        before = shm_segments()
        pool = make_pool(populated_registry)
        try:
            pool.take_block([32])
            assert len(shm_segments()) > len(before)
        finally:
            pool.close()
        assert shm_segments() == before

    def test_no_leak_after_chaos_kill(self, populated_registry):
        before = shm_segments()
        pool = make_pool(populated_registry)
        try:
            pool.take_block([32])
            for pid in pool.worker_info()["pids"]:
                if pid:
                    os.kill(pid, signal.SIGKILL)
            # Recovery respawns workers and the stream continues.
            taken, _ = pool.take_block([96])
            assert sum(len(t) for t in taken) == 96
        finally:
            pool.close()
        assert shm_segments() == before

    def test_close_is_idempotent(self, populated_registry):
        pool = make_pool(populated_registry)
        pool.take_block([16])
        pool.close()
        pool.close()
        assert pool.health == "dead"
