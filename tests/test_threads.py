"""BLAS thread budget: the helpers, single-process defaults, bit-identity.

Forked workers take ``max(1, usable_cores() // N)`` BLAS threads; their
tests live beside each forking path (sharded sampling, data-parallel
training, the serving worker pool).  This module covers the helpers and
the paths that must keep the library default, and pins that the thread
count changes no output bit.
"""

import hashlib
import os

import numpy as np
import pytest

from repro.core.sampler import RecordSampler
from repro.serve import SynthesisService
from repro.utils import threads


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.fixture()
def openblas():
    default = threads.blas_threads()
    if default is None:
        pytest.skip("numpy's BLAS is not OpenBLAS: no thread count to set")
    yield default
    threads.set_blas_threads(default)


def _under_threads(count: int, compute):
    previous = threads.set_blas_threads(count)
    try:
        assert threads.blas_threads() == count
        return compute()
    finally:
        threads.set_blas_threads(previous)


class TestHelpers:
    def test_usable_cores_is_the_affinity_mask(self):
        assert threads.usable_cores() == len(os.sched_getaffinity(0))

    def test_set_returns_previous_and_get_reads_back(self, openblas):
        assert threads.set_blas_threads(1) == openblas
        assert threads.blas_threads() == 1
        assert threads.set_blas_threads(openblas) == 1

    def test_budget_is_an_equal_share_of_the_cores(self, openblas):
        cores = threads.usable_cores()
        for processes in (1, 2, 3, cores + 1):
            assert threads.budget_blas_threads(processes) is not None
            assert threads.blas_threads() == max(1, cores // processes)

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError):
            threads.set_blas_threads(0)

    def test_no_openblas_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(threads, "_openblas", lambda: None)
        assert threads.blas_threads() is None
        assert threads.set_blas_threads(1) is None
        assert threads.budget_blas_threads(2) is None


class TestBitIdentityAcrossThreadCounts:
    def test_float32_gemm(self, openblas):
        # The Airline generator's first transposed convolution (64 -> 32
        # channels, 4x4 kernel, 2x2 input) on a 2,048-row block.
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2048 * 4, 64), dtype=np.float32)
        b = rng.standard_normal((64, 32 * 16), dtype=np.float32)
        one = _under_threads(1, lambda: _digest(a @ b))
        two = _under_threads(2, lambda: _digest(a @ b))
        assert one == two

    def test_4096_row_sample(self, openblas, trained_gan):
        def sample():
            rng = np.random.default_rng(4096)
            return _digest(trained_gan.sample(4096, rng=rng).values)

        assert _under_threads(1, sample) == _under_threads(2, sample)


class TestSingleProcessPathsKeepTheDefault:
    def test_serial_fit(self, openblas, adult_bundle, tiny_gan_config):
        from repro import TableGAN

        seen = []
        gan = TableGAN(tiny_gan_config.with_overrides(epochs=1))
        gan.fit(adult_bundle.train.head(64),
                on_epoch_end=lambda epoch, losses: seen.append(
                    threads.blas_threads()))
        assert seen == [openblas]

    def test_threaded_service(self, openblas, trained_gan, blas_probe):
        blas_probe.wrap(RecordSampler, "records_from_latents")
        blas_probe.wrap(RecordSampler, "sample_matrices")
        service = SynthesisService(trained_gan, pool_size=64, batch_rows=32,
                                   seed=0)
        service.take_block([40])
        records = blas_probe.records()
        assert records
        assert {count for _pid, count in records} == {openblas}
        assert {pid for pid, _count in records} == {os.getpid()}
