"""SynthesisService: micro-batching, pooling, stream determinism, threads."""

import threading

import numpy as np
import pytest

from repro.serve import SynthesisService


class TestRequests:
    def test_sample_table_shape_and_schema(self, trained_gan, adult_bundle):
        service = SynthesisService(trained_gan, seed=0)
        table = service.sample(9)
        assert table.n_rows == 9
        assert table.schema == adult_bundle.train.schema

    def test_responses_continue_one_stream(self, trained_gan):
        """Concatenated responses == one direct sampler call: request
        batching must never change the record stream."""
        service = SynthesisService(trained_gan, pool_size=32, seed=5)
        parts = [service.sample_records(n) for n in (3, 5, 7)]
        direct = trained_gan.record_sampler().sample_records(
            15, rng=np.random.default_rng(5)
        )
        assert np.array_equal(np.concatenate(parts), direct)

    def test_decoded_matches_encoded_stream(self, trained_gan):
        service = SynthesisService(trained_gan, seed=5)
        table = service.sample(10)
        direct = trained_gan.record_sampler().sample_table(
            10, rng=np.random.default_rng(5)
        )
        assert np.array_equal(table.values, direct.values)

    def test_rejects_bad_requests(self, trained_gan):
        service = SynthesisService(trained_gan, seed=0)
        with pytest.raises(ValueError):
            service.sample_records(0)
        with pytest.raises(ValueError):
            service.sample_many([4, 0])
        with pytest.raises(TypeError):
            SynthesisService(object())
        with pytest.raises(ValueError):
            SynthesisService(trained_gan, pool_size=-1)
        with pytest.raises(ValueError):
            SynthesisService(trained_gan, batch_rows=0)


class TestMicroBatching:
    def test_sample_many_slices_one_block(self, trained_gan):
        service = SynthesisService(trained_gan, seed=7)
        counts = [4, 1, 6, 3]
        tables = service.sample_many(counts)
        assert [t.n_rows for t in tables] == counts
        direct = trained_gan.record_sampler().sample_table(
            sum(counts), rng=np.random.default_rng(7)
        )
        stacked = np.concatenate([t.values for t in tables])
        assert np.array_equal(stacked, direct.values)

    def test_sample_many_is_one_generator_call(self, trained_gan):
        service = SynthesisService(trained_gan, seed=0, batch_rows=1024)
        service.sample_many_records([8] * 16)
        assert service.stats.generator_calls == 1
        assert service.stats.requests == 16
        assert service.stats.rows_served == 128

    def test_empty_request_list(self, trained_gan):
        service = SynthesisService(trained_gan, seed=0)
        assert service.sample_many([]) == []
        assert service.stats.requests == 0


class TestPool:
    def test_pool_replenishes_in_blocks(self, trained_gan):
        service = SynthesisService(trained_gan, pool_size=64, seed=1)
        service.sample_records(5)
        assert service.stats.rows_generated == 64
        assert service.pooled_rows == 59

    def test_sub_batch_requests_hit_the_pool(self, trained_gan):
        service = SynthesisService(trained_gan, pool_size=64, seed=1)
        service.sample_records(5)
        calls = service.stats.generator_calls
        for n in (7, 9, 11):
            service.sample_records(n)
        assert service.stats.generator_calls == calls
        assert service.stats.pool_hits == 3

    def test_pool_disabled_generates_exactly_what_is_needed(self, trained_gan):
        service = SynthesisService(trained_gan, pool_size=0, seed=1)
        service.sample_records(5)
        assert service.stats.rows_generated == 5
        assert service.pooled_rows == 0


class TestTakeBlock:
    def test_reports_stream_offsets(self, trained_gan):
        service = SynthesisService(trained_gan, seed=5)
        first, base_1 = service.take_block([3, 4])
        second, base_2 = service.take_block([6])
        assert (base_1, base_2) == (0, 7)
        assert [block.shape[0] for block in first] == [3, 4]
        assert service.stream_position == 13
        direct = trained_gan.record_sampler().sample_table(
            13, rng=np.random.default_rng(5)
        )
        stacked = np.concatenate([*first, *second])
        assert np.array_equal(stacked, direct.values)

    def test_empty_batch(self, trained_gan):
        service = SynthesisService(trained_gan, seed=5)
        blocks, base = service.take_block([])
        assert blocks == [] and base == 0


class TestReplenish:
    def test_replenish_pre_generates_without_claiming(self, trained_gan):
        service = SynthesisService(trained_gan, pool_size=32, seed=6)
        assert service.replenish() == 32
        assert service.pooled_rows == 32
        assert service.stream_position == 0
        assert service.replenish() == 0  # already full
        assert service.replenish(target=0) == 0
        # Read-ahead is invisible to the stream contract: the next sample
        # still serves the stream head, bit-identical to a direct run.
        got = service.sample(40)
        direct = trained_gan.record_sampler().sample_table(
            40, rng=np.random.default_rng(6)
        )
        assert np.array_equal(got.values, direct.values)

    def test_read_ahead_timing_does_not_change_the_stream(self, trained_gan):
        """A read-ahead after the 513-row request tops a 1024-row pool up by
        513 rows, the last forwarded alone; one request later it generates
        514.  Both streams equal the direct draw (float32 model)."""
        counts = (513, 1, 600, 600)

        def stream(read_ahead_after):
            service = SynthesisService(trained_gan, pool_size=1024, seed=9)
            parts = []
            for i, n in enumerate(counts):
                parts.append(service.sample_records(n))
                if i == read_ahead_after:
                    service.replenish()
            return np.concatenate(parts)

        direct = trained_gan.record_sampler().sample_records(
            sum(counts), rng=np.random.default_rng(9)
        )
        assert np.array_equal(stream(0), direct)
        assert np.array_equal(stream(1), direct)

    def test_replenish_disabled_without_pool(self, trained_gan):
        service = SynthesisService(trained_gan, pool_size=0, seed=6)
        assert service.replenish() == 0
        assert service.pooled_rows == 0


class TestThreadSafety:
    def test_concurrent_callers_partition_the_stream(self, trained_gan):
        """The pool and stats survive concurrent callers: every response
        is a contiguous slice, the slices are disjoint, and together they
        tile one seeded record stream with no duplicates."""
        service = SynthesisService(trained_gan, pool_size=48, seed=9)
        per_thread = [(3, 1, 5), (2, 7, 4), (6, 2, 2), (1, 8, 3),
                      (4, 4, 1), (5, 3, 2)]
        results = []
        results_lock = threading.Lock()

        def worker(counts):
            for n in counts:
                blocks, base = service.take_block([n])
                with results_lock:
                    results.append((base, blocks[0]))

        threads = [threading.Thread(target=worker, args=(counts,))
                   for counts in per_thread]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = sum(sum(counts) for counts in per_thread)
        n_requests = sum(len(counts) for counts in per_thread)
        assert service.stats.requests == n_requests
        assert service.stats.rows_served == total
        assert service.stream_position == total
        assert service.stats.rows_generated >= total
        assert service.pooled_rows == service.stats.rows_generated - total

        # No duplicate or overlapping slices: offsets + lengths tile
        # [0, total) exactly ...
        results.sort(key=lambda item: item[0])
        position = 0
        for base, block in results:
            assert base == position
            position += block.shape[0]
        assert position == total
        # ... and the tiled content is bit-identical to one direct run.
        direct = trained_gan.record_sampler().sample_table(
            total, rng=np.random.default_rng(9)
        )
        stacked = np.concatenate([block for _, block in results])
        assert np.array_equal(stacked, direct.values)

    def test_concurrent_sample_records_keep_stats_consistent(self,
                                                             trained_gan):
        service = SynthesisService(trained_gan, pool_size=32, seed=2)

        def worker():
            for n in (2, 3, 4):
                service.sample_records(n)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert service.stats.requests == 24
        assert service.stats.rows_served == 8 * 9
        assert service.stream_position == 8 * 9


class TestInferenceMode:
    def test_serving_does_not_perturb_batchnorm(self, trained_gan):
        from repro.nn import BatchNorm

        bns = [
            layer for layer in trained_gan.generator_
            if isinstance(layer, BatchNorm)
        ]
        before = [(bn.running_mean.copy(), bn.running_var.copy()) for bn in bns]
        SynthesisService(trained_gan, pool_size=32, seed=2).sample(48)
        for bn, (mean, var) in zip(bns, before):
            assert np.array_equal(bn.running_mean, mean)
            assert np.array_equal(bn.running_var, var)
