"""Sharded sampling: worker-count invariance and deterministic plans."""

import os
import time

import numpy as np
import pytest

from repro.core.tablegan import TableGAN
from repro.serve import CsvSink, ShardedSampler, plan_shards
from repro.serve.sharding import IN_FLIGHT_PER_WORKER
from repro.utils.threads import blas_threads, usable_cores


class TestPlan:
    def test_rows_partitioned_exactly(self):
        shards = plan_shards(100, 32, seed=0)
        assert [s.rows for s in shards] == [32, 32, 32, 4]
        assert [s.index for s in shards] == [0, 1, 2, 3]

    def test_plan_is_deterministic_and_seed_sensitive(self):
        a = plan_shards(64, 16, seed=1)
        b = plan_shards(64, 16, seed=1)
        c = plan_shards(64, 16, seed=2)
        key = lambda shards: [s.seed.generate_state(2).tolist() for s in shards]
        assert key(a) == key(b)
        assert key(a) != key(c)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            plan_shards(0, 16)
        with pytest.raises(ValueError):
            plan_shards(16, 0)


class TestShardedSampler:
    @pytest.fixture(scope="class")
    def sampler(self, populated_registry):
        return ShardedSampler(populated_registry, "tiny", shard_rows=16)

    def test_unknown_model_rejected(self, populated_registry):
        with pytest.raises(ValueError, match="no model named"):
            ShardedSampler(populated_registry, "missing")

    def test_output_invariant_to_worker_count(self, sampler):
        """The acceptance property: bit-identical output for any --workers."""
        inline = sampler.sample_values(40, seed=7, workers=1)
        two = sampler.sample_values(40, seed=7, workers=2)
        three = sampler.sample_values(40, seed=7, workers=3)
        assert np.array_equal(inline, two)
        assert np.array_equal(inline, three)

    def test_table_output_matches_registry_model(self, sampler,
                                                 populated_registry):
        table = sampler.sample_table(20, seed=3, workers=2)
        assert table.n_rows == 20
        model = populated_registry.load("tiny")
        shard = plan_shards(20, 16, seed=3)[0]
        want = model.sample(shard.rows, rng=np.random.default_rng(shard.seed))
        assert np.array_equal(table.values[: shard.rows], want.values)

    def test_sink_streaming_equals_in_memory(self, sampler, tmp_path):
        values = sampler.sample_values(40, seed=7, workers=2)
        path = tmp_path / "rows.csv"
        with CsvSink(path, sampler.schema) as sink:
            written = sampler.sample_to_sink(40, sink, seed=7, workers=2)
        assert written == 40
        from repro.data.io import write_csv
        from repro.data.table import Table

        reference = tmp_path / "reference.csv"
        write_csv(Table(values, sampler.schema), reference)
        assert path.read_text() == reference.read_text()

    def test_seed_changes_output(self, sampler):
        a = sampler.sample_values(20, seed=1, workers=1)
        b = sampler.sample_values(20, seed=2, workers=1)
        assert not np.array_equal(a, b)


class _SlowSink:
    """A sink slower than the workers that counts the shards started by
    the time each write begins (workers log a line per shard started)."""

    def __init__(self, started_log):
        self.started_log = started_log
        self.started_at_write: list[int] = []

    def write(self, values):
        with open(self.started_log, encoding="utf-8") as handle:
            self.started_at_write.append(sum(1 for _ in handle))
        time.sleep(0.05)
        return values.shape[0]


@pytest.mark.mp
class TestPool:
    @pytest.fixture()
    def sampler(self, populated_registry):
        return ShardedSampler(populated_registry, "tiny", shard_rows=8)

    def test_workers_take_their_share_of_blas_threads(self, sampler,
                                                       blas_probe):
        blas_probe.wrap(TableGAN, "sample")
        sampler.sample_values(64, seed=1, workers=2)
        records = blas_probe.records()
        assert len(records) == 8
        assert os.getpid() not in {pid for pid, _count in records}
        assert {count for _pid, count in records} == {
            max(1, usable_cores() // 2)}

    def test_in_process_sampling_keeps_the_default(self, sampler,
                                                   blas_probe):
        default = blas_threads()
        blas_probe.wrap(TableGAN, "sample")
        sampler.sample_values(24, seed=1, workers=1)
        assert set(blas_probe.records()) == {(os.getpid(), default)}

    def test_shards_in_flight_are_bounded(self, sampler, call_probe):
        """A slow sink stalls dispatch: while shard ``j`` is written, at
        most ``IN_FLIGHT_PER_WORKER × workers`` later shards have started."""
        call_probe.wrap(TableGAN, "sample")
        sink = _SlowSink(call_probe.path)
        workers, shards = 2, 16
        written = sampler.sample_to_sink(8 * shards, sink, seed=3,
                                         workers=workers)
        assert written == 8 * shards
        window = IN_FLIGHT_PER_WORKER * workers
        ahead = [started - (j + 1)
                 for j, started in enumerate(sink.started_at_write)]
        assert len(ahead) == shards
        assert max(ahead) <= window, sink.started_at_write
        # Workers still run ahead of the sink (each write sleeps 50 ms,
        # ample time to start the next dispatched shards).
        assert max(ahead) >= 2, sink.started_at_write
