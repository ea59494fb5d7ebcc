"""Sharded sampling: worker-count invariance and deterministic plans."""

import csv
import io
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import ChunkedTableGAN, low_privacy
from repro.cli import main
from repro.core.sampler import RecordSampler
from repro.core.tablegan import TableGAN
from repro.data.datasets import load_dataset
from repro.data.io import row_renderer
from repro.data.schema import ColumnKind, ColumnRole, ColumnSpec, TableSchema
from repro.data.table import Table
from repro.serve import (
    CsvSink,
    ModelRegistry,
    ShardedSampler,
    plan_shards,
    read_npz_chunks,
)
from repro.serve.sharding import IN_FLIGHT_PER_WORKER
from repro.serve.sinks import CsvChunk
from repro.utils.faults import FaultError, FaultPlan
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


class TestSchema:
    """The schema comes from the manifest, so reading it loads no model."""

    def test_tablegan_schema_is_the_loaded_models(self, populated_registry,
                                                  call_probe):
        call_probe.wrap(ModelRegistry, "load")
        schema = ShardedSampler(populated_registry, "tiny").schema
        assert call_probe.records() == []
        assert schema == populated_registry.load("tiny").codec_.schema_

    def test_chunked_schema_is_the_loaded_models(self, tmp_path, adult_bundle,
                                                 tiny_gan_config):
        chunked = ChunkedTableGAN(
            tiny_gan_config.with_overrides(epochs=1), n_chunks=2
        )
        chunked.fit(adult_bundle.train, rng=np.random.default_rng(0))
        registry = ModelRegistry(tmp_path)
        registry.register("chunked", chunked)
        loaded = registry.load("chunked")
        schema = ShardedSampler(registry, "chunked").schema
        assert all(schema == m.codec_.schema_ for m in loaded.models_)


class _RecordingCsvSink(CsvSink):
    """A CSV sink that records, per write, its rows and how many
    ``sample_matrices`` calls had run by then (``calls`` is shared with
    the spy that counts them)."""

    def __init__(self, path, schema, calls):
        super().__init__(path, schema)
        self.calls = calls
        self.writes: list[tuple[int, int]] = []

    def write(self, chunk):
        rows = super().write(chunk)
        self.writes.append((rows, len(self.calls)))
        return rows


@pytest.fixture()
def generate_calls(monkeypatch):
    """The row counts of every in-process ``sample_matrices`` call."""
    calls: list[int] = []
    original = RecordSampler.sample_matrices

    def spy(self, n, *args, **kwargs):
        calls.append(n)
        return original(self, n, *args, **kwargs)

    monkeypatch.setattr(RecordSampler, "sample_matrices", spy)
    return calls


class TestInProcessStreaming:
    """One worker: a CSV sink gets each shard block by block, as decoded."""

    def test_first_write_is_one_block_before_the_next_is_generated(
            self, populated_registry, generate_calls, tmp_path):
        batch = populated_registry.load("tiny").record_sampler().batch_size
        sampler = ShardedSampler(populated_registry, "tiny")
        n = 2 * batch + 40
        with _RecordingCsvSink(tmp_path / "rows.csv", sampler.schema,
                               generate_calls) as sink:
            assert sampler.sample_to_sink(n, sink, seed=5, workers=1) == n
        first_rows, calls_before_first = sink.writes[0]
        assert first_rows <= batch
        assert calls_before_first == 1
        assert [rows for rows, _ in sink.writes] == [batch, batch, 40]
        assert generate_calls == [batch, batch, 40]
        assert (tmp_path / "rows.csv").read_bytes() == row_renderer(
            sampler.schema).csv_text(sampler.sample_values(n, seed=5),
                                     header=True).encode("utf-8")

    def test_chunked_model_writes_once_per_shard(self, tmp_path, adult_bundle,
                                                 tiny_gan_config):
        """Chunked sampling permutes the merged rows, so a shard is one
        block."""
        chunked = ChunkedTableGAN(tiny_gan_config.with_overrides(epochs=1),
                                  n_chunks=2)
        chunked.fit(adult_bundle.train, rng=np.random.default_rng(0))
        registry = ModelRegistry(tmp_path / "registry")
        registry.register("chunked", chunked)
        sampler = ShardedSampler(registry, "chunked", shard_rows=300)
        with _RecordingCsvSink(tmp_path / "rows.csv", sampler.schema,
                               []) as sink:
            assert sampler.sample_to_sink(450, sink, seed=2, workers=1) == 450
        assert [rows for rows, _ in sink.writes] == [300, 150]


@pytest.fixture(scope="module")
def float64_registry(tmp_path_factory):
    """A registry holding ``f64``, a float64 ``TableGAN`` whose generator
    GEMMs (8x8 records, 32 base channels) are large enough that a block of
    another size changes its rows."""
    table = load_dataset("airline", rows=160, seed=0).train
    gan = TableGAN(low_privacy(epochs=1, batch_size=16, base_channels=32,
                               seed=0, dtype="float64"))
    gan.fit(table)
    registry = ModelRegistry(tmp_path_factory.mktemp("float64"))
    registry.register("f64", gan)
    return registry


@pytest.mark.mp
def test_float64_export_with_a_one_row_tail_block_is_worker_invariant(
        float64_registry, tmp_path):
    """Two 512-row shards and a 257-row tail shard, whose last block is one
    row: float64 forwards depend on the batch size, so every block must be
    the chunk the whole-shard path forwards."""
    base = ["synth", "--registry", str(float64_registry.root),
            "--model-name", "f64", "-n", str(2 * 512 + 257), "--seed", "9",
            "--shard-rows", "512"]
    csvs, members = {}, {}
    for workers in (1, 2, 3):
        for suffix in ("csv", "npz"):
            out = tmp_path / f"rows-{workers}.{suffix}"
            assert main([*base, "--workers", str(workers),
                         "--out", str(out)]) == 0
        csvs[workers] = (tmp_path / f"rows-{workers}.csv").read_bytes()
        with np.load(tmp_path / f"rows-{workers}.npz") as archive:
            members[workers] = {k: archive[k] for k in archive.files}
    assert csvs[1] == csvs[2] == csvs[3]
    assert sorted(members[1]) == ["chunk_00000", "chunk_00001",
                                  "chunk_00002", "columns"]
    for workers in (2, 3):
        assert sorted(members[workers]) == sorted(members[1])
        for name, values in members[1].items():
            assert np.array_equal(members[workers][name], values)
    assert members[1]["chunk_00002"].shape[0] == 257


#: Every category needs CSV quoting (a comma, a double quote and a
#: newline) and is non-ASCII, so whichever the generator emits exercises
#: all of it.
QUOTED_VOCABULARY = ('café, "Nord"\nA', 'naïve, "Süd"\nB', 'ö, "Ost"\nC')


@pytest.fixture(scope="module")
def quoting_registry(tmp_path_factory):
    """A registry holding ``quoted``, trained on a table whose categorical
    column uses :data:`QUOTED_VOCABULARY`."""
    rng = np.random.default_rng(0)
    schema = TableSchema([
        ColumnSpec("place", ColumnKind.CATEGORICAL, ColumnRole.QID,
                   QUOTED_VOCABULARY),
        ColumnSpec("age", ColumnKind.DISCRETE, ColumnRole.QID),
        ColumnSpec("income", ColumnKind.CONTINUOUS, ColumnRole.SENSITIVE),
        ColumnSpec("score", ColumnKind.CONTINUOUS, ColumnRole.SENSITIVE),
    ])
    rows = 96
    values = np.column_stack([
        rng.integers(0, len(QUOTED_VOCABULARY), rows),
        rng.integers(18, 90, rows),
        rng.normal(50_000, 9_000, rows),
        rng.random(rows),
    ]).astype(np.float64)
    gan = TableGAN(low_privacy(epochs=1, batch_size=16, base_channels=8,
                               seed=0))
    gan.fit(Table(values, schema))
    registry = ModelRegistry(tmp_path_factory.mktemp("quoting"))
    registry.register("quoted", gan)
    return registry


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


class _SlowCsvSink(CsvSink):
    """:class:`_SlowSink`'s twin for CSV: pool workers render its chunks."""

    def __init__(self, path, schema, started_log):
        super().__init__(path, schema)
        self.started_log = started_log
        self.started_at_write: list[int] = []
        self.chunk_types: set[type] = set()

    def write(self, values):
        with open(self.started_log, encoding="utf-8") as handle:
            self.started_at_write.append(sum(1 for _ in handle))
        self.chunk_types.add(type(values))
        time.sleep(0.05)
        return super().write(values)


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

    def test_rendered_shards_in_flight_are_bounded(self, sampler, call_probe,
                                                   tmp_path):
        """The CSV twin: workers render, and a slow writer still stalls
        dispatch at ``IN_FLIGHT_PER_WORKER × workers`` shards ahead."""
        call_probe.wrap(TableGAN, "sample")
        workers, shards = 2, 16
        with _SlowCsvSink(tmp_path / "rows.csv", sampler.schema,
                          call_probe.path) as sink:
            written = sampler.sample_to_sink(8 * shards, sink, seed=3,
                                             workers=workers)
        assert written == 8 * shards
        assert sink.chunk_types == {CsvChunk}
        window = IN_FLIGHT_PER_WORKER * workers
        ahead = [started - (j + 1)
                 for j, started in enumerate(sink.started_at_write)]
        assert len(ahead) == shards
        assert max(ahead) <= window, sink.started_at_write
        assert max(ahead) >= 2, sink.started_at_write

    @pytest.mark.chaos
    def test_failed_write_leaves_nothing_behind(self, sampler, tmp_path):
        path = tmp_path / "rows.csv"
        with FaultPlan().arm("sink.write", after=1) as plan:
            with pytest.raises(FaultError):
                with CsvSink(path, sampler.schema) as sink:
                    sampler.sample_to_sink(64, sink, seed=3, workers=2)
        assert plan.fired("sink.write") == 1
        assert not path.exists()
        assert [p.name for p in tmp_path.iterdir() if ".tmp-" in p.name] == []
        assert multiprocessing.active_children() == []

    def test_pooled_export_loads_the_model_only_in_workers(
            self, populated_registry, call_probe, tmp_path):
        call_probe.wrap(ModelRegistry, "load")
        out = tmp_path / "rows.csv"
        assert main(["synth", "--registry", str(populated_registry.root),
                     "--model-name", "tiny", "-n", "64", "--shard-rows", "8",
                     "--workers", "2", "--out", str(out)]) == 0
        pids = [pid for pid, _threads in call_probe.records()]
        assert pids and os.getpid() not in pids
        assert len(set(pids)) == len(pids) <= 2  # once per worker

    @pytest.mark.chaos
    def test_corrupt_artifact_fails_a_pooled_export(self, trained_gan,
                                                    tmp_path):
        """Workers load the model; a load error must end the export, not
        leave the pool restarting workers."""
        registry = ModelRegistry(tmp_path / "registry")
        registry.register("m", trained_gan)
        artifact = registry.path_for("m") / "generator.npz"
        blob = bytearray(artifact.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        artifact.write_bytes(bytes(blob))
        out = tmp_path / "rows.csv"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "synth", "--registry",
             str(registry.root), "--model-name", "m", "-n", "64",
             "--shard-rows", "8", "--workers", "2", "--out", str(out)],
            capture_output=True, text=True, timeout=120)
        assert done.returncode != 0
        assert "checksum mismatch" in done.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["registry"]

    def test_quoted_non_ascii_export_is_worker_invariant(self,
                                                         quoting_registry,
                                                         tmp_path):
        base = ["synth", "--registry", str(quoting_registry.root),
                "--model-name", "quoted", "-n", "60", "--seed", "4",
                "--shard-rows", "8"]
        files = {}
        for workers in (1, 2, 3):
            out = tmp_path / f"rows-{workers}.csv"
            assert main([*base, "--workers", str(workers),
                         "--out", str(out)]) == 0
            files[workers] = out.read_bytes()
        assert files[1] == files[2] == files[3]
        # NPZ exports still ship raw values, and the CSV is their rendering.
        npz = tmp_path / "rows.npz"
        assert main([*base, "--workers", "2", "--out", str(npz)]) == 0
        values, _columns = read_npz_chunks(npz)
        sampler = ShardedSampler(quoting_registry, "quoted", shard_rows=8)
        assert np.array_equal(values, sampler.sample_values(60, seed=4))
        assert files[1] == row_renderer(sampler.schema).csv_text(
            values, header=True).encode("utf-8")
        rows = list(csv.reader(io.StringIO(files[1].decode("utf-8"),
                                           newline="")))
        assert len(rows) == 61
        assert {row[0] for row in rows[1:]} <= set(QUOTED_VOCABULARY)
