"""Streaming sinks: chunked writes, atomic commit, and format round trips."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.data.io import row_renderer, write_csv
from repro.data.schema import ColumnKind, ColumnRole, ColumnSpec, TableSchema
from repro.serve import CsvSink, NpzSink, read_npz_chunks
from repro.serve.sinks import CsvChunk


@pytest.fixture()
def table(adult_bundle):
    return adult_bundle.train.head(12)


class TestCsvSink:
    def test_chunked_writes_equal_write_csv(self, table, tmp_path):
        whole = tmp_path / "whole.csv"
        write_csv(table, whole)
        streamed = tmp_path / "streamed.csv"
        with CsvSink(streamed, table.schema) as sink:
            for start in range(0, table.n_rows, 5):
                sink.write(table.values[start : start + 5])
            assert sink.rows_written == table.n_rows
        assert streamed.read_text() == whole.read_text()

    def test_decodes_categoricals(self, table, tmp_path):
        path = tmp_path / "rows.csv"
        with CsvSink(path, table.schema) as sink:
            sink.write(table.values)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        sex_idx = rows[0].index("sex")
        assert rows[1][sex_idx] in ("female", "male")

    def test_nothing_at_final_path_until_close(self, table, tmp_path):
        path = tmp_path / "rows.csv"
        sink = CsvSink(path, table.schema)
        sink.write(table.values)
        assert not path.exists()
        sink.close()
        assert path.exists()

    def test_exception_discards_partial_output(self, table, tmp_path):
        path = tmp_path / "rows.csv"
        with pytest.raises(RuntimeError, match="boom"):
            with CsvSink(path, table.schema) as sink:
                sink.write(table.values)
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_write_after_close_rejected(self, table, tmp_path):
        sink = CsvSink(tmp_path / "rows.csv", table.schema)
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.write(table.values)

    def test_prerendered_chunks_equal_values(self, table, tmp_path):
        """Chunks rendered ahead (as pool workers do) write the same bytes."""
        whole = tmp_path / "whole.csv"
        write_csv(table, whole)
        streamed = tmp_path / "streamed.csv"
        with CsvSink(streamed, table.schema) as sink:
            render = sink.chunk_renderer
            for start in range(0, table.n_rows, 5):
                chunk = render(table.values[start : start + 5])
                assert isinstance(chunk, CsvChunk)
                assert sink.write(chunk) == chunk.rows
            assert sink.rows_written == table.n_rows
        assert streamed.read_bytes() == whole.read_bytes()


#: Writes and reads back a non-ASCII table with write_csv and CsvSink,
#: under whatever locale the interpreter was started in.
_LOCALE_SCRIPT = """
import json, locale, sys
import numpy as np
from repro.data.io import read_csv, write_csv
from repro.data.table import Table
from repro.data.schema import TableSchema
from repro.serve import CsvSink

out, schema, values = sys.argv[1], TableSchema.from_dict(
    json.loads(sys.argv[2])), np.array(json.loads(sys.argv[3]))
write_csv(Table(values, schema), out + "/written.csv")
with CsvSink(out + "/sunk.csv", schema) as sink:
    sink.write(values)
print(json.dumps({
    "encoding": locale.getpreferredencoding(False),
    "read": [read_csv(out + name).decode_column("city")
             for name in ("/written.csv", "/sunk.csv")],
}))
"""


class TestUtf8:
    SCHEMA = TableSchema([
        ColumnSpec("city", ColumnKind.CATEGORICAL, ColumnRole.SENSITIVE,
                   ("café", "Zürich, \"Nord\"", "plain")),
        ColumnSpec("age", ColumnKind.DISCRETE, ColumnRole.QID),
    ])
    VALUES = [[0.0, 31.0], [1.0, 42.0], [2.0, 57.0], [0.0, 18.0]]

    def test_csv_is_utf8_under_the_c_locale(self, tmp_path):
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
                   PYTHONUTF8="0")
        done = subprocess.run(
            [sys.executable, "-c", _LOCALE_SCRIPT, str(tmp_path),
             json.dumps(self.SCHEMA.to_dict()), json.dumps(self.VALUES)],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if result["encoding"].replace("-", "").lower() == "utf8":
            pytest.skip("the C locale is UTF-8 on this platform")
        values = np.array(self.VALUES)
        want = row_renderer(self.SCHEMA).csv_text(values, header=True)
        for name in ("written.csv", "sunk.csv"):
            assert (tmp_path / name).read_bytes() == want.encode("utf-8")
        city = ["café", "Zürich, \"Nord\"", "plain", "café"]
        assert result["read"] == [city, city]


class TestNpzSink:
    def test_chunked_round_trip(self, table, tmp_path):
        path = tmp_path / "rows.npz"
        with NpzSink(path, columns=table.schema.names) as sink:
            for start in range(0, table.n_rows, 5):
                sink.write(table.values[start : start + 5])
        values, columns = read_npz_chunks(path)
        assert np.array_equal(values, table.values)
        assert columns == table.schema.names

    def test_without_columns(self, table, tmp_path):
        path = tmp_path / "rows.npz"
        with NpzSink(path) as sink:
            sink.write(table.values)
        values, columns = read_npz_chunks(path)
        assert np.array_equal(values, table.values)
        assert columns is None

    def test_archive_is_plain_npz(self, table, tmp_path):
        """The output loads with np.load alone — no custom reader required."""
        path = tmp_path / "rows.npz"
        with NpzSink(path) as sink:
            sink.write(table.values[:4])
            sink.write(table.values[4:])
        with np.load(path) as archive:
            assert sorted(archive.files) == ["chunk_00000", "chunk_00001"]

    def test_exception_discards_partial_output(self, table, tmp_path):
        path = tmp_path / "rows.npz"
        with pytest.raises(RuntimeError):
            with NpzSink(path) as sink:
                sink.write(table.values)
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_rejects_bad_chunks(self, table, tmp_path):
        with NpzSink(tmp_path / "a.npz", columns=("x", "y")) as sink:
            with pytest.raises(ValueError, match="columns"):
                sink.write(np.zeros((3, 5)))
            with pytest.raises(ValueError, match="2-D"):
                sink.write(np.zeros(3))
            sink.write(np.zeros((3, 2)))

    def test_empty_archive_read_rejected(self, tmp_path):
        path = tmp_path / "empty.npz"
        with NpzSink(path):
            pass
        assert os.path.exists(path)
        with pytest.raises(ValueError, match="no chunk members"):
            read_npz_chunks(path)

    def test_chunks_reassemble_numerically_past_padding_overflow(self,
                                                                 tmp_path):
        """chunk_100000 (6 digits) must sort after chunk_99999, not before."""
        import zipfile

        path = tmp_path / "wide.npz"
        with zipfile.ZipFile(path, "w") as archive:
            for index, value in ((99999, 1.0), (100000, 2.0)):
                with archive.open(f"chunk_{index:05d}.npy", "w") as handle:
                    np.lib.format.write_array(
                        handle, np.full((1, 2), value), allow_pickle=False
                    )
        values, _ = read_npz_chunks(path)
        assert np.array_equal(values[:, 0], [1.0, 2.0])
