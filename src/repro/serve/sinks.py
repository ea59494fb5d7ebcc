"""Streaming output sinks: multi-million-row synthesis in bounded memory.

A sink accepts decoded table values chunk by chunk (each chunk typically
one shard from :class:`~repro.serve.sharding.ShardedSampler`) and writes
them to disk immediately, so the sink itself holds one chunk at a time
regardless of total output size (the CSV sink renders that chunk in
bounded blocks of rows).  Both sinks are **atomic**: content goes to a
temporary file next to the destination and is committed with
``os.replace`` on a clean close; on error (or ``close(commit=False)``) the
temporary file is removed and the destination is never touched — a
crashed million-row export leaves no half-written file behind.

A sink may also name a :attr:`~CsvSink.chunk_renderer`: a picklable
function that turns a value matrix into a chunk its ``write`` accepts.
The sharded sampler runs it in the pool worker that sampled the shard, so
the process that owns the sink only writes.

* :class:`CsvSink` — schema-aware CSV with categorical codes decoded to
  their vocabulary strings, rendered column by column by the
  :class:`~repro.data.io.RowRenderer` that :func:`repro.data.io.write_csv`
  and the server's CSV responses share.  Files are UTF-8 under any
  locale.  A chunk is a value matrix (rendered in the sink, 256 rows at a
  time, straight to bytes) or a :class:`CsvChunk` rendered ahead by
  :func:`render_csv_chunk`.
* :class:`NpzSink` — a ``np.load``-compatible ``.npz`` archive written
  incrementally: each chunk becomes one ``chunk_NNNNN`` member (plus a
  ``columns`` member), so neither writer nor reader ever needs the full
  matrix in memory at once.  :func:`read_npz_chunks` reassembles it.
"""

from __future__ import annotations

import functools
import os
import zipfile
from typing import NamedTuple

import numpy as np

from repro.data.io import row_renderer
from repro.data.schema import TableSchema
from repro.data.table import Table
from repro.utils.faults import fault_point


class _AtomicSink:
    """Shared temp-file lifecycle: write to ``.tmp``, commit via replace."""

    def __init__(self, path):
        self.path = os.fspath(path)
        self._tmp = f"{self.path}.tmp-{os.getpid()}"
        self.rows_written = 0
        self._closed = False

    def _commit_payload(self) -> None:
        """Hook: flush and close the underlying writer."""
        raise NotImplementedError

    def close(self, commit: bool = True) -> None:
        """Finish the sink; commit moves the temp file to the final path."""
        if self._closed:
            return
        self._closed = True
        try:
            self._commit_payload()
        except BaseException:
            commit = False
            raise
        finally:
            if commit:
                os.replace(self._tmp, self.path)
            else:
                try:
                    os.unlink(self._tmp)
                except OSError:
                    pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close(commit=exc_type is None)
        return False


class CsvChunk(NamedTuple):
    """CSV rows rendered ahead of the sink: ``rows`` rows as UTF-8 ``data``."""

    rows: int
    data: bytes


def render_csv_chunk(schema: TableSchema, values: np.ndarray) -> CsvChunk:
    """``values``' rows as the bytes a :class:`CsvSink` of ``schema`` writes."""
    return CsvChunk(len(values), row_renderer(schema).csv_bytes(values))


class CsvSink(_AtomicSink):
    """Append decoded table rows to a UTF-8 CSV file, chunk by chunk.

    Parameters
    ----------
    path:
        Final CSV path (written atomically on close).
    schema:
        Table schema; drives the header and categorical decoding.
    """

    def __init__(self, path, schema: TableSchema):
        super().__init__(path)
        self.schema = schema
        self._renderer = row_renderer(schema)
        self._handle = open(self._tmp, "wb")
        self._handle.write(self._renderer.csv_header.encode("utf-8"))

    @property
    def chunk_renderer(self):
        """Picklable ``values -> CsvChunk`` for rendering in another process."""
        return functools.partial(render_csv_chunk, self.schema)

    def write(self, chunk) -> int:
        """Write one chunk (a value matrix, a Table or a :class:`CsvChunk`);
        returns its row count."""
        if self._closed:
            raise ValueError("sink is closed")
        # Injection seam: a raise mid-export must abort the temp file and
        # leave the destination untouched (the atomicity contract).
        fault_point("sink.write")
        if isinstance(chunk, CsvChunk):
            self._handle.write(chunk.data)
            self.rows_written += chunk.rows
            return chunk.rows
        table = chunk if isinstance(chunk, Table) else Table(
            np.asarray(chunk), self.schema
        )
        if table.schema is not self.schema and table.schema != self.schema:
            raise ValueError("chunk schema does not match the sink schema")
        for block in self._renderer.csv_byte_blocks(table.values):
            self._handle.write(block)
        self.rows_written += table.n_rows
        return table.n_rows

    def _commit_payload(self) -> None:
        self._handle.close()


class NpzSink(_AtomicSink):
    """Stream value chunks into a ``np.load``-compatible ``.npz`` archive.

    Each :meth:`write` call appends one ``chunk_NNNNN`` member; close adds
    a ``columns`` member naming the columns.  Compression is per member,
    so memory stays bounded by the largest single chunk.
    """

    def __init__(self, path, columns=None):
        super().__init__(path)
        self.columns = tuple(columns) if columns is not None else None
        self._zip = zipfile.ZipFile(self._tmp, "w", zipfile.ZIP_DEFLATED,
                                    allowZip64=True)
        self._n_chunks = 0

    def _write_member(self, name: str, values: np.ndarray) -> None:
        with self._zip.open(f"{name}.npy", "w") as handle:
            np.lib.format.write_array(handle, values, allow_pickle=False)

    def write(self, values) -> int:
        """Write one chunk of rows; returns its row count."""
        if self._closed:
            raise ValueError("sink is closed")
        fault_point("sink.write")
        values = values.values if isinstance(values, Table) else values
        values = np.ascontiguousarray(values)
        if values.ndim != 2:
            raise ValueError(f"chunks must be 2-D, got shape {values.shape}")
        if self.columns is not None and values.shape[1] != len(self.columns):
            raise ValueError(
                f"chunk has {values.shape[1]} columns, sink expects "
                f"{len(self.columns)}"
            )
        self._write_member(f"chunk_{self._n_chunks:05d}", values)
        self._n_chunks += 1
        self.rows_written += values.shape[0]
        return values.shape[0]

    def _commit_payload(self) -> None:
        try:
            if self.columns is not None:
                self._write_member("columns", np.array(self.columns))
        finally:
            self._zip.close()


def read_npz_chunks(path) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Reassemble an :class:`NpzSink` archive into ``(values, columns)``.

    ``columns`` is ``None`` when the sink was written without column names.
    """
    with np.load(path) as archive:
        # Numeric sort: lexicographic order would misplace chunk_100000
        # (6 digits) before chunk_99999 once the zero padding overflows.
        keys = sorted(
            (k for k in archive.files if k.startswith("chunk_")),
            key=lambda k: int(k.rsplit("_", 1)[1]),
        )
        if not keys:
            raise ValueError(f"{path} holds no chunk members")
        values = np.concatenate([archive[k] for k in keys], axis=0)
        columns = (
            tuple(str(c) for c in archive["columns"])
            if "columns" in archive.files else None
        )
    return values, columns
