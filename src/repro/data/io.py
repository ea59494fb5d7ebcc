"""CSV import/export: apply table-GAN to user-supplied data.

The evaluation pipeline generates its four datasets synthetically, but a
downstream user wants to point the library at their own table.  This
module reads a CSV into a schema-valid :class:`~repro.data.table.Table`
(with column kinds inferred or declared), and writes Tables back out with
categorical codes decoded.  :class:`RowRenderer` is the one row format
behind every writer of decoded rows: ``write_csv``, the streaming
``CsvSink`` and the server's CSV and JSON responses.  CSV files are
UTF-8 whatever the locale, as the server's CSV bodies are.
"""

from __future__ import annotations

import csv

import numpy as np

from repro.data.schema import ColumnKind, ColumnRole, ColumnSpec, TableSchema
from repro.data.table import Table


def _parse_numeric(values: list[str]) -> np.ndarray | None:
    """Parse strings to floats, or None if any value is non-numeric."""
    out = np.empty(len(values))
    for i, raw in enumerate(values):
        try:
            out[i] = float(raw)
        except ValueError:
            return None
    return out


def infer_column(name: str, values: list[str], role: ColumnRole,
                 force_categorical: bool = False) -> tuple[ColumnSpec, np.ndarray]:
    """Infer one column's kind and produce its numeric representation.

    Numeric columns become CONTINUOUS (or DISCRETE when every value is an
    integer); non-numeric or forced columns become CATEGORICAL with a
    sorted vocabulary and integer codes.
    """
    numeric = None if force_categorical else _parse_numeric(values)
    if numeric is not None:
        if np.allclose(numeric, np.rint(numeric)):
            return ColumnSpec(name, ColumnKind.DISCRETE, role), numeric
        return ColumnSpec(name, ColumnKind.CONTINUOUS, role), numeric
    vocabulary = tuple(sorted(set(values)))
    index = {v: i for i, v in enumerate(vocabulary)}
    codes = np.array([index[v] for v in values], dtype=np.float64)
    spec = ColumnSpec(name, ColumnKind.CATEGORICAL, role, vocabulary)
    return spec, codes


def read_csv(path, qids=(), label: str | None = None,
             categorical=(), identifiers=(),
             regression_target: str | None = None) -> Table:
    """Read a CSV file into a Table, inferring column kinds.

    Parameters
    ----------
    path:
        UTF-8 CSV file with a header row.
    qids:
        Column names to mark as quasi-identifiers.
    label:
        Name of the binary ground-truth column (enables the classifier
        network and the model-compatibility tests).
    categorical:
        Columns to force to CATEGORICAL even if their values parse as
        numbers (e.g. ZIP codes).
    identifiers:
        Columns to *drop* entirely (SSNs etc.; never synthesized).
    regression_target:
        Continuous column for regression compatibility tests.
    """
    qids = set(qids)
    categorical = set(categorical)
    identifiers = set(identifiers)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{path} has a header but no data rows")
    for row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"ragged CSV: row with {len(row)} cells, header has {len(header)}"
            )
    known = set(header)
    for group, group_name in ((qids, "qids"), (categorical, "categorical"),
                              (identifiers, "identifiers")):
        missing = group - known
        if missing:
            raise KeyError(f"{group_name} not in CSV header: {sorted(missing)}")
    if label is not None and label not in known:
        raise KeyError(f"label {label!r} not in CSV header")

    columns, data = [], []
    for j, name in enumerate(header):
        if name in identifiers:
            continue
        values = [row[j] for row in rows]
        if name == label:
            role = ColumnRole.LABEL
        elif name in qids:
            role = ColumnRole.QID
        else:
            role = ColumnRole.SENSITIVE
        spec, column = infer_column(name, values, role, name in categorical)
        columns.append(spec)
        data.append(column)
    schema = TableSchema(columns, regression_target=regression_target)
    return Table(np.column_stack(data), schema)


#: Rows per rendered CSV block.  Rendering a block builds its byte matrix
#: and keep mask (~2.3 KB per row of the 32-column Airline table), so the
#: block bounds the renderer's memory.
CSV_BLOCK_ROWS = 256

#: Blocks with fewer rows than this render through the per-value
#: reference path (:meth:`RowRenderer._reference_csv_block`): below it
#: the kernels' fixed cost (~200 numpy calls per block) exceeds what
#: ``repr`` costs per value.  Measured crossover on the 32-column Airline
#: table: 32 rows (the kernel takes 4× the reference's time at 1 row,
#: 0.9–1.0× at 32 and 0.7× at 64; medians of interleaved runs, 2 vCPUs,
#: numpy 2.4.6).
KERNEL_MIN_ROWS = 32

#: Characters that make ``csv.writer``'s default dialect quote a field.
_CSV_SPECIAL = frozenset(',"\r\n')

#: Discrete columns whose rounded values fit in int64 take one vectorized
#: cast; others (and non-finite ones, which must raise) take ``int()``.
_INT64_BOUND = 2.0 ** 63


def _csv_field(text: str) -> str:
    """``text`` as a field of ``csv.writer``'s default (minimal) quoting."""
    if _CSV_SPECIAL.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _discrete_ints(block: np.ndarray) -> np.ndarray:
    """Discrete values rounded to integers, as ``int(np.rint(v))`` gives them.

    In-range blocks take one int64 cast; others (and non-finite values,
    which must raise as ``int()`` raises) take Python ints cell by cell.
    """
    rounded = np.rint(block)
    if ((rounded >= -_INT64_BOUND) & (rounded < _INT64_BOUND)).all():
        return rounded.astype(np.int64)
    return np.array([[int(v) for v in row] for row in rounded.tolist()],
                    dtype=object)


class RowRenderer:
    """One schema's row format, shared by every writer of decoded rows.

    Decodes a value matrix the way :meth:`~repro.data.table.Table.
    decode_column` decodes each column — categorical codes to vocabulary
    strings, discretes to rounded Python ints, continuous values as floats
    — but one column *kind* at a time, so the per-call cost does not grow
    with the column count.  :meth:`rows` assembles the decoded values into
    rows (the JSON responses' shape).  :meth:`csv_bytes` renders them as
    UTF-8 CSV byte-identical to ``csv.writer``'s default dialect (minimal
    quoting, CRLF line ends, ``repr`` floats), one bounded block of rows
    at a time, through :class:`repro.data.digits.CsvRows`: exact digit
    kernels for floats and ints, a pre-quoted vocabulary for categories,
    and one byte layout.  The per-value renderer it replaced stays as
    :meth:`_reference_csv_block`, the oracle the tests and ``python -m
    repro bench`` compare it with.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        kinds = [spec.kind for spec in schema.columns]

        def where(kind):
            return np.array([j for j, k in enumerate(kinds) if k is kind],
                            dtype=np.intp)

        self._continuous = where(ColumnKind.CONTINUOUS)
        self._discrete = where(ColumnKind.DISCRETE)
        self._categorical = where(ColumnKind.CATEGORICAL)
        self._groups = (self._continuous, self._discrete, self._categorical)
        # Every categorical column's vocabulary in one flat array: a code
        # matrix plus per-column offsets decodes in one fancy index.
        specs = [schema.columns[j] for j in self._categorical]
        sizes = np.array([spec.n_categories for spec in specs], dtype=int)
        self._tops = sizes - 1
        self._offsets = np.cumsum(sizes) - sizes
        quoted = [[_csv_field(c) for c in spec.categories] for spec in specs]
        if schema.n_columns == 1:
            # csv.writer quotes a record that would otherwise be an empty
            # line: the lone field of a one-column row.
            quoted = [[q or '""' for q in column] for column in quoted]
        self._vocabulary = np.array(
            [c for spec in specs for c in spec.categories], dtype=object)
        self._csv_vocabulary = np.array(
            [q for column in quoted for q in column], dtype=object)
        self._all_continuous = len(self._continuous) == schema.n_columns
        #: The CSV header line (column names), terminator included.
        self.csv_header = ",".join(map(_csv_field, schema.names)) + "\r\n"
        self._csv_header_bytes = self.csv_header.encode("utf-8")
        # The digit kernels load with the first renderer, not with
        # ``import repro`` (which training processes pay for).
        from repro.data.digits import CsvRows

        texts = iter(quoted)
        self._csv_rows = CsvRows([
            float if kind is ColumnKind.CONTINUOUS
            else int if kind is ColumnKind.DISCRETE else next(texts)
            for kind in kinds])

    def _codes(self, values: np.ndarray) -> np.ndarray:
        """The categorical columns' codes, rounded and clipped to range."""
        return np.clip(np.rint(values[:, self._categorical]).astype(int),
                       0, self._tops)

    def _decode(self, values: np.ndarray, vocabulary: np.ndarray) -> tuple:
        """``values`` split by kind and decoded: (floats, ints, strings)."""
        return (values[:, self._continuous],
                _discrete_ints(values[:, self._discrete]),
                vocabulary[self._codes(values) + self._offsets])

    def rows(self, values: np.ndarray) -> list[list]:
        """Every row of ``values`` decoded, as a list per row."""
        if self._all_continuous:
            # Continuous columns decode to plain floats: one C-level call.
            return values.tolist()
        cells = np.empty(values.shape, dtype=object)
        for index, part in zip(self._groups,
                               self._decode(values, self._vocabulary)):
            cells[:, index] = part
        return cells.tolist()

    def _csv_block(self, values: np.ndarray) -> bytes:
        """The CSV bytes of one block of rows."""
        if values.shape[0] < KERNEL_MIN_ROWS:
            return self._reference_csv_block(values).encode("utf-8")
        ints = _discrete_ints(values[:, self._discrete])
        if ints.dtype == object:
            # Integers past int64: str() of Python ints, cell by cell.
            return self._reference_csv_block(values).encode("utf-8")
        return self._csv_rows.render(values[:, self._continuous], ints,
                                     self._codes(values))

    def _reference_csv_block(self, values: np.ndarray) -> str:
        """The per-value renderer: one block's CSV text through ``repr``,
        ``str`` and ``str.join`` (the kernel's oracle)."""
        floats, ints, strings = self._decode(values, self._csv_vocabulary)
        columns = [None] * values.shape[1]
        for j, column in zip(self._continuous, floats.T.tolist()):
            columns[j] = list(map(repr, column))
        for j, column in zip(self._discrete, ints.T.tolist()):
            columns[j] = list(map(str, column))
        for j, column in zip(self._categorical, strings.T.tolist()):
            columns[j] = column
        return "\r\n".join(map(",".join, zip(*columns))) + "\r\n"

    def csv_byte_blocks(self, values: np.ndarray,
                        block_rows: int = CSV_BLOCK_ROWS):
        """Yield the UTF-8 CSV of ``values``' rows, ``block_rows`` at a time."""
        for start in range(0, values.shape[0], block_rows):
            yield self._csv_block(values[start:start + block_rows])

    def csv_bytes(self, values: np.ndarray, header: bool = False) -> bytes:
        """The UTF-8 CSV of ``values``' rows, after the header if asked."""
        blocks = self.csv_byte_blocks(values)
        return b"".join([self._csv_header_bytes, *blocks] if header else blocks)

    def csv_blocks(self, values: np.ndarray, block_rows: int = CSV_BLOCK_ROWS):
        """Yield the CSV text of ``values``' rows, ``block_rows`` at a time."""
        for block in self.csv_byte_blocks(values, block_rows):
            yield block.decode("utf-8")

    def csv_text(self, values: np.ndarray, header: bool = False) -> str:
        """The CSV text of ``values``' rows, after the header if asked."""
        return self.csv_bytes(values, header=header).decode("utf-8")


_RENDERERS: dict[int, RowRenderer] = {}


def row_renderer(schema: TableSchema) -> RowRenderer:
    """The :class:`RowRenderer` of ``schema``, built once per schema object.

    Response paths render a few rows per call, so the per-schema set-up
    (quoted vocabularies) is cached rather than rebuilt per request.
    """
    renderer = _RENDERERS.get(id(schema))
    if renderer is None or renderer.schema is not schema:
        if len(_RENDERERS) >= 64:
            _RENDERERS.clear()
        renderer = _RENDERERS[id(schema)] = RowRenderer(schema)
    return renderer


def iter_decoded_rows(table: Table):
    """Yield each row of ``table`` as a list with categoricals decoded."""
    yield from row_renderer(table.schema).rows(table.values)


def decoded_rows(table: Table) -> list[list]:
    """All rows of ``table`` decoded: categoricals as their strings,
    discretes as ints, continuous values as floats (the JSON row shape)."""
    return row_renderer(table.schema).rows(table.values)


def write_csv(table: Table, path) -> None:
    """Write a Table to UTF-8 CSV, decoding categorical codes to their strings."""
    renderer = row_renderer(table.schema)
    with open(path, "wb") as handle:
        handle.write(renderer.csv_header.encode("utf-8"))
        for block in renderer.csv_byte_blocks(table.values):
            handle.write(block)
