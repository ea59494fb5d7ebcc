"""CSV import/export for user-supplied tables."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.io import (
    RowRenderer,
    decoded_rows,
    iter_decoded_rows,
    read_csv,
    row_renderer,
    write_csv,
)
from repro.data.schema import ColumnKind, ColumnRole, ColumnSpec, TableSchema
from repro.data.table import Table


@pytest.fixture()
def sample_csv(tmp_path):
    path = tmp_path / "people.csv"
    path.write_text(
        "ssn,zip,age,salary,disease,rich\n"
        "111,47677,29,3000.5,aids,0\n"
        "222,47672,22,4000.0,ebola,0\n"
        "333,47678,27,5000.25,cancer,1\n"
        "444,47905,53,6000.0,aids,1\n"
    )
    return str(path)


class TestReadCsv:
    def test_infers_kinds(self, sample_csv):
        table = read_csv(sample_csv, qids=("zip", "age"), label="rich",
                         identifiers=("ssn",), regression_target="salary")
        schema = table.schema
        assert "ssn" not in schema  # identifier dropped
        assert schema.spec("age").kind is ColumnKind.DISCRETE
        assert schema.spec("salary").kind is ColumnKind.CONTINUOUS
        assert schema.spec("disease").kind is ColumnKind.CATEGORICAL
        assert schema.spec("disease").categories == ("aids", "cancer", "ebola")
        assert schema.label == "rich"
        assert schema.qids == ("zip", "age")
        assert schema.regression_target == "salary"

    def test_values_parsed(self, sample_csv):
        table = read_csv(sample_csv, identifiers=("ssn",))
        assert np.allclose(table.column("salary"), [3000.5, 4000.0, 5000.25, 6000.0])
        # Disease codes follow the sorted vocabulary (aids=0, cancer=1, ebola=2).
        assert np.allclose(table.column("disease"), [0, 2, 1, 0])

    def test_force_categorical(self, sample_csv):
        table = read_csv(sample_csv, identifiers=("ssn",), categorical=("zip",))
        assert table.schema.spec("zip").kind is ColumnKind.CATEGORICAL

    def test_unknown_column_names_rejected(self, sample_csv):
        with pytest.raises(KeyError, match="qids"):
            read_csv(sample_csv, qids=("missing",))
        with pytest.raises(KeyError, match="label"):
            read_csv(sample_csv, label="missing")

    def test_empty_and_ragged_files_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_csv(str(empty))
        header_only = tmp_path / "header.csv"
        header_only.write_text("a,b\n")
        with pytest.raises(ValueError, match="no data"):
            read_csv(str(header_only))
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            read_csv(str(ragged))


class TestRoundTrip:
    def test_write_then_read(self, sample_csv, tmp_path):
        table = read_csv(sample_csv, qids=("zip", "age"), label="rich",
                         identifiers=("ssn",))
        out = tmp_path / "round.csv"
        write_csv(table, str(out))
        again = read_csv(str(out), qids=("zip", "age"), label="rich")
        assert np.allclose(again.column("salary"), table.column("salary"))
        assert again.decode_column("disease") == table.decode_column("disease")

    def test_tablegan_on_csv_data(self, sample_csv, tmp_path):
        """The adoption path: CSV in, table-GAN, synthetic CSV out."""
        from repro import TableGAN, low_privacy

        # Tile the tiny CSV into enough rows to train on.
        table = read_csv(sample_csv, qids=("zip", "age"), label="rich",
                         identifiers=("ssn",))
        rng = np.random.default_rng(0)
        big = table.take(rng.integers(0, table.n_rows, 80))
        noisy = big.values + rng.normal(0, 0.01, big.values.shape)
        big = big.with_values(noisy)

        gan = TableGAN(low_privacy(epochs=1, batch_size=16, base_channels=8, seed=0))
        gan.fit(big)
        synthetic = gan.sample(20)
        out = tmp_path / "synthetic.csv"
        write_csv(synthetic, str(out))
        assert out.exists()
        again = read_csv(str(out))
        assert again.n_rows == 20


# ----------------------------------------------------------------------
# The columnar row renderer against the csv.writer oracle.
# ----------------------------------------------------------------------
_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                     1e16, 5e-324, -5e-324, 1.5, -1e-7]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_DISCRETES = st.one_of(
    st.integers(-10**6, 10**6).map(float),
    st.sampled_from([-0.0, -2.5, 0.5, 1e16, -1e20, 2.0**63, -2.0**63]),
    st.floats(-1e6, 1e6),
)
_CATEGORY = st.text(alphabet=st.sampled_from(list('ab ,"\r\n')), max_size=4)


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from(list(ColumnKind)), min_size=1,
                          max_size=4))
    n_rows = draw(st.integers(0, 6))
    columns, data = [], []
    for j, kind in enumerate(kinds):
        name = draw(st.sampled_from(["c", 'q"x', "a,b", "l\nm"])) + str(j)
        if kind is ColumnKind.CATEGORICAL:
            categories = tuple(draw(st.lists(_CATEGORY, min_size=1,
                                             max_size=4)))
            codes = st.floats(-2, len(categories) + 2)
            column = draw(st.lists(codes, min_size=n_rows, max_size=n_rows))
        else:
            categories = ()
            cells = _FLOATS if kind is ColumnKind.CONTINUOUS else _DISCRETES
            column = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
        columns.append(ColumnSpec(name, kind, ColumnRole.SENSITIVE,
                                  categories))
        data.append(column)
    values = np.array(data, dtype=np.float64).T.reshape(n_rows, len(kinds))
    return Table(values, TableSchema(columns))


def _oracle_rows(table):
    decoded = [table.decode_column(name) for name in table.schema.names]
    return [[column[i] for column in decoded] for i in range(table.n_rows)]


def _oracle_csv(table) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(table.schema.names)
    writer.writerows(_oracle_rows(table))
    return buffer.getvalue()


class TestRowRenderer:
    @settings(max_examples=300, deadline=None)
    @given(_tables(), st.integers(1, 4))
    def test_csv_matches_csv_writer(self, table, block_rows):
        renderer = RowRenderer(table.schema)
        blocks = renderer.csv_blocks(table.values, block_rows=block_rows)
        text = renderer.csv_header + "".join(blocks)
        assert text == _oracle_csv(table)
        assert renderer.csv_text(table.values, header=True) == text

    @settings(max_examples=200, deadline=None)
    @given(_tables())
    def test_rows_match_decode_column(self, table):
        rows = decoded_rows(table)
        oracle = _oracle_rows(table)
        assert json.dumps(rows) == json.dumps(oracle)
        assert [[type(v) for v in row] for row in rows] == \
            [[type(v) for v in row] for row in oracle]
        assert json.dumps(list(iter_decoded_rows(table))) == json.dumps(rows)

    @settings(max_examples=50, deadline=None)
    @given(table=_tables())
    def test_write_csv_matches_csv_writer(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("render") / "out.csv"
        write_csv(table, path)
        with open(path, newline="") as handle:
            assert handle.read() == _oracle_csv(table)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_discrete_raises(self, bad):
        schema = TableSchema([ColumnSpec("d", ColumnKind.DISCRETE,
                                         ColumnRole.SENSITIVE)])
        table = Table(np.array([[1.0], [bad]]), schema)
        with pytest.raises((ValueError, OverflowError)):
            table.decode_column("d")
        with pytest.raises((ValueError, OverflowError)):
            RowRenderer(schema).csv_text(table.values)
        with pytest.raises((ValueError, OverflowError)):
            decoded_rows(table)

    def test_one_column_empty_category_is_quoted(self):
        schema = TableSchema([ColumnSpec("c", ColumnKind.CATEGORICAL,
                                         ColumnRole.SENSITIVE, ("", "x"))])
        table = Table(np.array([[0.0], [1.0]]), schema)
        assert RowRenderer(schema).csv_text(table.values) == '""\r\nx\r\n'
        assert RowRenderer(schema).csv_text(table.values) == \
            _oracle_csv(table).split("\r\n", 1)[1]

    def test_zero_rows_render_header_only(self, tmp_path):
        schema = TableSchema([ColumnSpec("a", ColumnKind.CONTINUOUS,
                                         ColumnRole.SENSITIVE)])
        table = Table(np.empty((0, 1)), schema)
        write_csv(table, tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_bytes() == b"a\r\n"
        assert decoded_rows(table) == []

    def test_renderer_is_cached_per_schema_object(self, adult_bundle):
        schema = adult_bundle.train.schema
        assert row_renderer(schema) is row_renderer(schema)
        clone = TableSchema.from_dict(schema.to_dict())
        assert row_renderer(clone) is not row_renderer(schema)
