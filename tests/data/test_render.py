"""The byte-path CSV renderer and its digit kernels, against their oracles.

The digit kernels' texts must equal ``repr``/``str`` for every value
(the kernel certifies what it can and hands the rest to ``repr``), and
:meth:`RowRenderer.csv_bytes` must equal the per-value reference renderer
byte for byte on any schema.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import digits
from repro.data.io import CSV_BLOCK_ROWS, KERNEL_MIN_ROWS, RowRenderer, write_csv
from repro.data.schema import ColumnKind, ColumnRole, ColumnSpec, TableSchema
from repro.data.table import Table


def _texts(slots, masks) -> list[str]:
    """Each slot's kept bytes after its separator, as text."""
    words, pattern = slots
    cells = words.view(np.uint8).reshape(len(words), -1)[:, 1:]
    return [cell[keep].tobytes().decode("ascii")
            for cell, keep in zip(cells, masks[pattern][:, 1:])]


def float_texts(values: np.ndarray) -> list[str]:
    """``[repr(v) for v in values]`` through the float kernel."""
    return _texts(digits.float_slots(values), digits.FLOAT_MASKS)


def int_texts(values: np.ndarray) -> list[str]:
    """``[str(v) for v in values]`` through the int kernel."""
    return _texts(digits.int_slots(values), digits.INT_MASKS)


def _reprs(values) -> list[str]:
    return [repr(float(v)) for v in values]


def _boundary_floats() -> np.ndarray:
    """Values where a shortest-digit kernel is most likely to slip."""
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]
    for edge in (1e-4, 1e16):
        values += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]
    values += [2.0 ** e for e in range(-70, 70)]
    for k in range(-8, 20):
        ten = 10.0 ** k
        values += [ten, np.nextafter(ten, 0.0), np.nextafter(ten, np.inf)]
    rng = np.random.default_rng(0)
    for n_digits in range(1, 18):
        for exponent in (-6, -4, -1, 0, 3, 9, 15):
            mantissa = "".join(rng.choice(list("123456789"), n_digits))
            values.append(float(f"0.{mantissa}e{exponent}"))
    # Just below 10^k, close enough to round up to it.
    values += [float("9" * n + f"e{e}") for n in range(15, 21) for e in range(-24, -2)]
    values = np.array(values, dtype=np.float64)
    return np.concatenate([values, -values])


class TestDigitKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_floats_match_repr(self, values):
        assert float_texts(np.array(values)) == _reprs(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(1e-4, 1e16, exclude_max=True), min_size=1,
                    max_size=64),
           st.booleans())
    def test_certified_range_matches_repr(self, values, negate):
        v = np.array(values) * (-1.0 if negate else 1.0)
        assert float_texts(v) == _reprs(v)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_pattern_matches_repr(self, bits):
        v = np.array(bits, dtype=np.uint64).view(np.float64)
        assert float_texts(v) == _reprs(v)

    def test_boundary_set_matches_repr(self):
        v = _boundary_floats()
        assert float_texts(v) == _reprs(v)

    def test_short_decimals_match_repr(self):
        rng = np.random.default_rng(1)
        v = np.concatenate([np.round(rng.uniform(-1e4, 1e4, 2000), places)
                            for places in range(8)])
        assert float_texts(v) == _reprs(v)

    def test_kernel_certifies_the_common_case(self):
        """The oracle tests would pass on a kernel that always fell back;
        this one pins that ``repr`` is the exception.  (Large values with
        few fraction bits often sit exactly between two shortest
        candidates — an exact tie, which ``repr`` settles — so the rate
        is not zero.)"""
        rng = np.random.default_rng(2)
        v = np.exp(rng.uniform(np.log(1e-4), np.log(1e15), 20_000))
        v = np.concatenate([v, -v, rng.standard_normal(20_000).astype(np.float32)
                            .astype(np.float64) * 41.0 + 503.0])
        _, pattern = digits.float_slots(v)
        assert (pattern >= digits._N_PATTERNS).mean() < 0.01

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=64))
    def test_ints_match_str(self, values):
        assert int_texts(np.array(values, dtype=np.int64)) == \
            [str(v) for v in values]

    def test_int_extremes(self):
        values = [-2**63, 2**63 - 1, 0, -1, 1, 9, 10, 99, 100, 10**18, -10**18]
        values += [10**k - 1 for k in range(1, 19)] + [10**k for k in range(19)]
        assert int_texts(np.array(values, dtype=np.int64)) == \
            [str(v) for v in values]


# ----------------------------------------------------------------------
# The row renderer against the per-value reference renderer.
# ----------------------------------------------------------------------
_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                     1e16, 1e-4, 5e-324, 2.0**52, 1.5, -1e-7]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e6, 1e6),
)
_DISCRETES = st.one_of(
    st.integers(-10**6, 10**6).map(float),
    st.sampled_from([-0.0, -2.5, 0.5, 1e16, -1e18, 2.0**62, -2.0**63]),
    st.floats(-1e6, 1e6),
)
# Up to 12 characters: a label of several quotes or CJK characters
# outgrows one TEXT_STEP, so columns land in different width groups.
_CATEGORY = st.text(alphabet=st.sampled_from(list('ab ,"\r\né中')), max_size=12)


@st.composite
def _tables(draw, n_rows=st.integers(0, 3 * KERNEL_MIN_ROWS + 4)):
    kinds = draw(st.lists(st.sampled_from(list(ColumnKind)), min_size=1,
                          max_size=5))
    rows = draw(n_rows)
    columns, data = [], []
    for j, kind in enumerate(kinds):
        if kind is ColumnKind.CATEGORICAL:
            categories = tuple(draw(st.lists(_CATEGORY, min_size=1, max_size=4)))
            cells = st.floats(-2, len(categories) + 2)
        else:
            categories = ()
            cells = _FLOATS if kind is ColumnKind.CONTINUOUS else _DISCRETES
        columns.append(ColumnSpec(f"c{j}", kind, ColumnRole.SENSITIVE, categories))
        data.append(draw(st.lists(cells, min_size=rows, max_size=rows)))
    values = np.array(data, dtype=np.float64).T.reshape(rows, len(kinds))
    return Table(values, TableSchema(columns))


def _reference(renderer, values, block_rows) -> bytes:
    return "".join(renderer._reference_csv_block(values[start:start + block_rows])
                   for start in range(0, len(values), block_rows)).encode("utf-8")


class TestCsvBytes:
    @settings(max_examples=300, deadline=None)
    @given(_tables(), st.integers(KERNEL_MIN_ROWS, 3 * KERNEL_MIN_ROWS))
    def test_matches_the_reference_renderer(self, table, block_rows):
        renderer = RowRenderer(table.schema)
        got = renderer.csv_bytes(table.values)
        assert got == _reference(renderer, table.values, CSV_BLOCK_ROWS)
        assert renderer.csv_bytes(table.values, header=True) == \
            renderer.csv_header.encode("utf-8") + got
        assert "".join(renderer.csv_blocks(table.values, block_rows)) == \
            _reference(renderer, table.values, block_rows).decode("utf-8")

    @pytest.mark.parametrize("kind", list(ColumnKind))
    def test_one_column_tables(self, kind):
        categories = ("", "x", 'q"', "é,") if kind is ColumnKind.CATEGORICAL else ()
        schema = TableSchema([ColumnSpec("only", kind, ColumnRole.SENSITIVE,
                                         categories)])
        column = np.tile([0.0, 1.0, 2.0, 3.0, -0.0, 1e16, 0.1],
                         KERNEL_MIN_ROWS)[:, None]
        if kind is ColumnKind.CONTINUOUS:
            column[:3, 0] = [np.nan, np.inf, -np.inf]
        renderer = RowRenderer(schema)
        assert renderer.csv_bytes(column) == _reference(renderer, column, 256)
        if kind is ColumnKind.CATEGORICAL:
            assert renderer.csv_bytes(column).startswith(b'""\r\nx\r\n"q"""\r\n')

    def test_zero_rows(self, tmp_path):
        schema = TableSchema([ColumnSpec("a", ColumnKind.CONTINUOUS,
                                         ColumnRole.SENSITIVE)])
        renderer = RowRenderer(schema)
        assert renderer.csv_bytes(np.empty((0, 1))) == b""
        assert renderer.csv_bytes(np.empty((0, 1)), header=True) == b"a\r\n"
        write_csv(Table(np.empty((0, 1)), schema), tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_bytes() == b"a\r\n"

    def test_discretes_past_int64_take_python_ints(self):
        schema = TableSchema([
            ColumnSpec("d", ColumnKind.DISCRETE, ColumnRole.SENSITIVE),
            ColumnSpec("x", ColumnKind.CONTINUOUS, ColumnRole.SENSITIVE),
        ])
        values = np.ones((2 * KERNEL_MIN_ROWS, 2))
        values[:4, 0] = [2.0**63, -2.0**63, -2.0**63 - 4096.0, 1e20]
        renderer = RowRenderer(schema)
        got = renderer.csv_bytes(values)
        assert got == _reference(renderer, values, 256)
        assert got.startswith(b"9223372036854775808,1.0\r\n"
                              b"-9223372036854775808,1.0\r\n")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_discretes_raise(self, bad):
        schema = TableSchema([ColumnSpec("d", ColumnKind.DISCRETE,
                                         ColumnRole.SENSITIVE)])
        values = np.ones((2 * KERNEL_MIN_ROWS, 1))
        values[-1, 0] = bad
        with pytest.raises((ValueError, OverflowError)):
            RowRenderer(schema).csv_bytes(values)

    def test_airline_block_matches_the_reference(self):
        from repro.data.datasets import load_dataset

        table = load_dataset("airline", rows=600, seed=3).train
        rng = np.random.default_rng(4)
        values = table.values + rng.normal(0.0, 1e-3, table.values.shape)
        renderer = RowRenderer(table.schema)
        assert renderer.csv_bytes(values) == \
            _reference(renderer, values, CSV_BLOCK_ROWS)
        for block_rows in (KERNEL_MIN_ROWS, 1000):
            assert "".join(renderer.csv_blocks(values, block_rows)) == \
                _reference(renderer, values, block_rows).decode("utf-8")

    def test_a_long_category_widens_only_its_own_column(self):
        """A free-text column's long label must not widen the slots of
        every other categorical column (they share one table and width)."""
        long_label = 'a "quoted", long, é label ' * 12
        schema = TableSchema([
            ColumnSpec("x", ColumnKind.CONTINUOUS, ColumnRole.SENSITIVE),
            ColumnSpec("short", ColumnKind.CATEGORICAL, ColumnRole.SENSITIVE,
                       ("a", "b,c")),
            ColumnSpec("text", ColumnKind.CATEGORICAL, ColumnRole.SENSITIVE,
                       ("", long_label, "z")),
            ColumnSpec("also_short", ColumnKind.CATEGORICAL,
                       ColumnRole.SENSITIVE, ("q", "r")),
        ])
        rng = np.random.default_rng(5)
        values = np.column_stack([
            rng.normal(0.0, 100.0, 300), rng.integers(0, 2, 300),
            rng.integers(0, 3, 300), rng.integers(0, 2, 300)]).astype(float)
        renderer = RowRenderer(schema)
        assert renderer.csv_bytes(values) == \
            _reference(renderer, values, CSV_BLOCK_ROWS)
        widths = sorted(cells.shape[1]
                        for _, _, cells, _ in renderer._csv_rows._texts)
        assert widths[0] == digits.TEXT_STEP
        assert len(widths) == 2 and widths[1] >= len(long_label)
