"""MinMaxCodec and TableCodec: range mapping, round trips, type restoration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.encoding import MinMaxCodec, TableCodec
from repro.data.schema import ColumnKind, ColumnRole, ColumnSpec, TableSchema
from repro.data.table import Table


class TestMinMaxCodec:
    def test_encodes_to_range(self):
        codec = MinMaxCodec().fit(np.array([0.0, 5.0, 10.0]))
        out = codec.encode(np.array([0.0, 5.0, 10.0]))
        assert np.allclose(out, [-1.0, 0.0, 1.0])

    def test_round_trip(self):
        values = np.array([3.0, 7.5, 12.0, 4.4])
        codec = MinMaxCodec().fit(values)
        assert np.allclose(codec.decode(codec.encode(values)), values)

    def test_decode_clips_overshoot(self):
        codec = MinMaxCodec().fit(np.array([0.0, 10.0]))
        # Generator tanh can only reach (-1, 1); values beyond clip to range.
        assert codec.decode(np.array([1.7]))[0] == 10.0
        assert codec.decode(np.array([-2.0]))[0] == 0.0

    def test_constant_column(self):
        codec = MinMaxCodec().fit(np.array([5.0, 5.0]))
        enc = codec.encode(np.array([5.0]))
        assert np.all(np.isfinite(enc))
        assert np.allclose(codec.decode(enc), 5.0)

    def test_requires_fit(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            MinMaxCodec().encode(np.array([1.0]))

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            MinMaxCodec(feature_range=(1.0, -1.0))

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=30
        ),
    )
    def test_round_trip_property(self, values):
        values = np.array(values)
        codec = MinMaxCodec().fit(values)
        encoded = codec.encode(values)
        assert encoded.min() >= -1.0 - 1e-9
        assert encoded.max() <= 1.0 + 1e-9
        assert np.allclose(codec.decode(encoded), values, atol=1e-6 * (1 + np.abs(values).max()))


def small_table():
    schema = TableSchema([
        ColumnSpec("x", ColumnKind.CONTINUOUS, ColumnRole.SENSITIVE),
        ColumnSpec("n", ColumnKind.DISCRETE, ColumnRole.SENSITIVE),
        ColumnSpec("c", ColumnKind.CATEGORICAL, ColumnRole.SENSITIVE, ("a", "b", "c")),
        ColumnSpec("y", ColumnKind.DISCRETE, ColumnRole.LABEL),
    ])
    values = np.array([
        [0.5, 3.0, 0.0, 0.0],
        [2.5, 7.0, 2.0, 1.0],
        [1.0, 5.0, 1.0, 0.0],
    ])
    return Table(values, schema)


class TestTableCodec:
    def test_encode_in_range(self):
        t = small_table()
        enc = TableCodec().fit(t).encode(t)
        assert enc.min() >= -1.0 and enc.max() <= 1.0

    def test_round_trip_table(self):
        t = small_table()
        codec = TableCodec().fit(t)
        back = codec.decode(codec.encode(t))
        assert np.allclose(back.values, t.values)

    def test_decode_restores_types(self):
        t = small_table()
        codec = TableCodec().fit(t)
        noisy = codec.encode(t) + 0.05
        decoded = codec.decode(noisy)
        # Discrete and categorical columns come back as integers in range.
        assert np.allclose(decoded.column("n"), np.rint(decoded.column("n")))
        assert decoded.column("c").min() >= 0
        assert decoded.column("c").max() <= 2

    def test_schema_mismatch_raises(self):
        t = small_table()
        codec = TableCodec().fit(t)
        other_schema = TableSchema([
            ColumnSpec("z", ColumnKind.CONTINUOUS, ColumnRole.SENSITIVE),
        ])
        other = Table(np.ones((2, 1)), other_schema)
        with pytest.raises(ValueError, match="schema"):
            codec.encode(other)

    def test_decode_equals_the_per_column_loop_bit_for_bit(self):
        """The whole-matrix decode against its oracle: each column through
        :meth:`MinMaxCodec.decode`, ``np.rint`` and ``np.clip``."""
        schema = TableSchema([
            ColumnSpec("x", ColumnKind.CONTINUOUS, ColumnRole.SENSITIVE),
            ColumnSpec("n", ColumnKind.DISCRETE, ColumnRole.SENSITIVE),
            ColumnSpec("c", ColumnKind.CATEGORICAL, ColumnRole.QID,
                       ("a", "b", "c")),
            ColumnSpec("k", ColumnKind.CONTINUOUS, ColumnRole.SENSITIVE),
            ColumnSpec("one", ColumnKind.CATEGORICAL, ColumnRole.QID, ("z",)),
            ColumnSpec("y", ColumnKind.DISCRETE, ColumnRole.LABEL),
        ])
        # "k" is a constant column; "c" and "one" decode to codes past both
        # ends of their vocabularies.
        codec = TableCodec.from_ranges(schema, [-3.5, -2.0, -1.5, 4.0, -0.75, 0.0],
                                       [12.25, 90.0, 3.5, 4.0, 0.5, 1.0])
        rng = np.random.default_rng(5)
        matrix = rng.uniform(-1.6, 1.6, (400, schema.n_columns))
        specials = np.array([-0.0, 0.0, 1.0, -1.0, np.nan, np.inf, -np.inf,
                             -1.0 - 1e-12, 1.0 + 1e-12, -0.5, 0.5])
        picks = rng.random(matrix.shape) < 0.2
        matrix[picks] = rng.choice(specials, picks.sum())
        # -0.5 decodes "c" to -0.25, which rounds to -0.0: a value equal to
        # the vocabulary's 0 bound, which the clip must keep as it is.
        matrix[:4, 2] = [-1.6, -0.5, 0.5, 1.6]

        def per_column(values):
            out = np.empty(values.shape)
            for j, (column, spec) in enumerate(zip(codec.codecs_,
                                                   schema.columns)):
                col = column.decode(values[:, j])
                if spec.kind is not ColumnKind.CONTINUOUS:
                    col = np.rint(col)
                if spec.kind is ColumnKind.CATEGORICAL:
                    col = np.clip(col, 0, spec.n_categories - 1)
                out[:, j] = col
            return out

        want = per_column(matrix)
        assert np.isnan(want).any()
        assert list(want[:4, 2]) == [0.0, 0.0, 2.0, 2.0]
        assert np.signbit(want[1, 2])
        for values in (matrix, matrix.astype(np.float32), matrix[1:2]):
            want = per_column(np.asarray(values, dtype=np.float64))
            got = codec.decode(values).values
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    def test_decode_wrong_width_raises(self):
        codec = TableCodec().fit(small_table())
        with pytest.raises(ValueError, match="expected"):
            codec.decode(np.zeros((2, 9)))

    def test_label_helpers(self):
        t = small_table()
        codec = TableCodec().fit(t)
        assert codec.label_position() == 3
        raw = np.array([0.0, 1.0])
        encoded = codec.encode_label(raw)
        assert np.allclose(codec.decode_label(encoded), raw)

    def test_label_helpers_without_label(self):
        schema = TableSchema([ColumnSpec("x", ColumnKind.CONTINUOUS, ColumnRole.SENSITIVE)])
        t = Table(np.ones((2, 1)), schema)
        codec = TableCodec().fit(t)
        with pytest.raises(ValueError, match="label"):
            codec.label_position()
