"""Matrixizer at rank 1: the vector record layout (§3.2 ablation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.matrixizer import Matrixizer, side_for_features


class TestLengthForFeatures:
    @pytest.mark.parametrize("n,expected", [(1, 4), (4, 4), (5, 8), (14, 16), (23, 32)])
    def test_next_power_of_two(self, n, expected):
        assert side_for_features(n, rank=1) == expected

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            side_for_features(0, rank=1)


class TestVectorizer:
    def test_round_trip(self, rng):
        v = Matrixizer(14, rank=1)
        records = rng.uniform(-1, 1, (6, 14))
        mats = v.to_matrices(records)
        assert mats.shape == (6, 1, 16)
        assert np.allclose(v.to_records(mats), records)

    def test_padding_zeroed(self, rng):
        v = Matrixizer(5, rank=1)
        mats = v.to_matrices(rng.uniform(-1, 1, (3, 5)))
        assert np.all(mats[:, 0, 5:] == 0.0)
        assert v.padding == 3

    def test_feature_position_is_1d(self):
        v = Matrixizer(10, rank=1)
        assert v.feature_position(7) == (7,)
        with pytest.raises(IndexError):
            v.feature_position(10)

    def test_shape_validation(self, rng):
        v = Matrixizer(6, rank=1)
        with pytest.raises(ValueError):
            v.to_matrices(rng.uniform(-1, 1, (2, 7)))
        with pytest.raises(ValueError):
            v.to_records(rng.uniform(-1, 1, (2, 1, 16)))

    def test_rejects_unknown_rank(self):
        with pytest.raises(ValueError, match="rank"):
            Matrixizer(6, rank=3)

    def test_explicit_length(self):
        assert Matrixizer(6, side=32, rank=1).side == 32
        with pytest.raises(ValueError, match="too small"):
            Matrixizer(40, side=32, rank=1)

    @settings(max_examples=25, deadline=None)
    @given(n_features=st.integers(1, 60), batch=st.integers(1, 6),
           seed=st.integers(0, 500))
    def test_round_trip_property(self, n_features, batch, seed):
        rng = np.random.default_rng(seed)
        v = Matrixizer(n_features, rank=1)
        records = rng.uniform(-1, 1, (batch, n_features))
        assert np.allclose(v.to_records(v.to_matrices(records)), records)


class TestVectorLayoutEndToEnd:
    def test_fit_sample_vector_layout(self, adult_bundle):
        from repro import TableGAN, TableGanConfig

        config = TableGanConfig(
            layout="vector", epochs=2, batch_size=32, base_channels=8, seed=0
        )
        gan = TableGAN(config)
        gan.fit(adult_bundle.train)
        syn = gan.sample(50)
        assert syn.n_rows == 50
        assert syn.schema == adult_bundle.train.schema

    def test_vector_layout_save_load(self, adult_bundle, tmp_path):
        import numpy as np

        from repro import TableGAN, TableGanConfig

        config = TableGanConfig(
            layout="vector", epochs=1, batch_size=32, base_channels=8, seed=0
        )
        gan = TableGAN(config)
        gan.fit(adult_bundle.train)
        path = tmp_path / "vec.npz"
        gan.save(path)
        restored = TableGAN(config).load_generator(path, adult_bundle.train)
        a = gan.sample(20, rng=np.random.default_rng(4))
        b = restored.sample(20, rng=np.random.default_rng(4))
        assert np.allclose(a.values, b.values)

    def test_invalid_layout_rejected(self):
        from repro import TableGanConfig

        with pytest.raises(ValueError, match="layout"):
            TableGanConfig(layout="diagonal")
