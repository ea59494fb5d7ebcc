"""The TableGAN facade: fit, sample, scores, persistence."""

import numpy as np
import pytest

from repro import TableGAN, low_privacy
from repro.data.schema import ColumnKind


class TestFitSample:
    def test_history_populated(self, trained_gan, tiny_gan_config):
        assert len(trained_gan.history_.epochs) == tiny_gan_config.epochs
        assert trained_gan.train_seconds_ > 0

    def test_sample_is_schema_valid(self, trained_gan, adult_bundle):
        syn = trained_gan.sample(100)
        schema = adult_bundle.train.schema
        assert syn.schema == schema
        assert syn.n_rows == 100
        for spec in schema.columns:
            col = syn.column(spec.name)
            if spec.kind is ColumnKind.CATEGORICAL:
                assert col.min() >= 0
                assert col.max() <= spec.n_categories - 1
                assert np.allclose(col, np.rint(col))
            if spec.kind is ColumnKind.DISCRETE:
                assert np.allclose(col, np.rint(col))

    def test_sample_within_training_ranges(self, trained_gan, adult_bundle):
        """Min–max decoding clips to the training range by construction."""
        syn = trained_gan.sample(200)
        train = adult_bundle.train
        for name in train.schema.names:
            assert syn.column(name).min() >= train.column(name).min() - 1e-9
            assert syn.column(name).max() <= train.column(name).max() + 1e-9

    def test_sample_encoded_range(self, trained_gan):
        encoded = trained_gan.sample_encoded(50)
        assert encoded.shape[0] == 50
        assert encoded.min() >= -1.0 and encoded.max() <= 1.0

    def test_samples_are_not_copies_of_training_rows(self, trained_gan, adult_bundle):
        """No one-to-one correspondence: synthetic rows differ from real ones."""
        syn = trained_gan.sample(50)
        train_rows = {tuple(np.round(r, 4)) for r in adult_bundle.train.values}
        exact_copies = sum(
            tuple(np.round(r, 4)) in train_rows for r in syn.values
        )
        assert exact_copies < 5

    def test_sampling_deterministic_with_rng(self, trained_gan):
        a = trained_gan.sample(20, rng=np.random.default_rng(3))
        b = trained_gan.sample(20, rng=np.random.default_rng(3))
        assert np.allclose(a.values, b.values)

    def test_unfitted_sample_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            TableGAN(low_privacy()).sample(10)


class TestDiscriminatorScores:
    def test_scores_are_probabilities(self, trained_gan, adult_bundle):
        scores = trained_gan.discriminator_scores(adult_bundle.train.head(32))
        assert scores.shape == (32,)
        assert np.all((scores >= 0) & (scores <= 1))


class TestPersistence:
    def test_save_load_round_trip(self, trained_gan, adult_bundle, tiny_gan_config, tmp_path):
        path = tmp_path / "model.npz"
        trained_gan.save(path)
        restored = TableGAN(tiny_gan_config).load_generator(path, adult_bundle.train)
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        original = trained_gan.sample(30, rng=rng_a)
        loaded = restored.sample(30, rng=rng_b)
        assert np.allclose(original.values, loaded.values)

    def test_loaded_codec_decodes_like_the_per_column_oracle(
            self, trained_gan, adult_bundle, tiny_gan_config, tmp_path):
        """The loaded codec comes from the saved ranges alone (the table
        supplies only the schema) and decodes bit for bit as each column's
        :meth:`MinMaxCodec.decode`, ``np.rint`` and ``np.clip`` do."""
        from repro.data.schema import ColumnKind

        path = tmp_path / "model.npz"
        trained_gan.save(path)
        restored = TableGAN(tiny_gan_config).load_generator(
            path, adult_bundle.train.head(3))
        codec, schema = restored.codec_, adult_bundle.train.schema
        assert [(c.data_min_, c.data_max_) for c in codec.codecs_] == \
            [(c.data_min_, c.data_max_) for c in trained_gan.codec_.codecs_]
        matrix = np.random.default_rng(3).uniform(-1.3, 1.3, (64, schema.n_columns))
        want = np.empty(matrix.shape)
        for j, (column, spec) in enumerate(zip(codec.codecs_, schema.columns)):
            col = column.decode(matrix[:, j])
            if spec.kind is not ColumnKind.CONTINUOUS:
                col = np.rint(col)
            if spec.kind is ColumnKind.CATEGORICAL:
                col = np.clip(col, 0, spec.n_categories - 1)
            want[:, j] = col
        for rows in (matrix, matrix[:4], matrix[:1]):
            assert codec.decode(rows).values.tobytes() == want[: len(rows)].tobytes()
        assert codec.decode(matrix).values.tobytes() == \
            trained_gan.codec_.decode(matrix).values.tobytes()

    def test_load_rejects_wrong_schema_width(self, trained_gan, lacity_bundle, tiny_gan_config, tmp_path):
        path = tmp_path / "model.npz"
        trained_gan.save(path)
        with pytest.raises(ValueError, match="features"):
            TableGAN(tiny_gan_config).load_generator(path, lacity_bundle.train)

    def test_save_unfitted_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            TableGAN(low_privacy()).save(tmp_path / "x.npz")


class TestNoLabelDataset:
    def test_fit_without_label_disables_classifier(self, adult_bundle):
        from repro.data.schema import TableSchema
        from repro.data.table import Table

        # Strip the label column -> classifier must be silently disabled.
        schema = adult_bundle.train.schema
        keep = [i for i, c in enumerate(schema.columns) if c.name != schema.label]
        new_schema = TableSchema([schema.columns[i] for i in keep])
        table = Table(adult_bundle.train.values[:, keep], new_schema)
        gan = TableGAN(low_privacy(epochs=1, batch_size=32, base_channels=8, seed=0))
        gan.fit(table)
        assert gan.classifier_ is None
        assert gan.sample(10).n_rows == 10


class TestCrossDtypePersistence:
    def test_load_preserves_saved_dtype(self, adult_bundle, tmp_path):
        """A float64 archive loads as float64 even under a float32 config."""
        from repro.core.config import low_privacy

        config64 = low_privacy(epochs=1, batch_size=32, base_channels=8,
                               seed=11, dtype="float64")
        gan64 = TableGAN(config64).fit(adult_bundle.train)
        path = tmp_path / "model64.npz"
        gan64.save(path)

        restored = TableGAN(
            low_privacy(epochs=1, batch_size=32, base_channels=8, seed=11)
        ).load_generator(path, adult_bundle.train)
        assert all(
            p.data.dtype == np.float64 for p in restored.generator_.parameters()
        )
        original = gan64.sample(20, rng=np.random.default_rng(4))
        loaded = restored.sample(20, rng=np.random.default_rng(4))
        assert np.allclose(original.values, loaded.values)
