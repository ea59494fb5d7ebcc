"""Trainer mechanics specific to the 1-D vector layout."""

import numpy as np
import pytest

from repro.core.config import TableGanConfig
from repro.core.networks import (
    build_classifier,
    build_discriminator,
    build_generator,
)
from repro.core.trainer import TableGanTrainer


def tiny_config(**overrides):
    defaults = dict(
        epochs=1, batch_size=16, latent_dim=10, base_channels=8,
        layout="vector", seed=0, generator_updates=1,
    )
    defaults.update(overrides)
    return TableGanConfig(**defaults)


def make_trainer(config, length=8):
    gen = build_generator(length, config.latent_dim, config.base_channels, rng=0,
                          rank=1)
    disc = build_discriminator(length, config.base_channels, rng=1, rank=1)
    clf = build_classifier(length, config.base_channels, rng=2, rank=1)
    return TableGanTrainer(gen, disc, clf, config, label_cell=(5,))


def toy_vectors(rng, n=48, length=8):
    mats = rng.uniform(-0.5, 0.5, (n, 1, length))
    mats[:, 0, 5] = np.sign(mats[:, 0, 0])
    return mats


class TestVectorTrainer:
    def test_trains_on_1d_records(self, rng):
        trainer = make_trainer(tiny_config())
        history = trainer.train(toy_vectors(rng), rng=rng)
        assert len(history.epochs) == 1
        epoch = history.epochs[0]
        for value in (epoch.d_loss, epoch.g_adv_loss, epoch.g_info_loss,
                      epoch.g_class_loss, epoch.c_loss):
            assert np.isfinite(value)

    def test_remove_label_zeroes_offset(self, rng):
        trainer = make_trainer(tiny_config())
        mats = toy_vectors(rng, n=8)
        removed = trainer._remove_label(mats)
        assert np.all(removed[:, 0, 5] == 0.0)
        assert np.allclose(removed[:, 0, :5], mats[:, 0, :5])

    def test_labels01_reads_offset(self, rng):
        trainer = make_trainer(tiny_config())
        mats = toy_vectors(rng, n=4)
        mats[:, 0, 5] = np.array([-1.0, 1.0, 0.0, 1.0])
        assert np.allclose(trainer._labels01(mats), [0.0, 1.0, 0.5, 1.0])

    def test_rejects_wrong_rank(self, rng):
        trainer = make_trainer(tiny_config())
        with pytest.raises(ValueError, match="expected"):
            trainer.train(rng.uniform(-1, 1, (10, 8)))

    def test_feature_stats_width_matches_1d_network(self, rng):
        trainer = make_trainer(tiny_config())
        trainer.train(toy_vectors(rng), rng=rng)
        # d=8 1-D ladder: 8 -> 4 -> 2 with channels 8 -> 16; features = 16*2.
        assert trainer.stats.fx_mean.shape == (32,)
