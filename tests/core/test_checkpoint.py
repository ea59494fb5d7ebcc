"""Crash-safe checkpoints: bit-exact resume, rotation, corruption fallback."""

import json

import numpy as np
import pytest

from repro.core.checkpoint import (
    CheckpointError,
    TrainerCheckpointer,
    TrainingInterrupted,
)
from repro.core.config import low_privacy
from repro.core.networks import build_discriminator, build_generator
from repro.core.parallel import ParallelTrainer
from repro.core.trainer import TableGanTrainer
from repro.nn import state_dict
from repro.nn.serialization import atomic_savez

SIDE = 8
N_ROWS = 64
DATA_SEED = 0
TRAIN_SEED = 42


def tiny_config(**overrides):
    base = dict(epochs=4, batch_size=16, base_channels=8, seed=3,
                use_classifier=False)
    base.update(overrides)
    return low_privacy(**base)


def make_matrices():
    rng = np.random.default_rng(DATA_SEED)
    return rng.uniform(-1.0, 1.0, size=(N_ROWS, 1, SIDE, SIDE))


def make_trainer(config=None, **parallel):
    """The serial trainer, or a ParallelTrainer over the same networks when
    ``parallel`` holds its ``workers``/``grad_shards``."""
    config = config or tiny_config()
    rng = np.random.default_rng(99)
    generator = build_generator(SIDE, config.latent_dim, config.base_channels,
                                rng)
    discriminator = build_discriminator(SIDE, config.base_channels, rng)
    if parallel:
        return ParallelTrainer(generator, discriminator, None, config,
                               **parallel)
    return TableGanTrainer(generator, discriminator, None, config)


def stop_after(checkpointer, n_batches):
    """Patch ``on_batch`` to request a stop on its ``n_batches``-th call."""
    original = checkpointer.on_batch
    count = [0]

    def hooked(*args, **kwargs):
        count[0] += 1
        if count[0] == n_batches:
            checkpointer.request_stop()
        return original(*args, **kwargs)

    checkpointer.on_batch = hooked


@pytest.fixture(scope="module")
def baseline():
    """One uninterrupted run: (final generator weights, history losses)."""
    trainer = make_trainer()
    history = trainer.train(make_matrices(), rng=TRAIN_SEED)
    return state_dict(trainer.generator), [e.d_loss for e in history.epochs]


def assert_weights_identical(expected, actual):
    assert set(expected) == set(actual)
    for key in expected:
        assert np.array_equal(expected[key], actual[key]), key


class TestResume:
    def test_mid_epoch_resume_is_bit_exact(self, tmp_path, baseline):
        expected_weights, expected_losses = baseline
        matrices = make_matrices()

        interrupted = TrainerCheckpointer(tmp_path, every_batches=1)
        stop_after(interrupted, 5)  # epoch 1, mid-epoch
        trainer = make_trainer()
        with pytest.raises(TrainingInterrupted) as excinfo:
            trainer.train(matrices, rng=TRAIN_SEED, checkpointer=interrupted)
        assert excinfo.value.epoch == 1
        assert excinfo.value.batch_start > 0
        assert excinfo.value.path == interrupted.latest_path

        resumed = make_trainer()
        history = resumed.train(matrices, rng=TRAIN_SEED,
                                checkpointer=TrainerCheckpointer(tmp_path))
        assert_weights_identical(expected_weights, state_dict(resumed.generator))
        assert [e.d_loss for e in history.epochs] == expected_losses

    def test_epoch_boundary_resume_is_bit_exact(self, tmp_path, baseline):
        expected_weights, expected_losses = baseline
        matrices = make_matrices()

        interrupted = TrainerCheckpointer(tmp_path)  # epoch-boundary saves only
        trainer = make_trainer()

        def stop_soon(epoch, losses):
            if epoch == 1:
                interrupted.request_stop()

        with pytest.raises(TrainingInterrupted) as excinfo:
            trainer.train(matrices, rng=TRAIN_SEED, checkpointer=interrupted,
                          on_epoch_end=stop_soon)
        assert excinfo.value.epoch == 2
        assert excinfo.value.batch_start == 0

        resumed = make_trainer()
        history = resumed.train(matrices, rng=TRAIN_SEED,
                                checkpointer=TrainerCheckpointer(tmp_path))
        assert_weights_identical(expected_weights, state_dict(resumed.generator))
        assert [e.d_loss for e in history.epochs] == expected_losses

    def test_double_interruption_still_bit_exact(self, tmp_path, baseline):
        expected_weights, _ = baseline
        matrices = make_matrices()

        for stop_at in (3, 4):  # two successive SIGTERMs
            checkpointer = TrainerCheckpointer(tmp_path, every_batches=1)
            stop_after(checkpointer, stop_at)
            with pytest.raises(TrainingInterrupted):
                make_trainer().train(matrices, rng=TRAIN_SEED,
                                     checkpointer=checkpointer)

        resumed = make_trainer()
        resumed.train(matrices, rng=TRAIN_SEED,
                      checkpointer=TrainerCheckpointer(tmp_path))
        assert_weights_identical(expected_weights, state_dict(resumed.generator))

    def test_completed_run_with_checkpointer_matches_baseline(self, tmp_path,
                                                              baseline):
        expected_weights, _ = baseline
        trainer = make_trainer()
        checkpointer = TrainerCheckpointer(tmp_path, every_batches=2)
        trainer.train(make_matrices(), rng=TRAIN_SEED, checkpointer=checkpointer)
        assert_weights_identical(expected_weights, state_dict(trainer.generator))
        assert checkpointer.saves > 0
        assert checkpointer.total_save_s > 0.0


class TestDurability:
    def interrupt(self, tmp_path, stop_at=5):
        checkpointer = TrainerCheckpointer(tmp_path, every_batches=1)
        stop_after(checkpointer, stop_at)
        with pytest.raises(TrainingInterrupted):
            make_trainer().train(make_matrices(), rng=TRAIN_SEED,
                                 checkpointer=checkpointer)
        return checkpointer

    def test_corrupt_latest_falls_back_to_prev(self, tmp_path, baseline):
        expected_weights, _ = baseline
        checkpointer = self.interrupt(tmp_path)
        with open(checkpointer.latest_path, "r+b") as fh:
            fh.seek(8)
            fh.write(b"\xde\xad\xbe\xef" * 16)

        resumed = make_trainer()
        resumed.train(make_matrices(), rng=TRAIN_SEED,
                      checkpointer=TrainerCheckpointer(tmp_path))
        assert_weights_identical(expected_weights, state_dict(resumed.generator))

    def test_both_corrupt_raises_instead_of_silent_restart(self, tmp_path):
        checkpointer = self.interrupt(tmp_path)
        for path in (checkpointer.latest_path, checkpointer.prev_path):
            with open(path, "wb") as fh:
                fh.write(b"not a zip archive")
        with pytest.raises(CheckpointError, match="both corrupt"):
            make_trainer().train(make_matrices(), rng=TRAIN_SEED,
                                 checkpointer=TrainerCheckpointer(tmp_path))

    def test_no_checkpoint_trains_from_scratch(self, tmp_path, baseline):
        expected_weights, _ = baseline
        trainer = make_trainer()
        trainer.train(make_matrices(), rng=TRAIN_SEED,
                      checkpointer=TrainerCheckpointer(tmp_path))
        assert_weights_identical(expected_weights, state_dict(trainer.generator))

    def test_rotation_keeps_two_generations(self, tmp_path):
        import os

        checkpointer = self.interrupt(tmp_path)
        assert os.path.exists(checkpointer.latest_path)
        assert os.path.exists(checkpointer.prev_path)


class TestGuards:
    def test_config_fingerprint_mismatch_raises(self, tmp_path):
        checkpointer = TrainerCheckpointer(tmp_path, every_batches=1)
        stop_after(checkpointer, 2)
        with pytest.raises(TrainingInterrupted):
            make_trainer().train(make_matrices(), rng=TRAIN_SEED,
                                 checkpointer=checkpointer)

        other = make_trainer(tiny_config(batch_size=32))
        with pytest.raises(CheckpointError, match="different training config"):
            other.train(make_matrices(), rng=TRAIN_SEED,
                        checkpointer=TrainerCheckpointer(tmp_path))

    def test_row_count_mismatch_raises(self, tmp_path):
        checkpointer = TrainerCheckpointer(tmp_path, every_batches=1)
        stop_after(checkpointer, 2)
        with pytest.raises(TrainingInterrupted):
            make_trainer().train(make_matrices(), rng=TRAIN_SEED,
                                 checkpointer=checkpointer)

        rng = np.random.default_rng(DATA_SEED)
        smaller = rng.uniform(-1.0, 1.0, size=(48, 1, SIDE, SIDE))
        with pytest.raises(CheckpointError, match="training rows"):
            make_trainer().train(smaller, rng=TRAIN_SEED,
                                 checkpointer=TrainerCheckpointer(tmp_path))

    def test_negative_every_batches_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-negative"):
            TrainerCheckpointer(tmp_path, every_batches=-1)

    def test_request_stop_is_idempotent(self, tmp_path):
        checkpointer = TrainerCheckpointer(tmp_path)
        assert not checkpointer.stop_requested
        checkpointer.request_stop()
        checkpointer.request_stop()
        assert checkpointer.stop_requested


class TestSerialIsOneShard:
    """A serial checkpoint is a one-shard checkpoint: it resumes under
    ``workers=2, grad_shards=1`` and back, and archives that recorded the
    serial shard count as 0 still resume."""

    ONE_SHARD = dict(workers=2, grad_shards=1)

    @staticmethod
    def interrupt(tmp_path, **parallel):
        checkpointer = TrainerCheckpointer(tmp_path, every_batches=1)
        stop_after(checkpointer, 5)  # epoch 1, mid-epoch
        with pytest.raises(TrainingInterrupted):
            make_trainer(**parallel).train(make_matrices(), rng=TRAIN_SEED,
                                           checkpointer=checkpointer)
        return checkpointer

    @staticmethod
    def resume(tmp_path, baseline, **parallel):
        expected_weights, expected_losses = baseline
        resumed = make_trainer(**parallel)
        history = resumed.train(make_matrices(), rng=TRAIN_SEED,
                                checkpointer=TrainerCheckpointer(tmp_path))
        assert_weights_identical(expected_weights, state_dict(resumed.generator))
        assert [e.d_loss for e in history.epochs] == expected_losses

    def test_serial_fingerprint_records_one_shard(self, tmp_path):
        checkpointer = self.interrupt(tmp_path)
        with np.load(checkpointer.latest_path) as archive:
            saved = json.loads(str(archive["meta.config"][()]))
        assert saved["grad_shards"] == 1

    def test_serial_checkpoint_resumes_with_one_shard_workers(self, tmp_path,
                                                              baseline):
        self.interrupt(tmp_path)
        self.resume(tmp_path, baseline, **self.ONE_SHARD)

    def test_one_shard_checkpoint_resumes_serially(self, tmp_path, baseline):
        self.interrupt(tmp_path, **self.ONE_SHARD)
        self.resume(tmp_path, baseline)

    def test_zero_shard_archive_resumes_serially(self, tmp_path, baseline):
        checkpointer = self.interrupt(tmp_path)
        with np.load(checkpointer.latest_path) as archive:
            payload = {key: archive[key] for key in archive.files}
        config = json.loads(str(payload["meta.config"][()]))
        config["grad_shards"] = 0
        payload["meta.config"] = np.array(json.dumps(config, sort_keys=True))
        atomic_savez(checkpointer.latest_path, **payload)
        self.resume(tmp_path, baseline)

    def test_serial_checkpoint_refused_at_four_shards(self, tmp_path):
        self.interrupt(tmp_path)
        with pytest.raises(CheckpointError, match="different training config"):
            make_trainer(workers=1, grad_shards=4).train(
                make_matrices(), rng=TRAIN_SEED,
                checkpointer=TrainerCheckpointer(tmp_path))
