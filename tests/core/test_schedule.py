"""UpdateSchedule: the Algorithm 2 interleave as an explicit contract.

Two layers of pinning:

* structural — ``for_counts``/``from_config`` build the documented op
  tuples and ``rounds()`` derives the data-parallel synchronization
  grouping;
* behavioural — a recorder on the op methods asserts the executor
  dispatches the exact op sequence for several (d_steps, g_steps,
  epochs, batches) configurations, and the refactored schedule-driven
  executor replays the seed interleave bit-exactly by default.
"""

import numpy as np
import pytest

from repro.core.config import TableGanConfig
from repro.core.networks import build_classifier, build_discriminator, build_generator
from repro.core.schedule import OPS, UpdateSchedule
from repro.core.trainer import ShardOps, TableGanTrainer
from repro.nn import state_dict


def tiny_config(**overrides):
    defaults = dict(
        epochs=1, batch_size=16, latent_dim=10, base_channels=8, seed=0,
        generator_updates=1,
    )
    defaults.update(overrides)
    return TableGanConfig(**defaults)


def make_trainer(config, schedule=None, with_classifier=True):
    gen = build_generator(4, config.latent_dim, config.base_channels, rng=0)
    disc = build_discriminator(4, config.base_channels, rng=1)
    clf = build_classifier(4, config.base_channels, rng=2) if with_classifier else None
    cfg = config if with_classifier else config.with_overrides(use_classifier=False)
    return TableGanTrainer(gen, disc, clf, cfg,
                           label_cell=(0, 3) if with_classifier else None,
                           schedule=schedule)


def toy_matrices(n=32, side=4, seed=5):
    rng = np.random.default_rng(seed)
    mats = rng.uniform(-0.5, 0.5, (n, 1, side, side))
    mats[:, 0, 0, 3] = np.sign(mats[:, 0, 0, 0])
    return mats


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one op"):
            UpdateSchedule(())

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule ops"):
            UpdateSchedule(("d", "warp", "g"))

    def test_ops_normalized_to_tuple(self):
        schedule = UpdateSchedule(["d", "g"])
        assert schedule.ops == ("d", "g")

    def test_frozen_and_hashable(self):
        schedule = UpdateSchedule(("d", "g"))
        with pytest.raises(AttributeError):
            schedule.ops = ("g",)
        assert hash(UpdateSchedule(("d", "g"))) == hash(schedule)

    def test_all_ops_are_valid(self):
        assert UpdateSchedule(OPS).ops == OPS


class TestFactories:
    def test_seed_interleave(self):
        assert UpdateSchedule.for_counts().ops == ("d", "c", "stats", "g")

    def test_d_and_g_multiplicity(self):
        schedule = UpdateSchedule.for_counts(d_steps=2, g_steps=3)
        assert schedule.ops == ("d", "d", "c", "stats", "g", "g", "g")
        assert schedule.d_steps == 2
        assert schedule.g_steps == 3

    def test_optional_blocks(self):
        assert UpdateSchedule.for_counts(classifier=False).ops == (
            "d", "stats", "g"
        )
        assert UpdateSchedule.for_counts(refresh_stats=False).ops == (
            "d", "c", "g"
        )

    def test_from_config_uses_generator_updates(self):
        schedule = UpdateSchedule.from_config(tiny_config(generator_updates=3))
        assert schedule.ops == ("d", "c", "stats", "g", "g", "g")

    @pytest.mark.parametrize("kwargs", [dict(d_steps=0), dict(g_steps=0)])
    def test_counts_validated(self, kwargs):
        with pytest.raises(ValueError):
            UpdateSchedule.for_counts(**kwargs)


class TestRounds:
    def test_default_grouping(self):
        assert UpdateSchedule(("d", "c", "stats", "g")).rounds() == (
            ("d", "c"), ("stats",), ("g",)
        )

    def test_adjacent_d_ops_do_not_merge(self):
        # The second d reads the weights the first just wrote; it must be
        # its own synchronization round.
        assert UpdateSchedule(("d", "d", "c", "stats", "g", "g")).rounds() == (
            ("d",), ("d", "c"), ("stats",), ("g",), ("g",)
        )

    def test_d_without_following_c_is_singleton(self):
        assert UpdateSchedule(("d", "stats", "g")).rounds() == (
            ("d",), ("stats",), ("g",)
        )

    def test_rounds_cover_ops_in_order(self):
        for ops in [("d", "c", "stats", "g"), ("g", "d", "c"), ("c", "d"),
                    ("d", "d", "d"), ("stats", "g", "g")]:
            schedule = UpdateSchedule(ops)
            flattened = tuple(op for r in schedule.rounds() for op in r)
            assert flattened == schedule.ops


class OpRecorder:
    """Every op the executor dispatches, in order, around real compute."""

    def __init__(self):
        self.calls = []        # the d / c / g ops
        self.stats_calls = []  # len(calls) when each stats refresh ran


@pytest.fixture()
def recorder(monkeypatch):
    record = OpRecorder()

    def recording(op, original):
        def hooked(self, *args):
            if op == "stats":
                record.stats_calls.append(len(record.calls))
            else:
                record.calls.append(op)
            return original(self, *args)
        return hooked

    for op in OPS:
        name = f"_op_{op}"
        monkeypatch.setattr(ShardOps, name,
                            recording(op, getattr(ShardOps, name)))
    return record


class TestExecutorDispatch:
    """The trainer executes exactly schedule.ops, once per batch."""

    @pytest.mark.parametrize("d_steps,g_steps,epochs,n_rows", [
        (1, 1, 1, 32),   # seed interleave, 2 batches
        (1, 3, 1, 16),   # extra generator steps
        (2, 2, 2, 32),   # d_iters > 1 across epochs
    ])
    def test_exact_sequence(self, d_steps, g_steps, epochs, n_rows,
                            recorder):
        config = tiny_config(epochs=epochs)
        schedule = UpdateSchedule.for_counts(d_steps=d_steps, g_steps=g_steps)
        trainer = make_trainer(config, schedule=schedule)
        trainer.train(toy_matrices(n=n_rows), rng=3)

        n_batches = epochs * (n_rows // config.batch_size)
        per_batch = ["d"] * d_steps + ["c"] + ["g"] * g_steps
        assert recorder.calls == per_batch * n_batches
        # One statistics refresh per batch, dispatched after the d/c block
        # (d_steps + 1 recorded calls into each batch).
        per_batch_len = len(per_batch)
        assert recorder.stats_calls == [
            batch * per_batch_len + d_steps + 1 for batch in range(n_batches)
        ]

    def test_classifier_disabled_skips_c_compute(self, recorder):
        config = tiny_config(use_classifier=False)
        trainer = make_trainer(config, with_classifier=False)
        trainer.train(toy_matrices(), rng=3)
        # "c" ops still dispatch (the schedule keeps its shape) but the
        # update is the documented no-op.
        assert recorder.calls.count("c") == recorder.calls.count("d")

    def test_custom_schedule_changes_dispatch(self, recorder):
        config = tiny_config()
        trainer = make_trainer(
            config, schedule=UpdateSchedule(("g", "d", "c")),
        )
        trainer.train(toy_matrices(n=16), rng=3)
        assert recorder.calls == ["g", "d", "c"]


class TestSeedReplay:
    def test_default_schedule_is_bit_exact_with_explicit_seed_schedule(self):
        """schedule=None and the explicit seed interleave are the same run."""
        config = tiny_config(epochs=2, generator_updates=2)
        matrices = toy_matrices(n=48)

        default = make_trainer(config, schedule=None)
        history_default = default.train(matrices, rng=7)

        explicit = make_trainer(
            config, schedule=UpdateSchedule(("d", "c", "stats", "g", "g"))
        )
        history_explicit = explicit.train(matrices, rng=7)

        for net_a, net_b in (
            (default.generator, explicit.generator),
            (default.discriminator, explicit.discriminator),
            (default.classifier, explicit.classifier),
        ):
            expected, actual = state_dict(net_a), state_dict(net_b)
            assert set(expected) == set(actual)
            for key in expected:
                assert np.array_equal(expected[key], actual[key]), key
        assert history_default.epochs == history_explicit.epochs

    def test_trainer_defaults_to_config_schedule(self):
        config = tiny_config(generator_updates=2)
        trainer = make_trainer(config)
        assert trainer.schedule == UpdateSchedule(("d", "c", "stats", "g", "g"))
