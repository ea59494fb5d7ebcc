"""Data-parallel training: bit-exact N-invariance, ordered reduction,
worker-count-portable checkpoints, and loud crash behaviour.

The headline contract: a :class:`ParallelTrainer` run is a pure function
of (data, config, grad_shards, schedule, seed) — **never of the worker
count**.  Weights, BatchNorm running statistics, EWMA feature statistics,
and the loss history must be bit-identical for every N.
"""

import os
import signal
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import TableGAN, low_privacy
from repro.core.checkpoint import TrainerCheckpointer, TrainingInterrupted
from repro.core.config import TableGanConfig
from repro.core.networks import build_classifier, build_discriminator, build_generator
from repro.core.parallel import (
    ParallelTrainer,
    ParallelTrainingError,
    _ShardExecutor,
)
from repro.core.trainer import TableGanTrainer, shard_bounds
from repro.data.datasets import load_dataset
from repro.nn import Sequential, state_dict
from repro.nn.flatbuf import FlatParameterBuffer
from repro.nn.layers import Dense
from repro.nn.optim import reference_optimizers
from repro.utils.faults import FaultError, FaultPlan
from repro.utils.threads import blas_threads, usable_cores

DATA_SEED = 7
TRAIN_SEED = 3
SIDE = 4


def tiny_config(**overrides):
    defaults = dict(
        epochs=2, batch_size=16, latent_dim=10, base_channels=8, seed=0,
        generator_updates=1,
    )
    defaults.update(overrides)
    return TableGanConfig(**defaults)


def make_trainer(workers, config=None, grad_shards=4, with_classifier=True,
                 side=SIDE, serial=False, **trainer_kwargs):
    """A ParallelTrainer, or with ``serial=True`` the TableGanTrainer over
    the same networks."""
    config = config or tiny_config()
    dtype = config.np_dtype
    gen = build_generator(side, config.latent_dim, config.base_channels,
                          rng=0, dtype=dtype)
    disc = build_discriminator(side, config.base_channels, rng=1, dtype=dtype)
    clf = (build_classifier(side, config.base_channels, rng=2, dtype=dtype)
           if with_classifier else None)
    cfg = config if with_classifier else config.with_overrides(use_classifier=False)
    label_cell = (0, 3) if with_classifier else None
    if serial:
        return TableGanTrainer(gen, disc, clf, cfg, label_cell=label_cell)
    return ParallelTrainer(
        gen, disc, clf, cfg, label_cell=label_cell,
        workers=workers, grad_shards=grad_shards, **trainer_kwargs,
    )


def make_matrices(n=64, side=SIDE):
    rng = np.random.default_rng(DATA_SEED)
    mats = rng.uniform(-0.5, 0.5, (n, 1, side, side))
    mats[:, 0, 0, 3] = np.sign(mats[:, 0, 0, 0])
    return mats


def full_state(trainer):
    """Weights + BN running stats for all nets, plus the EWMA statistics."""
    snapshot = {}
    for tag, net in (("g", trainer.generator), ("d", trainer.discriminator),
                     ("c", trainer.classifier)):
        if net is None:
            continue
        for key, value in state_dict(net).items():
            snapshot[f"{tag}/{key}"] = value
    for name in ("fx_mean", "fx_sd", "fz_mean", "fz_sd"):
        snapshot[f"stats/{name}"] = getattr(trainer.stats, name).copy()
    return snapshot


def assert_state_identical(expected, actual):
    assert set(expected) == set(actual)
    for key in expected:
        assert np.array_equal(expected[key], actual[key]), key


def run_training(workers, config=None, side=SIDE, **kwargs):
    trainer = make_trainer(workers, config=config, side=side, **kwargs)
    history = trainer.train(make_matrices(side=side), rng=TRAIN_SEED)
    return trainer, history


#: Side 8 gives D BatchNorm layers, and two G steps per batch make the
#: first ``g`` round reuse the ``stats`` round's caches: a process that owns
#: several shards must rebuild them without folding BatchNorm twice.  The
#: side-4, one-G-step ``tiny_config`` exercises neither.
REBUILD_SIDE = 8


def rebuild_config(dtype):
    return tiny_config(generator_updates=2, dtype=dtype)


class TestShardBounds:
    def test_even_split(self):
        assert shard_bounds(16, 4) == [(0, 4), (4, 8), (8, 12), (12, 16)]

    def test_remainder_goes_to_leading_shards(self):
        assert shard_bounds(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_single_shard_is_whole_batch(self):
        assert shard_bounds(7, 1) == [(0, 7)]

    def test_bounds_partition_rows(self):
        for rows, shards in [(16, 4), (17, 4), (31, 5), (8, 8)]:
            bounds = shard_bounds(rows, shards)
            assert bounds[0][0] == 0 and bounds[-1][1] == rows
            for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                assert stop == start
            assert all(stop > start for start, stop in bounds)

    def test_more_shards_than_rows_rejected(self):
        with pytest.raises(ValueError, match="cannot split"):
            shard_bounds(3, 4)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="shards must be"):
            shard_bounds(8, 0)


class TestReductionOrder:
    """The all-reduce is an *ordered* sum: shard index, not arrival order."""

    def make_flat(self, dtype):
        net = Sequential([Dense(5, 3, rng=0, dtype=dtype)])
        return net.flatten_parameters()

    def test_float_addition_order_matters_here(self):
        """The hazard is real: permuting the float32 sum changes the bits."""
        a = np.float32(1e8)
        b = np.float32(1.0)
        c = np.float32(-1e8)
        assert (a + b) + c != (a + c) + b

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reduce_matches_manual_shard_order_sum(self, dtype):
        flat = self.make_flat(dtype)
        rng = np.random.default_rng(0)
        shards = [
            [(rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4)).astype(dt)
             for dt, size in flat.group_specs()]
            for _ in range(4)
        ]
        flat.reduce_grads(shards)
        for i, group in enumerate(flat.groups):
            expected = shards[0][i].copy()
            for contrib in shards[1:]:
                expected += contrib[i]
            assert np.array_equal(group.grad, expected)

    def test_worker_arrival_order_cannot_change_the_sum(self):
        """Shard buffers are indexed slots: however workers raced to fill
        them, the reduction visits slot 0..S-1 — so any arrival
        permutation of the same shard payloads reduces identically."""
        flat = self.make_flat(np.float32)
        rng = np.random.default_rng(1)
        shards = [
            [(rng.standard_normal(size) * 10.0 ** rng.integers(-4, 5)).astype(dt)
             for dt, size in flat.group_specs()]
            for _ in range(4)
        ]
        flat.reduce_grads(shards)
        reference = [group.grad.copy() for group in flat.groups]
        for order in [(3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 3, 1)]:
            # Simulate out-of-order arrival: deliver payloads in a
            # scrambled order into the rank-indexed slot table, then
            # reduce the slots positionally (what the master does).
            slots = {}
            for rank in order:
                slots[rank] = shards[rank]
            flat.reduce_grads([slots[s] for s in range(4)])
            for group, expected in zip(flat.groups, reference):
                assert np.array_equal(group.grad, expected)

    def test_permuting_shard_slots_does_change_the_sum(self):
        """Counterpoint proving the order is load-bearing: summing the
        same buffers in a *different slot order* yields different bits —
        exactly what an arrival-order reduction would have produced."""
        flat = self.make_flat(np.float32)
        rng = np.random.default_rng(2)
        shards = [
            [(rng.standard_normal(size) * 10.0 ** rng.integers(-6, 7)).astype(dt)
             for dt, size in flat.group_specs()]
            for _ in range(4)
        ]
        flat.reduce_grads(shards)
        reference = [group.grad.copy() for group in flat.groups]
        differs = False
        for order in [(3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 3, 1)]:
            flat.reduce_grads([shards[s] for s in order])
            if any(not np.array_equal(group.grad, expected)
                   for group, expected in zip(flat.groups, reference)):
                differs = True
        assert differs, (
            "every permutation of these float32 shard sums was associative; "
            "the fixture no longer demonstrates the hazard"
        )


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            make_trainer(0)

    def test_grad_shards_must_be_positive(self):
        with pytest.raises(ValueError, match="grad_shards"):
            make_trainer(1, grad_shards=0)

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="round_timeout_s"):
            make_trainer(1, round_timeout_s=0)

    def test_reference_optimizers_rejected(self):
        with reference_optimizers():
            with pytest.raises(ParallelTrainingError, match="fused"):
                make_trainer(1)

    def test_batch_smaller_than_shards_rejected(self):
        trainer = make_trainer(1, config=tiny_config(batch_size=4),
                               grad_shards=8)
        with pytest.raises(ParallelTrainingError, match="gradient shards"):
            trainer.train(make_matrices(n=4), rng=TRAIN_SEED)


@pytest.fixture(scope="module")
def baseline_f64():
    """One single-process float64 run: the invariant every N must hit."""
    trainer, history = run_training(1)
    return full_state(trainer), history


@pytest.fixture(scope="module")
def baseline_f32():
    trainer, history = run_training(1, config=tiny_config(dtype="float32"))
    return full_state(trainer), history


@pytest.mark.slow
@pytest.mark.mp
class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_float64_bit_identical(self, workers, baseline_f64):
        expected_state, expected_history = baseline_f64
        trainer, history = run_training(workers)
        assert_state_identical(expected_state, full_state(trainer))
        assert history.epochs == expected_history.epochs
        assert history.final_l_mean == expected_history.final_l_mean
        assert history.final_l_sd == expected_history.final_l_sd

    @pytest.mark.parametrize("workers", [2, 4])
    def test_float32_bit_identical(self, workers, baseline_f32):
        expected_state, expected_history = baseline_f32
        trainer, history = run_training(
            workers, config=tiny_config(dtype="float32")
        )
        assert_state_identical(expected_state, full_state(trainer))
        assert history.epochs == expected_history.epochs

    def test_excess_workers_clamp_to_shards(self, baseline_f64):
        """workers > grad_shards leaves ranks idle, never changes results."""
        expected_state, _ = baseline_f64
        trainer, _ = run_training(6)
        assert_state_identical(expected_state, full_state(trainer))

    def test_without_classifier(self):
        config = tiny_config(use_classifier=False, epochs=1)
        base_trainer, base_history = run_training(
            1, config=config, with_classifier=False
        )
        trainer, history = run_training(2, config=config, with_classifier=False)
        assert_state_identical(full_state(base_trainer), full_state(trainer))
        assert history.epochs == base_history.epochs

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_cache_rebuilds_bit_identical(self, workers, dtype):
        """A process that owns several shards rebuilds their G and D
        caches in the first ``g`` round of each batch; four processes
        owning one shard each never do.  All must fold the same BatchNorm
        events."""
        config = rebuild_config(dtype)
        base, base_history = run_training(1, config=config, side=REBUILD_SIDE)
        trainer, history = run_training(workers, config=config,
                                        side=REBUILD_SIDE)
        assert_state_identical(full_state(base), full_state(trainer))
        assert history.epochs == base_history.epochs

    def test_worker_pids_lifecycle(self):
        trainer, _ = run_training(2, config=tiny_config(epochs=1))
        # Children are reaped on the way out of train().
        assert trainer.worker_pids == []


class TestSerialIsOneShard:
    """``TableGanTrainer`` is ``ParallelTrainer(workers=1, grad_shards=1)``:
    every weight, G and D BatchNorm running statistic, EWMA statistic and
    loss comes out bit-identical."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_serial_equals_one_shard(self, dtype):
        config = rebuild_config(dtype)
        serial, serial_history = run_training(None, config=config,
                                              side=REBUILD_SIDE, serial=True)
        sharded, history = run_training(1, config=config, side=REBUILD_SIDE,
                                        grad_shards=1)
        expected = full_state(serial)
        assert any(key.startswith("d/x.") for key in expected), (
            "the fixture no longer gives D BatchNorm running statistics")
        assert_state_identical(expected, full_state(sharded))
        assert history.epochs == serial_history.epochs
        assert history.final_l_mean == serial_history.final_l_mean
        assert history.final_l_sd == serial_history.final_l_sd


class TestSharedMemoryUse:
    """Only a run that forks workers allocates shared memory."""

    @staticmethod
    def fit(workers, monkeypatch):
        """Fit a tiny table; return the segments created and the ones
        listed under /dev/shm at each epoch end."""
        created, listed = [], []
        real = shared_memory.SharedMemory

        def recording(*args, **kwargs):
            segment = real(*args, **kwargs)
            created.append(segment.name)
            return segment

        def list_segments(epoch, losses):
            if os.path.isdir("/dev/shm"):
                listed.extend(name for name in os.listdir("/dev/shm")
                              if name.startswith(f"rgrad{os.getpid()}_"))

        monkeypatch.setattr(shared_memory, "SharedMemory", recording)
        table = load_dataset("adult", rows=96, seed=0).train
        TableGAN(low_privacy(epochs=2, batch_size=16, base_channels=4,
                             seed=0)).fit(table, on_epoch_end=list_segments,
                                          workers=workers)
        return created, listed

    @pytest.mark.parametrize("workers", [None, 1])
    def test_one_process_creates_no_segment(self, workers, monkeypatch):
        assert self.fit(workers, monkeypatch) == ([], [])

    @pytest.mark.mp
    def test_workers_share_segments_and_release_them(self, monkeypatch):
        created, listed = self.fit(2, monkeypatch)
        assert created
        if os.path.isdir("/dev/shm"):
            assert listed
            assert not set(created) & set(os.listdir("/dev/shm"))


@pytest.mark.mp
class TestBlasThreadBudget:
    def test_every_process_takes_its_share_then_the_master_restores(
            self, blas_probe):
        default = blas_threads()
        blas_probe.wrap(_ShardExecutor, "run_round")
        run_training(2, config=tiny_config(epochs=1))
        records = blas_probe.records()
        pids = {pid for pid, _count in records}
        assert os.getpid() in pids and len(pids) == 2
        assert {count for _pid, count in records} == {
            max(1, usable_cores() // 2)}
        assert blas_threads() == default

    def test_single_process_keeps_the_default(self, blas_probe):
        default = blas_threads()
        blas_probe.wrap(_ShardExecutor, "run_round")
        run_training(1, config=tiny_config(epochs=1))
        assert set(blas_probe.records()) == {(os.getpid(), default)}


@pytest.mark.slow
@pytest.mark.mp
class TestCheckpointPortability:
    """The fingerprint covers grad_shards + schedule but not workers, so a
    checkpoint taken at one worker count resumes bit-exactly at another."""

    @staticmethod
    def stop_after(checkpointer, n_batches):
        original = checkpointer.on_batch
        count = [0]

        def hooked(*args, **kwargs):
            count[0] += 1
            if count[0] == n_batches:
                checkpointer.request_stop()
            return original(*args, **kwargs)

        checkpointer.on_batch = hooked

    def test_checkpoint_at_n4_resumes_at_n2(self, tmp_path, baseline_f64):
        expected_state, expected_history = baseline_f64
        matrices = make_matrices()

        interrupted = TrainerCheckpointer(tmp_path, every_batches=1)
        self.stop_after(interrupted, 6)  # mid epoch 1
        with pytest.raises(TrainingInterrupted) as excinfo:
            make_trainer(4).train(matrices, rng=TRAIN_SEED,
                                  checkpointer=interrupted)
        assert excinfo.value.epoch == 1
        assert excinfo.value.batch_start > 0

        resumed = make_trainer(2)
        history = resumed.train(matrices, rng=TRAIN_SEED,
                                checkpointer=TrainerCheckpointer(tmp_path))
        assert_state_identical(expected_state, full_state(resumed))
        assert history.epochs == expected_history.epochs

    def test_checkpoint_at_n2_resumes_single_process(self, tmp_path,
                                                     baseline_f64):
        expected_state, _ = baseline_f64
        matrices = make_matrices()

        interrupted = TrainerCheckpointer(tmp_path, every_batches=1)
        self.stop_after(interrupted, 3)
        with pytest.raises(TrainingInterrupted):
            make_trainer(2).train(matrices, rng=TRAIN_SEED,
                                  checkpointer=interrupted)

        resumed = make_trainer(1)
        resumed.train(matrices, rng=TRAIN_SEED,
                      checkpointer=TrainerCheckpointer(tmp_path))
        assert_state_identical(expected_state, full_state(resumed))

    def test_different_grad_shards_refused(self, tmp_path):
        matrices = make_matrices()
        interrupted = TrainerCheckpointer(tmp_path, every_batches=1)
        self.stop_after(interrupted, 2)
        with pytest.raises(TrainingInterrupted):
            make_trainer(1, grad_shards=4).train(matrices, rng=TRAIN_SEED,
                                                 checkpointer=interrupted)
        from repro.core.checkpoint import CheckpointError

        with pytest.raises(CheckpointError,
                           match="different training configuration"):
            make_trainer(1, grad_shards=2).train(
                matrices, rng=TRAIN_SEED,
                checkpointer=TrainerCheckpointer(tmp_path),
            )


@pytest.mark.chaos
@pytest.mark.mp
class TestCrashBehaviour:
    def test_injected_fault_fails_the_epoch_loudly(self):
        """An armed ``parallel.reduce`` seam aborts the run before the
        faulted round's gradient is applied — no step happens on a sum
        that was never completed."""
        trainer = make_trainer(1, config=tiny_config(epochs=1))
        before = [p.data.copy() for p in trainer.generator.parameters()]
        with FaultPlan().arm("parallel.reduce", "raise") as plan:
            with pytest.raises(FaultError):
                trainer.train(make_matrices(), rng=TRAIN_SEED)
        assert plan.fired("parallel.reduce") == 1
        # The very first shard publish faulted, so no optimizer ever
        # stepped: the generator still holds its initial weights.
        for param, original in zip(trainer.generator.parameters(), before):
            assert np.array_equal(param.data, original), param.name

    def test_worker_failure_surfaces_its_error(self, monkeypatch):
        """A worker that dies with an exception mid-round reports it; the
        master turns the report into a loud ParallelTrainingError instead
        of stepping on partial gradients."""
        from repro.core import parallel as parallel_module

        original = parallel_module._ShardExecutor.run_round

        def poisoned(self, offset, rows, ops, reuse_fake):
            # Shards are assigned round-robin: with 2 processes and 4
            # shards, only the worker (rank 1) owns shard 1 — so this
            # raises in the worker process and nowhere else.
            if 1 in self.shard_ids:
                raise RuntimeError("poisoned shard")
            return original(self, offset, rows, ops, reuse_fake)

        monkeypatch.setattr(parallel_module._ShardExecutor, "run_round",
                            poisoned)
        trainer = make_trainer(2, config=tiny_config(epochs=1),
                               round_timeout_s=30.0)
        with pytest.raises(ParallelTrainingError) as excinfo:
            trainer.train(make_matrices(), rng=TRAIN_SEED)
        assert "poisoned shard" in str(excinfo.value)
        assert "partial gradient" in str(excinfo.value)

    def test_hard_worker_kill_detected(self, tmp_path):
        """SIGKILL a child mid-run: the master must fail the epoch, not
        silently continue with partial gradients."""
        trainer = make_trainer(2, config=tiny_config(epochs=1),
                               round_timeout_s=30.0)
        checkpointer = TrainerCheckpointer(tmp_path, every_batches=1)
        original = checkpointer.on_batch

        def kill_then_save(inner_trainer, rng, **kwargs):
            result = original(inner_trainer, rng, **kwargs)
            if kwargs["n_batches"] == 1:
                os.kill(inner_trainer.worker_pids[0], signal.SIGKILL)
            return result

        checkpointer.on_batch = kill_then_save
        with pytest.raises(ParallelTrainingError, match="died"):
            trainer.train(make_matrices(), rng=TRAIN_SEED,
                          checkpointer=checkpointer)

    def test_resume_after_crash_is_bit_exact(self, tmp_path, baseline_f64):
        """A faulted run leaves a consistent checkpoint: resuming from it
        (at a different worker count) reproduces the uninterrupted run."""
        expected_state, expected_history = baseline_f64
        matrices = make_matrices()

        crashed = make_trainer(1)
        # Fire deep enough into the run that whole batches (and their
        # per-batch checkpoints) completed before the crash.
        with FaultPlan().arm("parallel.reduce", "raise", after=80):
            with pytest.raises(FaultError):
                crashed.train(matrices, rng=TRAIN_SEED,
                              checkpointer=TrainerCheckpointer(
                                  tmp_path, every_batches=1))

        resumed = make_trainer(2)
        history = resumed.train(matrices, rng=TRAIN_SEED,
                                checkpointer=TrainerCheckpointer(tmp_path))
        assert_state_identical(expected_state, full_state(resumed))
        assert history.epochs == expected_history.epochs
