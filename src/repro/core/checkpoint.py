"""Crash-safe training checkpoints: SIGTERM-and-resume without losing a batch.

Training runs for hours; the process hosting it does not always get to
finish.  This module makes the Algorithm 2 loop resumable to the *batch*:
a :class:`TrainerCheckpointer` periodically snapshots everything the loop
needs — network weights (including batch-norm running stats), the three
fused-Adam moment states, the EWMA feature statistics, the RNG stream,
the loss history, and the epoch/batch cursor (including the current
epoch's shuffle permutation and running loss sums) — into an atomically
written ``.npz`` next to the previous snapshot.

Resuming (:meth:`TrainerCheckpointer.restore`) replays none of the work:
weights, optimizer moments, and the RNG bit-generator state are restored
in place, and the loop continues from the saved cursor.  Because every
source of randomness flows through the one restored generator, a resumed
run is **bit-identical** to the uninterrupted one — the acceptance test
for this module compares final weights byte for byte.

Durability contract:

* every save is atomic (temp file + ``os.replace`` via
  :func:`repro.nn.serialization.atomic_savez`), so a crash mid-save never
  leaves a truncated archive at the checkpoint path;
* the previous checkpoint is rotated to ``checkpoint-prev.npz`` before
  the new one lands, so a *corrupted* latest (torn disk, bad sector)
  falls back to the previous snapshot instead of aborting the resume;
* ``SIGTERM`` handling is cooperative: the CLI's handler calls
  :meth:`~TrainerCheckpointer.request_stop`, the loop finishes its
  current batch, saves, and raises :class:`TrainingInterrupted` — the
  process exits with a resumable checkpoint, never a half-applied
  optimizer step.
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np

from repro.nn.serialization import (
    atomic_savez,
    load_state_dict,
    state_dict,
)


class CheckpointError(RuntimeError):
    """A checkpoint exists but cannot be used (corrupt pair, wrong run)."""


class TrainingInterrupted(RuntimeError):
    """Training stopped cooperatively at a checkpoint (e.g. on SIGTERM).

    The checkpoint at :attr:`path` resumes the run exactly where it
    stopped.
    """

    def __init__(self, path: str, epoch: int, batch_start: int):
        super().__init__(
            f"training interrupted at epoch {epoch}, batch offset "
            f"{batch_start}; resume from {path}"
        )
        self.path = path
        self.epoch = epoch
        self.batch_start = batch_start


class Cursor:
    """Where a restored run continues: epoch, batch offset, epoch state."""

    __slots__ = ("epoch", "batch_start", "perm", "sums", "n_batches")

    def __init__(self, epoch: int, batch_start: int, perm: np.ndarray | None,
                 sums: np.ndarray, n_batches: int):
        self.epoch = epoch
        self.batch_start = batch_start
        self.perm = perm
        self.sums = sums
        self.n_batches = n_batches


def _rng_state_array(rng) -> np.ndarray:
    """Serialize a numpy Generator's bit-generator state as a JSON scalar."""
    return np.array(json.dumps(rng.bit_generator.state))


def _restore_rng_state(rng, raw) -> None:
    rng.bit_generator.state = json.loads(str(raw[()]))


class TrainerCheckpointer:
    """Periodic, atomic, rotated snapshots of a training run.

    Parameters
    ----------
    directory:
        Where ``checkpoint-latest.npz`` / ``checkpoint-prev.npz`` live
        (created if missing).
    every_batches:
        Save every N mini-batches; 0 saves only at epoch boundaries.
        Epoch-end saves always happen regardless of this setting.
    """

    LATEST = "checkpoint-latest.npz"
    PREV = "checkpoint-prev.npz"

    def __init__(self, directory, every_batches: int = 0):
        if every_batches < 0:
            raise ValueError(
                f"every_batches must be non-negative, got {every_batches}"
            )
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.every_batches = every_batches
        self.saves = 0
        self.total_save_s = 0.0
        self._batches_since = 0
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # Paths / stop flag.
    # ------------------------------------------------------------------
    @property
    def latest_path(self) -> str:
        return os.path.join(self.directory, self.LATEST)

    @property
    def prev_path(self) -> str:
        return os.path.join(self.directory, self.PREV)

    def request_stop(self) -> None:
        """Ask the loop to checkpoint and exit after the current batch.

        Safe to call from a signal handler (sets an event, nothing more).
        """
        self._stop.set()

    @property
    def stop_requested(self) -> bool:
        return self._stop.is_set()

    # ------------------------------------------------------------------
    # Saving.
    # ------------------------------------------------------------------
    def _fingerprint(self, trainer) -> str:
        config = trainer.config
        # Worker count is deliberately absent: a training run is a pure
        # function of (data, config, schedule, shard count), so a
        # checkpoint taken at N=4 workers resumes bit-exactly at N=2.  The
        # shard count and schedule *do* change the numbers and therefore
        # do fingerprint; the serial trainer is the one-shard run.
        return json.dumps({
            "epochs": config.epochs,
            "batch_size": config.batch_size,
            "dtype": np.dtype(trainer._dtype).name,
            "classifier": trainer.opt_c is not None,
            "schedule": list(trainer.schedule.ops),
            "grad_shards": trainer.grad_shards,
        }, sort_keys=True)

    @staticmethod
    def _run_config(fingerprint: str) -> dict:
        """A fingerprint as a dict.  Serial checkpoints from before the
        serial trainer became the one-shard run recorded 0 shards."""
        config = json.loads(fingerprint)
        if config.get("grad_shards") == 0:
            config["grad_shards"] = 1
        return config

    def save(self, trainer, rng, *, epoch: int, batch_start: int,
             perm: np.ndarray | None, sums: np.ndarray | None,
             n_batches: int, history, n_rows: int) -> str:
        """Write one snapshot, rotating the previous latest to ``prev``."""
        payload: dict[str, np.ndarray] = {
            "meta.version": np.array([1], dtype=np.int64),
            "meta.config": np.array(self._fingerprint(trainer)),
            "cursor.epoch": np.array([epoch], dtype=np.int64),
            "cursor.batch_start": np.array([batch_start], dtype=np.int64),
            "cursor.n_batches": np.array([n_batches], dtype=np.int64),
            "cursor.n_rows": np.array([n_rows], dtype=np.int64),
            "cursor.sums": (np.zeros(5) if sums is None
                            else np.asarray(sums, dtype=np.float64)),
            "rng.state": _rng_state_array(rng),
            "hist.epochs": np.array(
                [[e.d_loss, e.g_adv_loss, e.g_info_loss, e.g_class_loss,
                  e.c_loss] for e in history.epochs],
                dtype=np.float64,
            ).reshape(len(history.epochs), 5),
        }
        if perm is not None:
            payload["cursor.perm"] = np.asarray(perm, dtype=np.int64)
        stats = trainer.stats
        payload["stats.weight"] = np.array([stats.weight])
        for name in ("fx_mean", "fx_sd", "fz_mean", "fz_sd"):
            payload[f"stats.{name}"] = np.asarray(getattr(stats, name),
                                                  dtype=np.float64)
        for tag, net in (("g", trainer.generator),
                         ("d", trainer.discriminator),
                         ("c", trainer.classifier)):
            if net is None:
                continue
            for key, value in state_dict(net).items():
                payload[f"net.{tag}.{key}"] = value
        for tag, opt in (("g", trainer.opt_g), ("d", trainer.opt_d),
                         ("c", trainer.opt_c)):
            if opt is None:
                continue
            for key, value in opt.state_dict().items():
                payload[f"opt.{tag}.{key}"] = value

        started = time.perf_counter()
        if os.path.exists(self.latest_path):
            # Rotate before the new write: if the process dies mid-save,
            # prev still holds a complete snapshot.
            os.replace(self.latest_path, self.prev_path)
        path = atomic_savez(self.latest_path, **payload)
        self.total_save_s += time.perf_counter() - started
        self.saves += 1
        return path

    # ------------------------------------------------------------------
    # Trainer hooks.
    # ------------------------------------------------------------------
    def on_batch(self, trainer, rng, *, epoch: int, next_start: int,
                 perm: np.ndarray, sums: np.ndarray, n_batches: int,
                 history, n_rows: int) -> None:
        """Called by the loop after every mini-batch."""
        self._batches_since += 1
        due = bool(self.every_batches
                   and self._batches_since >= self.every_batches)
        if due or self._stop.is_set():
            self.save(trainer, rng, epoch=epoch, batch_start=next_start,
                      perm=perm, sums=sums, n_batches=n_batches,
                      history=history, n_rows=n_rows)
            self._batches_since = 0
        if self._stop.is_set():
            raise TrainingInterrupted(self.latest_path, epoch, next_start)

    def on_epoch(self, trainer, rng, *, epoch: int, history,
                 n_rows: int) -> None:
        """Called by the loop after each epoch's bookkeeping completes."""
        # The cursor points at the *next* epoch, with no mid-epoch state.
        self.save(trainer, rng, epoch=epoch + 1, batch_start=0, perm=None,
                  sums=None, n_batches=0, history=history, n_rows=n_rows)
        self._batches_since = 0
        if self._stop.is_set():
            raise TrainingInterrupted(self.latest_path, epoch + 1, 0)

    # ------------------------------------------------------------------
    # Restoring.
    # ------------------------------------------------------------------
    @staticmethod
    def _read_payload(path: str) -> dict | None:
        """Load one archive; None when missing or unreadable (corrupt)."""
        if not os.path.exists(path):
            return None
        try:
            with np.load(path) as archive:
                return {key: archive[key] for key in archive.files}
        except Exception:  # noqa: BLE001 — torn/corrupt file == no file
            return None

    def load_payload(self) -> dict | None:
        """The newest readable snapshot (latest, else prev), or None.

        Raises :class:`CheckpointError` when checkpoint files exist but
        none of them is readable — resuming was requested and silently
        restarting from scratch would discard that intent.
        """
        payload = self._read_payload(self.latest_path)
        if payload is not None:
            return payload
        payload = self._read_payload(self.prev_path)
        if payload is not None:
            return payload
        if os.path.exists(self.latest_path) or os.path.exists(self.prev_path):
            raise CheckpointError(
                f"checkpoints in {self.directory} exist but none is "
                "readable (latest and prev both corrupt)"
            )
        return None

    def restore(self, trainer, rng, history, n_rows: int) -> Cursor | None:
        """Load the newest snapshot into ``trainer``/``rng``/``history``.

        Returns the :class:`Cursor` to continue from, or None when no
        checkpoint exists.  Raises :class:`CheckpointError` when the
        snapshot belongs to a different run (config fingerprint or row
        count mismatch).
        """
        payload = self.load_payload()
        if payload is None:
            return None
        saved_fp = str(payload["meta.config"][()])
        if self._run_config(saved_fp) != self._run_config(
                self._fingerprint(trainer)):
            raise CheckpointError(
                "checkpoint belongs to a different training configuration: "
                f"saved {saved_fp}, current {self._fingerprint(trainer)}"
            )
        saved_rows = int(payload["cursor.n_rows"][0])
        if saved_rows != n_rows:
            raise CheckpointError(
                f"checkpoint was taken on {saved_rows} training rows, "
                f"current data has {n_rows}"
            )

        def extract(prefix: str) -> dict[str, np.ndarray]:
            return {key[len(prefix):]: value
                    for key, value in payload.items()
                    if key.startswith(prefix)}

        load_state_dict(trainer.generator, extract("net.g."))
        load_state_dict(trainer.discriminator, extract("net.d."))
        if trainer.classifier is not None:
            load_state_dict(trainer.classifier, extract("net.c."))
        trainer.opt_g.load_state_dict(extract("opt.g."))
        trainer.opt_d.load_state_dict(extract("opt.d."))
        if trainer.opt_c is not None:
            trainer.opt_c.load_state_dict(extract("opt.c."))
        stats = trainer.stats
        for name in ("fx_mean", "fx_sd", "fz_mean", "fz_sd"):
            setattr(stats, name, payload[f"stats.{name}"].copy())
        _restore_rng_state(rng, payload["rng.state"])

        # Rebuild the loss history up to the snapshot.
        from repro.core.trainer import EpochLosses

        history.epochs.clear()
        for row in payload["hist.epochs"]:
            history.append(EpochLosses(*[float(v) for v in row]))

        perm = payload.get("cursor.perm")
        return Cursor(
            epoch=int(payload["cursor.epoch"][0]),
            batch_start=int(payload["cursor.batch_start"][0]),
            perm=None if perm is None else perm.astype(np.intp, copy=False),
            sums=payload["cursor.sums"].astype(np.float64, copy=True),
            n_batches=int(payload["cursor.n_batches"][0]),
        )
