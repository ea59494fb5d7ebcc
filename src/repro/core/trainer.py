"""Algorithm 2: the table-GAN training loop.

Per mini-batch, in the paper's order:

1. update the discriminator D with the original GAN loss (line 8);
2. update the classifier C with the classification loss on real records
   (line 9);
3. refresh the EWMA feature statistics from post-update D features of the
   real and synthetic batches (lines 10–13);
4. update the generator G with L_orig + L_info + L_class (line 14).

The generator gradient is assembled from three back-propagations through
the (frozen) discriminator/classifier:

* the adversarial gradient enters at D's logit;
* the information-loss gradient is injected directly at D's feature layer
  (the flattened pre-sigmoid activations);
* the classification gradient flows through C — with the label cell of the
  record zeroed on the way in (``remove``) and the direct dependence of the
  synthesized label on the generator output added back separately.

This module is the one implementation of the loop.  Every mini-batch is
split into ``grad_shards`` fixed row ranges (:func:`shard_bounds`) and the
:class:`~repro.core.schedule.UpdateSchedule` into synchronization rounds
(:meth:`~repro.core.schedule.UpdateSchedule.rounds`).  Per round,
:class:`ShardOps` computes every shard's gradient from the pre-round
weights, then each optimizer steps once.  :class:`TableGanTrainer` is the
one-shard, one-process case: the gradient never leaves the parameters and
each optimizer steps in place.  :class:`~repro.core.parallel.ParallelTrainer`
changes only where a round's shards are computed and how their gradients
are summed.

All three Adam optimizers default to the fused flat-buffer path
(:mod:`repro.nn.optim`): each network's parameters are materialized as
views into one contiguous buffer, so every ``step()`` is a handful of
whole-buffer in-place ops and every ``zero_grad()`` is a single memset.
The trainer therefore zeroes gradients through the optimizers rather than
by walking the layer tree.  Under :func:`repro.nn.reference_kernels` the
optimizers fall back to the per-parameter reference loop — that is how the
engine benchmark reconstructs the seed-idiom epoch cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import TableGanConfig
from repro.core.losses import (
    FeatureStats,
    classification_loss,
    discriminator_loss,
    generator_adversarial_loss,
    information_loss,
)
from repro.core.networks import FEATURE_LAYER
from repro.core.schedule import UpdateSchedule
from repro.nn import Adam, Sequential
from repro.nn.batchnorm import BatchNorm
from repro.obs import trace
from repro.obs.profile import PhaseProfile
from repro.utils.rng import ensure_rng

#: Where each op's losses land in a batch's (d, g_adv, g_info, g_class, c)
#: loss vector.
_LOSS_SLOTS = {"d": slice(0, 1), "g": slice(1, 4), "c": slice(4, 5)}


@dataclass
class EpochLosses:
    """Mean per-epoch training losses, for convergence inspection."""

    d_loss: float
    g_adv_loss: float
    g_info_loss: float
    g_class_loss: float
    c_loss: float


@dataclass
class TrainingHistory:
    """Loss trajectory over epochs plus the final feature discrepancies."""

    epochs: list[EpochLosses] = field(default_factory=list)
    final_l_mean: float = 0.0
    final_l_sd: float = 0.0

    def append(self, losses: EpochLosses) -> None:
        self.epochs.append(losses)


def shard_bounds(rows: int, shards: int) -> list[tuple[int, int]]:
    """Split ``rows`` batch rows into ``shards`` contiguous ranges.

    The first ``rows % shards`` shards get one extra row.  This is the
    *fixed decomposition* every determinism guarantee hangs off: it
    depends only on (rows, shards), never on worker count.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if rows < shards:
        raise ValueError(f"cannot split {rows} rows into {shards} shards")
    base, extra = divmod(rows, shards)
    bounds, start = [], 0
    for s in range(shards):
        stop = start + base + (1 if s < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _bn_layers(net: Sequential | None) -> list[BatchNorm]:
    """The BatchNorm layers of ``net`` in layer order."""
    if net is None:
        return []
    return [layer for layer in net.layers if isinstance(layer, BatchNorm)]


class ShardOps:
    """The Algorithm 2 op set, run over one process's shards of a batch.

    Every process that computes shards holds one: the serial trainer
    (which owns the single shard), and the data-parallel master and each
    of its workers.  An op leaves one shard's gradient in the network's
    parameters and hands it to :meth:`_publish`.  Here that is a no-op,
    and the optimizer steps on the gradient in place; the data-parallel
    subclass copies it out to the shard's reduce slot.

    Forward caches follow one rule set, per shard:

    * ``d``, ``stats`` and ``g`` reuse the shard's synthetic batch while
      G's weights are unchanged (``reuse_fake``, set by the round loop);
    * the first ``g`` after ``stats`` reuses D's logits on that batch
      instead of running a second identical D forward.

    A process that owns several shards overwrites one shard's caches with
    the next one's.  When a ``g`` op needs caches that the rules say are
    still valid, :meth:`_rebuild` recomputes them with a forward that
    emits no BatchNorm event.  The running statistics therefore fold each
    forward of the schedule exactly once, whatever the number of shards
    per process.
    """

    def __init__(self, trainer: "TableGanTrainer", shard_ids, stats):
        self.t = trainer
        self.shard_ids = sorted(shard_ids)
        #: The EWMA feature statistics the information loss reads.
        self.stats = stats
        self._bn = {
            "g": _bn_layers(trainer.generator),
            "d": _bn_layers(trainer.discriminator),
            "c": _bn_layers(trainer.classifier if trainer.opt_c is not None
                            else None),
        }
        self._fake: dict[int, np.ndarray] = {}
        self._g_holds: int | None = None  # shard whose forward G's caches hold
        self._d_holds: int | None = None  # shard whose fake batch D's caches hold
        self._stats_fresh = False  # the last D-touching round was ``stats``

    def run_round(self, offset: int, rows: int, ops, reuse_fake: bool) -> dict:
        """Compute ``ops`` on every owned shard of the batch at ``offset``.

        Returns ``{shard: {op: result}}``.  ``reuse_fake`` says the cached
        synthetic batches are still valid (no G step since they were
        computed).  It is a fact of the schedule position, so cache
        behaviour is the same for every worker count.
        """
        if not reuse_fake:
            self._fake.clear()
            self._g_holds = None
            self._stats_fresh = False
        t = self.t
        bounds = shard_bounds(rows, t.grad_shards)
        results = {}
        for shard in self.shard_ids:
            start, stop = bounds[shard]
            real = t._epoch_rows[offset + start:offset + stop]
            z = t._latent[start:stop]
            results[shard] = self._run_shard(shard, ops, real, z,
                                             (stop - start) / rows)
        if "stats" in ops:
            self._stats_fresh = True
        elif "d" in ops or "g" in ops:
            self._stats_fresh = False
        return results

    def _run_shard(self, shard: int, ops, real, z, weight: float) -> dict:
        results = {}
        for op in ops:
            if op == "d":
                results[op] = self._op_d(shard, real, z, weight)
            elif op == "c":
                results[op] = self._op_c(shard, real, weight)
            elif op == "stats":
                results[op] = self._op_stats(shard, real, z)
            else:  # "g"
                results[op] = self._op_g(shard, z, weight)
        return results

    # -- caches ----------------------------------------------------------
    def _shard_fake(self, shard: int, z: np.ndarray) -> np.ndarray:
        """The shard's synthetic batch: one G forward per G update."""
        fake = self._fake.get(shard)
        if fake is None:
            fake = self._fake[shard] = self.t.generator.forward(z)
            self._g_holds = shard
        return fake

    def _rebuild(self, tag: str, net: Sequential, x: np.ndarray) -> np.ndarray:
        """Re-run a forward whose caches another shard overwrote.

        It normalizes with the same batch statistics, so the caches come
        back bit-identical.  But the schedule already counted this forward,
        so its BatchNorm events go to a throwaway tap instead of the
        running statistics.
        """
        layers = self._bn[tag]
        taps = [layer.stats_tap for layer in layers]
        for layer in layers:
            layer.stats_tap = []
        try:
            return net.forward(x)
        finally:
            for layer, tap in zip(layers, taps):
                layer.stats_tap = tap

    def _publish(self, shard: int, tag: str, weight: float) -> None:
        """Hand the shard's ``tag`` gradient to the step.  With one shard
        in one process it stays in the parameters."""

    # -- the ops -----------------------------------------------------------
    def _op_d(self, shard, real, z, weight) -> tuple[float]:
        """D's gradient on L_orig^D (Algorithm 2 line 8).

        The real and fake halves are back-propagated one after the other
        (a Sequential holds one forward cache at a time); gradients
        accumulate across both halves.
        """
        t = self.t
        fake = self._shard_fake(shard, z)
        t.opt_d.zero_grad()
        real_logits = t.discriminator.forward(real)
        # Only the real-half gradient from this call is valid; backprop
        # it, then run the fake half with its own logits.
        _, grad_real, _ = discriminator_loss(
            real_logits, np.zeros_like(real_logits)
        )
        t.discriminator.backward(grad_real)
        fake_logits = t.discriminator.forward(fake)
        loss, _, grad_fake = discriminator_loss(real_logits, fake_logits)
        t.discriminator.backward(grad_fake)
        self._publish(shard, "d", weight)
        return (loss,)

    def _op_c(self, shard, real, weight) -> tuple[float]:
        """C's gradient on the classification loss (line 9); a zero loss
        when the classifier is disabled."""
        t = self.t
        if t.opt_c is None:
            return (0.0,)
        labels = t._labels01(real)
        logits = t.classifier.forward(t._remove_label(real))
        logits = logits.ravel() if labels.ndim == 1 else logits
        loss, grad_logits, _ = classification_loss(logits, labels)
        t.opt_c.zero_grad()
        t.classifier.backward(grad_logits)
        self._publish(shard, "c", weight)
        return (loss,)

    def _op_stats(self, shard, real, z) -> tuple[np.ndarray, ...]:
        """The shard's real and synthetic feature mean/sd from post-update
        D (lines 10–13).  The real pass runs first, so D's caches end on
        the synthetic batch, which the next ``g`` op back-propagates
        through."""
        t = self.t
        fake = self._shard_fake(shard, z)
        t.discriminator.forward(real)
        features = t.discriminator.activation(FEATURE_LAYER)
        real_stats = (features.mean(axis=0), features.std(axis=0))
        t.discriminator.forward(fake)
        features = t.discriminator.activation(FEATURE_LAYER)
        self._d_holds = shard
        return (*real_stats, features.mean(axis=0), features.std(axis=0))

    def _op_g(self, shard, z, weight) -> tuple[float, float, float]:
        """G's gradient on L_orig + L_info + L_class (line 14)."""
        t = self.t
        config = t.config
        if shard in self._fake and self._g_holds != shard:
            self._rebuild("g", t.generator, z)
            self._g_holds = shard
        fake = self._shard_fake(shard, z)
        # Adversarial part (through D's logit).
        if not self._stats_fresh:
            fake_logits = t.discriminator.forward(fake)
        elif self._d_holds == shard:
            fake_logits = t.discriminator.activation(len(t.discriminator) - 1)
        else:
            fake_logits = self._rebuild("d", t.discriminator, fake)
            self._d_holds = shard
        adv_loss, grad_logits = generator_adversarial_loss(
            fake_logits, saturating=config.saturating_generator_loss
        )

        # Information part (injected at D's feature layer).  Backward rules
        # are linear in the gradient, so the adversarial gradient is carried
        # down to the feature layer, the information-loss gradient added
        # there, and the sum propagated through the (expensive) conv stack
        # once — instead of one full traversal per loss term.  The
        # parameter gradients this op leaves in D (and C) are by-products:
        # the next ``d`` (``c``) op zeroes them before it accumulates.
        info_loss_value = 0.0
        grad_at_features = t.discriminator.backward_to(FEATURE_LAYER, grad_logits)
        if config.use_info_loss:
            synthetic_features = t.discriminator.activation(FEATURE_LAYER)
            info_loss_value, grad_features = information_loss(
                self.stats, synthetic_features, config.delta_mean, config.delta_sd
            )
            if np.any(grad_features):
                grad_at_features = grad_at_features + grad_features
        grad_at_fake = t.discriminator.backward_from(FEATURE_LAYER, grad_at_features)

        # Classification part (through C on label-removed records).
        class_loss_value = 0.0
        if t.opt_c is not None:
            labels = t._labels01(fake)
            c_logits = t.classifier.forward(t._remove_label(fake))
            c_logits = c_logits.ravel() if labels.ndim == 1 else c_logits
            class_loss_value, grad_c_logits, grad_labels = classification_loss(
                c_logits, labels
            )
            grad_via_c = t.classifier.backward(grad_c_logits)
            # The classifier never saw the label cells; no gradient there.
            # Direct dependence of the synthesized labels on G's output:
            # labels01 = (cell + 1) / 2, so d(labels01)/d(cell) = 1/2.
            if labels.ndim == 1:
                grad_via_c[t._label_indices[0]] = grad_labels * 0.5
            else:
                for j, index in enumerate(t._label_indices):
                    grad_via_c[index] = grad_labels[:, j] * 0.5
            grad_at_fake = grad_at_fake + grad_via_c

        t.opt_g.zero_grad()
        t.generator.backward(grad_at_fake)
        self._publish(shard, "g", weight)
        return adv_loss, info_loss_value, class_loss_value


class TableGanTrainer:
    """Trains generator/discriminator/classifier on encoded record matrices.

    Parameters
    ----------
    generator, discriminator, classifier:
        The three networks (``classifier`` may be ``None`` when the
        classification loss is disabled).
    config:
        Hyper-parameters; ``config.use_info_loss`` / ``use_classifier``
        gate the two auxiliary losses.
    label_cell:
        Position of the label attribute inside the record tensor — a
        (row, col) tuple for the square layout, an (offset,) tuple for the
        vector layout, or a *list* of such tuples for the §4.2.3
        multi-label extension.  Required when the classifier is enabled.
    schedule:
        The per-batch update interleave (an
        :class:`~repro.core.schedule.UpdateSchedule`).  Defaults to the
        seed interleave derived from ``config`` — one D step, one C step,
        a statistics refresh, then ``config.generator_updates`` G steps.
    """

    #: Gradient shards per global batch.  The serial trainer is the
    #: one-shard case of :class:`~repro.core.parallel.ParallelTrainer`.
    grad_shards = 1

    def __init__(self, generator: Sequential, discriminator: Sequential,
                 classifier: Sequential | None, config: TableGanConfig,
                 label_cell=None, schedule: UpdateSchedule | None = None):
        self.generator = generator
        self.discriminator = discriminator
        self.classifier = classifier
        self.config = config
        if label_cell is None:
            self.label_cells: list[tuple] | None = None
        elif isinstance(label_cell, list):
            self.label_cells = [tuple(cell) for cell in label_cell]
        else:
            self.label_cells = [tuple(label_cell)]
        if config.use_classifier and classifier is not None and self.label_cells is None:
            raise ValueError("label_cell is required when the classifier is enabled")
        self.opt_g = Adam(generator.parameters(), lr=config.lr, beta1=config.beta1)
        self.opt_d = Adam(discriminator.parameters(), lr=config.lr, beta1=config.beta1)
        self.opt_c = (
            Adam(classifier.parameters(), lr=config.lr, beta1=config.beta1)
            if (config.use_classifier and classifier is not None)
            else None
        )
        self.schedule = (schedule if schedule is not None
                         else UpdateSchedule.from_config(config))
        self.stats: FeatureStats | None = None
        self._dtype = config.np_dtype
        # Wall-clock spent per training phase across the whole run; always
        # on (two perf_counter reads per phase) and read back by the bench.
        self.profile = PhaseProfile()

    # ------------------------------------------------------------------
    def sample_latent(self, batch: int, rng) -> np.ndarray:
        """z uniform in the unit hypercube [-1, 1]^latent_dim (paper §4.1.2).

        Drawn in float64 (so the stream is dtype-independent) and cast to
        the compute dtype.
        """
        z = rng.uniform(-1.0, 1.0, size=(batch, self.config.latent_dim))
        return z.astype(self._dtype, copy=False)

    @property
    def _label_indices(self) -> list[tuple]:
        """Numpy indices of the label cells: (row, col) cells for the square
        layout, (offset,) cells for the vector layout, one per label."""
        return [(slice(None), 0, *cell) for cell in self.label_cells]

    def _remove_label(self, matrices: np.ndarray) -> np.ndarray:
        """The paper's remove(.): zero the label cells so C cannot read them."""
        out = matrices.copy()
        for index in self._label_indices:
            out[index] = 0.0
        return out

    def _labels01(self, matrices: np.ndarray) -> np.ndarray:
        """Read label cells, mapped from [-1, 1] onto [0, 1].

        Returns shape ``(batch,)`` for the single-label case and
        ``(batch, n_labels)`` for the multi-label extension, matching the
        classifier head count.
        """
        columns = [
            np.clip((matrices[index] + 1.0) * 0.5, 0.0, 1.0)
            for index in self._label_indices
        ]
        if len(columns) == 1:
            return columns[0]
        return np.stack(columns, axis=1)

    # ------------------------------------------------------------------
    # The round loop.
    # ------------------------------------------------------------------
    def _open_rounds(self, matrices: np.ndarray, batch: int) -> ShardOps:
        """Allocate the epoch-row and latent buffers every round reads and
        return this process's :class:`ShardOps`, which owns the one shard."""
        self._epoch_rows = np.empty_like(matrices)
        self._latent = np.empty((batch, self.config.latent_dim), dtype=self._dtype)
        return ShardOps(self, [0], self.stats)

    def _compute_round(self, executor: ShardOps, offset: int, rows: int,
                       ops, reuse_fake: bool) -> dict:
        """Every shard's results for one round, ``{shard: {op: result}}``."""
        t0 = time.perf_counter()
        results = executor.run_round(offset, rows, ops, reuse_fake)
        self.profile.add("shard_compute", time.perf_counter() - t0)
        return results

    def _step(self, tag: str, opt: Adam) -> None:
        """Step ``opt`` on the round's ``tag`` gradient."""
        t0 = time.perf_counter()
        opt.step()
        self.profile.add("optimizer_step", time.perf_counter() - t0)

    def _apply_round(self, ops, results: dict, rows: int,
                     losses: np.ndarray) -> None:
        """Fold a round into the run: one optimizer step per gradient op,
        the feature statistics for ``stats``, and the shard-weighted losses,
        every sum in shard order."""
        weights = [(stop - start) / rows
                   for start, stop in shard_bounds(rows, self.grad_shards)]
        shards = [results[s] for s in range(self.grad_shards)]

        def fold(values) -> float:
            total = 0.0
            for weight, value in zip(weights, values):
                total += weight * value
            return total

        optimizers = {"d": self.opt_d, "c": self.opt_c, "g": self.opt_g}
        for op in ops:
            if op == "stats":
                # Every shard's real statistics, then every shard's
                # synthetic statistics: the serial real-then-synthetic fold.
                for shard in shards:
                    self.stats.fold_real(*shard[op][:2])
                for shard in shards:
                    self.stats.fold_synthetic(*shard[op][2:])
                continue
            losses[_LOSS_SLOTS[op]] = [
                fold(values) for values in zip(*(shard[op] for shard in shards))
            ]
            if optimizers[op] is not None:
                self._step(op, optimizers[op])

    def _run_batch(self, executor: ShardOps, offset: int, rows: int,
                   rng) -> np.ndarray:
        """Run one mini-batch through the schedule's rounds.

        Returns the ``(d, g_adv, g_info, g_class, c)`` losses.  When a
        schedule holds several ops of one kind, the last op's loss wins
        (matching the seed loop, which reported the final generator step's
        losses).
        """
        self._latent[...] = self.sample_latent(rows, rng)
        losses = np.zeros(5)
        reuse_fake = False
        for ops in self.schedule.rounds():
            results = self._compute_round(executor, offset, rows, ops, reuse_fake)
            self._apply_round(ops, results, rows, losses)
            if "g" in ops:
                reuse_fake = False
            elif "d" in ops or "stats" in ops:
                reuse_fake = True
        return losses

    # ------------------------------------------------------------------
    def train(self, matrices: np.ndarray, rng=None,
              on_epoch_end=None, checkpointer=None) -> TrainingHistory:
        """Run Algorithm 2 on encoded record matrices of shape (N, 1, d, d).

        Parameters
        ----------
        matrices:
            Encoded training records.
        rng:
            Seed or generator (falls back to ``config.seed``).
        on_epoch_end:
            Optional callback ``(epoch_index, EpochLosses) -> None``.
        checkpointer:
            Optional :class:`~repro.core.checkpoint.TrainerCheckpointer`.
            When given, the loop first restores the newest snapshot (if
            one exists) and continues from its epoch/batch cursor, then
            saves per its policy after each batch and epoch.  All
            randomness flows through the one restored generator, so a
            resumed run is bit-identical to an uninterrupted one.
        """
        config = self.config
        matrices = np.ascontiguousarray(matrices, dtype=self._dtype)
        if matrices.ndim not in (3, 4) or matrices.shape[1] != 1:
            raise ValueError(
                f"expected (N, 1, d, d) or (N, 1, L) matrices, got {matrices.shape}"
            )
        n = matrices.shape[0]
        if n < 2:
            raise ValueError("need at least 2 training records")
        rng = ensure_rng(rng if rng is not None else config.seed)

        # Probe feature width with a tiny forward pass.
        self.discriminator.forward(matrices[:1], training=False)
        n_features = self.discriminator.activation(FEATURE_LAYER).shape[1]
        self.stats = FeatureStats(n_features, weight=config.ewma_weight)

        history = TrainingHistory()
        batch = min(config.batch_size, n)
        cursor = None
        start_epoch = 0
        if checkpointer is not None:
            cursor = checkpointer.restore(self, rng, history, n_rows=n)
            if cursor is not None:
                start_epoch = cursor.epoch
        executor = self._open_rounds(matrices, batch)
        for epoch in range(start_epoch, config.epochs):
            if cursor is not None and cursor.perm is not None:
                # Mid-epoch resume: replay this epoch's shuffle and pick
                # up at the saved batch offset with the saved loss sums.
                perm = cursor.perm
                sums = cursor.sums
                n_batches = cursor.n_batches
                first_start = cursor.batch_start
            else:
                perm = rng.permutation(n)
                sums = np.zeros(5)
                n_batches = 0
                first_start = 0
            cursor = None
            # One shuffled gather per epoch; every shard's rows are a
            # zero-copy view into it.
            np.take(matrices, perm, axis=0, out=self._epoch_rows)
            for start in range(first_start, n - batch + 1, batch):
                with trace.span("train.batch", epoch=epoch, rows=batch):
                    sums += self._run_batch(executor, start, batch, rng)
                n_batches += 1
                if checkpointer is not None:
                    checkpointer.on_batch(
                        self, rng, epoch=epoch, next_start=start + batch,
                        perm=perm, sums=sums, n_batches=n_batches,
                        history=history, n_rows=n,
                    )

            if n_batches == 0:
                raise RuntimeError(
                    f"batch size {batch} too large for {n} records"
                )
            means = sums / n_batches
            losses = EpochLosses(*[float(v) for v in means])
            history.append(losses)
            if on_epoch_end is not None:
                on_epoch_end(epoch, losses)
            if checkpointer is not None:
                checkpointer.on_epoch(self, rng, epoch=epoch,
                                      history=history, n_rows=n)

        history.final_l_mean = self.stats.l_mean
        history.final_l_sd = self.stats.l_sd
        return history
