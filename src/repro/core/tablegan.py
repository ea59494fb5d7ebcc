"""The TableGAN facade: fit on a Table, sample a synthetic Table.

This is the library's primary public API.  It wires together the encoding
pipeline (TableCodec + Matrixizer), the three networks, the Algorithm 2
trainer, and the record sampler::

    from repro import TableGAN, low_privacy
    from repro.data.datasets import load_dataset

    bundle = load_dataset("lacity", seed=7)
    gan = TableGAN(low_privacy(epochs=5, seed=7))
    gan.fit(bundle.train)
    synthetic = gan.sample(len(bundle.train))
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import TableGanConfig
from repro.core.networks import (
    build_classifier,
    build_discriminator,
    build_generator,
)
from repro.core.sampler import RecordSampler
from repro.core.trainer import TableGanTrainer, TrainingHistory
from repro.data.encoding import TableCodec
from repro.data.matrixizer import Matrixizer, side_for_features
from repro.data.table import Table
from repro.nn import atomic_savez, load_state_dict, sigmoid, state_dict
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fitted


def _record_rank(config: TableGanConfig) -> int:
    """Spatial rank of ``config``'s record layout (§3.2).

    The paper's d×d matrix is rank 2; the "original vector format"
    ablation (``layout="vector"``) is rank 1 of the same code.
    """
    return 1 if config.layout == "vector" else 2


def build_generator_for(config: TableGanConfig, side: int, rng=None,
                        dtype=None):
    """A fresh generator matching ``config``'s layout at matrix side ``side``.

    ``dtype`` overrides ``config.dtype`` (used when restoring weights that
    were saved in a different precision).  Shared by :meth:`TableGAN.
    load_generator` and the serving-layer model registry, so every path
    that rebuilds a generator from persisted state constructs the same
    architecture.
    """
    dtype = config.np_dtype if dtype is None else np.dtype(dtype)
    rng = ensure_rng(rng if rng is not None else config.seed)
    return build_generator(side, config.latent_dim, config.base_channels,
                           rng, dtype=dtype, rank=_record_rank(config))


def matrixizer_for(config: TableGanConfig, n_features: int, side: int):
    """The record/matrix converter matching ``config``'s layout."""
    return Matrixizer(n_features, side=side, rank=_record_rank(config))


class TableGAN:
    """End-to-end table synthesizer (the paper's contribution).

    Parameters
    ----------
    config:
        Training configuration; see :mod:`repro.core.config` for the
        low/mid/high-privacy presets.
    """

    def __init__(self, config: TableGanConfig | None = None):
        self.config = config or TableGanConfig()
        self.codec_: TableCodec | None = None
        self.matrixizer_: Matrixizer | None = None
        self.generator_ = None
        self.discriminator_ = None
        self.classifier_ = None
        self.history_: TrainingHistory | None = None
        self.train_seconds_: float | None = None
        self._sampler: RecordSampler | None = None

    def fit(self, table: Table, rng=None, on_epoch_end=None,
            checkpointer=None, workers: int | None = None,
            grad_shards: int = 4) -> "TableGAN":
        """Train on ``table`` and return self.

        Parameters
        ----------
        table:
            The original table to learn.
        rng:
            Seed or generator (falls back to ``config.seed``).
        on_epoch_end:
            Optional per-epoch callback forwarded to the trainer.
        checkpointer:
            Optional :class:`~repro.core.checkpoint.TrainerCheckpointer`
            forwarded to the trainer: restores the newest snapshot before
            training and saves periodically (crash-safe ``--resume``).
        workers:
            ``None`` (default) runs the serial trainer.  An integer selects
            the data-parallel trainer (:mod:`repro.core.parallel`) with
            that many processes, whose result is bit-identical for every
            worker count: the shard decomposition, not the worker count,
            is what changes the numbers.
        grad_shards:
            Gradient shards per global batch for the data-parallel
            trainer; ignored when ``workers`` is ``None``.  One shard is
            the serial trainer: ``grad_shards=1`` reproduces
            ``workers=None`` bit for bit at any worker count.
        """
        config = self.config
        rng = ensure_rng(rng if rng is not None else config.seed)
        started = time.perf_counter()
        self._sampler = None
        dtype = config.np_dtype

        self.codec_ = TableCodec().fit(table)
        encoded = self.codec_.encode(table)
        rank = _record_rank(config)
        side = config.side or side_for_features(table.n_columns, rank=rank)
        self.matrixizer_ = Matrixizer(table.n_columns, side=side, rank=rank)
        self.generator_ = build_generator(
            side, config.latent_dim, config.base_channels, rng, dtype=dtype,
            rank=rank,
        )
        self.discriminator_ = build_discriminator(
            side, config.base_channels, rng, dtype=dtype, rank=rank
        )
        matrices = self.matrixizer_.to_matrices(encoded)

        if config.label_columns is not None:
            label_names = list(config.label_columns)
        elif table.schema.label is not None:
            label_names = [table.schema.label]
        else:
            label_names = []
        use_classifier = config.use_classifier and bool(label_names)
        label_cell = None
        if use_classifier:
            self.classifier_ = build_classifier(
                side, config.base_channels, rng, n_labels=len(label_names),
                dtype=dtype, rank=rank,
            )
            label_cell = [
                self.matrixizer_.feature_position(table.schema.index(name))
                for name in label_names
            ]
        else:
            self.classifier_ = None

        effective = config if use_classifier else config.with_overrides(use_classifier=False)
        if workers is None:
            trainer = TableGanTrainer(
                self.generator_, self.discriminator_, self.classifier_,
                effective, label_cell=label_cell,
            )
        else:
            from repro.core.parallel import ParallelTrainer

            trainer = ParallelTrainer(
                self.generator_, self.discriminator_, self.classifier_,
                effective, label_cell=label_cell, workers=workers,
                grad_shards=grad_shards,
            )
        self.history_ = trainer.train(matrices, rng=rng,
                                      on_epoch_end=on_epoch_end,
                                      checkpointer=checkpointer)
        self.train_seconds_ = time.perf_counter() - started
        return self

    @classmethod
    def from_parts(cls, config: TableGanConfig, codec: TableCodec,
                   matrixizer, generator) -> "TableGAN":
        """Assemble a sample-ready TableGAN from restored components.

        This is the constructor the serving layer's model registry uses: it
        rebuilds codec, matrixizer, and generator from persisted artifacts
        (no training table required) and gets back an object whose
        ``sample``/``sample_encoded`` behave exactly like the originally
        fitted model's.
        """
        gan = cls(config)
        gan.codec_ = codec
        gan.matrixizer_ = matrixizer
        gan.generator_ = generator
        return gan

    def record_sampler(self) -> RecordSampler:
        """The cached :class:`RecordSampler` (public serving-layer surface)."""
        return self._get_sampler()

    def _get_sampler(self) -> RecordSampler:
        """The cached :class:`RecordSampler` for the fitted generator.

        Built lazily on first use and invalidated whenever the generator
        changes (:meth:`fit`, :meth:`load_generator`), so repeated
        ``sample``/``sample_encoded`` calls reuse one sampler instead of
        rebuilding it per call.
        """
        check_fitted(self, "generator_")
        if self._sampler is None or self._sampler.generator is not self.generator_:
            self._sampler = RecordSampler(
                self.generator_, self.codec_, self.matrixizer_,
                self.config.latent_dim,
            )
        return self._sampler

    def sample(self, n: int, rng=None) -> Table:
        """Draw ``n`` synthetic rows as a schema-valid Table."""
        sampler = self._get_sampler()
        rng = ensure_rng(rng if rng is not None else self.config.seed)
        return sampler.sample_table(n, rng)

    def sample_blocks(self, n: int, rng=None):
        """Yield :meth:`sample`'s rows as Tables of the sampler's
        ``batch_size`` rows (the last may be shorter), each as soon as it
        is decoded.

        Block ``k`` is chunk ``k`` of :meth:`sample` with the same ``rng``:
        the same latent draws in the same order through the same generator
        forward, so the blocks concatenate to its rows bit for bit.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        sampler = self._get_sampler()
        rng = ensure_rng(rng if rng is not None else self.config.seed)
        for start in range(0, n, sampler.batch_size):
            yield sampler.sample_table(min(sampler.batch_size, n - start), rng)

    def sample_encoded(self, n: int, rng=None) -> np.ndarray:
        """Draw ``n`` synthetic records in the encoded [-1, 1] space."""
        sampler = self._get_sampler()
        rng = ensure_rng(rng if rng is not None else self.config.seed)
        return sampler.sample_records(n, rng)

    def discriminator_scores(self, table: Table) -> np.ndarray:
        """D's probability-of-real for each row of ``table``.

        This is the black-box surface the membership attack queries on
        shadow models (§4.5 step 4).  Scores are computed with the shared
        stable sigmoid (no clipping needed) and returned in float64.
        """
        check_fitted(self, "discriminator_")
        encoded = self.codec_.encode(table)
        matrices = self.matrixizer_.to_matrices(encoded).astype(
            self.config.np_dtype, copy=False
        )
        logits = self.discriminator_.forward(matrices, training=False).ravel()
        return sigmoid(logits.astype(np.float64))

    def save(self, path) -> None:
        """Persist generator weights plus codec state to ``path`` (.npz).

        The write is atomic (temp file + ``os.replace``), so an interrupted
        save never leaves a truncated archive behind.
        """
        check_fitted(self, "generator_")
        payload = {f"gen.{k}": v for k, v in state_dict(self.generator_).items()}
        payload["meta.side"] = np.array([self.matrixizer_.side])
        payload["meta.n_features"] = np.array([self.matrixizer_.n_features])
        mins = np.array([c.data_min_ for c in self.codec_.codecs_])
        maxs = np.array([c.data_max_ for c in self.codec_.codecs_])
        payload["meta.col_min"] = mins
        payload["meta.col_max"] = maxs
        atomic_savez(path, **payload)

    def load_generator(self, path, table: Table) -> "TableGAN":
        """Load generator weights saved by :meth:`save`.

        ``table`` supplies the schema; the codec is rebuilt from the saved
        column ranges, so decoding matches training-time scaling exactly.
        """
        with np.load(path) as archive:
            side = int(archive["meta.side"][0])
            n_features = int(archive["meta.n_features"][0])
            if n_features != table.n_columns:
                raise ValueError(
                    f"saved model has {n_features} features, table has {table.n_columns}"
                )
            self.codec_ = TableCodec.from_ranges(
                table.schema, archive["meta.col_min"], archive["meta.col_max"])
            self._sampler = None
            gen_state = {
                k[len("gen."):]: v for k, v in archive.items() if k.startswith("gen.")
            }
            # Rebuild the generator at the dtype the weights were saved in
            # (seed-era archives are float64): loading into the config
            # dtype would silently truncate the persisted model.
            dtypes = {
                v.dtype for v in gen_state.values()
                if np.issubdtype(v.dtype, np.floating)
            }
            saved_dtype = dtypes.pop() if len(dtypes) == 1 else np.dtype(np.float64)
            self.matrixizer_ = matrixizer_for(self.config, n_features, side)
            self.generator_ = build_generator_for(self.config, side,
                                                  dtype=saved_dtype)
            load_state_dict(self.generator_, gen_state)
        return self
