"""Chunked table-GAN training for large tables (paper §4.4).

The paper's second scalability strategy: split the table into several
smaller chunks, train an independent table-GAN on each, then sample from
each trained model and merge — runtime drops linearly in the number of
chunks (and chunks are embarrassingly parallel).  The paper uses this for
the million-row Airline table.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import TableGanConfig
from repro.core.tablegan import TableGAN
from repro.data.table import Table
from repro.utils.rng import ensure_rng, spawn_rng
from repro.utils.validation import check_fitted


class ChunkedTableGAN:
    """Train one table-GAN per row chunk and sample from the ensemble.

    Parameters
    ----------
    config:
        Configuration shared by every chunk's model.
    n_chunks:
        Number of (near-)equal row chunks.
    """

    def __init__(self, config: TableGanConfig | None = None, n_chunks: int = 2):
        if n_chunks < 1:
            raise ValueError(f"n_chunks must be at least 1, got {n_chunks}")
        self.config = config or TableGanConfig()
        self.n_chunks = n_chunks
        self.models_: list[TableGAN] | None = None
        self.chunk_sizes_: list[int] | None = None

    def fit(self, table: Table, rng=None) -> "ChunkedTableGAN":
        """Shuffle rows, split into chunks, and train a model per chunk."""
        rng = ensure_rng(rng if rng is not None else self.config.seed)
        if table.n_rows < 2 * self.n_chunks:
            raise ValueError(
                f"{table.n_rows} rows is too few for {self.n_chunks} chunks"
            )
        order = rng.permutation(table.n_rows)
        chunks = np.array_split(order, self.n_chunks)
        child_rngs = spawn_rng(rng, self.n_chunks)

        self.models_ = []
        self.chunk_sizes_ = []
        for chunk_idx, child in zip(chunks, child_rngs):
            model = TableGAN(self.config)
            model.fit(table.take(chunk_idx), rng=child)
            self.models_.append(model)
            self.chunk_sizes_.append(int(chunk_idx.size))
        return self

    def sample(self, n: int, rng=None) -> Table:
        """Draw ``n`` rows, proportionally to chunk sizes, and merge."""
        check_fitted(self, "models_")
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        rng = ensure_rng(rng if rng is not None else self.config.seed)
        total = sum(self.chunk_sizes_)
        counts = [int(round(n * size / total)) for size in self.chunk_sizes_]
        # Fix rounding drift on the largest chunk.
        counts[int(np.argmax(self.chunk_sizes_))] += n - sum(counts)
        parts = [
            model.sample(count, rng=child)
            for model, count, child in zip(
                self.models_, counts, spawn_rng(rng, len(self.models_))
            )
            if count > 0
        ]
        values = np.concatenate([part.values for part in parts], axis=0)
        merged = Table(values, parts[0].schema)
        return merged.take(rng.permutation(merged.n_rows))

    def sample_blocks(self, n: int, rng=None):
        """Yield :meth:`sample`'s rows as one block: the merged rows are
        permuted, so no row is final before every sub-model has sampled."""
        yield self.sample(n, rng)

    @property
    def train_seconds_(self) -> float:
        """Total training time across chunks (sequential execution)."""
        check_fitted(self, "models_")
        return float(sum(model.train_seconds_ for model in self.models_))
