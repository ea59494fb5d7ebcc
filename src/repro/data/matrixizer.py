"""Record vector <-> d×d square matrix conversion (paper §3.2 step 1).

A record of ``n`` attributes is zero-padded to ``d*d`` values and reshaped
into a ``d×d`` single-channel image so DCGAN-style 2-D convolutions apply.
``d`` is chosen as the smallest power of two whose square holds all
attributes (powers of two keep the stride-2 conv stack geometry exact);
the paper's own architecture (Figure 2) uses the same halving/doubling
ladder.

The same conversion at ``rank=1`` keeps records in the "original vector
format" that §3.2 step 1 found sub-optimal: each record is padded to a
power-of-two length ``L`` and becomes an ``(N, 1, L)`` vector for 1-D
convolutions.  :mod:`repro.core` selects it with
``TableGanConfig(layout="vector")`` so the claim is reproducible.
"""

from __future__ import annotations

import numpy as np


def side_for_features(n_features: int, minimum: int = 4, rank: int = 2) -> int:
    """Smallest power-of-two side ``d`` with ``d**rank >= n_features``."""
    if n_features <= 0:
        raise ValueError(f"n_features must be positive, got {n_features}")
    d = minimum
    while d ** rank < n_features:
        d *= 2
    return d


class Matrixizer:
    """Stateless converter between record batches and square matrices.

    Parameters
    ----------
    n_features:
        Number of attributes per record.
    side:
        Matrix side length; defaults to :func:`side_for_features`.
    rank:
        Spatial rank of the converted records: 2 for ``(N, 1, d, d)``
        matrices, 1 for ``(N, 1, L)`` vectors.
    """

    def __init__(self, n_features: int, side: int | None = None, rank: int = 2):
        if n_features <= 0:
            raise ValueError(f"n_features must be positive, got {n_features}")
        if rank not in (1, 2):
            raise ValueError(f"rank must be 1 or 2, got {rank}")
        self.n_features = n_features
        self.rank = rank
        self.side = side_for_features(n_features, rank=rank) if side is None else side
        if self.side ** rank < n_features:
            raise ValueError(
                f"side {self.side} too small for {n_features} features"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of one converted record: one channel, then ``rank`` sides."""
        return (1,) + (self.side,) * self.rank

    @property
    def padding(self) -> int:
        """Number of zero cells appended to each record."""
        return self.side ** self.rank - self.n_features

    def to_matrices(self, records: np.ndarray) -> np.ndarray:
        """(N, n_features) records -> (N, 1, d, ...) matrices with zero padding."""
        records = np.asarray(records, dtype=np.float64)
        if records.ndim != 2 or records.shape[1] != self.n_features:
            raise ValueError(
                f"expected (n, {self.n_features}) records, got {records.shape}"
            )
        batch = records.shape[0]
        padded = np.zeros((batch, self.side ** self.rank), dtype=np.float64)
        padded[:, : self.n_features] = records
        return padded.reshape(batch, *self.shape)

    def to_records(self, matrices: np.ndarray) -> np.ndarray:
        """(N, 1, d, ...) matrices -> (N, n_features) records, dropping padding."""
        matrices = np.asarray(matrices, dtype=np.float64)
        expected = (matrices.shape[0], *self.shape)
        if matrices.shape != expected:
            raise ValueError(f"expected shape {expected}, got {matrices.shape}")
        flat = matrices.reshape(matrices.shape[0], -1)
        return flat[:, : self.n_features].copy()

    def feature_position(self, feature_index: int) -> tuple[int, ...]:
        """Cell of a feature: (row, col) in a d×d matrix, (offset,) in a vector."""
        if not 0 <= feature_index < self.n_features:
            raise IndexError(f"feature index {feature_index} out of range")
        return tuple(int(i) for i in np.unravel_index(feature_index, self.shape[1:]))
