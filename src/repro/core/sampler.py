"""Synthetic record generation from a trained generator (paper §4.3 end).

Generation is lightweight compared to training: sample latent vectors in
the unit hypercube, one generator forward pass per batch, convert the
output matrices back to records, and decode them into a schema-valid
:class:`~repro.data.table.Table`.
"""

from __future__ import annotations

import numpy as np

from repro.data.encoding import TableCodec
from repro.data.matrixizer import Matrixizer
from repro.data.table import Table
from repro.nn import Sequential
from repro.utils.rng import ensure_rng


class RecordSampler:
    """Draws synthetic records from a trained generator.

    Parameters
    ----------
    generator:
        Trained generator network.
    codec:
        Fitted :class:`TableCodec` (decodes [-1, 1] records to table values).
    matrixizer:
        The record/matrix converter used during training.
    latent_dim:
        Latent dimension the generator was built with.
    batch_size:
        Default rows per generator forward pass.  The serving layer raises
        it to amortize per-call convolution overhead over large
        micro-batches; any ``sample_*`` call may override it per call.
    """

    def __init__(self, generator: Sequential, codec: TableCodec,
                 matrixizer: Matrixizer, latent_dim: int, batch_size: int = 256):
        if latent_dim <= 0:
            raise ValueError(f"latent_dim must be positive, got {latent_dim}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.generator = generator
        self.codec = codec
        self.matrixizer = matrixizer
        self.latent_dim = latent_dim
        self.batch_size = batch_size
        params = generator.parameters()
        self._dtype = params[0].data.dtype if params else np.dtype(np.float64)

    def sample_matrices(self, n: int, rng=None,
                        batch_size: int | None = None) -> np.ndarray:
        """Generate ``n`` raw record matrices (N, 1, d, d) in [-1, 1].

        The output is allocated once and filled batch by batch (no
        per-chunk concatenation); latent vectors are drawn in float64 and
        cast to the generator's compute dtype, so the record stream is
        identical across batch sizes and dtypes.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        rng = ensure_rng(rng)

        def draw(start: int, stop: int) -> np.ndarray:
            # Each chunk draws its latents as it goes: no n-row buffer.
            return rng.uniform(-1.0, 1.0, size=(stop - start, self.latent_dim))

        return self._generate(n, draw, batch_size)

    def matrices_from_latents(self, z: np.ndarray,
                              batch_size: int | None = None) -> np.ndarray:
        """Forward pre-drawn latents ``z`` (N, latent_dim) to record matrices.

        Runs the :meth:`sample_matrices` chunk loop on slices of ``z``, so
        the output is bit-identical to ``sample_matrices`` fed the same
        latent draws.  The multi-process serving tier uses this to keep
        latent sampling centralized (one seeded stream) while generation
        fans out.
        """
        if z.ndim != 2 or z.shape[1] != self.latent_dim:
            raise ValueError(
                f"z must have shape (n, {self.latent_dim}), got {z.shape}"
            )
        if z.shape[0] <= 0:
            raise ValueError(f"z must contain at least one row, got {z.shape[0]}")
        return self._generate(z.shape[0], lambda start, stop: z[start:stop],
                              batch_size)

    def _generate(self, n: int, latents, batch_size: int | None) -> np.ndarray:
        """The chunk loop behind both public generators.

        Per chunk: ``latents(start, stop)``, cast to the compute dtype,
        forward, copy into the output (allocated on the first chunk).
        """
        batch_size = self.batch_size if batch_size is None else batch_size
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        out: np.ndarray | None = None
        stream = getattr(self.generator, "stream_forward", None)
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            z = latents(start, stop).astype(self._dtype, copy=False)
            # Streamed inference keeps inter-layer activations cache-hot
            # on bulk batches; chunking is a pure function of the batch
            # size, so the record stream stays batch-size invariant.
            if stream is not None:
                matrices = stream(z)
            else:
                matrices = self.generator.forward(z, training=False)
            if out is None:
                out = np.empty((n, *matrices.shape[1:]), dtype=matrices.dtype)
            out[start:stop] = matrices
        return out

    def records_from_latents(self, z: np.ndarray,
                             batch_size: int | None = None) -> np.ndarray:
        """Encoded records (N, n_features) from pre-drawn latents."""
        return self.matrixizer.to_records(
            self.matrices_from_latents(z, batch_size=batch_size)
        )

    def sample_records(self, n: int, rng=None,
                       batch_size: int | None = None) -> np.ndarray:
        """Generate ``n`` encoded records (N, n_features) in [-1, 1]."""
        return self.matrixizer.to_records(
            self.sample_matrices(n, rng, batch_size=batch_size)
        )

    def sample_table(self, n: int, rng=None,
                     batch_size: int | None = None) -> Table:
        """Generate ``n`` decoded, schema-valid synthetic rows."""
        return self.codec.decode(self.sample_records(n, rng, batch_size=batch_size))
