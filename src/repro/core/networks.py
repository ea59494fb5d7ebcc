"""The three table-GAN networks (paper §4.1, Figure 2).

All three follow DCGAN's architecture rules: strided convolutions instead
of pooling, batch normalization, ReLU in the generator, LeakyReLU in the
discriminator/classifier, no fully connected hidden layers except the
latent projection and the final logit.

The spatial ladder adapts to the record-matrix side ``d``:
``d -> d/2 -> ... -> 2`` in the discriminator (channels doubling), and the
mirror image in the generator.  The discriminator's flattened activations
before the final dense+sigmoid are registered as the ``"features"`` layer;
that is the vector the information loss (Eq. 2–3) statistics are computed
from.  ``rank`` is the record's spatial rank: 2 for the paper's d×d
matrices (§3.2), 1 for the "original vector format" ablation, which runs
the same ladder with 1-D convolutions.

Every builder takes the compute ``dtype`` (``TableGanConfig.np_dtype``)
and threads it through all parameters and running statistics, so each
network is dtype-homogeneous.  That is the property the fused optimizers
rely on: :meth:`Sequential.flatten_parameters` can materialize a whole
network as views into a single contiguous buffer and Adam updates it with
whole-buffer in-place ops (see :mod:`repro.nn.flatbuf` and
``docs/architecture.md``).
"""

from __future__ import annotations

import numpy as np

from repro.nn import (
    BatchNorm,
    Conv1D,
    Conv2D,
    ConvTranspose1D,
    ConvTranspose2D,
    Dense,
    Flatten,
    LeakyReLU,
    ReLU,
    Reshape,
    Sequential,
    Tanh,
)
from repro.utils.rng import ensure_rng

#: Name of the discriminator/classifier feature layer used by the info loss.
FEATURE_LAYER = "features"

#: (convolution, transposed convolution) per record rank.
_CONV_LAYERS = {1: (Conv1D, ConvTranspose1D), 2: (Conv2D, ConvTranspose2D)}


def _conv_layers(rank: int):
    """The conv layer pair for records of spatial rank ``rank``."""
    if rank not in _CONV_LAYERS:
        raise ValueError(f"rank must be 1 or 2, got {rank}")
    return _CONV_LAYERS[rank]


def _n_stages(side: int) -> int:
    """Number of stride-2 stages taking ``side`` down to 2 (or up from 2)."""
    if side < 4 or side & (side - 1) != 0:
        raise ValueError(f"side must be a power of two >= 4, got {side}")
    stages = int(np.log2(side)) - 1
    return stages


def feature_width(side: int, base_channels: int, rank: int = 2) -> int:
    """Width of the discriminator's flattened feature vector."""
    stages = _n_stages(side)
    top_channels = base_channels * 2 ** (stages - 1)
    return top_channels * 2 ** rank


def build_generator(side: int, latent_dim: int, base_channels: int, rng=None,
                    dtype=np.float64, rank: int = 2) -> Sequential:
    """DCGAN generator: latent z -> (1, side, ..., side) record in [-1, 1].

    The latent vector is projected to a 2×2 feature map (2 cells for
    ``rank=1``) and repeatedly doubled by transposed convolutions; the
    final layer outputs one channel through tanh.  ``dtype`` is the
    compute dtype of every parameter.
    """
    _, deconv = _conv_layers(rank)
    rng = ensure_rng(rng)
    stages = _n_stages(side)
    top_channels = base_channels * 2 ** (stages - 1)
    layers = [
        Dense(latent_dim, top_channels * 2 ** rank, rng=rng, dtype=dtype),
        Reshape((top_channels,) + (2,) * rank),
        BatchNorm(top_channels, dtype=dtype),
        ReLU(),
    ]
    channels = top_channels
    for stage in range(stages - 1):
        next_channels = channels // 2
        layers.append(deconv(channels, next_channels, rng=rng, dtype=dtype))
        layers.append(BatchNorm(next_channels, dtype=dtype))
        layers.append(ReLU())
        channels = next_channels
    layers.append(deconv(channels, 1, rng=rng, dtype=dtype))
    layers.append(Tanh())
    return Sequential(layers)


def build_discriminator(side: int, base_channels: int, rng=None,
                        n_outputs: int = 1, dtype=np.float64,
                        rank: int = 2) -> Sequential:
    """DCGAN discriminator: record -> real/synthetic logit.

    The flattened pre-logit activations are registered under
    :data:`FEATURE_LAYER`; the final dense layer produces a logit (the
    sigmoid of Figure 2 is folded into the loss for numerical stability).
    ``n_outputs > 1`` builds the multi-head variant used by the multi-label
    classifier (§4.2.3): heads share every intermediate layer.
    """
    conv, _ = _conv_layers(rank)
    rng = ensure_rng(rng)
    stages = _n_stages(side)
    layers = [
        conv(1, base_channels, rng=rng, dtype=dtype),
        LeakyReLU(0.2),
    ]
    channels = base_channels
    for stage in range(stages - 1):
        next_channels = channels * 2
        layers.append(conv(channels, next_channels, rng=rng, dtype=dtype))
        layers.append(BatchNorm(next_channels, dtype=dtype))
        layers.append(LeakyReLU(0.2))
        channels = next_channels
    layers.append((FEATURE_LAYER, Flatten()))
    layers.append(Dense(feature_width(side, base_channels, rank), n_outputs,
                        rng=rng, dtype=dtype))
    return Sequential(layers)


def build_classifier(side: int, base_channels: int, rng=None,
                     n_labels: int = 1, dtype=np.float64,
                     rank: int = 2) -> Sequential:
    """Classifier network C — the same architecture as the discriminator (§4.1.3).

    With ``n_labels > 1`` this is the §4.2.3 multi-task extension: multiple
    sigmoid heads sharing all intermediate layers, one per label.
    """
    return build_discriminator(side, base_channels, rng=rng, n_outputs=n_labels,
                               dtype=dtype, rank=rank)
