"""Generator/discriminator/classifier architectures (Figure 2)."""

import numpy as np
import pytest

from repro.core.networks import (
    FEATURE_LAYER,
    build_classifier,
    build_discriminator,
    build_generator,
    feature_width,
)


class TestGenerator:
    @pytest.mark.parametrize("side", [4, 8, 16])
    def test_output_shape(self, side, rng):
        gen = build_generator(side, latent_dim=100, base_channels=8, rng=0)
        z = rng.uniform(-1, 1, (3, 100))
        out = gen.forward(z)
        assert out.shape == (3, 1, side, side)

    def test_output_in_tanh_range(self, rng):
        gen = build_generator(8, latent_dim=50, base_channels=8, rng=0)
        out = gen.forward(rng.uniform(-1, 1, (4, 50)))
        assert out.min() >= -1.0 and out.max() <= 1.0

    def test_rejects_non_power_of_two_side(self):
        with pytest.raises(ValueError, match="power of two"):
            build_generator(12, 100, 8)

    def test_rejects_unknown_rank(self):
        with pytest.raises(ValueError, match="rank"):
            build_generator(8, 100, 8, rank=3)
        with pytest.raises(ValueError, match="rank"):
            build_discriminator(8, 8, rank=0)
        with pytest.raises(ValueError, match="power of two"):
            build_generator(2, 100, 8)


class TestDiscriminator:
    @pytest.mark.parametrize("side", [4, 8, 16])
    def test_logit_output(self, side, rng):
        disc = build_discriminator(side, base_channels=8, rng=0)
        x = rng.uniform(-1, 1, (5, 1, side, side))
        out = disc.forward(x)
        assert out.shape == (5, 1)

    @pytest.mark.parametrize("side", [4, 8, 16])
    def test_feature_layer_width(self, side, rng):
        disc = build_discriminator(side, base_channels=8, rng=0)
        disc.forward(rng.uniform(-1, 1, (2, 1, side, side)))
        feats = disc.activation(FEATURE_LAYER)
        assert feats.shape == (2, feature_width(side, 8))

    def test_figure2_ladder_16(self, rng):
        """d=16 with base 64: 16x16x1 -> 8x8x64 -> 4x4x128 -> 2x2x256 (Figure 2)."""
        assert feature_width(16, 64) == 256 * 2 * 2

    def test_feature_gradient_reaches_input(self, rng):
        disc = build_discriminator(8, base_channels=8, rng=0)
        x = rng.uniform(-1, 1, (3, 1, 8, 8))
        disc.forward(x)
        feats = disc.activation(FEATURE_LAYER)
        grad = disc.backward_from(FEATURE_LAYER, np.ones_like(feats))
        assert grad.shape == x.shape
        assert np.any(grad != 0)


class TestClassifier:
    def test_same_architecture_as_discriminator(self, rng):
        """§4.1.3: C has the same network architecture as D."""
        disc = build_discriminator(8, base_channels=8, rng=0)
        clf = build_classifier(8, base_channels=8, rng=1)
        assert [type(a).__name__ for a in disc] == [type(a).__name__ for a in clf]
        assert [p.shape for p in disc.parameters()] == [p.shape for p in clf.parameters()]

    def test_independent_weights(self):
        disc = build_discriminator(8, base_channels=8, rng=0)
        clf = build_classifier(8, base_channels=8, rng=1)
        assert not np.allclose(disc.parameters()[0].data, clf.parameters()[0].data)


class TestEndToEndGradientFlow:
    def test_generator_receives_gradient_through_discriminator(self, rng):
        gen = build_generator(8, latent_dim=20, base_channels=8, rng=0)
        disc = build_discriminator(8, base_channels=8, rng=1)
        z = rng.uniform(-1, 1, (4, 20))
        fake = gen.forward(z)
        logits = disc.forward(fake)
        disc.zero_grad()
        grad_at_fake = disc.backward(np.ones_like(logits))
        gen.zero_grad()
        gen.backward(grad_at_fake)
        assert any(np.any(p.grad != 0) for p in gen.parameters())
