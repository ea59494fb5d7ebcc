"""Activation layers: values, gradients, and functional properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import LeakyReLU, ReLU, Sigmoid, Tanh

from tests.nn.gradcheck import check_input_grad

FLOATS = hnp.arrays(
    np.float64, (3, 4),
    elements=st.floats(-20, 20, allow_nan=False, allow_infinity=False),
)


class TestReLU:
    def test_values(self):
        x = np.array([[-2.0, -0.5, 0.0, 0.5, 2.0]])
        assert np.allclose(ReLU().forward(x), [[0, 0, 0, 0.5, 2.0]])

    def test_gradient(self, rng):
        check_input_grad(ReLU(), rng.standard_normal((4, 5)) + 0.1)

    @settings(max_examples=30, deadline=None)
    @given(x=FLOATS)
    def test_non_negative_and_idempotent(self, x):
        layer = ReLU()
        out = layer.forward(x)
        assert np.all(out >= 0)
        assert np.allclose(layer.forward(out), out)


class TestLeakyReLU:
    def test_values(self):
        x = np.array([[-1.0, 1.0]])
        assert np.allclose(LeakyReLU(0.2).forward(x), [[-0.2, 1.0]])

    def test_gradient(self, rng):
        check_input_grad(LeakyReLU(0.2), rng.standard_normal((4, 5)) + 0.1)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            LeakyReLU(-0.1)

    @pytest.mark.parametrize("alpha", [np.inf, np.nan])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError):
            LeakyReLU(alpha)

    @settings(max_examples=30, deadline=None)
    @given(x=FLOATS)
    def test_preserves_sign_structure(self, x):
        """LeakyReLU is identity on x >= 0 and non-positive on x < 0.

        (Exact sign equality would fail on subnormals where 0.2*x
        underflows to -0.0.)
        """
        out = LeakyReLU(0.2).forward(x)
        pos = x >= 0
        assert np.allclose(out[pos], x[pos])
        assert np.all(out[~pos] <= 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitmask_matches_reference_bit_for_bit(self, rng, dtype):
        """The bitmask path equals the retained scale-array oracle exactly.

        Zeros are included deliberately: the two idioms must agree on the
        x == 0 branch as well.
        """
        layer = LeakyReLU(0.2)
        x = rng.standard_normal((16, 32)).astype(dtype)
        x[::3, ::4] = 0.0
        grad = rng.standard_normal((16, 32)).astype(dtype)

        out = layer.forward(x)
        dx = layer.backward(grad)
        ref_out, scale = layer._reference_forward(x)
        ref_dx = layer._reference_backward(grad, scale)

        assert out.dtype == dtype and dx.dtype == dtype
        assert np.array_equal(out, ref_out)
        assert np.array_equal(dx, ref_dx)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alpha", [0, 0.2, 1, 3, 2.0**25])
    def test_scale_matches_reference_on_special_values(self, rng, dtype, alpha):
        """Forward and backward equal the oracle bit for bit, signed zeros,
        infinities and NaNs included (values and sign bits).

        alpha 0 is the case a select ``max(x, alpha * x)`` gets wrong
        (``0 * inf`` is NaN); alpha 1 is identity; at 2**25 a scale built
        as ``(1 - alpha) * mask + alpha`` rounds the 1 away in float32.
        """
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                            1e-30, -1e-30, 3e38, -3e38], dtype=dtype)
        x = np.concatenate([special, rng.standard_normal(54).astype(dtype)])
        grad = np.concatenate([special[::-1], rng.standard_normal(54).astype(dtype)])
        x, grad = x.reshape(4, 16), grad.reshape(4, 16)
        layer = LeakyReLU(alpha)
        with np.errstate(all="ignore"):
            out = layer.forward(x)
            dx = layer.backward(grad)
            ref_out, scale = layer._reference_forward(x)
            ref_dx = layer._reference_backward(grad, scale)
        for got, want in ((out, ref_out), (dx, ref_dx)):
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_cached_state_is_a_bitmask(self, rng):
        """The forward cache is one bool per element, not a float array."""
        layer = LeakyReLU(0.2)
        layer.forward(rng.standard_normal((4, 4)))
        assert layer._mask.dtype == np.bool_


class TestSigmoid:
    def test_range_and_midpoint(self):
        layer = Sigmoid()
        assert np.isclose(layer.forward(np.zeros((1, 1)))[0, 0], 0.5)
        # Extreme logits saturate to the closed interval bounds in float64
        # without overflowing.
        out = layer.forward(np.array([[-500.0, 500.0]]))
        assert np.all((out >= 0) & (out <= 1))
        assert np.all(np.isfinite(out))

    def test_gradient(self, rng):
        check_input_grad(Sigmoid(), rng.standard_normal((3, 4)))

    @settings(max_examples=30, deadline=None)
    @given(x=FLOATS)
    def test_symmetry(self, x):
        """sigmoid(-x) == 1 - sigmoid(x)."""
        layer = Sigmoid()
        a = layer.forward(x)
        b = layer.forward(-x)
        assert np.allclose(a + b, 1.0, atol=1e-12)


class TestTanh:
    def test_range(self):
        out = Tanh().forward(np.array([[-50.0, 0.0, 50.0]]))
        assert np.allclose(out, [[-1.0, 0.0, 1.0]], atol=1e-12)

    def test_gradient(self, rng):
        check_input_grad(Tanh(), rng.standard_normal((3, 4)))

    @settings(max_examples=30, deadline=None)
    @given(x=FLOATS)
    def test_odd_function(self, x):
        layer = Tanh()
        assert np.allclose(layer.forward(-x), -layer.forward(x))


class TestBackwardBeforeForward:
    @pytest.mark.parametrize("layer_cls", [ReLU, LeakyReLU, Sigmoid, Tanh])
    def test_raises(self, layer_cls):
        with pytest.raises(RuntimeError):
            layer_cls().backward(np.ones((1, 1)))
