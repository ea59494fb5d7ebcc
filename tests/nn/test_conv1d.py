"""Conv1D / ConvTranspose1D: the rank-1 conv layers' geometry, gradients, adjointness."""

import numpy as np
import pytest

from repro.nn import Conv1D, ConvTranspose1D

from tests.nn.gradcheck import check_input_grad, check_param_grads


class TestGeometry:
    def test_halving_and_doubling(self, rng):
        conv = Conv1D(1, 4, kernel=4, stride=2, padding=1, rng=0)
        assert conv.forward(rng.standard_normal((2, 1, 16))).shape == (2, 4, 8)
        deconv = ConvTranspose1D(4, 1, kernel=4, stride=2, padding=1, rng=0)
        assert deconv.forward(rng.standard_normal((2, 4, 8))).shape == (2, 1, 16)

    def test_output_size_validation(self):
        conv = Conv1D(1, 1, kernel=4, stride=2, padding=1, rng=0)
        assert conv.output_shape(16) == (8,)
        assert ConvTranspose1D(1, 1, rng=0).output_shape(8) == (16,)
        with pytest.raises(ValueError, match="not exact"):
            conv.output_shape(5)

    def test_channel_validation(self, rng):
        with pytest.raises(ValueError, match="expected"):
            Conv1D(3, 2, rng=0).forward(rng.standard_normal((1, 2, 8)))
        with pytest.raises(ValueError, match="expected"):
            ConvTranspose1D(3, 2, rng=0).forward(rng.standard_normal((1, 2, 8)))

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Conv1D(0, 2)
        with pytest.raises(ValueError):
            ConvTranspose1D(2, 2, padding=-1)


class TestGradients:
    def test_conv1d_input_gradient(self, rng):
        check_input_grad(Conv1D(2, 3, rng=1), rng.standard_normal((2, 2, 8)))

    def test_conv1d_param_gradients(self, rng):
        check_param_grads(Conv1D(2, 2, rng=2), rng.standard_normal((2, 2, 8)))

    def test_deconv1d_input_gradient(self, rng):
        check_input_grad(ConvTranspose1D(3, 2, rng=1), rng.standard_normal((2, 3, 4)))

    def test_deconv1d_param_gradients(self, rng):
        check_param_grads(ConvTranspose1D(2, 2, rng=2), rng.standard_normal((2, 2, 4)))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            Conv1D(1, 1, rng=0).backward(np.ones((1, 1, 4)))
        with pytest.raises(RuntimeError):
            ConvTranspose1D(1, 1, rng=0).backward(np.ones((1, 1, 8)))


class TestAdjointness:
    def test_deconv1d_is_conv1d_adjoint(self, rng):
        conv = Conv1D(3, 5, kernel=4, stride=2, padding=1, bias=False, rng=0)
        deconv = ConvTranspose1D(5, 3, kernel=4, stride=2, padding=1, bias=False, rng=0)
        deconv.weight.data[...] = conv.weight.data
        x = rng.standard_normal((2, 3, 16))
        y = rng.standard_normal((2, 5, 8))
        lhs = float(np.sum(conv.forward(x) * y))
        rhs = float(np.sum(x * deconv.forward(y)))
        assert np.isclose(lhs, rhs)


class TestBatchNorm3d:
    def test_normalizes_per_channel(self, rng):
        from repro.nn import BatchNorm

        bn = BatchNorm(3)
        x = rng.standard_normal((8, 3, 10)) * 4.0 + 2.0
        out = bn.forward(x, training=True)
        assert np.allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-10)

    def test_gradient(self, rng):
        from repro.nn import BatchNorm

        check_input_grad(BatchNorm(2), rng.standard_normal((4, 2, 6)), atol=1e-6)
