"""Dense, Flatten, Reshape and the Parameter/Layer protocol."""

import numpy as np
import pytest

from repro.nn import Dense, Flatten, Parameter, Reshape

from tests.nn.gradcheck import check_input_grad, check_param_grads


class TestParameter:
    def test_zero_grad(self):
        p = Parameter(np.ones((2, 2)))
        p.grad += 5.0
        p.zero_grad()
        assert np.all(p.grad == 0.0)

    def test_shape_and_repr(self):
        p = Parameter(np.zeros((3, 4)), name="w")
        assert p.shape == (3, 4)
        assert "w" in repr(p)


class TestDense:
    def test_forward_matches_matmul(self, rng):
        layer = Dense(5, 3, rng=0)
        x = rng.standard_normal((4, 5))
        out = layer.forward(x)
        expected = x @ layer.weight.data + layer.bias.data
        assert np.allclose(out, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_row_inference_matches_its_batched_row(self, dtype):
        """A one-row inference forward must not change that row's bits
        (numpy would otherwise hand it to BLAS gemv, not gemm)."""
        layer = Dense(100, 512, rng=0, dtype=dtype)
        x = np.random.default_rng(1).standard_normal((3, 100)).astype(dtype)
        batched = layer.forward(x, training=False)
        assert np.array_equal(layer.forward(x[:1], training=False), batched[:1])

    def test_input_gradient(self, rng):
        layer = Dense(6, 4, rng=1)
        check_input_grad(layer, rng.standard_normal((3, 6)))

    def test_parameter_gradients(self, rng):
        layer = Dense(4, 3, rng=2)
        check_param_grads(layer, rng.standard_normal((5, 4)))

    def test_no_bias(self, rng):
        layer = Dense(3, 2, bias=False, rng=0)
        assert layer.bias is None
        assert len(layer.parameters()) == 1
        check_param_grads(layer, rng.standard_normal((4, 3)))

    def test_rejects_non_2d_input(self):
        layer = Dense(3, 2, rng=0)
        with pytest.raises(ValueError, match="2-D"):
            layer.forward(np.zeros((2, 3, 1)))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Dense(0, 3)
        with pytest.raises(ValueError):
            Dense(3, -1)

    def test_unknown_init_rejected(self):
        with pytest.raises(ValueError, match="unknown init"):
            Dense(3, 2, init="magic")

    def test_gradients_accumulate_across_backwards(self, rng):
        layer = Dense(3, 2, rng=0)
        x = rng.standard_normal((2, 3))
        layer.forward(x)
        g = np.ones((2, 2))
        layer.backward(g)
        first = layer.weight.grad.copy()
        layer.backward(g)
        assert np.allclose(layer.weight.grad, 2 * first)

    def test_backward_before_forward_raises(self):
        layer = Dense(3, 2, rng=0)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))


class TestShapes:
    def test_flatten_round_trip(self, rng):
        layer = Flatten()
        x = rng.standard_normal((2, 3, 4, 4))
        out = layer.forward(x)
        assert out.shape == (2, 48)
        assert np.allclose(layer.backward(out), x)

    def test_reshape_round_trip(self, rng):
        layer = Reshape((2, 4, 4))
        x = rng.standard_normal((3, 32))
        out = layer.forward(x)
        assert out.shape == (3, 2, 4, 4)
        back = layer.backward(out)
        assert np.allclose(back, x)

    def test_flatten_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            Flatten().backward(np.ones((1, 4)))

    def test_no_parameters(self):
        assert Flatten().parameters() == []
        assert Reshape((4,)).parameters() == []
