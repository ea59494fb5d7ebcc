"""BatchNorm: normalization semantics, running statistics, gradients,
and fused-kernel vs reference-oracle equivalence."""

import numpy as np
import pytest

from repro.nn import BatchNorm
from repro.nn.batchnorm import reference_batchnorm
from repro.nn.layers import channel_sum

from tests.nn.gradcheck import check_input_grad, check_param_grads


class TestForward:
    def test_normalizes_2d_batch(self, rng):
        bn = BatchNorm(5)
        x = rng.standard_normal((64, 5)) * 3.0 + 7.0
        out = bn.forward(x, training=True)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_normalizes_4d_per_channel(self, rng):
        bn = BatchNorm(3)
        x = rng.standard_normal((8, 3, 4, 4)) * 2.0 - 5.0
        out = bn.forward(x, training=True)
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)

    def test_gamma_beta_shift(self, rng):
        bn = BatchNorm(2)
        bn.gamma.data[...] = 2.0
        bn.beta.data[...] = 1.0
        out = bn.forward(rng.standard_normal((32, 2)), training=True)
        assert np.allclose(out.mean(axis=0), 1.0, atol=1e-10)

    def test_eval_mode_uses_running_stats(self, rng):
        bn = BatchNorm(4, momentum=0.0)  # running stats = last batch exactly
        x = rng.standard_normal((128, 4)) * 2.0 + 3.0
        bn.forward(x, training=True)
        single = x[:1]
        out = bn.forward(single, training=False)
        expected = (single - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + bn.eps)
        assert np.allclose(out, expected, atol=1e-8)

    def test_rejects_wrong_width(self, rng):
        bn = BatchNorm(4)
        with pytest.raises(ValueError, match="expected 4"):
            bn.forward(rng.standard_normal((8, 5)))

    def test_rejects_5d_input(self, rng):
        with pytest.raises(ValueError, match="2-D, 3-D or 4-D"):
            BatchNorm(4).forward(rng.standard_normal((2, 4, 3, 3, 3)))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            BatchNorm(0)
        with pytest.raises(ValueError):
            BatchNorm(4, momentum=1.0)


class TestGradients:
    def test_input_gradient_2d_training(self, rng):
        check_input_grad(BatchNorm(4), rng.standard_normal((8, 4)), atol=1e-6)

    def test_input_gradient_4d_training(self, rng):
        check_input_grad(BatchNorm(2), rng.standard_normal((4, 2, 3, 3)), atol=1e-6)

    def test_param_gradients(self, rng):
        check_param_grads(BatchNorm(3), rng.standard_normal((6, 3)), atol=1e-6)

    def test_eval_mode_gradient_is_scale(self, rng):
        bn = BatchNorm(3)
        x = rng.standard_normal((16, 3))
        bn.forward(x, training=True)  # populate running stats
        check_input_grad(bn, rng.standard_normal((4, 3)), training=False, atol=1e-6)


def _strided(rng, shape, dtype):
    """A non-contiguous array of ``shape``: every other element of the
    last axis of a twice-as-wide buffer."""
    wide = rng.standard_normal(shape[:-1] + (2 * shape[-1],)) * 3 + 5
    return wide.astype(dtype)[..., ::2]


def _run_pair(shape, dtype, training=True, accumulate=False, seed=0,
              strided=False):
    """Forward+backward one batch through a fused and a reference layer.

    Returns ``(fused, reference)`` dicts of outputs, input gradients,
    parameter gradients, and running statistics.  ``strided`` feeds
    non-contiguous input and gradient.
    """
    rng = np.random.default_rng(seed)
    features = shape[1]
    if strided:
        x, grad = _strided(rng, shape, dtype), _strided(rng, shape, dtype)
    else:
        x = (rng.standard_normal(shape) * 3 + 5).astype(dtype)
        grad = rng.standard_normal(shape).astype(dtype)
    results = []
    for use_reference in (False, True):
        bn = BatchNorm(features, dtype=dtype)
        bn.gamma.data[...] = rng_gamma = np.linspace(0.5, 2.0, features)
        bn.beta.data[...] = np.linspace(-1.0, 1.0, features)
        if not training:
            # Populate running stats with a training batch first.
            warm = (np.random.default_rng(9).standard_normal(shape) * 2).astype(dtype)
            if use_reference:
                with reference_batchnorm():
                    bn.forward(warm, training=True)
            else:
                bn.forward(warm, training=True)
            bn.zero_grad()

        def run():
            out = bn.forward(x, training=training)
            dx = bn.backward(grad)
            if accumulate:  # second backward through the same forward cache
                dx = dx + bn.backward(grad)
            return out, dx

        if use_reference:
            with reference_batchnorm():
                out, dx = run()
        else:
            out, dx = run()
        results.append({
            "out": out,
            "dx": dx,
            "dgamma": bn.gamma.grad.copy(),
            "dbeta": bn.beta.grad.copy(),
            "running_mean": bn.running_mean.copy(),
            "running_var": bn.running_var.copy(),
        })
    return results


SHAPES = [(16, 5), (8, 4, 6), (6, 3, 5, 5)]
#: Plus the training shapes, large enough for the per-channel ops to run
#: over the flat (N, C*P) view.
EXACT_SHAPES = SHAPES + [(64, 64, 2, 2), (64, 32, 4, 4)]


class TestFusedVsReference:
    """The nn/plan.py convention: bit-for-bit in float64, 1e-5 in float32."""

    @pytest.mark.parametrize("shape", EXACT_SHAPES)
    def test_float64_bit_identical_training(self, shape):
        fused, ref = _run_pair(shape, np.float64, training=True)
        for key in fused:
            assert np.array_equal(fused[key], ref[key]), key

    @pytest.mark.parametrize("shape", EXACT_SHAPES)
    def test_float64_bit_identical_eval(self, shape):
        fused, ref = _run_pair(shape, np.float64, training=False)
        for key in fused:
            assert np.array_equal(fused[key], ref[key]), key

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("shape", EXACT_SHAPES)
    def test_float64_bit_identical_strided(self, shape, training):
        fused, ref = _run_pair(shape, np.float64, training=training, strided=True)
        for key in fused:
            assert np.array_equal(fused[key], ref[key]), key

    @pytest.mark.parametrize("shape", SHAPES)
    def test_float32_close_training(self, shape):
        fused, ref = _run_pair(shape, np.float32, training=True)
        for key in fused:
            np.testing.assert_allclose(fused[key], ref[key], atol=1e-5,
                                       err_msg=key)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_float32_close_eval(self, shape):
        fused, ref = _run_pair(shape, np.float32, training=False)
        for key in fused:
            np.testing.assert_allclose(fused[key], ref[key], atol=1e-5,
                                       err_msg=key)

    def test_double_backward_through_one_forward(self):
        """Backward must not mutate the cache (the table-GAN generator
        update back-propagates through the discriminator twice)."""
        fused, ref = _run_pair((6, 3, 5, 5), np.float64, accumulate=True)
        assert np.array_equal(fused["dx"], ref["dx"])
        assert np.array_equal(fused["dgamma"], ref["dgamma"])

    def test_float32_output_dtype_preserved(self, rng):
        bn = BatchNorm(4, dtype=np.float32)
        x = rng.standard_normal((8, 4)).astype(np.float32)
        out = bn.forward(x, training=True)
        dx = bn.backward(np.ones_like(out))
        assert out.dtype == np.float32
        assert dx.dtype == np.float32

    def test_single_pass_variance_clamped_nonnegative(self):
        """E[x²]−mean² cancellation must never produce negative variance."""
        bn = BatchNorm(2, dtype=np.float32)
        # Large mean, tiny spread: worst case for the single-pass formula.
        x = np.full((64, 2), 100.0, dtype=np.float32)
        x[::2] += 1e-3
        out = bn.forward(x, training=True)
        assert np.all(np.isfinite(out))
        assert np.all(bn.running_var >= 0.0)


def _bcast(stat, ndim):
    return stat.reshape((1, -1) + (1,) * (ndim - 2))


def _broadcast_view_kernels(bn, x, grad, training):
    """The fused float32 kernels written with ``(1, C, 1, 1)`` broadcast
    views, the formulation the flat ``(N, C*P)`` per-channel ops must
    reproduce bit for bit.  Returns the fused layer's observables."""
    count = x.size // x.shape[1]
    scratch = None
    if training:
        mean = channel_sum(x) / x.dtype.type(count)
        scratch = np.multiply(x, x)
        var = channel_sum(scratch) / count - mean * mean
        np.maximum(var, 0.0, out=var)
        running_mean = bn.momentum * bn.running_mean + (1 - bn.momentum) * mean
        running_var = bn.momentum * bn.running_var + (1 - bn.momentum) * var
    else:
        mean, var = bn.running_mean, bn.running_var
        running_mean, running_var = mean, var
    x_hat = np.subtract(x, _bcast(mean, x.ndim))
    inv_std = 1.0 / np.sqrt(var + bn.eps)
    np.multiply(x_hat, _bcast(inv_std, x.ndim), out=x_hat)
    out = scratch if scratch is not None else np.empty_like(x_hat)
    np.multiply(x_hat, _bcast(bn.gamma.data, x.ndim), out=out)
    np.add(out, _bcast(bn.beta.data, x.ndim), out=out)

    prod = np.multiply(grad, x_hat)
    dgamma = channel_sum(prod)
    dbeta = channel_sum(grad)
    c1 = bn.gamma.data * inv_std
    if training:
        c2 = -c1 * (dgamma / count)
        c0 = -c1 * (dbeta / count)
        dx = np.multiply(grad, _bcast(c1, x.ndim))
        np.multiply(x_hat, _bcast(c2, x.ndim), out=prod)
        np.add(dx, prod, out=dx)
        np.add(dx, _bcast(c0, x.ndim), out=dx)
    else:
        dx = grad * _bcast(c1, x.ndim)
    return {"out": out, "dx": dx, "dgamma": dgamma, "dbeta": dbeta,
            "running_mean": running_mean, "running_var": running_var}


class TestFlatPerChannelOps:
    """The fused kernels apply per-channel vectors over the flat
    ``(N, C*P)`` view of contiguous input; every observable must equal the
    broadcast-view formulation exactly."""

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("layout", ["contiguous", "strided_x", "strided_grad"])
    @pytest.mark.parametrize("shape", EXACT_SHAPES)
    def test_float32_equals_broadcast_views(self, shape, layout, training):
        rng = np.random.default_rng(3)
        channels = shape[1]
        if layout == "strided_x":
            x = _strided(rng, shape, np.float32)
        else:
            x = (rng.standard_normal(shape) * 3 + 1).astype(np.float32)
        if layout == "strided_grad":
            grad = _strided(rng, shape, np.float32)
        else:
            grad = rng.standard_normal(shape).astype(np.float32)
        bn = BatchNorm(channels, dtype=np.float32)
        bn.gamma.data[...] = rng.uniform(0.5, 2.0, channels)
        bn.beta.data[...] = rng.uniform(-1.0, 1.0, channels)
        bn.running_mean[...] = rng.uniform(-1.0, 1.0, channels)
        bn.running_var[...] = rng.uniform(0.5, 2.0, channels)
        want = _broadcast_view_kernels(bn, x, grad, training)

        out = bn.forward(x, training=training)
        got = {"out": out, "dx": bn.backward(grad), "dgamma": bn.gamma.grad,
               "dbeta": bn.beta.grad, "running_mean": bn.running_mean,
               "running_var": bn.running_var}
        for key, value in want.items():
            assert got[key].dtype == np.float32, key
            assert got[key].shape == value.shape, key
            assert np.array_equal(got[key], value), key


class TestRunningStats:
    def test_ewma_update(self, rng):
        bn = BatchNorm(2, momentum=0.9)
        x = rng.standard_normal((100, 2)) + 4.0
        bn.forward(x, training=True)
        expected_mean = 0.9 * 0.0 + 0.1 * x.mean(axis=0)
        assert np.allclose(bn.running_mean, expected_mean)

    def test_eval_does_not_update(self, rng):
        bn = BatchNorm(2)
        bn.forward(rng.standard_normal((10, 2)), training=True)
        before = bn.running_mean.copy()
        bn.forward(rng.standard_normal((10, 2)) + 100.0, training=False)
        assert np.allclose(bn.running_mean, before)
