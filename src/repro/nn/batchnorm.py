"""Batch normalization (Ioffe & Szegedy, 2015) for 2-D and 4-D inputs.

DCGAN applies batch norm in both generator and discriminator (except the
generator output and discriminator input layers).  One class handles both
dense (N, F) and convolutional (N, C, H, W) activations, normalizing per
feature / per channel.

Two kernel paths live here, mirroring the fast-engine/reference-oracle
convention of :mod:`repro.nn.im2col`:

* the **fused engine** (default) — the forward computes batch statistics
  with a fused reduction (single-pass ``E[x²] − mean²`` in float32,
  routed through the GEMV-backed
  :func:`~repro.nn.layers.channel_sum`, which is several times faster
  than ``np.sum`` over the conv layers' contiguous batch-major
  activations; a centered two-pass in float64 that reuses the centering
  buffer as the normalized-activation cache and is bit-identical to
  ``np.var``) and
  writes the scale-and-shift through in-place ufuncs over the flat
  ``(N, C*P)`` view (:meth:`BatchNorm._per_channel`); the backward folds
  the two re-reductions of the chain rule into the ``dgamma``/``dbeta``
  sums it already computes (float32) or replays the reference reductions
  through reused buffers (float64, bit-identical);
* the **reference oracle** — the original forward/backward, retained
  verbatim as ``_reference_forward``/``_reference_backward`` and selected
  with the :func:`reference_batchnorm` context manager.  The equivalence
  tests in ``tests/nn/test_batchnorm.py`` assert fused == reference
  bit-for-bit in float64 and within 1e-5 in float32, and the ``batchnorm``
  section of the engine benchmark measures speedups against it.
"""

from __future__ import annotations

from contextlib import contextmanager
from math import prod

import numpy as np

from repro.nn import initializers
from repro.nn.layers import Layer, Parameter, channel_sum

#: When True, BatchNorm.forward/backward dispatch to the reference oracle.
_USE_REFERENCE = False

#: Smallest tensor whose per-channel ops run over the flat ``(N, C*P)``
#: view: below it the whole broadcast op takes a few microseconds, less
#: than repeating the vector and reshaping for the flat one costs.
_FLAT_MIN_ELEMENTS = 4096


@contextmanager
def reference_batchnorm():
    """Context manager forcing the reference BatchNorm forward/backward.

    Used by the engine benchmark to time the seed idioms against the fused
    kernels on identical workloads, and by the equivalence tests.
    """
    global _USE_REFERENCE
    previous = _USE_REFERENCE
    _USE_REFERENCE = True
    try:
        yield
    finally:
        _USE_REFERENCE = previous


class BatchNorm(Layer):
    """Batch normalization with learnable scale (gamma) and shift (beta).

    Parameters
    ----------
    num_features:
        Feature width (2-D input) or channel count (4-D input).
    momentum:
        EWMA weight for the running statistics used at inference time.
    eps:
        Variance floor for numerical stability.
    dtype:
        Parameter and running-statistics dtype (the trainer's compute
        dtype; default float64).
    """

    def __init__(self, num_features: int, momentum: float = 0.9, eps: float = 1e-5,
                 dtype=np.float64):
        super().__init__()
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(initializers.ones((num_features,), dtype=dtype), "bn.gamma")
        self.beta = Parameter(initializers.zeros((num_features,), dtype=dtype), "bn.beta")
        self.params = [self.gamma, self.beta]
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)
        #: When set to a list, every training-mode forward appends its
        #: batch ``(mean, var)`` here *instead of* folding it into the
        #: running statistics.  The data-parallel trainer records each
        #: shard's events through this tap and replays them into one
        #: canonical stream in fixed shard order (see repro.core.parallel);
        #: a throwaway list keeps a forward that only rebuilds caches from
        #: folding twice (see repro.core.trainer.ShardOps).
        self.stats_tap: list | None = None
        self._cache: tuple | None = None

    def extra_state(self) -> dict[str, np.ndarray]:
        return {
            "running_mean": self.running_mean.copy(),
            "running_var": self.running_var.copy(),
        }

    def load_extra_state(self, state: dict[str, np.ndarray]) -> None:
        mean = np.asarray(state["running_mean"], dtype=self.running_mean.dtype)
        var = np.asarray(state["running_var"], dtype=self.running_var.dtype)
        if mean.shape != self.running_mean.shape or var.shape != self.running_var.shape:
            raise ValueError("running-statistics shape mismatch")
        self.running_mean = mean
        self.running_var = var

    @staticmethod
    def _axes(x: np.ndarray) -> tuple[int, ...]:
        if x.ndim == 2:
            return (0,)
        if x.ndim == 3:
            return (0, 2)
        if x.ndim == 4:
            return (0, 2, 3)
        raise ValueError(f"BatchNorm expects 2-D, 3-D or 4-D input, got shape {x.shape}")

    @staticmethod
    def _bcast(stat: np.ndarray, ndim: int) -> np.ndarray:
        if ndim == 2:
            return stat.reshape(1, -1)
        if ndim == 3:
            return stat.reshape(1, -1, 1)
        return stat.reshape(1, -1, 1, 1)

    @staticmethod
    def _per_channel(op, t: np.ndarray, stat: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
        """``op(t, stat)`` with the per-channel vector ``stat`` broadcast
        along ``t``'s channel axis; returns an array of ``t``'s shape.

        A contiguous ``(N, C, *spatial)`` tensor runs over its flat
        ``(N, C*P)`` view against ``stat`` repeated P times: the same
        elementwise operation on the same operands, so bit-identical, but
        with a C*P-long inner loop where a ``(1, C, 1, 1)`` view gives one
        only P long (4 or 16 at the training shapes).  Strided tensors
        keep the broadcast view: reshaping them would copy, and a copy's
        layout could change the order the float64 reductions sum in.
        Tensors under ``_FLAT_MIN_ELEMENTS`` keep it too.
        """
        if (t.ndim > 2 and t.size >= _FLAT_MIN_ELEMENTS
                and t.flags.c_contiguous
                and (out is None or out.flags.c_contiguous)):
            n, channels = t.shape[:2]
            per = prod(t.shape[2:])
            flat = (n, channels * per)
            res = op(t.reshape(flat), stat.repeat(per),
                     out=None if out is None else out.reshape(flat))
            return res.reshape(t.shape)
        return op(t, BatchNorm._bcast(stat, t.ndim), out=out)

    def _update_running(self, mean: np.ndarray, var: np.ndarray) -> None:
        if self.stats_tap is not None:
            self.stats_tap.append((mean.copy(), var.copy()))
        else:
            self.fold_running(mean, var)

    def fold_running(self, mean: np.ndarray, var: np.ndarray) -> None:
        """One EWMA step of the running statistics toward a batch's
        ``(mean, var)``."""
        self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
        self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        axes = self._axes(x)
        if x.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} features/channels, got {x.shape[1]}"
            )
        if _USE_REFERENCE:
            return self._reference_forward(x, axes, training)
        return self._fused_forward(x, axes, training)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        if _USE_REFERENCE:
            return self._reference_backward(grad)
        return self._fused_backward(grad)

    # ------------------------------------------------------------------
    # Fused engine.
    # ------------------------------------------------------------------
    def _fused_forward(self, x: np.ndarray, axes: tuple[int, ...],
                       training: bool) -> np.ndarray:
        count = x.size // self.num_features
        scratch: np.ndarray | None = None
        if training:
            # float64 keeps np.mean (its contract is bit-identity with the
            # oracle); float32 may reorder the sum for speed.
            mean = (x.mean(axis=axes) if x.dtype == np.float64
                    else channel_sum(x) / x.dtype.type(count))
            if x.dtype == np.float64:
                # Two-pass over a centered buffer: the subtraction is the
                # one the normalization needs anyway, and summing the
                # squared centered values reproduces np.var bit for bit.
                x_hat = self._per_channel(np.subtract, x, mean)
                scratch = np.multiply(x_hat, x_hat)
                var = scratch.sum(axis=axes) / count
            else:
                # Single-pass E[x²] − mean²: one sweep for the squared sum,
                # no centering pass.  Clamped at zero against cancellation.
                # Reductions route through the GEMV-backed channel_sum,
                # which is several times faster than np.sum on the conv
                # layers' contiguous batch-major activations.
                scratch = np.multiply(x, x)
                var = channel_sum(scratch) / count - mean * mean
                np.maximum(var, 0.0, out=var)
                x_hat = self._per_channel(np.subtract, x, mean)
            self._update_running(mean, var)
        else:
            mean, var = self.running_mean, self.running_var
            x_hat = self._per_channel(np.subtract, x, mean)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        self._per_channel(np.multiply, x_hat, inv_std, out=x_hat)
        # The squared-values buffer has served its purpose; reuse it as the
        # output so the scale-and-shift allocates nothing new.
        out = scratch if scratch is not None else np.empty_like(x_hat)
        self._per_channel(np.multiply, x_hat, self.gamma.data, out=out)
        self._per_channel(np.add, out, self.beta.data, out=out)
        self._cache = (x_hat, inv_std, axes, count, x.ndim, training)
        return out

    def infer_rows(self, rows: np.ndarray) -> None:
        """Inference normalization of channel-major ``rows`` ``(C, M)``, in place.

        The fused inference forward's four elementwise operations, in the
        same order and dtype (subtract the running mean, scale by
        ``1/sqrt(var + eps)``, scale by gamma, shift by beta), each over a
        contiguous channel row: every element gets the bits
        ``forward(x, training=False)`` gives it.  Caches nothing.
        """
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        np.subtract(rows, self.running_mean[:, None], out=rows)
        np.multiply(rows, inv_std[:, None], out=rows)
        np.multiply(rows, self.gamma.data[:, None], out=rows)
        np.add(rows, self.beta.data[:, None], out=rows)

    def _fused_backward(self, grad: np.ndarray) -> np.ndarray:
        x_hat, inv_std, axes, count, _, trained = self._cache
        if x_hat.dtype == np.float64:
            return self._fused_backward_exact(grad, x_hat, inv_std, axes,
                                              trained)
        # float32: fold the two chain-rule re-reductions into the
        # dgamma/dbeta sums.  mean(gamma·grad) == gamma·dbeta/count and
        # mean(gamma·grad·x_hat) == gamma·dgamma/count, so the whole dx is
        # an affine map  c1·grad + c2·x_hat + c0  with per-channel
        # coefficients — two reductions total instead of four.
        prod = np.multiply(grad, x_hat)
        dgamma = channel_sum(prod)
        dbeta = channel_sum(grad)
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        c1 = self.gamma.data * inv_std
        if not trained:
            # Inference mode: mean/var are constants, gradient is a plain scale.
            return self._per_channel(np.multiply, grad, c1)
        c2 = -c1 * (dgamma / count)
        c0 = -c1 * (dbeta / count)
        dx = self._per_channel(np.multiply, grad, c1)
        self._per_channel(np.multiply, x_hat, c2, out=prod)
        np.add(dx, prod, out=dx)
        self._per_channel(np.add, dx, c0, out=dx)
        return dx

    def _fused_backward_exact(self, grad, x_hat, inv_std, axes, trained):
        """float64 backward: the reference operation sequence replayed
        through two reused buffers — bit-identical, no further temporaries."""
        t = np.multiply(grad, x_hat)
        self.gamma.grad += t.sum(axis=axes)
        self.beta.grad += grad.sum(axis=axes)
        g = self._per_channel(np.multiply, grad, self.gamma.data)
        if not trained:
            self._per_channel(np.multiply, g, inv_std, out=g)
            return g
        mean_g = g.mean(axis=axes)
        np.multiply(g, x_hat, out=t)
        mean_gx = t.mean(axis=axes)
        self._per_channel(np.multiply, x_hat, mean_gx, out=t)
        self._per_channel(np.subtract, g, mean_g, out=g)
        np.subtract(g, t, out=g)
        self._per_channel(np.multiply, g, inv_std, out=g)
        return g

    # ------------------------------------------------------------------
    # Reference oracle: the original implementations, kept verbatim.  They
    # are the ground truth the fused kernels are property-tested against
    # and the baseline the engine benchmark measures speedups from.
    # ------------------------------------------------------------------
    def _reference_forward(self, x: np.ndarray, axes: tuple[int, ...],
                           training: bool) -> np.ndarray:
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self._update_running(mean, var)
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - self._bcast(mean, x.ndim)) * self._bcast(inv_std, x.ndim)
        out = self._bcast(self.gamma.data, x.ndim) * x_hat + self._bcast(self.beta.data, x.ndim)
        count = x.size // self.num_features
        self._cache = (x_hat, inv_std, axes, count, x.ndim, training)
        return out

    def _reference_backward(self, grad: np.ndarray) -> np.ndarray:
        x_hat, inv_std, axes, count, ndim, trained = self._cache
        self.gamma.grad += (grad * x_hat).sum(axis=axes)
        self.beta.grad += grad.sum(axis=axes)
        g = grad * self._bcast(self.gamma.data, ndim)
        if not trained:
            # Inference mode: mean/var are constants, gradient is a plain scale.
            return g * self._bcast(inv_std, ndim)
        # Training mode: propagate through the batch statistics.
        mean_g = g.mean(axis=axes, keepdims=True)
        mean_gx = (g * x_hat).mean(axis=axes, keepdims=True)
        return self._bcast(inv_std, ndim) * (g - mean_g - x_hat * mean_gx)
