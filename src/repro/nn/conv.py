"""Convolution layers: strided Conv2D and ConvTranspose2D.

Both are built on the blocked batch-major im2col/col2im engine
(:mod:`repro.nn.im2col`).  A transposed convolution's forward pass is
exactly the backward (input-gradient) pass of a normal convolution with
the same geometry, and vice versa — the implementation exploits that
symmetry so the two layers share all index computations (memoized per
record geometry in :mod:`repro.nn.plan`).

Under the batch-major column convention the hot matricizations are
views:

* ``Conv2D.backward`` feeds the weight GEMM the *view*
  ``grad.reshape(N, C_out, P)`` (exposed as ``_grad_mat`` for the layout
  tests) — the seed layout forced a whole-batch ``transpose(...).reshape``
  copy here;
* ``ConvTranspose2D.forward`` projects the *view*
  ``x.reshape(N, C_in, P)`` (exposed as ``_x_mat``) through the kernel.

Both layers run blocked: every forward/backward loops over batch blocks
sized by the plan's workspace budget, through the calling thread's engine
scratch pool, so large batches no longer fall out of cache.  Inference forwards
(``training=False``) stream and cache nothing;
a backward therefore requires the preceding forward to have run in
training mode.  Conv outputs are written contiguously (NCHW), which lets
the downstream ``Flatten`` at the discriminator's feature layer return a
view.

The seed implementations are retained verbatim as the layers'
``_reference_*`` paths and selected by :func:`repro.nn.im2col.
reference_ops` — that is how the engine benchmark replays the full
seed-idiom data path (fancy gather, position-major columns, batch-last
gradient copies, ``np.add.at`` scatter) on identical workloads.

Shapes are NCHW.  DCGAN uses kernel 4, stride 2, padding 1 throughout,
which exactly halves (conv) or doubles (deconv) spatial dimensions.
"""

from __future__ import annotations

import numpy as np

from repro.nn import initializers
from repro.nn.im2col import (
    _reference_col2im,
    _reference_im2col,
    conv_gemm_backward,
    conv_gemm_forward,
    conv_output_size,
    fold_gemm_forward,
    is_reference,
    unfold_gemm_backward,
)
from repro.nn.layers import Layer, Parameter, channel_sum
from repro.nn.plan import conv_plan


class Conv2D(Layer):
    """2-D convolution with square kernel.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel:
        Square kernel size (DCGAN uses 4).
    stride, padding:
        Convolution geometry; must tile the input exactly.
    bias:
        Whether to learn a per-output-channel bias.
    rng:
        Seed or generator for DCGAN N(0, 0.02) weight init.
    dtype:
        Parameter dtype (the trainer's compute dtype; default float64).
    """

    def __init__(self, in_channels: int, out_channels: int, kernel: int = 4,
                 stride: int = 2, padding: int = 1, bias: bool = True, rng=None,
                 dtype=np.float64):
        super().__init__()
        if min(in_channels, out_channels, kernel, stride) <= 0 or padding < 0:
            raise ValueError("invalid convolution geometry")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        weight = initializers.dcgan_normal(
            (out_channels, in_channels, kernel, kernel), rng, dtype=dtype
        )
        self.weight = Parameter(weight, "conv.weight")
        self.bias = (
            Parameter(initializers.zeros((out_channels,), dtype=dtype), "conv.bias")
            if bias else None
        )
        self.params = [self.weight] + ([self.bias] if bias else [])
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None
        self._grad_mat: np.ndarray | None = None
        self._ref_mode = False
        #: Persistent backing buffer for the cached patch-matrix blocks.
        self._cache_ws: dict = {}

    def output_shape(self, height: int, width: int) -> tuple[int, int]:
        """Spatial output size for an input of ``height`` × ``width``."""
        return (
            conv_output_size(height, self.kernel, self.padding, self.stride),
            conv_output_size(width, self.kernel, self.padding, self.stride),
        )

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected (N, {self.in_channels}, H, W) input, got {x.shape}"
            )
        self._ref_mode = is_reference()
        if self._ref_mode:
            return self._reference_forward(x)
        plan = conv_plan(x.shape, self.kernel, self.padding, self.stride)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        # Training caches the patch-matrix blocks for the weight GEMM;
        # inference streams blocks through the workspace and caches
        # nothing.  Bias is added per cache-hot GEMM block.
        out, cols = conv_gemm_forward(
            x, w_mat, plan, None, cache_cols=training,
            bias=None if self.bias is None else self.bias.data,
            cache_ws=self._cache_ws,
        )
        self._cols = cols
        self._x_shape = x.shape if training else None
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._ref_mode:
            return self._reference_backward(grad)
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before a training-mode forward")
        if self.bias is not None:
            self.bias.grad += channel_sum(grad)
        plan = conv_plan(self._x_shape, self.kernel, self.padding, self.stride)
        # The batch-major matricization is a reshape *view* of the NCHW
        # gradient (asserted by the layout-contract tests) — the seed
        # layout copied the whole gradient batch-last here.
        grad_mat = grad.reshape(grad.shape[0], self.out_channels, -1)
        self._grad_mat = grad_mat
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        wgrad, dx = conv_gemm_backward(grad_mat, self._cols, w_mat,
                                       self._x_shape, plan, None)
        self.weight.grad += wgrad.reshape(self.weight.shape)
        return dx

    # -- retained seed path (selected under reference_ops) ---------------
    def _reference_forward(self, x: np.ndarray) -> np.ndarray:
        batch = x.shape[0]
        out_h, out_w = self.output_shape(x.shape[2], x.shape[3])
        cols = _reference_im2col(x, self.kernel, self.padding, self.stride)
        self._cols = cols
        self._x_shape = x.shape
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        out = w_mat @ cols  # (C_out, out_h*out_w*N) in seed column order
        if self.bias is not None:
            out += self.bias.data[:, None]
        return out.reshape(self.out_channels, out_h, out_w, batch).transpose(3, 0, 1, 2)

    def _reference_backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=(0, 2, 3))
        grad_mat = grad.transpose(1, 2, 3, 0).reshape(self.out_channels, -1)
        self.weight.grad += (grad_mat @ self._cols.T).reshape(self.weight.shape)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        dcols = w_mat.T @ grad_mat
        return _reference_col2im(dcols, self._x_shape, self.kernel,
                                 self.padding, self.stride)


class ConvTranspose2D(Layer):
    """2-D transposed ("de-") convolution, the upsampling layer of DCGAN generators.

    The forward pass scatters each input pixel through the kernel into the
    (larger) output — the adjoint of :class:`Conv2D` — so spatial size grows
    by the stride factor with DCGAN's (kernel=4, stride=2, padding=1)
    geometry.

    The weight tensor has shape ``(in_channels, out_channels, k, k)``,
    matching the convention where the deconvolution is the gradient of a
    convolution mapping ``out_channels -> in_channels``.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel: int = 4,
                 stride: int = 2, padding: int = 1, bias: bool = True, rng=None,
                 dtype=np.float64):
        super().__init__()
        if min(in_channels, out_channels, kernel, stride) <= 0 or padding < 0:
            raise ValueError("invalid convolution geometry")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        weight = initializers.dcgan_normal(
            (in_channels, out_channels, kernel, kernel), rng, dtype=dtype
        )
        self.weight = Parameter(weight, "deconv.weight")
        self.bias = (
            Parameter(initializers.zeros((out_channels,), dtype=dtype), "deconv.bias")
            if bias else None
        )
        self.params = [self.weight] + ([self.bias] if bias else [])
        self._x: np.ndarray | None = None
        self._x_mat: np.ndarray | None = None
        self._out_shape: tuple[int, ...] | None = None
        self._ref_mode = False

    def output_shape(self, height: int, width: int) -> tuple[int, int]:
        """Spatial output size for an input of ``height`` × ``width``."""
        out_h = (height - 1) * self.stride - 2 * self.padding + self.kernel
        out_w = (width - 1) * self.stride - 2 * self.padding + self.kernel
        return out_h, out_w

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected (N, {self.in_channels}, H, W) input, got {x.shape}"
            )
        batch, _, in_h, in_w = x.shape
        out_h, out_w = self.output_shape(in_h, in_w)
        self._out_shape = (batch, self.out_channels, out_h, out_w)
        self._ref_mode = is_reference()
        if self._ref_mode:
            return self._reference_forward(x)
        self._x = x
        # The generator-input matricization: a reshape *view* of x
        # (asserted by the layout-contract tests), projected through the
        # kernel block-by-block — the seed layout copied x batch-last.
        x_mat = x.reshape(batch, self.in_channels, -1)
        self._x_mat = x_mat
        plan = conv_plan(self._out_shape, self.kernel, self.padding, self.stride)
        w_mat = self.weight.data.reshape(self.in_channels, -1)
        # Bias is added per scattered block while it is cache-hot.
        return fold_gemm_forward(
            x_mat, w_mat, self._out_shape, plan, None,
            bias=None if self.bias is None else self.bias.data,
        )

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._ref_mode:
            return self._reference_backward(grad)
        if self._x_mat is None or self._out_shape is None:
            raise RuntimeError("backward called before forward")
        if self.bias is not None:
            self.bias.grad += channel_sum(grad)
        plan = conv_plan(self._out_shape, self.kernel, self.padding, self.stride)
        w_mat = self.weight.data.reshape(self.in_channels, -1)
        # Input gradient: a plain convolution of grad with the kernel;
        # weight gradient: input activations against grad patches — one
        # blocked traversal gathers each grad block once for both.
        wgrad, dx = unfold_gemm_backward(grad, self._x_mat, w_mat, plan, None)
        self.weight.grad += wgrad.reshape(self.weight.shape)
        return dx

    # -- retained seed path (selected under reference_ops) ---------------
    def _reference_forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        self._x_mat = None
        batch = x.shape[0]
        # Treat x as the "output gradient" of the adjoint convolution:
        # columns = W^T @ x, then fold into the larger output image.
        w_mat = self.weight.data.reshape(self.in_channels, -1)  # (C_in, C_out*k*k)
        x_mat = x.transpose(1, 2, 3, 0).reshape(self.in_channels, -1)
        cols = w_mat.T @ x_mat  # (C_out*k*k, in_h*in_w*N) in seed column order
        out = _reference_col2im(cols, self._out_shape, self.kernel,
                                self.padding, self.stride)
        if self.bias is not None:
            out += self.bias.data.reshape(1, -1, 1, 1)
        return out

    def _reference_backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None or self._out_shape is None:
            raise RuntimeError("backward called before forward")
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=(0, 2, 3))
        batch, _, in_h, in_w = self._x.shape
        # Input gradient: a plain convolution of grad with the kernel.
        grad_cols = _reference_im2col(grad, self.kernel, self.padding, self.stride)
        w_mat = self.weight.data.reshape(self.in_channels, -1)
        dx = w_mat @ grad_cols  # (C_in, in_h*in_w*N) in seed column order
        dx = dx.reshape(self.in_channels, in_h, in_w, batch).transpose(3, 0, 1, 2)
        # Weight gradient: correlate input activations with output gradient patches.
        x_mat = self._x.transpose(1, 2, 3, 0).reshape(self.in_channels, -1)
        self.weight.grad += (x_mat @ grad_cols.T).reshape(self.weight.shape)
        return dx
