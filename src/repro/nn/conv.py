"""Convolution layers: strided convolutions and their transposes, at any record rank.

One rank-generic pair, :class:`Conv` and :class:`ConvTranspose`, holds
every kernel; the public classes are sibling subclasses that fix only the
spatial rank and the parameter-name prefix:

* :class:`Conv2D` / :class:`ConvTranspose2D` over ``(N, C, H, W)`` — the
  paper's d×d record matrices (§3.2);
* :class:`Conv1D` / :class:`ConvTranspose1D` over ``(N, C, L)`` — the
  "original vector format" that §3.2 step 1 found sub-optimal, kept as a
  reproducible ablation (``TableGanConfig(layout="vector")``).

Siblings, not ``Conv1D(Conv2D)``: code that dispatches on or wraps one
rank's class (``isinstance``, class-level instrumentation) never sees the
other.  The prefixes (``conv``, ``deconv``, ``conv1d``, ``deconv1d``) are
embedded in ``state_dict`` keys, so saved ``.npz`` files and registry
artifacts stay loadable.

All layers run on the blocked batch-major im2col/col2im engine
(:mod:`repro.nn.im2col`), whose plans (:mod:`repro.nn.plan`) handle one
or two spatial dimensions.  A transposed convolution's forward pass is
exactly the backward (input-gradient) pass of a normal convolution with
the same geometry, and vice versa — the implementation exploits that
symmetry so the two layers share all index computations (memoized per
record geometry).

Under the batch-major column convention the hot matricizations are
views:

* ``Conv.backward`` feeds the weight GEMM the *view*
  ``grad.reshape(N, C_out, P)`` (exposed as ``_grad_mat`` for the layout
  tests) — the seed layout forced a whole-batch ``transpose(...).reshape``
  copy here;
* ``ConvTranspose.forward`` projects the *view*
  ``x.reshape(N, C_in, P)`` (exposed as ``_x_mat``) through the kernel.

Both layers run blocked: every forward/backward loops over batch blocks
sized by the plan's workspace budget, through the calling thread's engine
scratch pool, so large batches no longer fall out of cache.  Inference forwards
(``training=False``) stream and cache nothing;
a backward therefore requires the preceding forward to have run in
training mode.  Conv outputs are written contiguously (NCHW), which lets
the downstream ``Flatten`` at the discriminator's feature layer return a
view.

The seed implementations are retained as the layers' ``_reference_*``
paths over the rank's oracle (``_reference_im2col``/``_reference_col2im``
or their ``_1d`` twins) and selected by :func:`repro.nn.im2col.
reference_ops` — that is how the engine benchmark replays the full
seed-idiom data path (fancy gather, position-major columns, batch-last
gradient copies, ``np.add.at`` scatter) on identical workloads.

DCGAN uses kernel 4, stride 2, padding 1 throughout, which exactly halves
(conv) or doubles (deconv) every spatial dimension.
"""

from __future__ import annotations

import numpy as np

from repro.nn import initializers
from repro.nn.im2col import (
    _reference_col2im,
    _reference_col2im_1d,
    _reference_im2col,
    _reference_im2col_1d,
    conv_gemm_backward,
    conv_gemm_forward,
    conv_output_size,
    fold_gemm_forward,
    fold_gemm_infer,
    is_reference,
    unfold_gemm_backward,
)
from repro.nn.layers import Layer, Parameter, channel_sum
from repro.nn.plan import conv_plan

#: The seed oracles per spatial rank: (im2col, col2im).
_ORACLES = {
    1: (_reference_im2col_1d, _reference_col2im_1d),
    2: (_reference_im2col, _reference_col2im),
}
_SPATIAL_NAMES = {1: "L", 2: "H, W"}


class _Convolution(Layer):
    """Constructor and input check shared by :class:`Conv` and :class:`ConvTranspose`.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel:
        Kernel size along every spatial axis (DCGAN uses 4).
    stride, padding:
        Convolution geometry; must tile the input exactly.
    bias:
        Whether to learn a per-output-channel bias.
    rng:
        Seed or generator for DCGAN N(0, 0.02) weight init.
    dtype:
        Parameter dtype (the trainer's compute dtype; default float64).
    """

    #: Spatial rank of the input records (1 for ``(N, C, L)``, 2 for NCHW).
    rank: int
    #: Parameter-name prefix (``"conv"``, ``"deconv1d"``, ...).
    prefix: str

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
            self._channel_dims() + (kernel,) * self.rank, rng, dtype=dtype
        )
        self.weight = Parameter(weight, f"{self.prefix}.weight")
        self.bias = (
            Parameter(initializers.zeros((out_channels,), dtype=dtype),
                      f"{self.prefix}.bias")
            if bias else None
        )
        self.params = [self.weight] + ([self.bias] if bias else [])
        self._ref_mode = False

    def _channel_dims(self) -> tuple[int, int]:
        raise NotImplementedError

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != self.rank + 2 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected (N, {self.in_channels}, {_SPATIAL_NAMES[self.rank]}) "
                f"input, got {x.shape}"
            )


class Conv(_Convolution):
    """Strided convolution over ``(N, C, *spatial)`` records of any rank.

    The weight tensor has shape ``(out_channels, in_channels, k, ...)``
    with one ``k`` per spatial axis.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None
        self._grad_mat: np.ndarray | None = None
        #: Persistent backing buffer for the cached patch-matrix blocks.
        self._cache_ws: dict = {}

    def _channel_dims(self) -> tuple[int, int]:
        return self.out_channels, self.in_channels

    def output_shape(self, *spatial: int) -> tuple[int, ...]:
        """Spatial output size for an input of spatial size ``spatial``."""
        return tuple(conv_output_size(size, self.kernel, self.padding, self.stride)
                     for size in spatial)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._check_input(x)
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
        # The batch-major matricization is a reshape *view* of the
        # contiguous gradient (asserted by the layout-contract tests) —
        # the seed layout copied the whole gradient batch-last here.
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
        spatial = self.output_shape(*x.shape[2:])
        im2col, _ = _ORACLES[self.rank]
        cols = im2col(x, self.kernel, self.padding, self.stride)
        self._cols = cols
        self._x_shape = x.shape
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        out = w_mat @ cols  # (C_out, P*N) in seed column order
        if self.bias is not None:
            out += self.bias.data[:, None]
        return np.moveaxis(out.reshape(self.out_channels, *spatial, batch), -1, 0)

    def _reference_backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=(0, *range(2, grad.ndim)))
        grad_mat = np.moveaxis(grad, 0, -1).reshape(self.out_channels, -1)
        self.weight.grad += (grad_mat @ self._cols.T).reshape(self.weight.shape)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        dcols = w_mat.T @ grad_mat
        _, col2im = _ORACLES[self.rank]
        return col2im(dcols, self._x_shape, self.kernel, self.padding, self.stride)


class ConvTranspose(_Convolution):
    """Transposed ("de-") convolution, the upsampling layer of DCGAN generators.

    The forward pass scatters each input cell through the kernel into the
    (larger) output — the adjoint of :class:`Conv` — so every spatial size
    grows by the stride factor with DCGAN's (kernel=4, stride=2,
    padding=1) geometry.

    The weight tensor has shape ``(in_channels, out_channels, k, ...)``,
    matching the convention where the deconvolution is the gradient of a
    convolution mapping ``out_channels -> in_channels``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._x: np.ndarray | None = None
        self._x_mat: np.ndarray | None = None
        self._out_shape: tuple[int, ...] | None = None

    def _channel_dims(self) -> tuple[int, int]:
        return self.in_channels, self.out_channels

    def output_shape(self, *spatial: int) -> tuple[int, ...]:
        """Spatial output size for an input of spatial size ``spatial``."""
        return tuple((size - 1) * self.stride - 2 * self.padding + self.kernel
                     for size in spatial)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._check_input(x)
        batch = x.shape[0]
        self._out_shape = (batch, self.out_channels, *self.output_shape(*x.shape[2:]))
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

    def infer_channel_major(self, x: np.ndarray, out: np.ndarray) -> None:
        """Inference forward on channel-major activations; caches nothing.

        ``x`` is the contiguous ``(C_in, *spatial, N)`` input and ``out``
        a ``(C_out, *out_spatial, N)`` view; the bits equal
        ``forward(x, training=False)`` in the batch-major layout (see
        :func:`~repro.nn.im2col.fold_gemm_infer`).
        """
        batch = x.shape[-1]
        plan = conv_plan((batch, self.out_channels, *self.output_shape(*x.shape[1:-1])),
                         self.kernel, self.padding, self.stride)
        fold_gemm_infer(x.reshape(self.in_channels, -1, batch),
                        self.weight.data.reshape(self.in_channels, -1), plan,
                        None if self.bias is None else self.bias.data, out)

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
        # Treat x as the "output gradient" of the adjoint convolution:
        # columns = W^T @ x, then fold into the larger output record.
        w_mat = self.weight.data.reshape(self.in_channels, -1)  # (C_in, C_out*k^r)
        x_mat = np.moveaxis(x, 0, -1).reshape(self.in_channels, -1)
        cols = w_mat.T @ x_mat  # (C_out*k^r, P_in*N) in seed column order
        _, col2im = _ORACLES[self.rank]
        out = col2im(cols, self._out_shape, self.kernel, self.padding, self.stride)
        if self.bias is not None:
            out += self.bias.data.reshape((1, -1) + (1,) * self.rank)
        return out

    def _reference_backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None or self._out_shape is None:
            raise RuntimeError("backward called before forward")
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=(0, *range(2, grad.ndim)))
        batch = self._x.shape[0]
        # Input gradient: a plain convolution of grad with the kernel.
        im2col, _ = _ORACLES[self.rank]
        grad_cols = im2col(grad, self.kernel, self.padding, self.stride)
        w_mat = self.weight.data.reshape(self.in_channels, -1)
        dx = w_mat @ grad_cols  # (C_in, P_in*N) in seed column order
        dx = np.moveaxis(dx.reshape(self.in_channels, *self._x.shape[2:], batch), -1, 0)
        # Weight gradient: correlate input activations with output gradient patches.
        x_mat = np.moveaxis(self._x, 0, -1).reshape(self.in_channels, -1)
        self.weight.grad += (x_mat @ grad_cols.T).reshape(self.weight.shape)
        return dx


class Conv2D(Conv):
    """2-D convolution with square kernel over NCHW record matrices."""

    rank = 2
    prefix = "conv"


class ConvTranspose2D(ConvTranspose):
    """2-D transposed convolution over NCHW record matrices."""

    rank = 2
    prefix = "deconv"


class Conv1D(Conv):
    """Strided 1-D convolution over (N, C, L) record vectors."""

    rank = 1
    prefix = "conv1d"


class ConvTranspose1D(ConvTranspose):
    """Strided 1-D transposed convolution (adjoint of :class:`Conv1D`)."""

    rank = 1
    prefix = "deconv1d"
