"""Layer protocol plus the shape-manipulating and dense layers.

Every layer implements ``forward``/``backward`` and exposes its learnable
:class:`Parameter` objects.  Backward passes accumulate into
``Parameter.grad``; optimizers consume and the trainer zeroes them.  The
design is deliberately layer-local (no tape/autograd) — the table-GAN
training loop only needs feed-forward stacks, and explicit per-layer
backward rules keep the numerics auditable.
"""

from __future__ import annotations

import numpy as np

from repro.nn import initializers


#: Cached all-ones row vectors for :func:`channel_sum`, keyed by (n, dtype).
_ONES: dict = {}


def channel_sum(t: np.ndarray) -> np.ndarray:
    """Per-channel sum of ``(N, C, *spatial)`` over every axis but 1.

    Contiguous batch-major tensors reduce their channel axis with long
    strided gathers under ``t.sum(axis=(0, 2, ...))``; routing the batch
    reduction through a BLAS GEMV (ones @ t) instead is 5–20× faster on
    the conv layers' activation shapes.  Falls back to ``np.sum`` for
    non-contiguous input.  Float summation order differs from ``np.sum``,
    so callers with a bit-exactness contract (the float64 BatchNorm
    oracle path) must not use it.
    """
    if t.ndim == 2:
        return t.sum(axis=0)
    if not t.flags["C_CONTIGUOUS"] or t.size < 8192:
        # Strided input, or too small for the GEMV call to pay for itself.
        return t.sum(axis=(0,) + tuple(range(2, t.ndim)))
    n, channels = t.shape[:2]
    key = (n, t.dtype)
    ones = _ONES.get(key)
    if ones is None:
        ones = _ONES[key] = np.ones(n, t.dtype)
    per_cell = ones @ t.reshape(n, -1)
    return per_cell.reshape(channels, -1).sum(axis=1)


class Parameter:
    """A learnable tensor: ``data`` plus accumulated gradient ``grad``.

    The floating dtype of ``data`` is preserved (that is the network's
    compute dtype); non-float input is promoted to float64.

    ``data`` and ``grad`` normally own their storage, but a parameter can
    be re-homed onto externally owned memory with :meth:`bind_views` —
    that is how :class:`~repro.nn.flatbuf.FlatParameterBuffer` turns a
    whole network's parameters into slices of one contiguous buffer so
    optimizers can update them with whole-buffer in-place ops.  All code
    that mutates a parameter does so in place (``grad += ...``,
    ``grad[...] = 0``, ``data[...] = loaded``), which is what keeps such
    views permanently valid.
    """

    def __init__(self, data: np.ndarray, name: str = "param"):
        data = np.asarray(data)
        if not np.issubdtype(data.dtype, np.floating):
            data = data.astype(np.float64)
        self.data = data
        self.grad = np.zeros_like(self.data)
        self.name = name
        #: The FlatParameterBuffer this parameter is a view into, if any.
        #: Set by the buffer on construction; flattening twice is refused
        #: there because it would orphan the first buffer.
        self.flat_buffer = None

    def bind_views(self, data: np.ndarray, grad: np.ndarray) -> None:
        """Rebind ``data``/``grad`` to external views, preserving values.

        The views must match the parameter's current shape and dtype; the
        current data and accumulated gradient are copied into them so the
        rebind is invisible to training code.
        """
        for label, view in (("data", data), ("grad", grad)):
            if view.shape != self.data.shape or view.dtype != self.data.dtype:
                raise ValueError(
                    f"{label} view {view.shape}/{view.dtype} does not match "
                    f"parameter {self.name} {self.data.shape}/{self.data.dtype}"
                )
        data[...] = self.data
        grad[...] = self.grad
        self.data = data
        self.grad = grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero in place."""
        self.grad[...] = 0.0

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.data.shape})"


class Layer:
    """Base class for all layers.

    Subclasses override :meth:`forward` and :meth:`backward` and register
    parameters in ``self.params``.  ``forward`` may cache whatever it needs
    for the backward pass; caches must not be mutated by ``backward`` so a
    single forward can support multiple backward passes (the table-GAN
    generator update back-propagates through the discriminator twice: once
    from the adversarial loss and once from the information loss).
    """

    def __init__(self):
        self.params: list[Parameter] = []

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        """All learnable parameters of this layer."""
        return list(self.params)

    def extra_state(self) -> dict[str, np.ndarray]:
        """Non-learnable state to persist (e.g. batch-norm running stats)."""
        return {}

    def load_extra_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore state captured by :meth:`extra_state`."""
        if state:
            raise ValueError(f"{type(self).__name__} has no extra state to load")

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def __call__(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return self.forward(x, training=training)


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output widths.
    init:
        ``"dcgan"`` (N(0, 0.02)), ``"he"``, or ``"glorot"``.
    bias:
        Whether to learn an additive bias.
    rng:
        Seed or generator for weight initialization.
    dtype:
        Parameter dtype (the trainer's compute dtype; default float64).
    """

    def __init__(self, in_features: int, out_features: int, init: str = "dcgan",
                 bias: bool = True, rng=None, dtype=np.float64):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        shape = (in_features, out_features)
        if init == "dcgan":
            weight = initializers.dcgan_normal(shape, rng, dtype=dtype)
        elif init == "he":
            weight = initializers.he_normal(shape, in_features, rng, dtype=dtype)
        elif init == "glorot":
            weight = initializers.glorot_uniform(
                shape, in_features, out_features, rng, dtype=dtype
            )
        else:
            raise ValueError(f"unknown init {init!r}")
        self.weight = Parameter(weight, "dense.weight")
        self.bias = (
            Parameter(initializers.zeros((out_features,), dtype=dtype), "dense.bias")
            if bias else None
        )
        self.params = [self.weight] + ([self.bias] if bias else [])
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError(f"Dense expects 2-D input, got shape {x.shape}")
        self._x = x
        out = self._product(x, training)
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def _product(self, x: np.ndarray, training: bool,
                 out: np.ndarray | None = None) -> np.ndarray:
        """``x @ W``, into ``out`` when given."""
        if not training and x.shape[0] == 1:
            # numpy hands a one-row product to BLAS gemv, which sums in a
            # different order than the gemm of every larger batch.  A
            # two-row gemm keeps an inference row's bits independent of
            # how many rows share its forward (training keeps its bits).
            return (np.concatenate((x, x)) @ self.weight.data)[:1]
        return np.matmul(x, self.weight.data, out=out)

    def infer_transposed(self, x: np.ndarray, scratch: np.ndarray,
                         out: np.ndarray) -> None:
        """Inference output, transposed: ``out`` ``(F, N)`` gets
        ``forward(x, training=False).T`` bit for bit; caches nothing.

        ``scratch`` is an ``(N, F)`` buffer for the product.
        """
        product = self._product(x, False, out=scratch)
        if self.bias is None:
            out[...] = product.T
        else:
            np.add(product.T, self.bias.data[:, None], out=out)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.weight.grad += self._x.T @ grad
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=0)
        return grad @ self.weight.data.T


class Flatten(Layer):
    """Flatten (N, ...) to (N, features), remembering the shape for backward."""

    def __init__(self):
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad.reshape(self._shape)


class Reshape(Layer):
    """Reshape (N, features) to (N, *target_shape); inverse of :class:`Flatten`."""

    def __init__(self, target_shape: tuple[int, ...]):
        super().__init__()
        self.target_shape = tuple(target_shape)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return x.reshape(x.shape[0], *self.target_shape)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(grad.shape[0], -1)
