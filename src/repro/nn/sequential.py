"""Sequential layer container with partial forward/backward access.

The table-GAN training loop needs more than a plain feed-forward stack:

* the information loss reads the discriminator's *feature layer* (the
  flattened activations right before the final dense+sigmoid), and
* the generator update injects a gradient at that feature layer and
  back-propagates it the rest of the way to the input.

``Sequential`` therefore caches per-layer outputs on every forward pass and
exposes :meth:`activation`, :meth:`backward_from` and :meth:`layer_index`.
"""

from __future__ import annotations

from math import prod

import numpy as np

from repro.nn import batchnorm
from repro.nn.activations import ReLU, Tanh
from repro.nn.batchnorm import BatchNorm
from repro.nn.conv import ConvTranspose
from repro.nn.flatbuf import FlatParameterBuffer
from repro.nn.im2col import _ws, is_reference
from repro.nn.layers import Dense, Layer, Parameter, Reshape


class Sequential(Layer):
    """A stack of layers applied in order.

    Layers can be given names via ``(name, layer)`` tuples so call sites can
    refer to semantically meaningful points in the stack (e.g. the
    table-GAN discriminator names its flattened feature layer ``"features"``).
    """

    def __init__(self, layers):
        super().__init__()
        self.layers: list[Layer] = []
        self.names: list[str] = []
        for idx, entry in enumerate(layers):
            if isinstance(entry, tuple):
                name, layer = entry
            else:
                name, layer = f"layer{idx}", entry
            if not isinstance(layer, Layer):
                raise TypeError(f"entry {idx} is not a Layer: {layer!r}")
            self.layers.append(layer)
            self.names.append(name)
        self._activations: list[np.ndarray] | None = None

    def layer_index(self, name: str) -> int:
        """Index of the layer registered under ``name``."""
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no layer named {name!r}; have {self.names}") from None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        activations = []
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
            activations.append(out)
        self._activations = activations
        return out

    #: Rows per chunk of :meth:`stream_forward` — sized so one chunk's
    #: inter-layer activations stay cache-resident (measured sweet spot of
    #: the blocked conv engine's serving workloads).
    STREAM_CHUNK_ROWS = 256

    def stream_forward(self, x: np.ndarray,
                       chunk_rows: int | None = None) -> np.ndarray:
        """Inference forward in row chunks; returns only the final output.

        Evaluation-mode layers are row-independent (BatchNorm serves its
        running statistics), so pushing ``chunk_rows``-row slices through
        the whole stack is numerically identical to one monolithic pass —
        but the inter-layer activation tensors stay cache-resident instead
        of streaming through DRAM, which keeps bulk-synthesis throughput
        flat in the batch size (see ``docs/benchmarks.md``).  The chunking
        is a pure function of the input size, so for a given input the
        result is deterministic, and most rows go through identical
        ``chunk_rows``-row GEMMs regardless of the caller's batching.

        A generator stack (``Dense``, ``Reshape``, then ``BatchNorm``,
        ``ReLU`` and ``ConvTranspose`` layers ending in a
        ``ConvTranspose``, then ``Tanh``; input in the weights' dtype) runs
        channel-major: every activation is a contiguous ``(C, *spatial,
        rows)`` buffer from the calling thread's engine scratch, which is
        exactly each transposed convolution's GEMM operand, and the result
        is transposed back once before ``Tanh``.  Each layer makes the
        same GEMM calls on the same shapes and the same elementwise
        operations as its ``forward(training=False)``, so the output is
        bit-identical to the per-layer pass, and no layer's cache is
        touched.  Any other stack (or under the reference kernels) runs
        each layer's inference ``forward`` per chunk, which replaces
        that layer's backward cache.  Unlike :meth:`forward`, no
        per-layer activations are recorded.
        """
        chunk = self.STREAM_CHUNK_ROWS if chunk_rows is None else int(chunk_rows)
        if chunk <= 0:
            raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
        n = x.shape[0]
        if not self._runs_channel_major(x):
            return self._stream_per_layer(x, chunk)
        spatial = self.layers[1].target_shape[1:]
        for layer in self.layers:
            if isinstance(layer, ConvTranspose):
                spatial = layer.output_shape(*spatial)
        final = np.empty((n, self.layers[-2].out_channels, *spatial), x.dtype)
        for start in range(0, n, chunk):
            self._infer_channel_major(x[start:start + chunk],
                                      final[start:start + chunk])
        return final

    def _runs_channel_major(self, x: np.ndarray) -> bool:
        """Whether :meth:`stream_forward` takes the channel-major path."""
        if len(self.layers) < 4 or is_reference() or batchnorm._USE_REFERENCE:
            return False
        dense, reshape, *body, tanh = self.layers
        if not (type(dense) is Dense and type(reshape) is Reshape
                and type(tanh) is Tanh and body
                and isinstance(body[-1], ConvTranspose)
                and x.ndim == 2 and x.dtype == dense.weight.data.dtype):
            return False
        for layer in body:
            if isinstance(layer, ConvTranspose):
                if layer.stride >= layer.kernel:   # the fold needs overlap
                    return False
            elif type(layer) is not BatchNorm and type(layer) is not ReLU:
                return False
        return True

    def _infer_channel_major(self, x: np.ndarray, out: np.ndarray) -> None:
        """One chunk of :meth:`stream_forward`'s channel-major path into
        ``out`` (the chunk's rows of the batch-major result)."""
        dense, reshape, *body, _ = self.layers
        rows = x.shape[0]
        shape = (*reshape.target_shape, rows)
        act = _ws(None, "stream_a", shape, x.dtype)
        dense.infer_transposed(
            x, _ws(None, "stream_b", (rows, prod(reshape.target_shape)), x.dtype),
            act.reshape(-1, rows))
        spare = "stream_b"
        for index, layer in enumerate(body):
            if isinstance(layer, ConvTranspose):
                shape = (layer.out_channels, *layer.output_shape(*shape[1:-1]), rows)
                if index == len(body) - 1:
                    # The single transpose back: the last layer scatters
                    # into the batch-major result.
                    layer.infer_channel_major(act, np.moveaxis(out, 0, -1))
                    break
                nxt = _ws(None, spare, shape, x.dtype)
                layer.infer_channel_major(act, nxt)
                spare = "stream_a" if spare == "stream_b" else "stream_b"
                act = nxt
            elif isinstance(layer, BatchNorm):
                layer.infer_rows(act.reshape(act.shape[0], -1))
            else:
                np.maximum(act, 0.0, out=act)
        np.tanh(out, out=out)

    def _stream_per_layer(self, x: np.ndarray, chunk: int) -> np.ndarray:
        """:meth:`stream_forward` through each layer's inference ``forward``."""
        n = x.shape[0]
        if n <= chunk:
            out = x
            for layer in self.layers:
                out = layer.forward(out, training=False)
            return out
        final: np.ndarray | None = None
        for start in range(0, n, chunk):
            out = x[start: min(start + chunk, n)]
            for layer in self.layers:
                out = layer.forward(out, training=False)
            if final is None:
                final = np.empty((n,) + out.shape[1:], dtype=out.dtype)
            final[start: start + out.shape[0]] = out
        return final

    def activation(self, name_or_index) -> np.ndarray:
        """Cached output of a layer from the most recent forward pass."""
        if self._activations is None:
            raise RuntimeError("no forward pass has been run yet")
        idx = name_or_index if isinstance(name_or_index, int) else self.layer_index(name_or_index)
        return self._activations[idx]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return self.backward_from(len(self.layers) - 1, grad)

    def backward_from(self, name_or_index, grad: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad`` from the output of the given layer to the input.

        Uses the caches of the most recent forward pass.  Parameter gradients
        of the traversed layers accumulate; call :meth:`zero_grad` first when
        they should not (e.g. when the discriminator is only a conduit for
        generator gradients).
        """
        if self._activations is None:
            raise RuntimeError("backward called before forward")
        idx = name_or_index if isinstance(name_or_index, int) else self.layer_index(name_or_index)
        out_grad = grad
        for layer in reversed(self.layers[: idx + 1]):
            out_grad = layer.backward(out_grad)
        return out_grad

    def backward_to(self, name_or_index, grad: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad`` from the network output down *to* a layer.

        Traverses only the layers above the given one and returns the
        gradient at that layer's **output** without propagating through it.
        Because every backward rule is linear in the incoming gradient, a
        gradient injected at that point (e.g. the table-GAN information
        loss at the discriminator's feature layer) can be *added* to the
        returned value and the sum propagated the rest of the way with
        :meth:`backward_from` — one traversal of the lower layers instead
        of two.
        """
        if self._activations is None:
            raise RuntimeError("backward called before forward")
        idx = name_or_index if isinstance(name_or_index, int) else self.layer_index(name_or_index)
        out_grad = grad
        for layer in reversed(self.layers[idx + 1 :]):
            out_grad = layer.backward(out_grad)
        return out_grad

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def flatten_parameters(self) -> FlatParameterBuffer:
        """Materialize all parameters as views into contiguous buffers.

        Rebinds every parameter's storage to slices of one buffer per
        dtype (values preserved) and returns the
        :class:`~repro.nn.flatbuf.FlatParameterBuffer`, which optimizers
        accept in place of a parameter list for fused whole-buffer
        updates.  Safe to call on a trained network: all mutation of
        parameters is in place, so existing gradients survive and
        subsequent forward/backward passes read and write the views.

        Idempotent: if the parameters are already materialized (e.g. a
        fused optimizer flattened them first), the existing buffer is
        returned rather than silently orphaning it with a new one.
        """
        params = self.parameters()
        existing = FlatParameterBuffer.owner_of(params)
        if existing is not None:
            return existing
        return FlatParameterBuffer(params)

    def extra_state(self) -> dict[str, np.ndarray]:
        state: dict[str, np.ndarray] = {}
        for idx, layer in enumerate(self.layers):
            for key, value in layer.extra_state().items():
                state[f"{idx:04d}.{key}"] = value
        return state

    def load_extra_state(self, state: dict[str, np.ndarray]) -> None:
        per_layer: dict[int, dict[str, np.ndarray]] = {}
        for key, value in state.items():
            idx_str, _, rest = key.partition(".")
            per_layer.setdefault(int(idx_str), {})[rest] = value
        for idx, layer_state in per_layer.items():
            self.layers[idx].load_extra_state(layer_state)

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)
