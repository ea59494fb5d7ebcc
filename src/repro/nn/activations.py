"""Activation layers: ReLU, LeakyReLU, Sigmoid, Tanh.

DCGAN's recipe (adopted by table-GAN §4.1): ReLU in the generator,
LeakyReLU(0.2) in the discriminator/classifier, Tanh on the generator
output, Sigmoid on the discriminator/classifier output.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer


class ReLU(Layer):
    """Rectified linear unit, ``max(0, x)``."""

    def __init__(self):
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad * self._mask


class LeakyReLU(Layer):
    """Leaky rectifier, ``x if x > 0 else alpha * x`` (default alpha 0.2).

    The cached state is a boolean bitmask (1 byte per element) instead of a
    full-size floating scale array.  Forward and backward rebuild the scale
    ``s`` (1 where the mask is set, alpha elsewhere) from the mask
    arithmetically and multiply by it.  Neither uses a masked copy: at the
    training shapes ``copyto(where=mask)`` ran ~20x slower.  The retained
    scale-array idiom (``_reference_forward``/``_reference_backward``) is
    the oracle both are tested bit-identical against.
    """

    def __init__(self, alpha: float = 0.2):
        super().__init__()
        if not 0 <= alpha < np.inf:
            raise ValueError(f"alpha must be finite and non-negative, got {alpha}")
        self.alpha = alpha
        self._mask: np.ndarray | None = None

    def _alpha_for(self, dtype: np.dtype):
        return dtype.type(self.alpha) if np.issubdtype(dtype, np.floating) else self.alpha

    def _scale(self, dtype: np.dtype) -> np.ndarray:
        """The oracle's scale array, built exactly from the mask.

        ``alpha * ~mask + mask`` is ``alpha * 0 + 1`` where the mask is set
        and ``alpha * 1 + 0`` elsewhere, exact for every finite alpha.
        """
        alpha = self._alpha_for(dtype)
        s = np.multiply(~self._mask, alpha, dtype=np.result_type(dtype, alpha))
        s += self._mask
        return s

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._mask = x > 0
        s = self._scale(x.dtype)
        return np.multiply(x, s, out=s)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        s = self._scale(grad.dtype)
        return np.multiply(grad, s, out=s)

    # Reference oracle: the full-size scale-array idiom, retained for the
    # fast==reference equivalence tests in ``tests/nn/test_activations.py``.
    def _reference_forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        one = x.dtype.type(1.0) if np.issubdtype(x.dtype, np.floating) else 1.0
        scale = np.where(x > 0, one, self._alpha_for(x.dtype))
        return x * scale, scale

    @staticmethod
    def _reference_backward(grad: np.ndarray, scale: np.ndarray) -> np.ndarray:
        return grad * scale


class Sigmoid(Layer):
    """Logistic sigmoid; output spans (0, 1)."""

    def __init__(self):
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        # Numerically stable piecewise form avoids exp overflow for |x| >> 0.
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        self._out = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad * self._out * (1.0 - self._out)


class Tanh(Layer):
    """Hyperbolic tangent; output spans (-1, 1), matching the [-1, 1] record encoding."""

    def __init__(self):
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad * (1.0 - self._out**2)
