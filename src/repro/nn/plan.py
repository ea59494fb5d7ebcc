"""Cached convolution index plans and the blocked-workspace policy.

Every convolution in :mod:`repro.nn` reduces to two primitives: a *gather*
(``im2col``) and its adjoint *scatter* (``col2im``).  Both are fully
determined by the per-record geometry ``(channels, spatial, kernel,
padding, stride)``, yet the seed implementation recomputed the index
arithmetic on every call — inside the hottest loop of the codebase.  A
:class:`ConvPlan` captures everything derivable from the geometry once:

* the validated output spatial sizes;
* the per-item flat scatter indices that map each patch element to its
  position in one (padded) record, used by the disjoint fancy-index
  scatter when ``stride >= kernel``;
* whether windows overlap at all, and the parity grouping of kernel
  offsets the overlapping scatter uses (see
  :func:`repro.nn.im2col.col2im`);
* the batch block size the blocked/streamed engine processes at a time
  (:meth:`ConvPlan.batch_block`), chosen so one block's patch matrix fits
  the workspace budget (:func:`workspace_budget`).

Since the **batch-major column convention** (ISSUE 4), a plan is
batch-free: the memo key is ``(channels, *spatial, kernel, padding,
stride)``, so one plan serves every batch size of the same record
geometry — training mini-batches, single-row serving requests, and the
blocked engine's partial tail blocks all hit the same cache entry.
Plans are memoized with :func:`functools.lru_cache`; the conv layers of
:mod:`repro.nn.conv` (``Conv``/``ConvTranspose`` at rank 1 and 2) share
index computations across layers, batches, and training steps
(``plan_cache_info`` exposes the counters; ``clear_plan_cache`` frees the
cached index arrays, which benchmarks call to measure cold-start
behaviour honestly).  One plan handles one or two
spatial dimensions; ``x_shape`` is ``(N, C, L)`` or ``(N, C, H, W)``.

The plan is what the fast/reference testing contract hangs off: the fast
kernels consume plan indices and block sizes, the retained
``_reference_*`` oracles in :mod:`repro.nn.im2col` recompute everything
from scratch in the seed's spatial-position-major column order, and the
property tests in ``tests/nn/test_plan.py`` assert the two agree — through
the explicit layout adapters — bit-for-bit in float64 and within 1e-5 in
float32 (see ``docs/architecture.md``).
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

import numpy as np

#: Default byte budget for one block's patch matrix in the blocked engine.
#: Sized so the hot working set (cols block + GEMM pack + output slice)
#: stays cache-resident; see :func:`set_workspace_budget`.
_DEFAULT_WORKSPACE_BUDGET = 4 * 2**20

_workspace_budget = _DEFAULT_WORKSPACE_BUDGET


def workspace_budget() -> int:
    """Current byte budget for one batch block's patch matrix."""
    return _workspace_budget


def set_workspace_budget(n_bytes: int | None) -> int:
    """Set the blocked-engine workspace budget; ``None`` restores the default.

    Returns the previous budget so callers (tests force tiny budgets to
    exercise single-item and partial blocks) can restore it.
    """
    global _workspace_budget
    previous = _workspace_budget
    if n_bytes is None:
        _workspace_budget = _DEFAULT_WORKSPACE_BUDGET
    else:
        if n_bytes < 1:
            raise ValueError(f"workspace budget must be positive, got {n_bytes}")
        _workspace_budget = int(n_bytes)
    return previous


def conv_output_size(size: int, kernel: int, padding: int, stride: int) -> int:
    """Spatial output size of a convolution along one axis.

    Raises ``ValueError`` when the geometry does not divide evenly, because
    a silent floor would desynchronize ``im2col`` and ``col2im``.  Both
    error messages spell out the full geometry for debuggability.
    """
    numerator = size + 2 * padding - kernel
    if numerator < 0:
        raise ValueError(
            f"kernel {kernel} larger than padded input {size + 2 * padding}: "
            f"size={size}, kernel={kernel}, padding={padding}, stride={stride}"
        )
    if numerator % stride != 0:
        raise ValueError(
            f"convolution geometry not exact: size={size}, kernel={kernel}, "
            f"padding={padding}, stride={stride}"
        )
    return numerator // stride + 1


class ConvPlan:
    """Precomputed im2col/col2im geometry for one per-record shape.

    A plan is **batch-free**: it describes one record ``(C, *spatial)``
    and every batch size shares it.  The batch-major patch matrix for a
    batch of ``N`` records has shape :meth:`cols_shape` ``= (N *
    n_positions, rows)`` — patch ``(n, p)`` is row ``n * n_positions +
    p``, so any batch-major matricization of an activation or gradient
    tensor is a reshape view, never a copy.

    Attributes
    ----------
    item_shape:
        The (unpadded) shape of one record, ``(C, *spatial)``.
    out:
        Output spatial sizes, one per spatial dimension.
    n_positions:
        ``prod(out)`` — patch positions per record.
    rows:
        ``C * kernel**S`` — elements per patch (the patch-matrix width).
    overlapping:
        True when ``stride < kernel``, i.e. scatter targets collide and
        ``col2im`` must accumulate.
    scatter_index:
        Per-item flat ``np.intp`` indices into one padded record
        ``(C, *padded)``, shaped ``(n_positions, rows)`` to match the
        batch-major patch layout, so the non-overlapping ``col2im``
        degenerates to one fancy-index assignment per batch block.
        Built lazily on first access: the overlapping path scatters by
        parity-grouped strided slices and never needs it.
    offset_groups:
        Kernel-offset parity groups of the overlapping scatter: per
        spatial dimension, the list of ``(m, cnt)`` pairs where group
        ``m`` fuses the ``cnt`` mutually disjoint offsets ``m * stride
        + rho`` (``rho < cnt``) into a single strided accumulation pass.
    scatter_spatial:
        Spatial extent of the overlapping scatter's accumulator: the
        padded record, plus the cells a partial last parity group's pass
        reaches past it.
    """

    __slots__ = (
        "item_shape", "kernel", "padding", "stride", "channels",
        "spatial", "out", "n_positions", "rows",
        "padded_spatial", "padded_item_size", "unpad_slices", "overlapping",
        "offset_groups", "scatter_spatial", "_scatter_index", "__weakref__",
    )

    def __init__(self, item_shape: tuple[int, ...], kernel: int, padding: int,
                 stride: int):
        if len(item_shape) not in (2, 3):
            raise ValueError(
                f"expected (C, L) or (C, H, W) record shape, got {item_shape}"
            )
        channels, *spatial = (int(s) for s in item_shape)
        self.item_shape = (channels, *spatial)
        self.kernel = kernel
        self.padding = padding
        self.stride = stride
        self.channels = channels
        self.spatial = tuple(spatial)
        self.out = tuple(
            conv_output_size(s, kernel, padding, stride) for s in spatial
        )
        ndim_sp = len(self.spatial)
        padded = tuple(s + 2 * padding for s in spatial)
        self.n_positions = prod(self.out)
        self.rows = channels * kernel**ndim_sp
        self.padded_spatial = padded
        self.padded_item_size = channels * prod(padded)
        self.unpad_slices = (slice(None), slice(None)) + tuple(
            slice(padding, padding + size) for size in spatial
        )
        self.overlapping = stride < kernel
        # Offsets k_off = m*stride + rho (rho < cnt) form group m; within a
        # group all offsets land on distinct residues mod stride, so their
        # scatter targets are disjoint and one strided pass adds them all.
        self.offset_groups = tuple(
            (m, min(stride, kernel - m * stride))
            for m in range(-(-kernel // stride))
        ) if self.overlapping else ()
        # Group m's pass spans stride * out cells from its first offset
        # m * stride; for a partial last group that runs past the padded
        # record, so the overlapping scatter's accumulator is this large.
        self.scatter_spatial = tuple(
            stride * (o + len(self.offset_groups) - 1) for o in self.out
        ) if self.overlapping else padded
        self._scatter_index: np.ndarray | None = None

    def cols_shape(self, batch: int) -> tuple[int, int]:
        """Shape of the batch-major patch matrix for ``batch`` records."""
        return (int(batch) * self.n_positions, self.rows)

    def batch_block(self, itemsize: int) -> int:
        """Records per block so one block's patch matrix fits the budget."""
        per_item = self.n_positions * self.rows * int(itemsize)
        return max(1, _workspace_budget // max(1, per_item))

    @property
    def scatter_index(self) -> np.ndarray:
        if self._scatter_index is None:
            # Per-item flat targets: the element of patch position (*o) at
            # patch row (c, *k_off) lands at spatial cell stride * o + k_off
            # of channel c in one padded record.
            kernel, stride = self.kernel, self.stride
            padded = self.padded_spatial
            ndim_sp = len(padded)
            k_grid = np.indices((kernel,) * ndim_sp).reshape(ndim_sp, -1)
            o_grid = np.indices(self.out).reshape(ndim_sp, -1)
            # pos[d, p, kk]: spatial coordinate along axis d.
            pos = stride * o_grid[:, :, None] + k_grid[:, None, :]
            flat_sp = pos[0]
            for d in range(1, ndim_sp):
                flat_sp = flat_sp * padded[d] + pos[d]
            # Row order is (c, *k_off): channel-major within each patch.
            index = (
                np.arange(self.channels)[None, :, None] * prod(padded)
                + flat_sp[:, None, :]
            ).reshape(self.n_positions, self.rows)
            self._scatter_index = np.ascontiguousarray(index, dtype=np.intp)
        return self._scatter_index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConvPlan(item_shape={self.item_shape}, kernel={self.kernel}, "
            f"padding={self.padding}, stride={self.stride}, out={self.out}, "
            f"overlapping={self.overlapping})"
        )


@lru_cache(maxsize=128)
def _cached_plan(item_shape: tuple[int, ...], kernel: int, padding: int,
                 stride: int) -> ConvPlan:
    return ConvPlan(item_shape, kernel, padding, stride)


def conv_plan(x_shape: tuple[int, ...], kernel: int, padding: int,
              stride: int) -> ConvPlan:
    """The memoized :class:`ConvPlan` for one batched input shape.

    ``x_shape`` is ``(N, C, L)`` or ``(N, C, H, W)``; the batch axis is
    dropped from the memo key (plans are batch-free under the batch-major
    convention), and the remaining sizes are normalized to python ints so
    numpy integer scalars hit the same cache entry.
    """
    if len(x_shape) not in (3, 4):
        raise ValueError(
            f"expected (N, C, L) or (N, C, H, W) input shape, got {tuple(x_shape)}"
        )
    key = tuple(int(s) for s in x_shape[1:])
    return _cached_plan(key, int(kernel), int(padding), int(stride))


def plan_cache_info():
    """Cache statistics of the plan memo (exposed for tests/benchmarks)."""
    return _cached_plan.cache_info()


def clear_plan_cache() -> None:
    """Drop all memoized plans (frees the cached index arrays)."""
    _cached_plan.cache_clear()
