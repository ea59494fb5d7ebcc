"""im2col / col2im patch machinery for convolution layers.

Convolutions are implemented as matrix multiplications over patch
matrices.  ``im2col`` unfolds sliding windows of the input into a 2-D
matrix; ``col2im`` folds a patch matrix back into an image, accumulating
overlapping contributions — exactly the adjoint of ``im2col``, which is
what back-propagation (and transposed convolution) needs.

**Column-layout contract (batch-major, ISSUE 4).**  The fast engine's
patch matrix for a batch of ``N`` records is ``(N * P, rows)`` where
``P = prod(out_spatial)`` and ``rows = C * kernel**S``: patch ``(n, p)``
is row ``n * P + p`` and its elements are ordered channel-major
``(c, *k_off)``.  Because the batch axis is outermost, the batch-major
matricization of any NCHW activation or gradient tensor —
``t.reshape(N, C, P)`` — is a *view*, so the weight-gradient GEMM in
``Conv2D.backward`` and the input projection in
``ConvTranspose2D.forward`` never copy a full batch (the seed layout,
position-major-then-batch, forced a whole-gradient ``transpose(...)
.reshape`` copy before every weight GEMM).  The retained reference
oracles still speak the seed layout ``(rows, P * N)``; the explicit
adapters :func:`cols_to_reference` / :func:`cols_from_reference` convert
between the two by pure relabeling (bit-exact), and are what the
equivalence tests and the dispatch wrapper use.

**Blocked/streamed execution.**  All engine entry points loop over batch
blocks of :meth:`ConvPlan.batch_block` records — sized so one block's
patch matrix fits the workspace budget
(:func:`repro.nn.plan.workspace_budget`) — through the calling thread's
persistent scratch pool (gather/pack/GEMM/scatter buffers, reused across
blocks, calls, and layers).  Large-batch generator forwards therefore no longer
fall out of cache: throughput at 4096-row batches matches the few-hundred
row sweet spot of the monolithic engine.  Inside a block the engine
stores the patch matrix *transposed*, ``(rows, P*b)`` with
position-major-within-block columns — the orientation whose gather copy,
GEMM operands, and scatter slices all vectorize best (chosen by
measurement in ISSUE 4 against batch-major-within-block and stacked
alternatives); the GEMM *pack* buffers are block-sized, cache-resident
transposes of the batch-major views (the only data movement between them
and BLAS), so no full-batch repack ever happens.

Two implementations live here:

* the **fast engine** — gather through
  ``np.lib.stride_tricks.sliding_window_view`` (one strided copy per
  block, no index arrays) and a two-way scatter over the memoized
  :class:`~repro.nn.plan.ConvPlan`: a single fancy-index assignment per
  block when ``stride >= kernel`` makes the windows non-overlapping, and
  a strided accumulation for overlapping windows, one pass per parity
  group.  The plan's **parity groups** (offsets ``m*stride + rho``,
  grouped by ``m``, have pairwise disjoint targets within a group) let
  group 0 *assign* the leading ``stride*out`` subgrid instead of
  read-modify-writing it, so only a trailing border of the padded buffer
  is ever zeroed.  Groups are visited in ascending order, so every
  output cell accumulates its overlapping contributions in ascending
  kernel-offset order — the same per-cell order as the reference
  ``np.add.at`` — making results bit-identical to the oracle in every
  dtype;
* the **reference oracle** — the original fancy-index gather and
  ``np.add.at`` scatter, retained verbatim as ``_reference_*`` functions
  in the seed's position-major column order, used by the equivalence
  tests and the engine benchmark.

``im2col``/``col2im`` accept both 4-D ``(N, C, H, W)`` and 3-D
``(N, C, L)`` inputs, so the rank-generic layers in :mod:`repro.nn.conv`
run both record ranks on the same engine.  All index arithmetic is memoized per record geometry in
:mod:`repro.nn.plan` (:func:`~repro.nn.plan.conv_plan`), so the hot loop
never recomputes gather/scatter indices.  The :func:`reference_ops`
context manager flips the public functions (and the conv layers) onto the
oracle — the engine benchmark (``python -m repro bench``, see
``docs/benchmarks.md``) uses it to time both paths on identical
workloads.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from math import prod

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.plan import ConvPlan, conv_output_size, conv_plan

__all__ = [
    "conv_output_size",
    "im2col",
    "col2im",
    "im2col_indices",
    "cols_to_reference",
    "cols_from_reference",
    "reference_ops",
    "is_reference",
]

#: When True, the public im2col/col2im (and the conv layers) dispatch to
#: the reference oracle.
_USE_REFERENCE = False


@contextmanager
def reference_ops():
    """Context manager forcing the reference im2col/col2im implementations.

    Used by the engine benchmark to time the seed idioms against the fast
    engine on identical workloads, and by tests exercising the dispatch.
    """
    global _USE_REFERENCE
    previous = _USE_REFERENCE
    _USE_REFERENCE = True
    try:
        yield
    finally:
        _USE_REFERENCE = previous


def is_reference() -> bool:
    """Whether the reference oracle is currently forced (see above)."""
    return _USE_REFERENCE


# ----------------------------------------------------------------------
# Layout adapters: batch-major engine layout <-> seed reference layout.
# ----------------------------------------------------------------------

def cols_to_reference(cols: np.ndarray, batch: int) -> np.ndarray:
    """Batch-major ``(N*P, rows)`` -> reference ``(rows, P*N)`` patch matrix.

    A pure relabeling (one permutation copy, bit-exact): patch ``(n, p)``
    moves from row ``n*P + p`` to column ``p*N + n``.  Used by the
    equivalence tests and by the dispatch wrapper under
    :func:`reference_ops`.
    """
    n_p, rows = cols.shape
    if batch <= 0 or n_p % batch:
        raise ValueError(f"cols of shape {cols.shape} cannot hold batch {batch}")
    positions = n_p // batch
    return np.ascontiguousarray(
        cols.reshape(batch, positions, rows).transpose(2, 1, 0)
    ).reshape(rows, n_p)


def cols_from_reference(ref_cols: np.ndarray, batch: int) -> np.ndarray:
    """Reference ``(rows, P*N)`` -> batch-major ``(N*P, rows)`` patch matrix."""
    rows, p_n = ref_cols.shape
    if batch <= 0 or p_n % batch:
        raise ValueError(
            f"reference cols of shape {ref_cols.shape} cannot hold batch {batch}"
        )
    positions = p_n // batch
    return np.ascontiguousarray(
        ref_cols.reshape(rows, positions, batch).transpose(2, 1, 0)
    ).reshape(p_n, rows)


# ----------------------------------------------------------------------
# Workspaces and padding.
# ----------------------------------------------------------------------

#: Per-thread scratch for the blocked engine.  Within a thread one set of
#: block-sized buffers serves every conv layer (they run one at a time), so
#: the hot working set stays a few cache-resident arrays instead of one
#: persistent workspace per layer.  Each thread has its own set: the
#: threaded serving tier runs every model's generator on that model's own
#: batcher thread, and two generators sharing one block buffer overwrote
#: each other's blocks.
_LOCAL = threading.local()


def _scratch() -> tuple[dict, weakref.WeakKeyDictionary]:
    """The calling thread's ``(named buffers, padded windows per plan)``."""
    try:
        return _LOCAL.scratch
    except AttributeError:
        _LOCAL.scratch = ({}, weakref.WeakKeyDictionary())
        return _LOCAL.scratch


def clear_workspaces() -> None:
    """Drop the calling thread's scratch buffers (benchmark cold starts)."""
    _LOCAL.__dict__.pop("scratch", None)


def _ws(ws: dict | None, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """A reusable named scratch array of ``shape``/``dtype``.

    Buffers are kept flat and sliced, so one buffer serves both full and
    partial (tail) blocks; they persist across blocks, calls, and layers
    (``ws=None`` selects the calling thread's pool).
    """
    if ws is None:
        ws = _scratch()[0]
    size = prod(shape)
    buf = ws.get(name)
    if buf is None or buf.dtype != dtype or buf.size < size:
        buf = np.empty(max(size, 1), dtype)
        ws[name] = buf
    return buf[:size].reshape(shape)


def _pad_spatial(x: np.ndarray, padding: int) -> np.ndarray:
    if padding <= 0:
        return x
    width = ((0, 0), (0, 0)) + ((padding, padding),) * (x.ndim - 2)
    return np.pad(x, width, mode="constant")


def _padded_windows(plan: ConvPlan, b: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """``(core, windows)`` of the plan's padded block buffer, for ``b`` records.

    Each (plan, dtype) owns one zero-padded buffer per thread, sized to the
    largest block seen.  Its padding ring is zeroed once, at allocation;
    callers overwrite only the ``core`` (the unpadded interior), so the
    ring stays zero.  The strided window view ``(b, C, *out, k[, k])`` is
    built once per buffer and sliced per block.  The buffers hang off the
    plan weakly, so the plan LRU bounds their memory.
    """
    per_plan = _scratch()[1].setdefault(plan, {})
    entry = per_plan.get(dtype)
    if entry is None or entry[0].shape[0] < b:
        pad = np.zeros((b, plan.channels, *plan.padded_spatial), dtype)
        spatial_axes = tuple(range(2, pad.ndim))
        windows = sliding_window_view(
            pad, (plan.kernel,) * len(spatial_axes), axis=spatial_axes
        )[(slice(None), slice(None)) + (slice(None, None, plan.stride),)
          * len(spatial_axes)]
        entry = per_plan[dtype] = (pad[plan.unpad_slices], windows)
    core, windows = entry
    return core[:b], windows[:b]


# ----------------------------------------------------------------------
# Blocked gather / scatter primitives (rank-generic).
# ----------------------------------------------------------------------

def _gather_block(x: np.ndarray, plan: ConvPlan, start: int, stop: int,
                  out2: np.ndarray) -> None:
    """Unfold items ``[start, stop)`` of ``x`` into ``out2`` ((b*P, rows)).

    The single data copy per block is the strided write of the
    window view into ``out2``.
    """
    windows = _windows_block(x, plan, start, stop)
    b = stop - start
    kernel = plan.kernel
    if x.ndim == 4:
        view = out2.reshape(b, *plan.out, plan.channels, kernel, kernel)
        np.copyto(view, windows.transpose(0, 2, 3, 1, 4, 5))
    else:
        view = out2.reshape(b, plan.out[0], plan.channels, kernel)
        np.copyto(view, windows.transpose(0, 2, 1, 3))


def _windows_block(x: np.ndarray, plan: ConvPlan, start: int, stop: int):
    """Strided window view over items ``[start, stop)`` of ``x``.

    Returns ``(b, C, *out, k[, k])``.  Padding goes through the plan's own
    padded buffer (:func:`_padded_windows`), so no full-batch padded copy
    is ever materialized and no call re-zeroes a ring or rebuilds a view.
    """
    xb = x[start:stop]
    if plan.padding:
        core, windows = _padded_windows(plan, stop - start, x.dtype)
        core[...] = xb
        return windows
    kernel, stride = plan.kernel, plan.stride
    if x.ndim == 4:
        return sliding_window_view(
            xb, (kernel, kernel), axis=(2, 3)
        )[:, :, ::stride, ::stride]  # (b, C, out_h, out_w, k, k)
    return sliding_window_view(xb, kernel, axis=2)[:, :, ::stride]


def _gather_block_t(x: np.ndarray, plan: ConvPlan, start: int, stop: int,
                    cols_t: np.ndarray) -> None:
    """Unfold items ``[start, stop)`` of ``x`` into ``cols_t`` ((rows, P*b)).

    The engine-internal transposed block layout: column index ``(p, n)``,
    position-major within the block — the orientation whose gather copy
    and scatter slices vectorize best (long batch-contiguous runs), and
    the one the blocked GEMMs consume/produce without reordering.
    """
    windows = _windows_block(x, plan, start, stop)
    b = stop - start
    kernel = plan.kernel
    if x.ndim == 4:
        view = cols_t.reshape(plan.channels, kernel, kernel, *plan.out, b)
        np.copyto(view, windows.transpose(1, 4, 5, 2, 3, 0))
    else:
        view = cols_t.reshape(plan.channels, kernel, plan.out[0], b)
        np.copyto(view, windows.transpose(1, 3, 2, 0))


def _scatter_overlapping(cols_t: np.ndarray, plan: ConvPlan,
                         acc: np.ndarray) -> None:
    """Strided accumulation of a block's transposed patch matrix, one pass
    per parity group.

    ``cols_t`` is ``(rows, P*b)`` — column index ``(p, n)``,
    position-major *within the block* — and ``acc`` the batch-innermost
    accumulator ``(C, *plan.scatter_spatial, b)``, so every pass writes
    slabs whose innermost axis is the contiguous batch run.  The kernel
    offsets of one parity group (``plan.offset_groups``) write pairwise
    disjoint cells, so one strided pass per group — per pair of groups in
    2-D, 4 passes instead of 16 for kernel 4, stride 2 — adds them all:
    the group's target cells viewed as ``(C, out, cnt[, out, cnt], b)``
    take the matching kernel-offset slab of ``cols_t``.  Group 0 (offsets
    below ``stride``) tiles the leading ``stride*out`` subgrid, so its
    pass *assigns* instead of read-modify-writing — the caller only zeroes
    the trailing border no group-0 offset reaches.  Groups run in
    ascending order, which accumulates every cell's overlapping
    contributions in ascending kernel-offset order: the per-cell order of
    the reference ``np.add.at``, keeping float sums bit-identical to the
    oracle in every dtype.
    """
    kernel, stride = plan.kernel, plan.stride
    channels, b = plan.channels, acc.shape[-1]
    groups = plan.offset_groups
    if len(plan.spatial) == 2:
        oh, ow = plan.out
        view = cols_t.reshape(channels, kernel, kernel, oh, ow, b)
        for mi, ci in groups:
            rows = slice(mi * stride, (mi + oh) * stride)
            for mj, cj in groups:
                # Splitting an axis in two is always a view: writes land.
                cells = acc[:, rows, mj * stride: (mj + ow) * stride].reshape(
                    channels, oh, stride, ow, stride, b
                )[:, :, :ci, :, :cj]
                slab = view[:, mi * stride: mi * stride + ci,
                            mj * stride: mj * stride + cj].transpose(0, 3, 1, 4, 2, 5)
                if mi == mj == 0:
                    cells[...] = slab
                else:
                    cells += slab
    else:
        (ol,) = plan.out
        view = cols_t.reshape(channels, kernel, ol, b)
        for m, cnt in groups:
            cells = acc[:, m * stride: (m + ol) * stride].reshape(
                channels, ol, stride, b
            )[:, :, :cnt]
            slab = view[:, m * stride: m * stride + cnt].transpose(0, 2, 1, 3)
            if m == 0:
                cells[...] = slab
            else:
                cells += slab


def _scatter_block(cols_t: np.ndarray, plan: ConvPlan, out: np.ndarray,
                   start: int, stop: int, ws: dict) -> None:
    """Fold a block's transposed patch matrix into ``out[start:stop]``.

    ``cols_t`` is ``(rows, P*b)`` with position-major-within-block
    columns — the layout the blocked GEMMs produce directly.  Writes
    every cell of the target slice, so ``out`` may be uninitialized.
    """
    b = stop - start
    positions = plan.n_positions
    if not plan.overlapping:
        # stride >= kernel: scatter targets are disjoint, no accumulation
        # needed — one fancy-index assignment per block, staying in dtype.
        if plan.padding:
            buf = _ws(ws, "scatter", (b, plan.channels, *plan.padded_spatial),
                      cols_t.dtype)
        else:
            buf = out[start:stop]
        buf[...] = 0
        flat = buf.reshape(b, plan.padded_item_size)
        flat[:, plan.scatter_index] = cols_t.reshape(
            plan.rows, positions, b
        ).transpose(2, 1, 0)
        if plan.padding:
            out[start:stop] = buf[plan.unpad_slices]
        return
    out[start:stop] = np.moveaxis(_scatter_acc(cols_t, plan, b, ws), -1, 0)


def _scatter_acc(cols_t: np.ndarray, plan: ConvPlan, b: int,
                 ws: dict | None) -> np.ndarray:
    """Overlapping fold of a ``b``-record block into the scatter workspace.

    Returns the unpadded cells of the batch-innermost accumulator, a
    strided ``(C, *plan.spatial, b)`` view that the next block overwrites.
    """
    acc = _ws(ws, "scatter", (plan.channels, *plan.scatter_spatial, b),
              cols_t.dtype)
    # Parity group 0 assigns the leading [0, stride*out) subgrid, so only
    # the trailing border (cells no group-0 offset reaches) needs zeroing.
    stride = plan.stride
    if len(plan.spatial) == 2:
        acc[:, stride * plan.out[0]:, :, :] = 0
        acc[:, : stride * plan.out[0], stride * plan.out[1]:, :] = 0
    else:
        acc[:, stride * plan.out[0]:, :] = 0
    _scatter_overlapping(cols_t, plan, acc)
    return acc[(slice(None),) + plan.unpad_slices[2:] + (slice(None),)]


# ----------------------------------------------------------------------
# Public im2col / col2im (batch-major layout; oracle dispatch adapts).
# ----------------------------------------------------------------------

def im2col(x: np.ndarray, kernel: int, padding: int, stride: int) -> np.ndarray:
    """Unfold ``x`` (N, C, H, W) or (N, C, L) into a batch-major patch matrix.

    Returns ``(N*H_out*W_out, C*kernel*kernel)`` for 4-D input and
    ``(N*L_out, C*kernel)`` for 3-D input; rows are flattened receptive
    fields ordered batch-major (patch ``(n, p)`` is row ``n*P + p``).  The
    input dtype is preserved.  Under :func:`reference_ops` the oracle
    computes in the seed layout and the result is adapted back, so the
    public layout is mode-independent.
    """
    if x.ndim not in (3, 4):
        raise ValueError(f"expected (N, C, L) or (N, C, H, W) input, got {x.shape}")
    if _USE_REFERENCE:
        if x.ndim == 4:
            ref = _reference_im2col(x, kernel, padding, stride)
        else:
            ref = _reference_im2col_1d(x, kernel, padding, stride)
        return cols_from_reference(ref, x.shape[0])
    plan = conv_plan(x.shape, kernel, padding, stride)
    batch = x.shape[0]
    cols = np.empty(plan.cols_shape(batch), dtype=x.dtype)
    block = plan.batch_block(x.dtype.itemsize)
    positions = plan.n_positions
    for start in range(0, batch, block):
        stop = min(start + block, batch)
        _gather_block(x, plan, start, stop,
                      cols[start * positions: stop * positions])
    return cols


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, ...],
    kernel: int,
    padding: int,
    stride: int,
) -> np.ndarray:
    """Fold a batch-major patch matrix back into an image, accumulating overlaps.

    ``cols`` has the shape produced by :func:`im2col` for ``x_shape`` and
    the result has shape ``x_shape``.  This is the exact adjoint of
    :func:`im2col` and therefore also the forward pass of a transposed
    convolution.  The dtype of ``cols`` is preserved.
    """
    if len(x_shape) not in (3, 4):
        raise ValueError(f"expected (N, C, L) or (N, C, H, W) shape, got {x_shape}")
    batch = int(x_shape[0])
    if _USE_REFERENCE:
        ref_cols = cols_to_reference(cols, batch)
        if len(x_shape) == 4:
            return _reference_col2im(ref_cols, x_shape, kernel, padding, stride)
        return _reference_col2im_1d(ref_cols, x_shape, kernel, padding, stride)
    plan = conv_plan(x_shape, kernel, padding, stride)
    if cols.shape != plan.cols_shape(batch):
        raise ValueError(
            f"cols shape {cols.shape} does not match plan "
            f"{plan.cols_shape(batch)} for x_shape={tuple(x_shape)}"
        )
    out = np.empty(x_shape, dtype=cols.dtype)
    block = plan.batch_block(cols.dtype.itemsize)
    ws = None
    positions = plan.n_positions
    for start in range(0, batch, block):
        stop = min(start + block, batch)
        b = stop - start
        # The scatter consumes the transposed block (rows, P*b); the
        # blocked GEMM callers produce that layout directly, the public
        # API pays one block-local (cache-resident) transpose.
        cols_t = _ws(ws, "cols_t", (plan.rows, positions * b), cols.dtype)
        cols_t.reshape(plan.rows, positions, b)[...] = (
            cols[start * positions: stop * positions]
            .reshape(b, positions, plan.rows).transpose(2, 1, 0)
        )
        _scatter_block(cols_t, plan, out, start, stop, ws)
    return out


# ----------------------------------------------------------------------
# Blocked GEMM entry points for the conv layers.  Each loops over batch
# blocks, reusing the caller-owned workspace dict across blocks and calls.
# ----------------------------------------------------------------------

def conv_gemm_forward(x: np.ndarray, w_mat: np.ndarray, plan: ConvPlan,
                      ws: dict, cache_cols: bool, bias: np.ndarray | None = None,
                      cache_ws: dict | None = None):
    """Blocked convolution forward: gather + GEMM per batch block.

    ``w_mat`` is ``(C_out, rows)``; ``bias`` (per output channel) is added
    to each cache-hot GEMM block instead of in a full-tensor pass.
    Returns ``(out, blocks)`` where
    ``out`` is the **contiguous** ``(N, C_out, *out_spatial)`` activation
    (written block-wise through a cache-resident unpack, so ``Flatten``
    downstream is a view) and ``blocks`` is the list of gathered
    ``(start, stop, cols_t)`` patch-matrix blocks when ``cache_cols``
    (training replays exactly these blocks in the weight-gradient GEMM),
    else ``None`` — inference streams blocks through one reused workspace
    and never materializes the full patch matrix.  The cached blocks are
    carved out of one persistent buffer in ``cache_ws`` (the layer owns
    it), so steady-state training epochs stop paying a multi-megabyte
    allocate/page-zero cycle per forward.
    """
    batch = x.shape[0]
    c_out = w_mat.shape[0]
    positions = plan.n_positions
    blocks: list | None = None
    if cache_cols:
        blocks = []
        cache_flat = _ws(cache_ws if cache_ws is not None else ws,
                         "cols_cache", (plan.rows * positions * batch,),
                         x.dtype)
    block = min(plan.batch_block(x.dtype.itemsize), max(batch, 1))
    out = np.empty((batch, c_out, *plan.out), dtype=x.dtype)
    out3 = out.reshape(batch, c_out, positions)
    for start in range(0, batch, block):
        stop = min(start + block, batch)
        b = stop - start
        if cache_cols:
            cols_t = cache_flat[
                plan.rows * positions * start: plan.rows * positions * stop
            ].reshape(plan.rows, positions * b)
            blocks.append((start, stop, cols_t))
        else:
            cols_t = _ws(ws, "cols_t", (plan.rows, positions * b), x.dtype)
        _gather_block_t(x, plan, start, stop, cols_t)
        t = _ws(ws, "gemm_out", (c_out, positions * b), x.dtype)
        np.matmul(w_mat, cols_t, out=t)
        if bias is not None:
            t += bias[:, None]
        # Unpack (C_out, (p, n)) -> (n, C_out, p): block-local, cache-hot.
        out3[start:stop] = t.reshape(c_out, positions, b).transpose(2, 0, 1)
    return out, blocks


def conv_gemm_backward(grad_mat: np.ndarray, blocks: list,
                       w_mat: np.ndarray, x_shape: tuple[int, ...],
                       plan: ConvPlan, ws: dict):
    """Blocked convolution backward: weight-gradient and input-gradient.

    ``grad_mat`` is the batch-major matricization ``(N, C_out, P)`` of the
    output gradient — a *view* of the NCHW gradient, never a copy; the
    only reordering is one block-sized, cache-resident pack per block
    (the seed layout transposed the *whole* gradient batch-last here).
    ``blocks`` is the ``(start, stop, cols_t)`` list the forward cached.
    Returns ``(wgrad, dx)`` with ``wgrad`` of shape ``(C_out, rows)`` and
    ``dx`` of shape ``x_shape``.
    """
    batch, c_out, positions = grad_mat.shape
    dtype = grad_mat.dtype
    wgrad = np.zeros((c_out, plan.rows), dtype=dtype)
    dx = np.empty(x_shape, dtype=dtype)
    for start, stop, cols_t in blocks:
        b = stop - start
        # One scatter-ordered pack of the gradient block, (C_out, (p, n)),
        # shared by the weight GEMM (against the cached block, whose
        # columns are in the same order) and the input-gradient GEMM
        # (whose output feeds the scatter with no further reordering).
        pk = _ws(ws, "pack", (c_out, positions * b), dtype)
        pk.reshape(c_out, positions, b)[...] = (
            grad_mat[start:stop].transpose(1, 2, 0)
        )
        wgrad += pk @ cols_t.T
        dcols_t = _ws(ws, "dcols_t", (plan.rows, positions * b), dtype)
        np.matmul(w_mat.T, pk, out=dcols_t)
        _scatter_block(dcols_t, plan, dx, start, stop, ws)
    return wgrad, dx


def fold_gemm_forward(x_mat: np.ndarray, w_mat: np.ndarray,
                      out_shape: tuple[int, ...], plan: ConvPlan,
                      ws: dict, bias: np.ndarray | None = None) -> np.ndarray:
    """Blocked transposed-convolution forward: GEMM + scatter per block.

    ``x_mat`` is the batch-major matricization ``(N, C_in, P)`` of the
    layer input — a *view* (the generator-input matricization of ISSUE 4);
    ``w_mat`` is ``(C_in, rows)``; ``plan`` describes ``out_shape`` (whose
    conv output positions are exactly the input's spatial grid).  Streams
    blocks through one reused workspace — the full patch matrix is never
    materialized, which is what keeps large-batch generator forwards in
    cache.
    """
    batch, c_in, positions = x_mat.shape
    dtype = x_mat.dtype
    out = np.empty(out_shape, dtype=dtype)
    block = min(plan.batch_block(dtype.itemsize), max(batch, 1))
    for start in range(0, batch, block):
        stop = min(start + block, batch)
        b = stop - start
        # Pack the input block scatter-ordered, (C_in, (p, n)), so the
        # GEMM output feeds the scatter with no further reordering.
        pk = _ws(ws, "pack", (c_in, positions * b), dtype)
        pk.reshape(c_in, positions, b)[...] = x_mat[start:stop].transpose(1, 2, 0)
        cols_t = _ws(ws, "cols_t", (plan.rows, positions * b), dtype)
        np.matmul(w_mat.T, pk, out=cols_t)
        _scatter_block(cols_t, plan, out, start, stop, ws)
        if bias is not None:
            # Per-block add while the freshly scattered slice is cache-hot.
            out[start:stop] += bias.reshape(
                (1, -1) + (1,) * (len(out_shape) - 2)
            )
    return out


def fold_gemm_infer(x: np.ndarray, w_mat: np.ndarray, plan: ConvPlan,
                    bias: np.ndarray | None, out: np.ndarray) -> None:
    """Transposed-convolution inference in the channel-major layout.

    ``x`` is the contiguous ``(C_in, P, N)`` input, batch innermost —
    exactly the pack buffer :func:`fold_gemm_forward` builds from a
    batch-major input, so with the same blocks it makes the same GEMM call
    on the same shapes and the same scatter adds in the same order, and
    adds ``bias`` after the tap sum: bit-identical to it.  ``out`` is any
    ``(C_out, *plan.spatial, N)`` view (channel-major for the next layer,
    or a batch-major array's ``moveaxis(out, 0, -1)``); every cell of it
    is written.  Needs overlapping windows (``stride < kernel``).
    """
    c_in, positions, batch = x.shape
    block = min(plan.batch_block(x.dtype.itemsize), max(batch, 1))
    if bias is not None:
        bias = bias.reshape((-1,) + (1,) * (out.ndim - 1))
    for start in range(0, batch, block):
        stop = min(start + block, batch)
        b = stop - start
        if b == batch:
            pk = x.reshape(c_in, positions * b)
        else:
            pk = _ws(None, "pack", (c_in, positions * b), x.dtype)
            pk.reshape(c_in, positions, b)[...] = x[:, :, start:stop]
        cols_t = _ws(None, "cols_t", (plan.rows, positions * b), x.dtype)
        np.matmul(w_mat.T, pk, out=cols_t)
        core = _scatter_acc(cols_t, plan, b, None)
        if bias is None:
            out[..., start:stop] = core
        else:
            np.add(core, bias, out=out[..., start:stop])


def unfold_gemm_backward(grad: np.ndarray, x_mat: np.ndarray,
                         w_mat: np.ndarray, plan: ConvPlan, ws: dict):
    """Blocked transposed-convolution backward.

    ``grad`` is the NCHW output gradient (the image side of the plan),
    ``x_mat`` the cached batch-major input matricization ``(N, C_in, P)``.
    Gathers ``grad`` patches block-wise (streamed), computes the input
    gradient ``dx = (N, C_in, *in_spatial)`` and the weight gradient
    ``(C_in, rows)``, reusing one gather per block for both GEMMs.
    """
    batch, c_in, positions = x_mat.shape
    dtype = x_mat.dtype
    wgrad = np.zeros((c_in, plan.rows), dtype=dtype)
    block = min(plan.batch_block(dtype.itemsize), max(batch, 1))
    dx = np.empty((batch, c_in, *plan.out), dtype=dtype)
    dx3 = dx.reshape(batch, c_in, positions)
    for start in range(0, batch, block):
        stop = min(start + block, batch)
        b = stop - start
        cols_t = _ws(ws, "cols_t", (plan.rows, positions * b), dtype)
        _gather_block_t(grad, plan, start, stop, cols_t)
        t = _ws(ws, "gemm_out", (c_in, positions * b), dtype)
        np.matmul(w_mat, cols_t, out=t)
        dx3[start:stop] = t.reshape(c_in, positions, b).transpose(2, 0, 1)
        pk = _ws(ws, "pack", (c_in, positions * b), dtype)
        pk.reshape(c_in, positions, b)[...] = x_mat[start:stop].transpose(1, 2, 0)
        wgrad += pk @ cols_t.T
    return wgrad, dx


# ----------------------------------------------------------------------
# Reference oracle: the original implementations, kept verbatim (seed
# column layout: position-major, then batch).  They are the ground truth
# the fast engine is property-tested against — through the layout
# adapters above — and the baseline the engine benchmark measures
# speedups from.
# ----------------------------------------------------------------------

def im2col_indices(
    x_shape: tuple[int, int, int, int],
    kernel: int,
    padding: int,
    stride: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compute the (channel, row, col) gather indices for ``im2col``.

    Returns index arrays ``(k, i, j)`` such that
    ``padded_x[:, k, i, j]`` has shape ``(N, C*kernel*kernel, H_out*W_out)``.
    """
    _, channels, height, width = x_shape
    out_h = conv_output_size(height, kernel, padding, stride)
    out_w = conv_output_size(width, kernel, padding, stride)

    i0 = np.repeat(np.arange(kernel), kernel)
    i0 = np.tile(i0, channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel), kernel * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)

    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel * kernel).reshape(-1, 1)
    return k, i, j


def _reference_im2col(x: np.ndarray, kernel: int, padding: int,
                      stride: int) -> np.ndarray:
    """Fancy-index gather (the seed implementation of :func:`im2col`)."""
    k, i, j = im2col_indices(x.shape, kernel, padding, stride)
    x = _pad_spatial(x, padding)
    cols = x[:, k, i, j]
    channels_kk = cols.shape[1]
    return cols.transpose(1, 2, 0).reshape(channels_kk, -1)


def _reference_col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    padding: int,
    stride: int,
) -> np.ndarray:
    """Buffered ``np.add.at`` scatter (the seed implementation of :func:`col2im`)."""
    batch, channels, height, width = x_shape
    padded_h, padded_w = height + 2 * padding, width + 2 * padding
    x_padded = np.zeros((batch, channels, padded_h, padded_w), dtype=cols.dtype)

    k, i, j = im2col_indices(x_shape, kernel, padding, stride)
    cols_reshaped = cols.reshape(channels * kernel * kernel, -1, batch)
    cols_reshaped = cols_reshaped.transpose(2, 0, 1)
    np.add.at(x_padded, (slice(None), k, i, j), cols_reshaped)

    if padding == 0:
        return x_padded
    return x_padded[:, :, padding:-padding, padding:-padding]


def _reference_im2col_1d(x: np.ndarray, kernel: int, padding: int,
                         stride: int) -> np.ndarray:
    """Fancy-index gather over (N, C, L) (the seed ``_im2col_1d``)."""
    batch, channels, length = x.shape
    out_len = conv_output_size(length, kernel, padding, stride)
    x = _pad_spatial(x, padding)
    k = np.repeat(np.arange(channels), kernel).reshape(-1, 1)
    offsets = np.tile(np.arange(kernel), channels).reshape(-1, 1)
    starts = stride * np.arange(out_len).reshape(1, -1)
    cols = x[:, k, offsets + starts]  # (N, C*kernel, L_out)
    return cols.transpose(1, 2, 0).reshape(channels * kernel, -1)


def _reference_col2im_1d(cols: np.ndarray, x_shape: tuple[int, int, int],
                         kernel: int, padding: int, stride: int) -> np.ndarray:
    """``np.add.at`` scatter over (N, C, L) (the seed ``_col2im_1d``)."""
    batch, channels, length = x_shape
    out_len = conv_output_size(length, kernel, padding, stride)
    x_padded = np.zeros((batch, channels, length + 2 * padding), dtype=cols.dtype)
    k = np.repeat(np.arange(channels), kernel).reshape(-1, 1)
    offsets = np.tile(np.arange(kernel), channels).reshape(-1, 1)
    starts = stride * np.arange(out_len).reshape(1, -1)
    cols_reshaped = cols.reshape(channels * kernel, out_len, batch).transpose(2, 0, 1)
    np.add.at(x_padded, (slice(None), k, offsets + starts), cols_reshaped)
    if padding == 0:
        return x_padded
    return x_padded[:, :, padding:-padding]
