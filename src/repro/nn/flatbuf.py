"""Contiguous flat parameter buffers for fused optimizer updates.

An optimizer that walks a python list of :class:`~repro.nn.layers.Parameter`
objects pays the per-parameter overhead of every numpy call — ufunc
dispatch, temporary allocation, loop setup — dozens of times per step, per
network, per mini-batch.  table-GAN trains three Adam-driven networks, so
that overhead is paid in triplicate.

A :class:`FlatParameterBuffer` removes it structurally: all parameters of a
network are materialized as *views* into one contiguous 1-D buffer per
dtype (one for data, one for gradients).  Layers keep accumulating
gradients through their usual ``param.grad += ...`` in-place ops — those
writes land directly in the flat gradient buffer — and the optimizer
updates every parameter of the network with a handful of whole-buffer
in-place ufuncs instead of a python loop (see :mod:`repro.nn.optim`).

Because a whole-buffer elementwise op performs exactly the same scalar
operations as the per-parameter loop (no reductions are involved), the
fused update is **bit-identical** to the per-parameter reference in every
dtype; the equivalence tests in ``tests/nn/test_flatbuf.py`` and
``tests/nn/test_optim.py`` pin that down.

Networks built by :mod:`repro.core.networks` use a single compute dtype
(``TableGanConfig.dtype``), so in practice one network means one buffer
pair; the per-dtype grouping keeps the container correct for mixed-dtype
parameter lists.

Each parameter points at its buffer (``Parameter.flat_buffer``), and the
buffer reaches its parameters only through weak references.  So nothing
forms a reference cycle: a dropped network frees its parameters and its
buffers at once, without waiting for the cyclic garbage collector.
Whoever steps the buffer (an optimizer) holds it, and its parameters,
strongly.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.nn.layers import Parameter


class _DtypeGroup:
    """All parameters of one dtype, viewing one (data, grad) buffer pair."""

    __slots__ = ("dtype", "data", "grad", "_params", "slices")

    def __init__(self, dtype: np.dtype, params: list[Parameter]):
        self.dtype = dtype
        self._params = [weakref.ref(p) for p in params]
        total = sum(p.data.size for p in params)
        self.data = np.empty(total, dtype=dtype)
        self.grad = np.empty(total, dtype=dtype)
        self.slices: list[slice] = []
        offset = 0
        for p in params:
            stop = offset + p.data.size
            view = slice(offset, stop)
            self.slices.append(view)
            p.bind_views(
                self.data[view].reshape(p.data.shape),
                self.grad[view].reshape(p.data.shape),
            )
            offset = stop

    def rebind(self, data: np.ndarray | None = None,
               grad: np.ndarray | None = None) -> None:
        """Move this group's storage onto externally owned 1-D arrays.

        Current values are copied into the new arrays and every
        parameter's views are re-pointed at them, so the move is
        invisible to training code.  Used to back the buffers with
        ``multiprocessing.shared_memory`` (and to move them off it again
        before the segment is closed).
        """
        for label, new in (("data", data), ("grad", grad)):
            if new is None:
                continue
            if new.shape != (self.data.size,) or new.dtype != self.dtype:
                raise ValueError(
                    f"{label} backing {new.shape}/{new.dtype} does not match "
                    f"group buffer ({self.data.size},)/{self.dtype}"
                )
        if data is not None:
            data[...] = self.data
            self.data = data
        if grad is not None:
            grad[...] = self.grad
            self.grad = grad
        for ref, view in zip(self._params, self.slices):
            p = ref()
            if p is not None:
                p.data = self.data[view].reshape(p.data.shape)
                p.grad = self.grad[view].reshape(p.data.shape)


class FlatParameterBuffer:
    """Materialize parameters as views into contiguous per-dtype buffers.

    Construction rebinds each parameter's ``data`` and ``grad`` (via
    :meth:`Parameter.bind_views`) to slices of shared 1-D buffers,
    preserving current values.  From then on the parameters and the
    buffers alias the same memory: layer backward passes accumulate into
    the flat gradient buffer, and whole-buffer updates applied to
    ``group.data`` are immediately visible through every ``param.data``.

    Parameters
    ----------
    params:
        The parameters to flatten.  Must be non-empty and free of
        duplicates (flattening the same parameter twice into one buffer
        would double-count its update).
    """

    def __init__(self, params: list[Parameter]):
        params = list(params)
        if not params:
            raise ValueError("cannot flatten an empty parameter list")
        seen: set[int] = set()
        for p in params:
            if not isinstance(p, Parameter):
                raise TypeError(f"expected Parameter, got {type(p).__name__}")
            if id(p) in seen:
                raise ValueError(f"duplicate parameter in flatten list: {p!r}")
            if p.flat_buffer is not None:
                # Rebinding would silently orphan the first buffer: any
                # optimizer holding it would keep updating dead memory.
                raise ValueError(
                    f"parameter {p.name} is already materialized in a "
                    f"FlatParameterBuffer; reuse that buffer (e.g. via "
                    f"Sequential.flatten_parameters, which returns the "
                    f"existing one) instead of flattening again"
                )
            seen.add(id(p))
        self._params = [weakref.ref(p) for p in params]
        by_dtype: dict[np.dtype, list[Parameter]] = {}
        for p in params:
            by_dtype.setdefault(p.data.dtype, []).append(p)
        self.groups = [_DtypeGroup(dtype, ps) for dtype, ps in by_dtype.items()]
        for p in params:
            p.flat_buffer = self

    @property
    def params(self) -> list[Parameter]:
        """The flattened parameters that are still alive, in order."""
        return [p for p in (ref() for ref in self._params) if p is not None]

    @staticmethod
    def owner_of(params: list[Parameter]) -> "FlatParameterBuffer | None":
        """The buffer already holding exactly ``params``, if one exists.

        Returns the shared :class:`FlatParameterBuffer` when every
        parameter is bound to the same buffer and that buffer holds no
        others; ``None`` when the parameters are unbound.  A partial or
        mixed binding raises — those parameters cannot be flattened
        together correctly.
        """
        params = list(params)
        if not params or all(p.flat_buffer is None for p in params):
            return None
        owner = params[0].flat_buffer
        same_owner = all(p.flat_buffer is owner for p in params)
        if owner is None or not same_owner or set(map(id, owner.params)) != set(
            map(id, params)
        ):
            raise ValueError(
                "parameters are bound to different or partially overlapping "
                "FlatParameterBuffers and cannot be flattened together"
            )
        return owner

    @property
    def n_elements(self) -> int:
        """Total number of scalar parameters across all dtype groups."""
        return sum(group.data.size for group in self.groups)

    def zero_grad(self) -> None:
        """Zero every gradient with one memset per dtype buffer."""
        for group in self.groups:
            group.grad[...] = 0.0

    # ------------------------------------------------------------------
    # Shared-memory backing and broadcast/reduce primitives (the
    # data-parallel trainer's all-reduce unit; see repro.core.parallel).
    # ------------------------------------------------------------------
    def group_specs(self) -> list[tuple[np.dtype, int]]:
        """``(dtype, n_elements)`` per group, in group order.

        This is the layout contract for every externally allocated
        backing or exchange buffer: one 1-D array per group, matching
        dtype and length.
        """
        return [(group.dtype, group.data.size) for group in self.groups]

    def _check_buffers(self, buffers, label: str) -> list[np.ndarray]:
        buffers = list(buffers)
        specs = self.group_specs()
        if len(buffers) != len(specs):
            raise ValueError(
                f"expected {len(specs)} {label} buffers (one per dtype "
                f"group), got {len(buffers)}"
            )
        for buf, (dtype, size) in zip(buffers, specs):
            if buf.shape != (size,) or buf.dtype != dtype:
                raise ValueError(
                    f"{label} buffer {buf.shape}/{buf.dtype} does not match "
                    f"group layout ({size},)/{dtype}"
                )
        return buffers

    def rebind_storage(self, data_backing=None, grad_backing=None) -> None:
        """Move the flat buffers onto externally owned arrays, in place.

        ``data_backing`` / ``grad_backing`` are sequences of 1-D arrays
        matching :meth:`group_specs` — typically views into
        ``multiprocessing.shared_memory`` segments.  Values are preserved
        and every parameter keeps aliasing the (new) buffers, so
        optimizers and layers notice nothing.  Rebinding data onto a
        shared segment makes every weight update a zero-copy broadcast to
        all processes mapping the segment; gradients are normally left on
        private memory so concurrent backward passes cannot race.
        """
        data_backing = (None if data_backing is None
                        else self._check_buffers(data_backing, "data"))
        grad_backing = (None if grad_backing is None
                        else self._check_buffers(grad_backing, "grad"))
        for i, group in enumerate(self.groups):
            group.rebind(
                data=None if data_backing is None else data_backing[i],
                grad=None if grad_backing is None else grad_backing[i],
            )

    def export_data(self, buffers) -> None:
        """Copy the parameter values into per-group 1-D ``buffers``."""
        for group, buf in zip(self.groups, self._check_buffers(buffers, "data")):
            buf[...] = group.data

    def import_data(self, buffers) -> None:
        """Overwrite the parameter values from per-group 1-D ``buffers``."""
        for group, buf in zip(self.groups, self._check_buffers(buffers, "data")):
            group.data[...] = buf

    def export_grads(self, buffers, scale: float | None = None) -> None:
        """Copy the gradients into per-group ``buffers``, optionally scaled.

        ``scale`` is applied in the group dtype (a data-parallel worker
        publishes its shard gradient pre-weighted by its share of the
        global batch, so the reduction is a plain ordered sum).
        """
        for group, buf in zip(self.groups, self._check_buffers(buffers, "grad")):
            if scale is None:
                buf[...] = group.grad
            else:
                np.multiply(group.grad, group.dtype.type(scale), out=buf)

    def reduce_grads(self, shard_buffers) -> None:
        """All-reduce: overwrite the gradients with an *ordered* sum.

        ``shard_buffers`` is a sequence of per-shard buffer lists (each a
        :meth:`group_specs`-shaped list).  Accumulation runs strictly in
        shard-index order — floating-point addition is not associative,
        so this fixed order is what makes the data-parallel update a pure
        function of the shard decomposition, never of how many workers
        computed the shards or in which order they arrived.
        """
        shard_buffers = [self._check_buffers(b, "grad") for b in shard_buffers]
        if not shard_buffers:
            raise ValueError("reduce_grads needs at least one shard buffer")
        for i, group in enumerate(self.groups):
            acc = group.grad
            acc[...] = shard_buffers[0][i]
            for contrib in shard_buffers[1:]:
                acc += contrib[i]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        per_group = ", ".join(
            f"{group.dtype.name}:{group.data.size}" for group in self.groups
        )
        return (
            f"FlatParameterBuffer({len(self.params)} params, "
            f"{self.n_elements} elements, [{per_group}])"
        )
