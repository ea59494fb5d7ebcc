"""A from-scratch numpy deep-learning framework.

This subpackage is the substrate replacing TensorFlow in the paper's
implementation: strided convolutions, transposed convolutions, batch
normalization, DCGAN initialization, Adam — everything table-GAN's three
networks need, with explicit per-layer backward rules.

Every hot path ships as a fast kernel paired with a retained reference
oracle (see ``docs/architecture.md``): im2col/col2im in
:mod:`repro.nn.im2col`, fused BatchNorm in :mod:`repro.nn.batchnorm`, and
the fused flat-buffer optimizers in :mod:`repro.nn.optim`.  The
:func:`reference_kernels` context manager flips every dispatch to the
oracles at once — that is how the engine benchmark times the seed idioms
against the engine on identical workloads.
"""

from contextlib import contextmanager

from repro.nn.activations import LeakyReLU, ReLU, Sigmoid, Tanh
from repro.nn.batchnorm import BatchNorm, reference_batchnorm
from repro.nn.conv import Conv1D, Conv2D, ConvTranspose1D, ConvTranspose2D
from repro.nn.flatbuf import FlatParameterBuffer
from repro.nn.im2col import cols_from_reference, cols_to_reference, reference_ops
from repro.nn.layers import Dense, Flatten, Layer, Parameter, Reshape
from repro.nn.losses import bce_with_logits, hinge_threshold, l1, mse, sigmoid
from repro.nn.optim import SGD, Adam, Optimizer, reference_optimizers
from repro.nn.plan import (
    ConvPlan,
    clear_plan_cache,
    conv_plan,
    plan_cache_info,
    set_workspace_budget,
    workspace_budget,
)
from repro.nn.sequential import Sequential
from repro.nn.serialization import (
    atomic_savez,
    load_npz,
    load_state_dict,
    save_npz,
    state_dict,
)


@contextmanager
def reference_kernels():
    """Force every fast-kernel dispatch onto the retained reference oracles.

    Combines :func:`repro.nn.im2col.reference_ops` (fancy-index gather +
    ``np.add.at`` scatter), :func:`repro.nn.batchnorm.reference_batchnorm`
    (separate mean/var passes, un-fused backward), and
    :func:`repro.nn.optim.reference_optimizers` (per-parameter update
    loops for optimizers constructed inside the context).
    """
    with reference_ops(), reference_batchnorm(), reference_optimizers():
        yield

__all__ = [
    "ConvPlan",
    "conv_plan",
    "plan_cache_info",
    "clear_plan_cache",
    "workspace_budget",
    "set_workspace_budget",
    "cols_to_reference",
    "cols_from_reference",
    "Layer",
    "Parameter",
    "FlatParameterBuffer",
    "Dense",
    "Flatten",
    "Reshape",
    "Conv2D",
    "ConvTranspose2D",
    "Conv1D",
    "ConvTranspose1D",
    "BatchNorm",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "Sequential",
    "SGD",
    "Adam",
    "Optimizer",
    "reference_ops",
    "reference_batchnorm",
    "reference_optimizers",
    "reference_kernels",
    "bce_with_logits",
    "mse",
    "l1",
    "hinge_threshold",
    "sigmoid",
    "state_dict",
    "load_state_dict",
    "save_npz",
    "load_npz",
    "atomic_savez",
]
