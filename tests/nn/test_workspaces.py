"""The conv engine's scratch: per-thread buffers, per-plan padded windows,
and the parity-grouped overlapping scatter.

Padded windows are reused across calls, so they are tested across batch
sizes that grow and shrink the buffer, tail blocks, a dtype switch and a
call after :func:`clear_workspaces`, each against the retained oracle.
The scratch is per thread: generators running in concurrent threads must
produce exactly their serial outputs.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.networks import build_discriminator, build_generator
from repro.nn import im2col as engine
from repro.nn.im2col import (
    _reference_col2im,
    _reference_col2im_1d,
    _reference_im2col,
    _reference_im2col_1d,
    clear_workspaces,
    col2im,
    cols_from_reference,
    cols_to_reference,
    im2col,
)
from repro.nn.plan import conv_plan, set_workspace_budget, workspace_budget


@pytest.fixture
def restore_budget():
    previous = workspace_budget()
    yield
    set_workspace_budget(previous)


def _expected_cols(x, kernel, padding, stride):
    ref = (_reference_im2col if x.ndim == 4 else _reference_im2col_1d)(
        x, kernel, padding, stride)
    return cols_from_reference(ref, x.shape[0])


def _expected_image(cols, shape, kernel, padding, stride):
    ref = _reference_col2im if len(shape) == 4 else _reference_col2im_1d
    return ref(cols_to_reference(cols, shape[0]), shape, kernel, padding, stride)


class TestPaddedWindows:
    @pytest.mark.parametrize("shape", [(64, 3, 8, 8), (64, 2, 10)])
    def test_batch_sizes_grow_and_shrink_the_buffer(self, shape):
        """1 -> 63 -> 64 grows the plan's buffer twice, then 1 and 63
        reuse the largest one; every gather equals the oracle."""
        rng = np.random.default_rng(0)
        for batch in (1, 63, 64, 1, 63):
            x = rng.standard_normal((batch,) + shape[1:])
            assert np.array_equal(im2col(x, 4, 1, 2), _expected_cols(x, 4, 1, 2))

    def test_tail_blocks_under_a_tiny_budget(self, restore_budget):
        """Blocks of 3 records leave a tail of 1 from a batch of 64."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal((64, 3, 8, 8))
        plan = conv_plan(x.shape, 4, 1, 2)
        set_workspace_budget(3 * plan.n_positions * plan.rows * x.dtype.itemsize)
        assert plan.batch_block(x.dtype.itemsize) == 3
        assert np.array_equal(im2col(x, 4, 1, 2), _expected_cols(x, 4, 1, 2))

    def test_dtype_switch_between_calls(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((16, 3, 8, 8))
        for dtype in (np.float64, np.float32, np.float64, np.float32):
            x = base.astype(dtype)
            cols = im2col(x, 4, 1, 2)
            assert cols.dtype == dtype
            assert np.array_equal(cols, _expected_cols(x, 4, 1, 2))

    def test_call_after_clear_workspaces(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 3, 8, 8))
        first = im2col(x, 4, 1, 2)
        clear_workspaces()
        assert len(engine._scratch()[1]) == 0
        assert np.array_equal(im2col(x, 4, 1, 2), first)
        assert np.array_equal(first, _expected_cols(x, 4, 1, 2))

    def test_padding_ring_stays_zero_across_calls(self):
        """A large-valued batch must not leak into a later gather's ring."""
        rng = np.random.default_rng(4)
        im2col(np.full((32, 3, 8, 8), 1e6), 4, 1, 2)
        x = rng.standard_normal((32, 3, 8, 8))
        assert np.array_equal(im2col(x, 4, 1, 2), _expected_cols(x, 4, 1, 2))

    def test_clear_workspaces_leaves_other_threads_alone(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 3, 8, 8))
        clear_workspaces()
        im2col(x, 4, 1, 2)
        mine = engine._scratch()
        worker = threading.Thread(target=clear_workspaces)
        worker.start()
        worker.join()
        assert engine._scratch() is mine
        assert len(mine[1]) == 1


# (shape, kernel, padding, stride): kernel 4 / stride 2 has two full parity
# groups per axis, kernel 3 / stride 2 a partial last group, and kernel 2 /
# stride 2 does not overlap at all.
SCATTER_GEOMETRIES = [
    ((5, 3, 8, 8), 4, 1, 2),
    ((5, 3, 9, 9), 3, 1, 2),
    ((5, 3, 8, 8), 2, 0, 2),
    ((5, 3, 8), 4, 1, 2),
    ((5, 3, 9), 3, 0, 2),
]


class TestGroupedScatter:
    @pytest.mark.parametrize("shape,kernel,padding,stride", SCATTER_GEOMETRIES)
    def test_col2im_equals_reference_float64(self, shape, kernel, padding,
                                             stride):
        """The grouped passes accumulate each cell in ascending kernel-offset
        order, so float64 sums equal ``np.add.at``'s exactly."""
        rng = np.random.default_rng(6)
        plan = conv_plan(shape, kernel, padding, stride)
        cols = rng.standard_normal(plan.cols_shape(shape[0]))
        assert np.array_equal(col2im(cols, shape, kernel, padding, stride),
                              _expected_image(cols, shape, kernel, padding, stride))

    @pytest.mark.parametrize("shape,kernel,padding,stride",
                             [g for g in SCATTER_GEOMETRIES if g[1] > g[3]])
    def test_stale_scratch_never_reaches_the_output(self, shape, kernel,
                                                    padding, stride):
        """The scatter zeroes only its accumulator's trailing border, so
        group 0 must assign every other cell: NaN left in the scratch by an
        earlier call must not survive."""
        rng = np.random.default_rng(7)
        plan = conv_plan(shape, kernel, padding, stride)
        batch = shape[0]
        cols = rng.standard_normal(plan.cols_shape(batch))
        cols_t = cols.reshape(batch, plan.n_positions, plan.rows).transpose(
            2, 1, 0).reshape(plan.rows, -1)
        acc_size = plan.channels * np.prod(plan.scatter_spatial) * batch
        out = np.empty(shape)
        engine._scatter_block(cols_t, plan, out, 0, batch,
                              {"scatter": np.full(acc_size, np.nan)})
        assert np.array_equal(out, _expected_image(cols, shape, kernel,
                                                   padding, stride))


class TestThreadScratch:
    def test_generators_in_threads_match_serial(self):
        """Each served model runs its generator on its own thread; with one
        scratch pool shared by all threads, concurrent forwards overwrote
        each other's blocks.  Three threads (more than a small CI box has
        cores) and a short switch interval make interleaving likely."""
        models = [
            (build_generator(8, 16, 16, rng=seed, dtype=np.float32),
             build_discriminator(8, 16, rng=seed, dtype=np.float32))
            for seed in (1, 2, 3)
        ]
        rng = np.random.default_rng(8)
        latents = [[rng.standard_normal((512, 16)).astype(np.float32)
                    for _ in range(8)] for _ in models]

        def run(model, zs):
            generator, discriminator = model
            outs = []
            for z in zs:
                fake = generator.stream_forward(z)
                outs.append((fake, discriminator.forward(fake, training=False)))
            return outs

        serial = [run(model, zs) for model, zs in zip(models, latents)]
        threaded = [None] * len(models)
        start = threading.Barrier(len(models))

        def worker(i):
            start.wait(timeout=30)
            threaded[i] = run(models[i], latents[i])

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(models))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(threaded, serial):
            assert got is not None
            for (fake, logits), (want_fake, want_logits) in zip(got, want):
                assert np.array_equal(fake, want_fake)
                assert np.array_equal(logits, want_logits)
