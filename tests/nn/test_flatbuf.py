"""FlatParameterBuffer: view aliasing, dtype grouping, optimizer interplay."""

import gc
import weakref

import numpy as np
import pytest

from repro import TableGAN
from repro.nn import Adam, Dense, FlatParameterBuffer, Sequential
from repro.nn.layers import Parameter


def make_params(dtype=np.float64):
    rng = np.random.default_rng(0)
    return [
        Parameter(rng.standard_normal((3, 4)).astype(dtype), "w"),
        Parameter(rng.standard_normal((4,)).astype(dtype), "b"),
        Parameter(rng.standard_normal((2, 2, 2)).astype(dtype), "k"),
    ]


class TestFlattening:
    def test_values_preserved(self):
        params = make_params()
        before = [p.data.copy() for p in params]
        FlatParameterBuffer(params)
        for p, old in zip(params, before):
            assert np.array_equal(p.data, old)

    def test_grads_preserved(self):
        params = make_params()
        params[0].grad += 3.0
        FlatParameterBuffer(params)
        assert np.all(params[0].grad == 3.0)
        assert np.all(params[1].grad == 0.0)

    def test_params_view_the_buffer(self):
        params = make_params()
        flat = FlatParameterBuffer(params)
        (group,) = flat.groups
        # Writing the buffer is visible through every parameter...
        group.data[...] = 7.0
        for p in params:
            assert np.all(p.data == 7.0)
        # ...and parameter writes land in the buffer.
        params[0].data[...] = -1.0
        assert np.all(group.data[group.slices[0]] == -1.0)

    def test_gradient_accumulation_lands_in_buffer(self):
        params = make_params()
        flat = FlatParameterBuffer(params)
        params[1].grad += 5.0
        (group,) = flat.groups
        assert np.all(group.grad[group.slices[1]] == 5.0)

    def test_zero_grad_zeroes_views(self):
        params = make_params()
        flat = FlatParameterBuffer(params)
        for p in params:
            p.grad += 2.0
        flat.zero_grad()
        for p in params:
            assert np.all(p.grad == 0.0)

    def test_n_elements(self):
        flat = FlatParameterBuffer(make_params())
        assert flat.n_elements == 12 + 4 + 8

    def test_dtype_grouping(self):
        p32 = Parameter(np.ones(3, dtype=np.float32), "a")
        p64 = Parameter(np.ones(2, dtype=np.float64), "b")
        flat = FlatParameterBuffer([p32, p64])
        assert len(flat.groups) == 2
        assert {g.dtype for g in flat.groups} == {np.dtype(np.float32),
                                                 np.dtype(np.float64)}
        assert p32.data.dtype == np.float32
        assert p64.data.dtype == np.float64

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError, match="empty"):
            FlatParameterBuffer([])
        p = Parameter(np.ones(2))
        with pytest.raises(ValueError, match="duplicate"):
            FlatParameterBuffer([p, p])

    def test_bind_views_rejects_mismatch(self):
        p = Parameter(np.ones((2, 2)))
        with pytest.raises(ValueError, match="does not match"):
            p.bind_views(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="does not match"):
            p.bind_views(np.zeros((2, 2), dtype=np.float32),
                         np.zeros((2, 2), dtype=np.float32))


class TestSequentialIntegration:
    def test_flatten_parameters_round_trip(self, rng):
        net = Sequential([Dense(5, 4, rng=1), Dense(4, 2, rng=2)])
        x = rng.standard_normal((8, 5))
        expected = net.forward(x)
        flat = net.flatten_parameters()
        assert flat.params == net.parameters()
        # Forward through the views is unchanged.
        assert np.array_equal(net.forward(x), expected)

    def test_training_through_views_matches_unflattened(self, rng):
        """A full fit through buffer views equals the never-flattened run."""
        def run(flatten):
            net = Sequential([Dense(5, 4, rng=1), Dense(4, 2, rng=2)])
            opt = (Adam(net.flatten_parameters(), lr=1e-3) if flatten
                   else Adam(net.parameters(), lr=1e-3, fused=False))
            data_rng = np.random.default_rng(7)
            x = data_rng.standard_normal((16, 5))
            y = data_rng.standard_normal((16, 2))
            for _ in range(10):
                opt.zero_grad()
                out = net.forward(x)
                net.backward(out - y)
                opt.step()
            return [p.data.copy() for p in net.parameters()]

        for a, b in zip(run(True), run(False)):
            assert np.array_equal(a, b)

    def test_optimizer_reuses_existing_buffer(self):
        net = Sequential([Dense(3, 3, rng=0)])
        flat = net.flatten_parameters()
        opt = Adam(flat, lr=1e-3)
        assert opt._flat is flat
        assert opt.fused
        with pytest.raises(ValueError, match="per-parameter"):
            Adam(flat, lr=1e-3, fused=False)

    def test_reflatten_refused(self):
        """A second buffer over bound params would orphan the first."""
        params = make_params()
        FlatParameterBuffer(params)
        with pytest.raises(ValueError, match="already materialized"):
            FlatParameterBuffer(params)

    def test_flatten_parameters_idempotent(self):
        net = Sequential([Dense(3, 3, rng=0)])
        first = net.flatten_parameters()
        assert net.flatten_parameters() is first

    def test_flatten_after_fused_optimizer_returns_its_buffer(self):
        """The footgun case: flattening after Adam must not detach it."""
        net = Sequential([Dense(3, 3, rng=0)])
        opt = Adam(net.parameters(), lr=0.1)  # fused by default
        flat = net.flatten_parameters()
        assert flat is opt._flat
        # A second optimizer built this way shares the live buffer.
        opt2 = Adam(net.flatten_parameters(), lr=0.01)
        x = np.ones((2, 3))
        out = net.forward(x)
        net.backward(out)
        before = net.parameters()[0].data.copy()
        opt2.step()
        assert not np.array_equal(net.parameters()[0].data, before)

    def test_partial_overlap_rejected(self):
        params = make_params()
        FlatParameterBuffer(params[:2])
        with pytest.raises(ValueError, match="partially overlapping"):
            FlatParameterBuffer.owner_of(params)


class TestLifetime:
    """A buffer lives as long as its parameters or its optimizer, and no
    reference cycle keeps it past both."""

    @pytest.fixture()
    def collector_off(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_dropped_model_frees_its_buffers_without_the_collector(
            self, collector_off, adult_bundle, tiny_gan_config):
        gan = TableGAN(tiny_gan_config.with_overrides(epochs=1))
        gan.fit(adult_bundle.train.head(64))
        buffer = weakref.ref(gan.generator_.parameters()[0].flat_buffer)
        assert buffer() is not None
        del gan
        assert buffer() is None

    def test_the_optimizer_keeps_its_buffer_and_parameters(self,
                                                           collector_off):
        net = Sequential([Dense(3, 3, rng=0)])
        opt = Adam(net.parameters(), lr=0.1)
        buffer = weakref.ref(opt._flat)
        del net
        assert buffer() is opt._flat
        assert len(opt._flat.params) == 2
        opt.step()
        del opt
        assert buffer() is None


class TestSharedMemoryPrimitives:
    """The broadcast/reduce layer the data-parallel trainer is built on."""

    def test_group_specs_describe_layout(self):
        flat = FlatParameterBuffer(make_params())
        assert flat.group_specs() == [(np.dtype(np.float64), 24)]

    def test_group_specs_per_dtype(self):
        params = make_params() + make_params(np.float32)
        flat = FlatParameterBuffer(params)
        assert sorted(flat.group_specs(), key=lambda s: s[0].name) == [
            (np.dtype(np.float32), 24), (np.dtype(np.float64), 24),
        ]

    @staticmethod
    def backing_for(flat, fill=0.0):
        return [np.full(size, fill, dtype=dtype)
                for dtype, size in flat.group_specs()]

    def test_rebind_storage_preserves_values_and_aliasing(self):
        params = make_params()
        flat = FlatParameterBuffer(params)
        expected = [p.data.copy() for p in params]
        backing = self.backing_for(flat)
        flat.rebind_storage(data_backing=backing)
        for p, old in zip(params, expected):
            assert np.array_equal(p.data, old)
        # The new storage is live: writes to it appear through the params.
        backing[0][...] = 9.0
        for p in params:
            assert np.all(p.data == 9.0)

    def test_rebind_storage_shape_mismatch_rejected(self):
        flat = FlatParameterBuffer(make_params())
        with pytest.raises(ValueError, match="does not match"):
            flat.rebind_storage(data_backing=[np.empty(7)])

    def test_rebind_storage_wrong_count_rejected(self):
        flat = FlatParameterBuffer(make_params())
        with pytest.raises(ValueError, match="expected 1 data buffers"):
            flat.rebind_storage(data_backing=[np.empty(24), np.empty(24)])

    def test_optimizer_steps_through_rebound_storage(self):
        """An Adam built before rebinding keeps working after it — and its
        updates land in the new backing (the broadcast property)."""
        net = Sequential([Dense(3, 3, rng=0)])
        flat = net.flatten_parameters()
        opt = Adam(flat, lr=0.1)
        backing = self.backing_for(flat)
        flat.rebind_storage(data_backing=backing)
        x = np.ones((2, 3))
        net.backward(net.forward(x))
        before = backing[0].copy()
        opt.step()
        assert not np.array_equal(backing[0], before)
        (group,) = flat.groups
        assert group.data is backing[0]

    def test_export_import_data_roundtrip(self):
        flat = FlatParameterBuffer(make_params())
        out = self.backing_for(flat)
        flat.export_data(out)
        assert np.array_equal(out[0], flat.groups[0].data)
        flat.groups[0].data[...] = 0.0
        flat.import_data(out)
        assert np.array_equal(flat.groups[0].data, out[0])

    def test_export_grads_applies_scale_in_group_dtype(self):
        params = make_params(np.float32)
        flat = FlatParameterBuffer(params)
        for p in params:
            p.grad += 2.0
        out = self.backing_for(flat)
        flat.export_grads(out, scale=0.25)
        assert out[0].dtype == np.float32
        assert np.all(out[0] == np.float32(2.0) * np.float32(0.25))

    def test_export_grads_unscaled(self):
        flat = FlatParameterBuffer(make_params())
        flat.groups[0].grad[...] = 3.5
        out = self.backing_for(flat)
        flat.export_grads(out)
        assert np.all(out[0] == 3.5)

    def test_reduce_grads_is_an_ordered_sum(self):
        flat = FlatParameterBuffer(make_params())
        rng = np.random.default_rng(3)
        shards = [self.backing_for(flat) for _ in range(3)]
        for shard in shards:
            shard[0][...] = rng.standard_normal(shard[0].size)
        flat.reduce_grads(shards)
        expected = shards[0][0].copy()
        expected += shards[1][0]
        expected += shards[2][0]
        assert np.array_equal(flat.groups[0].grad, expected)

    def test_reduce_grads_overwrites_stale_gradients(self):
        flat = FlatParameterBuffer(make_params())
        flat.groups[0].grad[...] = 123.0  # stale junk must not accumulate
        shard = self.backing_for(flat, fill=1.0)
        flat.reduce_grads([shard])
        assert np.all(flat.groups[0].grad == 1.0)

    def test_reduce_grads_empty_rejected(self):
        flat = FlatParameterBuffer(make_params())
        with pytest.raises(ValueError, match="at least one shard"):
            flat.reduce_grads([])
