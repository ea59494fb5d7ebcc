"""Sequential container: naming, activation caching, partial backward."""

import numpy as np
import pytest

from repro.nn import Dense, LeakyReLU, Sequential, Sigmoid


def make_net():
    return Sequential([
        Dense(6, 4, rng=0),
        ("hidden", LeakyReLU()),
        Dense(4, 1, rng=1),
        ("out", Sigmoid()),
    ])


class TestConstruction:
    def test_named_and_anonymous_layers(self):
        net = make_net()
        assert net.names == ["layer0", "hidden", "layer2", "out"]
        assert len(net) == 4

    def test_layer_index_lookup(self):
        net = make_net()
        assert net.layer_index("hidden") == 1
        with pytest.raises(KeyError, match="no layer named"):
            net.layer_index("missing")

    def test_rejects_non_layer(self):
        with pytest.raises(TypeError):
            Sequential([Dense(2, 2, rng=0), "not a layer"])

    def test_parameters_collects_all(self):
        net = make_net()
        assert len(net.parameters()) == 4  # two Dense layers x (W, b)


class TestForwardCache:
    def test_activation_by_name(self, rng):
        net = make_net()
        x = rng.standard_normal((3, 6))
        out = net.forward(x)
        assert out.shape == (3, 1)
        assert net.activation("hidden").shape == (3, 4)
        assert np.allclose(net.activation("out"), out)

    def test_activation_by_index(self, rng):
        net = make_net()
        net.forward(rng.standard_normal((2, 6)))
        assert net.activation(0).shape == (2, 4)

    def test_activation_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            make_net().activation("hidden")


class TestBackward:
    def test_full_backward_shape(self, rng):
        net = make_net()
        x = rng.standard_normal((3, 6))
        out = net.forward(x)
        grad = net.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_backward_from_intermediate_layer(self, rng):
        """Gradient injected at the hidden layer skips downstream layers."""
        net = make_net()
        x = rng.standard_normal((3, 6))
        net.forward(x)
        hidden = net.activation("hidden")
        grad = net.backward_from("hidden", np.ones_like(hidden))
        assert grad.shape == x.shape

    def test_backward_from_matches_manual_chain(self, rng):
        """backward_from('hidden', g) == Dense.backward(LeakyReLU.backward(g))."""
        dense = Dense(5, 3, rng=2)
        act = LeakyReLU()
        net = Sequential([dense, ("mid", act)])
        x = rng.standard_normal((2, 5))
        net.forward(x)
        g = rng.standard_normal((2, 3))
        expected = dense.backward(act.backward(g))
        dense.zero_grad()
        got = net.backward_from("mid", g)
        assert np.allclose(got, expected)

    def test_double_backward_same_forward(self, rng):
        """Two backward passes off one forward give identical input grads.

        The table-GAN generator update relies on this (adversarial and
        information gradients both flow through one discriminator forward).
        """
        net = make_net()
        x = rng.standard_normal((3, 6))
        out = net.forward(x)
        g = np.ones_like(out)
        first = net.backward(g)
        second = net.backward(g)
        assert np.allclose(first, second)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            make_net().backward(np.ones((1, 1)))


class TestZeroGrad:
    def test_zeroes_all_parameters(self, rng):
        net = make_net()
        out = net.forward(rng.standard_normal((2, 6)))
        net.backward(np.ones_like(out))
        assert any(np.any(p.grad != 0) for p in net.parameters())
        net.zero_grad()
        assert all(np.all(p.grad == 0) for p in net.parameters())


def _trained_generator(dtype, rank, seed=0):
    """A generator with non-trivial BatchNorm statistics and biases."""
    from repro.core.networks import build_generator

    generator = build_generator(8, 24, 16, rng=seed, dtype=dtype, rank=rank)
    rng = np.random.default_rng(seed + 100)
    for layer in generator.layers:
        if hasattr(layer, "running_mean"):
            shape = layer.running_mean.shape
            layer.running_mean[...] = rng.normal(0.0, 0.5, shape)
            layer.running_var[...] = rng.uniform(0.5, 2.0, shape)
            layer.gamma.data[...] = rng.normal(1.0, 0.2, shape)
            layer.beta.data[...] = rng.normal(0.0, 0.2, shape)
        bias = getattr(layer, "bias", None)
        if bias is not None:
            bias.data[...] = rng.normal(0.0, 0.1, bias.data.shape)
    return generator


def _per_layer(net, x, chunk=Sequential.STREAM_CHUNK_ROWS):
    """The oracle: each layer's inference forward, chunk by chunk."""
    outs = []
    for start in range(0, x.shape[0], chunk):
        out = x[start:start + chunk]
        for layer in net.layers:
            out = layer.forward(out, training=False)
        outs.append(out)
    return np.concatenate(outs)


class TestChannelMajorStream:
    """The generator's channel-major inference equals the per-layer
    forward bit for bit and leaves every layer's cache alone."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_bit_identical_to_the_per_layer_forward(self, dtype, rank):
        generator = _trained_generator(dtype, rank)
        assert generator._runs_channel_major(np.zeros((1, 24), dtype))
        rng = np.random.default_rng(3)
        for rows in (1, 2, 49, 255, 256, 257, 300):
            z = rng.standard_normal((rows, 24)).astype(dtype)
            got = generator.stream_forward(z)
            want = _per_layer(generator, z)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), rows

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_small_workspace_blocks_and_chunks(self, dtype):
        from repro.nn import set_workspace_budget

        generator = _trained_generator(dtype, 2, seed=4)
        z = np.random.default_rng(5).standard_normal((37, 24)).astype(dtype)
        previous = set_workspace_budget(20_000)
        try:
            for chunk in (5, 16, 37):
                got = generator.stream_forward(z, chunk_rows=chunk)
                assert got.tobytes() == _per_layer(generator, z, chunk).tobytes()
        finally:
            set_workspace_budget(previous)

    def test_leaves_layer_caches_untouched(self):
        generator = _trained_generator(np.float32, 2)
        z = np.random.default_rng(6).standard_normal((9, 24)).astype(np.float32)
        generator.forward(z, training=True)
        before = [dict(vars(layer)) for layer in generator.layers]
        generator.stream_forward(z[:4])
        for layer, state in zip(generator.layers, before):
            for key, value in vars(layer).items():
                assert value is state[key], (type(layer).__name__, key)

    def test_other_stacks_take_the_per_layer_path(self):
        generator = _trained_generator(np.float32, 2)
        z = np.zeros((3, 24), np.float32)
        assert not generator._runs_channel_major(z.astype(np.float64))
        assert not make_net()._runs_channel_major(np.zeros((3, 4)))
        from repro.nn import reference_kernels

        with reference_kernels():
            assert not generator._runs_channel_major(z)

    def test_concurrent_threads_do_not_disturb_each_other(self):
        import threading

        generators = [_trained_generator(dtype, 2, seed=seed)
                      for seed, dtype in ((1, np.float32), (2, np.float64),
                                          (3, np.float32))]
        rng = np.random.default_rng(7)
        latents = [[rng.standard_normal((rows, 24)).astype(g.layers[0].weight.data.dtype)
                    for rows in (300, 1, 256, 49, 257)] for g in generators]
        want = [[_per_layer(g, z) for z in zs] for g, zs in zip(generators, latents)]
        got = [None] * len(generators)
        start = threading.Barrier(len(generators))

        def worker(i):
            start.wait(timeout=30)
            got[i] = [generators[i].stream_forward(z)
                      for _ in range(3) for z in latents[i]]

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(generators))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        for outs, oracle in zip(got, want):
            assert [o.tobytes() for o in outs] == [o.tobytes() for o in oracle] * 3
