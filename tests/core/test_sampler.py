"""RecordSampler: batching, ranges, and determinism."""

import numpy as np
import pytest

from repro.core.sampler import RecordSampler
from repro.core.tablegan import build_generator_for


@pytest.fixture()
def sampler(trained_gan):
    return RecordSampler(
        trained_gan.generator_,
        trained_gan.codec_,
        trained_gan.matrixizer_,
        trained_gan.config.latent_dim,
    )


class TestSampling:
    def test_matrices_shape_and_range(self, sampler):
        mats = sampler.sample_matrices(10, rng=np.random.default_rng(0))
        assert mats.shape[0] == 10
        assert mats.min() >= -1.0 and mats.max() <= 1.0

    def test_batched_generation_matches_single_shot(self, sampler):
        """Batching is an implementation detail: same stream, same records."""
        a = sampler.sample_records(50, rng=np.random.default_rng(3))
        b_parts = RecordSampler(
            sampler.generator, sampler.codec, sampler.matrixizer,
            sampler.latent_dim,
        ).sample_matrices(50, rng=np.random.default_rng(3), batch_size=7)
        b = sampler.matrixizer.to_records(b_parts)
        assert np.allclose(a, b)

    def test_table_output(self, sampler, adult_bundle):
        table = sampler.sample_table(20, rng=np.random.default_rng(1))
        assert table.n_rows == 20
        assert table.schema == adult_bundle.train.schema

    def test_rejects_non_positive_n(self, sampler):
        with pytest.raises(ValueError):
            sampler.sample_matrices(0)

    def test_rejects_bad_latent_dim(self, trained_gan):
        with pytest.raises(ValueError):
            RecordSampler(
                trained_gan.generator_, trained_gan.codec_,
                trained_gan.matrixizer_, 0,
            )

    def test_constructor_batch_size_is_the_default(self, trained_gan):
        small = RecordSampler(
            trained_gan.generator_, trained_gan.codec_,
            trained_gan.matrixizer_, trained_gan.config.latent_dim,
            batch_size=4,
        )
        a = small.sample_records(10, rng=np.random.default_rng(5))
        b = small.sample_records(10, rng=np.random.default_rng(5), batch_size=256)
        assert np.allclose(a, b)
        with pytest.raises(ValueError):
            RecordSampler(
                trained_gan.generator_, trained_gan.codec_,
                trained_gan.matrixizer_, trained_gan.config.latent_dim,
                batch_size=0,
            )

    def test_one_row_batches_match_bulk_batches(self, sampler):
        """Float32 rows do not depend on how many rows share a forward."""
        assert sampler._dtype == np.float32
        one = sampler.sample_records(300, rng=np.random.default_rng(2), batch_size=1)
        bulk = sampler.sample_records(300, rng=np.random.default_rng(2),
                                      batch_size=256)
        assert np.array_equal(one, bulk)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("batch_size", [7, 25])
    def test_sampled_equals_forwarded_latents(self, trained_gan, dtype, batch_size):
        """sample_matrices == matrices_from_latents of the same latent draws,
        whether or not the batch size divides n."""
        config = trained_gan.config.with_overrides(dtype=dtype)
        sampler = RecordSampler(
            build_generator_for(config, trained_gan.matrixizer_.side),
            trained_gan.codec_, trained_gan.matrixizer_, config.latent_dim,
        )
        z = np.random.default_rng(4).uniform(-1.0, 1.0, (50, config.latent_dim))
        sampled = sampler.sample_matrices(50, rng=np.random.default_rng(4),
                                          batch_size=batch_size)
        assert sampled.dtype == np.dtype(dtype)
        assert np.array_equal(
            sampled, sampler.matrices_from_latents(z, batch_size=batch_size)
        )


class TestInferenceMode:
    """Sampling must run the generator in eval mode (BatchNorm running stats)."""

    def _batchnorms(self, generator):
        from repro.nn import BatchNorm

        return [layer for layer in generator if isinstance(layer, BatchNorm)]

    def test_sampling_does_not_perturb_running_stats(self, sampler):
        bns = self._batchnorms(sampler.generator)
        assert bns, "generator should contain BatchNorm layers"
        before = [(bn.running_mean.copy(), bn.running_var.copy()) for bn in bns]
        sampler.sample_matrices(32, rng=np.random.default_rng(0))
        for bn, (mean, var) in zip(bns, before):
            assert np.array_equal(bn.running_mean, mean)
            assert np.array_equal(bn.running_var, var)

    def test_sampling_reads_running_stats(self, sampler):
        """Perturbing the running statistics must change sampled output."""
        baseline = sampler.sample_matrices(8, rng=np.random.default_rng(2))
        bn = self._batchnorms(sampler.generator)[0]
        saved = bn.running_mean.copy()
        try:
            bn.running_mean = bn.running_mean + 0.5
            shifted = sampler.sample_matrices(8, rng=np.random.default_rng(2))
        finally:
            bn.running_mean = saved
        assert not np.allclose(baseline, shifted)

    def test_repeat_sampling_is_deterministic(self, sampler):
        """Eval-mode forward has no batch-statistics feedback: same seed,
        same rows, regardless of what was sampled in between."""
        first = sampler.sample_records(12, rng=np.random.default_rng(9))
        sampler.sample_records(33, rng=np.random.default_rng(1))
        again = sampler.sample_records(12, rng=np.random.default_rng(9))
        assert np.array_equal(first, again)
