"""Model registry: round trips, atomicity, corruption, and versioning."""

import json
import os

import numpy as np
import pytest

from repro import ChunkedTableGAN, ModelRegistry, TableGAN
from repro.serve import CorruptArtifactError, RegistryError, split_ref
from repro.serve.registry import MANIFEST_NAME


class TestRegistration:
    def test_listing_and_membership(self, populated_registry):
        assert populated_registry.names() == ["tiny"]
        assert "tiny" in populated_registry
        assert "missing" not in populated_registry

    def test_manifest_contents(self, populated_registry, trained_gan):
        manifest = populated_registry.manifest("tiny")
        assert manifest["kind"] == "tablegan"
        assert manifest["side"] == trained_gan.matrixizer_.side
        assert manifest["n_features"] == trained_gan.matrixizer_.n_features
        assert manifest["dtype"] == trained_gan.config.np_dtype.name
        assert len(manifest["schema"]["columns"]) == manifest["n_features"]
        assert manifest["config"]["base_channels"] == trained_gan.config.base_channels

    def test_reference_stats_round_trip(self, tmp_path, trained_gan,
                                        adult_bundle):
        from repro.obs.quality import reference_stats

        registry = ModelRegistry(tmp_path / "reg")
        stats = reference_stats(adult_bundle.train)
        registry.register("with-ref", trained_gan, reference_stats=stats)
        manifest = registry.manifest("with-ref")
        # The manifest is JSON on disk: the frozen stats survive exactly.
        assert manifest["reference_stats"] == json.loads(json.dumps(stats))
        assert manifest["reference_stats"]["rows"] == adult_bundle.train.n_rows
        # Registrations without stats simply omit the key.
        registry.register("without-ref", trained_gan)
        assert "reference_stats" not in registry.manifest("without-ref")

    def test_reference_stats_must_be_a_dict(self, tmp_path, trained_gan):
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(RegistryError):
            registry.register("bad", trained_gan, reference_stats=[1, 2])

    def test_refuses_duplicate_without_overwrite(self, populated_registry,
                                                 trained_gan):
        with pytest.raises(RegistryError, match="already registered"):
            populated_registry.register("tiny", trained_gan)

    def test_overwrite_replaces(self, tmp_path, trained_gan):
        registry = ModelRegistry(tmp_path)
        registry.register("m", trained_gan)
        registry.register("m", trained_gan, overwrite=True)
        assert registry.names() == ["m"]

    def test_rejects_unfitted_and_unknown_models(self, tmp_path,
                                                 tiny_gan_config):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(RegistryError, match="unfitted"):
            registry.register("m", TableGAN(tiny_gan_config))
        with pytest.raises(RegistryError, match="expected TableGAN"):
            registry.register("m", object())

    def test_rejects_path_traversal_names(self, tmp_path, trained_gan):
        registry = ModelRegistry(tmp_path)
        for bad in ("../escape", ".hidden", "a/b", "", "name\n", "name\nx"):
            with pytest.raises(RegistryError, match="invalid model name"):
                registry.register(bad, trained_gan)

    def test_failed_overwrite_restores_previous_model(self, tmp_path,
                                                      trained_gan,
                                                      monkeypatch):
        """If the commit rename fails mid-overwrite, the old model returns."""
        registry = ModelRegistry(tmp_path)
        registry.register("m", trained_gan)
        want = registry.load("m").sample(5, rng=np.random.default_rng(1))

        real_replace = os.replace

        def failing_replace(src, dst):
            if ".stage-" in str(src) and str(dst).endswith("m"):
                raise OSError("simulated crash at commit")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="simulated crash"):
            registry.register("m", trained_gan, overwrite=True)
        monkeypatch.undo()

        assert registry.names() == ["m"]
        got = registry.load("m").sample(5, rng=np.random.default_rng(1))
        assert np.array_equal(want.values, got.values)

    def test_no_staging_residue_after_register(self, tmp_path, trained_gan):
        registry = ModelRegistry(tmp_path)
        registry.register("m", trained_gan)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m"]

    def test_read_operations_never_create_the_root(self, tmp_path,
                                                   trained_gan):
        """A mistyped registry path must not leave directories behind."""
        missing = tmp_path / "typo" / "registry"
        registry = ModelRegistry(missing)
        assert registry.names() == []
        assert "m" not in registry
        with pytest.raises(RegistryError):
            registry.load("m")
        assert not missing.exists()
        registry.register("m", trained_gan)
        assert missing.is_dir() and registry.names() == ["m"]

    def test_delete(self, tmp_path, trained_gan):
        registry = ModelRegistry(tmp_path)
        registry.register("m", trained_gan)
        registry.delete("m")
        assert registry.names() == []
        with pytest.raises(RegistryError):
            registry.delete("m")


class TestVersioning:
    @pytest.fixture()
    def versioned(self, tmp_path, trained_gan):
        registry = ModelRegistry(tmp_path)
        registry.register("m", trained_gan, version="1")
        registry.register("m", trained_gan, version="2")
        return registry

    def test_split_ref(self):
        assert split_ref("m") == ("m", None)
        assert split_ref("m@latest") == ("m", None)
        assert split_ref("m@2") == ("m", "2")
        for bad in ("@2", "m@", "m@a@b", "m@.hidden", 7):
            with pytest.raises(RegistryError):
                split_ref(bad)

    def test_versions_stay_on_disk(self, versioned):
        assert versioned.names() == ["m@1", "m@2"]
        assert versioned.versions("m") == ["1", "2"]
        assert "m@1" in versioned and "m@2" in versioned and "m" in versioned
        assert "m@3" not in versioned

    def test_latest_resolution(self, versioned):
        assert versioned.resolve("m") == "m@2"
        assert versioned.resolve("m@latest") == "m@2"
        assert versioned.resolve("m@1") == "m@1"
        assert versioned.manifest("m")["version"] == "2"
        assert versioned.manifest("m@1")["version"] == "1"

    def test_load_resolves_latest_and_pinned(self, versioned, trained_gan):
        want = trained_gan.sample(6, rng=np.random.default_rng(4))
        for ref in ("m", "m@latest", "m@1", "m@2"):
            got = versioned.load(ref).sample(6, rng=np.random.default_rng(4))
            assert np.array_equal(want.values, got.values)

    def test_registering_a_version_keeps_prior_ones(self, versioned,
                                                    trained_gan):
        versioned.register("m", trained_gan, version="3")
        assert versioned.versions("m") == ["1", "2", "3"]
        assert versioned.resolve("m") == "m@3"

    def test_unversioned_and_versioned_coexist(self, tmp_path, trained_gan):
        registry = ModelRegistry(tmp_path)
        registry.register("m", trained_gan)
        registry.register("m", trained_gan, version="2")
        assert registry.names() == ["m", "m@2"]
        # The newest registration wins the alias, whichever shape it has.
        assert registry.resolve("m") == "m@2"

    def test_duplicate_version_needs_overwrite(self, versioned, trained_gan):
        with pytest.raises(RegistryError, match="already registered"):
            versioned.register("m", trained_gan, version="2")
        versioned.register("m", trained_gan, version="2", overwrite=True)

    def test_reserved_and_invalid_versions_rejected(self, tmp_path,
                                                    trained_gan):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(RegistryError, match="reserved alias"):
            registry.register("m", trained_gan, version="latest")
        with pytest.raises(RegistryError, match="invalid model version"):
            registry.register("m", trained_gan, version=".bad")
        with pytest.raises(RegistryError, match="invalid model name"):
            registry.register("m@2", trained_gan)

    def test_delete_is_exact(self, versioned):
        versioned.delete("m@1")
        assert versioned.names() == ["m@2"]
        # A bare name never deletes "whatever is newest".
        with pytest.raises(RegistryError, match="m@2"):
            versioned.delete("m")
        with pytest.raises(RegistryError, match="no model named"):
            versioned.delete("m@1")

    def test_describe_reports_versions(self, versioned):
        rows = versioned.describe()
        assert [(row["name"], row["version"]) for row in rows] == [
            ("m@1", "1"), ("m@2", "2"),
        ]

    def test_sharded_sampler_pins_resolution_at_construction(self, versioned,
                                                             trained_gan):
        """A bare name is resolved ONCE when the sampler is built, so a
        version registered mid-run can never mix into the output (the
        parent and every worker would otherwise resolve independently)."""
        from repro.serve import ShardedSampler

        sampler = ShardedSampler(versioned, "m", shard_rows=16)
        assert sampler.name == "m@2"
        versioned.register("m", trained_gan, version="3")
        assert versioned.resolve("m") == "m@3"
        assert sampler.name == "m@2"  # still pinned
        want = versioned.load("m@2").sample(8, rng=np.random.default_rng(0))
        assert sampler.sample_values(8, seed=None, workers=1).shape == (
            8, want.values.shape[1],
        )


@pytest.fixture(scope="module")
def vector_registry(tmp_path_factory, adult_bundle, tiny_gan_config):
    """A registry holding a vector-layout (rank-1) tiny GAN as ``tiny``."""
    gan = TableGAN(tiny_gan_config.with_overrides(layout="vector"))
    gan.fit(adult_bundle.train)
    registry = ModelRegistry(tmp_path_factory.mktemp("vector-registry"))
    registry.register("tiny", gan)
    return registry, gan


class TestRoundTrip:
    def test_load_samples_bit_identical(self, populated_registry, trained_gan,
                                        vector_registry):
        """train -> register -> load -> sample equals the original model, in
        the square layout and in the vector layout."""
        for registry, model in ((populated_registry, trained_gan), vector_registry):
            loaded = registry.load("tiny")
            assert loaded.matrixizer_.rank == model.matrixizer_.rank
            want = model.sample(25, rng=np.random.default_rng(3))
            got = loaded.sample(25, rng=np.random.default_rng(3))
            assert np.array_equal(want.values, got.values)
            assert got.schema == want.schema

    def test_loaded_model_serves_without_training_table(self,
                                                        populated_registry):
        loaded = populated_registry.load("tiny")
        table = loaded.sample(7, rng=np.random.default_rng(0))
        assert table.n_rows == 7

    def test_chunked_round_trip(self, tmp_path, adult_bundle, tiny_gan_config):
        chunked = ChunkedTableGAN(
            tiny_gan_config.with_overrides(epochs=1), n_chunks=2
        )
        chunked.fit(adult_bundle.train, rng=np.random.default_rng(0))
        registry = ModelRegistry(tmp_path)
        manifest = registry.register("chunked", chunked)
        assert manifest["kind"] == "chunked"
        assert len(manifest["chunks"]) == 2

        loaded = registry.load("chunked")
        assert isinstance(loaded, ChunkedTableGAN)
        assert loaded.chunk_sizes_ == chunked.chunk_sizes_
        want = chunked.sample(30, rng=np.random.default_rng(5))
        got = loaded.sample(30, rng=np.random.default_rng(5))
        assert np.array_equal(want.values, got.values)


class TestCorruption:
    @pytest.fixture()
    def registry(self, tmp_path, trained_gan):
        registry = ModelRegistry(tmp_path)
        registry.register("m", trained_gan)
        return registry

    def test_flipped_bytes_detected(self, registry):
        artifact = registry.path_for("m") / "generator.npz"
        blob = bytearray(artifact.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        artifact.write_bytes(bytes(blob))
        with pytest.raises(CorruptArtifactError, match="checksum mismatch"):
            registry.load("m")

    def test_truncated_artifact_detected(self, registry):
        artifact = registry.path_for("m") / "generator.npz"
        artifact.write_bytes(artifact.read_bytes()[:100])
        with pytest.raises(CorruptArtifactError):
            registry.load("m")

    def test_missing_artifact_detected(self, registry):
        (registry.path_for("m") / "generator.npz").unlink()
        with pytest.raises(CorruptArtifactError, match="missing"):
            registry.load("m")

    def test_malformed_manifest_detected(self, registry):
        path = registry.path_for("m") / MANIFEST_NAME
        path.write_text("{not json")
        with pytest.raises(CorruptArtifactError, match="unreadable manifest"):
            registry.load("m")

    def test_wrong_format_version_refused(self, registry):
        path = registry.path_for("m") / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["format_version"] = 999
        path.write_text(json.dumps(manifest))
        with pytest.raises(RegistryError, match="format version"):
            registry.load("m")

    def test_unknown_model_raises(self, registry):
        with pytest.raises(RegistryError, match="no model named"):
            registry.load("nope")
