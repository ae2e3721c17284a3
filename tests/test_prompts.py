import json

import numpy as np
import pytest

from promptkit.numeric import bilinear_sample, seeded_rng
from promptkit.prompts import (
    ConstantEmbeddings,
    DeformAttnParams,
    FeatureMap,
    FileEmbeddings,
    HashEmbeddings,
    PromptEmbedding,
    encode_visual_prompt,
    normalize,
    provide_text_embedding,
)


class TestFeatureMap:
    def test_too_many_levels_rejected(self):
        arrays = [np.zeros((2, 2, 3))] * 9
        with pytest.raises(ValueError, match="1..8"):
            FeatureMap.from_arrays(arrays)

    def test_ragged_dims_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            FeatureMap.from_arrays([np.zeros((2, 2, 3)), np.zeros((2, 2, 4))])

    def test_non_finite_rejected(self):
        bad = np.zeros((2, 2, 3))
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            FeatureMap.from_arrays([bad])

    def test_constant_builder(self):
        fm = FeatureMap.constant([(2, 3), (4, 4)], [1.0, -2.0])
        assert fm.dim == 2
        np.testing.assert_array_equal(fm.levels[1][3, 2], [1.0, -2.0])


class TestNormalize:
    def test_unit_norm(self):
        p = PromptEmbedding(np.array([3.0, 4.0]), "visual")
        out = normalize(p)
        assert abs(np.linalg.norm(out.vec) - 1.0) < 1e-12
        np.testing.assert_allclose(out.vec, [0.6, 0.8])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            normalize(PromptEmbedding(np.zeros(4), "text"))

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            PromptEmbedding(np.ones(2), "audio")


class TestEncodeVisualPrompt:
    def test_identity_configuration_returns_sample(self):
        dim = 5
        fm = FeatureMap.random([(6, 7)], dim, seed=11)
        params = DeformAttnParams.identity(dim, layer_count=1, n_points=1, residual_gate=0.0)
        query = PromptEmbedding(np.zeros(dim), "visual")
        out = encode_visual_prompt(fm, params, query, (0.37, 0.81))
        np.testing.assert_array_equal(out.vec, bilinear_sample(fm.levels[0], 0.37, 0.81))

    def test_constant_grid_gives_constant(self):
        # Attention weights are a convex combination, so any offsets and
        # logits reproduce the constant exactly (gate off, identity maps).
        dim = 4
        c = np.array([1.5, -2.0, 0.25, 3.0])
        fm = FeatureMap.constant([(5, 5), (3, 3)], c)
        rng = seeded_rng(0)
        params = DeformAttnParams(
            n_points=3,
            offset_weights=rng.standard_normal((6, dim)),
            attn_weights=rng.standard_normal((3, dim)),
            value_proj=np.eye(dim),
            output_proj=np.eye(dim),
            layer_count=2,
            residual_gate=0.0,
        )
        out = encode_visual_prompt(fm, params, PromptEmbedding(rng.standard_normal(dim), "visual"), (0.4, 0.6))
        np.testing.assert_allclose(out.vec, c, atol=1e-12)

    def test_zero_value_proj_is_pure_residual(self):
        dim = 4
        fm = FeatureMap.random([(3, 3), (2, 2)], dim, seed=1)
        rng = seeded_rng(2)
        params = DeformAttnParams(
            n_points=2,
            offset_weights=rng.standard_normal((4, dim)),
            attn_weights=rng.standard_normal((2, dim)),
            value_proj=np.zeros((dim, dim)),
            output_proj=np.eye(dim),
            layer_count=2,
        )
        query = PromptEmbedding(np.arange(dim, dtype=float), "visual")
        out = encode_visual_prompt(fm, params, query, (0.5, 0.5))
        np.testing.assert_array_equal(out.vec, query.vec)

    def test_deterministic_bitwise(self):
        dim = 8
        fm = FeatureMap.random([(4, 6), (3, 3), (2, 2)], dim, seed=5)
        params = DeformAttnParams.seeded(dim, layer_count=3, seed=6)
        query = PromptEmbedding(seeded_rng(7).standard_normal(dim), "visual")
        a = encode_visual_prompt(fm, params, query, (0.2, 0.9))
        b = encode_visual_prompt(fm, params, query, (0.2, 0.9))
        assert np.array_equal(a.vec, b.vec)

    def test_convex_combination_of_samples(self):
        rng = seeded_rng(8)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            fm = FeatureMap.random([(4, 4), (3, 5)], dim, seed=int(rng.integers(1000)))
            params = DeformAttnParams.seeded(dim, layer_count=2, n_points=4,
                                             seed=int(rng.integers(1000)), scale=1.0)
            query = PromptEmbedding(rng.standard_normal(dim), "visual")
            trace = []
            encode_visual_prompt(fm, params, query, (rng.uniform(), rng.uniform()), trace=trace)
            for record in trace:
                lo = record["samples"].min(axis=0) - 1e-9
                hi = record["samples"].max(axis=0) + 1e-9
                assert np.all(record["combined"] >= lo)
                assert np.all(record["combined"] <= hi)
                assert abs(record["weights"].sum() - 1.0) < 1e-12

    def test_layer_reads_its_own_level_in_order(self):
        dim = 3
        fm = FeatureMap.random([(2, 2), (3, 3), (4, 4)], dim, seed=9)
        params = DeformAttnParams.seeded(dim, layer_count=3, seed=10)
        trace = []
        encode_visual_prompt(fm, params, PromptEmbedding(np.ones(dim), "visual"), (0.5, 0.5), trace=trace)
        assert [r["level"] for r in trace] == [0, 1, 2]

    def test_extra_layers_wrap_levels_modulo(self):
        dim = 3
        fm = FeatureMap.random([(2, 2), (3, 3)], dim, seed=9)
        params = DeformAttnParams.seeded(dim, layer_count=5, seed=10)
        trace = []
        encode_visual_prompt(fm, params, PromptEmbedding(np.ones(dim), "visual"), (0.5, 0.5), trace=trace)
        assert [r["level"] for r in trace] == [0, 1, 0, 1, 0]

    def test_dim_mismatch_rejected(self):
        fm = FeatureMap.random([(2, 2)], 4, seed=0)
        params = DeformAttnParams.identity(5)
        with pytest.raises(ValueError, match="mismatch"):
            encode_visual_prompt(fm, params, PromptEmbedding(np.ones(5), "visual"), (0.5, 0.5))

    def test_reference_point_outside_unit_square_rejected(self):
        fm = FeatureMap.random([(2, 2)], 3, seed=0)
        params = DeformAttnParams.identity(3)
        with pytest.raises(ValueError, match="reference point"):
            encode_visual_prompt(fm, params, PromptEmbedding(np.ones(3), "visual"), (1.2, 0.5))


class TestEmbeddingProviders:
    def test_file_lookup_is_normalized(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text(json.dumps({"cat": [3.0, 4.0], "dog": [0.0, 2.0]}))
        provider = FileEmbeddings.from_file(path)
        emb = provide_text_embedding("cat", provider)
        np.testing.assert_allclose(emb.vec, [0.6, 0.8])
        assert emb.kind == "text"
        assert emb.category == "cat"

    def test_hash_fallback_deterministic(self):
        provider = HashEmbeddings(dim=32)
        a = provider.embed("zebra")
        b = provider.embed("zebra")
        np.testing.assert_array_equal(a, b)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12

    def test_hash_vectors_nearly_orthogonal(self):
        provider = HashEmbeddings(dim=256)
        rng = seeded_rng(13)
        worst = 0.0
        for _ in range(1000):
            t1 = f"tag-{rng.integers(1_000_000)}"
            t2 = f"tag-{rng.integers(1_000_000)}"
            if t1 == t2:
                continue
            cos = float(provider.embed(t1) @ provider.embed(t2))
            worst = max(worst, abs(cos))
        assert worst < 0.5

    def test_unknown_tag_without_fallback_names_tag(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text(json.dumps({"cat": [1.0, 0.0]}))
        provider = FileEmbeddings.from_file(path, fallback=False)
        with pytest.raises(KeyError, match="wombat"):
            provider.embed("wombat")

    def test_unknown_tag_with_fallback_is_unit_vector(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text(json.dumps({"cat": [1.0, 0.0]}))
        provider = FileEmbeddings.from_file(path, fallback=True)
        v = provider.embed("wombat")
        assert v.shape == (2,)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_ragged_file_rejected(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text(json.dumps({"cat": [1.0, 0.0], "dog": [1.0, 0.0, 0.0]}))
        with pytest.raises(ValueError, match="length"):
            FileEmbeddings.from_file(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            FileEmbeddings.from_file(path)

    def test_zero_stored_vector_rejected(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text(json.dumps({"cat": [0.0, 0.0]}))
        provider = FileEmbeddings.from_file(path)
        with pytest.raises(ValueError, match="zero"):
            provider.embed("cat")

    @pytest.mark.parametrize("stored", [[1e160, 0.0], [1e-200, 0.0]])
    def test_extreme_stored_vectors_embed_as_unit_vectors(self, tmp_path, stored):
        path = tmp_path / "emb.json"
        path.write_text(json.dumps({"cat": stored}))
        assert FileEmbeddings.from_file(path).embed("cat").tolist() == [1.0, 0.0]

    def test_constant_provider_identical_for_all_tags(self):
        provider = ConstantEmbeddings(dim=8)
        np.testing.assert_array_equal(provider.embed("a"), provider.embed("b"))
