import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_fusion_layer
from promptkit.fusion import (
    AttnWeights,
    FfnWeights,
    FusionParams,
    FusionState,
    PATHWAY_ORDER,
    STREAMS,
    background_activation_stats,
    fusion_layer,
    gated_attn,
    run_layers,
)
from promptkit.numeric import seeded_rng


def identity_attn(dim):
    eye = np.eye(dim)
    return AttnWeights(eye, eye, eye, eye)


class TestGatedAttn:
    def test_symmetric_logits_average_value_and_background(self):
        q = np.array([[1.0, 0.0]])
        k = np.array([[1.0, 0.0]])
        v = np.array([[3.0, 0.0]])
        b = np.array([1.0, 0.0])  # q.k == q.B
        out, bg = gated_attn(q, k, v, b, d_k=1)
        np.testing.assert_allclose(out, [(v[0] + b) / 2.0], atol=1e-15)
        np.testing.assert_allclose(bg, [0.5], atol=1e-15)

    def test_two_way_closed_form(self):
        # logit gap of ln 3 after scaling -> weights (0.75, 0.25)
        d_k = 4
        q = np.array([[2.0, 0.0]])
        k = np.array([[math.sqrt(d_k) * math.log(3.0) / 2.0, 0.0]])
        v = np.array([[1.0, 0.0]])
        b = np.zeros(2)
        out, bg = gated_attn(q, k, v, b, d_k=d_k)
        np.testing.assert_allclose(out, [[0.75, 0.0]], atol=1e-12)
        np.testing.assert_allclose(bg, [0.25], atol=1e-12)

    def test_background_dominates_under_large_gap(self):
        # All key logits at least 40 below the background logit.
        rng = seeded_rng(3)
        d = 8
        q = rng.uniform(0.5, 1.5, size=(5, d))
        b = 20.0 * np.ones(d)
        k = -20.0 * np.ones((6, d))
        v = rng.standard_normal((6, d))
        out, bg = gated_attn(q, k, v, b, d_k=d)
        assert np.max(np.abs(out - b)) <= 1e-6
        assert np.all(bg > 1.0 - 1e-6)

    def test_weights_sum_to_one_including_background(self):
        # One-hot values turn the output into the weight vector itself.
        rng = seeded_rng(4)
        n = 5
        q = rng.standard_normal((7, n))
        k = rng.standard_normal((n, n))
        v = np.eye(n)
        b = np.zeros(n)
        out, bg = gated_attn(q, k, v, b, d_k=n)
        np.testing.assert_allclose(out.sum(axis=1) + bg, 1.0, atol=1e-12)

    def test_permutation_of_keys_leaves_output_unchanged(self):
        rng = seeded_rng(5)
        q = rng.standard_normal((4, 6))
        k = rng.standard_normal((8, 6))
        v = rng.standard_normal((8, 6))
        b = rng.standard_normal(6)
        out1, bg1 = gated_attn(q, k, v, b, d_k=6)
        perm = rng.permutation(8)
        out2, bg2 = gated_attn(q, k[perm], v[perm], b, d_k=6)
        np.testing.assert_allclose(out1, out2, atol=1e-12)
        np.testing.assert_allclose(bg1, bg2, atol=1e-12)

    def test_equals_the_plain_formula(self):
        # softmax([q k^T, q b] / sqrt(d_k)) @ [v; b], d_k drawn apart from d.
        rng = seeded_rng(6)
        scales_apart = 0
        for _ in range(40):
            n_q, n_k, d = (int(n) for n in rng.integers(1, 9, size=3))
            d_k = int(rng.integers(1, 3 * d + 1))
            scales_apart += d_k != d
            q, k, v = (rng.standard_normal((n, d)) for n in (n_q, n_k, n_k))
            b = rng.standard_normal(d)
            logits = np.column_stack([q @ k.T, q @ b]) / math.sqrt(d_k)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            w = e / e.sum(axis=1, keepdims=True)
            out, bg = gated_attn(q, k, v, b, d_k=d_k)
            np.testing.assert_allclose(out, w @ np.vstack([v, b]), rtol=0, atol=1e-12)
            np.testing.assert_allclose(bg, w[:, -1], rtol=0, atol=1e-12)
        assert scales_apart > 20

    def test_key_value_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            gated_attn(np.ones((1, 2)), np.ones((2, 2)), np.ones((3, 2)), np.ones(2), 2)

    def test_zero_keys_rejected(self):
        with pytest.raises(ValueError, match="at least one key"):
            gated_attn(np.ones((1, 2)), np.zeros((0, 2)), np.zeros((0, 2)), np.ones(2), 2)


class TestFusionLayer:
    def test_zero_update_is_exact_identity(self):
        state = FusionState.seeded(6, n_features=9, n_text=3, n_visual=2, seed=7)
        params = FusionParams.zero_update(6, background=np.ones(6))
        out = fusion_layer(state, params)
        for name in STREAMS:
            assert np.array_equal(getattr(out, name), getattr(state, name))

    def test_counts_and_dims_preserved(self):
        rng = seeded_rng(8)
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            state = FusionState.seeded(
                dim,
                n_features=int(rng.integers(1, 12)),
                n_text=int(rng.integers(0, 5)),
                n_visual=int(rng.integers(0, 5)),
                seed=int(rng.integers(1000)),
            )
            params = FusionParams.seeded(dim, seed=int(rng.integers(1000)))
            out = fusion_layer(state, params)
            assert out.counts() == state.counts()
            assert out.dim == state.dim

    def test_visual_prompt_locks_onto_identical_feature_token(self):
        # One visual prompt equals one feature token, orthogonal to the
        # rest and large: its attention weight saturates to ~1 and the
        # pathway update reproduces that token.
        dim = 6
        scale = 50.0
        features = scale * np.eye(dim)[:4]
        visual = features[2:3].copy()
        state = FusionState(features=features, text=np.zeros((0, dim)), visual=visual)
        params = FusionParams(
            d_k=dim,
            background_token=np.zeros(dim),
            self_attn={s: AttnWeights.zeros(dim) for s in STREAMS},
            cross_attn={
                "text": AttnWeights.zeros(dim),
                "visual": identity_attn(dim),
                "features": AttnWeights.zeros(dim),
            },
            ffn={s: FfnWeights.zeros(dim, dim) for s in STREAMS},
        )
        out = fusion_layer(state, params)
        update = out.visual[0] - state.visual[0]
        np.testing.assert_allclose(update, features[2], atol=1e-6)

    def test_empty_text_skips_text_pathways_only(self):
        dim = 5
        state = FusionState(
            features=seeded_rng(1).standard_normal((6, dim)),
            text=np.zeros((0, dim)),
            visual=seeded_rng(2).standard_normal((2, dim)),
        )
        params_a = FusionParams.seeded(dim, seed=3)
        out_a = fusion_layer(state, params_a)
        # Different text weights must not matter when the stream is empty.
        params_b = FusionParams(
            d_k=params_a.d_k,
            background_token=params_a.background_token,
            self_attn={**params_a.self_attn, "text": AttnWeights.seeded(dim, seeded_rng(99), 1.0)},
            cross_attn={**params_a.cross_attn, "text": AttnWeights.seeded(dim, seeded_rng(98), 1.0)},
            ffn={**params_a.ffn, "text": FfnWeights.seeded(dim, 2 * dim, seeded_rng(97), 1.0)},
        )
        out_b = fusion_layer(state, params_b)
        assert np.array_equal(out_a.features, out_b.features)
        assert np.array_equal(out_a.visual, out_b.visual)
        assert out_a.text.shape == (0, dim)

    def test_dim_mismatch_rejected(self):
        state = FusionState.seeded(4, 3, 1, 1, seed=0)
        params = FusionParams.seeded(5, seed=0)
        with pytest.raises(ValueError):
            fusion_layer(state, params)

    def test_state_validation(self):
        with pytest.raises(ValueError, match="disagree"):
            FusionState(features=np.ones((2, 3)), text=np.ones((1, 4)), visual=np.ones((1, 3)))


class TestPerPathwayBackground:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="3, d"):
            FusionParams(
                d_k=4,
                background_token=np.zeros((2, 4)),
                self_attn={s: AttnWeights.zeros(4) for s in STREAMS},
                cross_attn={p: AttnWeights.zeros(4) for p in PATHWAY_ORDER},
                ffn={s: FfnWeights.zeros(4, 4) for s in STREAMS},
            )

    def test_background_for_selects_row(self):
        params = FusionParams.seeded(4, seed=1, per_pathway_background=True)
        b = np.asarray(params.background_token)
        for i, pathway in enumerate(PATHWAY_ORDER):
            np.testing.assert_array_equal(params.background_for(pathway), b[i])

    def test_token_of_other_rank_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            FusionParams.zero_update(4, background=np.zeros((3, 4, 1)))

    def test_shared_background_default(self):
        params = FusionParams.seeded(4, seed=1)
        for pathway in PATHWAY_ORDER:
            np.testing.assert_array_equal(params.background_for(pathway), params.background_token)


class TestBackgroundActivationStats:
    def test_reports_all_pathways_for_full_state(self):
        state = FusionState.seeded(6, 8, 2, 2, seed=11)
        params = FusionParams.seeded(6, seed=12)
        stats = background_activation_stats(state, params)
        assert sorted(stats) == sorted(PATHWAY_ORDER)
        for entry in stats.values():
            assert 0.0 <= entry["mean"] <= entry["max"] <= 1.0

    def test_skips_empty_pathways(self):
        state = FusionState(
            features=seeded_rng(0).standard_normal((4, 6)),
            text=np.zeros((0, 6)),
            visual=np.zeros((0, 6)),
        )
        params = FusionParams.seeded(6, seed=13)
        assert background_activation_stats(state, params) == {}


class TestRunLayers:
    def test_equals_wrapper_loop_bit_for_bit(self):
        for per_pathway in (False, True):
            for counts in ((9, 3, 2), (7, 0, 3), (7, 2, 0), (5, 0, 0)):
                state = FusionState.seeded(6, *counts, seed=21)
                layers = [FusionParams.seeded(6, seed=30 + k, per_pathway_background=per_pathway)
                          for k in range(3)]
                out, stats = run_layers(state, layers)
                expected_stats = []
                for params in layers:
                    expected_stats.append(background_activation_stats(state, params))
                    state = fusion_layer(state, params)
                assert stats == expected_stats
                for name in STREAMS:
                    assert np.array_equal(getattr(out, name), getattr(state, name))

    @pytest.mark.parametrize("background", [np.ones(5), np.ones((3, 5))], ids=["shared", "per-pathway"])
    @pytest.mark.parametrize(
        "entry",
        [fusion_layer, background_activation_stats, lambda state, params: run_layers(state, [params])],
        ids=["fusion_layer", "background_activation_stats", "run_layers"],
    )
    def test_background_dim_mismatch_same_error(self, entry, background):
        state = FusionState.seeded(4, 3, 1, 1, seed=0)
        params = FusionParams.zero_update(4, background=background)
        with pytest.raises(ValueError, match=r"^background token dim 5 != state dim 4$"):
            entry(state, params)


def assert_state_close(state, expected):
    # Library and oracle sum in different orders; measure the gap
    # against each stream's largest entry.
    for name in STREAMS:
        got, want = getattr(state, name), expected[name]
        assert got.shape == want.shape
        if want.size:
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def assert_stats_close(stats, expected):
    assert sorted(stats) == sorted(expected)
    for pathway, entry in expected.items():
        for key in ("mean", "max"):
            assert stats[pathway][key] == pytest.approx(entry[key], rel=1e-12, abs=1e-12)


# Weight scales above 0.5 grow the streams to 1e5-1e8 over three layers,
# where softmax round-off alone exceeds the tolerance.
@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(1, 8),
    n_features=st.integers(1, 12),
    n_text=st.integers(0, 5),
    n_visual=st.integers(0, 5),
    per_pathway=st.booleans(),
    n_layers=st.integers(1, 3),
    d_k=st.one_of(st.none(), st.integers(1, 8)),
    hidden=st.one_of(st.none(), st.integers(1, 8)),
    scale=st.floats(0.05, 0.5),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(dim=7, n_features=2, n_text=2, n_visual=2, per_pathway=False, n_layers=3, d_k=None,
         hidden=None, scale=0.4204608128929552, seed=933)
def test_matches_reference_fusion_layer(dim, n_features, n_text, n_visual, per_pathway,
                                        n_layers, d_k, hidden, scale, seed):
    state = FusionState.seeded(dim, n_features, n_text, n_visual, seed=seed)
    layers = [FusionParams.seeded(dim, seed=seed + 1 + k, d_k=d_k, hidden=hidden, scale=scale,
                                  per_pathway_background=per_pathway)
              for k in range(n_layers)]
    expected_stats = []
    stepped = state
    for params in layers:
        # Each layer's oracle gets the streams the library stepped to, so
        # the round-off of earlier layers does not enter the 1e-12 bound.
        expected, layer_stats = reference_fusion_layer(
            {name: getattr(stepped, name) for name in STREAMS}, params)
        expected_stats.append(layer_stats)
        assert_stats_close(background_activation_stats(stepped, params), layer_stats)
        stepped = fusion_layer(stepped, params)
        assert_state_close(stepped, expected)
    out, stats = run_layers(state, layers)
    assert_state_close(out, expected)
    for got, want in zip(stats, expected_stats, strict=True):
        assert_stats_close(got, want)
