"""The fusion oracle at shapes where the attention chains change order.

``fusion`` evaluates every attention as a ``numpy.linalg.multi_dot``
chain, whose order follows the token counts and the dim.  With many
more feature tokens than dims (dim 16, 64 features) the features
self-attention logits are ``x ((wq wk^T) x^T)`` and its update
``W (x (wv wo))``, the pattern of the 756-token benchmark step; with
fewer feature tokens than dims (dim 32, 6 features) they flip to
``x (wq (wk^T x^T))`` and ``W ((x wv) wo)``.  Both must agree with the
per-row oracle at the same 1e-12 bounds as the property test.
"""

import pytest

from oracles import reference_fusion_layer
from promptkit.fusion import FusionParams, FusionState, STREAMS, run_layers
from test_fusion import assert_state_close, assert_stats_close


@pytest.mark.parametrize("per_pathway", [False, True], ids=["shared", "per-pathway"])
@pytest.mark.parametrize("dim, n_features", [(16, 64), (32, 6)],
                         ids=["features-over-dim", "features-under-dim"])
def test_matches_reference_fusion_layer(dim, n_features, per_pathway):
    state = FusionState.seeded(dim, n_features, n_text=2, n_visual=3, seed=41)
    layers = [FusionParams.seeded(dim, seed=42 + k, per_pathway_background=per_pathway)
              for k in range(3)]
    out, stats = run_layers(state, layers)
    stepped = state
    for params, layer_stats in zip(layers, stats, strict=True):
        # Each layer's oracle gets the streams the library stepped to.
        expected, expected_stats = reference_fusion_layer(
            {name: getattr(stepped, name) for name in STREAMS}, params)
        assert_stats_close(layer_stats, expected_stats)
        stepped = run_layers(stepped, [params])[0]
        assert_state_close(stepped, expected)
    assert_state_close(out, expected)
