"""Early fusion of prompt and feature streams via gated cross-attention.

A fusion layer runs, in order: residual self-attention on each stream,
then three residual cross-attention pathways computed from the
post-self-attention snapshot (text updated from features, visual
updated from features, features updated from visual prompts), then a
residual feed-forward block per stream.  Every cross-attention appends
a learnable background vector as an extra key/value row so that a query
dissimilar to all keys attends to the background instead of
reconstructing its nearest key.  ``run_layers`` reads each layer's
background attention mass off the same pass that updates the streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .numeric import as_finite, seeded_rng, softmax_rows

STREAMS = ("features", "text", "visual")

# Pathway name -> (query stream, key/value stream), in run order; the
# name is the stream being updated.
PATHWAYS = {
    "text": ("text", "features"),
    "visual": ("visual", "features"),
    "features": ("features", "visual"),
}
PATHWAY_ORDER = tuple(PATHWAYS)


def gated_attn(q, k, v, background, d_k: int):
    """Scaled dot-product attention with a background key/value row.

    The background vector is appended as one extra row to both keys and
    values; logits are scaled by 1/sqrt(d_k) and softmaxed per query
    row.  Returns ``(output, background_weight)`` where the second item
    is the softmax mass each query assigned to the background row.  It
    runs the fusion layers' kernel with identity projections.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    b = np.asarray(background, dtype=np.float64)
    if k.shape[0] != v.shape[0]:
        raise ValueError(f"key/value row mismatch: {k.shape[0]} vs {v.shape[0]}")
    if k.shape[0] == 0:
        raise ValueError("gated attention requires at least one key row")
    if d_k <= 0:
        raise ValueError("d_k must be positive")
    eye = np.eye(b.shape[-1])
    return _token_attention(q, k, v, AttnWeights(eye, eye, eye, eye), d_k, b)


@dataclass(frozen=True)
class AttnWeights:
    """Query/key/value/output projections of one attention block."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray

    @classmethod
    def seeded(cls, dim: int, rng, scale: float) -> "AttnWeights":
        return cls(*(scale * rng.standard_normal((dim, dim)) for _ in range(4)))

    @classmethod
    def zeros(cls, dim: int) -> "AttnWeights":
        return cls(*(np.zeros((dim, dim)) for _ in range(4)))


@dataclass(frozen=True)
class FfnWeights:
    """Two-layer feed-forward block with ReLU."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @classmethod
    def seeded(cls, dim: int, hidden: int, rng, scale: float) -> "FfnWeights":
        return cls(
            w1=scale * rng.standard_normal((dim, hidden)),
            b1=np.zeros(hidden),
            w2=scale * rng.standard_normal((hidden, dim)),
            b2=np.zeros(dim),
        )

    @classmethod
    def zeros(cls, dim: int, hidden: int) -> "FfnWeights":
        return cls(np.zeros((dim, hidden)), np.zeros(hidden), np.zeros((hidden, dim)), np.zeros(dim))

    def apply(self, x: np.ndarray) -> np.ndarray:
        h = x @ self.w1
        h += self.b1
        np.maximum(h, 0.0, out=h)
        out = h @ self.w2
        out += self.b2
        return out


@dataclass(frozen=True)
class FusionParams:
    """One fusion layer's weights.

    The shape of ``background_token`` decides how it is used: a (d,)
    token is shared by all three pathways, and a (3, d) token gives one
    row per pathway in PATHWAY_ORDER.
    """

    d_k: int
    background_token: np.ndarray
    self_attn: Mapping[str, AttnWeights]
    cross_attn: Mapping[str, AttnWeights]
    ffn: Mapping[str, FfnWeights]

    def __post_init__(self):
        if self.d_k <= 0:
            raise ValueError("d_k must be positive")
        per_pathway = np.ndim(self.background_token) == 2
        kind = "per-pathway" if per_pathway else "shared"
        b = as_finite(self.background_token, f"{kind} background token", 2 if per_pathway else 1)
        if per_pathway and b.shape[0] != len(PATHWAY_ORDER):
            raise ValueError(f"per-pathway background needs shape (3, d), got {b.shape}")
        object.__setattr__(self, "background_token", b)
        for name in STREAMS:
            if name not in self.self_attn or name not in self.ffn:
                raise ValueError(f"missing self-attention or FFN weights for stream {name!r}")
        for name in PATHWAY_ORDER:
            if name not in self.cross_attn:
                raise ValueError(f"missing cross-attention weights for pathway {name!r}")

    def background_for(self, pathway: str) -> np.ndarray:
        b = self.background_token
        return b[PATHWAY_ORDER.index(pathway)] if b.ndim == 2 else b

    @classmethod
    def seeded(cls, dim: int, seed: int, d_k: int | None = None, hidden: int | None = None,
               scale: float = 0.2, per_pathway_background: bool = False) -> "FusionParams":
        """Random weights; ``per_pathway_background`` draws a (3, d) token."""
        d_k = dim if d_k is None else d_k
        hidden = 2 * dim if hidden is None else hidden
        if hidden < 1:
            raise ValueError("hidden must be positive")
        rng = seeded_rng(seed)
        background = (
            rng.standard_normal((len(PATHWAY_ORDER), dim))
            if per_pathway_background
            else rng.standard_normal(dim)
        )
        return cls(
            d_k=d_k,
            background_token=background,
            self_attn={s: AttnWeights.seeded(dim, rng, scale) for s in STREAMS},
            cross_attn={p: AttnWeights.seeded(dim, rng, scale) for p in PATHWAY_ORDER},
            ffn={s: FfnWeights.seeded(dim, hidden, rng, scale) for s in STREAMS},
        )

    @classmethod
    def zero_update(cls, dim: int, background=None, d_k: int | None = None) -> "FusionParams":
        """All projections zero: fusion_layer becomes the identity."""
        return cls(
            d_k=dim if d_k is None else d_k,
            background_token=np.zeros(dim) if background is None else background,
            self_attn={s: AttnWeights.zeros(dim) for s in STREAMS},
            cross_attn={p: AttnWeights.zeros(dim) for p in PATHWAY_ORDER},
            ffn={s: FfnWeights.zeros(dim, 2 * dim) for s in STREAMS},
        )


@dataclass(frozen=True)
class FusionState:
    """Token matrices of the three streams; all share one feature dim."""

    features: np.ndarray
    text: np.ndarray
    visual: np.ndarray

    def __post_init__(self):
        dims = set()
        for name in STREAMS:
            arr = as_finite(getattr(self, name), f"{name} stream", 2)
            dims.add(arr.shape[1])
            object.__setattr__(self, name, arr)
        if len(dims) != 1:
            raise ValueError(f"streams disagree on feature dim: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    def counts(self) -> dict:
        return {name: int(getattr(self, name).shape[0]) for name in STREAMS}

    @classmethod
    def seeded(cls, dim: int, n_features: int, n_text: int, n_visual: int, seed: int) -> "FusionState":
        rng = seeded_rng(seed)
        return cls(
            features=rng.standard_normal((n_features, dim)),
            text=rng.standard_normal((n_text, dim)),
            visual=rng.standard_normal((n_visual, dim)),
        )


def _token_attention(xq: np.ndarray, xk: np.ndarray, xv: np.ndarray, w: AttnWeights, d_k: int,
                     background: np.ndarray | None = None):
    """Attention of the tokens ``xq`` over the keys ``xk`` and values ``xv``
    through the projections ``w``: ``(update after wo, background weights
    or None)``.  Every attention in this module runs here.

    Every product is one matrix chain from the raw tokens and weights,
    and ``multi_dot`` evaluates it in the cheapest order for the shapes:
    few queries against many keys never project the keys, and many
    queries against few keys never project the queries.  A background
    vector, when given, is one more raw key and value row: its logit is
    one more softmax column.
    """
    wq = w.wq / np.sqrt(float(d_k))
    logits = np.linalg.multi_dot([xq, wq, w.wk.T, xk.T])
    if background is None:
        return np.linalg.multi_dot([softmax_rows(logits), xv, w.wv, w.wo]), None
    weights = softmax_rows(np.column_stack([logits, np.linalg.multi_dot([xq, wq, background])]))
    bg = weights[:, -1]
    update = np.linalg.multi_dot([weights[:, :-1], xv, w.wv, w.wo])
    update += np.outer(bg, background @ w.wo)
    return update, bg


def _attend(state: FusionState, params: FusionParams) -> tuple[dict, dict]:
    """Self- then cross-attention of one layer: the streams after it, and
    the mean/max background attention mass of each pathway that ran."""
    b_dim = params.background_token.shape[-1]
    if b_dim != state.dim:
        raise ValueError(f"background token dim {b_dim} != state dim {state.dim}")
    snapshot = {}
    for name in STREAMS:
        x = getattr(state, name)
        if x.shape[0]:
            update, _ = _token_attention(x, x, x, params.self_attn[name], params.d_k)
            update += x
            x = update
        snapshot[name] = x
    streams = dict(snapshot)
    stats = {}
    for pathway in PATHWAY_ORDER:
        q_name, kv_name = PATHWAYS[pathway]
        q_tokens = snapshot[q_name]
        kv_tokens = snapshot[kv_name]
        if q_tokens.shape[0] == 0 or kv_tokens.shape[0] == 0:
            continue
        update, bg = _token_attention(q_tokens, kv_tokens, kv_tokens, params.cross_attn[pathway],
                                      params.d_k, params.background_for(pathway))
        update += q_tokens
        streams[pathway] = update
        stats[pathway] = {"mean": float(bg.mean()), "max": float(bg.max())}
    return streams, stats


def fusion_layer(state: FusionState, params: FusionParams) -> FusionState:
    """Apply one early-fusion layer; token counts and dims are preserved.

    Pathways whose query or key stream is empty are skipped, leaving
    the remaining pathways identical to a run without that stream.
    """
    return run_layers(state, (params,))[0]


def background_activation_stats(state: FusionState, params: FusionParams) -> dict:
    """Mean/max background attention mass per pathway for one layer.

    Pathways skipped for empty streams are omitted from the result.
    """
    return _attend(state, params)[1]


def run_layers(state: FusionState, layers: Iterable[FusionParams]) -> tuple[FusionState, list[dict]]:
    """Apply ``layers`` in order, one pass each: the final state, and each
    layer's ``background_activation_stats`` read off that same pass."""
    stats = []
    for params in layers:
        streams, layer_stats = _attend(state, params)
        stats.append(layer_stats)
        state = FusionState(**{
            name: x + params.ffn[name].apply(x) if x.shape[0] else x
            for name, x in streams.items()
        })
    return state, stats
