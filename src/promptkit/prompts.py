"""Visual and text prompt embeddings.

A visual prompt is encoded by iteratively refining a learnable query
through layers of simplified single-head deformable attention over a
feature pyramid: each layer predicts sampling offsets from the current
query, bilinearly samples the paired pyramid level, combines the
samples by softmax attention weights, projects, and adds a (gated)
residual.  Text prompts come from a pluggable embedding provider: a
JSON-file lookup, a deterministic hash fallback, or a constant vector.
A provider's ``embed(tag)`` returns a unit vector.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numeric import as_finite, bilinear_sample, seeded_rng, softmax_rows, unit_rows

DEFAULT_DIM = 256


@dataclass(frozen=True)
class FeatureMap:
    """Multi-level grid of d-dimensional feature vectors.

    ``levels`` holds between 1 and 8 arrays of shape (h, w, dim); all
    levels share one feature dimension and must be finite.
    """

    levels: tuple[np.ndarray, ...]
    dim: int

    def __post_init__(self):
        if not 1 <= len(self.levels) <= 8:
            raise ValueError(f"feature map needs 1..8 levels, got {len(self.levels)}")
        levels = tuple(as_finite(lvl, f"level {i}", 3) for i, lvl in enumerate(self.levels))
        for i, lvl in enumerate(levels):
            if lvl.shape[0] < 1 or lvl.shape[1] < 1:
                raise ValueError(f"level {i} must be nonempty, got shape {lvl.shape}")
            if lvl.shape[2] != self.dim:
                raise ValueError(f"level {i} has dim {lvl.shape[2]}, expected {self.dim}")
        object.__setattr__(self, "levels", levels)

    @classmethod
    def from_arrays(cls, arrays) -> "FeatureMap":
        levels = tuple(arrays)
        if not levels:
            raise ValueError("feature map needs at least one level")
        first = as_finite(levels[0], "level 0", 3)
        return cls(levels=(first, *levels[1:]), dim=first.shape[2])

    @classmethod
    def random(cls, shapes, dim: int, seed: int) -> "FeatureMap":
        rng = seeded_rng(seed)
        return cls.from_arrays([rng.standard_normal((h, w, dim)) for h, w in shapes])

    @classmethod
    def constant(cls, shapes, vector) -> "FeatureMap":
        vec = np.asarray(vector)
        return cls.from_arrays([np.broadcast_to(vec, (h, w, vec.size)).copy() for h, w in shapes])


@dataclass(frozen=True)
class PromptEmbedding:
    """One visual or text prompt vector, optionally tagged with a category."""

    vec: np.ndarray
    kind: str
    category: str | None = None

    def __post_init__(self):
        if self.kind not in ("visual", "text"):
            raise ValueError(f"kind must be 'visual' or 'text', got {self.kind!r}")
        v = as_finite(self.vec, f"{self.kind} embedding", 1)
        if v.size == 0:
            raise ValueError(f"{self.kind} embedding must be nonempty, got shape {v.shape}")
        object.__setattr__(self, "vec", v)

    @property
    def dim(self) -> int:
        return int(self.vec.size)


def normalize(p: PromptEmbedding) -> PromptEmbedding:
    """Return a copy scaled to unit L2 norm; rejects the zero vector."""
    return PromptEmbedding(vec=unit_rows(p.vec, f"{p.kind} embedding"), kind=p.kind,
                           category=p.category)


@dataclass(frozen=True)
class DeformAttnParams:
    """Parameters of the layered deformable-attention prompt encoder.

    One set of projection matrices is shared across layers.  Layer l
    (1-based) reads pyramid level ((l - 1) mod n_levels), which pairs
    layer l with level l exactly when layer_count equals the level
    count.  Sampling offsets are a linear map of the current query,
    scaled by the level's (width, height).
    """

    n_points: int
    offset_weights: np.ndarray   # (2 * n_points, d) -> per-point (dx, dy)
    attn_weights: np.ndarray     # (n_points, d) -> softmax logits
    value_proj: np.ndarray       # (d, d)
    output_proj: np.ndarray      # (d, d)
    layer_count: int
    residual_gate: float = 1.0

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        if self.layer_count < 1:
            raise ValueError("layer_count must be >= 1")
        d = self.value_proj.shape[0]
        expected = {
            "offset_weights": (2 * self.n_points, d),
            "attn_weights": (self.n_points, d),
            "value_proj": (d, d),
            "output_proj": (d, d),
        }
        for name, shape in expected.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} must have shape {shape}, got {got}")

    @property
    def dim(self) -> int:
        return int(self.value_proj.shape[0])

    @classmethod
    def seeded(cls, dim: int, layer_count: int, n_points: int = 4,
               seed: int = 0, scale: float = 0.1) -> "DeformAttnParams":
        rng = seeded_rng(seed)
        return cls(
            n_points=n_points,
            offset_weights=scale * rng.standard_normal((2 * n_points, dim)),
            attn_weights=scale * rng.standard_normal((n_points, dim)),
            value_proj=scale * rng.standard_normal((dim, dim)),
            output_proj=scale * rng.standard_normal((dim, dim)),
            layer_count=layer_count,
        )

    @classmethod
    def identity(cls, dim: int, layer_count: int = 1, n_points: int = 1,
                 residual_gate: float = 0.0) -> "DeformAttnParams":
        """Zero offsets, identity projections: each layer returns its sample."""
        return cls(
            n_points=n_points,
            offset_weights=np.zeros((2 * n_points, dim)),
            attn_weights=np.zeros((n_points, dim)),
            value_proj=np.eye(dim),
            output_proj=np.eye(dim),
            layer_count=layer_count,
            residual_gate=residual_gate,
        )


def encode_visual_prompt(
    fm: FeatureMap,
    params: DeformAttnParams,
    init_query: PromptEmbedding,
    ref_point: tuple[float, float],
    trace: list | None = None,
) -> PromptEmbedding:
    """Refine a query embedding over the pyramid, one level per layer.

    Deterministic: identical inputs produce bitwise-identical outputs.
    When ``trace`` is a list, a record per layer is appended with the
    level index, attention weights, raw samples, and their convex
    combination (used by convexity checks and diagnostics).
    """
    if params.dim != fm.dim or init_query.dim != fm.dim:
        raise ValueError(
            f"dimension mismatch: features {fm.dim}, params {params.dim}, query {init_query.dim}"
        )
    rx, ry = float(ref_point[0]), float(ref_point[1])
    if not (0.0 <= rx <= 1.0 and 0.0 <= ry <= 1.0):
        raise ValueError(f"reference point must lie in [0,1]^2, got ({rx}, {ry})")

    v = init_query.vec.copy()
    n_levels = len(fm.levels)
    for layer in range(1, params.layer_count + 1):
        level_idx = (layer - 1) % n_levels
        level = fm.levels[level_idx]
        h, w, _ = level.shape
        raw = (params.offset_weights @ v).reshape(params.n_points, 2)
        offsets = raw / np.array([w, h], dtype=np.float64)
        weights = softmax_rows((params.attn_weights @ v)[None, :])[0]
        samples = np.stack([
            bilinear_sample(level, rx + dx, ry + dy) for dx, dy in offsets
        ])
        combined = weights @ samples
        if trace is not None:
            trace.append({
                "level": level_idx,
                "weights": weights,
                "samples": samples,
                "combined": combined,
            })
        v = params.residual_gate * v + params.output_proj @ (params.value_proj @ combined)
    return PromptEmbedding(vec=v, kind="visual", category=init_query.category)


# ---------------------------------------------------------------------------
# Text embedding providers
# ---------------------------------------------------------------------------


def _hash_unit_vector(tag: str, dim: int) -> np.ndarray:
    # Stable across processes: seed from SHA-256 of the tag bytes, never
    # from Python's salted hash().
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    return unit_rows(np.random.default_rng(seed).standard_normal(dim),
                     f"hash vector for tag {tag!r}")


@dataclass(frozen=True)
class HashEmbeddings:
    """Deterministic pseudo-random unit vector per tag, seeded by tag bytes."""

    dim: int = DEFAULT_DIM

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"embedding dimension must be >= 1, got {self.dim}")

    def embed(self, tag: str) -> np.ndarray:
        return _hash_unit_vector(tag, self.dim)


@dataclass(frozen=True)
class ConstantEmbeddings:
    """Every tag maps to the same unit vector (all pairs perfectly similar)."""

    dim: int = DEFAULT_DIM

    def embed(self, tag: str) -> np.ndarray:
        v = np.zeros(self.dim)
        v[0] = 1.0
        return v


@dataclass(frozen=True)
class FileEmbeddings:
    """Lookup table loaded from a JSON object mapping tag -> float array.

    All stored arrays must share one length; a parse error or ragged
    dimensions fail at load time.  Lookups are L2-normalized.  Unknown
    tags raise unless ``fallback`` is set, in which case a deterministic
    hash vector of the same dimension is returned.
    """

    table: dict = field(repr=False)
    dim: int
    fallback: bool = False

    @classmethod
    def from_file(cls, path, fallback: bool = False) -> "FileEmbeddings":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"embedding file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict) or not raw:
            raise ValueError(f"embedding file {path} must be a nonempty JSON object")
        table = {}
        dim = None
        for tag, values in raw.items():
            vec = as_finite(values, f"embedding for tag {tag!r}", 1)
            if vec.size == 0:
                raise ValueError(f"embedding for tag {tag!r} must be nonempty, got shape {vec.shape}")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise ValueError(
                    f"embedding for tag {tag!r} has length {vec.size}, expected {dim}"
                )
            table[tag] = vec
        return cls(table=table, dim=int(dim), fallback=fallback)

    def embed(self, tag: str) -> np.ndarray:
        vec = self.table.get(tag)
        if vec is None:
            if self.fallback:
                return _hash_unit_vector(tag, self.dim)
            raise KeyError(f"unknown tag {tag!r} and hash fallback is disabled")
        return unit_rows(vec, f"stored embedding for tag {tag!r}")


def provide_text_embedding(tag: str, provider) -> PromptEmbedding:
    """The provider's unit vector for a tag as a text embedding."""
    return PromptEmbedding(vec=provider.embed(tag), kind="text", category=tag)
