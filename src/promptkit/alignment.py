"""Region-level contrastive alignment of visual and text prompt embeddings.

The loss is a symmetric cross-entropy over temperature-scaled cosine
similarities: the mean of the visual-to-text and text-to-visual
directions, each a softmax cross-entropy whose positive is the matching
pair.  Inputs are expected to be unit-normalized so dot products equal
cosines; the loss itself is pure arithmetic on the given vectors (no
re-normalization), which keeps its analytic gradients exactly
checkable by central differences.

Also provides inter-category negative visual prompts (the mean of all
other categories' visual embeddings) and the dataset-aware batch
sampler that keeps every training batch inside one source dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import as_finite, as_int, as_objects, log_softmax_rows, read_json, seeded_rng, unit_rows
from .prompts import PromptEmbedding

DEFAULT_TEMPERATURE = 0.07


@dataclass(frozen=True)
class AlignBatch:
    """K (visual, text) prompt pairs with category and dataset tags."""

    visual: np.ndarray      # (K, d), unit rows
    text: np.ndarray        # (K, d), unit rows
    categories: tuple[str, ...]
    dataset_ids: tuple[str, ...]

    def __post_init__(self):
        v = as_finite(self.visual, "visual embedding matrix", 2)
        t = as_finite(self.text, "text embedding matrix", 2)
        if v.shape != t.shape:
            raise ValueError(f"visual/text shapes must match, got {v.shape} vs {t.shape}")
        k = v.shape[0]
        if k < 1:
            raise ValueError("alignment batch needs at least one pair")
        if len(self.categories) != k or len(self.dataset_ids) != k:
            raise ValueError("categories and dataset_ids must have one entry per pair")
        if any(not c for c in self.categories):
            raise ValueError("categories must be nonempty strings")
        for name, arr in (("visual", v), ("text", t)):
            if not np.allclose(unit_rows(arr, f"a {name} embedding"), arr, atol=1e-6):
                raise ValueError(f"{name} embeddings must be unit-normalized")
        object.__setattr__(self, "visual", v)
        object.__setattr__(self, "text", t)


@dataclass(frozen=True)
class AlignResult:
    loss: float
    grad_visual: np.ndarray
    grad_text: np.ndarray
    grad_negative: np.ndarray | None = None


def _forward(visual, text, temperature: float, negative_visual):
    """Check the inputs and compute the loss and what its gradients need:
    the inputs as float64 arrays, the text-to-visual keys (negatives
    stacked after the K visual rows) and both directions' row
    log-softmax of the temperature-scaled similarities."""
    v = np.asarray(visual, dtype=np.float64)
    t = np.asarray(text, dtype=np.float64)
    if v.ndim != 2 or t.ndim != 2 or v.shape != t.shape:
        raise ValueError(f"visual/text must be matching (K, d) arrays, got {v.shape} vs {t.shape}")
    k = v.shape[0]
    if k < 2:
        raise ValueError("contrastive alignment needs K >= 2 pairs")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    keys = v
    if negative_visual is not None:
        neg = np.asarray(negative_visual, dtype=np.float64)
        if neg.ndim != 2 or neg.shape[1] != v.shape[1]:
            raise ValueError(f"negatives must be (M, {v.shape[1]}), got {neg.shape}")
        keys = np.vstack([v, neg])

    inv_temp = 1.0 / temperature
    # Mean softmax cross-entropy of query i against every key, with key i
    # as its positive, in each direction.
    log_p1 = log_softmax_rows((v @ t.T) * inv_temp)
    log_p2 = log_softmax_rows((t @ keys.T) * inv_temp)
    loss = 0.5 * (-np.trace(log_p1[:, :k]) / k + -np.trace(log_p2[:, :k]) / k)
    return loss, v, t, keys, inv_temp, log_p1, log_p2


def _logit_grad(log_p) -> np.ndarray:
    """d(mean cross-entropy)/d(logits) of one direction."""
    k = log_p.shape[0]
    d = np.exp(log_p)
    d[:, :k] -= np.eye(k)
    d /= k
    return d


def align_loss_value(visual, text, temperature: float = DEFAULT_TEMPERATURE,
                     negative_visual=None) -> float:
    """``align_loss(...).loss`` without the gradients: the same checks,
    the same errors and the same float, bit for bit."""
    return _forward(visual, text, temperature, negative_visual)[0]


def align_loss(visual, text, temperature: float = DEFAULT_TEMPERATURE,
               negative_visual=None) -> AlignResult:
    """Symmetric contrastive loss with analytic gradients.

    ``visual`` and ``text`` are (K, d) with K >= 2.  Optional
    ``negative_visual`` rows are appended as extra keys on the
    text-to-visual side only (they are visual-prompt negatives);
    gradients are returned for them as well.

    All-identical embeddings give exactly ln K; a diagonal-dominant
    similarity matrix gives each direction a loss below ln K.
    """
    loss, v, t, keys, inv_temp, log_p1, log_p2 = _forward(visual, text, temperature,
                                                          negative_visual)
    k = v.shape[0]
    d1 = _logit_grad(log_p1)
    d2 = _logit_grad(log_p2)
    grad2_keys = (d2.T @ t) * inv_temp
    return AlignResult(
        loss=loss,
        grad_visual=0.5 * ((d1 @ t) * inv_temp + grad2_keys[:k]),
        grad_text=0.5 * ((d1.T @ v) * inv_temp + (d2 @ keys) * inv_temp),
        grad_negative=grad2_keys[k:] * 0.5 if negative_visual is not None else None,
    )


def build_negative_prompts(batch: AlignBatch) -> dict[str, PromptEmbedding]:
    """Per-category negative visual prompt: unit-normalized mean of all
    visual embeddings belonging to other categories.

    Computed as (total sum - own-category sum) / count, which equals the
    brute-force mean over the complement exactly.  Requires at least two
    distinct categories.
    """
    cats = sorted(set(batch.categories))
    if len(cats) < 2:
        raise ValueError("negative prompts need at least two distinct categories")
    total = batch.visual.sum(axis=0)
    out = {}
    for cat in cats:
        mask = np.array([c == cat for c in batch.categories])
        others = total - batch.visual[mask].sum(axis=0)
        count = int((~mask).sum())
        vec = unit_rows(others / count, f"negative prompt for category {cat!r}")
        out[cat] = PromptEmbedding(vec=vec, kind="visual", category=cat)
    return out


# ---------------------------------------------------------------------------
# Dataset-aware sampler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplerManifest:
    """Epoch description: (sample_id, dataset_id) entries, batch size, seed."""

    samples: tuple[tuple[str, str], ...]
    batch_size: int
    seed: int

    def __post_init__(self):
        if not self.samples:
            raise ValueError("manifest has no samples")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for sid, ds in self.samples:
            for key, value in (("id", sid), ("dataset", ds)):
                if not isinstance(value, str):
                    raise ValueError(f'sample "{key}" must be a string, got {value!r}')
            if not ds:
                raise ValueError(f"sample {sid!r} has an empty dataset id")

    @classmethod
    def from_dict(cls, obj: dict) -> "SamplerManifest":
        if not isinstance(obj, dict):
            raise ValueError("malformed manifest: not a JSON object")
        try:
            samples = tuple((s["id"], s["dataset"]) for s in as_objects(obj["samples"], "samples"))
            return cls(samples=samples, batch_size=as_int(obj["batch_size"], "batch_size"),
                       seed=as_int(obj["seed"], "seed"))
        except KeyError as exc:
            raise ValueError(f'malformed manifest: no "{exc.args[0]}" key') from exc

    @classmethod
    def from_file(cls, path) -> "SamplerManifest":
        return cls.from_dict(read_json(path, "manifest file"))


@dataclass(frozen=True)
class Batch:
    dataset_id: str
    sample_ids: tuple[str, ...]


def sample_batches(manifest: SamplerManifest) -> list[Batch]:
    """Partition one epoch into single-dataset batches.

    Samples are shuffled within each dataset, chunked (final short batch
    permitted), and the resulting batch list is shuffled so datasets
    interleave proportionally to their size.  Every sample appears
    exactly once; the sequence is a pure function of (manifest, seed).
    """
    by_dataset: dict[str, list[str]] = {}
    for sid, ds in manifest.samples:
        by_dataset.setdefault(ds, []).append(sid)

    rng = seeded_rng(manifest.seed)
    batches: list[Batch] = []
    for ds in sorted(by_dataset):
        ids = by_dataset[ds]
        order = rng.permutation(len(ids))
        shuffled = [ids[i] for i in order]
        for start in range(0, len(shuffled), manifest.batch_size):
            chunk = shuffled[start:start + manifest.batch_size]
            batches.append(Batch(dataset_id=ds, sample_ids=tuple(chunk)))
    mix = rng.permutation(len(batches))
    return [batches[i] for i in mix]
