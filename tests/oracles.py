"""Independent brute-force references and synthetic fixture builders.

Nothing here may share code with the library paths it checks: the
Kendall oracle counts pair signs in pure Python, the assignment oracle
enumerates permutations, the fusion oracle softmaxes one query row at
a time, and box/mask fixtures are built from scratch.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from promptkit.engine import AnnotationSet, Instance


def row_loop(f):
    """A function of one parameter vector as ``finite_diff_grad`` takes it:
    ``f`` on each row of a chunk of points, one value per row."""
    return lambda points: [f(p) for p in points]


def brute_force_kendall(a, b) -> tuple[float, int, int]:
    """Pairwise sign count over all i > j; ties add to neither side."""
    n = len(a)
    concordant = 0
    discordant = 0
    for i in range(n):
        for j in range(i):
            da = a[i] - a[j]
            db = b[i] - b[j]
            s = int(da > 0) - int(da < 0)
            t = int(db > 0) - int(db < 0)
            if s * t > 0:
                concordant += 1
            elif s * t < 0:
                discordant += 1
    tau = (concordant - discordant) / (n * (n - 1) / 2)
    return tau, concordant, discordant


def brute_force_assignment(cost) -> tuple[dict[int, int], float]:
    """Exhaustive minimum-cost assignment with lexicographic tie-break.

    The tie-break key is the per-row column sequence with unassigned
    rows sorting last (infinity), matching the library contract.
    """
    c = np.asarray(cost, dtype=np.float64)
    n_rows, n_cols = c.shape
    best_total = None
    best_key = None
    best_map = None
    if n_rows <= n_cols:
        candidates = (
            ({i: p[i] for i in range(n_rows)}, p)
            for p in itertools.permutations(range(n_cols), n_rows)
        )
    else:
        candidates = (
            ({rows[j]: j for j in range(n_cols)}, None)
            for rows in itertools.permutations(range(n_rows), n_cols)
        )
    for amap, _ in candidates:
        total = sum(c[i, j] for i, j in amap.items())
        key = tuple(amap.get(i, math.inf) for i in range(n_rows))
        if (
            best_total is None
            or total < best_total
            or (total == best_total and key < best_key)
        ):
            best_total = total
            best_key = key
            best_map = dict(amap)
    return best_map, float(best_total)


def top_k_by_sum(text, visual, k) -> list[int]:
    """Sort oracle for query selection: stable sort on (-combined, index)."""
    combined = [0.5 * t + 0.5 * v for t, v in zip(text, visual)]
    order = sorted(range(len(combined)), key=lambda i: (-combined[i], i))
    return order[:k]


# (query stream, key/value stream) of each gated cross-attention pathway,
# in application order; a (3, d) background token has one row per entry.
FUSION_PATHWAYS = (("text", "features"), ("visual", "features"), ("features", "visual"))


def _attend_rows(queries, keys, values, d_k):
    """Softmax attention one query row at a time; returns the outputs
    and, per query, its list of weights over the key rows."""
    outputs = np.zeros((len(queries), values.shape[1]))
    weights = []
    for i, q in enumerate(queries):
        logits = [float(np.dot(q, k)) / math.sqrt(d_k) for k in keys]
        top = max(logits)
        exps = [math.exp(x - top) for x in logits]
        total = sum(exps)
        row = [e / total for e in exps]
        for w, v in zip(row, values):
            outputs[i] += w * v
        weights.append(row)
    return outputs, weights


def reference_fusion_layer(streams, params):
    """One early-fusion layer written out with explicit per-row softmax.

    ``streams`` maps "features"/"text"/"visual" to (n, d) arrays;
    ``params`` is read for its raw arrays only.  Returns the new streams
    and, per pathway that ran, the mean/max background attention mass.
    """
    background = np.asarray(params.background_token, dtype=np.float64)
    snapshot = {}
    for name, x in streams.items():
        if len(x):
            w = params.self_attn[name]
            out, _ = _attend_rows(x @ w.wq, x @ w.wk, x @ w.wv, params.d_k)
            x = x + out @ w.wo
        snapshot[name] = x
    updated = dict(snapshot)
    stats = {}
    for row, (q_name, kv_name) in enumerate(FUSION_PATHWAYS):
        q, kv = snapshot[q_name], snapshot[kv_name]
        if len(q) == 0 or len(kv) == 0:
            continue
        w = params.cross_attn[q_name]
        b = background[row] if background.ndim == 2 else background
        out, weights = _attend_rows(
            q @ w.wq, np.vstack([kv @ w.wk, b]), np.vstack([kv @ w.wv, b]), params.d_k)
        updated[q_name] = q + out @ w.wo
        mass = [ws[-1] for ws in weights]
        stats[q_name] = {"mean": sum(mass) / len(mass), "max": max(mass)}
    for name, x in updated.items():
        if len(x):
            f = params.ffn[name]
            updated[name] = x + np.maximum(x @ f.w1 + f.b1, 0.0) @ f.w2 + f.b2
    return updated, stats


def random_valid_box(rng) -> np.ndarray:
    x1, y1 = rng.uniform(0.0, 0.6, size=2)
    w, h = rng.uniform(0.05, 0.35, size=2)
    return np.array([x1, y1, min(x1 + w, 1.0), min(y1 + h, 1.0)])


def make_annotation_pair(image_id: str, rng) -> tuple[AnnotationSet, AnnotationSet]:
    """One synthetic image: top-down boxes plus a bottom-up copy with
    jittered geometry and a mix of matching and divergent tags."""
    n = int(rng.integers(1, 7))
    top, bottom = [], []
    for j in range(n):
        box = random_valid_box(rng)
        tag = f"tag{int(rng.integers(0, 12)):02d}"
        top.append(Instance(box, tag, float(rng.uniform(0.5, 1.0))))
        # Jitter scale decides whether the pair survives an IoU gate.
        scale = 0.01 if rng.random() < 0.6 else 0.15
        jit = box + rng.uniform(-scale, scale, size=4)
        jit = np.clip(jit, 0.0, 1.0)
        jit = np.array([
            min(jit[0], jit[2]), min(jit[1], jit[3]),
            max(jit[0], jit[2]), max(jit[1], jit[3]),
        ])
        other = tag if rng.random() < 0.55 else f"tag{int(rng.integers(0, 12)):02d}"
        bottom.append(Instance(jit, other, float(rng.uniform(0.5, 1.0))))
    a = AnnotationSet(image_id, 640, 480, "top_down", tuple(top))
    b = AnnotationSet(image_id, 640, 480, "bottom_up", tuple(bottom))
    return a, b


def make_annotation_fixture(n_images: int, seed: int):
    rng = np.random.default_rng(seed)
    return [make_annotation_pair(f"img{i:04d}", rng) for i in range(n_images)]
