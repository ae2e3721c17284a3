"""Independent output checks for the benchmark workloads.

Nothing here imports promptkit: every expected value is recomputed
from the inputs with numpy and scipy, or is a property the output must
have.  Each ``check_*`` function returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import logsumexp
from scipy.stats import kendalltau

# promptkit's documented defaults for verify and the composite loss.
IOU_GATE = 0.5
SIM_THRESHOLD = 0.6
CLS_WEIGHT, L1_WEIGHT, GIOU_WEIGHT = 2.0, 5.0, 2.0
ALIGN_TEMPERATURE = 0.07
# The gradcheck align scenario packs K visual and K text vectors of 16
# coordinates each.
ALIGN_DIM = 16

# A gate or threshold decision this close to the boundary may go either
# way under different (correct) floating-point evaluation orders.
DECISION_MARGIN = 1e-9


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Box geometry
# ---------------------------------------------------------------------------


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of corner-form boxes (n, 4) x (m, 4)."""
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    same = np.all(a[:, None, :] == b[None, :, :], axis=2)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(union > 0.0, inter / union, np.where(same, 1.0, 0.0))


def giou_loss_matrix(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pairwise 1 - GIoU of corner-form boxes (n, 4) x (m, 4)."""
    iw = np.minimum(p[:, None, 2], g[None, :, 2]) - np.maximum(p[:, None, 0], g[None, :, 0])
    ih = np.minimum(p[:, None, 3], g[None, :, 3]) - np.maximum(p[:, None, 1], g[None, :, 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_p = (p[:, 2] - p[:, 0]) * (p[:, 3] - p[:, 1])
    area_g = (g[:, 2] - g[:, 0]) * (g[:, 3] - g[:, 1])
    union = area_p[:, None] + area_g[None, :] - inter
    cw = np.maximum(p[:, None, 2], g[None, :, 2]) - np.minimum(p[:, None, 0], g[None, :, 0])
    ch = np.maximum(p[:, None, 3], g[None, :, 3]) - np.minimum(p[:, None, 1], g[None, :, 1])
    enclose = cw * ch
    giou = inter / union - (enclose - union) / enclose
    return 1.0 - giou


# ---------------------------------------------------------------------------
# verify-dense
# ---------------------------------------------------------------------------


def _load_instances(path: Path) -> list[dict]:
    return json.loads(path.read_text())["instances"]


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def expected_gated_pairs(top: list[dict], bottom: list[dict]) -> list[tuple[int, int, float]]:
    """(top index, bottom index, IoU) of every matched pair at or above the gate.

    Any minimum-cost assignment gives this same set when the pairs of
    positive IoU form a matching, which the fixture guarantees by
    placing every box in its own grid cell; that property is verified
    here, so a fixture without it is reported instead of mis-checked.
    """
    a = np.array([inst["box"] for inst in top], dtype=np.float64)
    b = np.array([inst["box"] for inst in bottom], dtype=np.float64)
    overlaps = iou_matrix(a, b)
    positive = overlaps > 0.0
    if positive.sum(axis=0).max() > 1 or positive.sum(axis=1).max() > 1:
        raise ValueError("positive-IoU pairs do not form a matching; gated set not unique")
    rows, cols = linear_sum_assignment(1.0 - overlaps)
    return [(int(r), int(c), float(overlaps[r, c])) for r, c in zip(rows, cols)
            if overlaps[r, c] >= IOU_GATE - DECISION_MARGIN]


def check_verify_image(top: list[dict], bottom: list[dict], table: dict,
                       retained: list[dict]) -> list[str]:
    """Check one image's retained instances against an independent recomputation."""
    problems = []
    by_box = {tuple(inst["box"]): k for k, inst in enumerate(top)}
    got = []
    for inst in retained:
        k = by_box.get(tuple(inst["box"]))
        if k is None:
            return [f"retained box {inst['box']} is not a top-down box"]
        got.append(k)
    if got != sorted(set(got)):
        problems.append(f"retained instances not unique and in top-down order: {got}")
    got_by_index = dict(zip(got, retained))
    required, allowed = set(), set()
    for i, j, overlap in expected_gated_pairs(top, bottom):
        tag_a, tag_b = top[i]["tag"], bottom[j]["tag"]
        if tag_a in table and tag_b in table:
            sim = float(np.clip(_unit(table[tag_a]) @ _unit(table[tag_b]), -1.0, 1.0))
        elif tag_a == tag_b:
            sim = 1.0  # one fallback vector against itself
        else:
            sim = None  # fallback vector the checker cannot derive
        if sim is None or abs(sim - SIM_THRESHOLD) < DECISION_MARGIN \
                or abs(overlap - IOU_GATE) < DECISION_MARGIN:
            allowed.add(i)
        elif sim >= SIM_THRESHOLD:
            required.add(i)
            allowed.add(i)
        inst = got_by_index.get(i)
        if inst is None:
            continue
        if inst["tag"] != tag_a or inst["score"] != top[i]["score"]:
            problems.append(f"instance {i}: tag/score differ from the top-down instance")
        if sim is not None and not abs(inst["similarity"] - sim) <= 1e-12:
            problems.append(f"instance {i}: similarity {inst['similarity']} != {sim}")
        if not SIM_THRESHOLD - DECISION_MARGIN <= inst["similarity"] <= 1.0 + 1e-12:
            problems.append(f"instance {i}: similarity {inst['similarity']} below threshold")
        if inst.get("alias_tag") != (tag_b if tag_b != tag_a else None):
            problems.append(f"instance {i}: alias_tag {inst.get('alias_tag')!r} for {tag_a!r}/{tag_b!r}")
    if required - set(got):
        problems.append(f"instances {sorted(required - set(got))} should have been retained")
    if set(got) - allowed:
        problems.append(f"instances {sorted(set(got) - allowed)} should have been dropped")
    return problems


AGGREGATE_SUMS = ("input_a", "input_b", "matched", "retained")


def check_verify(dir_a: Path, dir_b: Path, emb: Path, out_dir: Path, report: Path) -> list[str]:
    """Check one ``promptkit verify`` run: its report and its ``--out`` files."""
    table = json.loads(Path(emb).read_text())
    doc = json.loads(Path(report).read_text())
    problems = []
    if doc["errors"] or doc["unpaired"]:
        problems.append(f"errors {doc['errors'][:3]} unpaired {doc['unpaired'][:3]}")
    ids = sorted(p.stem for p in Path(dir_a).glob("*.json"))
    reports = {r["image_id"]: r for r in doc["images"]}
    if sorted(reports) != ids:
        problems.append(f"report covers {len(reports)} images, fixture has {len(ids)}")
    written = sorted(p.stem for p in Path(out_dir).glob("*.json"))
    if written != ids:
        problems.append(f"--out holds {len(written)} files, expected {len(ids)}")
    for image_id in ids:
        if image_id not in reports or image_id not in written:
            continue
        top = _load_instances(Path(dir_a) / f"{image_id}.json")
        bottom = _load_instances(Path(dir_b) / f"{image_id}.json")
        retained = _load_instances(Path(out_dir) / f"{image_id}.json")
        rep = reports[image_id]
        counts = {"input_a": len(top), "input_b": len(bottom),
                  "matched": min(len(top), len(bottom)), "retained": len(retained)}
        for key, value in counts.items():
            if rep[key] != value:
                problems.append(f"{image_id}: report {key}={rep[key]}, expected {value}")
        problems += [f"{image_id}: {p}" for p in check_verify_image(top, bottom, table, retained)]
    agg = doc["aggregate"]
    if agg["images"] != len(doc["images"]):
        problems.append(f"aggregate images {agg['images']} != {len(doc['images'])}")
    for key in AGGREGATE_SUMS:
        total = sum(r[key] for r in doc["images"])
        if agg[key] != total:
            problems.append(f"aggregate {key} {agg[key]} != per-image sum {total}")
    return problems


def gate_pass_ratio(report: Path) -> float:
    """Share of matched pairs that passed the IoU gate, from a verify report:
    every gated pair lands in exactly one bin of the before-histogram."""
    agg = json.loads(Path(report).read_text())["aggregate"]
    return sum(agg["similarity_histogram_before"]) / agg["matched"]


# ---------------------------------------------------------------------------
# train-step
# ---------------------------------------------------------------------------


def _cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a / np.linalg.norm(a, axis=1, keepdims=True)) @ \
        (b / np.linalg.norm(b, axis=1, keepdims=True)).T


def order_surrogate(t: np.ndarray, v: np.ndarray, block: int = 512) -> float:
    """-sum_{i>j} tanh(t_i - t_j) tanh(v_i - v_j) / (N(N-1)/2), summed
    over the strictly lower triangle of the full difference matrices."""
    n = t.size
    total = 0.0
    for start in range(0, n, block):
        rows = np.arange(start, min(start + block, n))
        prod = np.tanh(t[rows, None] - t[None, :]) * np.tanh(v[rows, None] - v[None, :])
        total += float(prod[np.arange(n)[None, :] < rows[:, None]].sum())
    return -total / (n * (n - 1) / 2.0)


def info_nce(visual: np.ndarray, text: np.ndarray, temperature: float) -> float:
    """Symmetric InfoNCE: mean of the visual->text and text->visual
    cross-entropies whose positives are the diagonal."""
    s = visual @ text.T / temperature
    v2t = np.mean(logsumexp(s, axis=1) - np.diag(s))
    t2v = np.mean(logsumexp(s, axis=0) - np.diag(s))
    return float(0.5 * (v2t + t2v))


def check_train_step(out: dict, expected_counts: dict, n_targets: int,
                     n_layers: int) -> list[str]:
    problems = []
    matches = out["matches"]
    n_preds = len(out["pred_boxes"])
    rows = [i for i, _ in matches]
    cols = [j for _, j in matches]
    if len(matches) != n_targets or sorted(cols) != list(range(n_targets)) \
            or len(set(rows)) != len(rows) or not all(0 <= i < n_preds for i in rows):
        problems.append(f"matches are not a partial permutation of size {n_targets}: {matches}")
        return problems

    sim = _cosine_matrix(out["pred_embeds"], out["target_embeds"])
    l1 = np.abs(out["pred_boxes"][:, None, :] - out["target_boxes"][None, :, :]).mean(axis=2)
    giou = giou_loss_matrix(out["pred_boxes"], out["target_boxes"])
    cost = CLS_WEIGHT * (1.0 - sim) / 2.0 + L1_WEIGHT * l1 + GIOU_WEIGHT * giou
    r, c = linear_sum_assignment(cost)
    optimum = float(cost[r, c].sum())
    got = float(cost[rows, cols].sum())
    if not _close(got, optimum, 1e-9):
        problems.append(f"matching cost {got!r} != optimum {optimum!r}")

    bd = out["breakdown"]
    matched = dict(matches)
    cls_terms = [(1.0 - sim[i, matched[i]]) / 2.0 if i in matched else np.abs(sim[i]).max() / 2.0
                 for i in range(n_preds)]
    expected = {
        "cls": CLS_WEIGHT * float(np.mean(cls_terms)),
        "bbox": L1_WEIGHT * float(l1[rows, cols].mean()) + GIOU_WEIGHT * float(giou[rows, cols].mean()),
        "mask": 0.0,
        "align": info_nce(out["align_visual"], out["align_text"], ALIGN_TEMPERATURE),
        "order": order_surrogate(out["text_scores"], out["visual_scores"]),
    }
    for key, value in expected.items():
        if not _close(getattr(bd, key), value, 1e-9):
            problems.append(f"{key} term {getattr(bd, key)!r} != {value!r}")
    parts = sum(getattr(bd, key) for key in expected)
    if not _close(bd.total, parts, 1e-12):
        problems.append(f"total {bd.total!r} != sum of components {parts!r}")

    if out["counts"] != expected_counts:
        problems.append(f"token counts {out['counts']} != {expected_counts}")
    if len(out["background"]) != n_layers:
        problems.append(f"{len(out['background'])} background records for {n_layers} layers")
    for layer, stats in enumerate(out["background"]):
        if sorted(stats) != ["features", "text", "visual"]:
            problems.append(f"layer {layer}: background pathways {sorted(stats)}")
        for pathway, s in stats.items():
            if not 0.0 <= s["mean"] <= s["max"] <= 1.0:
                problems.append(f"layer {layer} {pathway}: background mass {s} outside [0, 1]")
    return problems


# ---------------------------------------------------------------------------
# tau-ties
# ---------------------------------------------------------------------------


def _tied_pairs(*columns: np.ndarray) -> int:
    _, counts = np.unique(np.stack(columns, axis=1), axis=0, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def _read_scores(path: Path) -> np.ndarray:
    return np.array([float(s) for s in Path(path).read_text().split()])


def expected_tau(path_a: Path, path_b: Path) -> dict:
    """Exact concordant/discordant counts, derived from scipy's tau-b.

    With n0 = N(N-1)/2 pairs, n1/n2 pairs tied in x/y and n3 tied in
    both: C - D = tau_b * sqrt((n0 - n1)(n0 - n2)) and
    C + D = n0 - n1 - n2 + n3.
    """
    x, y = _read_scores(path_a), _read_scores(path_b)
    n = x.size
    n0 = n * (n - 1) // 2
    n1, n2, n3 = _tied_pairs(x), _tied_pairs(y), _tied_pairs(x, y)
    s = kendalltau(x, y, variant="b").statistic * np.sqrt(float(n0 - n1) * float(n0 - n2))
    diff = int(round(s))
    if abs(s - diff) > 1e-3:
        raise ValueError(f"tau-b does not give an integer C - D: {s!r}")
    both = n0 - n1 - n2 + n3
    return {"n": n, "concordant": (both + diff) // 2, "discordant": (both - diff) // 2,
            "tau": diff / n0, "soft_tau": -order_surrogate(x, y)}


def check_tau(out: dict, expected: dict) -> list[str]:
    problems = [f"{key} {out[key]} != {expected[key]}"
                for key in ("n", "concordant", "discordant") if out[key] != expected[key]]
    for key in ("tau", "soft_tau"):
        if not _close(out[key], expected[key], 1e-9):
            problems.append(f"{key} {out[key]!r} != {expected[key]!r}")
    return problems


# ---------------------------------------------------------------------------
# gradcheck-suite
# ---------------------------------------------------------------------------


def gradcheck_params(loss: str, n: int) -> int:
    """Parameter count of a gradcheck scenario of size ``n``."""
    return {
        "order": 2 * n,
        "align": 2 * n * ALIGN_DIM,
        "giou": 4 * n,
        "l1": 4 * n,
        "dice": n * n,
        "bce": n * n,
    }[loss]


def check_gradcheck(outputs: list[dict], sizes: dict, tol: float) -> list[str]:
    problems = []
    if [o["loss"] for o in outputs] != list(sizes):
        problems.append(f"rotation covers {[o['loss'] for o in outputs]}, expected {list(sizes)}")
    for o in outputs:
        want = gradcheck_params(o["loss"], sizes[o["loss"]])
        if o["n"] != sizes[o["loss"]] or o["n_params"] != want:
            problems.append(f"{o['loss']}: n={o['n']} n_params={o['n_params']}, expected {want}")
        if not (o["passed"] and o["max_rel_err"] < tol):
            problems.append(f"{o['loss']} seed {o['seed']}: max_rel_err {o['max_rel_err']}")
    return problems
