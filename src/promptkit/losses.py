"""Set-matching losses: boxes, masks, Hungarian assignment, and the
composite objective with two-stage gating.

Boxes are corner-form [x1, y1, x2, y2] float arrays; masks are 2-D
grids with predictions in [0, 1] and binary ground truth.  Every loss
returns ``(value, gradient_wrt_prediction)`` and is validated against
central finite differences in the test suite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .alignment import DEFAULT_TEMPERATURE, align_loss
from .numeric import as_float_matrix, cosine_matrix
from .ranking import order_loss

# DETR-family matching-cost convention; the composite objective also
# supports the flat all-ones form via MatchWeights.flat().
DEFAULT_CLS_WEIGHT = 2.0
DEFAULT_L1_WEIGHT = 5.0
DEFAULT_GIOU_WEIGHT = 2.0

# Decoder query budget used by downstream configs; kept as a named
# constant only.
DEFAULT_QUERY_BUDGET = 900

BCE_CLAMP = 1e-7


def as_box(b, name: str = "box") -> np.ndarray:
    a = np.asarray(b, dtype=np.float64)
    if a.shape != (4,):
        raise ValueError(f"{name} must have 4 coordinates, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite coordinates")
    return a


def validate_box(b, name: str = "box") -> np.ndarray:
    """Strict boundary-form check used at IO boundaries: coordinates in
    [0, 1] with x1 <= x2 and y1 <= y2."""
    a = as_box(b, name)
    if np.any(a < 0.0) or np.any(a > 1.0):
        raise ValueError(f"{name} coordinates must lie in [0, 1], got {a.tolist()}")
    if a[0] > a[2] or a[1] > a[3]:
        raise ValueError(f"{name} must satisfy x1 <= x2 and y1 <= y2, got {a.tolist()}")
    return a


def validate_boxes(boxes, name: str = "boxes") -> np.ndarray:
    """``validate_box`` on every row of an (n, 4) array in one pass.  The
    first bad row raises the message ``validate_box`` gives it."""
    a = np.asarray(boxes, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 4:
        raise ValueError(f"{name} must be an (n, 4) array, got shape {a.shape}")
    # The range test is False for NaN and +-inf as well.
    ok = ((a >= 0.0) & (a <= 1.0)).all(axis=1) & (a[:, :2] <= a[:, 2:]).all(axis=1)
    if not ok.all():
        row = int(ok.argmin())
        validate_box(a[row], f"{name}[{row}]")
    return a


def iou(a, b) -> float:
    """Intersection over union in [0, 1].

    Zero-area boxes give 0 against anything except an identical
    degenerate box, which gives 1.
    """
    pa = as_box(a, "first box")
    pb = as_box(b, "second box")
    iw = min(pa[2], pb[2]) - max(pa[0], pb[0])
    ih = min(pa[3], pb[3]) - max(pa[1], pb[1])
    inter = max(iw, 0.0) * max(ih, 0.0)
    area_a = (pa[2] - pa[0]) * (pa[3] - pa[1])
    area_b = (pb[2] - pb[0]) * (pb[3] - pb[1])
    union = area_a + area_b - inter
    if union <= 0.0:
        return 1.0 if np.array_equal(pa, pb) else 0.0
    return float(inter / union)


def giou_loss(pred, gt) -> tuple[float, np.ndarray]:
    """1 - GIoU with the analytic gradient w.r.t. the predicted box.

    GIoU = IoU - (enclosing_area - union) / enclosing_area; for ordered
    boxes (x1 <= x2, y1 <= y2) the loss lies in [0, 2], and two disjoint
    zero-area boxes give exactly 2.  Inverted boxes get the same formula
    and no bound.  Max/min corner choices use subgradients, so the
    gradient is exact away from coordinate ties.
    """
    p = as_box(pred, "pred box")
    g = as_box(gt, "gt box")

    pw, ph = p[2] - p[0], p[3] - p[1]
    area_p = pw * ph
    area_g = (g[2] - g[0]) * (g[3] - g[1])
    # d(area_p)/dp
    d_area = np.array([-ph, -pw, ph, pw])

    iw = min(p[2], g[2]) - max(p[0], g[0])
    ih = min(p[3], g[3]) - max(p[1], g[1])
    inter = max(iw, 0.0) * max(ih, 0.0)
    d_iw = np.zeros(4)
    d_ih = np.zeros(4)
    if iw > 0.0 and ih > 0.0:
        if p[0] >= g[0]:
            d_iw[0] = -1.0
        if p[2] <= g[2]:
            d_iw[2] = 1.0
        if p[1] >= g[1]:
            d_ih[1] = -1.0
        if p[3] <= g[3]:
            d_ih[3] = 1.0
    d_inter = ih * d_iw + iw * d_ih if inter > 0.0 else np.zeros(4)

    union = area_p + area_g - inter
    d_union = d_area - d_inter

    cw = max(p[2], g[2]) - min(p[0], g[0])
    ch = max(p[3], g[3]) - min(p[1], g[1])
    enclose = cw * ch
    d_cw = np.zeros(4)
    d_ch = np.zeros(4)
    if p[0] <= g[0]:
        d_cw[0] = -1.0
    if p[2] >= g[2]:
        d_cw[2] = 1.0
    if p[1] <= g[1]:
        d_ch[1] = -1.0
    if p[3] >= g[3]:
        d_ch[3] = 1.0
    d_enclose = ch * d_cw + cw * d_ch

    if union <= 0.0:
        # Both boxes degenerate: identical points count as a perfect hit.
        return (0.0 if np.array_equal(p, g) else 2.0), np.zeros(4)

    iou_val = inter / union
    d_iou = (d_inter * union - inter * d_union) / (union * union)
    if enclose <= 0.0:
        giou = iou_val
        d_giou = d_iou
    else:
        giou = iou_val - (enclose - union) / enclose
        d_giou = d_iou + (d_union * enclose - union * d_enclose) / (enclose * enclose)
    return float(1.0 - giou), -d_giou


def l1_box_loss(pred, gt) -> tuple[float, np.ndarray]:
    """Mean absolute coordinate difference; subgradient 0 at equality."""
    p = as_box(pred, "pred box")
    g = as_box(gt, "gt box")
    diff = p - g
    return float(np.abs(diff).mean()), np.sign(diff) / 4.0


def _as_box_rows(boxes, name: str) -> np.ndarray:
    a = np.asarray(boxes, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 4 or not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be a finite (n, 4) array, got shape {a.shape}")
    return a


def _overlap(a, b):
    """Boxes broadcast to (n, 1, 4) and (1, m, 4), and the (n, m) intersection,
    union and equality of every pair.  ``np.where`` keeps the first operand on
    ties, as Python's min and max do, so signed zeros match the scalar losses."""
    a, b = _as_box_rows(a, "first boxes"), _as_box_rows(b, "second boxes")
    p, q = a[:, None, :], b[None, :, :]
    lo = np.where(q[..., :2] > p[..., :2], q[..., :2], p[..., :2])
    hi = np.where(q[..., 2:] < p[..., 2:], q[..., 2:], p[..., 2:])
    side = hi - lo
    side = np.where(0.0 > side, 0.0, side)
    inter = side[..., 0] * side[..., 1]
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return p, q, inter, area_a[:, None] + area_b[None, :] - inter, np.all(p == q, axis=2)


def pairwise_iou(a, b) -> np.ndarray:
    """``iou`` of every box in ``a`` (n, 4) against every box in ``b`` (m, 4)."""
    _, _, inter, union, identical = _overlap(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0.0, inter / union, np.where(identical, 1.0, 0.0))


def pairwise_giou_loss(pred, gt) -> np.ndarray:
    """``giou_loss`` value, without gradient, of every (pred, gt) box pair."""
    p, g, inter, union, identical = _overlap(pred, gt)
    hi = np.where(g[..., 2:] > p[..., 2:], g[..., 2:], p[..., 2:])
    lo = np.where(g[..., :2] < p[..., :2], g[..., :2], p[..., :2])
    span = hi - lo
    enclose = span[..., 0] * span[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        iou_val = inter / union
        giou = np.where(enclose <= 0.0, iou_val, iou_val - (enclose - union) / enclose)
    return np.where(union > 0.0, 1.0 - giou, np.where(identical, 0.0, 2.0))


def pairwise_l1(pred, gt) -> np.ndarray:
    """``l1_box_loss`` value, without gradient, of every (pred, gt) box pair."""
    p = _as_box_rows(pred, "pred boxes")
    return np.abs(p[:, None, :] - _as_box_rows(gt, "gt boxes")[None, :, :]).mean(axis=2)


def dice_loss(pred, gt, eps: float = 1.0) -> tuple[float, np.ndarray]:
    """Soft dice loss 1 - (2*sum(p*g) + eps) / (sum(p) + sum(g) + eps)
    with the analytic gradient w.r.t. the prediction grid."""
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.ndim != 2 or p.shape != g.shape:
        raise ValueError(f"mask shape mismatch: {p.shape} vs {g.shape}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    num = 2.0 * float((p * g).sum()) + eps
    den = float(p.sum() + g.sum()) + eps
    loss = 1.0 - num / den
    grad = -(2.0 * g * den - num) / (den * den)
    return float(loss), grad


def bce_mask_loss(pred, gt) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy with predictions clamped to
    [1e-7, 1 - 1e-7]; clamped pixels get zero gradient."""
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.ndim != 2 or p.shape != g.shape:
        raise ValueError(f"mask shape mismatch: {p.shape} vs {g.shape}")
    clamped = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    loss = -(g * np.log(clamped) + (1.0 - g) * np.log(1.0 - clamped)).mean()
    interior = (p > BCE_CLAMP) & (p < 1.0 - BCE_CLAMP)
    grad = np.where(interior, (-g / clamped + (1.0 - g) / (1.0 - clamped)), 0.0) / p.size
    return float(loss), grad


# ---------------------------------------------------------------------------
# Hungarian assignment
# ---------------------------------------------------------------------------


def linear_sum_assignment(cost):
    """scipy's assignment solver, imported on first use: importing
    ``scipy.optimize`` costs more than the rest of the package."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def hungarian(costs) -> tuple[dict[int, int], float]:
    """Minimum-cost assignment of min(rows, cols) pairs.

    Among all minimum-cost assignments, returns the lexicographically
    smallest one: rows are fixed in index order to the lowest column
    that still admits an optimal completion, with "unassigned" ordering
    after any column.  Raises on non-finite costs.

    One ``linear_sum_assignment`` solve, on the costs padded to a square with
    zero-cost dummies, gives an optimum and its dual potentials.  The tie-break
    keeps to tight edges, whose reduced cost is <= 1e-9 * max(1, |optimum|),
    so the total may exceed the optimum by up to max(rows, cols) times that.
    """
    c = as_float_matrix(costs, "cost matrix")
    n_rows, n_cols = c.shape
    n = max(n_rows, n_cols)
    sq = np.pad(c, ((0, n - n_rows), (0, n - n_cols)))
    rows, col_of = linear_sum_assignment(sq)
    tol = 1e-9 * max(1.0, abs(float(sq[rows, col_of].sum())))

    # Column potentials: Bellman-Ford over the edges col_of[i] -> j of weight w[i, j].
    w = sq - sq[rows, col_of][:, None]
    v = np.zeros(n)
    for _ in range(n):
        relaxed = np.minimum(v, (v[col_of][:, None] + w).min(axis=0))
        if np.array_equal(relaxed, v):
            break
        v = relaxed
    tight = w + v[col_of][:, None] - v[None, :] <= tol
    # A row is tight at its own column, wherever the search moves it: one
    # whose first tight column is not below its own has none to move to.
    first = tight.argmax(axis=1).tolist()
    # Column -> its tight rows, read only for columns a search reaches.
    tight_rows: dict[int, list[int]] = {}

    # The dummy columns of a tall matrix share one cost column, potential
    # and set of tight rows: they are one search node, n_cols, which sorts
    # after every real column.
    col_of = np.minimum(col_of, n_cols).tolist()
    for r in range(n_rows):
        freed = col_of[r]
        if first[r] >= freed:
            continue
        lower = np.flatnonzero(tight[r, :freed]).tolist()
        # Breadth-first search back from r's column over later rows: row i
        # can give up its column for a tight one already reached.
        parent = {freed: None}
        queue = deque([freed])
        while queue and lower[0] not in parent:
            g = queue.popleft()
            if g not in tight_rows:
                tight_rows[g] = np.flatnonzero(tight[:, g]).tolist()
            for i in tight_rows[g]:
                if i > r and col_of[i] not in parent:
                    parent[col_of[i]] = (i, g)
                    queue.append(col_of[i])
        col = col_of[r] = next((j for j in lower if j in parent), freed)
        while col != freed:
            i, col = parent[col]
            col_of[i] = col

    assignment = {r: col_of[r] for r in range(n_rows) if col_of[r] < n_cols}
    total = float(sum(c[r, col] for r, col in assignment.items()))
    return assignment, total


# ---------------------------------------------------------------------------
# Composite objective
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchWeights:
    """Per-term weights for matching costs and the composite total."""

    cls: float = DEFAULT_CLS_WEIGHT
    l1: float = DEFAULT_L1_WEIGHT
    giou: float = DEFAULT_GIOU_WEIGHT
    bce: float = 1.0
    dice: float = 1.0
    align: float = 1.0
    order: float = 1.0

    @classmethod
    def flat(klass) -> "MatchWeights":
        """All-ones weighting: the composite reduces to a plain sum."""
        return klass(cls=1.0, l1=1.0, giou=1.0, bce=1.0, dice=1.0, align=1.0, order=1.0)


@dataclass(frozen=True)
class Prediction:
    box: np.ndarray
    embed: np.ndarray
    mask: np.ndarray | None = None


@dataclass(frozen=True)
class Target:
    box: np.ndarray
    embed: np.ndarray
    mask: np.ndarray | None = None


@dataclass(frozen=True)
class LossBreakdown:
    """Weighted component values; total is exactly their sum."""

    cls: float
    bbox: float
    mask: float
    align: float
    order: float
    total: float


def match_and_total_loss(
    preds,
    targets,
    weights: MatchWeights | None = None,
    stage: str = "joint",
    align_visual=None,
    align_text=None,
    text_scores=None,
    visual_scores=None,
    temperature: float = DEFAULT_TEMPERATURE,
):
    """Hungarian-match predictions to targets and sum the objective.

    When there is something to match, every box must be finite and
    ordered, x1 <= x2 and y1 <= y2 (zero width or height allowed); any
    other box raises ``ValueError`` naming its side and index.  A box
    inverted in both axes has a positive area and no overlap, which
    leaves ``giou_loss`` unbounded below and lets it win any match.

    Matching cost per pair: w_cls * (1 - cos_sim)/2 + w_l1 * L1 +
    w_giou * giou_loss.  Box and mask components are means over matched
    pairs; classification covers every prediction, with unmatched
    predictions pulled toward zero similarity against all target
    prompts (with no targets at all, the breakdown is classification
    only and the component is zero).

    ``stage`` is "joint" or "text_only"; the text-only stage zeroes the
    order term and the alignment gradient w.r.t. visual embeddings,
    keeping visual components fixed.

    Returns ``(breakdown, matches, extras)`` where matches is the list
    of (pred_index, target_index) pairs and extras carries the
    stage-gated alignment/order gradients when those inputs are given.
    """
    if stage not in ("joint", "text_only"):
        raise ValueError(f"stage must be 'joint' or 'text_only', got {stage!r}")
    w = weights or MatchWeights()
    preds = list(preds)
    targets = list(targets)

    matches: list[tuple[int, int]] = []
    cls_raw = bbox = 0.0
    if preds and targets:
        sim = cosine_matrix(np.array([p.embed for p in preds]), np.array([t.embed for t in targets]))
        pred_boxes = np.array([as_box(p.box, "pred box") for p in preds])
        gt_boxes = np.array([as_box(t.box, "gt box") for t in targets])
        for side, boxes in (("pred", pred_boxes), ("target", gt_boxes)):
            inverted = (boxes[:, :2] > boxes[:, 2:]).any(axis=1)
            if inverted.any():
                i = int(inverted.argmax())
                raise ValueError(f"{side} box {i} must satisfy x1 <= x2 and y1 <= y2, "
                                 f"got {boxes[i].tolist()}")
        l1 = pairwise_l1(pred_boxes, gt_boxes)
        giou = pairwise_giou_loss(pred_boxes, gt_boxes)
        assignment, _ = hungarian(w.cls * (1.0 - sim) / 2.0 + w.l1 * l1 + w.giou * giou)
        matches = sorted(assignment.items())
        rows, cols = np.array(matches).T
        cls_terms = np.abs(sim).max(axis=1) / 2.0
        cls_terms[rows] = (1.0 - sim[rows, cols]) / 2.0
        cls_raw = float(np.mean(cls_terms))
        bbox = w.l1 * float(np.mean(l1[rows, cols])) + w.giou * float(np.mean(giou[rows, cols]))

    bce_vals, dice_vals = [], []
    for i, j in matches:
        if preds[i].mask is not None and targets[j].mask is not None:
            bce_vals.append(bce_mask_loss(preds[i].mask, targets[j].mask)[0])
            dice_vals.append(dice_loss(preds[i].mask, targets[j].mask)[0])
    mask = (w.bce * float(np.mean(bce_vals)) + w.dice * float(np.mean(dice_vals))) if bce_vals else 0.0

    extras: dict = {}
    align_val = 0.0
    if align_visual is not None and align_text is not None:
        res = align_loss(align_visual, align_text, temperature=temperature)
        align_val = res.loss
        grad_visual = res.grad_visual
        if stage == "text_only":
            grad_visual = np.zeros_like(grad_visual)
        extras["align_grad_visual"] = grad_visual
        extras["align_grad_text"] = res.grad_text

    order_val = 0.0
    if text_scores is not None and visual_scores is not None and stage == "joint":
        res = order_loss(text_scores, visual_scores)
        order_val = res.loss
        extras["order_grad_text"] = res.grad_text
        extras["order_grad_visual"] = res.grad_visual

    breakdown = LossBreakdown(
        cls=w.cls * cls_raw,
        bbox=bbox,
        mask=mask,
        align=w.align * align_val,
        order=w.order * order_val,
        total=w.cls * cls_raw + bbox + mask + w.align * align_val + w.order * order_val,
    )
    return breakdown, matches, extras
