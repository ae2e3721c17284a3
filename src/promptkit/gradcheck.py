"""Seeded gradient-check scenarios for every differentiable loss.

Each scenario packs a loss's inputs into one flat parameter vector,
exposes the loss as a scalar function of that vector, and returns the
analytic gradient at the base point.  ``run_gradcheck`` then compares
the analytic gradient against the central-difference oracle.

Scenario generators keep inputs away from non-smooth points (coordinate
ties for box losses, the clamp boundary for BCE) and away from softmax/
tanh saturation, where true gradients sink below the relative-error
floor and the comparison would measure only round-off.
"""

from __future__ import annotations

import numpy as np

from .alignment import align_loss, align_loss_value
from .losses import bce_mask_loss, dice_loss, giou_loss, l1_box_loss
from .numeric import (
    DEFAULT_FD_EPS,
    GradCheckReport,
    compare_grads,
    finite_diff_grad,
    seeded_rng,
    unit_rows,
)
from .ranking import order_loss

ALIGN_DIM = 16
# Moderate sharpening: unit-vector similarities span [-1, 1], so logit
# gaps stay below 2 / ALIGN_TEMPERATURE and no softmax row saturates.
ALIGN_TEMPERATURE = 0.3
# Keeps |score differences| small enough that tanh' stays well above
# the relative-error floor.
ORDER_SCALE = 0.5

_TIE_MARGIN = 0.02

# Central differences carry ~|f|*u/(2*eps) round-off noise (~5e-12 at
# eps=1e-5), so a true coordinate below this floor cannot be measured
# to 1e-4 relative accuracy; scenarios resample until all coordinates
# clear it.
_MIN_GRAD_COORD = 1e-6
_RESEED_STRIDE = 7919


def _random_box_pair(rng) -> tuple[np.ndarray, np.ndarray]:
    """Overlapping valid box pair with every tie-relevant quantity
    bounded away from zero."""
    while True:
        x1 = rng.uniform(0.12, 0.42)
        y1 = rng.uniform(0.12, 0.42)
        w = rng.uniform(0.15, 0.4)
        h = rng.uniform(0.15, 0.4)
        pred = np.array([x1, y1, x1 + w, y1 + h])
        offsets = rng.uniform(0.03, 0.1, size=4) * rng.choice([-1.0, 1.0], size=4)
        gt = pred + offsets
        if gt[2] - gt[0] < 0.05 or gt[3] - gt[1] < 0.05:
            continue
        if np.any(gt < 0.0) or np.any(gt > 1.0):
            continue
        iw = min(pred[2], gt[2]) - max(pred[0], gt[0])
        ih = min(pred[3], gt[3]) - max(pred[1], gt[1])
        if abs(iw) < _TIE_MARGIN or abs(ih) < _TIE_MARGIN:
            continue
        if np.any(np.abs(pred - gt) < _TIE_MARGIN):
            continue
        return pred, gt


def _box_scenario(loss_fn, n: int, seed: int):
    rng = seeded_rng(seed)
    pairs = [_random_box_pair(rng) for _ in range(max(1, n))]
    gts = [gt for _, gt in pairs]
    p0 = np.concatenate([pred for pred, _ in pairs])

    def f(p):
        boxes = p.reshape(-1, 4)
        return sum(loss_fn(box, gt)[0] for box, gt in zip(boxes, gts))

    analytic = np.concatenate([loss_fn(pred, gt)[1] for pred, gt in pairs])
    return p0, f, analytic


def _mask_scenario(loss_fn, n: int, seed: int):
    rng = seeded_rng(seed)
    side = max(2, n)
    pred = rng.uniform(0.2, 0.8, size=(side, side))
    gt = rng.integers(0, 2, size=(side, side)).astype(np.float64)
    gt[0, 0] = 1.0  # at least one positive pixel
    p0 = pred.ravel()

    def f(p):
        return loss_fn(p.reshape(side, side), gt)[0]

    analytic = loss_fn(pred, gt)[1].ravel()
    return p0, f, analytic


def _order_scenario(n: int, seed: int):
    rng = seeded_rng(seed)
    size = max(2, n)
    a = ORDER_SCALE * rng.standard_normal(size)
    b = ORDER_SCALE * rng.standard_normal(size)
    p0 = np.concatenate([a, b])

    def f(p):
        return order_loss(p[:size], p[size:]).loss

    res = order_loss(a, b)
    return p0, f, np.concatenate([res.grad_text, res.grad_visual])


def _align_scenario(n: int, seed: int):
    rng = seeded_rng(seed)
    k = max(2, n)
    v = unit_rows(rng.standard_normal((k, ALIGN_DIM)), "a visual row")
    t = unit_rows(rng.standard_normal((k, ALIGN_DIM)), "a text row")
    p0 = np.concatenate([v.ravel(), t.ravel()])
    split = k * ALIGN_DIM

    def f(p):
        return align_loss_value(
            p[:split].reshape(k, ALIGN_DIM),
            p[split:].reshape(k, ALIGN_DIM),
            temperature=ALIGN_TEMPERATURE,
        )

    res = align_loss(v, t, temperature=ALIGN_TEMPERATURE)
    return p0, f, np.concatenate([res.grad_visual.ravel(), res.grad_text.ravel()])


# Loss name -> scenario builder (n, seed).  The lambdas look each loss up
# when called, so rebinding a module attribute reaches every scenario.
_SCENARIOS = {
    "order": _order_scenario,
    "align": _align_scenario,
    "giou": lambda n, seed: _box_scenario(giou_loss, n, seed),
    "l1": lambda n, seed: _box_scenario(l1_box_loss, n, seed),
    "dice": lambda n, seed: _mask_scenario(dice_loss, n, seed),
    "bce": lambda n, seed: _mask_scenario(bce_mask_loss, n, seed),
}
GRADCHECK_LOSSES = tuple(_SCENARIOS)


def build_scenario(loss: str, n: int, seed: int):
    """Return (base parameters, scalar function, analytic gradient).

    Deterministic in (loss, n, seed); reseeds until every analytic
    gradient coordinate clears the measurability floor.
    """
    if loss not in _SCENARIOS:
        raise ValueError(f"unknown loss {loss!r}; expected one of {GRADCHECK_LOSSES}")
    attempt_seed = seed  # unwrapped, so that seeded_rng rejects one outside [0, 2**64)
    for _ in range(100):
        p0, f, analytic = _SCENARIOS[loss](n, attempt_seed)
        if np.min(np.abs(analytic)) >= _MIN_GRAD_COORD:
            return p0, f, analytic
        attempt_seed = (attempt_seed + _RESEED_STRIDE) % 2**64
    raise RuntimeError(f"no measurable {loss} scenario found for seed {seed}")


def run_gradcheck(loss: str, n: int, seed: int, eps: float = DEFAULT_FD_EPS) -> GradCheckReport:
    """Compare a loss's analytic gradient against central differences."""
    p0, f, analytic = build_scenario(loss, n, seed)
    numeric = finite_diff_grad(f, p0, eps=eps)
    return compare_grads(analytic, numeric)
