"""Seeded gradient-check scenarios for every differentiable loss.

Each scenario packs a loss's inputs into one flat parameter vector,
exposes the loss as a vectorised function of that vector (rows of
parameter vectors in, one value per row out), and returns the analytic
gradient at the base point.  ``run_gradcheck`` then compares the
analytic gradient against the central-difference oracle.

Scenario generators keep inputs away from non-smooth points (coordinate
ties for box losses, the clamp boundary for BCE) and away from softmax/
tanh saturation, where true gradients sink below the relative-error
floor and the comparison would measure only round-off.
"""

from __future__ import annotations

import numpy as np

from .alignment import align_loss, align_loss_value
from .losses import (
    bce_mask_loss,
    bce_mask_loss_value,
    dice_loss,
    dice_loss_value,
    giou_loss,
    giou_loss_value,
    l1_box_loss,
    l1_box_loss_value,
)
from .numeric import (
    DEFAULT_FD_EPS,
    GradCheckReport,
    as_count,
    as_step,
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


def _box_scenario(loss_fn, value_fn, n: int, seed: int):
    rng = seeded_rng(seed)
    pairs = [_random_box_pair(rng) for _ in range(n)]
    gts = np.array([gt for _, gt in pairs])
    p0 = np.concatenate([pred for pred, _ in pairs])

    def f(points):
        # The whole chunk as one (m, n, 4) stack against the n ground-truth
        # boxes; each row's n pair values are added left to right, in the
        # order of a Python sum over the pairs.
        values = value_fn(points.reshape(len(points), n, 4), gts)
        return np.cumsum(values, axis=1)[:, -1]

    analytic = np.concatenate([loss_fn(pred, gt)[1] for pred, gt in pairs])
    return p0, f, analytic


def _mask_scenario(loss_fn, value_fn, n: int, seed: int):
    rng = seeded_rng(seed)
    pred = rng.uniform(0.2, 0.8, size=(n, n))
    gt = rng.integers(0, 2, size=(n, n)).astype(np.float64)
    gt[0, 0] = 1.0  # at least one positive pixel
    p0 = pred.ravel()

    def f(points):
        # The whole chunk as one stack of (n, n) prediction grids.
        return value_fn(points.reshape(len(points), n, n), gt)

    analytic = loss_fn(pred, gt)[1].ravel()
    return p0, f, analytic


def _order_scenario(n: int, seed: int):
    rng = seeded_rng(seed)
    a = ORDER_SCALE * rng.standard_normal(n)
    b = ORDER_SCALE * rng.standard_normal(n)
    p0 = np.concatenate([a, b])

    def f(points):
        return [order_loss(p[:n], p[n:]).loss for p in points]

    res = order_loss(a, b)
    return p0, f, np.concatenate([res.grad_text, res.grad_visual])


def _align_scenario(n: int, seed: int):
    rng = seeded_rng(seed)
    v = unit_rows(rng.standard_normal((n, ALIGN_DIM)), "a visual row")
    t = unit_rows(rng.standard_normal((n, ALIGN_DIM)), "a text row")
    p0 = np.concatenate([v.ravel(), t.ravel()])
    split = n * ALIGN_DIM

    def f(points):
        # The whole chunk as one stack of (n, ALIGN_DIM) batches.
        return align_loss_value(
            points[:, :split].reshape(-1, n, ALIGN_DIM),
            points[:, split:].reshape(-1, n, ALIGN_DIM),
            temperature=ALIGN_TEMPERATURE,
        )

    res = align_loss(v, t, temperature=ALIGN_TEMPERATURE)
    return p0, f, np.concatenate([res.grad_visual.ravel(), res.grad_text.ravel()])


# Loss name -> scenario builder (n, seed).  The lambdas look each loss up
# when called, so rebinding a module attribute reaches every scenario.
_SCENARIOS = {
    "order": _order_scenario,
    "align": _align_scenario,
    "giou": lambda n, seed: _box_scenario(giou_loss, giou_loss_value, n, seed),
    "l1": lambda n, seed: _box_scenario(l1_box_loss, l1_box_loss_value, n, seed),
    "dice": lambda n, seed: _mask_scenario(dice_loss, dice_loss_value, n, seed),
    "bce": lambda n, seed: _mask_scenario(bce_mask_loss, bce_mask_loss_value, n, seed),
}
GRADCHECK_LOSSES = tuple(_SCENARIOS)
# Loss name -> the least and the most n its scenario takes.  A box
# scenario needs one pair, the others two scores, pairs or pixels a side.
# The oracle's work grows as n**2 (boxes), n**3 (order, align) or n**4 (masks);
# each ceiling keeps one check to at most about 4 s on a 2-core x86 machine.
GRADCHECK_N_RANGES = {"order": (2, 500), "align": (2, 128), "giou": (1, 150), "l1": (1, 150),
                      "dice": (2, 100), "bce": (2, 100)}
# The largest central-difference step a check takes.  Every scenario's
# inputs lie within unit scale, so a longer step measures nothing; far
# longer ones overflow inside the losses.
GRADCHECK_MAX_EPS = 1.0


def build_scenario(loss: str, n: int, seed: int):
    """Return (base parameters, vectorised function, analytic gradient).

    Deterministic in (loss, n, seed); reseeds until every analytic
    gradient coordinate clears the measurability floor.  An ``n`` outside
    ``GRADCHECK_N_RANGES[loss]`` raises ``ValueError`` before any work.
    """
    if loss not in _SCENARIOS:
        raise ValueError(f"unknown loss {loss!r}; expected one of {GRADCHECK_LOSSES}")
    n = as_count(n, f"n for {loss}", *GRADCHECK_N_RANGES[loss])
    attempt_seed = seed  # unwrapped, so that seeded_rng rejects one outside [0, 2**64)
    for _ in range(100):
        p0, f, analytic = _SCENARIOS[loss](n, attempt_seed)
        if np.min(np.abs(analytic)) >= _MIN_GRAD_COORD:
            return p0, f, analytic
        attempt_seed = (attempt_seed + _RESEED_STRIDE) % 2**64
    raise RuntimeError(f"no measurable {loss} scenario found for seed {seed}")


def run_gradcheck(loss: str, n: int, seed: int, eps: float = DEFAULT_FD_EPS) -> GradCheckReport:
    """Compare a loss's analytic gradient against central differences.  An
    ``eps`` outside (0, GRADCHECK_MAX_EPS] raises ``ValueError`` before any
    work."""
    as_step(eps, GRADCHECK_MAX_EPS)
    p0, f, analytic = build_scenario(loss, n, seed)
    numeric = finite_diff_grad(f, p0, eps=eps)
    return compare_grads(analytic, numeric)
