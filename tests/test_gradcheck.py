"""The box and mask gradcheck scenarios evaluate a whole chunk of points in
one call of a stacked value kernel; every chunk must equal the scalar loss
run on each row, bit for bit."""

import numpy as np
import pytest

from oracles import row_loop
from promptkit import gradcheck
from promptkit.cli import main
from promptkit.gradcheck import GRADCHECK_N_RANGES, _random_box_pair, build_scenario
from promptkit.losses import bce_mask_loss, dice_loss, giou_loss, l1_box_loss
from promptkit.numeric import finite_diff_grad, seeded_rng

SCALAR = {"giou": giou_loss, "l1": l1_box_loss, "dice": dice_loss, "bce": bce_mask_loss}
# The benchmark's sizes, with seeds 0-4; each loss's ceiling with seed 0.
CASES = ([(loss, n, seed) for loss, n in (("giou", 4), ("l1", 4), ("dice", 6), ("bce", 6))
          for seed in range(5)]
         + [(loss, GRADCHECK_N_RANGES[loss][1], 0) for loss in SCALAR])


def scalar_scenario(loss, n, seed):
    """The scenario's base point and its function as the scalar loss on
    each row (box losses summed over the pairs by Python's ``sum``), with
    the inputs drawn again from the seed."""
    rng = seeded_rng(seed)
    loss_fn = SCALAR[loss]
    if loss in ("giou", "l1"):
        pairs = [_random_box_pair(rng) for _ in range(n)]
        gts = [gt for _, gt in pairs]

        def scalar(p):
            return sum(loss_fn(box, gt)[0] for box, gt in zip(p.reshape(-1, 4), gts))

        return np.concatenate([pred for pred, _ in pairs]), row_loop(scalar)
    pred = rng.uniform(0.2, 0.8, size=(n, n))
    gt = rng.integers(0, 2, size=(n, n)).astype(np.float64)
    gt[0, 0] = 1.0
    return pred.ravel(), row_loop(lambda p: loss_fn(p.reshape(n, n), gt)[0])


@pytest.mark.parametrize("loss, n, seed", CASES)
def test_scenario_equals_the_scalar_loss_on_every_chunk(loss, n, seed):
    p0, f, _ = build_scenario(loss, n, seed)
    base, reference = scalar_scenario(loss, n, seed)
    assert p0.tobytes() == base.tobytes()  # no reseed: both draw the same inputs
    rows = []

    def both(points):
        got = np.asarray(f(points))
        assert got.dtype == np.float64
        assert got.tobytes() == np.asarray(reference(points), dtype=np.float64).tobytes()
        rows.append(len(points))
        return got

    finite_diff_grad(both, p0)
    assert sum(rows) == 2 * p0.size


def test_giou_gradcheck_makes_one_value_call(monkeypatch, capsys):
    calls = []
    real = gradcheck.giou_loss_value

    def counting(pred, gt):
        calls.append(pred.shape)
        return real(pred, gt)

    monkeypatch.setattr(gradcheck, "giou_loss_value", counting)
    assert main(["gradcheck", "--loss", "giou", "--n", "4", "--seed", "0"]) == 0
    assert '"passed": true' in capsys.readouterr().out
    # 16 parameters: all 32 points in one chunk, one (32, 4, 4) stack.
    assert calls == [(32, 4, 4)]
