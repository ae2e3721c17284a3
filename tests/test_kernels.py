"""Property tests for the pairwise and stacked kernels.

The box kernels must equal their scalar references (``iou``,
``giou_loss``, ``l1_box_loss``) bit for bit, element by element, and
the stacked mask values (``dice_loss_value``, ``bce_mask_loss_value``)
must equal the scalar mask losses slice by slice; the composite matcher
built on them must equal a reconstruction from the scalar losses and the
brute-force assignment oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import brute_force_assignment
from promptkit.gradcheck import _random_box_pair
from promptkit.losses import (
    BCE_CLAMP,
    MatchWeights,
    Prediction,
    Target,
    bce_mask_loss,
    bce_mask_loss_value,
    dice_loss,
    dice_loss_value,
    giou_loss,
    giou_loss_value,
    iou,
    l1_box_loss,
    l1_box_loss_value,
    match_and_total_loss,
    pairwise_giou_loss,
    pairwise_iou,
    pairwise_l1,
    validate_box,
    validate_boxes,
)
from promptkit.numeric import (
    cosine_matrix,
    cosine_rows,
    log_softmax_rows,
    seeded_rng,
    softmax_rows,
)

KERNELS = [
    (pairwise_iou, iou),
    (pairwise_giou_loss, lambda p, g: giou_loss(p, g)[0]),
    (pairwise_l1, lambda p, g: l1_box_loss(p, g)[0]),
]

# A coarse grid (signed zero included) makes zero-area, identical-point,
# touching, disjoint and inverted (x1 > x2) boxes common; free floats
# cover general positions.
COORD = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.75, 1.0]),
    st.floats(-1.0, 2.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def box_matrices(draw):
    """(n, 4) and (m, 4) boxes: one row, one column or a full matrix,
    with some rows of ``b`` copied from ``a`` so identical boxes occur."""
    shape = draw(st.sampled_from(["row", "column", "matrix"]))
    n = 1 if shape == "row" else draw(st.integers(1, 6))
    m = 1 if shape == "column" else draw(st.integers(1, 6))
    a = draw(arrays(np.float64, (n, 4), elements=COORD))
    b = draw(arrays(np.float64, (m, 4), elements=COORD))
    for j in draw(st.lists(st.integers(0, m - 1), max_size=m)):
        b[j] = a[draw(st.integers(0, n - 1))]
    return a, b


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("kernel,scalar", KERNELS)
class TestBoxKernels:
    @settings(max_examples=300, deadline=None)
    @given(box_matrices())
    def test_equals_scalar_bit_for_bit(self, kernel, scalar, boxes):
        a, b = boxes
        # Extreme draws overflow in both the scalar and the kernel form.
        with np.errstate(all="ignore"):
            expected = np.array([[scalar(p, g) for g in b] for p in a])
            got = kernel(a, b)
        assert got.shape == (len(a), len(b))
        np.testing.assert_array_equal(bits(got), bits(expected))

    @settings(max_examples=100, deadline=None)
    @given(box_matrices(), st.data())
    def test_permutation_equivariance(self, kernel, scalar, boxes, data):
        a, b = boxes
        rows = np.array(data.draw(st.permutations(range(len(a)))))
        cols = np.array(data.draw(st.permutations(range(len(b)))))
        with np.errstate(all="ignore"):
            np.testing.assert_array_equal(bits(kernel(a[rows], b[cols])),
                                          bits(kernel(a, b)[rows][:, cols]))

    def test_rejects_malformed_boxes(self, kernel, scalar):
        with pytest.raises(ValueError, match=r"must be an \(n, 4\) array, got shape \(2, 3\)$"):
            kernel(np.zeros((2, 3)), np.zeros((2, 4)))
        with pytest.raises(ValueError, match=r"contains non-finite entries$"):
            kernel(np.zeros((1, 4)), [[0.0, 0.0, np.nan, 1.0]])


@st.composite
def box_stacks(draw):
    """An (m, n, 4) stack of predicted boxes against (n, 4) ground truths:
    the stack's entries are rows of the first ``box_matrices`` draw and the
    ground truths its second, so degenerate, identical and signed-zero
    pairs stay common."""
    a, gt = draw(box_matrices())
    m = draw(st.integers(1, 4))
    picks = draw(arrays(np.intp, (m, len(gt)), elements=st.integers(0, len(a) - 1)))
    return a[picks], gt


STACKED = [
    (giou_loss_value, pairwise_giou_loss, giou_loss),
    (l1_box_loss_value, pairwise_l1, l1_box_loss),
]


@pytest.mark.parametrize("value, pairwise, scalar", STACKED)
class TestBoxStacks:
    @settings(max_examples=300, deadline=None)
    @given(box_stacks())
    def test_equals_scalar_and_pairwise_bit_for_bit(self, value, pairwise, scalar, boxes):
        stack, gt = boxes
        m, n, _ = stack.shape
        with np.errstate(all="ignore"):
            got = value(stack, gt)
            expected = np.array([[scalar(stack[i, j], gt[j])[0] for j in range(n)]
                                 for i in range(m)])
            # Row i * n + j of the flattened stack meets ground truth j.
            table = pairwise(stack.reshape(-1, 4), gt).reshape(m, n, n)
        assert got.shape == (m, n)
        np.testing.assert_array_equal(bits(got), bits(expected))
        np.testing.assert_array_equal(bits(got), bits(np.diagonal(table, axis1=1, axis2=2)))

    @pytest.mark.parametrize("pred, gt, message", [
        (np.zeros((2, 3, 3)), np.zeros((3, 4)), r"pred boxes must be a \(\.\.\., 4\) array, "
                                                 r"got shape \(2, 3, 3\)"),
        (np.zeros((2, 3, 4)), 0.5, r"gt boxes must be a \(\.\.\., 4\) array, got shape \(\)"),
        (np.zeros((2, 3, 4)), np.zeros((2, 4)),
         r"pred boxes and gt boxes do not broadcast: \(2, 3, 4\) vs \(2, 4\)"),
        ([[[0.0, 0.0, 1.0, "1"]]], np.zeros((1, 4)), "pred boxes must be numeric, got '1'"),
        (np.zeros((1, 1, 4)), [[0.0, 0.0, np.inf, 1.0]], "gt boxes contains non-finite entries"),
        ([[[0.0, 0.0, 1.0]], [[0.0]]], np.zeros((1, 4)), "pred boxes must be a rectangular array"),
    ], ids=["last-axis", "scalar", "broadcast", "string", "non-finite", "ragged"])
    def test_rejects_malformed_stacks(self, value, pairwise, scalar, pred, gt, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            value(pred, gt)


# Pixels on and beyond the clamp bounds, signed zero, and free values in [0, 1].
PIXEL = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e-9, BCE_CLAMP, 1.0 - BCE_CLAMP, 1.0 - 1e-9, 1.0]),
    st.floats(0.0, 1.0),
)


@st.composite
def mask_stacks(draw):
    """An (m, h, w) stack of prediction grids and one binary (h, w) ground
    truth; grids up to 16 x 16 reach numpy's 8- and 128-entry summation
    blocks."""
    m, h, w = draw(st.integers(1, 4)), draw(st.integers(1, 16)), draw(st.integers(1, 16))
    stack = draw(arrays(np.float64, (m, h, w), elements=PIXEL))
    gt = draw(arrays(np.float64, (h, w), elements=st.sampled_from([0.0, 1.0])))
    return stack, gt


MASK_VALUES = [(dice_loss_value, dice_loss), (bce_mask_loss_value, bce_mask_loss)]


@pytest.mark.parametrize("value, scalar", MASK_VALUES)
class TestMaskStacks:
    @settings(max_examples=300, deadline=None)
    @given(mask_stacks())
    def test_equals_scalar_slice_by_slice_bit_for_bit(self, value, scalar, masks):
        stack, gt = masks
        got = value(stack, gt)
        expected = np.array([scalar(grid, gt)[0] for grid in stack])
        assert got.shape == (len(stack),)
        np.testing.assert_array_equal(bits(got), bits(expected))
        assert bits(value(stack[0], gt)) == bits(expected[0])

    @settings(max_examples=100, deadline=None)
    @given(mask_stacks())
    def test_scalar_loss_is_the_textbook_formula_bit_for_bit(self, value, scalar, masks):
        # The stacked and scalar forms share one formula: pin its order of
        # operations, so byte-stable outputs stay byte-stable.
        stack, g = masks
        for p in stack:
            if scalar is dice_loss:
                num = 2.0 * float((p * g).sum()) + 1.0
                want = 1.0 - num / (float(p.sum() + g.sum()) + 1.0)
            else:
                c = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
                want = float(-(g * np.log(c) + (1.0 - g) * np.log(1.0 - c)).mean())
            assert bits(scalar(p, g)[0]) == bits(want)

    @pytest.mark.parametrize("pred, gt, message", [
        (np.zeros(4), np.zeros((2, 2)), r"pred mask must be a \(\.\.\., h, w\) stack, "
                                         r"got shape \(4,\)"),
        (np.zeros((3, 2, 2)), np.zeros((3, 2, 2)), r"gt mask must be 2-D, got shape \(3, 2, 2\)"),
        (np.zeros((3, 2, 3)), np.zeros((3, 2)), r"mask shape mismatch: \(3, 2, 3\) vs \(3, 2\)"),
        ([[[0.5, True]]], np.zeros((1, 2)), "pred mask must be numeric, got True"),
        (np.zeros((2, 1, 2)), [[0.0, np.nan]], "gt mask contains non-finite entries"),
    ], ids=["rank", "gt-rank", "shape", "boolean", "non-finite"])
    def test_rejects_malformed_stacks(self, value, scalar, pred, gt, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            value(pred, gt)


# Exact dyadic entries of moderate size keep every squared norm and
# their products far inside the float64 range.
EMBED = st.integers(-64, 64).map(lambda k: k / 8.0)


@st.composite
def embedding_matrices(draw):
    n, m, d = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 9))
    x = draw(arrays(np.float64, (n, d), elements=EMBED))
    y = draw(arrays(np.float64, (m, d), elements=EMBED))
    for j in draw(st.lists(st.integers(0, m - 1), max_size=m)):
        y[j] = x[draw(st.integers(0, n - 1))]
    return x, y


class TestCosineMatrix:
    @settings(max_examples=200, deadline=None)
    @given(embedding_matrices())
    def test_range_zero_rows_and_identical_rows(self, mats):
        x, y = mats
        cos = cosine_matrix(x, y)
        assert cos.shape == (len(x), len(y))
        assert np.all((cos >= -1.0) & (cos <= 1.0))
        zero_x = ~x.any(axis=1)
        zero_y = ~y.any(axis=1)
        assert np.all(cos[zero_x] == 0.0) and np.all(cos[:, zero_y] == 0.0)
        same = np.all(x[:, None, :] == y[None, :, :], axis=2)
        assert np.all(cos[same & ~zero_x[:, None]] == 1.0)

    @settings(max_examples=200, deadline=None)
    @given(embedding_matrices())
    def test_matches_scalar_formula(self, mats):
        x, y = mats
        cos = cosine_matrix(x, y)
        for i, u in enumerate(x):
            for j, v in enumerate(y):
                nu, nv = math.sqrt(math.fsum(u * u)), math.sqrt(math.fsum(v * v))
                ref = 0.0 if nu == 0.0 or nv == 0.0 else math.fsum(u * v) / (nu * nv)
                assert abs(cos[i, j] - ref) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(embedding_matrices(), st.data())
    def test_permutation_equivariance(self, mats, data):
        x, y = mats
        rows = np.array(data.draw(st.permutations(range(len(x)))))
        cols = np.array(data.draw(st.permutations(range(len(y)))))
        np.testing.assert_array_equal(cosine_matrix(x[rows], y[cols]),
                                      cosine_matrix(x, y)[rows][:, cols])

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError):
            cosine_matrix(np.ones((2, 3)), np.ones((2, 4)))


@st.composite
def embedding_row_pairs(draw):
    """(n, d) pairs of rows: dyadic or free-float entries, the rows of ``x``
    scaled by 1e-60 to 1e60 (the product of two squared norms stays a
    normal float64), some rows zero and some rows of ``y`` equal to the
    same row of ``x``."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 40))
    elements = st.one_of(EMBED, st.floats(-1.0, 1.0, allow_nan=False))
    scale = 10.0 ** draw(st.integers(-60, 60))
    x = scale * draw(arrays(np.float64, (n, d), elements=elements))
    y = draw(arrays(np.float64, (n, d), elements=elements))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        y[i] = x[i]
    return x, y


class TestCosineRows:
    @settings(max_examples=300, deadline=None)
    @given(embedding_row_pairs())
    def test_is_the_diagonal_of_cosine_matrix_bit_for_bit(self, pair):
        x, y = pair
        want = np.diag(cosine_matrix(x, y))
        assert np.array_equal(cosine_rows(x, y).view(np.int64), want.view(np.int64))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="equal shapes"):
            cosine_rows(np.ones((2, 3)), np.ones((3, 3)))


class TestLogSoftmaxRows:
    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 6)),
                  elements=st.floats(-1000.0, 1000.0)))
    def test_is_the_log_of_softmax(self, logits):
        log_p = log_softmax_rows(logits)
        assert np.all(log_p <= 0.0)
        np.testing.assert_allclose(np.exp(log_p), softmax_rows(logits), rtol=1e-12, atol=1e-300)


def _reconstruct(preds, targets, w):
    """Composite cls/bbox/mask terms from scalar losses and the
    brute-force assignment."""
    def cos(u, v):
        return float(u @ v) / (float(np.linalg.norm(u)) * float(np.linalg.norm(v)))

    sim = np.array([[cos(p.embed, t.embed) for t in targets] for p in preds])
    cost = np.array([[w.cls * (1.0 - sim[i, j]) / 2.0
                      + w.l1 * l1_box_loss(p.box, t.box)[0]
                      + w.giou * giou_loss(p.box, t.box)[0]
                      for j, t in enumerate(targets)] for i, p in enumerate(preds)])
    amap, _ = brute_force_assignment(cost)
    matches = sorted(amap.items())
    cls = np.mean([(1.0 - sim[i, amap[i]]) / 2.0 if i in amap else np.abs(sim[i]).max() / 2.0
                   for i in range(len(preds))])
    pairs = [(preds[i], targets[j]) for i, j in matches]
    bbox = (w.l1 * np.mean([l1_box_loss(p.box, t.box)[0] for p, t in pairs])
            + w.giou * np.mean([giou_loss(p.box, t.box)[0] for p, t in pairs]))
    mask = (w.bce * np.mean([bce_mask_loss(p.mask, t.mask)[0] for p, t in pairs])
            + w.dice * np.mean([dice_loss(p.mask, t.mask)[0] for p, t in pairs]))
    return matches, {"cls": w.cls * cls, "bbox": bbox, "mask": mask}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5),
       st.sampled_from([MatchWeights(), MatchWeights.flat()]))
def test_match_and_total_loss_equals_scalar_reconstruction(seed, n_preds, n_targets, w):
    rng = seeded_rng(seed)
    preds, targets = [], []
    for _ in range(max(n_preds, n_targets)):
        p_box, t_box = _random_box_pair(rng)
        preds.append(Prediction(box=p_box, embed=rng.standard_normal(6),
                                mask=rng.uniform(0.05, 0.95, (3, 3))))
        targets.append(Target(box=t_box, embed=rng.standard_normal(6),
                              mask=(rng.uniform(size=(3, 3)) > 0.5).astype(float)))
    preds, targets = preds[:n_preds], targets[:n_targets]
    breakdown, matches, _ = match_and_total_loss(preds, targets, weights=w)
    expected_matches, expected = _reconstruct(preds, targets, w)
    assert matches == expected_matches
    for name, value in expected.items():
        assert abs(getattr(breakdown, name) - value) <= 1e-12, name
    assert abs(breakdown.total - sum(expected.values())) <= 1e-12


@st.composite
def ordered_box_matrices(draw):
    """``box_matrices`` with each box's corners sorted, x1 <= x2 and
    y1 <= y2: the contract ``match_and_total_loss`` enforces.  Zero-width,
    zero-height and point boxes stay common."""
    a, b = draw(box_matrices())
    return tuple(np.concatenate([np.minimum(m[:, :2], m[:, 2:]), np.maximum(m[:, :2], m[:, 2:])],
                                axis=1) for m in (a, b))


@settings(max_examples=500, deadline=None)
@given(ordered_box_matrices())
def test_ordered_boxes_bound_iou_and_giou_loss(boxes):
    a, b = boxes
    overlaps = pairwise_iou(a, b)
    losses = pairwise_giou_loss(a, b)
    assert np.all((overlaps >= 0.0) & (overlaps <= 1.0))
    assert np.all((losses >= 0.0) & (losses <= 2.0))


def test_disjoint_points_reach_the_giou_bound():
    assert pairwise_giou_loss([[0.1, 0.1, 0.1, 0.1]], [[0.5, 0.5, 0.5, 0.5]])[0, 0] == 2.0
    assert giou_loss([0.1, 0.1, 0.1, 0.1], [0.5, 0.5, 0.5, 0.5])[0] == 2.0


# Valid and invalid coordinates alike: out of range, non-finite, and
# grid values that make inverted and degenerate boxes common.
CHECKED_COORD = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, -0.5, 1.5, math.nan, math.inf, -math.inf]),
    st.floats(0.0, 1.0),
)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 6), st.just(4)), elements=CHECKED_COORD))
def test_validate_boxes_equals_scalar_check_row_by_row(boxes):
    first_error = None
    for i, row in enumerate(boxes):
        try:
            validate_box(row, f"boxes[{i}]")
        except ValueError as exc:
            first_error = str(exc)
            break
    if first_error is None:
        assert validate_boxes(boxes) is boxes
    else:
        with pytest.raises(ValueError) as excinfo:
            validate_boxes(boxes)
        assert str(excinfo.value) == first_error


@pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 4, 1)])
def test_validate_boxes_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match=r"\(n, 4\) array"):
        validate_boxes(np.zeros(shape))
