import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

import promptkit.losses
from oracles import brute_force_assignment, make_annotation_fixture
from promptkit.engine import cross_verify
from promptkit.gradcheck import _random_box_pair
from promptkit.losses import (
    MatchWeights,
    Prediction,
    Target,
    bce_mask_loss,
    dice_loss,
    giou_loss,
    hungarian,
    iou,
    l1_box_loss,
    match_and_total_loss,
    validate_box,
)
from promptkit.numeric import compare_grads, finite_diff_grad, seeded_rng
from promptkit.prompts import HashEmbeddings


class TestIou:
    def test_identical(self):
        assert iou([0.1, 0.1, 0.7, 0.8], [0.1, 0.1, 0.7, 0.8]) == 1.0

    def test_disjoint(self):
        assert iou([0.0, 0.0, 0.4, 0.4], [0.5, 0.5, 0.9, 0.9]) == 0.0

    def test_half_overlap(self):
        assert iou([0, 0, 1, 1], [0.5, 0, 1.0, 1.0]) == 0.5

    def test_degenerate_boxes(self):
        point = [0.3, 0.3, 0.3, 0.3]
        assert iou(point, point) == 1.0
        assert iou(point, [0.3, 0.3, 0.3, 0.4]) == 0.0
        assert iou(point, [0.0, 0.0, 1.0, 1.0]) == 0.0


class TestGiouLoss:
    def test_identical_boxes(self):
        loss, grad = giou_loss([0.2, 0.2, 0.6, 0.7], [0.2, 0.2, 0.6, 0.7])
        assert loss == 0.0

    def test_disjoint_diagonal_halves(self):
        loss, _ = giou_loss([0.0, 0.0, 0.5, 0.5], [0.5, 0.5, 1.0, 1.0])
        # IoU 0, union 0.5, enclosing 1.0 -> GIoU -0.5.
        assert abs(loss - 1.5) < 1e-12

    def test_gradient_matches_central_differences(self):
        rng = seeded_rng(77)
        worst = 0.0
        for _ in range(200):
            pred, gt = _random_box_pair(rng)
            _, grad = giou_loss(pred, gt)
            numeric = finite_diff_grad(lambda p: giou_loss(p, gt)[0], pred)
            worst = max(worst, compare_grads(grad, numeric).max_rel_err)
        assert worst < 1e-4

    @staticmethod
    def random_box(rng):
        x = np.sort(rng.uniform(0, 1, 2))
        y = np.sort(rng.uniform(0, 1, 2))
        return np.array([x[0], y[0], x[1], y[1]])

    def test_range_invariants(self):
        rng = seeded_rng(78)
        for _ in range(300):
            a = validate_box(self.random_box(rng))
            b = validate_box(self.random_box(rng))
            loss, _ = giou_loss(a, b)
            giou = 1.0 - loss
            assert -1.0 < giou <= 1.0
            assert 0.0 <= loss < 2.0
            assert iou(a, b) >= giou - 1e-12


class TestL1BoxLoss:
    def test_identical(self):
        loss, grad = l1_box_loss([0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4])
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_uniform_shift(self):
        base = np.array([0.1, 0.2, 0.5, 0.6])
        loss, grad = l1_box_loss(base + 0.1, base)
        assert abs(loss - 0.1) < 1e-15
        np.testing.assert_array_equal(grad, np.full(4, 0.25))

    def test_gradient_off_ties(self):
        rng = seeded_rng(79)
        for _ in range(100):
            pred, gt = _random_box_pair(rng)
            _, grad = l1_box_loss(pred, gt)
            numeric = finite_diff_grad(lambda p: l1_box_loss(p, gt)[0], pred)
            assert compare_grads(grad, numeric).max_rel_err < 1e-4


class TestDiceLoss:
    def test_exact_match_is_zero(self):
        gt = np.array([[1.0, 0.0], [1.0, 1.0]])
        loss, _ = dice_loss(gt, gt)
        assert loss == 0.0

    def test_empty_prediction_approaches_one(self):
        gt = np.ones((4, 4))
        loss, _ = dice_loss(np.zeros((4, 4)), gt, eps=1e-6)
        assert abs(loss - 1.0) < 1e-6

    def test_pixel_permutation_invariance(self):
        rng = seeded_rng(80)
        pred = rng.uniform(0, 1, (3, 4))
        gt = rng.integers(0, 2, (3, 4)).astype(float)
        base, _ = dice_loss(pred, gt)
        perm = rng.permutation(12)
        permuted, _ = dice_loss(pred.ravel()[perm].reshape(3, 4), gt.ravel()[perm].reshape(3, 4))
        assert abs(base - permuted) < 1e-15

    def test_gradient(self):
        rng = seeded_rng(81)
        pred = rng.uniform(0.2, 0.8, (4, 4))
        gt = rng.integers(0, 2, (4, 4)).astype(float)
        gt[0, 0] = 1.0
        _, grad = dice_loss(pred, gt)
        numeric = finite_diff_grad(lambda p: dice_loss(p.reshape(4, 4), gt)[0], pred.ravel())
        assert compare_grads(grad.ravel(), numeric).max_rel_err < 1e-4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            dice_loss(np.zeros((2, 2)), np.zeros((2, 3)))


class TestBceMaskLoss:
    def test_confident_correct_is_near_zero(self):
        gt = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = bce_mask_loss(gt, gt)
        assert loss < 1e-6

    def test_uniform_half_gives_ln2(self):
        gt = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = bce_mask_loss(np.full((2, 2), 0.5), gt)
        assert abs(loss - np.log(2.0)) < 1e-15

    def test_pixel_permutation_invariance(self):
        rng = seeded_rng(82)
        pred = rng.uniform(0.1, 0.9, (3, 4))
        gt = rng.integers(0, 2, (3, 4)).astype(float)
        base, _ = bce_mask_loss(pred, gt)
        perm = rng.permutation(12)
        permuted, _ = bce_mask_loss(pred.ravel()[perm].reshape(3, 4), gt.ravel()[perm].reshape(3, 4))
        assert abs(base - permuted) < 1e-12

    def test_gradient(self):
        rng = seeded_rng(83)
        pred = rng.uniform(0.1, 0.9, (4, 4))
        gt = rng.integers(0, 2, (4, 4)).astype(float)
        _, grad = bce_mask_loss(pred, gt)
        numeric = finite_diff_grad(lambda p: bce_mask_loss(p.reshape(4, 4), gt)[0], pred.ravel())
        assert compare_grads(grad.ravel(), numeric).max_rel_err < 1e-4


class TestHungarian:
    def test_two_by_two_example(self):
        assignment, total = hungarian([[1.0, 2.0], [2.0, 4.0]])
        # Brute force over both permutations: 1+4=5 vs 2+2=4.
        assert assignment == {0: 1, 1: 0}
        assert total == 4.0

    def test_zero_diagonal_prefers_identity(self):
        costs = np.ones((3, 3))
        np.fill_diagonal(costs, 0.0)
        assignment, total = hungarian(costs)
        assert assignment == {0: 0, 1: 1, 2: 2}
        assert total == 0.0

    def test_single_row(self):
        assignment, total = hungarian([[5.0, 1.0, 3.0]])
        assert assignment == {0: 1}
        assert total == 1.0

    def test_all_equal_costs_take_lexicographic_assignment(self):
        assignment, _ = hungarian(np.zeros((3, 4)))
        assert assignment == {0: 0, 1: 1, 2: 2}
        assignment, _ = hungarian(np.zeros((4, 2)))
        assert assignment == {0: 0, 1: 1}

    def test_matches_brute_force(self):
        rng = seeded_rng(84)
        for _ in range(60):
            r = int(rng.integers(1, 6))
            c = int(rng.integers(1, 6))
            if rng.random() < 0.5:
                costs = rng.integers(0, 4, size=(r, c)).astype(float)
            else:
                costs = rng.uniform(0, 1, size=(r, c))
            assignment, total = hungarian(costs)
            expected_map, expected_total = brute_force_assignment(costs)
            assert assignment == expected_map
            assert abs(total - expected_total) < 1e-9

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            hungarian([[np.inf, 1.0], [1.0, 2.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hungarian(np.zeros((0, 3)))

    @pytest.mark.parametrize("seed", [0, 2, 4, 5])
    def test_long_alternating_cycle(self, seed):
        # Zeros on (r, r) and (r, r + 1 mod n): the two zero-cost matchings
        # differ by one alternating cycle through every row, so the
        # tie-break's path search must not recurse.
        n = 1500
        base = np.ones((n, n))
        base[np.arange(n), np.arange(n)] = 0.0
        base[np.arange(n), (np.arange(n) + 1) % n] = 0.0
        rng = np.random.default_rng(seed)
        row_perm = rng.permutation(n)
        col_perm = rng.permutation(n)
        col_pos = np.argsort(col_perm)
        expected = min(col_pos[row_perm].tolist(), col_pos[(row_perm + 1) % n].tolist())
        assignment, total = hungarian(base[row_perm][:, col_perm])
        assert assignment == dict(enumerate(expected))
        assert total == 0.0

    @pytest.mark.parametrize("shape", ["square", "tall", "wide"])
    def test_medium_tie_heavy_against_prefix_search(self, shape):
        rng = seeded_rng(91)
        for _ in range(10):
            n = int(rng.integers(8, 41))
            m = {"square": n, "tall": int(rng.integers(8, n + 1)),
                 "wide": int(rng.integers(n, 41))}[shape]
            costs = rng.integers(0, 3, size=(n, m)).astype(float)
            assert_lexicographic_optimum(costs, *hungarian(costs))

    @pytest.mark.parametrize("gap, tied", [(1e-12, True), (1e-6, False)])
    def test_per_edge_tolerance(self, gap, tied):
        high = 1.0 + gap
        assert hungarian([[high, 1.0], [1.0, high]])[0] == ({0: 0, 1: 1} if tied else {0: 1, 1: 0})
        assert hungarian([[high, 1.0]])[0] == ({0: 0} if tied else {0: 1})
        assert hungarian([[high], [1.0]])[0] == ({0: 0} if tied else {1: 0})

    def test_one_solve_per_call(self, monkeypatch):
        solves = []

        def counting(costs):
            solves.append(costs.shape)
            return linear_sum_assignment(costs)

        monkeypatch.setattr(promptkit.losses, "linear_sum_assignment", counting)
        emb = HashEmbeddings(dim=16)
        for a, b in make_annotation_fixture(40, seed=5):
            solves.clear()
            cross_verify(a, b, emb)
            assert len(solves) == 1
        rng = seeded_rng(92)
        pairs = [_random_box_pair(rng) for _ in range(12)]
        preds = [Prediction(box=p, embed=unit(rng.standard_normal(6))) for p, _ in pairs]
        targets = [Target(box=g, embed=unit(rng.standard_normal(6))) for _, g in pairs[:5]]
        solves.clear()
        match_and_total_loss(preds, targets)
        assert len(solves) == 1

    @pytest.mark.parametrize("shape", ["square", "tall", "wide"])
    def test_rows_come_in_ascending_order(self, shape):
        rng = seeded_rng(93)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            m = {"square": n, "tall": int(rng.integers(1, n + 1)),
                 "wide": int(rng.integers(n, 30))}[shape]
            costs = (rng.integers(0, 3, size=(n, m)).astype(float) if rng.random() < 0.5
                     else rng.uniform(0, 1, size=(n, m)))
            rows = list(hungarian(costs)[0])
            assert rows == sorted(rows)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_total_invariant_under_permutation(self, data):
        # Quarter steps keep every tie exact: an assignment within the
        # tie tolerance of the optimum, but above it, would be free to
        # change with the order of the rows and columns.
        n, m = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        element = st.integers(-16, 16).map(lambda k: k / 4.0)
        costs = data.draw(arrays(np.float64, (n, m), elements=element))
        rows = data.draw(st.permutations(range(n)))
        cols = data.draw(st.permutations(range(m)))
        _, total = hungarian(costs)
        _, permuted = hungarian(costs[np.ix_(rows, cols)])
        sr, sc = linear_sum_assignment(costs)
        assert abs(total - permuted) <= 1e-9
        assert abs(total - costs[sr, sc].sum()) <= 1e-9


def assert_lexicographic_optimum(costs, assignment, total):
    """Check an assignment against scipy alone: it is a minimum-cost
    assignment of min(rows, cols) pairs, and with the rows before it fixed
    as returned, no row could take a lower column (any column when it is
    unassigned) and still complete to the optimum."""
    c = np.asarray(costs, dtype=np.float64)
    n_rows, n_cols = c.shape
    need = min(n_rows, n_cols)
    rows, cols = linear_sum_assignment(c)
    best = float(c[rows, cols].sum())
    tol = 1e-9 * max(1.0, abs(best))
    assert len(assignment) == need
    assert len(set(assignment.values())) == need
    assert abs(total - best) <= 1e-9
    assert abs(sum(c[r, j] for r, j in assignment.items()) - best) <= 1e-9
    fixed_cost, used = 0.0, set()
    for r in range(n_rows):
        limit = assignment.get(r, math.inf)
        rest_rows = list(range(r + 1, n_rows))
        for j in range(min(limit, n_cols)):
            if j in used:
                continue
            rest_cols = [x for x in range(n_cols) if x not in used and x != j]
            if len(used) + 1 + min(len(rest_rows), len(rest_cols)) < need:
                continue
            rest = 0.0
            if rest_rows and rest_cols:
                sub = c[np.ix_(rest_rows, rest_cols)]
                sr, sc = linear_sum_assignment(sub)
                rest = float(sub[sr, sc].sum())
            assert fixed_cost + c[r, j] + rest > best + tol, (r, j, limit)
        if r in assignment:
            fixed_cost += c[r, assignment[r]]
            used.add(assignment[r])


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestMatchAndTotalLoss:
    def exact_pair(self):
        pred = Prediction(
            box=np.array([0.1, 0.1, 0.5, 0.5]),
            embed=unit([1.0, 2.0, 0.5]),
            mask=np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        target = Target(box=pred.box.copy(), embed=pred.embed.copy(), mask=pred.mask.copy())
        return pred, target

    def test_embeddings_reach_the_kernel_as_arrays(self, monkeypatch):
        cosine_matrix = promptkit.losses.cosine_matrix
        seen = []

        def recording(x, y):
            seen.append((x, y))
            return cosine_matrix(x, y)

        monkeypatch.setattr(promptkit.losses, "cosine_matrix", recording)
        pred, target = self.exact_pair()
        match_and_total_loss([pred, pred], [target])
        [(x, y)] = seen
        assert type(x) is np.ndarray and x.tolist() == [pred.embed.tolist()] * 2
        assert type(y) is np.ndarray and y.tolist() == [target.embed.tolist()]

    def test_exact_predictions_zero_box_and_mask(self):
        pred, target = self.exact_pair()
        breakdown, matches, _ = match_and_total_loss([pred], [target])
        assert matches == [(0, 0)]
        assert breakdown.bbox == 0.0
        assert abs(breakdown.cls) < 1e-12
        assert breakdown.mask < 1e-6  # BCE clamp keeps it marginally above zero

    def test_componentwise_addition_with_flat_weights(self):
        rng = seeded_rng(85)
        pred_box, gt_box = _random_box_pair(rng)
        pred_mask = rng.uniform(0.2, 0.8, (3, 3))
        gt_mask = rng.integers(0, 2, (3, 3)).astype(float)
        e_pred = unit(rng.standard_normal(4))
        e_gt = unit(rng.standard_normal(4))
        pred = Prediction(box=pred_box, embed=e_pred, mask=pred_mask)
        target = Target(box=gt_box, embed=e_gt, mask=gt_mask)
        breakdown, _, _ = match_and_total_loss([pred], [target], weights=MatchWeights.flat())
        cls_expected = (1.0 - float(e_pred @ e_gt)) / 2.0
        bbox_expected = l1_box_loss(pred_box, gt_box)[0] + giou_loss(pred_box, gt_box)[0]
        mask_expected = bce_mask_loss(pred_mask, gt_mask)[0] + dice_loss(pred_mask, gt_mask)[0]
        assert abs(breakdown.cls - cls_expected) < 1e-12
        assert abs(breakdown.bbox - bbox_expected) < 1e-12
        assert abs(breakdown.mask - mask_expected) < 1e-12
        assert abs(breakdown.total - (cls_expected + bbox_expected + mask_expected)) < 1e-12

    def test_text_only_stage_zeroes_order_and_visual_align_grads(self):
        rng = seeded_rng(86)
        pred, target = self.exact_pair()
        v = np.stack([unit(rng.standard_normal(5)) for _ in range(3)])
        t = np.stack([unit(rng.standard_normal(5)) for _ in range(3)])
        scores_t = rng.standard_normal(6)
        scores_v = rng.standard_normal(6)
        joint, _, joint_extras = match_and_total_loss(
            [pred], [target], stage="joint",
            align_visual=v, align_text=t,
            text_scores=scores_t, visual_scores=scores_v,
        )
        gated, _, gated_extras = match_and_total_loss(
            [pred], [target], stage="text_only",
            align_visual=v, align_text=t,
            text_scores=scores_t, visual_scores=scores_v,
        )
        assert joint.order != 0.0
        assert gated.order == 0.0
        assert np.any(joint_extras["align_grad_visual"] != 0.0)
        np.testing.assert_array_equal(gated_extras["align_grad_visual"], 0.0)
        assert np.array_equal(gated_extras["align_grad_text"], joint_extras["align_grad_text"])
        assert gated.align == joint.align

    def test_empty_targets_classification_only(self):
        pred, _ = self.exact_pair()
        breakdown, matches, _ = match_and_total_loss([pred, pred], [])
        assert matches == []
        assert breakdown.bbox == 0.0
        assert breakdown.mask == 0.0
        assert breakdown.total == breakdown.cls

    def test_unmatched_predictions_pressed_toward_zero_similarity(self):
        pred1, target = self.exact_pair()
        pred2 = Prediction(box=np.array([0.6, 0.6, 0.9, 0.9]), embed=unit([0.0, 1.0, 1.0]))
        breakdown, matches, _ = match_and_total_loss(
            [pred1, pred2], [target], weights=MatchWeights.flat()
        )
        assert len(matches) == 1
        sim = abs(float(pred2.embed @ target.embed))
        expected_cls = 0.5 * (0.0 + sim / 2.0)  # mean over both predictions
        assert abs(breakdown.cls - expected_cls) < 1e-12

    def test_target_order_invariance(self):
        rng = seeded_rng(87)
        preds = []
        targets = []
        for _ in range(4):
            pb, gb = _random_box_pair(rng)
            preds.append(Prediction(box=pb, embed=unit(rng.standard_normal(6))))
            targets.append(Target(box=gb, embed=unit(rng.standard_normal(6))))
        base, _, _ = match_and_total_loss(preds, targets)
        perm = [2, 0, 3, 1]
        shuffled, _, _ = match_and_total_loss(preds, [targets[i] for i in perm])
        assert abs(base.total - shuffled.total) < 1e-12

    def test_invalid_stage_rejected(self):
        pred, target = self.exact_pair()
        with pytest.raises(ValueError, match="stage"):
            match_and_total_loss([pred], [target], stage="warmup")


class TestMatchBoxContract:
    """``match_and_total_loss`` takes ordered boxes only: an inverted box
    has a positive area and no overlap, so its GIoU loss is unbounded."""

    def pair(self, pred_box, target_box):
        embed = unit([1.0, 0.5, 0.25])
        return Prediction(box=np.asarray(pred_box), embed=embed), \
            Target(box=np.asarray(target_box), embed=embed)

    def test_inverted_prediction_raises(self):
        good, target = self.pair([0.1, 0.1, 0.5, 0.5], [0.45, 0.45, 0.46, 0.46])
        bad, _ = self.pair([0.5, 0.5, 0.4, 0.4], [0.45, 0.45, 0.46, 0.46])
        with pytest.raises(ValueError) as excinfo:
            match_and_total_loss([good, bad], [target])
        assert str(excinfo.value) == ("pred box 1 must satisfy x1 <= x2 and y1 <= y2, "
                                      "got [0.5, 0.5, 0.4, 0.4]")

    @pytest.mark.parametrize("box", [[0.5, 0.1, 0.4, 0.6], [0.1, 0.5, 0.6, 0.4]],
                             ids=["x-inverted", "y-inverted"])
    def test_inverted_target_raises(self, box):
        pred, target = self.pair([0.1, 0.1, 0.5, 0.5], [0.1, 0.1, 0.5, 0.5])
        _, bad = self.pair(box, box)
        with pytest.raises(ValueError) as excinfo:
            match_and_total_loss([pred], [target, target, bad])
        assert str(excinfo.value) == f"target box 2 must satisfy x1 <= x2 and y1 <= y2, got {box}"

    def test_inverted_prediction_named_before_inverted_target(self):
        pred, target = self.pair([0.1, 0.1, 0.5, 0.5], [0.1, 0.1, 0.5, 0.5])
        bad_pred, bad_target = self.pair([0.5, 0.5, 0.4, 0.4], [0.9, 0.1, 0.8, 0.2])
        with pytest.raises(ValueError) as excinfo:
            match_and_total_loss([pred, pred, bad_pred], [bad_target, target])
        assert str(excinfo.value) == ("pred box 2 must satisfy x1 <= x2 and y1 <= y2, "
                                      "got [0.5, 0.5, 0.4, 0.4]")

    @pytest.mark.parametrize("pred_box, target_box, message", [
        ([0.1, 0.1, 0.5], [0.1, 0.1, 0.5, 0.5], "pred box 1 must have 4 coordinates, got shape (3,)"),
        ([0.1, 0.1, 0.5, 0.5], [0.1, np.nan, 0.5, 0.5], "target box 1 contains non-finite entries"),
    ], ids=["short-pred", "non-finite-target"])
    def test_bad_box_is_named_by_side_and_index(self, pred_box, target_box, message):
        good_pred, good_target = self.pair([0.1, 0.1, 0.5, 0.5], [0.1, 0.1, 0.5, 0.5])
        pred, target = self.pair(pred_box, target_box)
        with pytest.raises(ValueError) as excinfo:
            match_and_total_loss([good_pred, pred], [good_target, target])
        assert str(excinfo.value) == message

    def test_degenerate_boxes_accepted(self):
        pred, target = self.pair([0.3, 0.3, 0.3, 0.6], [0.2, 0.4, 0.7, 0.4])
        breakdown, matches, _ = match_and_total_loss([pred], [target])
        assert matches == [(0, 0)]
        # Two zero-area boxes that are not identical: GIoU loss exactly 2.
        w = MatchWeights()
        assert breakdown.bbox == w.l1 * l1_box_loss(pred.box, target.box)[0] + w.giou * 2.0


class TestMatchEmbeddingContract:
    """``Prediction`` and ``Target`` type their embeddings where they are
    built: the matcher stacks each side into one float array, where a
    boolean row beside float rows would read as 0/1."""

    @pytest.mark.parametrize("make", [Prediction, Target], ids=["prediction", "target"])
    @pytest.mark.parametrize("embed", [np.array([True, False]), [0.5, True]],
                             ids=["boolean-array", "boolean-entry"])
    def test_boolean_embedding_raises(self, make, embed):
        name = "prediction" if make is Prediction else "target"
        with pytest.raises(ValueError) as excinfo:
            make(box=np.array([0.1, 0.1, 0.5, 0.5]), embed=embed)
        assert str(excinfo.value) == f"{name} embedding must be numeric, got True"

    def test_boolean_embedding_beside_float_rows_is_refused(self):
        box, embed = np.array([0.1, 0.1, 0.5, 0.5]), unit([1.0, 0.5, 0.25])
        pred, target = Prediction(box=box, embed=embed), Target(box=box, embed=embed)
        with pytest.raises(ValueError, match="^prediction embedding must be numeric, got True$"):
            match_and_total_loss([pred, Prediction(box=box, embed=np.array([True, False, True]))],
                                 [target])


class TestValidateBox:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            validate_box([0.0, 0.0, 1.2, 1.0])

    def test_rejects_inverted(self):
        with pytest.raises(ValueError, match="x1 <= x2"):
            validate_box([0.5, 0.0, 0.2, 1.0])
