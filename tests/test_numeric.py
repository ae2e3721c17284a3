import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from promptkit.numeric import (
    bilinear_sample,
    compare_grads,
    cosine_matrix,
    cosine_rows,
    finite_diff_grad,
    log_softmax_rows,
    seeded_rng,
    softmax_rows,
    unit_rows,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "promptkit"


class TestSoftmaxRows:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows([[0.0, 0.0]]), [[0.5, 0.5]], atol=0)

    def test_large_logits_do_not_overflow(self):
        out = softmax_rows([[1000.0, 0.0]])
        assert np.all(np.isfinite(out))
        assert out[0, 0] > 1.0 - 1e-12
        assert out[0, 1] < 1e-12

    def test_closed_form(self):
        out = softmax_rows([[math.log(2.0), 0.0]])
        np.testing.assert_allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)

    def test_rows_sum_to_one_across_magnitudes(self):
        rng = seeded_rng(0)
        for _ in range(200):
            scale = 10.0 ** rng.uniform(-3, 3)
            m = scale * rng.standard_normal((rng.integers(1, 6), rng.integers(1, 9)))
            sums = softmax_rows(m).sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)
            assert np.all(softmax_rows(m) >= 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax_rows(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            softmax_rows(np.zeros((2, 0)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            softmax_rows([[1.0, np.nan]])


    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 8)),
                  elements=st.floats(-1000.0, 1000.0)))
    def test_in_place_steps_leave_input_and_bits_unchanged(self, logits):
        before = logits.copy()
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected = e / e.sum(axis=1, keepdims=True)
        out = softmax_rows(logits)
        assert np.array_equal(logits.view(np.int64), before.view(np.int64))
        assert np.array_equal(out.view(np.int64), expected.view(np.int64))


class TestBilinearSample:
    def test_exact_on_grid_nodes(self):
        rng = seeded_rng(1)
        grid = rng.standard_normal((4, 5, 3))
        h, w, _ = grid.shape
        for r in range(h):
            for c in range(w):
                got = bilinear_sample(grid, c / (w - 1), r / (h - 1))
                np.testing.assert_array_equal(got, grid[r, c])

    def test_midpoint_is_mean_of_neighbors(self):
        rng = seeded_rng(2)
        grid = rng.standard_normal((3, 3, 4))
        # halfway between nodes (1,0) and (1,1) in row 1
        got = bilinear_sample(grid, 0.25, 0.5)
        np.testing.assert_allclose(got, 0.5 * (grid[1, 0] + grid[1, 1]), atol=1e-15)

    def test_degenerate_single_node(self):
        grid = np.arange(6.0).reshape(1, 1, 6)
        for x, y in [(0.0, 0.0), (1.0, 1.0), (0.3, 0.9)]:
            np.testing.assert_array_equal(bilinear_sample(grid, x, y), grid[0, 0])

    def test_linear_within_cell(self):
        rng = seeded_rng(3)
        grid = rng.standard_normal((4, 4, 2))
        y = 0.45
        # x positions inside the cell between columns 0 and 1 (x in [0, 1/3])
        x1, x2 = 0.05, 0.30
        for alpha in (0.0, 0.25, 0.6, 1.0):
            x = alpha * x1 + (1 - alpha) * x2
            expected = alpha * bilinear_sample(grid, x1, y) + (1 - alpha) * bilinear_sample(grid, x2, y)
            np.testing.assert_allclose(bilinear_sample(grid, x, y), expected, atol=1e-12)

    def test_out_of_range_clamps(self):
        rng = seeded_rng(4)
        grid = rng.standard_normal((3, 3, 2))
        np.testing.assert_array_equal(bilinear_sample(grid, -2.0, -5.0), grid[0, 0])
        np.testing.assert_array_equal(bilinear_sample(grid, 7.0, 9.0), grid[2, 2])

    def test_empty_level_rejected(self):
        with pytest.raises(ValueError):
            bilinear_sample(np.zeros((0, 2, 3)), 0.5, 0.5)


class TestFiniteDiffGrad:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda p: float(p @ p), np.array([3.0]), eps=1e-5)
        np.testing.assert_allclose(grad, [6.0], atol=1e-6)

    def test_constant_function(self):
        grad = finite_diff_grad(lambda p: 7.5, np.array([1.0, -2.0, 0.0]))
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_tanh_at_zero(self):
        grad = finite_diff_grad(lambda p: math.tanh(p[0]), np.array([0.0]))
        np.testing.assert_allclose(grad, [1.0], atol=1e-9)

    def test_exact_on_low_degree_polynomials(self):
        # Central differences are exact on degree <= 2 up to round-off.
        rng = seeded_rng(5)
        eps = 1e-5
        for _ in range(50):
            n = int(rng.integers(1, 6))
            a = rng.uniform(-2, 2, n)
            b = rng.uniform(-2, 2, n)
            x0 = rng.uniform(-1, 1, n)

            def f(p):
                return float((a * p * p + b * p).sum())

            exact = 2 * a * x0 + b
            got = finite_diff_grad(f, x0, eps=eps)
            assert np.max(np.abs(got - exact)) < 10 * eps * eps

    def test_non_finite_evaluation_names_coordinate(self):
        def f(p):
            return float(p[1]) if p[1] >= 0 else math.inf

        with pytest.raises(ValueError, match="coordinate 1"):
            finite_diff_grad(f, np.array([1.0, 0.0]))

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda p: 0.0, np.array([1.0]), eps=0.0)


class TestCompareGrads:
    def test_report_fields(self):
        rep = compare_grads([1.0, 2.0, 0.0], [1.0, 2.2, 0.0])
        assert rep.n_params == 3
        assert rep.worst_index == 1
        np.testing.assert_allclose(rep.max_abs_err, 0.2)
        np.testing.assert_allclose(rep.max_rel_err, 0.2 / 2.2)
        assert rep.worst_index < rep.n_params
        assert rep.max_rel_err >= 0.0

    def test_tiny_denominator_floor(self):
        rep = compare_grads([0.0], [1e-12])
        np.testing.assert_allclose(rep.max_rel_err, 1e-12 / 1e-8)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            compare_grads([1.0, 2.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compare_grads([], [])

    def test_passed_threshold(self):
        rep = compare_grads([1.0], [1.0 + 1e-6])
        assert rep.passed(1e-4)
        assert not rep.passed(1e-8)


@st.composite
def logits_and_row_shifts(draw):
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 8)))
    logits = draw(arrays(np.float64, shape, elements=st.floats(-100.0, 100.0)))
    shifts = draw(arrays(np.float64, (shape[0], 1), elements=st.floats(-100.0, 100.0)))
    return logits, shifts


class TestRowShiftInvariance:
    """Adding a constant to a row changes neither its softmax nor its
    log-softmax.  In floating point, each shifted logit is rounded once
    (by at most half an ulp of 200, about 1.4e-14) and the max subtraction
    rounds again, so the max-shifted logits move by at most about 6e-14.
    Through exp and the normalising sum that is a relative change of
    about 1.2e-13 in softmax and an absolute one of about 1.4e-13 in
    log-softmax; the tolerances of 1e-12 leave a margin of seven or more.
    Logits and shifts lie in [-100, 100], so no probability underflows."""

    @settings(max_examples=300, deadline=None)
    @given(logits_and_row_shifts())
    def test_softmax_rows(self, case):
        logits, shifts = case
        np.testing.assert_allclose(softmax_rows(logits + shifts), softmax_rows(logits),
                                   rtol=1e-12, atol=0.0)

    @settings(max_examples=300, deadline=None)
    @given(logits_and_row_shifts())
    def test_log_softmax_rows(self, case):
        logits, shifts = case
        np.testing.assert_allclose(log_softmax_rows(logits + shifts), log_softmax_rows(logits),
                                   rtol=0.0, atol=1e-12)


class TestExtremeLengths:
    """Finite entries of any size: each row is scaled by a power of two
    before it is squared, so no square overflows or underflows to zero."""

    def test_huge_rows_have_cosine_one(self):
        assert cosine_rows([[1e160, 0.0]], [[1e160, 0.0]]).tolist() == [1.0]
        for row in ([3e200, 4e200], [1e-200, 0.0]):
            assert cosine_matrix([row], [row]).tolist() == [[1.0]]
            assert cosine_rows([row], [row]).tolist() == [1.0]

    @pytest.mark.parametrize("row, unit", [
        ([1e160, 0.0], [1.0, 0.0]),
        ([3e200, 4e200], [0.6, 0.8]),
        ([1e-200, 0.0], [1.0, 0.0]),
        ([0.0, -5e-324], [0.0, -1.0]),
    ])
    def test_unit_rows(self, row, unit):
        np.testing.assert_allclose(unit_rows(row, "row"), unit, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(unit_rows([row, row], "row"), [unit, unit],
                                   rtol=1e-15, atol=0.0)

    def test_zero_row_is_rejected_by_name(self):
        with pytest.raises(ValueError, match="^the row is the zero vector$"):
            unit_rows([[1.0, 2.0], [0.0, 0.0]], "the row")
        with pytest.raises(ValueError, match="zero"):
            unit_rows(np.zeros(3), "the row")


# Dyadic entries at least 2**-10 in magnitude when nonzero: scaled by any
# 2**k with |k| <= 900, every entry stays a normal float64.
DYADIC = st.integers(-2**20, 2**20).map(lambda k: k / 1024.0)


@st.composite
def rows_and_powers(draw):
    n, m, d = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 12))
    x = draw(arrays(np.float64, (n, d), elements=DYADIC))
    y = draw(arrays(np.float64, (m, d), elements=DYADIC))
    kx = draw(arrays(np.int64, (n, 1), elements=st.integers(-900, 900)))
    ky = draw(arrays(np.int64, (m, 1), elements=st.integers(-900, 900)))
    return x, y, kx, ky


def _bits(a):
    return np.asarray(a).view(np.int64)


class TestPowerOfTwoScaling:
    @settings(max_examples=300, deadline=None)
    @given(rows_and_powers())
    def test_scaling_rows_by_a_power_of_two_changes_no_bit(self, case):
        x, y, kx, ky = case
        sx, sy = np.ldexp(x, kx), np.ldexp(y, ky)
        assert np.array_equal(_bits(cosine_matrix(sx, sy)), _bits(cosine_matrix(x, y)))
        k = min(len(x), len(y))
        assert np.array_equal(_bits(cosine_rows(sx[:k], sy[:k])), _bits(cosine_rows(x[:k], y[:k])))
        nonzero = x.any(axis=1)
        if nonzero.any():
            assert np.array_equal(_bits(unit_rows(sx[nonzero], "row")),
                                  _bits(unit_rows(x[nonzero], "row")))


def test_numeric_is_the_only_module_that_computes_a_length():
    users = [path.name for path in sorted(SRC.rglob("*.py")) if "linalg.norm" in path.read_text()]
    assert users == []


def test_numeric_is_the_only_module_that_checks_finiteness():
    users = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "numeric.py":
            continue
        text = path.read_text()
        for node in ast.parse(text).body:
            if "isfinite" in (ast.get_source_segment(text, node) or ""):
                users.append((path.name, getattr(node, "name", type(node).__name__)))
    assert users == []


def _calls_to(tree, name):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_fusion_runs_softmax_only_in_its_attention_kernel():
    tree = ast.parse((SRC / "fusion.py").read_text())
    kernel = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_token_attention")
    assert len(_calls_to(tree, "softmax_rows")) == len(_calls_to(kernel, "softmax_rows")) > 0
