import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_kendall, top_k_by_sum
from promptkit import ranking
from promptkit.gradcheck import run_gradcheck
from promptkit.numeric import seeded_rng
from promptkit.ranking import (
    _COL_TILE,
    _ROW_TILE,
    kendall_tau,
    order_loss,
    select_queries,
    soft_tau_convergence,
)


class TestKendallTau:
    def test_identical_order(self):
        res = kendall_tau([1, 2, 3], [10, 20, 30])
        assert (res.tau, res.concordant, res.discordant) == (1.0, 3, 0)

    def test_full_reversal(self):
        assert kendall_tau([1, 2, 3], [3, 2, 1]).tau == -1.0

    def test_partial_disagreement(self):
        res = kendall_tau([3, 1, 2], [3, 2, 1])
        assert (res.concordant, res.discordant) == (2, 1)
        assert abs(res.tau - 1.0 / 3.0) < 1e-15

    def test_matches_brute_force_with_ties(self):
        rng = seeded_rng(100)
        for _ in range(60):
            n = int(rng.integers(2, 30))
            if rng.random() < 0.5:
                a = rng.integers(0, 5, size=n).astype(float)
                b = rng.integers(0, 5, size=n).astype(float)
            else:
                a = rng.standard_normal(n)
                b = rng.standard_normal(n)
            res = kendall_tau(a, b)
            tau, conc, disc = brute_force_kendall(list(a), list(b))
            assert (res.concordant, res.discordant) == (conc, disc)
            assert res.tau == tau
            assert res.concordant + res.discordant <= n * (n - 1) // 2
            assert abs(res.tau) <= 1.0

    def test_symmetry(self):
        rng = seeded_rng(101)
        a = rng.standard_normal(20)
        b = rng.standard_normal(20)
        assert kendall_tau(a, b).tau == kendall_tau(b, a).tau

    def test_monotone_transform_invariance(self):
        rng = seeded_rng(102)
        a = rng.permutation(15).astype(float)
        b = rng.permutation(15).astype(float)
        base = kendall_tau(a, b)
        cubed = kendall_tau(a ** 3, b)
        assert (cubed.concordant, cubed.discordant) == (base.concordant, base.discordant)
        exped = kendall_tau(a, np.exp(b / 15.0))
        assert (exped.concordant, exped.discordant) == (base.concordant, base.discordant)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            kendall_tau([1, 2], [1, 2, 3])

    # Sizes around 2^k exercise the first and last merge levels.
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.one_of(
            st.integers(2, 70),
            st.sampled_from([2 ** k + d for k in range(1, 8) for d in (-1, 0, 1) if 2 ** k + d >= 2]),
        ),
        levels=st.one_of(st.none(), st.integers(1, 6)),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_brute_force_property(self, n, levels, seed):
        rng = np.random.default_rng(seed)
        if levels is None:
            a, b = rng.standard_normal(n), rng.standard_normal(n)
        else:
            a = rng.integers(0, levels, size=n).astype(float)
            b = rng.integers(0, levels, size=n).astype(float)
        res = kendall_tau(a, b)
        tau, conc, disc = brute_force_kendall(list(a), list(b))
        assert (res.tau, res.concordant, res.discordant, res.n) == (tau, conc, disc, n)

    def test_signed_zeros_tie(self):
        res = kendall_tau([0.0, -0.0, 1.0], [1.0, 2.0, 3.0])
        assert (res.concordant, res.discordant) == (2, 0)
        res = kendall_tau([1.0, 2.0, 3.0], [-0.0, 0.0, -1.0])
        assert (res.concordant, res.discordant) == (0, 2)

    def test_all_tied_gives_zero(self):
        res = kendall_tau([2.0] * 9, [2.0] * 9)
        assert (res.tau, res.concordant, res.discordant) == (0.0, 0, 0)
        res = kendall_tau([2.0] * 9, np.arange(9.0))
        assert (res.tau, res.concordant, res.discordant) == (0.0, 0, 0)

    def test_one_tied_column(self):
        # Ties only in the first list: the pairs inside each tied run count
        # for neither side, every other pair is concordant here.
        a = [0, 0, 0, 1, 1, 2, 3, 3, 3, 3]
        b = np.arange(10.0)
        res = kendall_tau(a, b)
        assert (res.concordant, res.discordant) == (45 - 3 - 1 - 6, 0)
        res = kendall_tau(b, a[::-1])
        assert (res.concordant, res.discordant) == (0, 45 - 3 - 1 - 6)

    def test_identity_and_reversal_at_scale(self):
        n = 200_000
        x = np.arange(n, dtype=float)
        pairs = n * (n - 1) // 2
        res = kendall_tau(x, x)
        assert (res.tau, res.concordant, res.discordant) == (1.0, pairs, 0)
        res = kendall_tau(x, x[::-1])
        assert (res.tau, res.concordant, res.discordant) == (-1.0, 0, pairs)

    def test_matches_tau_b_counts_at_scale(self):
        from scipy.stats import kendalltau

        rng = seeded_rng(103)
        n = 50_000
        x = rng.integers(0, 40, size=n).astype(float)
        y = np.floor(x / 3.0) + rng.integers(0, 25, size=n)

        def tied(*cols):
            _, counts = np.unique(np.stack(cols, axis=1), axis=0, return_counts=True)
            return int((counts * (counts - 1) // 2).sum())

        # tau-b = (C - D) / sqrt((n0 - n1)(n0 - n2)), and C + D = n0 - n1 - n2 + n3.
        n0 = n * (n - 1) // 2
        n1, n2, n3 = tied(x), tied(y), tied(x, y)
        diff = kendalltau(x, y, variant="b").statistic * np.sqrt(float(n0 - n1) * float(n0 - n2))
        assert abs(diff - round(diff)) < 1e-3
        both = n0 - n1 - n2 + n3
        res = kendall_tau(x, y)
        assert res.concordant == (both + round(diff)) // 2
        assert res.discordant == (both - round(diff)) // 2
        assert res.tau == (res.concordant - res.discordant) / n0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            kendall_tau([1], [1])


class TestOrderLoss:
    def test_all_ties_give_zero(self):
        res = order_loss([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert res.loss == 0.0
        np.testing.assert_array_equal(res.grad_text, np.zeros(3))
        np.testing.assert_array_equal(res.grad_visual, np.zeros(3))

    def test_perfect_concordance_saturates_to_minus_one(self):
        t = 100.0 * np.arange(1, 9)
        res = order_loss(t, t)
        assert abs(res.loss + 1.0) < 1e-9

    def test_loss_bounded(self):
        rng = seeded_rng(200)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            res = order_loss(rng.standard_normal(n) * 3, rng.standard_normal(n) * 3)
            assert -1.0 <= res.loss <= 1.0

    def test_gradients_match_central_differences(self):
        # Size and seed pinned by the module contract example.
        assert run_gradcheck("order", 16, 7).max_rel_err < 1e-4

    def test_equals_negated_soft_tau_at_scale_one(self):
        rng = seeded_rng(201)
        a = rng.permutation(12).astype(float)
        b = rng.permutation(12).astype(float)
        assert order_loss(a, b).loss == -soft_tau_convergence(a, b, 1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            order_loss([1.0, 2.0], [1.0])

    @pytest.mark.parametrize("n", [
        2, 3, _ROW_TILE - 1, _ROW_TILE, _ROW_TILE + 1, 2 * _ROW_TILE + 3,
        _ROW_TILE + _COL_TILE + 1, 1000,
    ])
    @pytest.mark.parametrize("tied", [False, True])
    def test_matches_dense_reference(self, n, tied):
        rng = seeded_rng(202 + n)
        if tied:
            t = rng.integers(0, 4, size=n).astype(float)
            v = rng.integers(0, 4, size=n).astype(float)
        else:
            t = rng.standard_normal(n) * 2
            v = rng.standard_normal(n) * 2
        dt = np.tanh(t[:, None] - t[None, :])
        dv = np.tanh(v[:, None] - v[None, :])
        pairs = n * (n - 1) / 2.0
        res = order_loss(t, v)
        assert abs(res.loss - (-(dt * dv).sum() / (2.0 * pairs))) <= 1e-12
        np.testing.assert_allclose(res.grad_text, -((1 - dt * dt) * dv).sum(axis=1) / pairs,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.grad_visual, -((1 - dv * dv) * dt).sum(axis=1) / pairs,
                                   rtol=0, atol=1e-12)

    def test_directional_derivative_across_tiles(self):
        # Several row and column tiles, so the off-diagonal blocks that the
        # n = 16 gradcheck never reaches carry most of the gradient.
        n = 700
        rng = seeded_rng(203)
        t = rng.standard_normal(n)
        v = rng.standard_normal(n)
        res = order_loss(t, v)
        grad = np.concatenate([res.grad_text, res.grad_visual])
        h = 1e-5
        for _ in range(5):
            u = rng.standard_normal(2 * n)
            u /= np.linalg.norm(u)
            du, dw = u[:n], u[n:]
            numeric = (order_loss(t + h * du, v + h * dw).loss
                       - order_loss(t - h * du, v - h * dw).loss) / (2 * h)
            analytic = float(grad @ u)
            assert abs(numeric - analytic) <= 1e-4 * max(abs(analytic), 1e-8)


def assert_matches_dense(t, v):
    """order_loss against the full N x N tanh matrices, at 1e-12 absolute."""
    dt = np.tanh(t[:, None] - t[None, :])
    dv = np.tanh(v[:, None] - v[None, :])
    pairs = t.size * (t.size - 1) / 2.0
    res = order_loss(t, v)
    assert abs(res.loss - (-(dt * dv).sum() / (2.0 * pairs))) <= 1e-12
    np.testing.assert_allclose(res.grad_text, -((1 - dt * dt) * dv).sum(axis=1) / pairs,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.grad_visual, -((1 - dv * dv) * dt).sum(axis=1) / pairs,
                               rtol=0, atol=1e-12)


def tau_ties_scores(n, seed):
    """Scores shaped like the tau benchmark's files: correlated N(0, 1)
    draws written with 2 decimals."""
    rng = seeded_rng(seed)
    x = rng.standard_normal(n)
    y = 0.6 * x + 0.8 * rng.standard_normal(n)
    return np.round(x, 2), np.round(y, 2)


@st.composite
def score_side(draw, n):
    """One side's n scores: integers, N(0, s) rounded to 1 or 2
    decimals, or continuous N(0, s)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["integers", "1 decimal", "2 decimals", "continuous"]))
    if kind == "integers":
        return rng.integers(0, draw(st.integers(1, 12)), size=n).astype(float)
    x = rng.standard_normal(n) * draw(st.sampled_from([0.3, 1.0, 3.0]))
    return x if kind == "continuous" else np.round(x, 1 if kind == "1 decimal" else 2)


class TestOrderLossForms:
    """The table form and the tiled pair loop, on both sides of the cost rule."""

    @pytest.fixture
    def table_calls(self, monkeypatch):
        calls = []
        table_sums = ranking._table_sums

        def spy(row_values, row_index, col_values, col_index):
            calls.append((row_values.size, col_values.size))
            return table_sums(row_values, row_index, col_values, col_index)

        monkeypatch.setattr(ranking, "_table_sums", spy)
        return calls

    # Sizes up to 600 put tie-heavy draws on the table side of the rule and
    # continuous ones on the tiled side; mixed draws land on either.
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), n=st.one_of(st.integers(2, 70), st.integers(150, 600)))
    def test_matches_dense_reference_property(self, data, n):
        assert_matches_dense(data.draw(score_side(n), label="text"),
                             data.draw(score_side(n), label="visual"))

    @pytest.mark.parametrize("n", [200, 400, 600])
    def test_property_sizes_reach_both_forms(self, table_calls, n):
        rng = seeded_rng(210 + n)
        order_loss(rng.integers(0, 12, size=n).astype(float), np.round(rng.standard_normal(n), 1))
        assert len(table_calls) == 1
        order_loss(rng.standard_normal(n), rng.standard_normal(n))
        assert len(table_calls) == 1

    def test_tau_ties_input_takes_the_table(self, table_calls):
        t, v = tau_ties_scores(4000, 211)
        res = order_loss(t, v)
        assert len(table_calls) == 1
        assert np.isfinite(res.loss)

    def test_continuous_scores_take_the_tiled_loop(self, table_calls):
        rng = seeded_rng(212)
        order_loss(rng.standard_normal(2000), rng.standard_normal(2000))
        assert run_gradcheck("order", 16, 7).max_rel_err < 1e-4
        assert table_calls == []

    def test_side_with_more_values_plays_the_row_role(self, table_calls):
        rng = seeded_rng(213)
        few = rng.integers(0, 5, size=500).astype(float)
        many = np.round(rng.standard_normal(500), 2)
        assert_matches_dense(few, many)
        assert_matches_dense(many, few)
        k_many = np.unique(many).size
        assert table_calls == [(k_many, 5), (k_many, 5)]

    def test_table_form_fits_in_tiles(self):
        # One call's peak allocation on a tau-benchmark-sized input.  The
        # tiled loop peaks at about 1.2 MiB; a table form with whole T, V or
        # Kt x Kv matrices would need several MiB.
        rng = seeded_rng(214)
        t = np.round(rng.standard_normal(4000), 2)
        v = np.round(rng.standard_normal(4000), 2)
        tracemalloc.start()
        try:
            order_loss(t, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20


class TestSoftTauConvergence:
    def test_large_scale_approaches_exact_tau(self):
        rng = seeded_rng(300)
        for _ in range(20):
            n = 10
            a = rng.permutation(n).astype(float)
            b = rng.permutation(n).astype(float)
            exact = kendall_tau(a, b).tau
            assert abs(soft_tau_convergence(a, b, 1000.0) - exact) < 1e-3

    def test_zero_scale(self):
        assert soft_tau_convergence([1.0, 2.0], [2.0, 1.0], 0.0) == 0.0

    def test_perfect_sequence_saturates(self):
        a = np.arange(8.0)
        assert soft_tau_convergence(a, a, 100.0) >= 0.999

    def test_ties_rejected(self):
        with pytest.raises(ValueError, match="ties"):
            soft_tau_convergence([1.0, 1.0, 2.0], [1.0, 2.0, 3.0], 10.0)


class TestSelectQueries:
    def test_tie_breaks_toward_lower_index(self):
        np.testing.assert_array_equal(select_queries([1, 0, 0], [0, 0, 1], 1), [0])

    def test_sum_ranking(self):
        np.testing.assert_array_equal(select_queries([3, 1, 2], [3, 1, 2], 2), [0, 2])

    def test_full_selection_descending(self):
        idx = select_queries([1, 3, 2], [1, 3, 2], 3)
        np.testing.assert_array_equal(idx, [1, 2, 0])

    def test_matches_sort_oracle(self):
        rng = seeded_rng(400)
        for _ in range(50):
            n = int(rng.integers(2, 25))
            text = rng.integers(0, 6, size=n).astype(float)
            visual = rng.integers(0, 6, size=n).astype(float)
            k = int(rng.integers(0, n + 1))
            got = select_queries(text, visual, k)
            assert list(got) == top_k_by_sum(list(text), list(visual), k)
            assert len(got) == k

    def test_alpha_reweights(self):
        idx = select_queries([1.0, 0.0], [0.0, 10.0], 1, alpha=1.0)
        np.testing.assert_array_equal(idx, [0])
        idx = select_queries([1.0, 0.0], [0.0, 10.0], 1, alpha=0.0)
        np.testing.assert_array_equal(idx, [1])

    def test_k_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="k must"):
            select_queries([1, 2], [1, 2], 3)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            select_queries([1, 2], [1, 2], 1, alpha=1.5)
