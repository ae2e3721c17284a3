import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import row_loop
from promptkit.alignment import (
    AlignBatch,
    SamplerManifest,
    align_loss,
    align_loss_value,
    build_negative_prompts,
    sample_batches,
)
import promptkit.numeric
from promptkit import alignment, gradcheck
from promptkit.gradcheck import run_gradcheck
from promptkit.numeric import compare_grads, finite_diff_grad, seeded_rng


def unit_rows(rng, k, d):
    m = rng.standard_normal((k, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def direction_losses(v, t, temperature):
    """Independent per-direction cross-entropy, plain numpy."""
    def ce(logits):
        total = 0.0
        for i in range(logits.shape[0]):
            row = logits[i] - logits[i].max()
            total += -(row[i] - math.log(np.exp(row).sum()))
        return total / logits.shape[0]

    s = (v @ t.T) / temperature
    return ce(s), ce(s.T)


class TestAlignLoss:
    def test_two_orthonormal_pairs_closed_form(self):
        v = np.eye(2, 5)
        t = np.eye(2, 5)
        res = align_loss(v, t, temperature=1.0)
        expected = math.log(1.0 + math.exp(-1.0))
        assert abs(res.loss - expected) < 1e-12
        # Symmetric setup: each direction equals the total.
        l1, l2 = direction_losses(v, t, 1.0)
        assert abs(l1 - expected) < 1e-12
        assert abs(l2 - expected) < 1e-12

    def test_identical_embeddings_give_ln_k(self):
        for k in (2, 3, 8):
            base = np.zeros((k, 6))
            base[:, 0] = 1.0
            res = align_loss(base, base, temperature=0.07)
            assert abs(res.loss - math.log(k)) < 1e-12

    def test_matches_independent_direction_means(self):
        rng = seeded_rng(21)
        v = unit_rows(rng, 5, 7)
        t = unit_rows(rng, 5, 7)
        res = align_loss(v, t, temperature=0.3)
        l1, l2 = direction_losses(v, t, 0.3)
        assert abs(res.loss - 0.5 * (l1 + l2)) < 1e-12

    def test_gradients_match_central_differences(self):
        # Size and seed pinned by the module contract example.
        rng = seeded_rng(42)
        k, d = 8, 16
        v = unit_rows(rng, k, d)
        t = unit_rows(rng, k, d)
        temp = 0.2
        res = align_loss(v, t, temperature=temp)

        def f(p):
            return align_loss(p[: k * d].reshape(k, d), p[k * d:].reshape(k, d),
                              temperature=temp).loss

        numeric = finite_diff_grad(row_loop(f), np.concatenate([v.ravel(), t.ravel()]))
        analytic = np.concatenate([res.grad_visual.ravel(), res.grad_text.ravel()])
        assert compare_grads(analytic, numeric).max_rel_err < 1e-4

    def test_negative_keys_change_loss_and_pass_gradcheck(self):
        rng = seeded_rng(33)
        k, d, m = 4, 6, 3
        v = unit_rows(rng, k, d)
        t = unit_rows(rng, k, d)
        neg = unit_rows(rng, m, d)
        plain = align_loss(v, t, temperature=0.5)
        with_neg = align_loss(v, t, temperature=0.5, negative_visual=neg)
        assert with_neg.loss > plain.loss  # extra competing keys
        assert with_neg.grad_negative.shape == (m, d)

        def f(p):
            return align_loss(v, t, temperature=0.5,
                              negative_visual=p.reshape(m, d)).loss

        numeric = finite_diff_grad(row_loop(f), neg.ravel())
        assert compare_grads(with_neg.grad_negative.ravel(), numeric).max_rel_err < 1e-4

    def test_joint_permutation_invariance(self):
        rng = seeded_rng(17)
        v = unit_rows(rng, 6, 5)
        t = unit_rows(rng, 6, 5)
        base = align_loss(v, t).loss
        perm = rng.permutation(6)
        assert abs(align_loss(v[perm], t[perm]).loss - base) < 1e-12

    def test_diagonal_dominance_bounds_each_direction(self):
        rng = seeded_rng(55)
        for _ in range(20):
            k, d = 5, 12
            v = unit_rows(rng, k, d)
            t = v + 0.05 * rng.standard_normal((k, d))
            t /= np.linalg.norm(t, axis=1, keepdims=True)
            s = v @ t.T
            if not (np.all(np.argmax(s, axis=1) == np.arange(k))
                    and np.all(np.argmax(s, axis=0) == np.arange(k))):
                continue
            l1, l2 = direction_losses(v, t, 1.0)
            assert l1 < math.log(k)
            assert l2 < math.log(k)

    def test_loss_decreases_along_negative_gradient(self):
        for seed in range(100):
            rng = seeded_rng(seed)
            v = unit_rows(rng, 4, 8)
            t = unit_rows(rng, 4, 8)
            res = align_loss(v, t)
            norm2 = float((res.grad_visual ** 2).sum() + (res.grad_text ** 2).sum())
            if norm2 < 1e-20:
                continue
            step = 0.5
            improved = False
            for _ in range(25):
                trial = align_loss(v - step * res.grad_visual, t - step * res.grad_text).loss
                if trial < res.loss:
                    improved = True
                    break
                step *= 0.5
            assert improved, f"no descent direction found for seed {seed}"

    def test_validation(self):
        ok = np.eye(2, 4)
        with pytest.raises(ValueError, match="K >= 2"):
            align_loss(ok[:1], ok[:1])
        with pytest.raises(ValueError, match="temperature"):
            align_loss(ok, ok, temperature=0.0)
        with pytest.raises(ValueError, match="match"):
            align_loss(ok, np.eye(3, 4))


class TestAlignBatch:
    def test_requires_unit_norms(self):
        with pytest.raises(ValueError, match="unit"):
            AlignBatch(visual=2 * np.eye(2, 4), text=np.eye(2, 4),
                       categories=("a", "b"), dataset_ids=("d", "d"))

    def test_requires_nonempty_categories(self):
        with pytest.raises(ValueError, match="nonempty"):
            AlignBatch(visual=np.eye(2, 4), text=np.eye(2, 4),
                       categories=("a", ""), dataset_ids=("d", "d"))


class TestNegativePrompts:
    def make_batch(self, visual, categories):
        k = visual.shape[0]
        return AlignBatch(
            visual=visual,
            text=np.tile(np.eye(1, visual.shape[1]), (k, 1)),
            categories=categories,
            dataset_ids=("d",) * k,
        )

    def test_single_other_category(self):
        batch = self.make_batch(np.eye(2, 4), ("a", "b"))
        negs = build_negative_prompts(batch)
        np.testing.assert_allclose(negs["a"].vec, np.eye(2, 4)[1], atol=1e-15)
        np.testing.assert_allclose(negs["b"].vec, np.eye(2, 4)[0], atol=1e-15)

    def test_three_basis_categories(self):
        batch = self.make_batch(np.eye(3, 3), ("a", "b", "c"))
        negs = build_negative_prompts(batch)
        np.testing.assert_allclose(
            negs["a"].vec, np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0), atol=1e-15
        )

    def test_order_invariance(self):
        rng = seeded_rng(3)
        visual = unit_rows(rng, 6, 5)
        cats = ("a", "b", "a", "c", "b", "c")
        negs = build_negative_prompts(self.make_batch(visual, cats))
        perm = [3, 0, 5, 1, 4, 2]
        negs_p = build_negative_prompts(
            self.make_batch(visual[perm], tuple(cats[i] for i in perm))
        )
        for cat in ("a", "b", "c"):
            np.testing.assert_allclose(negs[cat].vec, negs_p[cat].vec, atol=1e-12)

    def test_leave_own_category_out_matches_brute_force(self):
        rng = seeded_rng(9)
        for _ in range(25):
            k = int(rng.integers(3, 10))
            visual = unit_rows(rng, k, 6)
            cats = tuple(f"c{int(rng.integers(0, 3))}" for _ in range(k))
            if len(set(cats)) < 2:
                continue
            negs = build_negative_prompts(self.make_batch(visual, cats))
            for cat, emb in negs.items():
                rows = [visual[i] for i in range(k) if cats[i] != cat]
                brute = np.mean(rows, axis=0)
                brute /= np.linalg.norm(brute)
                np.testing.assert_allclose(emb.vec, brute, atol=1e-12)
                assert abs(np.linalg.norm(emb.vec) - 1.0) < 1e-12

    def test_single_category_rejected(self):
        with pytest.raises(ValueError, match="two distinct"):
            build_negative_prompts(self.make_batch(np.eye(2, 4), ("a", "a")))


class TestSampler:
    def test_single_dataset_chunking(self):
        manifest = SamplerManifest(
            samples=tuple((f"s{i}", "only") for i in range(10)),
            batch_size=4,
            seed=0,
        )
        batches = sample_batches(manifest)
        assert sorted(len(b.sample_ids) for b in batches) == [2, 4, 4]
        assert all(b.dataset_id == "only" for b in batches)
        seen = [s for b in batches for s in b.sample_ids]
        assert sorted(seen) == sorted(s for s, _ in manifest.samples)

    def test_two_datasets_pure_and_complete(self):
        manifest = SamplerManifest(
            samples=tuple((f"a{i}", "A") for i in range(3)) + tuple((f"b{i}", "B") for i in range(3)),
            batch_size=2,
            seed=1,
        )
        batches = sample_batches(manifest)
        for b in batches:
            prefixes = {s[0] for s in b.sample_ids}
            assert len(prefixes) == 1
        seen = sorted(s for b in batches for s in b.sample_ids)
        assert seen == sorted(s for s, _ in manifest.samples)

    def test_deterministic(self):
        manifest = SamplerManifest(
            samples=tuple((f"s{i}", f"d{i % 3}") for i in range(17)),
            batch_size=4,
            seed=7,
        )
        assert sample_batches(manifest) == sample_batches(manifest)

    def test_empty_manifest_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            SamplerManifest(samples=(), batch_size=2, seed=0)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            '{"batch_size": 2, "seed": 5, "samples": '
            '[{"id": "x", "dataset": "A"}, {"id": "y", "dataset": "A"}]}'
        )
        manifest = SamplerManifest.from_file(path)
        assert manifest.batch_size == 2
        assert manifest.samples == (("x", "A"), ("y", "A"))


@st.composite
def align_inputs(draw):
    """Unit (K, d) visual and text rows, 0-5 unit negative rows, a
    temperature, and one permutation of the K pairs."""
    rng = seeded_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 12))
    d = draw(st.integers(1, 64))
    v, t = unit_rows(rng, k, d), unit_rows(rng, k, d)
    neg = unit_rows(rng, draw(st.integers(0, 5)), d)
    temperature = draw(st.floats(0.05, 3.0))
    return v, t, neg, temperature, rng.permutation(k)


class TestAlignLossProperties:
    @settings(max_examples=200, deadline=None)
    @given(align_inputs())
    def test_empty_negative_block_is_no_negatives(self, inputs):
        v, t, neg, temperature, _ = inputs
        empty = np.empty((0, v.shape[1]))
        without = align_loss(v, t, temperature)
        res = align_loss(v, t, temperature, negative_visual=empty)
        assert res.loss == without.loss
        assert np.array_equal(res.grad_visual, without.grad_visual)
        assert np.array_equal(res.grad_text, without.grad_text)
        assert without.grad_negative is None
        assert res.grad_negative.shape == (0, v.shape[1])

    # Permuting the pairs permutes the rows and columns the matrix products
    # and softmax sums run over, so their rounding may differ.  Unit rows,
    # K <= 12, d <= 64 and temperatures >= 0.05 keep each logit's error below
    # 64 * 2**-53 / 0.05, about 1.4e-13, well inside these tolerances.
    @settings(max_examples=200, deadline=None)
    @given(align_inputs(), st.booleans())
    def test_pair_permutation_equivariance(self, inputs, with_negatives):
        v, t, neg, temperature, perm = inputs
        neg = neg if with_negatives else None
        base = align_loss(v, t, temperature, negative_visual=neg)
        res = align_loss(v[perm], t[perm], temperature, negative_visual=neg)
        assert abs(res.loss - base.loss) <= 1e-12
        np.testing.assert_allclose(res.grad_visual, base.grad_visual[perm], rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(res.grad_text, base.grad_text[perm], rtol=1e-9, atol=1e-11)
        if with_negatives:
            np.testing.assert_allclose(res.grad_negative, base.grad_negative,
                                       rtol=1e-9, atol=1e-11)

    @settings(max_examples=200, deadline=None)
    @given(align_inputs(), st.sampled_from(["none", "some", "empty"]))
    def test_value_is_align_loss_bit_for_bit(self, inputs, negatives):
        v, t, neg, temperature, _ = inputs
        neg = {"none": None, "some": neg, "empty": np.empty((0, v.shape[1]))}[negatives]
        value = align_loss_value(v, t, temperature, negative_visual=neg)
        loss = align_loss(v, t, temperature, negative_visual=neg).loss
        assert np.float64(value).tobytes() == np.float64(loss).tobytes()


BAD_ALIGN_INPUTS = {
    "one-pair": (np.eye(1, 4), np.eye(1, 4), 0.1, None),
    "zero-temperature": (np.eye(2, 4), np.eye(2, 4), 0.0, None),
    "negative-temperature": (np.eye(2, 4), np.eye(2, 4), -0.5, None),
    "mismatched-shapes": (np.eye(2, 4), np.eye(3, 4), 0.1, None),
    "1-d-rows": (np.ones(4), np.ones(4), 0.1, None),
    "negatives-wrong-width": (np.eye(2, 4), np.eye(2, 4), 0.1, np.ones((2, 3))),
    "negatives-1-d": (np.eye(2, 4), np.eye(2, 4), 0.1, np.ones(4)),
}


@pytest.mark.parametrize("inputs", BAD_ALIGN_INPUTS.values(), ids=BAD_ALIGN_INPUTS)
def test_value_raises_what_align_loss_raises(inputs):
    visual, text, temperature, neg = inputs
    with pytest.raises(ValueError) as expected:
        align_loss(visual, text, temperature, negative_visual=neg)
    with pytest.raises(ValueError) as got:
        align_loss_value(visual, text, temperature, negative_visual=neg)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_align_gradcheck_runs_one_backward_pass(monkeypatch, seed):
    # The 512 loss evaluations of the oracle need values only; the one
    # analytic align_loss call runs the backward step once per direction.
    calls = []
    real = alignment._logit_grad

    def counting(log_p):
        calls.append(log_p.shape)
        return real(log_p)

    monkeypatch.setattr(alignment, "_logit_grad", counting)
    assert run_gradcheck("align", 8, seed).n_params == 256
    assert calls == [(8, 8), (8, 8)]


@st.composite
def manifests(draw):
    """Manifests of distinct sample ids spread over up to four datasets."""
    datasets = draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=40))
    return SamplerManifest(
        samples=tuple((f"s{i}", ds) for i, ds in enumerate(datasets)),
        batch_size=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


class TestSamplerProperties:
    @settings(max_examples=200, deadline=None)
    @given(manifests())
    def test_pure(self, manifest):
        again = SamplerManifest(samples=tuple(manifest.samples), batch_size=manifest.batch_size,
                                seed=manifest.seed)
        assert sample_batches(manifest) == sample_batches(again)

    @settings(max_examples=200, deadline=None)
    @given(manifests())
    def test_complete_and_dataset_pure(self, manifest):
        dataset_of = dict(manifest.samples)
        batches = sample_batches(manifest)
        seen = sorted(s for b in batches for s in b.sample_ids)
        assert seen == sorted(dataset_of)
        for b in batches:
            assert 1 <= len(b.sample_ids) <= manifest.batch_size
            assert {dataset_of[s] for s in b.sample_ids} == {b.dataset_id}
        # One short batch at most per dataset: ceil(n / batch_size) batches each.
        for ds in set(dataset_of.values()):
            n = sum(1 for d in dataset_of.values() if d == ds)
            assert sum(b.dataset_id == ds for b in batches) == -(-n // manifest.batch_size)


@st.composite
def align_stacks(draw):
    """(m, K, d) visual and text stacks, optional (m, M, d) negatives and a
    temperature."""
    rng = seeded_rng(draw(st.integers(0, 2**32 - 1)))
    m, k, d = draw(st.integers(1, 5)), draw(st.integers(2, 40)), draw(st.integers(1, 32))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
    v, t = (scale * rng.standard_normal((m, k, d)) for _ in range(2))
    n_neg = draw(st.one_of(st.none(), st.integers(0, 4)))
    neg = None if n_neg is None else scale * rng.standard_normal((m, n_neg, d))
    return v, t, neg, draw(st.floats(0.05, 5.0))


@settings(max_examples=200, deadline=None)
@given(align_stacks())
def test_stack_value_is_each_slice_align_loss_bit_for_bit(inputs):
    v, t, neg, temperature = inputs
    values = align_loss_value(v, t, temperature, negative_visual=neg)
    assert values.shape == (v.shape[0],)
    for i in range(v.shape[0]):
        loss = align_loss(v[i], t[i], temperature,
                          negative_visual=None if neg is None else neg[i]).loss
        assert values[i].tobytes() == np.float64(loss).tobytes()


def test_align_loss_refuses_a_stack():
    stack = np.stack([np.eye(2, 4)] * 3)
    with pytest.raises(ValueError) as exc:
        align_loss(stack, stack)
    assert str(exc.value) == "visual/text must be matching (K, d) arrays, got (3, 2, 4) vs (3, 2, 4)"


@pytest.mark.parametrize("neg_shape", [(2, 4), (2, 1, 4), (3, 1, 3), (3, 2, 1, 4)])
def test_stack_negatives_carry_the_stack_dims(neg_shape):
    stack = np.stack([np.eye(2, 4)] * 3)
    with pytest.raises(ValueError) as exc:
        align_loss_value(stack, stack, negative_visual=np.ones(neg_shape))
    assert str(exc.value) == f"negatives must be (3, M, 4), got {neg_shape}"


def test_align_gradcheck_evaluates_each_chunk_in_one_call(monkeypatch):
    # 256 parameters: 512 points, one align_loss_value call per chunk of
    # them (the parent oracle made one call per point).
    calls = []
    real = gradcheck.align_loss_value

    def counting(visual, text, **kwargs):
        calls.append(visual.shape)
        return real(visual, text, **kwargs)

    monkeypatch.setattr(gradcheck, "align_loss_value", counting)
    assert run_gradcheck("align", 8, 0).passed(1e-4)
    per_chunk = max(1, promptkit.numeric._FD_CHUNK_ENTRIES // 512)
    assert len(calls) == -(-256 // per_chunk) == 2
    assert sum(shape[0] for shape in calls) == 512
    assert all(shape[1:] == (8, 16) for shape in calls)
