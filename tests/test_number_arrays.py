"""Every number array read from outside goes through ``numeric.as_finite``:
only ints and floats pass, and each failure has one wording naming the input."""

import json
import re

import numpy as np
import pytest

from promptkit.alignment import AlignBatch
from promptkit.engine import Instance
from promptkit.fusion import FusionParams, FusionState
from promptkit.losses import (
    Prediction,
    Target,
    bce_mask_loss,
    dice_loss,
    giou_loss,
    hungarian,
    iou,
    match_and_total_loss,
    pairwise_iou,
    pairwise_l1,
)
from promptkit.numeric import (
    as_finite,
    compare_grads,
    cosine_matrix,
    finite_diff_grad,
    softmax_rows,
)
from promptkit.prompts import FeatureMap, FileEmbeddings, PromptEmbedding
from promptkit.ranking import kendall_tau, order_loss, select_queries


def _from_file(x, tmp_path):
    path = tmp_path / "emb.json"
    path.write_text(json.dumps({"cat": x}))
    return FileEmbeddings.from_file(path)


def _ok(shape):
    return np.full(shape, 0.5)


# (id, name in the message, rank, a valid shape, call, shape of the wrong-rank case)
ENTRY_POINTS = [
    ("hungarian", "cost matrix", 2, (2, 2), lambda x, _: hungarian(x), None),
    ("softmax_rows", "softmax input", 2, (2, 2), lambda x, _: softmax_rows(x), None),
    ("cosine_matrix", "second embedding matrix", 2, (2, 3),
     lambda x, _: cosine_matrix(_ok((2, 3)), x), None),
    ("kendall_tau", "first score list", 1, (3,), lambda x, _: kendall_tau(x, _ok(3)), None),
    ("order_loss", "second score list", 1, (3,), lambda x, _: order_loss(_ok(3), x), None),
    ("select_queries", "first score list", 1, (3,),
     lambda x, _: select_queries(x, _ok(3), 1), None),
    ("finite_diff_grad", "parameter vector", 1, (3,),
     lambda x, _: finite_diff_grad(lambda p: 0.0, x), None),
    ("compare_grads", "numeric gradient", 1, (3,), lambda x, _: compare_grads(_ok(3), x), None),
    ("FusionState", "text stream", 2, (2, 4),
     lambda x, _: FusionState(features=_ok((3, 4)), text=x, visual=_ok((1, 4))), None),
    ("shared-background", "shared background token", 1, (4,),
     lambda x, _: FusionParams.zero_update(4, background=x), (4, 1, 1)),
    ("PromptEmbedding", "text embedding", 1, (3,), lambda x, _: PromptEmbedding(x, "text"), None),
    ("FeatureMap.from_arrays", "level 0", 3, (2, 2, 3),
     lambda x, _: FeatureMap.from_arrays([x]), None),
    ("FeatureMap", "level 1", 3, (2, 2, 3),
     lambda x, _: FeatureMap(levels=(_ok((1, 1, 3)), x), dim=3), None),
    ("FileEmbeddings", "embedding for tag 'cat'", 1, (2,), _from_file, None),
    ("AlignBatch", "visual embedding matrix", 2, (2, 2),
     lambda x, _: AlignBatch(visual=x, text=np.eye(2), categories=("a", "b"),
                             dataset_ids=("d", "d")), None),
    ("iou", "second box", 1, (4,), lambda x, _: iou(_ok(4), x), None),
    ("giou_loss", "pred box", 1, (4,), lambda x, _: giou_loss(x, _ok(4)), None),
    ("pairwise_iou", "second boxes", 2, (2, 4), lambda x, _: pairwise_iou(_ok((2, 4)), x), None),
    ("pairwise_l1", "pred boxes", 2, (2, 4), lambda x, _: pairwise_l1(x, _ok((2, 4))), None),
    ("Instance", "box of tag 't'", 1, (4,), lambda x, _: Instance(x, "t", 0.5), None),
    ("match_and_total_loss", "pred box 0", 1, (4,),
     lambda x, _: match_and_total_loss([Prediction(box=x, embed=_ok(3))],
                                       [Target(box=_ok(4), embed=_ok(3))]), None),
    ("dice_loss", "pred mask", 2, (2, 2), lambda x, _: dice_loss(x, _ok((2, 2))), None),
    ("bce_mask_loss", "gt mask", 2, (2, 2), lambda x, _: bce_mask_loss(_ok((2, 2)), x), None),
]


def _cases():
    for ident, name, ndim, shape, call, wrong_shape in ENTRY_POINTS:
        nan = np.zeros(shape)
        nan.flat[-1] = np.nan
        wrong_shape = wrong_shape or shape + (1,)
        yield pytest.param(call, np.full(shape, "1").tolist(),
                           f"{name} must be numeric, got '1'", id=f"{ident}-string")
        yield pytest.param(call, np.full(shape, True).tolist(),
                           f"{name} must be numeric, got True", id=f"{ident}-boolean")
        yield pytest.param(call, nan.tolist(), f"{name} contains non-finite entries",
                           id=f"{ident}-nan")
        yield pytest.param(call, np.zeros(wrong_shape).tolist(),
                           f"{name} must be {ndim}-D, got shape {wrong_shape}",
                           id=f"{ident}-rank")


@pytest.mark.parametrize("call, x, message", _cases())
def test_entry_point_rejects_in_one_wording(tmp_path, call, x, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(x, tmp_path)


class TestAsFinite:
    @pytest.mark.parametrize("x, bad", [
        ([1.0, True], "True"), ([1, 2, False], "False"), ([2.0, None], "None"),
        (["0.5"], "'0.5'"), (np.array([1 + 2j]), "(1+2j)"), ([{}], "{}"),
    ], ids=["bool-among-floats", "bool-among-ints", "none", "text", "complex", "object"])
    def test_only_numbers_pass(self, x, bad):
        with pytest.raises(ValueError, match=f"^x must be numeric, got {re.escape(bad)}$"):
            as_finite(x, "x", np.ndim(x))

    @pytest.mark.parametrize("x, bad", [
        ([[1, 2], [3, True]], "True"), ([[1.0, 2.0], (3.0, False)], "False"),
        ([[[0.5]], [["0.5"]]], "'0.5'"), ([np.array([1.0]), [None]], "None"),
        ([np.array([1.0, 2.0]), np.array([True, False])], "True"),
        (np.array([[1, True]], dtype=object), "True"),
    ], ids=["bool-in-nested-list", "bool-in-nested-tuple", "text-two-deep", "none-beside-array",
            "boolean-array-in-list", "bool-in-object-array"])
    def test_nested_entries_are_checked(self, x, bad):
        with pytest.raises(ValueError, match=f"^x must be numeric, got {re.escape(bad)}$"):
            as_finite(x, "x", np.ndim(x))

    def test_number_arrays_in_lists_pass(self):
        x = [np.array([1, 2], dtype=np.int8), np.array([3.0, 4.0]), [5, 6.0]]
        out = as_finite(x, "x", 2)
        assert out.dtype == np.float64 and out.tolist() == [[1, 2], [3, 4], [5, 6]]

    @pytest.mark.parametrize("x", [[10**400], [1.0, float("inf")], [-np.inf]])
    def test_beyond_the_float_range_is_non_finite(self, x):
        with pytest.raises(ValueError, match="^x contains non-finite entries$"):
            as_finite(x, "x", 1)

    def test_ragged_rows_are_named(self):
        with pytest.raises(ValueError, match="^x must be a rectangular array$"):
            as_finite([[1.0, 2.0], [3.0]], "x", 2)

    def test_numbers_become_float64(self):
        for x in ([1, 2], np.array([1, 2], dtype=np.int8), np.array([1, 2], dtype=np.float32),
                  [np.float64(1.0), 2], np.array([1, 2], dtype=object)):
            out = as_finite(x, "x", 1)
            assert out.dtype == np.float64 and out.tolist() == [1.0, 2.0]
        assert as_finite(3, "x", 0).shape == ()

    def test_float64_array_is_not_copied(self):
        a = np.arange(6.0).reshape(2, 3)
        assert as_finite(a, "x", 2) is a
