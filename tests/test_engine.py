import dataclasses
import errno
import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import make_annotation_fixture
from promptkit import engine, losses
from promptkit.engine import (
    SOURCES,
    AnnotationSet,
    Instance,
    batch_verify,
    cross_verify,
    retention_stats,
    write_text_atomic,
)
from promptkit.losses import iou
from promptkit.prompts import ConstantEmbeddings, FileEmbeddings, HashEmbeddings


def single_instance_sets(box=(0.1, 0.1, 0.5, 0.5), tag_a="cat", tag_b="cat"):
    a = AnnotationSet("img", 640, 480, "top_down",
                      (Instance(np.asarray(box, float), tag_a, 0.9),))
    b = AnnotationSet("img", 640, 480, "bottom_up",
                      (Instance(np.asarray(box, float), tag_b, 0.8),))
    return a, b


class TestCrossVerify:
    def test_self_verification(self):
        a, b = single_instance_sets()
        verified, report = cross_verify(a, b, ConstantEmbeddings(8))
        assert (report.matched, report.retained) == (1, 1)
        assert report.retention_rate == 1.0
        assert report.retention_rate_top_down == 1.0
        assert report.retention_rate_bottom_up == 1.0
        assert verified.instances[0].alias_tag is None
        assert verified.instances[0].similarity == 1.0

    @pytest.mark.parametrize("dim", [16, 256])
    def test_identical_tags_pass_threshold_one(self, dim):
        boxes = [np.array([0.1 * k, 0.1 * k, 0.1 * k + 0.05, 0.1 * k + 0.05]) for k in range(8)]
        for start in range(0, 64, 8):
            tags = [f"tag{start + k}" for k in range(8)]
            a = AnnotationSet("img", 640, 480, "top_down", tuple(
                Instance(box, tag, 0.9) for box, tag in zip(boxes, tags)))
            b = AnnotationSet("img", 640, 480, "bottom_up", tuple(
                Instance(box, tag, 0.8) for box, tag in zip(boxes, tags)))
            _, report = cross_verify(a, b, HashEmbeddings(dim), sim_threshold=1.0)
            assert report.retained == 8

    def test_tag_vectors_reach_the_kernel_as_arrays(self, monkeypatch):
        cosine_rows = engine.cosine_rows
        seen = []

        def recording(x, y):
            seen.append((x, y))
            return cosine_rows(x, y)

        monkeypatch.setattr(engine, "cosine_rows", recording)
        a, b = single_instance_sets(tag_b="dog")
        _, report = cross_verify(a, b, HashEmbeddings(8))
        [(x, y)] = seen
        for side, tag in ((x, "cat"), (y, "dog")):
            assert type(side) is np.ndarray and side.dtype == np.float64
            assert side.tolist() == [HashEmbeddings(8).embed(tag).tolist()]
        assert report.similarities_before == tuple(cosine_rows(x, y).tolist())

    def test_iou_gate_discards_disjoint_match(self):
        a = AnnotationSet("img", 640, 480, "top_down",
                          (Instance(np.array([0.0, 0.0, 0.2, 0.2]), "cat", 0.9),))
        b = AnnotationSet("img", 640, 480, "bottom_up",
                          (Instance(np.array([0.7, 0.7, 0.9, 0.9]), "cat", 0.9),))
        verified, report = cross_verify(a, b, ConstantEmbeddings(8), iou_gate=0.5)
        assert report.matched == 1
        assert report.retained == 0
        assert verified.instances == ()

    def test_two_by_two_assignment_from_brute_force(self):
        # Strong diagonal IoUs, weak off-diagonal: the two-permutation
        # comparison on 1-IoU costs picks the diagonal.
        a1 = np.array([0.00, 0.0, 0.40, 0.40])
        b1 = np.array([0.00, 0.0, 0.40, 0.36])
        a2 = np.array([0.60, 0.6, 1.00, 1.00])
        b2 = np.array([0.60, 0.6, 1.00, 0.92])
        diag = (1 - iou(a1, b1)) + (1 - iou(a2, b2))
        swap = (1 - iou(a1, b2)) + (1 - iou(a2, b1))
        assert diag < swap
        a = AnnotationSet("img", 64, 64, "top_down", (
            Instance(a1, "cat", 0.9),
            Instance(a2, "dog", 0.9),
        ))
        b = AnnotationSet("img", 64, 64, "bottom_up", (
            Instance(b1, "cat", 0.9),
            Instance(b2, "dog", 0.9),
        ))
        verified, report = cross_verify(a, b, ConstantEmbeddings(4), iou_gate=0.5, sim_threshold=0.6)
        assert report.retained == 2
        np.testing.assert_array_equal(verified.instances[0].box, a1)
        np.testing.assert_array_equal(verified.instances[1].box, a2)

    def test_tag_mismatch_keeps_topdown_box_with_alias(self):
        a, b = single_instance_sets(tag_a="dog", tag_b="puppy")
        verified, _ = cross_verify(a, b, ConstantEmbeddings(8), sim_threshold=0.5)
        inst = verified.instances[0]
        assert inst.tag == "dog"
        assert inst.alias_tag == "puppy"
        assert verified.source == "top_down"

    def test_constant_provider_yields_unit_mean_similarity(self):
        a, b = single_instance_sets(tag_a="x", tag_b="y")
        _, report = cross_verify(a, b, ConstantEmbeddings(8), sim_threshold=0.0)
        assert report.mean_similarity_after == 1.0

    def test_counts_ordering_invariant(self):
        rng = np.random.default_rng(12)
        emb = HashEmbeddings(dim=32)
        for a, b in make_annotation_fixture(20, seed=3):
            _, report = cross_verify(a, b, emb, iou_gate=0.4, sim_threshold=0.3)
            assert report.retained <= report.matched
            assert report.matched <= min(report.input_a, report.input_b)

    def test_zero_thresholds_retain_every_match(self):
        emb = HashEmbeddings(dim=32)
        for a, b in make_annotation_fixture(15, seed=4):
            _, report = cross_verify(a, b, emb, iou_gate=0.0, sim_threshold=-1.0)
            assert report.retained == report.matched

    def test_threshold_monotonicity(self):
        emb = HashEmbeddings(dim=32)
        pairs = make_annotation_fixture(10, seed=5)
        gates = np.linspace(0.0, 0.9, 5)
        sims = np.linspace(-1.0, 1.0, 5)
        for a, b in pairs:
            grid = np.array([
                [cross_verify(a, b, emb, iou_gate=g, sim_threshold=s)[1].retained for s in sims]
                for g in gates
            ])
            assert np.all(np.diff(grid, axis=0) <= 0)
            assert np.all(np.diff(grid, axis=1) <= 0)

    def test_deterministic_serialization(self):
        emb = HashEmbeddings(dim=16)
        for a, b in make_annotation_fixture(5, seed=6):
            v1, _ = cross_verify(a, b, emb, iou_gate=0.3, sim_threshold=0.2)
            v2, _ = cross_verify(a, b, emb, iou_gate=0.3, sim_threshold=0.2)
            assert v1.to_json() == v2.to_json()

    def test_image_id_mismatch_rejected(self):
        a, _ = single_instance_sets()
        b = AnnotationSet("other", 640, 480, "bottom_up", ())
        with pytest.raises(ValueError, match="image_id"):
            cross_verify(a, b, ConstantEmbeddings(8))

    def test_source_order_enforced(self):
        a, b = single_instance_sets()
        with pytest.raises(ValueError, match="top_down, bottom_up"):
            cross_verify(b, a, ConstantEmbeddings(8))

    def test_threshold_ranges_validated(self):
        a, b = single_instance_sets()
        with pytest.raises(ValueError, match="iou_gate"):
            cross_verify(a, b, ConstantEmbeddings(8), iou_gate=1.5)
        with pytest.raises(ValueError, match="sim_threshold"):
            cross_verify(a, b, ConstantEmbeddings(8), sim_threshold=-2.0)

    def test_empty_inputs_allowed(self):
        a = AnnotationSet("img", 10, 10, "top_down", ())
        b = AnnotationSet("img", 10, 10, "bottom_up", ())
        verified, report = cross_verify(a, b, ConstantEmbeddings(4))
        assert report.matched == 0
        assert report.retained == 0
        assert report.retention_rate == 0.0
        assert verified.instances == ()


class TestAnnotationSet:
    def test_source_is_not_an_instance_field(self):
        box = np.array([0.0, 0.0, 0.5, 0.5])
        assert [f.name for f in dataclasses.fields(Instance)] == \
            ["box", "tag", "score", "similarity", "alias_tag"]
        # A stale positional source is refused rather than read as a similarity.
        with pytest.raises(TypeError):
            Instance(box, "t", 0.5, "top_down")
        inst = Instance(box, "t", 0.5, similarity=0.25, alias_tag="u")
        assert (inst.similarity, inst.alias_tag) == (0.25, "u")

    def test_set_alone_holds_the_source(self):
        instances = (Instance(np.array([0.0, 0.0, 0.5, 0.5]), "t", 0.5),)
        for source in ("top_down", "bottom_up"):
            ann = AnnotationSet("img", 10, 10, source, instances)
            assert ann.to_dict()["source"] == source
            assert json.loads(ann.to_json())["source"] == source
        assert not hasattr(instances[0], "source")

    def test_json_round_trip(self):
        a, _ = single_instance_sets(tag_a="fox")
        again = AnnotationSet.from_dict(json.loads(a.to_json()))
        assert again.to_json() == a.to_json()

    def test_score_range_validated(self):
        with pytest.raises(ValueError, match="score"):
            Instance(np.array([0, 0, 0.5, 0.5]), "t", 1.5)


def write_fixture_dirs(tmp_path, pairs):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    for a, b in pairs:
        (dir_a / f"{a.image_id}.json").write_text(a.to_json())
        (dir_b / f"{b.image_id}.json").write_text(b.to_json())
    return dir_a, dir_b


class TestBatchVerify:
    def test_aggregates_and_writes_outputs(self, tmp_path):
        pairs = make_annotation_fixture(8, seed=7)
        dir_a, dir_b = write_fixture_dirs(tmp_path, pairs)
        out = tmp_path / "out"
        result = batch_verify(dir_a, dir_b, HashEmbeddings(dim=16), out_dir=out)
        assert not result.failed
        assert len(result.reports) == 8
        assert sorted(p.name for p in out.glob("*.json")) == [
            f"img{i:04d}.json" for i in range(8)
        ]

    def test_unpaired_images_reported(self, tmp_path):
        pairs = make_annotation_fixture(3, seed=8)
        dir_a, dir_b = write_fixture_dirs(tmp_path, pairs)
        (dir_a / "lonely.json").write_text(
            AnnotationSet("lonely", 10, 10, "top_down", ()).to_json()
        )
        result = batch_verify(dir_a, dir_b, HashEmbeddings(dim=16))
        assert result.unpaired == ("lonely",)
        assert len(result.reports) == 3

    def test_malformed_file_recorded_and_processing_continues(self, tmp_path):
        pairs = make_annotation_fixture(2, seed=10)
        dir_a, dir_b = write_fixture_dirs(tmp_path, pairs)
        (dir_a / "broken.json").write_text("{nope")
        result = batch_verify(dir_a, dir_b, HashEmbeddings(dim=16))
        assert result.failed
        assert any("broken.json" in err for err in result.errors)
        assert len(result.reports) == 2


class TestRetentionStats:
    def test_summary_fields(self):
        emb = HashEmbeddings(dim=16)
        reports = [cross_verify(a, b, emb, iou_gate=0.2, sim_threshold=0.1)[1]
                   for a, b in make_annotation_fixture(10, seed=12)]
        stats = retention_stats(reports)
        assert stats["images"] == 10
        assert stats["matched"] == sum(r.matched for r in reports)
        assert stats["retained"] == sum(r.retained for r in reports)
        assert 0.0 <= stats["retention_rate"] <= 1.0
        assert stats["retention_rate_top_down"] == stats["retained"] / stats["input_a"]
        assert stats["retention_rate_bottom_up"] == stats["retained"] / stats["input_b"]
        assert abs(stats["filtered_fraction"] + stats["retention_rate"] - 1.0) < 1e-12
        assert len(stats["similarity_histogram_before"]) == 20
        assert sum(stats["similarity_histogram_after"]) == stats["retained"]


# ---------------------------------------------------------------------------
# Columnar loading, the template writer, retained sets and atomic writes
# ---------------------------------------------------------------------------

# Tags exercise every escape json.dumps makes: quotes, backslashes,
# control characters, non-ASCII and astral characters.
TAG = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f/é \U0001f600'),
                        st.characters()), min_size=1, max_size=6)
COORD_PAIR = st.tuples(
    st.one_of(st.sampled_from([-0.0, 0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    st.one_of(st.sampled_from([-0.0, 0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
).map(sorted)
BOX = st.tuples(COORD_PAIR, COORD_PAIR).map(lambda xy: [xy[0][0], xy[1][0], xy[0][1], xy[1][1]])
# Every similarity an instance accepts: None, a float in [-1, 1] (signed
# zeros and subnormals included) or a JSON integer in that range.
SIMILARITY = st.one_of(st.none(), st.floats(-1.0, 1.0),
                       st.sampled_from([-0.0, 5e-324, -5e-324, 1e-300, -1, 0, 1]))
# What SIMILARITY leaves out: NaN, +-inf, floats outside [-1, 1] and
# numeric strings, each refused by name.
BAD_SIMILARITY = st.one_of(st.floats().filter(lambda x: not -1.0 <= x <= 1.0),
                           st.floats().map(repr))


@st.composite
def annotation_docs(draw):
    def item():
        d = {"box": draw(BOX), "tag": draw(TAG), "score": draw(st.floats(0.0, 1.0))}
        similarity, alias_tag = draw(SIMILARITY), draw(st.one_of(st.none(), TAG))
        if similarity is not None:
            d["similarity"] = similarity
        if alias_tag is not None:
            d["alias_tag"] = alias_tag
        return d

    return {
        "image_id": draw(TAG), "width": draw(st.integers(1, 10**6)),
        "height": draw(st.integers(1, 10**6)), "source": draw(st.sampled_from(SOURCES)),
        "instances": [item() for _ in range(draw(st.integers(0, 4)))],
    }


def dumps_oracle(ann):
    return json.dumps(ann.to_dict(), sort_keys=True, indent=2) + "\n"


class TestTemplateWriter:
    @settings(max_examples=300, deadline=None)
    @given(annotation_docs())
    def test_loaded_set_matches_json_dumps(self, doc):
        ann = AnnotationSet.from_dict(doc)
        assert ann.to_json() == dumps_oracle(ann)

    @settings(max_examples=100, deadline=None)
    @given(annotation_docs())
    def test_constructed_set_matches_json_dumps(self, doc):
        source = doc["source"]
        ann = AnnotationSet(doc["image_id"], doc["width"], doc["height"], source, tuple(
            Instance(np.asarray(d["box"]), d["tag"], d["score"],
                     similarity=d.get("similarity"), alias_tag=d.get("alias_tag"))
            for d in doc["instances"]))
        assert ann.to_json() == dumps_oracle(ann)

    def test_empty_instance_list(self):
        ann = AnnotationSet("img", 4, 3, "bottom_up", ())
        assert ann.to_json() == dumps_oracle(ann)
        assert '"instances": [],' in ann.to_json()

    def test_verified_sets_match_json_dumps(self):
        emb = HashEmbeddings(dim=16)
        for a, b in make_annotation_fixture(10, seed=21):
            verified, _ = cross_verify(a, b, emb, iou_gate=0.0, sim_threshold=-1.0)
            assert verified.to_json() == dumps_oracle(verified)

    @pytest.mark.parametrize("similarity", [-0.0, 5e-324, 1e-300])
    def test_special_similarities_match_json_dumps(self, similarity):
        doc = {"image_id": "img", "width": 4, "height": 3, "source": "top_down",
               "instances": [{**GOOD, "similarity": similarity}]}
        ann = AnnotationSet.from_dict(doc)
        assert ann.to_json() == dumps_oracle(ann)


GOOD = {"box": [0.1, 0.1, 0.5, 0.5], "tag": "a", "score": 0.9}


def load_error(tmp_path, instances):
    path = tmp_path / "img.json"
    path.write_text(json.dumps({"image_id": "img", "width": 8, "height": 8,
                                "source": "top_down", "instances": instances}))
    with pytest.raises((ValueError, KeyError, TypeError)) as excinfo:
        AnnotationSet.from_file(path)
    return excinfo.value


class TestLoadErrors:
    def test_first_bad_instance_in_file_order_wins(self, tmp_path):
        exc = load_error(tmp_path, [GOOD, {**GOOD, "tag": "b", "box": [0.5, 0.1, 0.1, 0.5]},
                                    {**GOOD, "tag": "c", "box": [0.1, 0.1, 1.5, 0.5]}])
        assert str(exc) == ("box of tag 'b' must satisfy x1 <= x2 and y1 <= y2, "
                            "got [0.5, 0.1, 0.1, 0.5]")

    def test_bad_score_before_bad_box(self, tmp_path):
        exc = load_error(tmp_path, [{**GOOD, "score": 1.5},
                                    {**GOOD, "box": [0.5, 0.1, 0.1, 0.5]}])
        assert str(exc) == "instance score must lie in [0, 1], got 1.5"

    @pytest.mark.parametrize("score", [1.5, -0.25, float("nan")])
    def test_bad_score_alone(self, tmp_path, score):
        exc = load_error(tmp_path, [GOOD, {**GOOD, "score": score}])
        assert str(exc) == f"instance score must lie in [0, 1], got {score}"

    def test_empty_tag_alone(self, tmp_path):
        exc = load_error(tmp_path, [GOOD, {**GOOD, "tag": ""}])
        assert str(exc) == "instance tag must be nonempty"

    def test_missing_key_before_bad_box(self, tmp_path):
        exc = load_error(tmp_path, [GOOD, {"box": [0.1, 0.1, 0.5, 0.5], "score": 0.5},
                                    {**GOOD, "box": [0.5, 0.1, 0.1, 0.5]}])
        assert isinstance(exc, KeyError) and exc.args == ("tag",)

    def test_ragged_box(self, tmp_path):
        exc = load_error(tmp_path, [GOOD, {**GOOD, "tag": "b", "box": [0.1, 0.2, 0.3]}])
        assert str(exc) == "box of tag 'b' must have 4 coordinates, got shape (3,)"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coordinate(self, tmp_path, value):
        exc = load_error(tmp_path, [GOOD, {**GOOD, "tag": "b", "box": [0.1, value, 0.3, 0.4]}])
        assert str(exc) == "box of tag 'b' contains non-finite entries"

    def test_inverted_corners(self, tmp_path):
        exc = load_error(tmp_path, [GOOD, {**GOOD, "tag": "b", "box": [0.1, 0.6, 0.5, 0.5]}])
        assert str(exc) == ("box of tag 'b' must satisfy x1 <= x2 and y1 <= y2, "
                            "got [0.1, 0.6, 0.5, 0.5]")

    def test_wrong_json_type_in_file_order(self, tmp_path):
        exc = load_error(tmp_path, [GOOD, {**GOOD, "score": "0.5"}, {**GOOD, "score": 1.5}])
        assert str(exc) == "instance score must be numeric, got '0.5'"
        exc = load_error(tmp_path, [{**GOOD, "score": 1.5}, {**GOOD, "box": [0.1, 0.1, 0.5, True]}])
        assert str(exc) == "instance score must lie in [0, 1], got 1.5"

    def test_json_integers_load(self):
        ann = AnnotationSet.from_dict({
            "image_id": "img", "width": 8.0, "height": 6, "source": "top_down",
            "instances": [{"box": [0, 0, 1, 1], "tag": "a", "score": 1}]})
        assert (type(ann.width), ann.width, ann.height) == (int, 8, 6)
        assert ann.boxes.tolist() == [[0.0, 0.0, 1.0, 1.0]]
        assert type(ann.instances[0].score) is float

    def test_batch_verify_records_the_message(self, tmp_path):
        dir_a, dir_b = write_fixture_dirs(tmp_path, make_annotation_fixture(2, seed=22))
        bad = {"image_id": "bad", "width": 8, "height": 8, "source": "top_down",
               "instances": [GOOD, {**GOOD, "tag": "b", "box": [0.1, 0.2, 0.3]}]}
        (dir_a / "bad.json").write_text(json.dumps(bad))
        result = batch_verify(dir_a, dir_b, HashEmbeddings(dim=16))
        assert result.errors == (
            f"{dir_a / 'bad.json'}: box of tag 'b' must have 4 coordinates, got shape (3,)",)
        assert len(result.reports) == 2

    def test_loaded_boxes_are_the_instance_rows(self):
        a, _ = make_annotation_fixture(1, seed=23)[0]
        again = AnnotationSet.from_dict(json.loads(a.to_json()))
        assert again.boxes.shape == (len(a.instances), 4)
        for row, inst, orig in zip(again.boxes, again.instances, a.instances):
            assert inst.box.base is again.boxes
            np.testing.assert_array_equal(inst.box, orig.box)
            np.testing.assert_array_equal(row, orig.box)


@pytest.mark.parametrize("score", ["0.5", True, None])
def test_instance_score_must_be_a_number(score):
    with pytest.raises(ValueError) as excinfo:
        Instance(np.array([0.0, 0.0, 1.0, 1.0]), "t", score)
    assert str(excinfo.value) == f"instance score must be numeric, got {score!r}"


class TestNonStringTags:
    @pytest.mark.parametrize("tag", [5, [1], {"a": 1}, True, 2.5])
    def test_rejected_at_load(self, tmp_path, tag):
        exc = load_error(tmp_path, [GOOD, {**GOOD, "tag": tag}])
        assert str(exc) == f"instance tag must be a string, got {tag!r}"

    def test_first_bad_instance_in_file_order_wins(self, tmp_path):
        exc = load_error(tmp_path, [GOOD, {**GOOD, "tag": 5}, {**GOOD, "score": 1.5}])
        assert str(exc) == "instance tag must be a string, got 5"
        exc = load_error(tmp_path, [{**GOOD, "score": 1.5}, {**GOOD, "tag": 5}])
        assert str(exc) == "instance score must lie in [0, 1], got 1.5"

    def test_constructor_checks_come_first(self, tmp_path):
        exc = load_error(tmp_path, [{**GOOD, "tag": 5, "score": 1.5}])
        assert str(exc) == "instance score must lie in [0, 1], got 1.5"
        exc = load_error(tmp_path, [{**GOOD, "tag": 0}])
        assert str(exc) == "instance tag must be nonempty"

    def test_constructor_refuses_them(self):
        with pytest.raises(ValueError) as excinfo:
            Instance(np.array([0.0, 0.0, 1.0, 1.0]), 7, 0.5)
        assert str(excinfo.value) == "instance tag must be a string, got 7"

    def test_hash_fallback_run_records_the_file(self, tmp_path):
        dir_a, dir_b = write_fixture_dirs(tmp_path, make_annotation_fixture(2, seed=24))
        bad = {"image_id": "bad", "width": 8, "height": 8, "source": "bottom_up",
               "instances": [{**GOOD, "tag": 5}]}
        (dir_b / "bad.json").write_text(json.dumps(bad))
        (dir_a / "bad.json").write_text(json.dumps({**bad, "source": "top_down",
                                                    "instances": [GOOD]}))
        result = batch_verify(dir_a, dir_b, HashEmbeddings(dim=16))
        assert result.errors == (f"{dir_b / 'bad.json'}: instance tag must be a string, got 5",)
        assert len(result.reports) == 2


BAD_FIELDS = [
    pytest.param({"similarity": "abc"}, "instance similarity must be numeric, got 'abc'",
                 id="similarity-abc"),
    pytest.param({"similarity": True}, "instance similarity must be numeric, got True",
                 id="similarity-true"),
    pytest.param({"similarity": 2.0}, "instance similarity must lie in [-1, 1], got 2.0",
                 id="similarity-2.0"),
    pytest.param({"similarity": float("nan")}, "instance similarity must lie in [-1, 1], got nan",
                 id="similarity-NaN"),
    pytest.param({"similarity": float("inf")}, "instance similarity must lie in [-1, 1], got inf",
                 id="similarity-Infinity"),
    pytest.param({"similarity": float("-inf")},
                 "instance similarity must lie in [-1, 1], got -inf", id="similarity-minus-Infinity"),
    pytest.param({"similarity": "nan"}, "instance similarity must be numeric, got 'nan'",
                 id="similarity-string-nan"),
    pytest.param({"similarity": "inf"}, "instance similarity must be numeric, got 'inf'",
                 id="similarity-string-inf"),
    pytest.param({"similarity": "-Infinity"},
                 "instance similarity must be numeric, got '-Infinity'",
                 id="similarity-string-minus-Infinity"),
    pytest.param({"alias_tag": 5}, "instance alias_tag must be a nonempty string, got 5",
                 id="alias_tag-5"),
    pytest.param({"alias_tag": ""}, "instance alias_tag must be a nonempty string, got ''",
                 id="alias_tag-empty"),
    pytest.param({"alias_tag": [1]}, "instance alias_tag must be a nonempty string, got [1]",
                 id="alias_tag-list"),
    pytest.param({"alias_tag": 2.5}, "instance alias_tag must be a nonempty string, got 2.5",
                 id="alias_tag-2.5"),
]


class TestRefusedFields:
    """``similarity`` and ``alias_tag`` are checked where they are held."""

    @pytest.mark.parametrize("fields, message", BAD_FIELDS)
    def test_refused_at_load(self, tmp_path, fields, message):
        dir_a, dir_b = write_fixture_dirs(tmp_path, make_annotation_fixture(1, seed=29))
        bad = {"image_id": "bad", "width": 8, "height": 8, "source": "top_down",
               "instances": [GOOD, {**GOOD, **fields}]}
        (dir_a / "bad.json").write_text(json.dumps(bad))
        (dir_b / "bad.json").write_text(json.dumps({**bad, "source": "bottom_up",
                                                    "instances": [GOOD]}))
        result = batch_verify(dir_a, dir_b, HashEmbeddings(dim=16))
        assert result.errors == (f"{dir_a / 'bad.json'}: {message}",)
        assert [r.image_id for r in result.reports] == ["img0000"]

    @pytest.mark.parametrize("fields, message", BAD_FIELDS)
    def test_refused_at_construction(self, fields, message):
        with pytest.raises(ValueError) as excinfo:
            Instance(np.array([0.1, 0.1, 0.5, 0.5]), "a", 0.9, **fields)
        assert str(excinfo.value) == message

    @settings(max_examples=100, deadline=None)
    @given(BAD_SIMILARITY)
    def test_similarities_outside_the_strategy_are_refused(self, similarity):
        message = (f"instance similarity must be numeric, got {similarity!r}"
                   if isinstance(similarity, str) else
                   f"instance similarity must lie in [-1, 1], got {similarity}")
        doc = {"image_id": "img", "width": 4, "height": 3, "source": "top_down",
               "instances": [GOOD, {**GOOD, "similarity": similarity}]}
        for build in (lambda: AnnotationSet.from_dict(doc),
                      lambda: Instance(np.array(GOOD["box"]), "a", 0.9, similarity=similarity)):
            with pytest.raises(ValueError) as excinfo:
                build()
            assert str(excinfo.value) == message

    def test_set_fields_are_checked_where_held(self):
        with pytest.raises(ValueError) as excinfo:
            AnnotationSet("img", "4", 3, "top_down", ())
        assert str(excinfo.value) == "width must be an integer, got '4'"
        ann = AnnotationSet("img", 4.0, 3, "top_down", ())
        assert (type(ann.width), ann.width) == (int, 4)
        assert ann.to_json() == dumps_oracle(ann)

    @pytest.mark.parametrize("instances, message", [
        ([1], "instances[0] must be an Instance, got 1"),
        ((Instance(np.array(GOOD["box"]), "a", 0.9), GOOD),
         f"instances[1] must be an Instance, got {GOOD!r}"),
        (None, "instances must be a sequence of Instance, got None"),
    ])
    def test_instances_are_checked_where_held(self, instances, message):
        with pytest.raises(ValueError) as excinfo:
            AnnotationSet("i", 4, 3, "top_down", instances)
        assert str(excinfo.value) == message

    def test_instances_are_held_as_a_tuple(self):
        inst = Instance(np.array(GOOD["box"]), "a", 0.9)
        ann = AnnotationSet("i", 4, 3, "top_down", [inst])
        assert ann.instances == (inst,)
        assert ann.to_json() == dumps_oracle(ann)

    def test_threshold_type_is_checked(self):
        a, b = single_instance_sets()
        with pytest.raises(ValueError) as excinfo:
            cross_verify(a, b, ConstantEmbeddings(8), iou_gate="0.5")
        assert str(excinfo.value) == "iou_gate must be numeric, got '0.5'"


def retained_json(a, b, emb, gate, threshold):
    verified, _ = cross_verify(a, b, emb, iou_gate=gate, sim_threshold=threshold)
    return [json.dumps(inst.to_dict(), sort_keys=True) for inst in verified.instances]


def is_subsequence(small, big):
    it = iter(big)
    return all(x in it for x in small)


GATE = st.one_of(st.sampled_from([0.0, 0.3, 0.6, 0.8, 0.9, 0.95, 1.0]), st.floats(0.0, 1.0))
THRESHOLD = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-1.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), GATE, GATE, THRESHOLD, THRESHOLD)
def test_cross_verify_monotone_in_gate_and_threshold(seed, g1, g2, s1, s2):
    (g1, g2), (s1, s2) = sorted((g1, g2)), sorted((s1, s2))
    emb = HashEmbeddings(dim=8)
    for a, b in make_annotation_fixture(6, seed=seed):
        loose = retained_json(a, b, emb, g1, s1)
        for gate, threshold in [(g2, s1), (g1, s2), (g2, s2)]:
            assert is_subsequence(retained_json(a, b, emb, gate, threshold), loose)


class CountingEmbeddings:
    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def embed(self, tag):
        self.calls.append(tag)
        return self.inner.embed(tag)


class TestBatchVerifyWork:
    def test_valid_files_never_revalidated_or_replaced(self, tmp_path, monkeypatch):
        dir_a, dir_b = write_fixture_dirs(tmp_path, make_annotation_fixture(8, seed=24))
        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(engine, "validate_box", counting("validate_box", engine.validate_box))
        monkeypatch.setattr(losses, "validate_box", counting("validate_box", losses.validate_box))
        monkeypatch.setattr(dataclasses, "replace", counting("replace", dataclasses.replace))
        if hasattr(engine, "replace"):
            monkeypatch.setattr(engine, "replace", counting("replace", engine.replace))
        result = batch_verify(dir_a, dir_b, HashEmbeddings(dim=16), iou_gate=0.0,
                              sim_threshold=-1.0, out_dir=tmp_path / "out")
        assert sum(r.retained for r in result.reports) > 0
        assert calls == []

    def test_one_embed_call_per_distinct_tag(self, tmp_path):
        pairs = make_annotation_fixture(12, seed=25)
        dir_a, dir_b = write_fixture_dirs(tmp_path, pairs)
        emb = CountingEmbeddings(HashEmbeddings(dim=16))
        result = batch_verify(dir_a, dir_b, emb, iou_gate=0.0, sim_threshold=-1.0)
        assert len(emb.calls) == len(set(emb.calls)) > 1
        expected = [cross_verify(a, b, HashEmbeddings(dim=16), iou_gate=0.0,
                                 sim_threshold=-1.0)[1].to_dict() for a, b in pairs]
        assert [r.to_dict() for r in result.reports] == expected

    def test_first_unknown_tag_raised_is_unchanged(self, tmp_path):
        pairs = make_annotation_fixture(12, seed=26)
        dir_a, dir_b = write_fixture_dirs(tmp_path, pairs)
        tags = sorted({i.tag for a, b in pairs for i in a.instances + b.instances})
        emb = FileEmbeddings(table={t: np.ones(4) for t in tags[::2]}, dim=4)
        with pytest.raises(KeyError) as expected:
            for a, b in pairs:
                cross_verify(a, b, emb, iou_gate=0.0, sim_threshold=-1.0)
        with pytest.raises(KeyError) as got:
            batch_verify(dir_a, dir_b, emb, iou_gate=0.0, sim_threshold=-1.0)
        assert got.value.args == expected.value.args

    def test_report_dict_equals_asdict_without_similarities(self):
        emb = HashEmbeddings(dim=16)
        for a, b in make_annotation_fixture(6, seed=27):
            _, report = cross_verify(a, b, emb, iou_gate=0.2, sim_threshold=0.0)
            expected = dataclasses.asdict(report)
            del expected["similarities_before"], expected["similarities_after"]
            assert list(report.to_dict().items()) == list(expected.items())


class TestAtomicWrites:
    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch):
        pairs = make_annotation_fixture(3, seed=28)
        dir_a, dir_b = write_fixture_dirs(tmp_path, pairs)
        out = tmp_path / "out"
        out.mkdir()
        (out / "img0000.json").write_text("old\n")
        real_open = open

        def disk_full(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if "w" in mode:
                def write(text):
                    fh.buffer.write(text[: len(text) // 2].encode())
                    fh.flush()
                    raise OSError(errno.ENOSPC, "No space left on device")
                fh.write = write
            return fh

        monkeypatch.setattr(engine, "open", disk_full, raising=False)
        with pytest.raises(OSError) as excinfo:
            batch_verify(dir_a, dir_b, HashEmbeddings(dim=16), out_dir=out)
        assert excinfo.value.filename == str(out / "img0000.json")
        assert (out / "img0000.json").read_text() == "old\n"
        assert [p.name for p in out.iterdir()] == ["img0000.json"]

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        target = tmp_path / "report.json"
        target.write_text("old\n")

        def failing_replace(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            write_text_atomic(target, "new\n")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_modes_match_write_text(self, tmp_path):
        (tmp_path / "plain.json").write_text("x")
        write_text_atomic(tmp_path / "atomic.json", "x")
        assert (tmp_path / "atomic.json").stat().st_mode == (tmp_path / "plain.json").stat().st_mode
        existing = tmp_path / "existing.json"
        existing.write_text("old")
        existing.chmod(0o640)
        write_text_atomic(existing, "new")
        assert existing.read_text() == "new"
        assert stat.S_IMODE(existing.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "atomic.json", "existing.json", "plain.json"]
