import json

import numpy as np
import pytest

from oracles import make_annotation_fixture
from promptkit.engine import (
    AnnotationSet,
    Instance,
    batch_verify,
    cross_verify,
    retention_stats,
)
from promptkit.losses import iou
from promptkit.prompts import ConstantEmbeddings, HashEmbeddings


def single_instance_sets(box=(0.1, 0.1, 0.5, 0.5), tag_a="cat", tag_b="cat"):
    a = AnnotationSet("img", 640, 480, "top_down",
                      (Instance(np.asarray(box, float), tag_a, 0.9, "top_down"),))
    b = AnnotationSet("img", 640, 480, "bottom_up",
                      (Instance(np.asarray(box, float), tag_b, 0.8, "bottom_up"),))
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
                Instance(box, tag, 0.9, "top_down") for box, tag in zip(boxes, tags)))
            b = AnnotationSet("img", 640, 480, "bottom_up", tuple(
                Instance(box, tag, 0.8, "bottom_up") for box, tag in zip(boxes, tags)))
            _, report = cross_verify(a, b, HashEmbeddings(dim), sim_threshold=1.0)
            assert report.retained == 8

    def test_iou_gate_discards_disjoint_match(self):
        a = AnnotationSet("img", 640, 480, "top_down",
                          (Instance(np.array([0.0, 0.0, 0.2, 0.2]), "cat", 0.9, "top_down"),))
        b = AnnotationSet("img", 640, 480, "bottom_up",
                          (Instance(np.array([0.7, 0.7, 0.9, 0.9]), "cat", 0.9, "bottom_up"),))
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
            Instance(a1, "cat", 0.9, "top_down"),
            Instance(a2, "dog", 0.9, "top_down"),
        ))
        b = AnnotationSet("img", 64, 64, "bottom_up", (
            Instance(b1, "cat", 0.9, "bottom_up"),
            Instance(b2, "dog", 0.9, "bottom_up"),
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
        assert inst.source == "top_down"

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
    def test_mixed_sources_rejected(self):
        with pytest.raises(ValueError, match="differs"):
            AnnotationSet("img", 10, 10, "top_down",
                          (Instance(np.array([0, 0, 0.5, 0.5]), "t", 0.5, "bottom_up"),))

    def test_json_round_trip(self):
        a, _ = single_instance_sets(tag_a="fox")
        again = AnnotationSet.from_dict(json.loads(a.to_json()))
        assert again.to_json() == a.to_json()

    def test_score_range_validated(self):
        with pytest.raises(ValueError, match="score"):
            Instance(np.array([0, 0, 0.5, 0.5]), "t", 1.5, "top_down")


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

    def test_parallel_jobs_match_serial(self, tmp_path):
        pairs = make_annotation_fixture(6, seed=11)
        dir_a, dir_b = write_fixture_dirs(tmp_path, pairs)
        serial = batch_verify(dir_a, dir_b, HashEmbeddings(dim=16), jobs=1)
        parallel = batch_verify(dir_a, dir_b, HashEmbeddings(dim=16), jobs=4)
        assert [v.to_json() for v in serial.verified] == [v.to_json() for v in parallel.verified]


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
