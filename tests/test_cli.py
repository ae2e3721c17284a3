import errno
import json
import os
import subprocess
import sys

import pytest

import promptkit
from oracles import make_annotation_fixture
from promptkit import engine, fusion, gradcheck
from promptkit.cli import SOFT_TAU_MAX_N, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scores(path, values):
    path.write_text("".join(f"{v}\n" for v in values))


def deeply_nested(depth=100_000):
    """JSON nested deeper than the parser's recursion limit."""
    return "[" * depth + "]" * depth


class TestTau:
    def test_identical_files_give_tau_one(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        write_scores(a, [1.0, 2.0, 3.0, 4.0])
        code, out, _ = run_cli(capsys, "tau", "--a", str(a), "--b", str(a))
        assert code == 0
        payload = json.loads(out)
        assert payload["tau"] == 1.0
        assert payload["discordant"] == 0
        assert "soft_tau" in payload

    def test_byte_identical_output(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_scores(a, [3.0, 1.0, 2.0])
        write_scores(b, [1.0, 2.0, 3.0])
        _, out1, _ = run_cli(capsys, "tau", "--a", str(a), "--b", str(b))
        _, out2, _ = run_cli(capsys, "tau", "--a", str(a), "--b", str(b))
        assert out1 == out2

    def test_soft_tau_null_above_limit(self, tmp_path, capsys):
        n = SOFT_TAU_MAX_N + 1
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_scores(a, range(n))
        # Pairs (2k, 2k + 1) tie in b; every other pair is concordant.
        write_scores(b, [i // 2 for i in range(n)])
        code, out, err = run_cli(capsys, "tau", "--a", str(a), "--b", str(b))
        assert code == 0
        payload = json.loads(out)
        pairs = n * (n - 1) // 2
        assert payload == {
            "tau": (pairs - n // 2) / pairs,
            "concordant": pairs - n // 2,
            "discordant": 0,
            "n": n,
            "soft_tau": None,
        }
        assert len(err.splitlines()) == 1
        assert str(SOFT_TAU_MAX_N) in err


class TestSelect:
    def test_selection(self, tmp_path, capsys):
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps({"text": [3, 1, 2], "visual": [3, 1, 2]}))
        code, out, _ = run_cli(capsys, "select", "--scores", str(scores), "--k", "2")
        assert code == 0
        assert json.loads(out)["indices"] == [0, 2]

    def test_scores_list_gives_one_line_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps([1, 2]))
        code, out, err = run_cli(capsys, "select", "--scores", str(scores), "--k", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        '{"text": [%d], "visual": [1]}' % 10**400,
        '{"text": %s, "visual": [1]}' % deeply_nested(),
    ], ids=["huge-score", "nesting-too-deep"])
    def test_unconvertible_scores_give_one_line_error(self, tmp_path, capsys, text):
        scores = tmp_path / "scores.json"
        scores.write_text(text)
        code, out, err = run_cli(capsys, "select", "--scores", str(scores), "--k", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestGradcheck:
    def test_passing_run(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--loss", "order",
                               "--n", "16", "--seed", "42", "--tol", "1e-4")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["max_rel_err"] < 1e-4

    def test_impossible_tolerance_fails_with_exit_one(self, capsys):
        code, out, err = run_cli(capsys, "gradcheck", "--loss", "giou",
                                 "--n", "4", "--seed", "1", "--tol", "1e-18")
        assert code == 1
        assert json.loads(out)["passed"] is False
        assert "gradcheck failed" in err

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("PROMPTKIT_SEED", "123")
        code, out, _ = run_cli(capsys, "gradcheck", "--loss", "l1", "--n", "2")
        assert code == 0
        assert json.loads(out)["seed"] == 123

    def test_all_losses_pass_defaults(self, capsys):
        for loss in ("order", "align", "giou", "l1", "dice", "bce"):
            code, out, _ = run_cli(capsys, "gradcheck", "--loss", loss, "--seed", "5")
            assert code == 0, loss


class TestFuseDemo:
    def test_stats_output(self, tmp_path, capsys):
        config = tmp_path / "fuse.json"
        config.write_text(json.dumps({
            "dim": 8, "seed": 3, "layers": 2,
            "feature_tokens": 10, "text_prompts": 2, "visual_prompts": 2,
        }))
        code, out, _ = run_cli(capsys, "fuse-demo", "--config", str(config))
        assert code == 0
        payload = json.loads(out)
        assert len(payload["background_activation"]) == 2
        assert payload["token_counts"] == {"features": 10, "text": 2, "visual": 2}
        for layer in payload["background_activation"]:
            assert set(layer) == {"text", "visual", "features"}

    def test_null_dim_gives_one_line_error(self, tmp_path, capsys):
        config = tmp_path / "fuse.json"
        config.write_text(json.dumps({"dim": None}))
        code, out, err = run_cli(capsys, "fuse-demo", "--config", str(config))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_config_seed_ignores_environment(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "fuse.json"
        config.write_text(json.dumps({"dim": 4, "seed": 3, "layers": 1}))
        expected = run_cli(capsys, "fuse-demo", "--config", str(config))
        monkeypatch.setenv("PROMPTKIT_SEED", "abc")
        assert run_cli(capsys, "fuse-demo", "--config", str(config)) == expected
        assert expected[0] == 0

    # json.dumps writes inf as Infinity, which json.load reads as inf, as it does 1e400.
    @pytest.mark.parametrize("override", [{"layers": -2}, {"d_k": 0}, {"hidden": 0},
                                          {"layers": float("inf")}],
                             ids=["negative-layers", "zero-d_k", "zero-hidden", "infinite-layers"])
    def test_bad_size_gives_one_line_error(self, tmp_path, capsys, override):
        config = tmp_path / "fuse.json"
        config.write_text(json.dumps({"dim": 8, "seed": 3, **override}))
        code, out, err = run_cli(capsys, "fuse-demo", "--config", str(config))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("override, key", [
        ({"dim": 0}, "dim"), ({"dim": -1}, "dim"),
        ({"feature_tokens": 0}, "feature_tokens"), ({"feature_tokens": -3}, "feature_tokens"),
    ], ids=["zero-dim", "negative-dim", "zero-features", "negative-features"])
    def test_bad_size_names_its_key(self, tmp_path, capsys, override, key):
        config = tmp_path / "fuse.json"
        config.write_text(json.dumps({"dim": 8, "seed": 3, **override}))
        code, out, err = run_cli(capsys, "fuse-demo", "--config", str(config))
        assert code == 1
        assert out == ""
        assert err == f"error: {key} must be >= 1, got {next(iter(override.values()))}\n"

    def test_zero_layers_reports_no_layer(self, tmp_path, capsys):
        config = tmp_path / "fuse.json"
        config.write_text(json.dumps({"dim": 8, "seed": 3, "layers": 0, "feature_tokens": 5}))
        code, out, _ = run_cli(capsys, "fuse-demo", "--config", str(config))
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["layers"] == 0
        assert payload["background_activation"] == []
        assert payload["token_counts"] == {"features": 5, "text": 4, "visual": 4}

    @pytest.mark.parametrize("layers", [1, 3])
    def test_one_attention_pass_per_layer(self, tmp_path, capsys, monkeypatch, layers):
        calls = []
        real = fusion.gated_attn

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(fusion, "gated_attn", counting)
        config = tmp_path / "fuse.json"
        config.write_text(json.dumps({"dim": 8, "seed": 3, "layers": layers}))
        code, out, _ = run_cli(capsys, "fuse-demo", "--config", str(config))
        assert code == 0
        assert len(json.loads(out)["background_activation"]) == layers
        assert len(calls) == 3 * layers


class TestSample:
    def test_json_lines_cover_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "batch_size": 2,
            "seed": 9,
            "samples": [{"id": f"s{i}", "dataset": f"d{i % 2}"} for i in range(7)],
        }))
        code, out, _ = run_cli(capsys, "sample", "--manifest", str(manifest))
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert all(set(line) == {"dataset", "samples"} for line in lines)
        seen = sorted(s for line in lines for s in line["samples"])
        assert seen == sorted(f"s{i}" for i in range(7))

    @pytest.mark.parametrize("samples", [[1], ["s0"], [None], "s0"])
    def test_malformed_samples_give_one_line_error(self, tmp_path, capsys, samples):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"batch_size": 2, "seed": 9, "samples": samples}))
        code, out, err = run_cli(capsys, "sample", "--manifest", str(manifest))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        '{"batch_size": 1e400, "seed": 9, "samples": [{"id": "s0", "dataset": "d0"}]}',
        '{"batch_size": 2, "seed": 9, "samples": %s}' % deeply_nested(50_000),
    ], ids=["infinite-batch-size", "nesting-too-deep"])
    def test_unconvertible_manifest_gives_one_line_error(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        code, out, err = run_cli(capsys, "sample", "--manifest", str(manifest))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerify:
    def write_dirs(self, tmp_path, pairs):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        for a, b in pairs:
            (dir_a / f"{a.image_id}.json").write_text(a.to_json())
            (dir_b / f"{b.image_id}.json").write_text(b.to_json())
        return dir_a, dir_b

    def test_empty_instance_lists_succeed(self, tmp_path, capsys):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        empty = {"image_id": "img", "width": 8, "height": 8, "instances": []}
        (dir_a / "img.json").write_text(json.dumps({**empty, "source": "top_down"}))
        (dir_b / "img.json").write_text(json.dumps({**empty, "source": "bottom_up"}))
        code, out, _ = run_cli(capsys, "verify", "--a", str(dir_a), "--b", str(dir_b),
                               "--hash-fallback")
        assert code == 0
        payload = json.loads(out)
        assert payload["aggregate"]["retained"] == 0

    def test_full_run_writes_report_and_outputs(self, tmp_path, capsys):
        pairs = make_annotation_fixture(4, seed=2)
        dir_a, dir_b = self.write_dirs(tmp_path, pairs)
        out_dir = tmp_path / "out"
        report = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "--a", str(dir_a), "--b", str(dir_b),
            "--hash-fallback", "--emb-dim", "32",
            "--iou-gate", "0.3", "--sim-thresh", "0.2",
            "--out", str(out_dir), "--report", str(report),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["aggregate"]["images"] == 4
        assert json.loads(report.read_text()) == payload
        assert len(list(out_dir.glob("*.json"))) == 4

    def test_failed_report_write_keeps_old_report(self, tmp_path, capsys, monkeypatch):
        dir_a, dir_b = self.write_dirs(tmp_path, make_annotation_fixture(2, seed=8))
        report = tmp_path / "report.json"
        report.write_text("old report\n")
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
        code, _, err = run_cli(capsys, "verify", "--a", str(dir_a), "--b", str(dir_b),
                               "--hash-fallback", "--report", str(report))
        assert code == 1
        assert err == f"error: [Errno {errno.ENOSPC}] No space left on device: '{report}'\n"
        assert report.read_text() == "old report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "report.json"]

    def test_malformed_file_gives_exit_one(self, tmp_path, capsys):
        pairs = make_annotation_fixture(2, seed=3)
        dir_a, dir_b = self.write_dirs(tmp_path, pairs)
        (dir_a / "bad.json").write_text("[1,")
        code, out, err = run_cli(capsys, "verify", "--a", str(dir_a), "--b", str(dir_b),
                                 "--hash-fallback")
        assert code == 1
        assert json.loads(out)["errors"]
        assert "bad.json" in err

    def test_embedding_file_provider(self, tmp_path, capsys):
        pairs = make_annotation_fixture(2, seed=4)
        dir_a, dir_b = self.write_dirs(tmp_path, pairs)
        emb = tmp_path / "emb.json"
        tags = sorted({i.tag for a, b in pairs for i in a.instances + b.instances})
        emb.write_text(json.dumps({t: [1.0, 0.0] for t in tags}))
        code, out, _ = run_cli(capsys, "verify", "--a", str(dir_a), "--b", str(dir_b),
                               "--emb", str(emb), "--sim-thresh", "0.9")
        assert code == 0
        payload = json.loads(out)
        # Identical stored vectors: every gate survivor is retained.
        assert payload["aggregate"]["mean_similarity_after"] in (0.0, 1.0)

    def test_embedding_file_nested_too_deep_gives_one_line_error(self, tmp_path, capsys):
        dir_a, dir_b = self.write_dirs(tmp_path, make_annotation_fixture(2, seed=4))
        emb = tmp_path / "emb.json"
        emb.write_text('{"a": %s}' % deeply_nested(50_000))
        code, out, err = run_cli(capsys, "verify", "--a", str(dir_a), "--b", str(dir_b),
                                 "--emb", str(emb))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("image_id", ["../escape", "sub/inner", "/abs/path"])
    def test_image_id_outside_out_dir_is_rejected_before_writing(self, tmp_path, capsys,
                                                                 image_id):
        pairs = make_annotation_fixture(2, seed=5)
        dir_a, dir_b = self.write_dirs(tmp_path, pairs)
        a, b = pairs[0]
        (dir_a / "evil.json").write_text(json.dumps({**a.to_dict(), "image_id": image_id}))
        (dir_b / "evil.json").write_text(json.dumps({**b.to_dict(), "image_id": image_id}))
        out_dir = tmp_path / "work" / "out"
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run_cli(capsys, "verify", "--a", str(dir_a), "--b", str(dir_b),
                                 "--hash-fallback", "--out", str(out_dir))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert image_id in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("missing", ["a", "b"])
    def test_missing_directory_gives_exit_one(self, tmp_path, capsys, missing):
        dir_a, dir_b = self.write_dirs(tmp_path, make_annotation_fixture(1, seed=6))
        dirs = {"a": str(dir_a), "b": str(dir_b), missing: str(tmp_path / "absent")}
        code, out, err = run_cli(capsys, "verify", "--a", dirs["a"], "--b", dirs["b"],
                                 "--hash-fallback")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "absent" in err

    @pytest.mark.parametrize("dim", ["0", "-3"])
    def test_nonpositive_hash_dimension_gives_exit_one(self, tmp_path, capsys, dim):
        dir_a, dir_b = self.write_dirs(tmp_path, make_annotation_fixture(1, seed=7))
        code, out, err = run_cli(capsys, "verify", "--a", str(dir_a), "--b", str(dir_b),
                                 "--hash-fallback", "--emb-dim", dim)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "dimension" in err

    def test_jobs_help_says_no_effect(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert "no effect" in " ".join(capsys.readouterr().out.split())


class TestSeedRange:
    """Seeds outside [0, 2**64) exit 1 with one line naming the seed."""

    MESSAGE = "error: seed must lie in [0, 2**64), got {}\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_gradcheck_flag(self, capsys, seed):
        code, out, err = run_cli(capsys, "gradcheck", "--loss", "l1", "--seed", seed)
        assert (code, out, err) == (1, "", self.MESSAGE.format(seed))

    def test_gradcheck_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("PROMPTKIT_SEED", "-1")
        code, out, err = run_cli(capsys, "gradcheck", "--loss", "l1")
        assert (code, out, err) == (1, "", self.MESSAGE.format(-1))

    def test_non_integer_environment_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("PROMPTKIT_SEED", "abc")
        code, out, err = run_cli(capsys, "gradcheck", "--loss", "l1")
        assert (code, out, err) == (1, "", "error: PROMPTKIT_SEED must be an integer, got 'abc'\n")

    def test_fuse_demo_config(self, tmp_path, capsys):
        config = tmp_path / "fuse.json"
        config.write_text(json.dumps({"dim": 8, "seed": -1}))
        code, out, err = run_cli(capsys, "fuse-demo", "--config", str(config))
        assert (code, out, err) == (1, "", self.MESSAGE.format(-1))

    def test_sample_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"batch_size": 2, "seed": -3,
                                        "samples": [{"id": "s0", "dataset": "d0"}]}))
        code, out, err = run_cli(capsys, "sample", "--manifest", str(manifest))
        assert (code, out, err) == (1, "", self.MESSAGE.format(-3))

    def test_largest_seed_still_runs(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"batch_size": 2, "seed": 2**64 - 1,
                                        "samples": [{"id": "s0", "dataset": "d0"}]}))
        code, out, _ = run_cli(capsys, "sample", "--manifest", str(manifest))
        assert (code, out) == (0, '{"dataset": "d0", "samples": ["s0"]}\n')

    def test_gradcheck_reseeds_below_2_64(self, capsys, monkeypatch):
        real = gradcheck._SCENARIOS["l1"]
        seeds = []

        def first_unmeasurable(n, seed):
            seeds.append(seed)
            p0, f, analytic = real(n, seed)
            return p0, f, analytic if len(seeds) > 1 else 0.0 * analytic

        monkeypatch.setitem(gradcheck._SCENARIOS, "l1", first_unmeasurable)
        code, _, err = run_cli(capsys, "gradcheck", "--loss", "l1", "--seed", str(2**64 - 1))
        assert (code, err) == (0, "")
        assert seeds == [2**64 - 1, gradcheck._RESEED_STRIDE - 1]

    def test_largest_seed_still_runs_fuse_demo(self, tmp_path, capsys):
        # Its layers are seeded with seed + 1, seed + 2, ..., taken modulo 2**64.
        config = tmp_path / "fuse.json"
        config.write_text(json.dumps({"dim": 4, "seed": 2**64 - 1, "layers": 2}))
        code, out, err = run_cli(capsys, "fuse-demo", "--config", str(config))
        assert (code, err) == (0, "")
        assert len(json.loads(out)["background_activation"]) == 2


class TestFuseDemoPromptCounts:
    @pytest.mark.parametrize("key", ["text_prompts", "visual_prompts"])
    def test_negative_count_names_its_key(self, tmp_path, capsys, key):
        config = tmp_path / "fuse.json"
        config.write_text(json.dumps({"dim": 8, "seed": 3, key: -2}))
        code, out, err = run_cli(capsys, "fuse-demo", "--config", str(config))
        assert (code, out, err) == (1, "", f"error: {key} must be >= 0, got -2\n")

    def test_zero_counts_stay_valid(self, tmp_path, capsys):
        config = tmp_path / "fuse.json"
        config.write_text(json.dumps({"dim": 8, "seed": 3, "layers": 1,
                                      "text_prompts": 0, "visual_prompts": 0}))
        code, out, _ = run_cli(capsys, "fuse-demo", "--config", str(config))
        assert code == 0
        assert json.loads(out)["token_counts"] == {"features": 32, "text": 0, "visual": 0}


class TestVerifyUnreadableFiles:
    """A file that cannot be read or converted is that file's error: the
    other images are still verified and the run exits 1."""

    def run_with_bad_entry(self, tmp_path, capsys, make_bad):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        for a, b in make_annotation_fixture(2, seed=12):
            (dir_a / f"{a.image_id}.json").write_text(a.to_json())
            (dir_b / f"{b.image_id}.json").write_text(b.to_json())
        make_bad(dir_a / "x.json")
        code, out, err = run_cli(capsys, "verify", "--a", str(dir_a), "--b", str(dir_b),
                                 "--hash-fallback")
        payload = json.loads(out)
        assert code == 1
        assert len(payload["errors"]) == 1
        assert payload["errors"][0].startswith(f"{dir_a / 'x.json'}: ")
        assert payload["aggregate"]["images"] == 2
        assert err == f"error: {payload['errors'][0]}\n"
        return payload["errors"][0]

    @staticmethod
    def annotation_text(width="8", box="[0.1, 0.1, 0.5, 0.5]", score="0.5"):
        return ('{"image_id": "x", "width": %s, "height": 8, "source": "top_down", '
                '"instances": [{"box": %s, "tag": "a", "score": %s}]}' % (width, box, score))

    @pytest.mark.parametrize("fields", [
        {"box": f"[0, 0, {10**400}, 1]"}, {"score": str(10**400)}, {"width": "1e400"},
    ], ids=["huge-coordinate", "huge-score", "infinite-width"])
    def test_oversized_number(self, tmp_path, capsys, fields):
        self.run_with_bad_entry(
            tmp_path, capsys, lambda path: path.write_text(self.annotation_text(**fields)))

    def test_nesting_too_deep_to_parse(self, tmp_path, capsys):
        self.run_with_bad_entry(
            tmp_path, capsys, lambda path: path.write_text("[" * 100_000 + "]" * 100_000))

    def test_directory_named_like_a_file(self, tmp_path, capsys):
        self.run_with_bad_entry(tmp_path, capsys, lambda path: path.mkdir())

    def test_non_utf8_file(self, tmp_path, capsys):
        self.run_with_bad_entry(
            tmp_path, capsys, lambda path: path.write_bytes(b'{"image_id": "\xff"}'))

    def test_unknown_source_without_instances(self, tmp_path, capsys):
        error = self.run_with_bad_entry(tmp_path, capsys, lambda path: path.write_text(json.dumps(
            {"image_id": "x", "width": 8, "height": 8, "source": "sideways", "instances": []})))
        assert error.endswith(f"source must be one of {engine.SOURCES}, got 'sideways'")


class TestParser:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["tau", "--bogus"])
        assert excinfo.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["tau", "select", "gradcheck", "fuse-demo", "sample", "verify"])
    def test_help_exits_zero(self, command):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--help"])
        assert excinfo.value.code == 0


def test_import_defers_scipy_optimize():
    # scipy.optimize takes most of the package's import time and only
    # the assignment solver needs it.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(promptkit.__file__)))
    code = "import sys, promptkit.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "False"
