import errno
import functools
import json
import os
import re
import subprocess
import sys

import pytest

import promptkit
from oracles import make_annotation_fixture
from promptkit import cli, engine, fusion, gradcheck
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

    @pytest.mark.parametrize("line", ["1_000", "abc", "\u0661\u0662", "1.5\u0660", "--1"])
    def test_bad_line_names_the_file_and_the_line(self, tmp_path, capsys, line):
        a = tmp_path / "a.csv"
        a.write_text(f"1.0\n\n{line}\n2.0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "tau", "--a", str(a), "--b", str(a))
        assert (code, out) == (1, "")
        assert err == f"error: score file {a}, line 3: {line!r} is not a number\n"

    def test_bytes_that_are_not_utf8_name_the_line(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_bytes(b"1.0\n2\xff\n")
        code, out, err = run_cli(capsys, "tau", "--a", str(a), "--b", str(a))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: score file {a}, line 2: ") and err.count("\n") == 1

    def test_lines_are_read_as_float_reads_them(self, tmp_path):
        lines = [" 2.5 ", "-1e-3", "+4", "7.", ".5", "1E2\t", "0.1000000000000000055511151231257827"]
        a = tmp_path / "a.csv"
        a.write_text("\r\n".join(lines) + "\n\n")
        assert cli._read_scores(a).tolist() == [float(line) for line in lines]


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

    def test_scores_file_must_be_an_object(self, tmp_path, capsys):
        scores = tmp_path / "scores.json"
        scores.write_text("[1, 2]")
        code, out, err = run_cli(capsys, "select", "--scores", str(scores), "--k", "1")
        assert (code, out, err) == (1, "", f"error: scores file {scores} must be a JSON object\n")

    @pytest.mark.parametrize("present, missing", [("visual", "text"), ("text", "visual")])
    def test_missing_key_is_named(self, tmp_path, capsys, present, missing):
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps({present: [1]}))
        code, out, err = run_cli(capsys, "select", "--scores", str(scores), "--k", "1")
        assert (code, out) == (1, "")
        assert err == f'error: scores file {scores} has no "{missing}" key\n'

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


    @pytest.mark.parametrize("scores, message", [
        ({"text": ["1", "2", "3"], "visual": [1, 2, 3]}, "text score list must be numeric, got '1'"),
        ({"text": [1, 2, 3], "visual": [True, False, True]},
         "visual score list must be numeric, got True"),
    ], ids=["string-scores", "boolean-scores"])
    def test_scores_must_be_json_numbers(self, tmp_path, capsys, scores, message):
        path = tmp_path / "scores.json"
        path.write_text(json.dumps(scores))
        code, out, err = run_cli(capsys, "select", "--scores", str(path), "--k", "1")
        assert (code, out, err) == (1, "", f"error: {message}\n")


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

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"), ("--tol", "-1"),
        ("--eps", "nan"), ("--eps", "inf"), ("--eps", "0"), ("--eps", "-1"),
    ])
    def test_tol_and_eps_must_be_positive_and_finite(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "gradcheck", "--loss", "giou", "--n", "4",
                                 "--seed", "1", flag, value)
        assert (code, out, err) == \
            (1, "", f"error: {flag[2:]} must be positive and finite, got {float(value)}\n")

    @pytest.mark.parametrize("value", ["1.5", "1e300", "1.7e308"])
    def test_eps_above_one_is_refused_before_any_work(self, capsys, monkeypatch, value):
        def never(n, seed):
            raise AssertionError("a scenario was built")

        monkeypatch.setitem(gradcheck._SCENARIOS, "giou", never)
        code, out, err = run_cli(capsys, "gradcheck", "--loss", "giou", "--n", "4",
                                 "--seed", "0", "--eps", value)
        assert (code, out, err) == (1, "", f"error: eps must be <= 1.0, got {float(value)}\n")

    def test_eps_of_one_still_runs(self, capsys):
        for loss in gradcheck.GRADCHECK_LOSSES:
            _, out, err = run_cli(capsys, "gradcheck", "--loss", loss, "--n", "4", "--seed", "0",
                                  "--eps", "1")
            assert json.loads(out)["eps"] == 1.0, loss
            assert "error" not in err, loss

    def test_help_states_the_eps_ceiling(self, capsys):
        with pytest.raises(SystemExit):
            main(["gradcheck", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "central-difference step; accepted: above 0, at most 1.0" in text

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("PROMPTKIT_SEED", "123")
        code, out, _ = run_cli(capsys, "gradcheck", "--loss", "l1", "--n", "2")
        assert code == 0
        assert json.loads(out)["seed"] == 123

    def test_all_losses_pass_defaults(self, capsys):
        for loss in ("order", "align", "giou", "l1", "dice", "bce"):
            code, out, _ = run_cli(capsys, "gradcheck", "--loss", loss, "--seed", "5")
            assert code == 0, loss

    @pytest.mark.parametrize("loss, n, message", [
        ("giou", 0, "n for giou must be >= 1, got 0"),
        ("l1", -1, "n for l1 must be >= 1, got -1"),
        ("order", -3, "n for order must be >= 2, got -3"),
        ("align", 1, "n for align must be >= 2, got 1"),
        ("dice", 1, "n for dice must be >= 2, got 1"),
        ("bce", -(2**63), f"n for bce must be >= 2, got {-(2**63)}"),
        ("order", 501, "n for order must be <= 500, got 501"),
        ("align", 129, "n for align must be <= 128, got 129"),
        ("giou", 3_000_000, "n for giou must be <= 150, got 3000000"),
        ("l1", 2**63, f"n for l1 must be <= 150, got {2**63}"),
        ("dice", 101, "n for dice must be <= 100, got 101"),
        ("bce", 10**30, f"n for bce must be <= 100, got {10**30}"),
    ])
    def test_n_outside_its_range_is_refused_before_any_work(self, capsys, monkeypatch,
                                                            loss, n, message):
        def never(n, seed):
            raise AssertionError("a scenario was built")

        monkeypatch.setitem(gradcheck._SCENARIOS, loss, never)
        code, out, err = run_cli(capsys, "gradcheck", "--loss", loss, "--n", str(n))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_n_at_its_floor_is_checked_and_echoed(self, capsys):
        for loss, (least, _) in gradcheck.GRADCHECK_N_RANGES.items():
            code, out, _ = run_cli(capsys, "gradcheck", "--loss", loss, "--n", str(least))
            payload = json.loads(out)
            assert (code, payload["n"]) == (0, least), loss

    def test_help_lists_each_range(self, capsys):
        with pytest.raises(SystemExit):
            main(["gradcheck", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert ("accepted: order 2-500, align 2-128, giou 1-150, l1 1-150, dice 2-100, "
                "bce 2-100") in text


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

    def test_config_must_be_an_object(self, tmp_path, capsys):
        config = tmp_path / "fuse.json"
        config.write_text("[1, 2]")
        code, out, err = run_cli(capsys, "fuse-demo", "--config", str(config))
        assert (code, out, err) == (1, "", "error: config must be a JSON object\n")

    def test_missing_dim_is_named(self, tmp_path, capsys):
        config = tmp_path / "fuse.json"
        config.write_text(json.dumps({"seed": 3}))
        code, out, err = run_cli(capsys, "fuse-demo", "--config", str(config))
        assert (code, out, err) == (1, "", 'error: config has no "dim" key\n')

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

    @pytest.mark.parametrize("override, key", [
        ({"dim": 4.9}, "dim"), ({"dim": True}, "dim"), ({"dim": "8"}, "dim"),
        ({"layers": 1.5}, "layers"), ({"hidden": 3.7}, "hidden"), ({"d_k": 2.5}, "d_k"),
        ({"feature_tokens": "5"}, "feature_tokens"), ({"text_prompts": False}, "text_prompts"),
        ({"seed": 1.7}, "seed"), ({"seed": "3"}, "seed"),
        ({"per_pathway_background": "false"}, "per_pathway_background"),
        ({"per_pathway_background": 0}, "per_pathway_background"),
    ], ids=["fractional-dim", "bool-dim", "string-dim", "fractional-layers",
            "fractional-hidden", "fractional-d_k", "string-features", "bool-text-prompts",
            "fractional-seed", "string-seed", "string-flag", "integer-flag"])
    def test_mistyped_value_names_its_key(self, tmp_path, capsys, override, key):
        config = tmp_path / "fuse.json"
        config.write_text(json.dumps({"dim": 8, "seed": 3, "layers": 1, **override}))
        code, out, err = run_cli(capsys, "fuse-demo", "--config", str(config))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1

    def test_integral_float_is_an_integer(self, tmp_path, capsys):
        config = tmp_path / "fuse.json"
        config.write_text(json.dumps({"dim": 8, "seed": 3, "layers": 1}))
        expected = run_cli(capsys, "fuse-demo", "--config", str(config))
        config.write_text(json.dumps({"dim": 8.0, "seed": 3.0, "layers": 1.0}))
        assert run_cli(capsys, "fuse-demo", "--config", str(config)) == expected
        assert expected[0] == 0

    @pytest.mark.parametrize("scale, message", [
        ("0.5", "scale must be numeric, got '0.5'"), (True, "scale must be numeric, got True"),
        (None, "scale must be numeric, got None"), ([0.5], "scale must be 0-D, got shape (1,)"),
        (float("inf"), "scale contains non-finite entries"),
    ], ids=["string", "bool", "null", "list", "infinite"])
    def test_scale_must_be_a_json_number(self, tmp_path, capsys, scale, message):
        config = tmp_path / "fuse.json"
        config.write_text(json.dumps({"dim": 8, "seed": 3, "layers": 1, "scale": scale}))
        code, out, err = run_cli(capsys, "fuse-demo", "--config", str(config))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("scale, same_as", [(1, 1.0), (None, 0.2)], ids=["integer", "absent"])
    def test_scale_reads_as_its_float(self, tmp_path, capsys, scale, same_as):
        config = tmp_path / "fuse.json"
        base = {"dim": 8, "seed": 3, "layers": 2}
        config.write_text(json.dumps({**base, "scale": same_as}))
        expected = run_cli(capsys, "fuse-demo", "--config", str(config))
        config.write_text(json.dumps(base if scale is None else {**base, "scale": scale}))
        assert run_cli(capsys, "fuse-demo", "--config", str(config)) == expected
        assert expected[0] == 0

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
        real = fusion._token_attention

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(fusion, "_token_attention", counting)
        config = tmp_path / "fuse.json"
        config.write_text(json.dumps({"dim": 8, "seed": 3, "layers": layers}))
        code, out, _ = run_cli(capsys, "fuse-demo", "--config", str(config))
        assert code == 0
        assert len(json.loads(out)["background_activation"]) == layers
        # Per layer: self-attention on each of the three streams, then the
        # three cross-attention pathways.
        assert len(calls) == 6 * layers

    def test_failed_allocation_gives_one_line_error(self, tmp_path, capsys, monkeypatch):
        # Raised in process: no test asks numpy for more memory than there is.
        def out_of_memory(**kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB for an array with shape (1000000000, 8)")

        monkeypatch.setattr(fusion.FusionState, "seeded", out_of_memory)
        config = tmp_path / "fuse.json"
        config.write_text(json.dumps({"dim": 8, "seed": 3, "text_prompts": 10**9}))
        code, out, err = run_cli(capsys, "fuse-demo", "--config", str(config))
        assert (code, out) == (1, "")
        assert err == ("error: Unable to allocate 7.45 GiB for an array "
                       "with shape (1000000000, 8)\n")


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

    @pytest.mark.parametrize("samples, message", [
        ([1], "samples[0] must be a JSON object"),
        ([{"id": "s0", "dataset": "d0"}, "s1"], "samples[1] must be a JSON object"),
        ("ab", "samples must be a list, got 'ab'"),
        (None, "samples must be a list, got None"),
        ({"id": "s0", "dataset": "d0"}, "samples must be a list, got {'id': 's0', 'dataset': 'd0'}"),
    ], ids=["int-entry", "string-entry", "string", "null", "object"])
    def test_samples_must_be_a_list_of_objects(self, tmp_path, capsys, samples, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"batch_size": 2, "seed": 9, "samples": samples}))
        code, out, err = run_cli(capsys, "sample", "--manifest", str(manifest))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("manifest_obj, key", [
        ({"batch_size": 2, "seed": 9}, "samples"),
        ({"seed": 9, "samples": [{"id": "s0", "dataset": "d0"}]}, "batch_size"),
        ({"batch_size": 2, "seed": 9, "samples": [{"id": "s0"}]}, "dataset"),
    ], ids=["samples", "batch_size", "dataset"])
    def test_missing_key_is_named(self, tmp_path, capsys, manifest_obj, key):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(manifest_obj))
        code, out, err = run_cli(capsys, "sample", "--manifest", str(manifest))
        assert (code, out, err) == (1, "", f'error: malformed manifest: no "{key}" key\n')

    @pytest.mark.parametrize("override, key", [
        ({"batch_size": 2.9}, "batch_size"), ({"batch_size": True}, "batch_size"),
        ({"batch_size": "2"}, "batch_size"), ({"seed": 1.7}, "seed"), ({"seed": "9"}, "seed"),
    ], ids=["fractional-batch-size", "bool-batch-size", "string-batch-size",
            "fractional-seed", "string-seed"])
    def test_mistyped_integer_names_its_key(self, tmp_path, capsys, override, key):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"batch_size": 2, "seed": 9, **override,
                                        "samples": [{"id": "s0", "dataset": "d0"}]}))
        code, out, err = run_cli(capsys, "sample", "--manifest", str(manifest))
        assert (code, out) == (1, "")
        assert err == f"error: {key} must be an integer, got {next(iter(override.values()))!r}\n"

    @pytest.mark.parametrize("sample, key", [
        ({"id": None, "dataset": "d0"}, "id"), ({"id": 1, "dataset": "d0"}, "id"),
        ({"id": "s0", "dataset": False}, "dataset"),
    ], ids=["null-id", "integer-id", "bool-dataset"])
    def test_sample_names_must_be_strings(self, tmp_path, capsys, sample, key):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"batch_size": 2, "seed": 9, "samples": [sample]}))
        code, out, err = run_cli(capsys, "sample", "--manifest", str(manifest))
        assert (code, out) == (1, "")
        assert err == f'error: sample "{key}" must be a string, got {sample[key]!r}\n'

    def test_manifest_must_be_an_object(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[1, 2]")
        code, out, err = run_cli(capsys, "sample", "--manifest", str(manifest))
        assert (code, out, err) == (1, "", "error: malformed manifest: not a JSON object\n")

    @pytest.mark.parametrize("override, message", [
        ({"batch_size": 0}, "batch_size must be >= 1"),
        ({"samples": [{"id": "s0", "dataset": ""}]}, "sample 's0' has an empty dataset id"),
    ], ids=["zero-batch-size", "empty-dataset"])
    def test_bad_value_is_named(self, tmp_path, capsys, override, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"batch_size": 2, "seed": 9,
                                        "samples": [{"id": "s0", "dataset": "d0"}], **override}))
        code, out, err = run_cli(capsys, "sample", "--manifest", str(manifest))
        assert (code, out, err) == (1, "", f"error: {message}\n")

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

    @pytest.mark.parametrize("flags, message", [
        (["--iou-gate", "5", "--sim-thresh", "nan"], "iou_gate must lie in [0, 1], got 5.0"),
        (["--sim-thresh", "nan"], "sim_threshold must lie in [-1, 1], got nan"),
    ], ids=["iou-gate", "sim-thresh"])
    def test_thresholds_are_checked_before_any_file(self, tmp_path, capsys, flags, message):
        (a, _), = make_annotation_fixture(1, seed=7)
        dir_a, dir_b = self.write_dirs(tmp_path, [])
        (dir_a / "only.json").write_text(a.to_json())  # no image is shared
        code, out, err = run_cli(capsys, "verify", "--a", str(dir_a), "--b", str(dir_b),
                                 "--hash-fallback", *flags)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_missing_embeddings_is_a_one_line_error(self, tmp_path, capsys):
        dir_a, dir_b = self.write_dirs(tmp_path, make_annotation_fixture(1, seed=7))
        code, out, err = run_cli(capsys, "verify", "--a", str(dir_a), "--b", str(dir_b))
        assert (code, out, err) == (1, "", "error: verify needs --emb FILE or --hash-fallback\n")

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

    def test_huge_stored_vector_keeps_identical_tags(self, tmp_path, capsys):
        # Squaring 1e160 overflows: the length must be taken from scaled entries.
        instance = {"box": [0.1, 0.1, 0.5, 0.5], "tag": "cat", "score": 0.9}
        for side, source in (("a", "top_down"), ("b", "bottom_up")):
            (tmp_path / side).mkdir()
            (tmp_path / side / "img.json").write_text(json.dumps({
                "image_id": "img", "width": 8, "height": 8, "source": source,
                "instances": [instance]}))
        emb = tmp_path / "emb.json"
        emb.write_text(json.dumps({"cat": [1e160, 0.0]}))
        code, out, err = run_cli(capsys, "verify", "--a", str(tmp_path / "a"),
                                 "--b", str(tmp_path / "b"), "--emb", str(emb))
        assert (code, err) == (0, "")
        [image] = json.loads(out)["images"]
        assert (image["retained"], image["mean_similarity_after"]) == (1, 1.0)

    def test_unknown_tag_message_is_printed_without_quotes(self, tmp_path, capsys):
        # An unknown tag without --hash-fallback ends the whole run before
        # anything is written.
        dir_a, dir_b = self.write_dirs(tmp_path, make_annotation_fixture(2, seed=4))
        emb = tmp_path / "emb.json"
        emb.write_text(json.dumps({"unused": [1.0, 0.0]}))
        out_dir, report = tmp_path / "out", tmp_path / "report.json"
        code, out, err = run_cli(capsys, "verify", "--a", str(dir_a), "--b", str(dir_b),
                                 "--emb", str(emb), "--iou-gate", "0",
                                 "--out", str(out_dir), "--report", str(report))
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error: unknown tag 'tag\d\d' and hash fallback is disabled\n", err)
        assert not out_dir.exists() and not report.exists()

    def test_embedding_values_must_be_json_numbers(self, tmp_path, capsys):
        dir_a, dir_b = self.write_dirs(tmp_path, make_annotation_fixture(2, seed=4))
        emb = tmp_path / "emb.json"
        emb.write_text(json.dumps({"x": ["1.5", "2"]}))
        out_dir, report = tmp_path / "out", tmp_path / "report.json"
        code, out, err = run_cli(capsys, "verify", "--a", str(dir_a), "--b", str(dir_b),
                                 "--emb", str(emb), "--hash-fallback",
                                 "--out", str(out_dir), "--report", str(report))
        assert (code, out, err) == (1, "", "error: embedding for tag 'x' must be numeric, got '1.5'\n")
        assert not out_dir.exists() and not report.exists()

    @pytest.mark.parametrize("text, message", [
        ("{}", "embedding file {emb} must be a nonempty JSON object"),
        ("[1, 2]", "embedding file {emb} must be a nonempty JSON object"),
        ('{"cat": []}', "embedding for tag 'cat' must be nonempty, got shape (0,)"),
    ], ids=["empty-object", "list", "empty-vector"])
    def test_bad_embedding_file_is_named(self, tmp_path, capsys, text, message):
        dir_a, dir_b = self.write_dirs(tmp_path, make_annotation_fixture(1, seed=4))
        emb = tmp_path / "emb.json"
        emb.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--a", str(dir_a), "--b", str(dir_b),
                                 "--emb", str(emb))
        assert (code, out, err) == (1, "", f"error: {message.format(emb=emb)}\n")

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

    @pytest.mark.parametrize("key", ["source", "instances", "tag"])
    def test_missing_annotation_key_is_named(self, tmp_path, capsys, key):
        dir_a, dir_b = self.write_dirs(tmp_path, make_annotation_fixture(1, seed=8))
        doc = {"image_id": "bad", "width": 8, "height": 8, "source": "top_down",
               "instances": [{"box": [0.1, 0.1, 0.5, 0.5], "tag": "a", "score": 0.9}]}
        doc.pop(key, None)
        doc.get("instances", [{}])[0].pop(key, None)
        bad = dir_a / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--a", str(dir_a), "--b", str(dir_b),
                                 "--hash-fallback")
        message = f'{bad} has no "{key}" key'
        assert code == 1
        assert err == f"error: {message}\n"
        assert json.loads(out)["errors"] == [message]

    @pytest.mark.parametrize("instances, message", [
        ([1], "instances[0] must be a JSON object"),
        ([{"box": [0.1, 0.1, 0.5, 0.5], "tag": "a", "score": 0.9}] * 2 + [[]],
         "instances[2] must be a JSON object"),
        (5, "instances must be a list, got 5"),
        ("", "instances must be a list, got ''"),
        ({}, "instances must be a list, got {}"),
    ], ids=["int-entry", "list-entry", "int", "empty-string", "empty-object"])
    def test_instances_must_be_a_list_of_objects(self, tmp_path, capsys, instances, message):
        # A refused file is that file's error; the other images are still verified.
        dir_a, dir_b = self.write_dirs(tmp_path, make_annotation_fixture(2, seed=8))
        for side, source in ((dir_a, "top_down"), (dir_b, "bottom_up")):
            (side / "bad.json").write_text(json.dumps({
                "image_id": "bad", "width": 8, "height": 8, "source": source, "instances": []}))
        bad = dir_a / "bad.json"
        bad.write_text(json.dumps({"image_id": "bad", "width": 8, "height": 8,
                                   "source": "top_down", "instances": instances}))
        code, out, err = run_cli(capsys, "verify", "--a", str(dir_a), "--b", str(dir_b),
                                 "--hash-fallback")
        payload = json.loads(out)
        assert (code, err) == (1, f"error: {bad}: {message}\n")
        assert payload["errors"] == [f"{bad}: {message}"]
        assert payload["unpaired"] == ["bad"]
        assert payload["aggregate"]["images"] == 2

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

    @pytest.mark.parametrize("fields, message", [
        ({"width": "4.9"}, "width must be an integer, got 4.9"),
        ({"width": "true"}, "width must be an integer, got True"),
        ({"box": '["0.1", 0.1, 0.5, 0.5]'}, "box of tag 'a' must be numeric, got '0.1'"),
        ({"box": "[0.1, 0.1, 0.5, true]"}, "box of tag 'a' must be numeric, got True"),
        ({"score": '"0.5"'}, "instance score must be numeric, got '0.5'"),
        ({"score": "false"}, "instance score must be numeric, got False"),
    ], ids=["fractional-width", "boolean-width", "string-coordinate", "boolean-coordinate",
            "string-score", "boolean-score"])
    def test_value_of_the_wrong_json_type(self, tmp_path, capsys, fields, message):
        error = self.run_with_bad_entry(
            tmp_path, capsys, lambda path: path.write_text(self.annotation_text(**fields)))
        assert error.endswith(f".json: {message}")

    @pytest.mark.parametrize("image_id", ["5", "null", "[5]"])
    def test_image_id_must_be_a_string(self, tmp_path, capsys, image_id):
        def make_bad(path):
            path.write_text(self.annotation_text().replace('"x"', image_id))
            # A bottom-up file the id would pair with, were it turned into a string.
            (path.parent.parent / "b" / "x.json").write_text(
                self.annotation_text().replace('"x"', '"5"').replace("top_down", "bottom_up"))

        error = self.run_with_bad_entry(tmp_path, capsys, make_bad)
        assert error.endswith(f".json: image_id must be a string, got {json.loads(image_id)!r}")

    @pytest.mark.parametrize("old, new, message", [
        ('"x"', '""', "image_id must be nonempty"),
        ('"width": 8', '"width": 0', "image dimensions must be positive"),
        ("top_down", "sideways", f"source must be one of {engine.SOURCES}, got 'sideways'"),
    ], ids=["empty-image-id", "zero-width", "unknown-source"])
    def test_bad_value_is_named(self, tmp_path, capsys, old, new, message):
        error = self.run_with_bad_entry(
            tmp_path, capsys, lambda path: path.write_text(self.annotation_text().replace(old, new)))
        assert error.endswith(f".json: {message}")

    def test_top_level_must_be_an_object(self, tmp_path, capsys):
        error = self.run_with_bad_entry(tmp_path, capsys, lambda path: path.write_text("[1, 2]"))
        assert error.endswith(".json: annotation must be a JSON object")

    def test_duplicate_image_id(self, tmp_path, capsys):
        # x.json is read after img0000.json and repeats its image_id.
        error = self.run_with_bad_entry(tmp_path, capsys, lambda path: path.write_text(
            self.annotation_text().replace('"x"', '"img0000"')))
        assert error.endswith(".json: duplicate image_id 'img0000'")

    def test_nesting_too_deep_to_parse(self, tmp_path, capsys):
        self.run_with_bad_entry(
            tmp_path, capsys, lambda path: path.write_text("[" * 100_000 + "]" * 100_000))

    def test_directory_named_like_a_file(self, tmp_path, capsys):
        self.run_with_bad_entry(tmp_path, capsys, lambda path: path.mkdir())

    def test_non_utf8_file(self, tmp_path, capsys):
        self.run_with_bad_entry(
            tmp_path, capsys, lambda path: path.write_bytes(b'{"image_id": "\xff"}'))

    def test_source_of_the_other_pipeline(self, tmp_path, capsys):
        def make_bad(path):
            # A pair for x on both sides, as cross_verify would be handed it.
            text = self.annotation_text().replace("top_down", "bottom_up")
            path.write_text(text)
            (path.parent.parent / "b" / "x.json").write_text(text)

        error = self.run_with_bad_entry(tmp_path, capsys, make_bad)
        assert error.endswith(".json: source is 'bottom_up', expected 'top_down'")

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

    def test_one_parser_per_process(self, tmp_path, capsys, monkeypatch):
        # Parsing leaves the parser as it was, so every call after the first
        # prints what it would print in a fresh process.
        monkeypatch.setenv("COLUMNS", "80")
        for side in ("a", "b"):
            (tmp_path / side).mkdir()
            (tmp_path / side / "x.json").write_text('{"image_id": "x"}')
        gradcheck_argv = ["gradcheck", "--loss", "l1", "--n", "2", "--seed", "3"]
        calls = [
            gradcheck_argv,
            ["verify", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"), "--hash-fallback"],
            ["gradcheck", "--loss", "bogus"],
            gradcheck_argv,
        ]
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "_parser", functools.cache(counting_build_parser))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(promptkit.__file__)))
        for argv, want_code in zip(calls, (0, 1, 2, 0)):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "promptkit.cli", *argv], env=env,
                                   capture_output=True, text=True, timeout=60)
            assert (code, captured.out, captured.err) == \
                (want_code, fresh.stdout, fresh.stderr), argv
            assert fresh.returncode == want_code
        assert len(built) == 1


@pytest.mark.parametrize("command, flag, what, extra", [
    ("select", "--scores", "scores file", ["--k", "1"]),
    ("fuse-demo", "--config", "config file", []),
    ("sample", "--manifest", "manifest file", []),
])
def test_json_parse_error_names_the_file(tmp_path, capsys, command, flag, what, extra):
    path = tmp_path / "input.json"
    path.write_text("not json")
    code, out, err = run_cli(capsys, command, flag, str(path), *extra)
    assert (code, out) == (1, "")
    assert err == (f"error: {what} {path} is not valid JSON: "
                   "Expecting value: line 1 column 1 (char 0)\n")


@pytest.mark.parametrize("command, flag, what, extra", [
    ("select", "--scores", "scores file", ["--k", "1"]),
    ("sample", "--manifest", "manifest file", []),
])
def test_json_nested_too_deep_names_the_file(tmp_path, capsys, command, flag, what, extra):
    path = tmp_path / "input.json"
    path.write_text(deeply_nested())
    with pytest.raises(RecursionError) as parse:
        json.loads(deeply_nested())
    code, out, err = run_cli(capsys, command, flag, str(path), *extra)
    assert (code, out) == (1, "")
    assert err == f"error: {what} {path} is not valid JSON: {parse.value}\n"


def test_import_defers_scipy_optimize():
    # scipy.optimize takes most of the package's import time and only
    # the assignment solver needs it.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(promptkit.__file__)))
    code = "import sys, promptkit.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "False"
