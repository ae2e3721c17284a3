"""Command-line interface.

One binary, six subcommands: ``verify`` (annotation cross-checking),
``gradcheck`` (analytic-vs-numeric gradients), ``tau`` (rank
correlation), ``select`` (top-K queries), ``fuse-demo`` (background
activation statistics), ``sample`` (dataset-pure batches).  Machine
output is JSON on stdout (``sample`` emits one JSON document per line);
human diagnostics go to stderr.  Exit codes: 0 success, 1 failed check
or failed input file, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import engine, fusion
from .alignment import SamplerManifest, sample_batches
from .gradcheck import GRADCHECK_LOSSES, run_gradcheck
from .numeric import DEFAULT_FD_EPS, as_finite, as_int, read_json
from .prompts import DEFAULT_DIM, FileEmbeddings, HashEmbeddings
from .ranking import kendall_tau, order_loss, select_queries

SEED_ENV_VAR = "PROMPTKIT_SEED"

# Largest input for which ``tau`` also reports the tanh surrogate (about
# 3 s at this size on continuous scores, where it costs O(N^2); scores
# with few distinct values cost far less); the exact O(N log N) tau has
# no limit.
SOFT_TAU_MAX_N = 20_000


def _default_seed() -> int:
    value = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {value!r}") from None


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _required(obj, key: str, where: str):
    """``obj[key]``; a missing key raises a ``KeyError`` that names it."""
    try:
        return obj[key]
    except KeyError:
        raise KeyError(engine.missing_key_message(where, key)) from None


def _read_scores(path) -> np.ndarray:
    """One score per nonblank line, as Python ``float`` reads it, except that
    underscores and non-ASCII digits are refused.  A line that is not a
    number raises one ``ValueError`` naming the file and the 1-based line;
    so does a line that is not UTF-8."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    # One test of the whole file: only a file holding "_" or a non-ASCII
    # character has lines that float() reads but a score file must not.
    suspect = "_" in text or not text.isascii()
    values = []
    for number, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            if suspect and ("_" in line or not line.isascii()):
                raise ValueError
            values.append(float(line))
        except ValueError:
            raise ValueError(f"score file {path}, line {number}: "
                             f"{line!r} is not a number") from None
    return np.array(values)


def _cmd_tau(args) -> int:
    a = _read_scores(args.a)
    b = _read_scores(args.b)
    res = kendall_tau(a, b)
    if res.n <= SOFT_TAU_MAX_N:
        soft = -order_loss(a, b).loss
    else:
        soft = None
        print(f"soft_tau skipped: {res.n} scores exceed the limit of {SOFT_TAU_MAX_N} "
              "for the O(N^2) surrogate", file=sys.stderr)
    _emit({
        "tau": res.tau,
        "concordant": res.concordant,
        "discordant": res.discordant,
        "n": res.n,
        "soft_tau": soft,
    })
    return 0


def _cmd_select(args) -> int:
    scores = read_json(args.scores, "scores file")
    where = f"scores file {args.scores}"
    if not isinstance(scores, dict):
        raise ValueError(f"{where} must be a JSON object")
    text = as_finite(_required(scores, "text", where), "text score list", 1)
    visual = as_finite(_required(scores, "visual", where), "visual score list", 1)
    idx = select_queries(text, visual, args.k, alpha=args.alpha)
    combined = args.alpha * text + (1.0 - args.alpha) * visual
    _emit({
        "indices": [int(i) for i in idx],
        "combined_scores": [float(combined[i]) for i in idx],
        "k": args.k,
        "alpha": args.alpha,
    })
    return 0


def _cmd_gradcheck(args) -> int:
    if not 0 < args.tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {args.tol}")
    report = run_gradcheck(args.loss, args.n, args.seed, eps=args.eps)
    passed = report.passed(args.tol)
    _emit({
        "loss": args.loss,
        "n": args.n,
        "seed": args.seed,
        "eps": args.eps,
        "tol": args.tol,
        "passed": passed,
        **report.to_dict(),
    })
    if not passed:
        print(f"gradcheck failed for {args.loss}: max_rel_err={report.max_rel_err:.3e}",
              file=sys.stderr)
        return 1
    return 0


def _config_count(cfg: dict, key: str, default, least: int) -> int:
    """``cfg[key]`` (or ``default`` when given and the key is absent) as an
    int; a value that is not a JSON integer or lies below ``least`` raises
    an error naming the key."""
    value = as_int(_required(cfg, key, "config") if default is None else cfg.get(key, default), key)
    if value < least:
        raise ValueError(f"{key} must be >= {least}, got {value}")
    return value


def _cmd_fuse_demo(args) -> int:
    cfg = read_json(args.config, "config file")
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    dim = _config_count(cfg, "dim", None, 1)
    seed = as_int(cfg["seed"], "seed") if "seed" in cfg else _default_seed()
    layers = _config_count(cfg, "layers", 3, 0)
    d_k = _config_count(cfg, "d_k", dim, 1)
    hidden = _config_count(cfg, "hidden", 2 * dim, 1)
    scale = float(as_finite(cfg.get("scale", 0.2), "scale", 0))
    per_pathway_background = cfg.get("per_pathway_background", False)
    if not isinstance(per_pathway_background, bool):
        raise ValueError(f"per_pathway_background must be true or false, "
                         f"got {per_pathway_background!r}")
    state = fusion.FusionState.seeded(
        dim=dim,
        # Without feature tokens every pathway is skipped and there is nothing to report.
        n_features=_config_count(cfg, "feature_tokens", 32, 1),
        n_text=_config_count(cfg, "text_prompts", 4, 0),
        n_visual=_config_count(cfg, "visual_prompts", 4, 0),
        seed=seed,
    )
    state, layer_stats = fusion.run_layers(state, (
        fusion.FusionParams.seeded(
            dim=dim,
            seed=(seed + 1 + layer_idx) % 2**64,
            d_k=d_k,
            hidden=hidden,
            scale=scale,
            per_pathway_background=per_pathway_background,
        )
        for layer_idx in range(layers)
    ))
    _emit({
        "config": {"dim": dim, "seed": seed, "layers": layers},
        "token_counts": state.counts(),
        "background_activation": layer_stats,
    })
    return 0


def _cmd_sample(args) -> int:
    manifest = SamplerManifest.from_file(args.manifest)
    for batch in sample_batches(manifest):
        _emit({"dataset": batch.dataset_id, "samples": list(batch.sample_ids)})
    return 0


def _make_provider(args):
    if args.emb:
        return FileEmbeddings.from_file(args.emb, fallback=args.hash_fallback)
    if args.hash_fallback:
        return HashEmbeddings(dim=args.emb_dim)
    raise ValueError("verify needs --emb FILE or --hash-fallback")


def _cmd_verify(args) -> int:
    provider = _make_provider(args)
    result = engine.batch_verify(
        args.a, args.b, provider,
        iou_gate=args.iou_gate,
        sim_threshold=args.sim_thresh,
        out_dir=args.out,
    )
    payload = {
        "aggregate": engine.retention_stats(result.reports),
        "images": [r.to_dict() for r in result.reports],
        "unpaired": list(result.unpaired),
        "errors": list(result.errors),
        "thresholds": {"iou_gate": args.iou_gate, "sim_threshold": args.sim_thresh},
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    print(text)
    if args.report:
        engine.write_text_atomic(args.report, text + "\n")
    for err in result.errors:
        print(f"error: {err}", file=sys.stderr)
    return 1 if result.failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptkit",
        description="Prompt-fusion, rank-alignment, and annotation-verification toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tau", help="Kendall tau between two score files (one value per line); "
                       f"soft_tau is null above {SOFT_TAU_MAX_N} scores")
    p.add_argument("--a", required=True, help="first score CSV")
    p.add_argument("--b", required=True, help="second score CSV")
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("select", help="top-K query selection from combined scores")
    p.add_argument("--scores", required=True, help='JSON file {"text": [...], "visual": [...]}')
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.5, help="text-score weight in [0, 1]")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("gradcheck", help="analytic vs central-difference gradient check")
    p.add_argument("--loss", required=True, choices=GRADCHECK_LOSSES)
    p.add_argument("--n", type=int, default=16,
                   help="scenario size: score count (order), pair count (align/boxes), grid side (masks)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--eps", type=float, default=DEFAULT_FD_EPS)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("fuse-demo", help="background-token activation statistics per pathway")
    p.add_argument("--config", required=True, help="JSON config: dim, token counts, seed, layers")
    p.set_defaults(func=_cmd_fuse_demo)

    p = sub.add_parser("sample", help="dataset-pure batches, one JSON document per line")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="dual-path annotation cross-verification")
    p.add_argument("--a", required=True, help="directory of top-down annotation JSON files")
    p.add_argument("--b", required=True, help="directory of bottom-up annotation JSON files")
    p.add_argument("--emb", default=None, help="tag embedding JSON file")
    p.add_argument("--hash-fallback", action="store_true",
                   help="hash-derived embeddings for unknown tags (or all tags without --emb)")
    p.add_argument("--emb-dim", type=int, default=DEFAULT_DIM,
                   help="dimension of hash-fallback embeddings when no file is given")
    p.add_argument("--iou-gate", type=float, default=engine.DEFAULT_IOU_GATE)
    p.add_argument("--sim-thresh", type=float, default=engine.DEFAULT_SIM_THRESHOLD)
    p.add_argument("--out", default=None, help="directory for verified per-image JSON files")
    p.add_argument("--report", default=None, help="path for the aggregate JSON report")
    p.add_argument("--jobs", type=int, default=1, help="has no effect; kept for compatibility")
    p.set_defaults(func=_cmd_verify)

    return parser


# parse_args leaves a parser as it found it, so one serves every main call.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except engine.BAD_INPUT_ERRORS as exc:
        # str() of a KeyError is the repr of its argument: print the argument.
        message = exc.args[0] if isinstance(exc, KeyError) and len(exc.args) == 1 else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
