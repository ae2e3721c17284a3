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
import json
import os
import sys

import numpy as np

from . import engine, fusion
from .alignment import SamplerManifest, sample_batches
from .gradcheck import GRADCHECK_LOSSES, run_gradcheck
from .prompts import FileEmbeddings, HashEmbeddings
from .ranking import kendall_tau, order_loss, select_queries

SEED_ENV_VAR = "PROMPTKIT_SEED"

# Largest input for which ``tau`` also reports the O(N^2) tanh surrogate
# (about 3 s at this size); the exact O(N log N) tau has no limit.
SOFT_TAU_MAX_N = 20_000


def _default_seed() -> int:
    value = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {value!r}") from None


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _read_scores(path) -> list[float]:
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                values.append(float(line))
    return values


def _cmd_tau(args) -> int:
    a = _read_scores(args.a)
    b = _read_scores(args.b)
    res = kendall_tau(a, b)
    if res.n <= SOFT_TAU_MAX_N:
        soft = -order_loss(np.asarray(a), np.asarray(b)).loss
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
    with open(args.scores) as fh:
        scores = json.load(fh)
    text = np.asarray(scores["text"], dtype=np.float64)
    visual = np.asarray(scores["visual"], dtype=np.float64)
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
    int; a value below ``least`` raises an error naming the key."""
    value = int(cfg[key] if default is None else cfg.get(key, default))
    if value < least:
        raise ValueError(f"{key} must be >= {least}, got {value}")
    return value


def _cmd_fuse_demo(args) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    dim = _config_count(cfg, "dim", None, 1)
    seed = int(cfg["seed"]) if "seed" in cfg else _default_seed()
    layers = _config_count(cfg, "layers", 3, 0)
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
            d_k=cfg.get("d_k"),
            hidden=cfg.get("hidden"),
            scale=float(cfg.get("scale", 0.2)),
            per_pathway_background=bool(cfg.get("per_pathway_background", False)),
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
    raise SystemExit("verify needs --emb FILE or --hash-fallback")


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
    p.add_argument("--eps", type=float, default=1e-5)
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
    p.add_argument("--emb-dim", type=int, default=256,
                   help="dimension of hash-fallback embeddings when no file is given")
    p.add_argument("--iou-gate", type=float, default=engine.DEFAULT_IOU_GATE)
    p.add_argument("--sim-thresh", type=float, default=engine.DEFAULT_SIM_THRESHOLD)
    p.add_argument("--out", default=None, help="directory for verified per-image JSON files")
    p.add_argument("--report", default=None, help="path for the aggregate JSON report")
    p.add_argument("--jobs", type=int, default=1, help="has no effect; kept for compatibility")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except engine.BAD_INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
