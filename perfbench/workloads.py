"""Benchmark worker: one fresh process runs one workload.

The worker imports promptkit from the checkout's ``src/``, builds the
workload's state, runs one warm-up operation and prints

    READY <import seconds> <peak RSS in KiB>

on stdout.  A set-up probe (``--setup-only``) exits there.  Otherwise
the worker times operations until their summed wall time reaches
``--seconds``, checks every output with ``checks.py`` (outside the
timed region) and prints one JSON line with the counts and metrics.
``run.py`` starts these processes; run one by hand with

    python3 perfbench/workloads.py --workload tau-ties --seed 1 --seconds 5 \
        --fixture DIR [--trace] [--setup-only]

where DIR was written by ``fixtures.py`` (any empty directory for the
workloads that have no files).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

# numpy is imported lazily, so that the timed ``import promptkit.cli``
# pays for it as a cold CLI start does.
SRC = Path(__file__).resolve().parent.parent / "src"


def import_promptkit() -> float:
    """Import ``promptkit.cli`` from the checkout; return the seconds it took."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import promptkit.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    import promptkit
    if Path(promptkit.__file__).resolve().parent != SRC / "promptkit":
        raise SystemExit(f"promptkit imported from {promptkit.__file__}, not from {SRC}")
    return elapsed


def _cli(argv: list[str]) -> str:
    """Run ``promptkit <argv>`` in-process; return its stdout, raise on a nonzero exit."""
    from promptkit import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"promptkit {argv[0]} exited {code}")
    return buf.getvalue()


class Workload:
    """One operation (``op``), its output check and its item count."""

    items = 1

    def layer_metrics(self, output) -> dict:
        """Per-layer numbers read from an operation's output, for traced runs."""
        return {}


class VerifyDense(Workload):
    """``promptkit verify`` over 200 images with 30 instances per side."""

    def __init__(self, fixture: Path, seed: int):
        self.a, self.b, self.emb = fixture / "a", fixture / "b", fixture / "tags.json"
        self.out = fixture / "out"
        self.items = len(list(self.a.glob("*.json")))

    def op(self, i: int):
        out_dir, report = self.out / f"op{i}", self.out / f"op{i}.json"
        _cli(["verify", "--a", str(self.a), "--b", str(self.b), "--emb", str(self.emb),
              "--hash-fallback", "--out", str(out_dir), "--report", str(report),
              "--jobs", "1"])
        return out_dir, report

    def check(self, output) -> list[str]:
        import checks
        return checks.check_verify(self.a, self.b, self.emb, *output)

    def layer_metrics(self, output) -> dict:
        import checks
        return {"engine.gate_pass_ratio": checks.gate_pass_ratio(output[1])}


# train-step sizes: a 24x24/12x12/6x6 pyramid gives 756 feature tokens.
DIM = 256
PYRAMID = ((24, 24), (12, 12), (6, 6))
PROMPTS = 8
FUSION_LAYERS = 3
TOP_K = 300
TARGETS = 20


class TrainStep(Workload):
    """One synthetic forward-and-loss step: prompt encoding, fusion,
    query selection and the composite loss."""

    def __init__(self, fixture: Path, seed: int):
        import numpy as np
        from promptkit import fusion, prompts
        rng = np.random.default_rng([seed, 3])
        scale = 1.0 / np.sqrt(DIM)

        def mat(rows, cols):
            return scale * rng.standard_normal((rows, cols))

        self.pyramid = prompts.FeatureMap.from_arrays(
            [rng.standard_normal((h, w, DIM)) for h, w in PYRAMID])
        self.deform = prompts.DeformAttnParams(
            n_points=4, offset_weights=mat(8, DIM), attn_weights=mat(4, DIM),
            value_proj=mat(DIM, DIM), output_proj=mat(DIM, DIM), layer_count=len(PYRAMID))
        queries = rng.standard_normal((PROMPTS, DIM))
        self.queries = [prompts.PromptEmbedding(q / np.linalg.norm(q), "visual", f"c{k}")
                        for k, q in enumerate(queries)]
        self.refs = [tuple(p) for p in rng.uniform(0.1, 0.9, size=(PROMPTS, 2))]
        self.tags = [f"cat{seed}-{k}" for k in range(PROMPTS)]
        self.provider = prompts.HashEmbeddings(dim=DIM)
        streams = fusion.STREAMS

        def attn():
            return fusion.AttnWeights(*(mat(DIM, DIM) for _ in range(4)))

        def ffn():
            return fusion.FfnWeights(mat(DIM, 2 * DIM), np.zeros(2 * DIM),
                                     mat(2 * DIM, DIM), np.zeros(DIM))

        self.layers = [
            fusion.FusionParams(
                d_k=DIM, background_token=rng.standard_normal(DIM),
                self_attn={s: attn() for s in streams},
                cross_attn={p: attn() for p in fusion.PATHWAY_ORDER},
                ffn={s: ffn() for s in streams})
            for _ in range(FUSION_LAYERS)]
        # Unit feature rows times this head spread the sigmoid box
        # parameters over most of (0, 1).
        self.box_head = 2.0 * rng.standard_normal((DIM, 4))
        xy = rng.uniform(0.0, 0.7, size=(TARGETS, 2))
        wh = rng.uniform(0.05, 0.3, size=(TARGETS, 2))
        self.target_boxes = np.hstack([xy, xy + wh])
        self.target_cats = rng.integers(0, PROMPTS, size=TARGETS)

    def op(self, i: int) -> dict:
        import numpy as np
        from promptkit import fusion, losses, prompts, ranking
        text = np.stack([prompts.provide_text_embedding(t, self.provider).vec for t in self.tags])
        visual = np.stack([
            prompts.encode_visual_prompt(self.pyramid, self.deform, q, r).vec
            for q, r in zip(self.queries, self.refs)])
        features = np.concatenate([lvl.reshape(-1, DIM) for lvl in self.pyramid.levels])
        state = fusion.FusionState(features=features, text=text, visual=visual)
        background = []
        for params in self.layers:
            background.append(fusion.background_activation_stats(state, params))
            state = fusion.fusion_layer(state, params)

        f = state.features / np.linalg.norm(state.features, axis=1, keepdims=True)
        t = state.text / np.linalg.norm(state.text, axis=1, keepdims=True)
        v = state.visual / np.linalg.norm(state.visual, axis=1, keepdims=True)
        text_score = (f @ t.T).max(axis=1)
        visual_score = (f @ v.T).max(axis=1)
        idx = ranking.select_queries(text_score, visual_score, TOP_K)

        raw = 1.0 / (1.0 + np.exp(-(f[idx] @ self.box_head)))
        centre, half = raw[:, :2], 0.025 + 0.2 * raw[:, 2:]
        pred_boxes = np.clip(np.hstack([centre - half, centre + half]), 0.0, 1.0)
        pred_embeds = f[idx]
        target_embeds = t[self.target_cats]
        preds = [losses.Prediction(box=b, embed=e) for b, e in zip(pred_boxes, pred_embeds)]
        targets = [losses.Target(box=b, embed=e) for b, e in zip(self.target_boxes, target_embeds)]
        breakdown, matches, _ = losses.match_and_total_loss(
            preds, targets, align_visual=v, align_text=t,
            text_scores=text_score[idx], visual_scores=visual_score[idx])
        return {
            "breakdown": breakdown, "matches": matches, "counts": state.counts(),
            "background": background, "pred_boxes": pred_boxes, "pred_embeds": pred_embeds,
            "target_boxes": self.target_boxes, "target_embeds": target_embeds,
            "align_visual": v, "align_text": t,
            "text_scores": text_score[idx], "visual_scores": visual_score[idx],
        }

    def check(self, output) -> list[str]:
        import checks
        expected_counts = {"features": sum(h * w for h, w in PYRAMID),
                           "text": PROMPTS, "visual": PROMPTS}
        return checks.check_train_step(output, expected_counts, TARGETS, FUSION_LAYERS)


class TauTies(Workload):
    """``promptkit tau`` on two 4000-line score files with many ties."""

    def __init__(self, fixture: Path, seed: int):
        self.a, self.b = fixture / "text_scores.csv", fixture / "visual_scores.csv"
        self._expected = None

    def op(self, i: int) -> dict:
        return json.loads(_cli(["tau", "--a", str(self.a), "--b", str(self.b)]))

    def check(self, output) -> list[str]:
        import checks
        if self._expected is None:
            self._expected = checks.expected_tau(self.a, self.b)
        return checks.check_tau(output, self._expected)


# The acceptance suite's gradient checks: these sizes and scenario seeds
# 0-99, one check per loss per rotation.
GRADCHECK_SIZES = {"order": 16, "align": 8, "giou": 4, "l1": 4, "dice": 6, "bce": 6}
GRADCHECK_SEEDS = 100
GRADCHECK_TOL = 1e-4


class GradcheckSuite(Workload):
    """``promptkit gradcheck`` over all six losses; one operation is one
    whole rotation, and rotation ``i`` uses scenario seed (seed + i) mod 100."""

    def __init__(self, fixture: Path, seed: int):
        self.seed = seed
        self.items = len(GRADCHECK_SIZES)

    def op(self, i: int) -> list[dict]:
        scenario_seed = (self.seed + i) % GRADCHECK_SEEDS
        return [
            json.loads(_cli(["gradcheck", "--loss", loss, "--n", str(n),
                             "--seed", str(scenario_seed), "--tol", str(GRADCHECK_TOL)]))
            for loss, n in GRADCHECK_SIZES.items()]

    def check(self, output) -> list[str]:
        import checks
        return checks.check_gradcheck(output, GRADCHECK_SIZES, GRADCHECK_TOL)


WORKLOADS = {
    "verify-dense": VerifyDense,
    "train-step": TrainStep,
    "tau-ties": TauTies,
    "gradcheck-suite": GradcheckSuite,
}


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def measure(workload, seconds: float, tracer=None) -> dict:
    """Time operations until their summed wall time reaches ``seconds``,
    then check every output.  Returns the result object of ``run.py``
    without ``setup_s``/``peak_rss_mb``, which the parent measures."""
    times, failed, problems, per_op = [], 0, [], []
    i = 1
    while sum(times) < seconds:
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        try:
            output = workload.op(i)
        except Exception as exc:  # a failing operation is counted, not fatal
            failed += 1
            print(f"operation {i} failed: {exc!r}", file=sys.stderr)
            times.append(time.perf_counter() - t0)
            i += 1
            continue
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            per_op.append({**tracer.snapshot(), "engine.gate_pass_ratio": 0.0,
                           **workload.layer_metrics(output)})
        problems += [f"op {i}: {p}" for p in workload.check(output)]
        i += 1
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    p50_ms = statistics.median(times) * 1e3
    if tracer is None:
        metrics = {"op_p50_ms": p50_ms,
                   "items_per_s": workload.items * (len(times) - failed) / sum(times)}
    else:
        metrics = {**tracer.summarise(per_op), "trace.op_p50_ms": p50_ms}
    return {"correct": not problems, "attempted": len(times), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload in this process")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--fixture", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_s = import_promptkit()
    workload = WORKLOADS[args.workload](args.fixture, args.seed)
    workload.op(0)
    print(f"READY {import_s!r} {_peak_rss_kib()}", flush=True)
    if args.setup_only:
        return 0
    tracer = None
    if args.trace:
        import trace_layers
        tracer = trace_layers.Tracer()
        tracer.install()
    result = measure(workload, args.seconds, tracer)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
