"""Per-layer timing by wrapping promptkit's public functions from outside.

promptkit modules import each other's functions by name, so a function
is wrapped in every namespace its callers look it up in (``engine.iou``,
not only ``losses.iou``).  A span's self time is its wall time minus the
wall time of the wrapped calls made inside it.  A name missing from a
namespace is skipped, so its metric reads 0 rather than breaking the run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

# metric prefix -> places to wrap, as "module:attribute" or "module:Class.method".
SPANS = {
    "engine.load": ["engine:_load_dir"],
    "engine.cross_verify": ["engine:cross_verify"],
    # batch_verify's own time once loading and cross_verify are taken
    # out is writing the --out files.
    "engine.write": ["engine:batch_verify"],
    "engine.retention_stats": ["engine:retention_stats"],
    "losses.iou": ["engine:iou"],
    "losses.hungarian": ["engine:hungarian", "losses:hungarian"],
    "losses.giou_loss": ["losses:giou_loss", "gradcheck:giou_loss"],
    "losses.l1_box_loss": ["losses:l1_box_loss", "gradcheck:l1_box_loss"],
    "losses.match_and_total_loss": ["losses:match_and_total_loss"],
    "losses.dice_loss": ["losses:dice_loss", "gradcheck:dice_loss"],
    "losses.bce_mask_loss": ["losses:bce_mask_loss", "gradcheck:bce_mask_loss"],
    "prompts.embed": ["prompts:FileEmbeddings.embed", "prompts:HashEmbeddings.embed"],
    "prompts.encode_visual_prompt": ["prompts:encode_visual_prompt"],
    "fusion.fusion_layer": ["fusion:fusion_layer"],
    "fusion.background_activation_stats": ["fusion:background_activation_stats"],
    "alignment.align_loss": ["losses:align_loss", "gradcheck:align_loss"],
    "ranking.kendall_tau": ["cli:kendall_tau"],
    "ranking.order_loss": ["cli:order_loss", "losses:order_loss", "gradcheck:order_loss"],
    "ranking.select_queries": ["ranking:select_queries", "cli:select_queries"],
    "numeric.finite_diff_grad": ["gradcheck:finite_diff_grad"],
    "gradcheck.build_scenario": ["gradcheck:build_scenario"],
    "cli.main": ["cli:main"],
}
# Counted, not timed: scipy's solver stays inside hungarian's self time.
COUNTERS = {"losses.lsa_solves": ["losses:linear_sum_assignment"]}
# Spans whose call counts are reported as "<name>_calls".
CALL_COUNTS = ("losses.iou", "losses.hungarian", "losses.giou_loss",
               "prompts.embed", "ranking.order_loss")


def _resolve(place: str):
    module_name, attr = place.split(":")
    owner = importlib.import_module(f"promptkit.{module_name}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Wraps the places in SPANS/COUNTERS; accumulates per operation."""

    def __init__(self):
        self._children = []  # wall time of wrapped calls inside each open span
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.loss_evals = 0

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                inner = self._children.pop()
                self.self_s[name] += elapsed - inner
                self.calls[name] += 1
                if self._children:
                    self._children[-1] += elapsed
        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _counting_loss(self, finite_diff_grad):
        # Each evaluation of the scalar function is one loss evaluation.
        @functools.wraps(finite_diff_grad)
        def wrapper(f, p, *args, **kwargs):
            def counted(x):
                self.loss_evals += 1
                return f(x)
            return finite_diff_grad(counted, p, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Patch every place for the rest of the process's life."""
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for name, places in table.items():
                for place in places:
                    owner, attr = _resolve(place)
                    fn = getattr(owner, attr, None)
                    if fn is None:
                        continue
                    if place == "gradcheck:finite_diff_grad":
                        fn = self._counting_loss(fn)
                    setattr(owner, attr, make(name, fn))

    def snapshot(self) -> dict:
        """This operation's numbers, as metric name -> value."""
        out = {f"{name}_ms": self.self_s[name] * 1e3 for name in SPANS}
        out.update({f"{name}_calls": self.calls[name] for name in CALL_COUNTS})
        out.update({name: self.calls[name] for name in COUNTERS})
        out["numeric.loss_evals"] = self.loss_evals
        return out

    @staticmethod
    def summarise(per_op: list[dict]) -> dict:
        """Per-operation median of every metric."""
        return {key: statistics.median(op[key] for op in per_op) for key in per_op[0]}
