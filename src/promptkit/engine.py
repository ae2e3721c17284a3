"""Dual-path annotation cross-verification.

Two annotation pipelines produce per-image instance sets: a top-down
set (image-level tags pushed through an open-set detector) and a
bottom-up set (class-agnostic regions labeled individually).  Matched
box pairs are established by Hungarian assignment on 1 - IoU costs,
gated by a minimum IoU, then filtered by the cosine similarity of their
tag embeddings.  Surviving pairs keep the top-down geometry; the
bottom-up tag is attached as an alias when the tags differ.

Annotation JSON schema (one file per image and pipeline):

    {"image_id": str, "width": int, "height": int,
     "source": "top_down" | "bottom_up",
     "instances": [{"box": [x1, y1, x2, y2], "tag": str, "score": float,
                    "similarity": float, "alias_tag": str}]}

Boxes are normalized corner-form floats and scores lie in [0, 1].
"similarity" (a number in [-1, 1]) and "alias_tag" (a nonempty string)
are optional and checked when present.  Verified output instances carry
"similarity" and, when tags differ, "alias_tag".
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets
import stat
from dataclasses import KW_ONLY, dataclass, field
from functools import cache, cached_property
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .losses import hungarian, pairwise_iou, validate_box, validate_boxes
from .numeric import PLAIN_NUMBER_TYPES, as_int, as_objects, check_number, cosine_rows

SOURCES = ("top_down", "bottom_up")

DEFAULT_IOU_GATE = 0.5
DEFAULT_SIM_THRESHOLD = 0.6

HISTOGRAM_EDGES = [round(-1.0 + 0.1 * i, 1) for i in range(21)]

# What a bad input raises when it is read, parsed or converted, as opposed to a bug.
# A size read from a file can ask for more memory than there is: MemoryError.
BAD_INPUT_ERRORS = (ValueError, KeyError, TypeError, OverflowError, OSError, RecursionError,
                    MemoryError)


def missing_key_message(where, key) -> str:
    """The one wording of a required ``key`` missing from ``where``."""
    return f'{where} has no "{key}" key'


def _check_range(value, name: str, lo: int, hi: int) -> None:
    """``check_number``, then ``lo <= value <= hi``; NaN lies in no range."""
    check_number(value, name)
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value}")


@dataclass(frozen=True)
class Instance:
    """One annotated object: box, tag, confidence; its set holds the source."""

    box: np.ndarray
    tag: str
    score: float
    _: KW_ONLY
    similarity: float | None = None
    alias_tag: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "box", validate_box(self.box, f"box of tag {self.tag!r}"))
        if not self.tag:
            raise ValueError("instance tag must be nonempty")
        _check_range(self.score, "instance score", 0, 1)
        if not isinstance(self.tag, str):
            raise ValueError(f"instance tag must be a string, got {self.tag!r}")
        if self.similarity is not None:
            _check_range(self.similarity, "instance similarity", -1, 1)
        alias = self.alias_tag
        if alias is not None and not (isinstance(alias, str) and alias):
            raise ValueError(f"instance alias_tag must be a nonempty string, got {alias!r}")

    @classmethod
    def _row(cls, box, tag, score, similarity=None, alias_tag=None) -> "Instance":
        """An instance whose fields were checked by the caller; nothing is
        checked again."""
        inst = object.__new__(cls)
        # One attribute at a time, as the generated __init__ does: a
        # replaced __dict__ would take about twice the memory.
        for name, value in (("box", box), ("tag", tag), ("score", score),
                            ("similarity", similarity), ("alias_tag", alias_tag)):
            object.__setattr__(inst, name, value)
        return inst

    def to_dict(self) -> dict:
        d = {
            "box": [float(c) for c in self.box],
            "tag": self.tag,
            "score": float(self.score),
        }
        if self.similarity is not None:
            d["similarity"] = float(self.similarity)
        if self.alias_tag is not None:
            d["alias_tag"] = self.alias_tag
        return d


@dataclass(frozen=True)
class AnnotationSet:
    """All instances of one pipeline for one image."""

    image_id: str
    width: int
    height: int
    source: str
    instances: tuple[Instance, ...]

    def __post_init__(self):
        if not isinstance(self.image_id, str):
            raise ValueError(f"image_id must be a string, got {self.image_id!r}")
        object.__setattr__(self, "width", as_int(self.width, "width"))
        object.__setattr__(self, "height", as_int(self.height, "height"))
        if not self.image_id:
            raise ValueError("image_id must be nonempty")
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}, got {self.source!r}")

    @cached_property
    def boxes(self) -> np.ndarray:
        """The instances' boxes as one (n, 4) array.  The instances of a
        set built by ``from_dict`` hold its rows as their boxes."""
        return np.array([inst.box for inst in self.instances]).reshape(-1, 4)

    @classmethod
    def from_dict(cls, obj: dict) -> "AnnotationSet":
        if not isinstance(obj, dict):
            raise ValueError("annotation must be a JSON object")
        source = obj["source"]
        boxes, instances = _instance_rows(as_objects(obj["instances"], "instances"))
        ann = cls(
            image_id=obj["image_id"],
            width=obj["width"],
            height=obj["height"],
            source=source,
            instances=instances,
        )
        ann.__dict__["boxes"] = boxes  # fills the cached property
        return ann

    @classmethod
    def from_file(cls, path) -> "AnnotationSet":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "image_id": self.image_id,
            "width": self.width,
            "height": self.height,
            "source": self.source,
            "instances": [inst.to_dict() for inst in self.instances],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\\n"``,
        written from a fixed template rather than by the generic encoder."""
        instances = ",\n".join(map(_instance_json, self.instances, self.boxes.tolist()))
        return "".join((
            '{\n  "height": ', int.__repr__(self.height),
            ',\n  "image_id": ', _encode_str(self.image_id),
            ',\n  "instances": ', f"[\n{instances}\n  ]" if instances else "[]",
            ',\n  "source": ', _encode_str(self.source),
            ',\n  "width": ', int.__repr__(self.width),
            "\n}\n",
        ))


def _instance_rows(items: list) -> tuple[np.ndarray, tuple[Instance, ...]]:
    """The instances of a file's ``items`` as rows of one (n, 4) box array,
    each check ``Instance`` makes done once over the whole column."""
    try:
        coords = [item["box"] for item in items]
        boxes = validate_boxes(np.array(coords, dtype=np.float64) if items else np.empty((0, 4)))
        tags = [item["tag"] for item in items]
        scores = [item["score"] for item in items]
        similarities = [item.get("similarity") for item in items]
        alias_tags = [item.get("alias_tag") for item in items]
        given_sims = [s for s in similarities if s is not None]
        given_aliases = [a for a in alias_tags if a is not None]
        numbers = chain(chain.from_iterable(coords), scores, given_sims)
        valid = (all(isinstance(tag, str) and tag for tag in chain(tags, given_aliases))
                 and set(map(type, numbers)) <= PLAIN_NUMBER_TYPES
                 and all(0.0 <= score <= 1.0 for score in scores)
                 and all(-1.0 <= s <= 1.0 for s in given_sims))
    except Exception:  # the walk below raises it again, for the right instance
        valid = False
    if valid:
        return boxes, tuple(map(Instance._row, boxes, tags, map(float, scores),
                                similarities, alias_tags))
    # Some instance is invalid: build them one at a time, so that the first
    # bad one in file order raises its own message.
    instances = tuple(Instance(item["box"], item["tag"], item["score"],
                               similarity=item.get("similarity"), alias_tag=item.get("alias_tag"))
                      for item in items)
    return np.array([inst.box for inst in instances]).reshape(-1, 4), instances


_encode_str = json.encoder.encode_basestring_ascii


def _instance_json(inst: Instance, box: list[float]) -> str:
    """``inst.to_dict()`` as ``AnnotationSet.to_json`` writes it; ``box``
    holds its validated, finite coordinates."""
    alias = "" if inst.alias_tag is None else \
        f'\n      "alias_tag": {_encode_str(inst.alias_tag)},'
    similarity = "" if inst.similarity is None else \
        f'\n      "similarity": {float(inst.similarity)!r},'
    x1, y1, x2, y2 = map(float.__repr__, box)
    return (f'    {{{alias}\n      "box": [\n        {x1},\n        {y1},\n        {x2},\n'
            f'        {y2}\n      ],\n      "score": {float(inst.score)!r},'
            f'{similarity}\n      "tag": {_encode_str(inst.tag)}\n    }}')


def _retention_rates(retained: int, input_a: int, input_b: int) -> dict[str, float]:
    """Retained pairs over the mean of the input counts and over each."""
    denom = 0.5 * (input_a + input_b)
    return {
        "retention_rate": retained / denom if denom > 0 else 0.0,
        "retention_rate_top_down": retained / input_a if input_a else 0.0,
        "retention_rate_bottom_up": retained / input_b if input_b else 0.0,
    }


@dataclass(frozen=True)
class VerificationReport:
    """Counts and tag-similarity summaries for one verified image;
    ``matched`` counts Hungarian pairs before any gating."""

    image_id: str
    input_a: int
    input_b: int
    matched: int
    retained: int
    mean_similarity_before: float
    mean_similarity_after: float
    similarities_before: tuple[float, ...] = field(default=(), repr=False)
    similarities_after: tuple[float, ...] = field(default=(), repr=False)
    retention_rate: float = field(init=False)
    retention_rate_top_down: float = field(init=False)
    retention_rate_bottom_up: float = field(init=False)

    def __post_init__(self):
        for name, rate in _retention_rates(self.retained, self.input_a, self.input_b).items():
            object.__setattr__(self, name, rate)

    def to_dict(self) -> dict:
        return {name: value for name, value in vars(self).items()
                if name not in ("similarities_before", "similarities_after")}


def _check_thresholds(iou_gate: float, sim_threshold: float) -> None:
    """Raise ``ValueError`` unless ``iou_gate`` is a number in [0, 1] and
    ``sim_threshold`` one in [-1, 1]."""
    _check_range(iou_gate, "iou_gate", 0, 1)
    _check_range(sim_threshold, "sim_threshold", -1, 1)


def cross_verify(
    a: AnnotationSet,
    b: AnnotationSet,
    emb,
    iou_gate: float = DEFAULT_IOU_GATE,
    sim_threshold: float = DEFAULT_SIM_THRESHOLD,
) -> tuple[AnnotationSet, VerificationReport]:
    """Verify one image's annotations across the two pipelines.

    ``a`` must be the top-down set and ``b`` the bottom-up set for the
    same image.  Pipeline: Hungarian-match all boxes on 1 - IoU costs,
    drop matched pairs with IoU below ``iou_gate``, compute tag-embedding
    cosine similarity for the survivors, and retain pairs with
    similarity >= ``sim_threshold``.  ``sim_threshold`` may go down to
    -1 (cosine range), which retains every gate survivor.
    """
    if a.image_id != b.image_id:
        raise ValueError(f"image_id mismatch: {a.image_id!r} vs {b.image_id!r}")
    if a.source != "top_down" or b.source != "bottom_up":
        raise ValueError("cross_verify expects (top_down, bottom_up) in that order")
    _check_thresholds(iou_gate, sim_threshold)

    assignment: dict[int, int] = {}
    if a.instances and b.instances:
        overlaps = pairwise_iou(a.boxes, b.boxes)
        assignment, _ = hungarian(1.0 - overlaps)
    gated = [(a.instances[i], b.instances[j]) for i, j in assignment.items()
             if overlaps[i, j] >= iou_gate]

    sims_before: list[float] = []
    if gated:
        sims_before = cosine_rows(np.array([emb.embed(ia.tag) for ia, _ in gated]),
                                  np.array([emb.embed(ib.tag) for _, ib in gated])).tolist()

    kept = [(ia, ib, sim) for (ia, ib), sim in zip(gated, sims_before) if sim >= sim_threshold]
    sims_after = [sim for _, _, sim in kept]
    retained = [Instance._row(ia.box, ia.tag, ia.score, sim,
                              ib.tag if ib.tag != ia.tag else None)
                for ia, ib, sim in kept]

    report = VerificationReport(
        image_id=a.image_id,
        input_a=len(a.instances),
        input_b=len(b.instances),
        matched=len(assignment),
        retained=len(retained),
        mean_similarity_before=float(np.mean(sims_before)) if sims_before else 0.0,
        mean_similarity_after=float(np.mean(sims_after)) if sims_after else 0.0,
        similarities_before=tuple(sims_before),
        similarities_after=tuple(sims_after),
    )
    verified = AnnotationSet(
        image_id=a.image_id,
        width=a.width,
        height=a.height,
        source="top_down",
        instances=tuple(retained),
    )
    return verified, report


def _load_dir(directory, source: str) -> tuple[dict[str, AnnotationSet], list[str]]:
    """The annotation sets of ``source`` in ``directory`` by image_id, and
    one error line per file that could not be read or is not one of them."""
    if not Path(directory).is_dir():
        raise ValueError(f"annotation path {directory} is not a directory")
    sets: dict[str, AnnotationSet] = {}
    errors: list[str] = []
    for path in sorted(Path(directory).glob("*.json")):
        try:
            ann = AnnotationSet.from_file(path)
        except KeyError as exc:
            # The loader reads keys unchecked: the argument is the missing key.
            errors.append(missing_key_message(path, exc.args[0]))
            continue
        except BAD_INPUT_ERRORS as exc:
            errors.append(f"{path}: {exc}")
            continue
        if ann.source != source:
            errors.append(f"{path}: source is {ann.source!r}, expected {source!r}")
            continue
        if ann.image_id in sets:
            errors.append(f"{path}: duplicate image_id {ann.image_id!r}")
            continue
        sets[ann.image_id] = ann
    return sets, errors


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same
    directory and ``os.replace``, so that ``path`` holds either its old
    content or all of ``text``.  The file gets the mode ``Path.write_text``
    would leave it with: an existing file's mode, else 0o666 less the umask."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                with contextlib.suppress(FileNotFoundError):
                    os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        # Name the file asked for, not the temporary one.
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


@dataclass(frozen=True)
class BatchVerifyResult:
    reports: tuple[VerificationReport, ...]
    verified: tuple[AnnotationSet, ...]
    unpaired: tuple[str, ...]
    errors: tuple[str, ...]

    @property
    def failed(self) -> bool:
        return bool(self.errors)


def batch_verify(
    dir_a,
    dir_b,
    emb,
    iou_gate: float = DEFAULT_IOU_GATE,
    sim_threshold: float = DEFAULT_SIM_THRESHOLD,
    out_dir=None,
) -> BatchVerifyResult:
    """Cross-verify every image_id present in both directories.  The
    thresholds are checked, as ``cross_verify`` checks them, before any
    file is read.

    ``dir_a`` holds the top-down files and ``dir_b`` the bottom-up ones.
    Images present on only one side are reported as unpaired and
    produce no verified output.  Malformed files, and files whose
    ``source`` names the other pipeline, are recorded as errors and
    processing continues.  With ``out_dir`` set, one verified JSON
    file per image is written as ``<image_id>.json``; an image_id that
    would write outside it raises before any write.  Each file is written
    atomically (``write_text_atomic``).  ``emb.embed`` is called once per
    distinct tag.
    """
    _check_thresholds(iou_gate, sim_threshold)
    sets_a, errors_a = _load_dir(dir_a, "top_down")
    sets_b, errors_b = _load_dir(dir_b, "bottom_up")
    shared = sorted(set(sets_a) & set(sets_b))
    unpaired = sorted(set(sets_a) ^ set(sets_b))
    emb = SimpleNamespace(embed=cache(emb.embed))
    results = [cross_verify(sets_a[image_id], sets_b[image_id], emb,
                            iou_gate=iou_gate, sim_threshold=sim_threshold)
               for image_id in shared]
    verified = tuple(v for v, _ in results)
    reports = tuple(r for _, r in results)
    if out_dir is not None:
        out = Path(out_dir)
        for v in verified:
            if (out / f"{v.image_id}.json").parent != out:
                raise ValueError(f"image_id {v.image_id!r} would be written outside {out}")
        out.mkdir(parents=True, exist_ok=True)
        for v in verified:
            write_text_atomic(out / f"{v.image_id}.json", v.to_json())
    return BatchVerifyResult(
        reports=reports,
        verified=verified,
        unpaired=tuple(unpaired),
        errors=tuple(errors_a + errors_b),
    )


def _histogram(values) -> list[int]:
    counts, _ = np.histogram(list(values), bins=HISTOGRAM_EDGES)
    return [int(c) for c in counts]


def retention_stats(reports) -> dict:
    """Aggregate counts, retention rates (mean-of-inputs base plus the
    per-pipeline bases), and tag-similarity histograms (20 bins over
    [-1, 1]) before and after similarity filtering."""
    reports = list(reports)
    input_a = sum(r.input_a for r in reports)
    input_b = sum(r.input_b for r in reports)
    matched = sum(r.matched for r in reports)
    retained = sum(r.retained for r in reports)
    before = [s for r in reports for s in r.similarities_before]
    after = [s for r in reports for s in r.similarities_after]
    rates = _retention_rates(retained, input_a, input_b)
    return {
        "images": len(reports),
        "input_a": input_a,
        "input_b": input_b,
        "matched": matched,
        "retained": retained,
        **rates,
        "filtered_fraction": 1.0 - rates["retention_rate"],
        "mean_similarity_before": float(np.mean(before)) if before else 0.0,
        "mean_similarity_after": float(np.mean(after)) if after else 0.0,
        "histogram_edges": HISTOGRAM_EDGES,
        "similarity_histogram_before": _histogram(before),
        "similarity_histogram_after": _histogram(after),
    }
