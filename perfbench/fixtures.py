"""Seeded input files for the file-driven workloads.

``verify-dense`` reads two annotation directories and a tag-embedding
file; ``tau-ties`` reads two score files.  Both are written here from
the workload seed alone, so the same seed always gives byte-identical
files.  The other two workloads build their inputs in memory (see
``workloads.py``).

Regenerate a fixture by hand:

    python3 perfbench/fixtures.py --workload verify-dense --seed 1 --out /tmp/fx
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

# verify-dense: 200 images, 30 instances per side, placed one per cell
# of a 6x6 grid so that boxes of different cells never overlap.
VERIFY_IMAGES = 200
VERIFY_INSTANCES = 30
GRID = 6
CELL_MARGIN = 0.002
EMB_DIM = 64
SYNONYM_GROUPS = 10
SYNONYMS_PER_GROUP = 4
# Synonym vectors are group centre + noise of this norm; two synonyms
# then have cosine near 1 / (1 + SPREAD**2), about 0.67, so some
# differing tags pass the 0.6 threshold and some do not.
SYNONYM_SPREAD = 0.7
MISSING_TAGS = ("rare-a", "rare-b", "rare-c")
MISSING_TAG_RATE = 0.02

# tau-ties: 4000 scores per file, rounded to 2 decimals.
TAU_N = 4000
TAU_DECIMALS = 2


def vocabulary() -> list[str]:
    return [f"g{g:02d}s{s}" for g in range(SYNONYM_GROUPS) for s in range(SYNONYMS_PER_GROUP)]


def group_of(tag: str) -> int | None:
    return int(tag[1:3]) if tag.startswith("g") else None


def _embeddings(rng) -> dict[str, list[float]]:
    table = {}
    for g in range(SYNONYM_GROUPS):
        centre = rng.standard_normal(EMB_DIM)
        centre /= np.linalg.norm(centre)
        for s in range(SYNONYMS_PER_GROUP):
            noise = rng.standard_normal(EMB_DIM)
            noise *= SYNONYM_SPREAD / np.linalg.norm(noise)
            # Stored unnormalised: the program normalises on lookup.
            table[f"g{g:02d}s{s}"] = [float(x) for x in (centre + noise) * rng.uniform(0.5, 2.0)]
    return table


def _cell(cell: int) -> tuple[float, float, float]:
    """Inner corner and side of a grid cell; the margin keeps boxes of
    neighbouring cells strictly apart."""
    size = 1.0 / GRID
    return ((cell % GRID) * size + CELL_MARGIN, (cell // GRID) * size + CELL_MARGIN,
            size - 2 * CELL_MARGIN)


def _box_in_cell(rng, cell: int, lo: float = 0.4, hi: float = 0.9) -> list[float]:
    x0, y0, side = _cell(cell)
    w, h = rng.uniform(lo, hi, size=2) * side
    x1 = x0 + rng.uniform(0.0, side - w)
    y1 = y0 + rng.uniform(0.0, side - h)
    return [float(x1), float(y1), float(x1 + w), float(y1 + h)]


def _jittered(rng, box: list[float], cell: int, scale: float) -> list[float]:
    x0, y0, side = _cell(cell)
    lo = np.array([x0, y0, x0, y0])
    j = np.clip(np.asarray(box) + rng.uniform(-scale, scale, size=4) * side, lo, lo + side)
    return [float(min(j[0], j[2])), float(min(j[1], j[3])),
            float(max(j[0], j[2])), float(max(j[1], j[3]))]


def _tag(rng, vocab: list[str]) -> str:
    if rng.random() < MISSING_TAG_RATE:
        return str(rng.choice(MISSING_TAGS))
    return str(rng.choice(vocab))


def _bottom_tag(rng, tag: str, vocab: list[str]) -> str:
    u = rng.random()
    g = group_of(tag)
    if u < 0.55 or g is None:
        return tag if u < 0.85 else _tag(rng, vocab)
    if u < 0.85:
        return f"g{g:02d}s{int(rng.integers(0, SYNONYMS_PER_GROUP))}"
    return _tag(rng, vocab)


def _verify_image(rng, image_id: str, vocab: list[str]) -> tuple[dict, dict]:
    cells = rng.permutation(GRID * GRID)
    used, empty = cells[:VERIFY_INSTANCES], cells[VERIFY_INSTANCES:]
    top, bottom = [], []
    for k, cell in enumerate(used):
        box = _box_in_cell(rng, int(cell))
        tag = _tag(rng, vocab)
        top.append({"box": box, "tag": tag, "score": float(rng.uniform(0.5, 1.0))})
        u = rng.random()
        if u < 0.8:
            bbox = _jittered(rng, box, int(cell), 0.08)
        elif u < 0.92:
            bbox = _box_in_cell(rng, int(cell), 0.2, 0.9)
        else:
            bbox = _box_in_cell(rng, int(empty[k % len(empty)]))
        bottom.append({"box": bbox, "tag": _bottom_tag(rng, tag, vocab),
                       "score": float(rng.uniform(0.5, 1.0))})
    bottom = [bottom[i] for i in rng.permutation(len(bottom))]
    head = {"image_id": image_id, "width": 640, "height": 480}
    return ({**head, "source": "top_down", "instances": top},
            {**head, "source": "bottom_up", "instances": bottom})


def write_verify_fixture(root: Path, seed: int, images: int = VERIFY_IMAGES) -> dict[str, Path]:
    """Write ``a/``, ``b/`` and ``tags.json`` under ``root``."""
    rng = np.random.default_rng([seed, 1])
    vocab = vocabulary()
    paths = {"a": root / "a", "b": root / "b", "emb": root / "tags.json"}
    paths["a"].mkdir(parents=True, exist_ok=True)
    paths["b"].mkdir(parents=True, exist_ok=True)
    paths["emb"].write_text(json.dumps(_embeddings(rng)))
    for i in range(images):
        image_id = f"img{i:04d}"
        a, b = _verify_image(rng, image_id, vocab)
        (paths["a"] / f"{image_id}.json").write_text(json.dumps(a))
        (paths["b"] / f"{image_id}.json").write_text(json.dumps(b))
    return paths


def write_tau_fixture(root: Path, seed: int) -> dict[str, Path]:
    """Write two correlated, heavily tied score files under ``root``."""
    rng = np.random.default_rng([seed, 2])
    x = rng.standard_normal(TAU_N)
    y = 0.6 * x + 0.8 * rng.standard_normal(TAU_N)
    root.mkdir(parents=True, exist_ok=True)
    paths = {"a": root / "text_scores.csv", "b": root / "visual_scores.csv"}
    for key, values in (("a", x), ("b", y)):
        paths[key].write_text("".join(f"{v:.{TAU_DECIMALS}f}\n" for v in values))
    return paths


WRITERS = {"verify-dense": write_verify_fixture, "tau-ties": write_tau_fixture}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WRITERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the fixture into")
    args = parser.parse_args(argv)
    paths = WRITERS[args.workload](Path(args.out), args.seed)
    print(json.dumps({k: str(v) for k, v in paths.items()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
