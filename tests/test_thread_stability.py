"""Byte-stability of every subcommand across BLAS thread counts.

Outputs are byte-stable for the same inputs, seed, numpy and OpenBLAS
build and BLAS thread count.  ``verify``, ``tau``, ``select``,
``gradcheck`` and ``sample`` print the same bytes under one and two BLAS
threads.  ``fuse-demo`` runs its fusion products through BLAS, whose
summation order may follow the thread count, so it is held to equal
bytes from run to run at each count.  Each run is a fresh process,
because BLAS reads its thread count when numpy is imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import promptkit
from oracles import make_annotation_fixture

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = os.path.dirname(os.path.dirname(promptkit.__file__))


def run(argv, threads: int, out_dir: Path | None = None) -> dict:
    """stdout of ``promptkit argv`` under ``threads`` BLAS threads, and the
    bytes of every file it wrote under ``out_dir``."""
    env = dict(os.environ, PYTHONPATH=SRC, **{name: str(threads) for name in THREAD_VARS})
    proc = subprocess.run([sys.executable, "-m", "promptkit.cli", *map(str, argv)], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    files = {} if out_dir is None else \
        {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return {"stdout": proc.stdout, "files": files}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    for side in ("a", "b"):
        (root / side).mkdir()
    for a, b in make_annotation_fixture(8, seed=31):
        (root / "a" / f"{a.image_id}.json").write_text(a.to_json())
        (root / "b" / f"{b.image_id}.json").write_text(b.to_json())
    rng = np.random.default_rng(31)
    for name in ("x", "y"):
        (root / f"{name}.txt").write_text("".join(f"{v}\n" for v in rng.integers(0, 9, 300)))
    (root / "scores.json").write_text(json.dumps(
        {"text": rng.normal(size=60).tolist(), "visual": rng.normal(size=60).tolist()}))
    (root / "manifest.json").write_text(json.dumps({"batch_size": 3, "seed": 5, "samples": [
        {"id": f"s{i}", "dataset": f"d{i % 3}"} for i in range(30)]}))
    (root / "fuse.json").write_text(json.dumps(
        {"dim": 64, "feature_tokens": 700, "text_prompts": 4, "visual_prompts": 4,
         "layers": 3, "seed": 0}))
    return root


THREAD_INDEPENDENT = {
    "verify": lambda d: ["verify", "--a", d / "a", "--b", d / "b", "--hash-fallback",
                         "--iou-gate", 0.3, "--sim-thresh", 0.2],
    "tau": lambda d: ["tau", "--a", d / "x.txt", "--b", d / "y.txt"],
    "select": lambda d: ["select", "--scores", d / "scores.json", "--k", 10],
    "gradcheck": lambda d: ["gradcheck", "--loss", "align", "--n", 16, "--seed", 3],
    "sample": lambda d: ["sample", "--manifest", d / "manifest.json"],
}


@pytest.mark.parametrize("command", THREAD_INDEPENDENT)
def test_output_does_not_depend_on_the_thread_count(inputs, tmp_path, command):
    argv = THREAD_INDEPENDENT[command](inputs)
    runs = []
    for threads in (1, 2):
        out_dir = tmp_path / f"out{threads}" if command == "verify" else None
        runs.append(run(argv + ["--out", out_dir] if out_dir else argv, threads, out_dir))
    assert runs[0]["stdout"]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("threads", [1, 2])
def test_fuse_demo_is_stable_at_each_thread_count(inputs, threads):
    argv = ["fuse-demo", "--config", inputs / "fuse.json"]
    first = run(argv, threads)
    assert first["stdout"]
    assert run(argv, threads) == first
