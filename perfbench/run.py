"""promptkit benchmark: one workload per call, each in fresh processes.

    python3 perfbench/run.py --workload verify-dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20     # all four workloads in turn

For one workload the runner writes the seeded fixture, then starts
SETUP_SAMPLES fresh worker processes one after another.  Each imports
promptkit, builds the workload's state, runs one warm-up operation and
reports ready; the time from start to ready is one set-up sample, and
the peak RSS at that point one memory sample.  The last worker goes on
to time operations for ``--seconds`` and check them (see
``workloads.py``).  The last line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the last worker wraps promptkit's public functions and
the metrics are per-layer (see ``trace_layers.py``).  BLAS is pinned
to one thread in every process.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

# One BLAS thread in every process: the thread count changes the last
# bits of the fusion outputs and, with 2 cores, competes with the parent.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("verify-dense", "train-step", "tau-ties", "gradcheck-suite")
# Fresh processes per run whose set-up time and memory are sampled; the
# run reports their medians, so one slow cold start cannot move it.
SETUP_SAMPLES = 3
# Generous per-process limits: a hung worker fails the run instead of
# stalling it.
SETUP_TIMEOUT_S = 60
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms", "items_per_s": "1/s"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    return "ratio" if name.endswith("_ratio") else "count"


class Worker:
    """One worker process; its set-up time is measured from spawn to READY."""

    def __init__(self, workload: str, seed: int, seconds: float, fixture: Path,
                 trace: bool, setup_only: bool):
        cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--fixture", str(fixture)]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     env={**os.environ, "PYTHONHASHSEED": "0"})

    def ready(self) -> tuple[float, float, float]:
        """Block until READY; return (set-up s, import s, peak RSS MB)."""
        if not select.select([self.proc.stdout], [], [], SETUP_TIMEOUT_S)[0]:
            raise RuntimeError(f"worker not ready within {SETUP_TIMEOUT_S} s")
        line = self.proc.stdout.readline()
        setup_s = time.perf_counter() - self.start
        parts = line.split()
        if len(parts) != 3 or parts[0] != "READY":
            raise RuntimeError(f"worker did not become ready: {line!r}")
        return setup_s, float(parts[1]), int(parts[2]) / 1024.0

    def finish(self, timeout: float) -> str:
        out, _ = self.proc.communicate(timeout=timeout)
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited {self.proc.returncode}")
        return out

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import fixtures

    fixture = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(fixture, ignore_errors=True)
    fixture.mkdir(parents=True)
    try:
        if workload in fixtures.WRITERS:
            fixtures.WRITERS[workload](fixture, seed)
        samples = []
        for k in range(SETUP_SAMPLES):
            last = k == SETUP_SAMPLES - 1
            worker = Worker(workload, seed, seconds, fixture, trace, setup_only=not last)
            try:
                samples.append(worker.ready())
                out = worker.finish(timeout=SETUP_TIMEOUT_S + (10 * seconds if last else 0))
            finally:
                worker.kill()
        result = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(fixture, ignore_errors=True)

    setup_s, import_s, rss_mb = (statistics.median(col) for col in zip(*samples))
    if trace:
        result["metrics"]["cli.import_ms"] = import_s * 1e3
    else:
        result["metrics"].update(setup_s=setup_s, peak_rss_mb=rss_mb)
    result["metrics"] = {name: {"value": value, "unit": _unit(name)}
                         for name, value in sorted(result["metrics"].items())}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; all four in turn when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "promptkit" / "__init__.py").is_file():
        print(f"error: no promptkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(HERE))
    for name in [args.workload] if args.workload else WORKLOADS:
        result = json.dumps(run_workload(name, args.seed, args.seconds, bool(args.trace)))
        print(result if args.workload else f"{name}: {result}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
