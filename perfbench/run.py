"""asynclab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload reproduce-ex1 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload itself runs in a fresh Python
process (`perfbench/workload.py`) against the sources under `src/`; this
harness also starts set-up-only processes of the same workload and reports
the median set-up time, each scaled by the host slowdown measured just
before and just after it. With `--trace 0` the result carries the
end-to-end metrics of BENCHMARK.json, with `--trace 1` its per-layer metrics.
Human-readable lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reproduce-ex1", "sweep-ex3", "bound-mix")
# Set-up-only processes per run, besides the workload's own set-up.
SETUP_REPEATS = 8
CHILD_TIMEOUT_S = 150


class ChildError(RuntimeError):
    """The workload process failed or printed no result."""


def run_child(cmd, env):
    """Start one workload process; returns (set-up seconds, host slowdown
    during the set-up, parsed result)."""
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise ChildError(f"exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildError("no output")
    result = json.loads(lines[-1])
    setup = result["setup"]
    # Set-up time without the child's first speed sample.
    return setup["ready_at"] - start - setup["probe_s"], setup["slowdown"], result


def main(argv=None):
    ap = argparse.ArgumentParser(description="asynclab benchmark (one run)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "asynclab" / "__init__.py").is_file():
        print(f"error: no asynclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # One process, at most 2 threads of load: keep BLAS pools single-threaded.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                setups.append(run_child(cmd + ["--setup-only"], env)[:2])
        *setup, res = run_child(cmd, env)
        setups.append(setup)
    except (ChildError, ValueError, KeyError) as exc:
        print(f"error: {args.workload} run failed: {exc}", file=sys.stderr)
        return 1

    metrics = res["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(s / k for s, k in setups),
                              "unit": "s"}
        res["extra"]["raw_setup_s"] = {"value": statistics.median(s for s, _ in setups),
                                       "unit": "s"}
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {res['attempted']}  failed {res['failed']}")
    for phase, walls in res["walls"].items():
        print(f"  {phase} pass walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    for failure in res["failures"]:
        print(f"  FAILED  {failure}")
    shown = {**metrics, **res["extra"]}
    width = max(map(len, shown))
    for name in sorted(shown):
        print(f"  {name:<{width}}  {shown[name]['value']:.6g} {shown[name]['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
