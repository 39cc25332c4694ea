"""Steadiness and repeatability self-check of the benchmark.

    python3 perfbench/selfcheck.py [--out FILE]

Runs `perfbench/run.py` for every workload of BENCHMARK.json over RUNS
seeds, SETS times with fresh seeds per set, each run for the benchmark's
`run_seconds`, and checks against the bounds of BENCHMARK.json:

* spread: for every end-to-end metric, `setup_s` included, the distance
  between the first and third quartiles of a set, as a share of its median,
  is within the bound (the aim is a third of it);
* drift: no set's median is worse than the first set's by more than the
  bound, `setup_s` included;
* repeat: two traced runs with the same seed give identical deterministic
  counts.

Writes a summary of every run to `--out` (JSON) and exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10                # seeds per set
SETS = 2
FIRST_SEED = 1           # set k uses seeds FIRST_SEED + 1000 k + (0 .. RUNS - 1)
# Per-layer counts that must repeat exactly for one seed.
DETERMINISTIC = ("sim.events", "sim.pair_calls", "sim.trace_rows", "sim.drive_changes",
                 "sim.deliveries_per_sample", "sampling.log_quantize_calls",
                 "sampling.event_trigger_check_calls", "matan.expm_calls",
                 "bounds.max_expm_norms_calls", "design.riccati_design_calls",
                 "cli.trace_csv_bytes", "cli.event_log_bytes")


def bench_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed {seed} trace {trace}: correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())
                     if not trace), flush=True)
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=ROOT / ".perfbench-out" / "selfcheck.json")
    args = ap.parse_args(argv)

    results = {w: [[] for _ in range(SETS)] for w in names}
    for k in range(SETS):
        print(f"set {k + 1}", flush=True)
        for i in range(RUNS):
            seed = FIRST_SEED + k * 1000 + i
            for w in names:
                results[w][k].append(bench_run(w, seed, seconds, 0))

    problems = []
    summary = {}
    print(f"\n{'workload':<14} {'metric':<15} {'bound':>5}  "
          + "  ".join(f"set{k + 1} median  spread" for k in range(SETS))
          + "  worst drift")
    for w in names:
        summary[w] = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            drift = max(worse_by(medians[0], med, m["better"]) for med in medians)
            summary[w][name] = {"unit": m["unit"], "bound": bound, "medians": medians,
                                "spreads": spreads, "drift": drift, "values": sets}
            flags = []
            if max(spreads) > bound:
                flags.append("SPREAD>BOUND")
            elif max(spreads) > bound / 3:
                flags.append("spread>bound/3")
            if drift > bound:
                flags.append("DRIFT>BOUND")
            if any(f.isupper() for f in flags):
                problems.append(f"{w} {name}: {' '.join(flags)}")
            print(f"{w:<14} {name:<15} {bound:>5}  "
                  + "  ".join(f"{med:>12.5g} {sp:>7.2%}" for med, sp in zip(medians, spreads))
                  + f"  {drift:>+8.2%}  {' '.join(flags)}")
        failed = [r for runs in results[w] for r in runs if not r["correct"]]
        if failed:
            problems.append(f"{w}: {len(failed)} runs not correct")

    repeats = {}
    print("\nrepeat check (two traced runs, same seed)")
    for w in names:
        a, b = (bench_run(w, FIRST_SEED, seconds, 1) for _ in range(2))
        counts = {n: (a["metrics"][n]["value"], b["metrics"][n]["value"])
                  for n in DETERMINISTIC}
        repeats[w] = {"seed": FIRST_SEED, "counts": counts,
                      "per_layer": {n: v["value"] for n, v in a["metrics"].items()}}
        differ = [n for n, (x, y) in counts.items() if x != y]
        print(f"  {w}: " + ("identical" if not differ else f"DIFFER {differ}"))
        if differ or not (a["correct"] and b["correct"]):
            problems.append(f"{w}: traced counts differ or runs not correct")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"runs": RUNS, "sets": SETS,
                                    "seconds": seconds, "summary": summary,
                                    "repeats": repeats}, indent=1))
    print("\n" + ("all checks passed" if not problems else "\n".join(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
