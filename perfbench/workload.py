"""One benchmark workload in a fresh Python process.

Sets up the workload's inputs, runs timed passes against the public CLI of
asynclab (called in-process through `asynclab.cli.main`), checks what every
answer means, and prints one JSON object as the last line of stdout. The
harness `perfbench/run.py` starts this script; see `perfbench/NOTES.md`.

A background SpeedProbe (`speed.py`) samples how fast the shared host runs
during the passes, and pass times are scaled by it; the set-up is scaled by
kernel samples taken just before and just after it. With `--trace 1`
untraced and traced passes alternate; the per-layer metrics come from the
spans that the shims of `spans.py` record in the traced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

from speed import SpeedProbe, slowdown_now

# Kernel samples taken just before and just after the set-up; the set-up
# time is scaled by the mean of the two slowdowns.
SETUP_SPEED_SAMPLES = 11
_probe_start = time.monotonic()
SLOWDOWN_BEFORE_SETUP = slowdown_now(SETUP_SPEED_SAMPLES)
# Time of that first sample, which the harness takes off the set-up time.
PROBE_S = time.monotonic() - _probe_start

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

if not (SRC / "asynclab" / "__init__.py").is_file():
    sys.exit(f"error: no asynclab sources under {SRC}")
sys.path.insert(0, str(SRC))

import asynclab  # noqa: E402
from asynclab import bounds, cli, scenarios, sim  # noqa: E402

from spans import Recorder, layer_time_by_op, self_times  # noqa: E402

if not Path(asynclab.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"error: asynclab imported from {asynclab.__file__}, not from {SRC}")

# Theorem-4 golden of example 3; every sweep run must end inside it.
THM4_BOUND = 0.4535
SWEEP_SEEDS = 8
SWEEP_THREADS = 2
BOUNDED_QUERY = {"mu": 1.0, "eps": 1.0, "omega": 0.01, "lambda_As": 0.0,
                 "sigma_A": 1.0, "sigma_G": 1.0, "sigma_K": 1.0, "tau_in": 0.1}
UNBOUNDED_QUERY = {"mu": 1.0, "eps": 1.0, "omega": 0.01, "lambda_As": -5.0,
                   "sigma_A": 1.0, "sigma_G": 1.0, "sigma_K": 1.0}
BOUND_KINDS = ("thm1", "thm1_unbounded", "thm2", "c1", "c2", "thm3", "thm4", "thm5")


def _report(text):
    """The JSON object a CLI command emitted, after any plain-text lines."""
    m = re.search(r"^\{", text, re.M)
    if m is None:
        raise ValueError("no JSON report on stdout")
    return json.loads(text[m.start():])


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


class Bench:
    """Calls into the CLI, numbers the operations and logs every simulation.

    `asynclab.cli.run` is always wrapped once per simulation to read the
    trace's counts and the time spent in the simulator; the full set of
    shims is installed only between `trace_on` and `trace_off`.
    """

    def __init__(self):
        self.recorder = None
        self.op = 0
        self.ops = {}            # op -> (phase, pass index, kind)
        self.pass_label = ("setup", 0)
        self.sims = []           # one dict per simulation
        self.files = []          # (op, kind, bytes) per exported file
        self._run = cli.run
        cli.run = self._timed_run

    def _timed_run(self, s):
        start = time.perf_counter()
        trace = self._run(s)
        self._log_sim(s, trace, time.perf_counter() - start)
        return trace

    def _log_sim(self, s, trace, seconds):
        kinds = Counter(kind for _, _, kind in trace.events)
        self.sims.append({
            "op": self.op, "seed": s.seed, "seconds": seconds,
            "events": len(trace.events), "samples": kinds["sample"],
            "deliveries": kinds["deliver"], "rows": len(trace.t),
            "points": s.snapshot_points, "drive_changes": len(trace.drive_changes)})

    def call(self, kind, argv):
        """Run one CLI command; returns (exit code, stdout, seconds, the
        simulations it ran)."""
        first_sim = len(self.sims)
        self.op += 1
        self.ops[self.op] = (*self.pass_label, kind)
        if self.recorder is not None:
            self.recorder.op = self.op
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a dead run
            traceback.print_exc()
            rc = f"raised {exc!r}"
        return rc, buf.getvalue(), time.perf_counter() - start, self.sims[first_sim:]

    def trace_on(self):
        if self.recorder is None:
            self.recorder = Recorder()
        rec = self.recorder
        cli.run = self._run
        rec.patch(cli, "run", "sim.run",
                  after=lambda args, trace, seconds: self._log_sim(args[0], trace, seconds))
        rec.patch(sim.Propagator, "pair", "sim.pair")
        for name in ("log_quantize", "event_trigger_check",
                     "generate_schedule", "validate_schedule"):
            rec.patch(sim, name, f"sampling.{name}")
        for name in ("write_trace_csv", "write_event_log"):
            rec.patch(cli, name, f"cli.{name}", after=self._log_file(name))
        rec.patch(bounds, "expm", "matan.expm")
        rec.patch(bounds, "max_expm_norms", "bounds.max_expm_norms")
        for name in ("theorem1_budget", "theorem2_budget", "theorem3_budget",
                     "theorem4_bound_opt_beta", "theorem5_budget",
                     "corollary1_budget", "corollary2_budget"):
            rec.patch(bounds, name, f"bounds.{name}")
        rec.patch(cli, "riccati_design", "design.riccati_design")
        rec.patch(scenarios, "riccati_design", "design.riccati_design")
        rec.patch(scenarios, "parse_scenario", "scenarios.parse_scenario")

    def _log_file(self, kind):
        def after(args, _, __):
            self.files.append((self.op, kind, os.path.getsize(args[1])))
        return after

    def trace_off(self):
        self.recorder.restore()
        cli.run = self._timed_run


class Pass:
    """Outcome of one pass of the timed phase."""

    def __init__(self, wall, attempted, failures, rates):
        self.phase = None
        self.span = None         # (start, end) perf_counter of the pass
        self.wall = wall
        self.attempted = attempted
        self.failures = failures
        self.rates = rates       # name -> operations per second in this pass


def _sim_rate(sims):
    """Trace events per second spent in the simulator."""
    seconds = sum(s["seconds"] for s in sims)
    return sum(s["events"] for s in sims) / seconds if seconds else 0.0


# -- workloads ---------------------------------------------------------------

class ReproduceEx1:
    """`asynclab reproduce --example 1`: goldens plus a 60 s relative-edge
    simulation with a log quantizer."""

    name = "reproduce-ex1"
    rate = "sim_events_per_s"
    # A pass's wall time grows as host_slowdown ** host_exponent; measured
    # on the reference VM (see NOTES.md, Host exponents).
    host_exponent = 1.0

    def __init__(self, bench, seed, workdir):
        self.bench, self.seed = bench, seed

    def setup(self):
        doc, _ = scenarios.builtin_example(1, seed=self.seed)
        scenarios.parse_scenario(doc)
        self.argv = ["--seed", str(self.seed), "reproduce", "--example", "1"]

    def run_pass(self, phase):
        rc, out, wall, sims = self.bench.call("reproduce", self.argv)
        failures = [] if len(sims) == 1 else [f"{len(sims)} simulations, expected 1"]
        try:
            report = _report(out)
            if rc != 0:
                failures.append(f"exit code {rc}")
            if report.get("consensus") is not True:
                failures.append("no consensus")
            if not _finite(report.get("final_delta_sq")):
                failures.append(f"final_delta_sq {report.get('final_delta_sq')!r}")
        except ValueError as exc:
            failures.append(str(exc))
        return Pass(wall, 1, failures[:1], {"sim_events_per_s": _sim_rate(sims)})


class SweepEx3:
    """`asynclab run` on example 3 with an 8-seed sweep on 2 threads,
    exporting CSVs, event logs and report.json."""

    name = "sweep-ex3"
    rate = "runs_per_s"
    host_exponent = 1.0

    def __init__(self, bench, seed, workdir):
        self.bench, self.seed, self.workdir = bench, seed, workdir

    def setup(self):
        self.seeds = random.Random(self.seed).sample(range(1, 1 << 31), SWEEP_SEEDS)
        doc = scenarios.example3_doc(seed=self.seeds[0])
        doc["sweep"] = {"seeds": self.seeds}
        scenarios.parse_scenario(doc)
        self.path = self.workdir / "sweep.json"
        self.path.write_text(json.dumps(doc))
        self.passes = 0

    def run_pass(self, phase):
        """The sweep as users run it on 2 threads; serially in the traced
        run's "serial" and "traced" phases, so that spans nest."""
        self.passes += 1
        outdir = self.workdir / f"out{self.passes}"
        threads = 1 if phase in ("serial", "traced") else SWEEP_THREADS
        os.environ["ASYNC_LAB_THREADS"] = str(threads)
        rc, _, wall, sims = self.bench.call(
            "sweep", ["run", str(self.path), "--out", str(outdir)])
        failures = self._check(rc, outdir, {s["seed"]: s["events"] for s in sims})
        shutil.rmtree(outdir, ignore_errors=True)
        return Pass(wall, SWEEP_SEEDS, failures,
                    {"runs_per_s": SWEEP_SEEDS / wall, "sim_events_per_s": _sim_rate(sims)})

    def _check(self, rc, outdir, events):
        if rc != 0:
            return [f"exit code {rc}"] * SWEEP_SEEDS
        try:
            runs = json.loads((outdir / "report.json").read_text())["runs"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"report.json: {exc}"] * SWEEP_SEEDS
        by_seed = {r.get("seed"): r for r in runs}
        header = ["t"] + [f"x_{i}_1" for i in range(1, 6)] + ["delta_sq"]
        failures = []
        for sd in self.seeds:
            r = by_seed.get(sd)
            if r is None:
                failures.append(f"seed {sd}: no report")
                continue
            fin = r.get("final_delta_sq")
            if not (_finite(fin) and fin < THM4_BOUND):
                failures.append(f"seed {sd}: final_delta_sq {fin!r}")
                continue
            try:
                csv_path, log_path = r["outputs"]
                with open(csv_path) as f:
                    got = f.readline().strip().split(",")
                if got not in (header, header + ["V"]):
                    failures.append(f"seed {sd}: CSV header {got}")
                    continue
                with open(log_path) as f:
                    log = json.load(f)
                if not all({"t", "channel", "kind"} <= set(e) for e in log):
                    failures.append(f"seed {sd}: malformed event log entry")
                elif len(log) != events.get(sd):
                    failures.append(f"seed {sd}: {len(log)} logged events, "
                                    f"{events.get(sd)} simulated")
            except (OSError, ValueError, KeyError, TypeError) as exc:
                failures.append(f"seed {sd}: {exc}")
        return failures


class BoundMix:
    """A closed loop with one client over a fixed mix of 8 `asynclab bound`
    queries; deterministic, so the seed is ignored."""

    name = "bound-mix"
    rate = "queries_per_s"
    # scipy expm and the page faults of the 10^7-point scan slow down about
    # twice as steeply as the pure-Python kernel does.
    host_exponent = 2.0

    def __init__(self, bench, seed, workdir):
        self.bench, self.workdir = bench, workdir

    def setup(self):
        docs = {"ex1": scenarios.example1_doc(), "ex2": scenarios.example2_doc(),
                "ex3": scenarios.example3_doc(),
                "bounded": {"query": BOUNDED_QUERY},
                "unbounded": {"query": UNBOUNDED_QUERY}}
        paths = {}
        for key, doc in docs.items():
            if "mode" in doc:
                scenarios.parse_scenario(doc)
            paths[key] = self.workdir / f"{key}.json"
            paths[key].write_text(json.dumps(doc))
        self.queries = [("thm2", paths["ex1"], "2"), ("c1", paths["ex1"], "c1"),
                        ("thm3", paths["ex2"], "3"), ("thm4", paths["ex3"], "4"),
                        ("thm1", paths["bounded"], "1"), ("c2", paths["bounded"], "c2"),
                        ("thm5", paths["bounded"], "5"),
                        ("thm1_unbounded", paths["unbounded"], "1")]
        q = BOUNDED_QUERY
        # With lambda_As = 0 the best margin mu - eps (sqrt(omega) + c s)^2
        # falls monotonically, so the budget has a closed form.
        slope = q["sigma_A"] + math.sqrt(7.0 / 3.0) * q["sigma_G"] * q["sigma_K"]
        self.closed_form = (math.sqrt(q["mu"] / q["eps"]) - math.sqrt(q["omega"])) / slope

    def query(self, kind, path, theorem):
        return self.bench.call(kind, ["bound", str(path), "--theorem", theorem])

    def run_pass(self, phase):
        wall = 0.0
        failures = []
        budgets = {}
        for kind, path, theorem in self.queries:
            rc, out, seconds, _ = self.query(kind, path, theorem)
            wall += seconds
            try:
                report = _report(out)
                problem = f"exit code {rc}" if rc != 0 else self._check(kind, report)
                budgets[kind] = report.get("budget")
            except ValueError as exc:
                problem = str(exc)
            if problem:
                failures.append(f"{kind}: {problem}")
        if not failures and not budgets["thm2"] > budgets["c1"]:
            failures.append("thm2: budget without measurement error is not "
                            "above the quantized (c1) budget")
        return Pass(wall, len(self.queries), failures,
                    {"queries_per_s": len(self.queries) / wall})

    def _check(self, kind, r):
        budget = r.get("budget")
        if kind == "thm4":
            if not abs(r.get("error_bound", math.nan) - 0.4535) <= 1e-2:
                return f"error_bound {r.get('error_bound')!r}"
            if not abs(r.get("delta_h", math.nan) - 0.2894) <= 1e-3:
                return f"delta_h {r.get('delta_h')!r}"
            return None
        if kind == "thm1_unbounded":
            if r.get("unbounded") is not True or r.get("feasible") is not True:
                return "not reported as feasible and unbounded"
            if not (budget is None or budget == 1000.0 or budget == math.inf
                    or budget in ("inf", "Infinity")):
                return f"unbounded budget encoded as {budget!r}"
            return None
        if r.get("feasible") is not True or r.get("unbounded") or not _finite(budget):
            return f"not a finite feasible budget: {budget!r}"
        expected = {"c1": (0.017, 2e-3), "thm3": (0.0691, 1e-3),
                    "thm1": (self.closed_form, 1e-9),
                    "c2": (self.closed_form, 1e-9),
                    "thm5": (self.closed_form - BOUNDED_QUERY["tau_in"], 1e-9)}
        if kind in expected:
            value, tol = expected[kind]
            if not abs(budget - value) <= tol:
                return f"budget {budget!r}, expected {value} +- {tol}"
        return None

    def unbounded_peak_mb(self):
        """tracemalloc peak of one unbounded theorem-1 query, in MB."""
        kind, path, theorem = self.queries[-1]
        tracemalloc.start()
        try:
            self.query(kind, path, theorem)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


WORKLOADS = {w.name: w for w in (ReproduceEx1, SweepEx3, BoundMix)}


# -- phases -------------------------------------------------------------------

def timed_passes(bench, workload, seconds, phases=("timed",), min_rounds=1):
    """Run passes in rounds of one pass per phase while another pass fits in
    `seconds`, and at least `min_rounds` rounds. Each round starts one phase
    later than the one before, so the phases share whatever the machine was
    doing at the time and none always follows the same other phase."""
    passes = []
    start = time.perf_counter()
    while (len(passes) < min_rounds * len(phases)
           or time.perf_counter() - start + passes[-1].wall <= seconds):
        rnd, k = divmod(len(passes), len(phases))
        phase = phases[(rnd + k) % len(phases)]
        bench.pass_label = (phase, sum(p.phase == phase for p in passes))
        if phase == "traced":
            bench.trace_on()
        start_pass = time.perf_counter()
        try:
            passes.append(workload.run_pass(phase))
        finally:
            if phase == "traced":
                bench.trace_off()
        passes[-1].phase = phase
        passes[-1].span = (start_pass, time.perf_counter())
    return passes


def host_factors(probe, workload, passes):
    """Per pass, how much longer the host made it: the slowdown during the
    pass raised to the workload's host_exponent."""
    return [probe.slowdown(*p.span) ** workload.host_exponent for p in passes]


def untraced_result(bench, workload, seconds):
    """End-to-end metrics of the timed phase.

    The `norm_` metrics divide each pass by its host factor, which removes
    most of the drift that other tenants cause; the raw wall times and
    rates go to the table only.
    """
    with SpeedProbe() as probe:
        passes = timed_passes(bench, workload, seconds)
    factors = host_factors(probe, workload, passes)
    extra = {name: (statistics.median(p.rates[name] for p in passes), "1/s")
             for name in passes[0].rates}
    extra["wall_s"] = (statistics.median(p.wall for p in passes), "s")
    extra["host_slowdown"] = (statistics.median(probe.slowdown(*p.span) for p in passes),
                              "ratio")
    metrics = {
        "norm_wall_s": (statistics.median(
            p.wall / k for p, k in zip(passes, factors)), "s"),
        "norm_ops_per_s": (statistics.median(
            p.rates[workload.rate] * k for p, k in zip(passes, factors)), "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return passes, metrics, extra


def traced_result(bench, workload, seconds):
    """Untraced and traced passes in turn; per-layer metrics.

    At least two rounds run, so every phase has two passes. The ratios
    between phases use pass walls divided by their host factors, as the
    end-to-end metrics do."""
    sweep = isinstance(workload, SweepEx3)
    phases = ("parallel", "serial", "traced") if sweep else ("serial", "traced")
    with SpeedProbe() as probe:
        passes = timed_passes(bench, workload, seconds, phases, min_rounds=2)
    peak_mb = workload.unbounded_peak_mb() if isinstance(workload, BoundMix) else 0.0
    OUT.mkdir(exist_ok=True)
    bench.recorder.dump(OUT / f"spans-{workload.name}.jsonl")

    metrics, repeated = layer_metrics(bench)
    norm = [p.wall / k for p, k in zip(passes, host_factors(probe, workload, passes))]
    wall = {ph: statistics.median(w for p, w in zip(passes, norm) if p.phase == ph)
            for ph in phases}
    metrics["bounds.thm1_unbounded_peak_mb"] = (peak_mb, "MB")
    metrics["trace_overhead_frac"] = (wall["traced"] / wall["serial"] - 1.0, "ratio")
    metrics["cli.sweep_parallel_efficiency"] = (
        wall["serial"] / (SWEEP_THREADS * wall["parallel"]) if sweep else 0.0, "ratio")
    if not repeated:
        passes[-1].failures.append("deterministic counts differ between traced passes")
    return passes, metrics, {}


def layer_metrics(bench):
    """Per-layer metrics from the spans and simulation logs of the traced
    passes, and whether their counts repeated exactly in every pass."""
    rec = bench.recorder
    pass_of = {op: i for op, (phase, i, _) in bench.ops.items() if phase == "traced"}
    n = len(set(pass_of.values()))
    counts = [Counter() for _ in range(n)]
    busy = [defaultdict(float) for _ in range(n)]
    selfs = self_times(rec.spans)
    parse_s = []
    for sid, name, start, end, _, op in rec.spans:
        if name == "scenarios.parse_scenario":
            parse_s.append(end - start)     # set-up parses count too
        i = pass_of.get(op)
        if i is None:
            continue
        counts[i][name] += 1
        busy[i][name] += end - start
        if name == "sim.run":
            busy[i]["sim.run.self"] += selfs[sid]
    for s in bench.sims:
        i = pass_of.get(s["op"])
        if i is not None:
            for key in ("events", "samples", "deliveries", "rows", "drive_changes"):
                counts[i]["sim." + key] += s[key]
            counts[i]["sim.slots"] += s["points"] + 1
    for op, kind, size in bench.files:
        if op in pass_of:
            counts[pass_of[op]][f"cli.{kind}.bytes"] += size

    def per_pass(key):
        return sum(c[key] for c in counts) / n

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def busy_s(key):
        return statistics.median(b[key] for b in busy)

    def per_call(key, scale):
        return ratio(sum(b[key] for b in busy), sum(c[key] for c in counts), scale)

    events = per_pass("sim.events")
    m = {
        "sim.run_s": (busy_s("sim.run"), "s"),
        "sim.run_self_s": (busy_s("sim.run.self"), "s"),
        "sim.events": (events, "count"),
        "sim.us_per_event": (ratio(busy_s("sim.run"), events, 1e6), "us"),
        "sim.pair_calls": (per_pass("sim.pair"), "count"),
        "sim.pair_us": (per_call("sim.pair", 1e6), "us"),
        "sim.pair_calls_per_event": (ratio(per_pass("sim.pair"), events), "ratio"),
        "sim.trace_rows": (per_pass("sim.rows"), "count"),
        "sim.trace_rows_per_point": (ratio(per_pass("sim.rows"), per_pass("sim.slots")), "ratio"),
        "sim.drive_changes": (per_pass("sim.drive_changes"), "count"),
        "sim.deliveries_per_sample": (
            ratio(per_pass("sim.deliveries"), per_pass("sim.samples")), "ratio"),
    }
    for name in ("generate_schedule", "validate_schedule"):
        m[f"sampling.{name}_s"] = (busy_s(f"sampling.{name}"), "s")
    for name in ("log_quantize", "event_trigger_check"):
        m[f"sampling.{name}_calls"] = (per_pass(f"sampling.{name}"), "count")
        m[f"sampling.{name}_us"] = (per_call(f"sampling.{name}", 1e6), "us")
    m["matan.expm_calls"] = (per_pass("matan.expm"), "count")
    m["matan.expm_us"] = (per_call("matan.expm", 1e6), "us")
    m["bounds.max_expm_norms_calls"] = (per_pass("bounds.max_expm_norms"), "count")
    m["bounds.max_expm_norms_s"] = (busy_s("bounds.max_expm_norms"), "s")
    in_bounds = layer_time_by_op(rec.spans, "bounds.")
    kind_ops = defaultdict(list)
    for op in pass_of:
        kind_ops[bench.ops[op][2]].append(op)
    for kind in BOUND_KINDS:
        times = [in_bounds[op] * 1e3 for op in kind_ops.get(kind, [])]
        m[f"bounds.{kind}_ms"] = (statistics.median(times) if times else 0.0, "ms")
    m["bounds.queries_per_kind"] = (min(len(kind_ops.get(k, [])) for k in BOUND_KINDS), "count")
    m["design.riccati_design_calls"] = (per_pass("design.riccati_design"), "count")
    m["design.riccati_design_ms"] = (per_call("design.riccati_design", 1e3), "ms")
    m["scenarios.parse_scenario_ms"] = (
        statistics.median(parse_s) * 1e3 if parse_s else 0.0, "ms")
    m["cli.write_trace_csv_s"] = (busy_s("cli.write_trace_csv"), "s")
    m["cli.trace_csv_bytes"] = (per_pass("cli.write_trace_csv.bytes"), "bytes")
    m["cli.write_event_log_s"] = (busy_s("cli.write_event_log"), "s")
    m["cli.event_log_bytes"] = (per_pass("cli.write_event_log.bytes"), "bytes")
    return m, all(c == counts[0] for c in counts)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once the inputs are ready (set-up timing)")
    args = ap.parse_args(argv)

    bench = Bench()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](bench, args.seed, workdir)
        if args.trace:
            bench.trace_on()     # so set-up parses show in the spans
        workload.setup()
        if args.trace:
            bench.trace_off()
        ready_at = time.monotonic()
        setup = {"ready_at": ready_at, "probe_s": PROBE_S, "slowdown": (
            SLOWDOWN_BEFORE_SETUP + slowdown_now(SETUP_SPEED_SAMPLES)) / 2}
        if args.setup_only:
            print(json.dumps({"setup": setup}))
            return 0
        run = traced_result if args.trace else untraced_result
        passes, metrics, extra = run(bench, workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    extra["error_rate"] = (len(failures) / attempted, "ratio")
    walls = defaultdict(list)
    for p in passes:
        walls[p.phase].append(p.wall)
    print(json.dumps({
        "setup": setup, "walls": walls, "attempted": attempted,
        "failed": len(failures), "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
