"""Command-line interface: gain design, budget certification, simulation
runs with trace export, and built-in benchmark reproduction.

Exit codes (stable contract):
    0  success / feasible
    2  invalid input or solver failure
    3  infeasible bound query
    4  runtime failure during simulation
    5  golden-value mismatch in `reproduce`
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import bounds, scenarios
from .bounds import BoundQuery, InfeasibleError, SearchParams, SetMembershipError
from .design import DesignError, riccati_design, riccati_residual
from .graphs import build_algebra
from .sampling import ScheduleError
from .sim import ScenarioError, metrics, run

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_RUNTIME = 4
EXIT_GOLDEN = 5

# Failures of a simulation run, reported with EXIT_RUNTIME.
RUN_ERRORS = (ScheduleError, ScenarioError, RuntimeError, OverflowError)
# Trace rows or events per encoded block of an export file: one write each,
# and memory that stays flat in the length of the run.
EXPORT_BLOCK = 512


def thread_cap() -> int:
    """Parallelism cap for scenario sweeps, from ASYNC_LAB_THREADS."""
    raw = os.environ.get("ASYNC_LAB_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return os.cpu_count() or 1


def _load_doc(path):
    with open(path) as f:
        return json.load(f)


def _strict(x):
    """x in plain JSON values: arrays become lists, numpy scalars Python
    numbers, and non-finite floats null (an unbounded budget is null with
    "unbounded": true)."""
    if isinstance(x, np.ndarray):
        x = x.tolist()
    elif isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _dump(obj, f):
    """Write obj as strict JSON: no NaN or Infinity literals."""
    json.dump(_strict(obj), f, indent=2, allow_nan=False)
    f.write("\n")


def _emit(obj):
    _dump(obj, sys.stdout)


# -- design -----------------------------------------------------------------

def cmd_design(args):
    try:
        doc = _load_doc(args.file)
        model = scenarios.parse_model(doc)
        sec = doc.get("design")
        if sec is None:
            raise scenarios.ScenarioFormatError("design section with lambda and mu required")
        design = riccati_design(model, lam=float(sec["lambda"]), mu=float(sec["mu"]))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            scenarios.ScenarioFormatError, DesignError) as exc:
        _emit({"error": str(exc)})
        return EXIT_INVALID
    _emit({"P": design.P.tolist(), "K": design.K.tolist(),
           "mu": design.mu, "lambda": design.lam,
           "residual": riccati_residual(design, model)})
    return EXIT_OK


# -- bound ------------------------------------------------------------------

def _query_from_doc(doc):
    sec = doc.get("query")
    if sec is None:
        raise scenarios.ScenarioFormatError("abstract theorems need a 'query' section")
    return BoundQuery(mu=float(sec["mu"]), eps=float(sec["eps"]),
                      omega=float(sec.get("omega", 0.0)),
                      lambda_As=float(sec.get("lambda_As", 0.0)),
                      sigma_A=float(sec.get("sigma_A", 0.0)),
                      sigma_G=float(sec.get("sigma_G", 0.0)),
                      sigma_K=float(sec.get("sigma_K", 0.0)),
                      tau_in=float(sec.get("tau_in", 0.0)))


def _pipeline_inputs(doc):
    model = scenarios.parse_model(doc)
    graph = scenarios.parse_graph(doc)
    algebra = build_algebra(graph)
    sec = doc.get("design")
    if sec is None:
        raise scenarios.ScenarioFormatError("graph theorems need a 'design' section")
    design = riccati_design(model, lam=float(sec["lambda"]), mu=float(sec["mu"]))
    return model, design, algebra


def _bound(doc, theorem) -> dict:
    """Report of one theorem or corollary on a document: the output of
    `bound`, the budget behind a `run` warning and the `reproduce` goldens.
    bounds is read at call time, so its functions can be wrapped."""
    if theorem == "4":
        model, design, algebra = _pipeline_inputs(doc)
        sec, em = doc.get("bound_params", {}), doc.get("error_model", {})
        h = float(sec.get("h", doc.get("schedule", {}).get("h_max", 0.0)))
        tau = float(sec.get("tau", doc.get("schedule", {}).get("tau_max", 0.0)))
        delta_e = float(sec.get("delta_e", em.get("cap", em.get("delta_e", 0.0)) or 0.0))
        x0 = np.asarray(doc.get("x0", np.zeros(algebra.graph.n * model.N)), dtype=float)
        x0_sum = x0.reshape(algebra.graph.n, model.N).sum(axis=0)
        return bounds.theorem4_report(
            model, design, algebra, h, tau, delta_e, x0_sum,
            float(sec.get("alpha", 0.5)), float(sec.get("gamma", 3.188)),
            float(sec.get("eta", 1.6)), float(sec.get("theta", 1.0 + 1e-9)))
    if theorem == "3":
        report = bounds.theorem3_budget(build_algebra(scenarios.parse_graph(doc)))
    elif theorem == "2":
        inputs = _pipeline_inputs(doc)
        em = doc.get("error_model", {})
        omega = em["omega"] if em.get("kind") == "multiplicative" else doc.get("omega", 0.0)
        report = bounds.theorem2_budget(*inputs, omega=float(omega))
    elif theorem == "c1":
        em = doc.get("error_model", {})
        if em.get("kind") == "log_quantizer":
            level = float(em["level"])
        elif "quant_level" in doc:
            level = float(doc["quant_level"])
        else:
            raise scenarios.ScenarioFormatError("corollary 1 needs a quantizer level")
        inputs = _pipeline_inputs(doc) if "graph" in doc else (_query_from_doc(doc),)
        report = bounds.corollary1_budget(*inputs, quant_level=level)
    else:
        report = {"1": bounds.theorem1_budget, "c2": bounds.corollary2_budget,
                  "5": bounds.theorem5_budget}[theorem](_query_from_doc(doc))
    return report.to_dict()


def cmd_bound(args):
    try:
        report = _bound(_load_doc(args.file), args.theorem)
    except (InfeasibleError, SetMembershipError) as exc:
        _emit({"feasible": False, "error": str(exc)})
        return EXIT_INFEASIBLE
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            scenarios.ScenarioFormatError, DesignError) as exc:
        _emit({"error": str(exc)})
        return EXIT_INVALID
    _emit(report)
    return EXIT_OK if report["feasible"] else EXIT_INFEASIBLE


# -- run --------------------------------------------------------------------

def _budget_warning(doc, s):
    """Best-effort comparison of the scenario's lag against a certified
    budget; returns a warning string or None."""
    if s.schedule is None or s.graph is None:
        return None
    lag = s.schedule.h_max + s.schedule.tau_max + s.input_delay
    if s.mode == "relative_edges" and "design" in doc:
        theorem = "c1" if s.error_model.kind == "log_quantizer" else "2"
    elif s.mode == "broadcast" and s.model.N == 1 and s.model.A[0, 0] == 0.0:
        theorem = "3"
    else:
        return None
    try:
        report = _bound(doc, theorem)
    except (InfeasibleError, SetMembershipError, DesignError,
            scenarios.ScenarioFormatError, ValueError):
        return None
    if not report["feasible"]:
        return "budget exceeded: no lag is certified for this configuration"
    if lag > report["budget"]:
        return (f"budget exceeded: total lag {lag:.6g} is above the certified "
                f"budget {report['budget']:.6g}")
    return None


def write_trace_csv(trace, path):
    """CSV of the trace: t, the states, delta_sq and V when present; values
    as repr of the float, CRLF line ends. Rows are encoded and
    written EXPORT_BLOCK at a time."""
    s = trace.scenario
    header = ["t"] + [f"x_{i}_{j}" for i in range(1, s.n_units + 1)
                      for j in range(1, s.model.N + 1)] + ["delta_sq"]
    cols = [trace.t[:, None], trace.states, trace.delta_sq[:, None]]
    if trace.lyapunov is not None:
        header.append("V")
        cols.append(trace.lyapunov[:, None])
    line = ",".join(["%r"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for i in range(0, len(trace.t), EXPORT_BLOCK):
            block = np.hstack([c[i:i + EXPORT_BLOCK] for c in cols])
            f.write((line * len(block)) % tuple(block.ravel().tolist()))


def write_event_log(trace, path):
    """JSON list of the events as {"t", "channel", "kind"} objects, encoded
    EXPORT_BLOCK events at a time."""
    events = trace.events
    with open(path, "w") as f:
        f.write("[")
        for i in range(0, len(events), EXPORT_BLOCK):
            block = json.dumps([{"t": t, "channel": ch, "kind": kind}
                                for t, ch, kind in events[i:i + EXPORT_BLOCK]])
            f.write((", " if i else "") + block[1:-1])
        f.write("]\n")


def _run_one(doc, s, outdir, tag=""):
    start = time.perf_counter()
    trace = run(s)
    runtime = time.perf_counter() - start
    m = metrics(trace)
    csv_path = os.path.join(outdir, f"trace{tag}.csv")
    events_path = os.path.join(outdir, f"events{tag}.json")
    write_trace_csv(trace, csv_path)
    write_event_log(trace, events_path)
    warning = _budget_warning(doc, s)
    return {
        "seed": s.seed,
        "consensus": m["consensus"],
        "consensus_time": m["consensus_time"],
        "final_delta_sq": m["final_delta_sq"],
        "runtime_s": runtime,
        "warnings": [warning] if warning else [],
        "outputs": [csv_path, events_path],
    }


def cmd_run(args):
    try:
        doc = _load_doc(args.file)
        s = scenarios.parse_scenario(doc)
        if args.seed is not None:
            s = replace(s, seed=args.seed)
        if args.tol is not None:
            s = replace(s, consensus_tol=args.tol)
    except (OSError, json.JSONDecodeError, scenarios.ScenarioFormatError,
            ScenarioError, ValueError) as exc:
        _emit({"error": str(exc)})
        return EXIT_INVALID
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    sweep_seeds = doc.get("sweep", {}).get("seeds")
    try:
        if sweep_seeds:
            variants = [replace(s, seed=int(sd)) for sd in sweep_seeds]
            with ThreadPoolExecutor(max_workers=thread_cap()) as pool:
                reports = list(pool.map(
                    lambda v: _run_one(doc, v, outdir, tag=f"_seed{v.seed}"),
                    variants))
            report = {"runs": reports}
        else:
            report = _run_one(doc, s, outdir)
    except RUN_ERRORS as exc:
        _emit({"error": str(exc)})
        return EXIT_RUNTIME
    report_path = os.path.join(outdir, "report.json")
    with open(report_path, "w") as f:
        _dump(report, f)
    report["report_path"] = report_path
    _emit(report)
    return EXIT_OK


# -- reproduce --------------------------------------------------------------

# The theorem whose report holds each example's goldens, and the goldens
# named other than the report value they check.
GOLDEN_THEOREM = {1: "c1", 2: "3", 3: "4"}
GOLDEN_KEYS = {"budget_c1": "budget", "budget_thm3": "budget",
               "sync_constant": "synchronous_necessary_sufficient"}


def cmd_reproduce(args):
    number = int(args.example)
    try:
        doc, goldens = scenarios.builtin_example(number, seed=args.seed or 0)
    except ValueError as exc:
        _emit({"error": str(exc)})
        return EXIT_INVALID
    s = scenarios.parse_scenario(doc)
    bound = _bound(doc, GOLDEN_THEOREM[number])
    computed = {**bound, **bound.get("details", {}), "K": s.gain.ravel().tolist()}
    rows = []
    all_pass = True
    for name, (expected, tol) in goldens.items():
        got = computed[GOLDEN_KEYS.get(name, name)]
        if isinstance(expected, list):
            ok = all(abs(g - e) <= tol for g, e in zip(got, expected))
        else:
            ok = abs(got - expected) <= tol
        all_pass &= ok
        rows.append({"name": name, "expected": expected, "computed": got,
                     "tolerance": tol, "pass": bool(ok)})
        print(f"  {'PASS' if ok else 'FAIL'}  {name}: computed {got} "
              f"(expected {expected} +- {tol})")
    try:
        trace = run(s)
    except RUN_ERRORS as exc:
        _emit({"example": number, "goldens": rows, "error": str(exc)})
        return EXIT_RUNTIME
    m = metrics(trace)
    report = {"example": number, "goldens": rows,
              "consensus": m["consensus"],
              "final_delta_sq": m["final_delta_sq"]}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_trace_csv(trace, os.path.join(args.out, f"example{number}.csv"))
        with open(os.path.join(args.out, f"example{number}_report.json"), "w") as f:
            _dump(report, f)
    _emit(report)
    return EXIT_OK if all_pass else EXIT_GOLDEN


# -- entry point ------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="asynclab",
        description="Sampled-data multi-agent consensus: gain design, "
                    "certified sampling/delay budgets, exact simulation.")
    ap.add_argument("--seed", type=int, default=None,
                    help="override the scenario's random seed (run); the seed "
                         "of the built-in example (reproduce, default 0)")
    ap.add_argument("--tol", type=float, default=None,
                    help="override consensus tolerance")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="solve the Riccati gain design")
    p.add_argument("file")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("bound", help="compute a certified budget or error bound")
    p.add_argument("file")
    p.add_argument("--theorem", required=True,
                   choices=["1", "2", "3", "4", "c1", "c2", "5"])
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("run", help="simulate a scenario and export traces")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("reproduce", help="re-derive the built-in benchmark goldens")
    p.add_argument("--example", required=True, choices=["1", "2", "3"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
