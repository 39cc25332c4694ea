"""Command-line interface: gain design, budget certification, simulation
runs with trace export, and built-in benchmark reproduction.

Exit codes (stable contract):
    0  success / feasible
    2  invalid input, input beyond the float range, or solver failure
    3  infeasible bound query
    4  runtime failure during simulation
    5  golden-value mismatch in `reproduce`
  141  stdout closed before the report was written (as a shell reports a
       process ended by SIGPIPE); nothing more is written
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import pickle
import sys
import time
from dataclasses import replace

import numpy as np

from . import bounds, scenarios
from .bounds import InfeasibleError, SetMembershipError
from .design import DesignError, GainDesign, riccati_design, riccati_residual
from .graphs import build_algebra
from .sampling import ScheduleError
from .sim import run

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_RUNTIME = 4
EXIT_GOLDEN = 5
EXIT_CLOSED_STDOUT = 141

# Failures of a simulation run, reported with EXIT_RUNTIME.
RUN_ERRORS = (ScheduleError, RuntimeError, OverflowError)
# Trace rows or events per encoded block of an export file: one write each,
# and memory that stays flat in the length of the run.
EXPORT_BLOCK = 512


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
    doc = scenarios.load_document(args.file)
    model = scenarios.read(doc, "model", required=True)
    design = riccati_design(model, *scenarios.read(doc, "design", required=True))
    _emit({"P": design.P.tolist(), "K": design.K.tolist(),
           "mu": design.mu, "lambda": design.lam,
           "residual": riccati_residual(design, model)})
    return EXIT_OK


# -- bound ------------------------------------------------------------------

def _pipeline_inputs(doc, s=None):
    """(model, design, algebra) of the graph theorems. The design of the
    document's parsed scenario s is the one its Riccati equation gave, so
    the equation is not solved again."""
    lam, mu = scenarios.read(doc, "design", required=True)
    if s is not None:
        design = GainDesign(P=s.lyapunov_P, K=s.gain, mu=mu, lam=lam)
        return s.model, design, build_algebra(s.graph)
    model = scenarios.read(doc, "model", required=True)
    graph = scenarios.read(doc, "graph", required=True)
    return model, riccati_design(model, lam, mu), build_algebra(graph)


def _h_tau(doc):
    """(h, tau) of the document's schedules: the schedule section's h_max and
    tau_max, or else, over its explicit schedules, the largest delay and the
    longest span without a sample: the first instant, a gap between
    consecutive instants, or the span from the last instant to the
    document's horizon, which explicit schedules therefore require. None
    without either section."""
    schedule = scenarios.read(doc, "schedule")
    if schedule is not None:
        return schedule.h_max, schedule.tau_max
    explicit = scenarios.read(doc, "schedules")
    if explicit is None:
        return None
    horizon = scenarios.read(doc, "horizon", required=True)
    spans = (np.diff(sc.sample_instants, prepend=0.0, append=horizon) for sc in explicit)
    return (max(float(d.max(initial=0.0)) for d in spans),
            max(float(np.max(sc.delays, initial=0.0)) for sc in explicit))


def _integrator_gain(doc, s=None) -> float:
    """k = BK of theorem 3's single integrators, from the scenario s or else the
    document's gain or design section; 1.0 for a document without a model."""
    model = s.model if s is not None else scenarios.read(doc, "model")
    if model is None:
        return 1.0
    if model.N != 1 or model.A[0, 0] != 0.0:
        raise scenarios.ScenarioFormatError("theorem 3 needs single-integrator agents")
    K = s.gain if s is not None else scenarios.read(doc, "gain", shape=(model.M, model.N))
    if K is None:
        K = riccati_design(model, *scenarios.read(doc, "design", required=True)).K
    return float((model.B @ K)[0, 0])


def _theorem4(doc, s, h=None, tau=None, delta_e=None, **params):
    """Theorem 4's report. The keywords are the keys of the 'bound_params'
    section; h and tau default to the document's schedules (_h_tau), and
    delta_e to the bound on an additive error: 0 under no error, the
    additive model's delta_e or an event trigger's cap. Any other error
    model has no such bound, and bounds refuses a missing delta_e."""
    model, design, algebra = _pipeline_inputs(doc, s)
    h0, tau0 = _h_tau(doc) or (None, None)
    h = h0 if h is None else h
    tau = tau0 if tau is None else tau
    if h is None or tau is None:
        raise scenarios.ScenarioFormatError(
            "theorem 4 needs h and tau: give a schedule, explicit schedules "
            "or bound_params h and tau")
    em = scenarios.read(doc, "error_model")
    if delta_e is None:
        delta_e = {"none": 0.0, "additive": em.delta_e, "event_trigger": em.cap}.get(em.kind)
    x0 = scenarios.read(doc, "x0", shape=(algebra.graph.n, model.N))
    x0_sum = np.zeros(model.N) if x0 is None else x0.sum(axis=0)
    return bounds.theorem4_report(model, design, algebra, h, tau, delta_e, x0_sum,
                                  **params)


def _bound(doc, theorem, s=None) -> dict:
    """Report of one theorem or corollary on a document: the output of
    `bound`, the budget behind a `run` warning and the `reproduce` goldens.
    s is the document's parsed scenario, when there is one. bounds is read
    at call time, so its functions can be wrapped."""
    if theorem == "4":
        return _theorem4(doc, s, **(scenarios.read(doc, "bound_params") or {}))
    if theorem == "3":
        graph = scenarios.read(doc, "graph", required=True)
        report = bounds.theorem3_budget(build_algebra(graph), gain=_integrator_gain(doc, s))
    elif theorem == "2":
        # omega bounds a multiplicative error, and is 0 under any other model
        em = scenarios.read(doc, "error_model")
        omega = em.omega if em.kind == "multiplicative" else 0.0
        report = bounds.theorem2_budget(*_pipeline_inputs(doc, s), omega=omega)
    elif theorem == "c1":
        em = scenarios.read(doc, "error_model")
        if em.kind != "log_quantizer":
            raise scenarios.ScenarioFormatError(
                "corollary 1 needs an error_model section of kind log_quantizer")
        inputs = (_pipeline_inputs(doc, s) if scenarios.read(doc, "graph") is not None
                  else (scenarios.read(doc, "query", required=True),))
        report = bounds.corollary1_budget(*inputs, quant_level=em.quant_level)
    else:
        report = {"1": bounds.theorem1_budget, "c2": bounds.corollary2_budget,
                  "5": bounds.theorem5_budget}[theorem](scenarios.read(doc, "query",
                                                                       required=True))
    return report.to_dict()


def cmd_bound(args):
    report = _bound(scenarios.load_document(args.file), args.theorem)
    _emit(report)
    return EXIT_OK if report["feasible"] else EXIT_INFEASIBLE


# -- run --------------------------------------------------------------------

def _budget_warning(doc, s):
    """Best-effort comparison of the scenario's lag against a certified
    budget; returns a warning string or None."""
    lags = _h_tau(doc)
    if lags is None:
        return None
    lag = sum(lags) + s.input_delay
    if s.mode == "relative_edges" and scenarios.read(doc, "design") is not None:
        theorem = "c1" if s.error_model.kind == "log_quantizer" else "2"
    elif s.mode == "broadcast":
        theorem = "3"
    else:
        return None
    try:
        report = _bound(doc, theorem, s)
        budget = report["budget"] if report["feasible"] else None
    except InfeasibleError:     # the theorem certifies nothing for this design
        budget = None
    except ValueError:      # no theorem applies, as to non-integrator broadcasts
        return None
    if budget is None:
        return "budget exceeded: no lag is certified for this configuration"
    if lag > budget:
        return (f"budget exceeded: total lag {lag:.6g} is above the certified "
                f"budget {budget:.6g}")
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
    EXPORT_BLOCK events at a time. An event is (float time, int channel,
    plain ASCII kind), so %r, %d and quotes give json.dumps's text."""
    events = trace.events
    with open(path, "w") as f:
        f.write("[")
        for i in range(0, len(events), EXPORT_BLOCK):
            f.write((", " if i else "") + ", ".join(
                ['{"t": %r, "channel": %d, "kind": "%s"}' % e
                 for e in events[i:i + EXPORT_BLOCK]]))
        f.write("]\n")


def _export(trace, outputs):
    """Write one run's trace CSV and event log to the two paths."""
    csv_path, events_path = outputs
    write_trace_csv(trace, csv_path)
    write_event_log(trace, events_path)


def _fork_export(trace, outputs):
    """_export in a forked child, which sends any exception it raises back
    through a pipe and ends with os._exit, so the parent's stdio is never
    flushed and its atexit handlers never run there. Returns the writer,
    (pid, read end of the pipe), for _reap."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    code = 0
    try:
        os.close(r)
        _export(trace, outputs)
    except BaseException as exc:
        code = 1
        with open(w, "wb") as f:
            f.write(pickle.dumps(exc))
    finally:
        os._exit(code)


def _reap(writer):
    """Wait for a writer of _fork_export, if there is one, and raise the
    exception it sent back with its type and message."""
    if writer is None:
        return
    pid, r = writer
    try:
        with open(r, "rb") as f:
            sent = f.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    if sent:
        raise pickle.loads(sent)
    if status:
        raise OSError(f"the writer of a run's files ended with status "
                      f"{os.waitstatus_to_exitcode(status)}")


def _run_report(trace, runtime, warning, outputs):
    """One run's report entry; outputs are the paths of its files."""
    return {
        "seed": trace.scenario.seed,
        "consensus": trace.consensus_time is not None,
        "consensus_time": trace.consensus_time,
        "final_delta_sq": float(trace.delta_sq[-1]),
        "runtime_s": runtime,
        "warnings": [warning] if warning else [],
        "outputs": outputs,
    }


def cmd_run(args):
    doc = scenarios.load_document(args.file)
    s = scenarios.parse_scenario(doc)
    sweep = scenarios.read(doc, "sweep")
    if args.seed is not None:
        if sweep is not None:
            raise scenarios.ScenarioFormatError(
                "--seed does not combine with a sweep section, which names the seeds")
        s = replace(s, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    # Budgets do not depend on the seed: one verdict serves every run.
    warning = _budget_warning(doc, s)
    # A single run is a sweep of its own seed whose files carry no tag.
    seeds, tag = ([s.seed], "") if sweep is None else (sweep, "_seed{}")
    runs = []
    # Every seed's files but the last are written by a forked child while
    # the next seed simulates. At most one writer exists: it is reaped, and
    # its failure raised, before the next one forks, and in the finally,
    # so a writer's failure surfaces before any later seed's.
    error, writer = None, None
    try:
        for k, sd in enumerate(seeds):
            start = time.perf_counter()
            try:
                trace = run(replace(s, seed=sd))
            except RUN_ERRORS as exc:
                error = exc
                break
            outputs = [os.path.join(args.out, f"trace{tag.format(sd)}.csv"),
                       os.path.join(args.out, f"events{tag.format(sd)}.json")]
            runs.append(_run_report(trace, time.perf_counter() - start, warning, outputs))
            if k == len(seeds) - 1 or not hasattr(os, "fork"):
                _export(trace, outputs)
            else:
                previous, writer = writer, None
                _reap(previous)
                writer = _fork_export(trace, outputs)
            del trace  # free it before the next seed runs: a trace is large
    finally:
        _reap(writer)
    if error is not None:
        _emit({"error": str(error)})
        return EXIT_RUNTIME
    report = runs[0] if sweep is None else {"runs": runs}
    report_path = os.path.join(args.out, "report.json")
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
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    doc, goldens = scenarios.builtin_example(number, seed=args.seed or 0)
    s = scenarios.parse_scenario(doc)
    bound = _bound(doc, GOLDEN_THEOREM[number], s)
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
    try:
        trace = run(s)
    except RUN_ERRORS as exc:
        _emit({"example": number, "goldens": rows, "error": str(exc)})
        return EXIT_RUNTIME
    report = {"example": number, "goldens": rows,
              "consensus": trace.consensus_time is not None,
              "final_delta_sq": float(trace.delta_sq[-1])}
    if args.out:
        write_trace_csv(trace, os.path.join(args.out, f"example{number}.csv"))
        with open(os.path.join(args.out, f"example{number}_report.json"), "w") as f:
            _dump(report, f)
    _emit(report)
    return EXIT_OK if all_pass else EXIT_GOLDEN


# -- entry point ------------------------------------------------------------

@functools.cache
def build_parser():
    """The command-line parser, built once per process: parse_args leaves
    it unchanged, so every main call parses with the same one."""
    ap = argparse.ArgumentParser(
        prog="asynclab",
        description="Sampled-data multi-agent consensus: gain design, "
                    "certified sampling/delay budgets, exact simulation.")
    ap.add_argument("--seed", type=int, default=None,
                    help="override the scenario's random seed (run); the seed "
                         "of the built-in example (reproduce, default 0)")
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
    """Run one command; the one place that maps an input, infeasibility or
    closed-stdout error to its exit code."""
    args = build_parser().parse_args(argv)
    try:
        try:
            if args.seed is not None:
                scenarios.check_seed(args.seed, "--seed")
            code = args.func(args)
        except (InfeasibleError, SetMembershipError) as exc:
            _emit({"feasible": False, "error": str(exc)})
            code = EXIT_INFEASIBLE
        except BrokenPipeError:
            raise
        except (OSError, ValueError, KeyError, TypeError, DesignError) as exc:
            # JSON decode, scenario and schedule errors are ValueErrors
            _emit({"error": str(exc)})
            code = EXIT_INVALID
        except OverflowError as exc:
            _emit({"error": f"input out of floating-point range: {exc}"})
            code = EXIT_INVALID
        sys.stdout.flush()      # here, not at interpreter exit, where no handler runs
    except BrokenPipeError:
        # The reader closed stdout. Drop it, so that neither this process
        # nor the interpreter's flush at exit writes to the pipe again.
        sys.stdout = None
        return EXIT_CLOSED_STDOUT
    return code


if __name__ == "__main__":
    sys.exit(main())
