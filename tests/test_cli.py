import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from asynclab import bounds, cli
from asynclab.cli import EXPORT_BLOCK, build_parser, main, write_event_log, write_trace_csv
from asynclab.sampling import generate_schedule
from asynclab.scenarios import LAMBDA_2, ScenarioFormatError, builtin_example, parse_scenario
from asynclab.sim import ScenarioError, run

from test_sim import OVERFLOWING_EX2, _equivalence_scenario


@pytest.fixture
def ex_file(tmp_path):
    def write(n, **overrides):
        doc, _ = builtin_example(n)
        doc.update(overrides)
        path = tmp_path / f"ex{n}.json"
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_design_golden(ex_file, capsys):
    code, out = run_cli(capsys, "design", ex_file(1))
    assert code == 0
    report = json.loads(out)
    assert np.asarray(report["K"]).ravel() == pytest.approx(
        [0.5626, 1.0633], abs=1e-3)
    assert report["residual"] < 1e-10


def test_design_scalar_integrator(tmp_path, capsys):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps({
        "model": {"A": [[0.0]], "B": [[1.0]]},
        "design": {"lambda": 1.0, "mu": 1.0}}))
    code, out = run_cli(capsys, "design", str(path))
    assert code == 0
    assert json.loads(out)["K"] == [[pytest.approx(1.0)]]


def test_design_unstabilizable_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "model": {"A": [[1.0]], "B": [[0.0]]},
        "design": {"lambda": 1.0, "mu": 1.0}}))
    code, out = run_cli(capsys, "design", str(path))
    assert code == 2
    assert "error" in json.loads(out)


def test_bound_theorem3_golden(ex_file, capsys):
    code, out = run_cli(capsys, "bound", ex_file(2), "--theorem", "3")
    assert code == 0
    report = json.loads(out)
    assert report["budget"] == pytest.approx(0.0691, abs=1e-3)


def test_bound_corollary1_golden(ex_file, capsys):
    code, out = run_cli(capsys, "bound", ex_file(1), "--theorem", "c1")
    assert code == 0
    assert json.loads(out)["budget"] == pytest.approx(0.017, abs=2e-3)


def test_bound_theorem2(ex_file, capsys):
    code, out = run_cli(capsys, "bound", ex_file(1), "--theorem", "2")
    assert code == 0
    budget = json.loads(out)["budget"]
    _, c1 = run_cli(capsys, "bound", ex_file(1), "--theorem", "c1")
    assert math.isfinite(budget) and budget > json.loads(c1)["budget"]
    # omega comes only from a multiplicative model: an event trigger's
    # omega (0.09 in example 3) is no measurement error
    budgets = []
    for overrides in ({}, {"error_model": {"kind": "none"}}):
        code, out = run_cli(capsys, "bound", ex_file(3, **overrides), "--theorem", "2")
        assert code == 0
        budgets.append(json.loads(out)["budget"])
    assert budgets[0] == budgets[1]


def test_bound_theorem4_golden(ex_file, capsys):
    code, out = run_cli(capsys, "bound", ex_file(3), "--theorem", "4")
    assert code == 0
    report = json.loads(out)
    assert report["error_bound"] == pytest.approx(0.4535, abs=1e-2)
    assert report["delta_h"] == pytest.approx(0.2894, abs=1e-3)


def _drawn_schedules(number, stretch=1.0):
    """The schedules that the built-in example draws at seed 0, as an
    explicit schedules section, with the sample instants multiplied by
    stretch and the delays as drawn."""
    doc, _ = builtin_example(number)
    p = doc["schedule"]
    drawn = [generate_schedule(p["h_min"], p["h_max"], p["tau_max"], doc["horizon"], 0, ch)
             for ch in range(5)]
    return [{"channel_id": sc.channel_id, "delays": sc.delays.tolist(),
             "sample_instants": (stretch * sc.sample_instants).tolist()} for sc in drawn]


def test_bound_theorem4_reads_explicit_schedules(ex_file, capsys):
    # h and tau are the largest gap (0.025) and delay (0.0199992) of the
    # schedules, as the schedule section's h_max and tau_max would be.
    code, out = run_cli(capsys, "bound", ex_file(3, schedule=None,
                                                 schedules=_drawn_schedules(3)),
                        "--theorem", "4")
    assert code == 0
    assert json.loads(out)["error_bound"] == pytest.approx(0.4535, abs=1e-2)


def test_bound_theorem1_query_route(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({
        "query": {"mu": 1.0, "eps": 1.0, "omega": 0.01,
                  "sigma_G": 1.0, "sigma_K": 1.0}}))
    code, out = run_cli(capsys, "bound", str(path), "--theorem", "1")
    assert code == 0
    assert json.loads(out)["feasible"]


def _strict_loads(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_bound_unbounded_is_null_in_strict_json(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({
        "query": {"mu": 1.0, "eps": 1.0, "omega": 0.01, "lambda_As": -5.0,
                  "sigma_A": 1.0, "sigma_G": 1.0, "sigma_K": 1.0}}))
    for theorem in ("1", "5"):
        code, out = run_cli(capsys, "bound", str(path), "--theorem", theorem)
        assert code == 0
        report = _strict_loads(out)
        assert report["budget"] is None and report["unbounded"] is True
        assert report["feasible"] is True and math.isfinite(report["margin"])
    assert report["details"]["total_lag_budget"] is None


# A feasible theorem-4 query on example 1's oscillators: its A is not
# diagonal, so the norms come from a scan of its modal flow maps.
FEASIBLE_OSCILLATOR = {"h": 1e-4, "tau": 0.0, "delta_e": 0.0, "alpha": 0.5, "gamma": 40.0,
                       "eta": 3.0}


@pytest.mark.parametrize("command, example, expm_calls", [
    ("bound", 3, 0), ("reproduce", 3, 0), ("bound", 1, 1),
], ids=["bound", "reproduce", "non_diagonal_bound"])
def test_theorem4_norms_sampled_once(ex_file, capsys, monkeypatch, command, example,
                                     expm_calls):
    calls, expms = [], []
    sampled, exponential = bounds.max_expm_norms, bounds.expm

    def counted(*args, **kwargs):
        calls.append(args)
        return sampled(*args, **kwargs)

    def counted_expm(M, t=1.0):
        expms.append(np.shape(t))
        return exponential(M, t)
    monkeypatch.setattr(bounds, "max_expm_norms", counted)
    monkeypatch.setattr(bounds, "expm", counted_expm)
    if command == "bound":
        params = FEASIBLE_OSCILLATOR if example == 1 else None
        argv = ["bound", ex_file(example, bound_params=params), "--theorem", "4"]
    else:
        argv = ["reproduce", "--example", str(example)]
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(calls) == 1
    assert expms == [(bounds.NORM_SAMPLES,)] * expm_calls


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone: the named method raises."""

    def __init__(self, failing):
        super().__init__()
        self.failing, self.writes = failing, 0

    def write(self, text):
        self.writes += 1
        if self.failing == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("example, theorem", [(3, "4"), (1, "4"), (3, None)],
                         ids=["bound", "bound_infeasible", "reproduce"])
def test_closed_stdout_exits_141(ex_file, monkeypatch, failing, example, theorem):
    # write fails as an unbuffered stdout does, flush as a buffered one at
    # the end of the command; either way nothing more is written
    stdout = _ClosedStdout(failing)
    monkeypatch.setattr(sys, "stdout", stdout)
    argv = (["bound", ex_file(example), "--theorem", theorem] if theorem
            else ["reproduce", "--example", str(example)])
    assert main(argv) == cli.EXIT_CLOSED_STDOUT == 141
    assert sys.stdout is None
    if failing == "write":
        assert stdout.writes == 1
    else:   # the whole report was written before the flush failed
        written = stdout.getvalue()
        assert _strict_loads(written[written.index("{"):])


def test_theorem4_infeasible_samples_no_norms(ex_file, capsys, monkeypatch):
    # example 1's oscillators fail the decay and Gamma conditions at the
    # default parameters, which no e^{As} norm enters
    def fail(*args, **kwargs):
        raise AssertionError("norms sampled for an infeasible query")
    monkeypatch.setattr(bounds, "max_expm_norms", fail)
    code, out = run_cli(capsys, "bound", ex_file(1), "--theorem", "4")
    assert code == 3
    assert json.loads(out) == {
        "feasible": False,
        "error": "parameters outside feasibility set: mu - lambda_P/(2 eta) - "
                 "sigma/(2 gamma) > 0; Gamma(h, tau, alpha, beta, gamma, eta) > 0"}


def test_parser_is_built_once_and_keeps_no_state(ex_file, tmp_path, capsys, monkeypatch):
    assert build_parser() is build_parser()
    seeds = []
    simulate = cli.run

    def recorded(s):
        seeds.append(s.seed)
        return simulate(s)
    monkeypatch.setattr(cli, "run", recorded)
    assert run_cli(capsys, "--seed", "5", "run", ex_file(2, horizon=1.0),
                   "--out", str(tmp_path / "out"))[0] == 0
    assert run_cli(capsys, "reproduce", "--example", "3")[0] == 0
    assert seeds == [5, 0]


def test_bound_infeasible_exits_3(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({
        "query": {"mu": 1.0, "eps": 2.0, "omega": 0.9,
                  "sigma_G": 1.0, "sigma_K": 1.0}}))
    code, out = run_cli(capsys, "bound", str(path), "--theorem", "1")
    assert code == 3
    assert not json.loads(out)["feasible"]


def test_bound_invalid_input_exits_2(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"query": {"mu": 1.0}}))
    code, _ = run_cli(capsys, "bound", str(path), "--theorem", "1")
    assert code == 2


def test_run_writes_traces(ex_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out = run_cli(capsys, "run", ex_file(2, horizon=5.0),
                        "--out", str(out_dir))
    assert code == 0
    report = json.loads(out)
    assert not report["warnings"]
    with open(out_dir / "trace.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["t", "x_1_1", "x_2_1", "x_3_1", "x_4_1", "x_5_1",
                       "delta_sq"]
    assert float(rows[1][0]) == 0.0
    events = json.loads((out_dir / "events.json").read_text())
    assert {e["kind"] for e in events} >= {"sample", "deliver"}
    assert (out_dir / "report.json").exists()


def test_run_csv_has_v_column_in_edge_mode(ex_file, tmp_path, capsys):
    out_dir = tmp_path / "out1"
    code, _ = run_cli(capsys, "run", ex_file(1, horizon=1.0),
                      "--out", str(out_dir))
    assert code == 0
    with open(out_dir / "trace.csv") as f:
        header = next(csv.reader(f))
    assert header[-1] == "V"
    assert header[:2] == ["t", "x_1_1"]


def test_run_zero_horizon(ex_file, tmp_path, capsys):
    out_dir = tmp_path / "out0"
    code, out = run_cli(capsys, "run", ex_file(2, horizon=0.0),
                        "--out", str(out_dir))
    assert code == 0
    with open(out_dir / "trace.csv") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 2        # header plus the t = 0 snapshot


def test_run_oversized_h_warns(ex_file, tmp_path, capsys):
    # 10x the certified budget: the run completes with a warning.
    out_dir = tmp_path / "out_big"
    code, out = run_cli(capsys, "run",
                        ex_file(2, horizon=2.0,
                                schedule={"h_min": 0.3, "h_max": 0.7,
                                          "tau_max": 0.0}),
                        "--out", str(out_dir))
    assert code == 0
    report = json.loads(out)
    assert any("budget exceeded" in w for w in report["warnings"])


def test_run_gain_scales_the_theorem3_budget(ex_file, tmp_path, capsys):
    # Theorem 3 certifies unit gain; gain 5 divides its budget 0.0691 by 5,
    # below example 2's lag of 0.069.
    code, out = run_cli(capsys, "run", ex_file(2, horizon=1.0, gain=[[5.0]]),
                        "--out", str(tmp_path / "out_gain"))
    assert code == 0
    assert json.loads(out)["warnings"] == [
        "budget exceeded: total lag 0.069 is above the certified budget 0.0138227"]


@pytest.mark.parametrize("gain", [1.0, 2.0, 5.0, -1.0])
def test_bound_theorem3_and_run_agree_on_the_gain(ex_file, tmp_path, capsys, gain):
    # a lag of 0.15, above theorem 3's budget at each of these gains
    doc = ex_file(2, horizon=1.0, gain=[[gain]],
                  schedule={"h_min": 0.05, "h_max": 0.1, "tau_max": 0.05})
    code, out = run_cli(capsys, "bound", doc, "--theorem", "3")
    bound = _strict_loads(out)
    code_run, out_run = run_cli(capsys, "run", doc, "--out", str(tmp_path / "out"))
    assert code_run == 0
    if gain > 0:
        assert code == 0
        assert bound["budget"] == 0.06911362693885727 / gain
        assert _strict_loads(out_run)["warnings"] == [
            "budget exceeded: total lag 0.15 is above the certified budget "
            f"{bound['budget']:.6g}"]
    else:
        assert code == 3
        assert "gain" in bound["error"]
        assert _strict_loads(out_run)["warnings"] == [
            "budget exceeded: no lag is certified for this configuration"]


def test_broadcast_of_oscillators_has_no_theorem3_budget(ex_file, tmp_path, capsys):
    # theorem 3 certifies single integrators only: bound refuses the
    # document, and run, with no theorem to compare against, does not warn
    doc = ex_file(2, horizon=1.0, model={"A": [[0.0, 1.0], [-1.0, 0.0]], "B": [[0.0], [1.0]]},
                  gain=[[0.5, 1.0]], x0=[1.0, 0.0, -0.5, 0.2, 0.5, -0.3, -1.0, 0.1, 0.0, 0.4])
    code, out = run_cli(capsys, "bound", doc, "--theorem", "3")
    assert code == 2
    assert "single-integrator" in _strict_loads(out)["error"]
    code, out = run_cli(capsys, "run", doc, "--out", str(tmp_path / "out"))
    assert code == 0
    assert _strict_loads(out)["warnings"] == []


def test_run_warns_on_explicit_schedules_above_the_budget(ex_file, tmp_path, capsys):
    # example 3's own schedules with the sample instants 8 times as far
    # apart: a lag of 0.2 + 0.02, above theorem 3's budget
    doc = ex_file(3, horizon=1.0, schedule=None, schedules=_drawn_schedules(3, stretch=8.0))
    code, out = run_cli(capsys, "run", doc, "--out", str(tmp_path / "out_explicit"))
    assert code == 0
    assert json.loads(out)["warnings"] == [
        "budget exceeded: total lag 0.219999 is above the certified budget 0.0691136"]


def _every_channel_samples_at(instants):
    return [{"channel_id": ch, "sample_instants": instants, "delays": [0.0] * len(instants)}
            for ch in range(5)]


# Example 3 over 5 s with every channel sampling only in its first 0.06 s:
# the span from the last sample to the horizon, 4.94 s, is its h.
STOPPED = {"horizon": 5.0, "schedule": None,
           "schedules": _every_channel_samples_at([0.01, 0.035, 0.06])}


def test_bound_theorem4_measures_a_stopped_schedule(ex_file, capsys):
    code, out = run_cli(capsys, "bound", ex_file(3, **STOPPED), "--theorem", "4")
    assert code == 3
    assert "Gamma" in json.loads(out)["error"]
    # without a horizon the last span has no end: refused, not certified
    code, out = run_cli(capsys, "bound", ex_file(3, **{**STOPPED, "horizon": None}),
                        "--theorem", "4")
    assert code == 2
    assert "horizon" in json.loads(out)["error"]


def test_run_warns_on_a_stopped_schedule(ex_file, tmp_path, capsys):
    code, out = run_cli(capsys, "run", ex_file(3, **STOPPED), "--out", str(tmp_path / "out"))
    assert code == 0
    assert json.loads(out)["warnings"] == [
        "budget exceeded: total lag 4.94 is above the certified budget 0.0691136"]


def test_explicit_schedule_end_spans_within_its_largest_gap(ex_file, tmp_path, capsys):
    # first instant 0.05 and last span 0.05 (to the horizon 0.25), both
    # below the largest gap 0.08: h is that gap, as before the end spans
    # were counted
    doc = ex_file(2, horizon=0.25, schedule=None,
                  schedules=_every_channel_samples_at([0.05, 0.13, 0.2]))
    code, out = run_cli(capsys, "run", doc, "--out", str(tmp_path / "out"))
    assert code == 0
    assert json.loads(out)["warnings"] == [
        "budget exceeded: total lag 0.08 is above the certified budget 0.0691136"]


def test_run_warns_when_no_theorem_certifies_the_design(ex_file, tmp_path, capsys):
    # design lambda 2 lambda_2 fails theorem 2's Lyapunov inequality family
    # (bound --theorem 2 exits 3), so no lag is certified
    doc = ex_file(1, horizon=1.0, design={"lambda": 2.0 * LAMBDA_2, "mu": 1.0})
    assert run_cli(capsys, "bound", doc, "--theorem", "2")[0] == 3
    code, out = run_cli(capsys, "run", doc, "--out", str(tmp_path / "out_design"))
    assert code == 0
    assert json.loads(out)["warnings"] == [
        "budget exceeded: no lag is certified for this configuration"]


def test_run_warns_on_a_one_agent_graph(ex_file, tmp_path, capsys):
    # theorem 3 certifies nothing for a single agent (bound exits 3)
    doc = ex_file(2, horizon=1.0, **ONE_AGENT)
    assert run_cli(capsys, "bound", doc, "--theorem", "3")[0] == 3
    code, out = run_cli(capsys, "run", doc, "--out", str(tmp_path / "out_one"))
    assert code == 0
    assert json.loads(out)["warnings"] == [
        "budget exceeded: no lag is certified for this configuration"]


@pytest.mark.parametrize("overrides", [{}, {"consensus_tol": 0.1}],
                         ids=["no_consensus", "consensus"])
def test_run_report_is_read_off_its_trace(ex_file, tmp_path, capsys, overrides):
    doc = ex_file(2, horizon=2.0, seed=1, **overrides)
    code, out = run_cli(capsys, "run", doc, "--out", str(tmp_path / "out"))
    assert code == 0
    report = json.loads(out)
    with open(doc) as f:
        trace = run(parse_scenario(json.load(f)))
    assert report["final_delta_sq"] == float(trace.delta_sq[-1])
    assert report["consensus_time"] == trace.consensus_time
    assert report["consensus"] == (trace.consensus_time is not None)
    assert (trace.consensus_time is None) == (overrides == {})
    with open(tmp_path / "out" / "trace.csv") as f:
        last = list(csv.reader(f))[-1]
    assert float(last[-1]) == report["final_delta_sq"]


def test_run_schema_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mode": "broadcast"}))
    code, _ = run_cli(capsys, "run", str(path), "--out", str(tmp_path / "o"))
    assert code == 2


def _assert_run_exits_2(doc, tmp_path, capsys):
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(doc)
    assert isinstance(info.value.__cause__, ScenarioError)
    # json writes and reads NaN and Infinity literals, so the file parses.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "run", str(path), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("example, overrides", [
    (3, {"startup": "first_sample"}),
    (1, {"error_model": {"kind": "event_trigger", "omega": 0.09, "dwell": 0.005}}),
    (3, {"error_model": {"kind": "event_trigger", "omega": 0.09, "dwell": 0.03,
                         "cap": 0.08}}),
    (2, {"mode": "abstract_coupled", "coupling": [[1.0, -1.0], [-1.0, 1.0]],
         "x0": [1.0, -1.0], "input_delay": 0.01,
         "error_model": {"kind": "event_trigger", "omega": 0.05, "dwell": 0.02}}),
], ids=["first_sample_with_trigger", "trigger_on_relative_edges", "dwell_above_h_min",
        "abstract_trigger_with_delay"])
def test_run_bad_scenario_exits_2(tmp_path, capsys, example, overrides):
    doc, _ = builtin_example(example)
    doc.update(overrides)
    _assert_run_exits_2(doc, tmp_path, capsys)


@pytest.mark.parametrize("example, schedules", [
    (2, None),
    (3, None),
    (2, [{"channel_id": 0, "sample_instants": [0.1], "delays": [0.0]}]),
], ids=["no_schedule", "triggered_broadcast_no_schedule", "one_of_5_schedules"])
def test_run_missing_or_miscounted_schedules_exit_2(tmp_path, capsys, example, schedules):
    # Example 3 is the event-triggered broadcast.
    doc, _ = builtin_example(example)
    del doc["schedule"]
    if schedules is not None:
        doc["schedules"] = schedules
    _assert_run_exits_2(doc, tmp_path, capsys)


@pytest.mark.parametrize("sweep", [
    {"seeds": ["abc"]}, [1, 2], {"seeds": [1.5]}, {"seeds": [True]}, {"seeds": []},
], ids=["string_seed", "not_an_object", "float_seed", "bool_seed", "no_seeds"])
def test_run_malformed_sweep_exits_2(ex_file, tmp_path, capsys, sweep):
    out_dir = tmp_path / "o"
    code, out = run_cli(capsys, "run", ex_file(2, horizon=1.0, sweep=sweep),
                        "--out", str(out_dir))
    assert code == 2
    assert "sweep" in json.loads(out)["error"]
    assert not out_dir.exists()


def test_null_sweep_is_absent(ex_file, tmp_path, capsys):
    code, out = run_cli(capsys, "run", ex_file(2, horizon=1.0, sweep=None),
                        "--out", str(tmp_path / "o"))
    assert code == 0
    assert "runs" not in json.loads(out) and (tmp_path / "o" / "trace.csv").exists()


def _doc(example, **overrides):
    doc, _ = builtin_example(example)
    doc.update({"horizon": 1.0, **overrides})
    return doc


def _without_schedule(doc, **overrides):
    del doc["schedule"]
    doc.update(overrides)
    return doc


TWO_UNITS = {"mode": "abstract_coupled", "coupling": [[1.0, -1.0], [-1.0, 1.0]],
             "x0": [1.0, -1.0]}
TRIGGER = {"kind": "event_trigger", "omega": 0.05, "dwell": 0.02}
ONE_AGENT = {"graph": {"path": 1}, "x0": [1.0]}


NO_B = {"A": [[0.0, 1.0], [-1.0, 0.0]]}


# Inputs that ended in a traceback, ran with a silently wrong reading or
# failed without naming their section; each error names what it quotes.
@pytest.mark.parametrize("command, doc, code, names", [
    ("run", _doc(1, design={"lambda": -1.0, "mu": 1.0}), 2, "design"),
    ("run", _without_schedule(_doc(2), schedules=[
        {"channel_id": ch, "sample_instants": [0.1]} for ch in range(5)]), 2, "schedules"),
    ("run", _doc(2, schedules=[{"channel_id": ch, "sample_instants": [0.1], "delays": [0.0]}
                               for ch in range(5)]), 2, "schedule"),
    ("run", _doc(2, seed=[1]), 2, "seed"),
    ("run", _doc(2, graph={"cycle": [5]}), 2, "graph"),
    ("run", _doc(2, error_model=[1]), 2, "error_model"),
    ("run", _doc(2, sweep={"seeds": [1, 1]}), 2, "sweep"),
    ("run", _doc(2, **{**TWO_UNITS, "mode": "saturated"}), 2, "mode"),
    ("run", _doc(2, **TWO_UNITS, saturation=-1.0), 2, "saturation"),
    ("run", _doc(2, saturation=1.0), 2, "saturation"),
    ("run", _doc(2, **{**TWO_UNITS, "mode": "event_triggered"}, error_model=TRIGGER), 2,
     "mode"),
    ("run", _doc(2, **TWO_UNITS, saturation={"rho_s": 1.0}), 2, "saturation"),
    ("run", _doc(2, **TWO_UNITS, saturation=1.0, error_model=TRIGGER), 2, "saturation"),
    ("run into a file", _doc(2), 2, "File exists"),
    ("reproduce into a file", None, 2, "File exists"),
    ("bound 1", {"query": {"mu": 1, "eps": 1, "omega": 0.01, "sigmaA": 5,
                           "sigma_G": 1, "sigma_K": 1}}, 2, "query"),
    ("bound 4", _doc(3, bound_params={"alhpa": 0.4}), 2, "bound_params"),
    ("bound 2", _doc(1, error_model=[1]), 2, "error_model"),
    ("run", _doc(2, seed=1.5), 2, "seed"),
    ("run", _doc(2, seed=True), 2, "seed"),
    ("run", _doc(2, snapshot_points=10.7), 2, "snapshot_points"),
    ("run", _doc(2, stop_at_consensus="false"), 2, "stop_at_consensus"),
    ("run", _doc(2, graph={"cycle": 5.9}), 2, "graph"),
    ("run", _doc(2, horizon="1.0"), 2, "horizon"),
    ("bound 2", _doc(1, omega=0.01), 2, "omega"),
    ("bound c1", {"query": {"mu": 1, "eps": 1, "omega": 0.01, "sigma_G": 1, "sigma_K": 1},
                  "quant_level": 1.1}, 2, "quant_level"),
    ("run", _doc(2, input_dealy=0.3), 2, "input_dealy"),
    ("bound 2", _doc(1, model=NO_B), 2, "model"),
    ("design", _doc(1, model=NO_B), 2, "model"),
    ("bound 4", _doc(3, x0=[1.5, -0.8, 0.6, -1.2]), 2, "x0"),
    ("run", _doc(3, error_model={"kind": "event_trigger", "omega": 0.09, "dwell": 0.025,
                                 "cpa": 0.08}), 2, "error_model"),
    ("run", _doc(2, graph={"cycle": 5, "path": 3}), 2, "graph"),
    ("run", _doc(2, sweep={"seeds": [1, 2], "seed": 3}), 2, "sweep"),
    ("design", _doc(1, design={"lambda": 1.0, "mu": 1.0, "nu": 1.0}), 2, "design"),
    ("run", _doc(2, x0=[0.1, math.nan, 0.3, 0.4, 0.5]), 2, "x0"),
    ("run", _doc(2, horizon=math.inf), 2, "horizon"),
    ("run", _doc(2, horizon=math.nan), 2, "horizon"),
    ("run", _doc(2, error_model={"kind": "multiplicative", "omega": math.nan}), 2,
     "error_model"),
    ("run", _doc(3, error_model={"kind": "event_trigger", "omega": 0.09, "dwell": 0.025,
                                 "cap": math.nan}), 2, "error_model"),
    ("run", _doc(2, input_delay=math.nan), 2, "input_delay"),
    ("run", _doc(2, consensus_tol=math.nan), 2, "consensus_tol"),
    ("run", _doc(2, horizon=10 ** 400), 2, "horizon"),
    ("run", _doc(2, x0=[10 ** 400, 0, 0, 0, 0]), 2, "x0"),
    ("bound 1", {"query": {"mu": 1, "eps": 1, "sigma_A": -math.inf}}, 2, "query"),
    ("run", _doc(2, error_model={"kind": "additive", "delta_e": -0.1}), 2, "error_model"),
    ("run", _doc(2, schedule={"h_min": 0.05, "h_max": 0.02, "tau_max": 0.0}), 2, "schedule"),
    ("run", _doc(2, schedule={"h_min": 0.02, "h_max": 0.05, "tau_max": 0.03}), 2,
     "schedule"),
    ("run", _doc(2, schedule={"h_min": -0.02, "h_max": 0.05, "tau_max": 0.0}), 2,
     "schedule"),
    ("run", _doc(2, snapshot_points=-5), 2, "snapshot_points"),
    ("run", _doc(2, snapshot_points=0), 2, "snapshot_points"),
    ("run", _doc(2, consensus_tol=-1.0), 2, "consensus_tol"),
    ("run", _doc(2, consensus_tol=0.0), 2, "consensus_tol"),
    ("bound 4", _doc(3, bound_params={"delta_e": -0.5}), 2, "bound_params"),
    ("bound 4", _doc(3, bound_params={"tau": -0.02}), 2, "bound_params"),
    ("bound 4", _doc(3, bound_params={"h": -0.5}), 2, "bound_params"),
    ("bound 4", _doc(3, bound_params={"alpha": -1}), 2, "bound_params"),
    ("bound 4", _doc(3, bound_params={"gamma": 0}), 2, "bound_params"),
    ("bound 4", _doc(3, bound_params={"eta": 0}), 2, "bound_params"),
    ("bound 4", _doc(3, bound_params={"theta": 0.5}), 2, "bound_params"),
    ("bound 4", _doc(3, bound_params={"theta": 1}), 2, "bound_params"),
    # explicit schedules violating Assumption 1 are bad input, not a failed run
    ("run", _without_schedule(_doc(2), schedules=[
        {"channel_id": ch, "sample_instants": [0.1, 0.1], "delays": [0.0, 0.0]}
        for ch in range(5)]), 2, "schedules"),
    ("run", _without_schedule(_doc(2), schedules=[
        {"channel_id": ch, "sample_instants": [0.1, 0.2], "delays": [0.15, 0.0]}
        for ch in range(5)]), 2, "schedules"),
    # seeds that differ by a multiple of 2**64 would give the same run
    ("run", _doc(2, seed=-1), 2, "seed"),
    ("run", _doc(2, seed=2**64), 2, "seed"),
    ("run", _doc(2, sweep={"seeds": [5, 5 + 2**64]}), 2, "sweep"),
    ("run", _doc(2, sweep={"seeds": [-1, 2**64 - 1]}), 2, "sweep"),
    ("run --seed=-1", _doc(2), 2, "--seed"),
    ("run --seed=18446744073709551616", _doc(2), 2, "--seed"),
    ("reproduce --seed=-1", None, 2, "--seed"),
    # explicit schedules: instants from t = 0 on, channel_id at its position,
    # and no gap of a triggered broadcast below the dwell time
    ("run", _without_schedule(_doc(2), schedules=[
        {"channel_id": ch, "sample_instants": [-0.5, 0.1, 0.2, 0.3], "delays": [0.0] * 4}
        for ch in range(5)]), 2, "schedules"),
    ("run", _without_schedule(_doc(2), schedules=[
        {"channel_id": 4 - ch, "sample_instants": [0.1, 0.2], "delays": [0.0] * 2}
        for ch in range(5)]), 2, "schedules"),
    ("run", _without_schedule(_doc(2), schedules=[
        {"channel_id": 0, "sample_instants": [0.1, 0.2], "delays": [0.0] * 2}
        for ch in range(5)]), 2, "schedules"),
    ("run", _without_schedule(_doc(3), schedules=[
        {"channel_id": ch, "sample_instants": [0.005 * k for k in range(200)],
         "delays": [0.0] * 200} for ch in range(5)]), 2, "schedules"),
    # lyapunov_P is N x N, and a design section gives it
    ("run", _doc(1, design=None, gain=[[0.5626, 1.0633]], lyapunov_P=[[1.0, 0.0, 0.0]]), 2,
     "lyapunov_P"),
    ("run", _doc(1, lyapunov_P=[[1.0, 0.0], [0.0, 1.0]]), 2, "lyapunov_P"),
    # theorem 4 takes h and tau from a schedule of either kind, or from
    # bound_params, and delta_e bounds an additive error only
    ("bound 4", _doc(3, schedule=None), 2, "bound_params"),
    ("bound 4", _without_schedule(_doc(3), schedules=[
        {"channel_id": ch, "sample_instants": [0.1, 0.1], "delays": [0.0, 0.0]}
        for ch in range(5)]), 2, "schedules"),
    ("bound 4", _doc(3, error_model={"kind": "multiplicative", "omega": 0.5}), 2,
     "bound_params delta_e"),
    ("bound 4", _doc(3, error_model={"kind": "log_quantizer", "level": 2.0}), 2,
     "bound_params delta_e"),
    ("bound 4", _doc(3, error_model={"kind": "event_trigger", "omega": 0.09, "dwell": 0.025}),
     2, "bound_params delta_e"),
    # a continuously monitored trigger takes no schedule of either kind
    ("run", _doc(2, **TWO_UNITS, error_model=TRIGGER), 2, "schedule"),
    ("run", _without_schedule(_doc(2), **TWO_UNITS, error_model=TRIGGER, schedules=[
        {"channel_id": ch, "sample_instants": [0.1, 0.2], "delays": [0.0] * 2}
        for ch in range(2)]), 2, "schedule"),
    # theorem 3 needs a second agent to have a lambda_2; past the float
    # range, theorem 1's witness overflows
    ("bound 3", _doc(2, **ONE_AGENT), 3, "two agents"),
    ("bound 1", {"query": {"mu": 1, "eps": 1e300, "sigma_A": 1e200}}, 2,
     "floating-point range"),
    # theorem 3 certifies single integrators only; a negative singular value
    # is bad input, not an unbounded budget; a sweep names its own seeds
    ("bound 3", _doc(1), 2, "single-integrator"),
    ("bound 3", _doc(2, gain=[[1e-310]]), 2, "beyond the float range"),
    ("bound 1", {"query": {"mu": 1, "eps": 1, "omega": 0.01, "sigma_A": -5,
                           "sigma_G": 1, "sigma_K": 1}}, 2, "bad query section"),
    ("run --seed=7", _doc(2, sweep={"seeds": [1, 2]}), 2, "--seed does not combine with a sweep"),
], ids=["negative_design_lambda", "schedule_without_delays", "schedule_and_schedules",
        "seed_not_an_integer", "cycle_size_not_an_integer", "error_model_not_an_object",
        "repeated_sweep_seed",
        "saturated_without_saturation", "negative_saturation", "saturation_outside_saturated",
        "event_triggered_mode", "saturation_object", "saturation_with_trigger",
        "run_out_names_a_file", "reproduce_out_names_a_file", "query_key_typo",
        "bound_params_key_typo", "bound_error_model_not_an_object",
        "float_seed", "bool_seed", "float_snapshot_points", "string_stop_at_consensus",
        "float_cycle_size", "string_horizon", "top_level_omega", "top_level_quant_level",
        "unknown_section", "bound_model_without_B", "design_model_without_B",
        "theorem4_x0_of_wrong_length", "error_model_key_typo", "two_graph_shapes",
        "sweep_unknown_key", "design_unknown_key", "nan_x0", "inf_horizon", "nan_horizon",
        "nan_omega", "nan_cap", "nan_input_delay", "nan_consensus_tol", "integer_too_large",
        "integer_too_large_in_array", "infinite_query_value",
        "negative_delta_e", "h_min_above_h_max", "tau_max_above_h_min", "negative_h_min",
        "negative_snapshot_points", "zero_snapshot_points", "negative_consensus_tol",
        "zero_consensus_tol", "negative_bound_delta_e", "negative_bound_tau",
        "negative_bound_h", "negative_bound_alpha", "zero_bound_gamma", "zero_bound_eta",
        "bound_theta_below_1", "bound_theta_1", "schedule_instants_not_increasing",
        "schedule_delay_not_below_gap", "negative_seed", "seed_of_2_to_the_64",
        "sweep_seed_past_64_bits", "negative_sweep_seed", "negative_seed_flag",
        "seed_flag_of_2_to_the_64", "negative_reproduce_seed_flag",
        "schedule_instant_before_0", "schedules_relabelled", "schedules_all_channel_0",
        "triggered_schedule_gap_below_dwell", "lyapunov_P_not_square",
        "lyapunov_P_with_design", "theorem4_without_schedule", "theorem4_bad_schedules",
        "theorem4_multiplicative_error", "theorem4_log_quantizer", "theorem4_uncapped_trigger",
        "monitored_trigger_with_schedule", "monitored_trigger_with_schedules",
        "theorem3_one_agent", "theorem1_overflow", "theorem3_oscillators",
        "theorem3_subnormal_gain", "negative_sigma_A", "seed_flag_with_sweep"])
def test_exit_codes(tmp_path, capsys, command, doc, code, names):
    path, out_dir = tmp_path / "doc.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    if command.endswith("into a file"):
        out_dir.write_text("")
    if command.startswith("run"):
        argv = ["run", str(path), "--out", str(out_dir)]
    elif command.startswith("reproduce"):
        argv = ["reproduce", "--example", "2", "--out", str(out_dir)]
    elif command == "design":
        argv = ["design", str(path)]
    else:
        argv = ["bound", str(path), "--theorem", command.split()[1]]
    flags = [word for word in command.split() if word.startswith("--")]
    got, out = run_cli(capsys, *flags, *argv)
    assert got == code
    assert names in _strict_loads(out)["error"]
    if command.split()[0] in ("run", "reproduce") and "into a file" not in command:
        assert not out_dir.exists()


@pytest.mark.parametrize("flags, seed", [([], 2), (["--seed", "7"], 7), (["--seed", "0"], 0)],
                         ids=["scenario_seed", "override", "override_with_0"])
def test_run_seed_flag(ex_file, tmp_path, capsys, flags, seed):
    code, out = run_cli(capsys, *flags, "run", ex_file(2, horizon=1.0, seed=2),
                        "--out", str(tmp_path / "flag"))
    assert code == 0
    assert json.loads(out)["seed"] == seed
    # the run used that seed: its trace is the one of a scenario that names it
    run_cli(capsys, "run", ex_file(2, horizon=1.0, seed=seed), "--out", str(tmp_path / "doc"))
    assert ((tmp_path / "flag" / "trace.csv").read_bytes()
            == (tmp_path / "doc" / "trace.csv").read_bytes())


def test_reproduce_seed_defaults_to_0(capsys, monkeypatch):
    from asynclab import scenarios
    seeds = []
    example = scenarios.builtin_example

    def short(number, seed):
        seeds.append(seed)
        doc, goldens = example(number, seed=seed)
        return dict(doc, horizon=1.0), goldens
    monkeypatch.setattr(scenarios, "builtin_example", short)
    assert run_cli(capsys, "reproduce", "--example", "2")[0] == 0
    assert run_cli(capsys, "--seed", "5", "reproduce", "--example", "2")[0] == 0
    assert seeds == [0, 5]


def test_reproduce_examples_pass(capsys, ex_file, monkeypatch):
    for n in ("2", "3"):
        code, out = run_cli(capsys, "reproduce", "--example", n)
        assert code == 0
        report = _strict_loads(out)       # the whole stdout is one JSON object
        assert report["goldens"] and all(row["pass"] for row in report["goldens"])


def test_reproduce_writes_its_outputs(tmp_path, capsys):
    code, out = run_cli(capsys, "reproduce", "--example", "2", "--out", str(tmp_path))
    assert code == 0
    report = _strict_loads(out)
    assert json.loads((tmp_path / "example2_report.json").read_text()) == report
    with open(tmp_path / "example2.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "t" and float(rows[-1][0]) == 30.0


def test_reproduce_bad_example(capsys):
    with pytest.raises(SystemExit):
        main(["reproduce", "--example", "9"])


def test_sweep_matches_single_runs(ex_file, tmp_path, capsys):
    code, out = run_cli(capsys, "run", ex_file(2, horizon=3.0, sweep={"seeds": [1, 2, 3]}),
                        "--out", str(tmp_path / "sweep"))
    assert code == 0
    assert [r["seed"] for r in json.loads(out)["runs"]] == [1, 2, 3]
    runs = json.loads((tmp_path / "sweep" / "report.json").read_text())["runs"]
    assert [r["seed"] for r in runs] == [1, 2, 3]
    single = ex_file(2, horizon=3.0)
    for swept in runs:
        seed = swept["seed"]
        one_dir = tmp_path / f"single{seed}"
        code, _ = run_cli(capsys, "--seed", str(seed), "run", single, "--out", str(one_dir))
        assert code == 0
        for tagged, plain in ((f"trace_seed{seed}.csv", "trace.csv"),
                              (f"events_seed{seed}.json", "events.json")):
            assert (tmp_path / "sweep" / tagged).read_bytes() == (one_dir / plain).read_bytes()
        one = json.loads((one_dir / "report.json").read_text())
        for report in (swept, one):
            del report["runtime_s"], report["outputs"]
        assert swept == one


# -- sweep writers ---------------------------------------------------------------
# Every seed's files but the last are written by a forked child while the
# next seed simulates; files, report and exit codes are those of writing
# them in the parent.

def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _sweep_files(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.name != "report.json"}


def _fail_at_seed(monkeypatch, seed, exc):
    """Make the simulation of `seed` raise exc; the other seeds run."""
    inner = cli.run

    def failing(s):
        if s.seed == seed:
            raise exc
        return inner(s)
    monkeypatch.setattr(cli, "run", failing)


def test_sweep_forks_one_writer_at_a_time(ex_file, tmp_path, capsys, monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        _no_child_left()        # the writer before has been reaped
        forks.append(1)
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    sweep = ex_file(2, horizon=1.0, sweep={"seeds": [1, 2, 3, 4]})
    assert run_cli(capsys, "run", sweep, "--out", str(tmp_path / "sweep"))[0] == 0
    assert len(forks) == 3      # the last seed is written in the parent
    _no_child_left()
    # a single run never forks
    assert run_cli(capsys, "run", ex_file(2, horizon=1.0), "--out", str(tmp_path / "one"))[0] == 0
    assert len(forks) == 3


def test_sweep_without_fork_writes_the_same_bytes(ex_file, tmp_path, capsys, monkeypatch):
    sweep = ex_file(2, horizon=3.0, sweep={"seeds": [1, 2, 3]})
    assert run_cli(capsys, "run", sweep, "--out", str(tmp_path / "forked"))[0] == 0
    monkeypatch.delattr(os, "fork")
    assert run_cli(capsys, "run", sweep, "--out", str(tmp_path / "inline"))[0] == 0
    forked, inline = _sweep_files(tmp_path / "forked"), _sweep_files(tmp_path / "inline")
    assert len(forked) == 6 and forked == inline


@pytest.mark.parametrize("second_seed_diverges", [False, True])
def test_sweep_writer_failure_exits_2(ex_file, tmp_path, capsys, monkeypatch,
                                      second_seed_diverges):
    # seed 1's CSV path is a directory, so its writer fails; the failure is
    # reported as the parent reports it, before any later seed's
    out_dir = tmp_path / "sweep"
    (out_dir / "trace_seed1.csv").mkdir(parents=True)
    with pytest.raises(OSError) as in_parent:
        open(str(out_dir / "trace_seed1.csv"), "w")
    if second_seed_diverges:
        _fail_at_seed(monkeypatch, 2, RuntimeError("state diverged"))
    code, out = run_cli(capsys, "run", ex_file(2, horizon=1.0, sweep={"seeds": [1, 2, 3]}),
                        "--out", str(out_dir))
    assert code == 2
    assert json.loads(out) == {"error": str(in_parent.value)}
    assert sorted(p.name for p in out_dir.iterdir()) == ["trace_seed1.csv"]
    _no_child_left()


def test_sweep_divergence_after_a_written_seed_exits_4(ex_file, tmp_path, capsys,
                                                       monkeypatch):
    single = ex_file(2, horizon=3.0)
    assert run_cli(capsys, "--seed", "1", "run", single, "--out", str(tmp_path / "one"))[0] == 0
    _fail_at_seed(monkeypatch, 2, RuntimeError("state diverged at t = 1"))
    out_dir = tmp_path / "sweep"
    code, out = run_cli(capsys, "run", ex_file(2, horizon=3.0, sweep={"seeds": [1, 2, 3]}),
                        "--out", str(out_dir))
    assert code == 4
    assert json.loads(out) == {"error": "state diverged at t = 1"}
    assert _sweep_files(out_dir) == {
        "events_seed1.json": (tmp_path / "one" / "events.json").read_bytes(),
        "trace_seed1.csv": (tmp_path / "one" / "trace.csv").read_bytes()}
    _no_child_left()


def test_sweep_interrupt_reaps_the_writer(ex_file, tmp_path, capsys, monkeypatch):
    _fail_at_seed(monkeypatch, 2, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        main(["run", ex_file(2, horizon=1.0, sweep={"seeds": [1, 2]}),
              "--out", str(tmp_path / "sweep")])
    _no_child_left()
    assert len(_sweep_files(tmp_path / "sweep")) == 2


def test_sweep_writer_leaves_the_parents_stdio_alone(ex_file, tmp_path):
    # text still buffered in the parent's stdout when a writer forks, and an
    # atexit handler, show once: the child ends without flushing or handlers
    child = ("import atexit, sys\n"
             "from asynclab.cli import main\n"
             "atexit.register(print, 'at exit')\n"
             "sys.stdout.write('buffered ')\n"
             "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    done = subprocess.run(
        [sys.executable, "-c", child, "run",
         ex_file(2, horizon=1.0, sweep={"seeds": [1, 2, 3]}), "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("buffered ") == 1 and done.stdout.count("at exit") == 1
    assert len(json.loads(done.stdout[len("buffered "):-len("at exit\n")])["runs"]) == 3


def _count_calls(monkeypatch, *targets):
    """Counts of the calls to module.name per name, over all (module, name)
    targets; a function bound in two modules is counted under one name."""
    calls = {name: 0 for _, name in targets}
    for module, name in targets:
        def counted(*args, _name=name, _inner=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_certifies_the_budget_once(ex_file, tmp_path, capsys, monkeypatch):
    from asynclab import cli, scenarios
    calls = _count_calls(monkeypatch, (cli, "riccati_design"), (scenarios, "riccati_design"),
                         (cli, "_bound"))
    code, out = run_cli(capsys, "run", ex_file(1, horizon=0.5, sweep={"seeds": [1, 2, 3, 4]}),
                        "--out", str(tmp_path / "sweep"))
    assert code == 0
    assert len(json.loads(out)["runs"]) == 4
    assert calls == {"riccati_design": 1, "_bound": 1}


@pytest.mark.parametrize("command", ["run", "reproduce1", "reproduce3"])
def test_one_riccati_solve_per_document(ex_file, tmp_path, capsys, monkeypatch, command):
    from asynclab import cli, scenarios
    example = scenarios.builtin_example

    def short(number, seed):
        doc, goldens = example(number, seed=seed)
        return dict(doc, horizon=0.5), goldens
    monkeypatch.setattr(scenarios, "builtin_example", short)
    calls = _count_calls(monkeypatch, (cli, "riccati_design"), (scenarios, "riccati_design"))
    argv = (["run", ex_file(1, horizon=0.5), "--out", str(tmp_path / "o")] if command == "run"
            else ["reproduce", "--example", command[-1]])
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == {"riccati_design": 1}


def test_run_divergence_exits_4_without_trace(ex_file, tmp_path, capsys):
    out_dir = tmp_path / "diverged"
    code, out = run_cli(capsys, "run", ex_file(2, gain=[[200.0]], horizon=8.0),
                        "--out", str(out_dir))
    assert code == 4
    assert "diverged" in json.loads(out)["error"]
    assert not (out_dir / "trace.csv").exists()


def test_run_flow_map_overflow_exits_4_without_trace(ex_file, tmp_path, capsys):
    out_dir = tmp_path / "diverged"
    code, out = run_cli(capsys, "run", ex_file(2, **OVERFLOWING_EX2), "--out", str(out_dir))
    assert code == 4
    assert json.loads(out)["error"].startswith("simulation diverged at t = ")
    assert not (out_dir / "trace.csv").exists()


def test_reproduce_divergence_exits_4_without_trace(tmp_path, capsys, monkeypatch):
    from asynclab import scenarios
    example2 = scenarios.example2_doc

    def unstable(seed=0):
        return dict(example2(seed), gain=[[200.0]], horizon=8.0)
    monkeypatch.setattr(scenarios, "example2_doc", unstable)
    code, out = run_cli(capsys, "reproduce", "--example", "2", "--out", str(tmp_path))
    assert code == 4
    assert "diverged" in out
    assert not (tmp_path / "example2.csv").exists()


# -- export files ---------------------------------------------------------------
# The row-at-a-time writers that the block encoders replaced; the files must
# stay byte for byte the same.

def _reference_trace_csv(trace, path):
    s = trace.scenario
    header = ["t"] + [f"x_{i}_{j}" for i in range(1, s.n_units + 1)
                      for j in range(1, s.model.N + 1)] + ["delta_sq"]
    with_v = trace.lyapunov is not None
    if with_v:
        header.append("V")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for k in range(len(trace.t)):
            row = [repr(float(trace.t[k]))]
            row += [repr(float(v)) for v in trace.states[k]]
            row.append(repr(float(trace.delta_sq[k])))
            if with_v:
                row.append(repr(float(trace.lyapunov[k])))
            w.writerow(row)


def _reference_event_log(trace, path):
    with open(path, "w") as f:
        json.dump([{"t": t, "channel": ch, "kind": kind}
                   for t, ch, kind in trace.events], f)
        f.write("\n")


def _example_trace(number, horizon):
    doc, _ = builtin_example(number, seed=1)
    doc["horizon"] = horizon
    return run(parse_scenario(doc))


@pytest.fixture(scope="module")
def ex1_trace():
    return _example_trace(1, 10.0)      # ~12k rows and events, with V


def test_event_rows_are_python_scalars(tmp_path):
    # The logs are typed columns. Their rows hold Python floats and ints,
    # so write_event_log's %r prints json.dumps's text: a numpy float64
    # would print as np.float64(...).
    cut = run(_equivalence_scenario("ex2_stop"))
    assert cut.consensus_time == cut.t[-1]
    cases = {"relative_edges": _example_trace(1, 3.0),
             "triggered_broadcast": _example_trace(3, 5.0),
             "monitored": run(_equivalence_scenario("event_triggered")), "cut": cut}
    for name, trace in cases.items():
        kinds = set()
        for t, ch, kind in trace.events:
            assert type(t) is float and type(ch) is int, name
            kinds.add(kind)
        assert kinds and kinds <= {"sample", "deliver", "update"}, (name, kinds)
        assert all(type(t) is float for t in trace.drive_changes), name
        path = tmp_path / f"{name}.json"
        write_event_log(trace, path)
        assert path.read_text() == json.dumps(
            [{"t": t, "channel": ch, "kind": kind} for t, ch, kind in trace.events]) + "\n"


def _head(trace, n):
    """The first n rows and events of a trace without V."""
    return replace(trace, t=trace.t[:n], states=trace.states[:n],
                   delta_sq=trace.delta_sq[:n], events=trace.events[:n])


def _export_cases(ex1_trace):
    ex3 = _example_trace(3, 5.0)
    return {
        "ex1": ex1_trace,
        "ex3": ex3,
        "zero_horizon": _example_trace(2, 0.0),
        "no_events": replace(ex3, events=[]),
        "two_blocks": _head(ex3, 2 * EXPORT_BLOCK),
        "one_past_a_block": _head(ex3, EXPORT_BLOCK + 1),
    }


def test_export_files_match_the_row_writers(ex1_trace, tmp_path):
    cases = _export_cases(ex1_trace)
    assert cases["ex1"].lyapunov is not None and cases["ex3"].lyapunov is None
    assert len(cases["zero_horizon"].t) == 1 and cases["zero_horizon"].events == []
    for name, trace in cases.items():
        for write, reference in ((write_trace_csv, _reference_trace_csv),
                                 (write_event_log, _reference_event_log)):
            got, want = tmp_path / f"{name}.got", tmp_path / f"{name}.want"
            write(trace, got)
            reference(trace, want)
            assert got.read_bytes() == want.read_bytes(), (name, write.__name__)


@pytest.mark.parametrize("write", [write_trace_csv, write_event_log])
def test_export_memory_stays_flat(ex1_trace, tmp_path, write):
    assert len(ex1_trace.t) > 20 * EXPORT_BLOCK
    tracemalloc.start()
    try:
        write(ex1_trace, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
