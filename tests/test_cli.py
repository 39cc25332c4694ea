import csv
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from asynclab import bounds
from asynclab.cli import EXPORT_BLOCK, main, write_event_log, write_trace_csv
from asynclab.scenarios import ScenarioFormatError, builtin_example, parse_scenario
from asynclab.sim import ScenarioError, run


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


def test_bound_theorem4_golden(ex_file, capsys):
    code, out = run_cli(capsys, "bound", ex_file(3), "--theorem", "4")
    assert code == 0
    report = json.loads(out)
    assert report["error_bound"] == pytest.approx(0.4535, abs=1e-2)
    assert report["delta_h"] == pytest.approx(0.2894, abs=1e-3)


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


@pytest.mark.parametrize("command", ["bound", "reproduce"])
def test_theorem4_norms_sampled_once(ex_file, capsys, monkeypatch, command):
    calls = []
    sampled = bounds.max_expm_norms

    def counted(*args, **kwargs):
        calls.append(args)
        return sampled(*args, **kwargs)
    monkeypatch.setattr(bounds, "max_expm_norms", counted)
    argv = (["bound", ex_file(3), "--theorem", "4"] if command == "bound"
            else ["reproduce", "--example", "3"])
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


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


def test_run_schema_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mode": "broadcast"}))
    code, _ = run_cli(capsys, "run", str(path), "--out", str(tmp_path / "o"))
    assert code == 2


@pytest.mark.parametrize("example, overrides", [
    (2, {"x0": [0.1, math.nan, 0.3, 0.4, 0.5]}),
    (2, {"horizon": math.inf}),
    (2, {"horizon": math.nan}),
    (3, {"startup": "first_sample"}),
    (1, {"error_model": {"kind": "event_trigger", "omega": 0.09, "dwell": 0.005}}),
    (3, {"error_model": {"kind": "event_trigger", "omega": 0.09, "dwell": 0.03,
                         "cap": 0.08}}),
    (2, {"mode": "event_triggered", "coupling": [[1.0, -1.0], [-1.0, 1.0]],
         "x0": [1.0, -1.0], "input_delay": 0.01,
         "error_model": {"kind": "event_trigger", "omega": 0.05, "dwell": 0.02}}),
], ids=["nan_x0", "inf_horizon", "nan_horizon", "first_sample_with_trigger",
        "trigger_on_relative_edges", "dwell_above_h_min", "abstract_trigger_with_delay"])
def test_run_bad_scenario_exits_2(ex_file, tmp_path, capsys, example, overrides):
    doc, _ = builtin_example(example)
    doc.update(overrides)
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(doc)
    assert isinstance(info.value.__cause__, ScenarioError)
    # json writes and reads NaN and Infinity literals, so the file parses.
    code, out = run_cli(capsys, "run", ex_file(example, **overrides),
                        "--out", str(tmp_path / "o"))
    assert code == 2
    assert "error" in json.loads(out)


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


def test_run_runtime_error_exits_4(ex_file, tmp_path, capsys):
    # Explicit schedules violating Assumption 1 fail at runtime.
    doc, _ = builtin_example(2)
    del doc["schedule"]
    doc["schedules"] = [{"channel_id": ch,
                         "sample_instants": [0.1, 0.1],
                         "delays": [0.0, 0.0]} for ch in range(5)]
    path = tmp_path / "badsched.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli(capsys, "run", str(path), "--out", str(tmp_path / "o"))
    assert code == 4


def test_reproduce_examples_pass(capsys, ex_file, monkeypatch):
    for n in ("2", "3"):
        code, out = run_cli(capsys, "reproduce", "--example", n)
        assert code == 0
        assert "FAIL" not in out


def test_reproduce_bad_example(capsys):
    with pytest.raises(SystemExit):
        main(["reproduce", "--example", "9"])


def test_sweep_parallel_runs(ex_file, tmp_path, capsys, monkeypatch):
    # The outputs do not depend on the thread count.
    path = ex_file(2, horizon=3.0, sweep={"seeds": [1, 2, 3]})
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("ASYNC_LAB_THREADS", threads)
        code, out = run_cli(capsys, "run", path, "--out", str(tmp_path / threads))
        assert code == 0
        assert [r["seed"] for r in json.loads(out)["runs"]] == [1, 2, 3]
        reports.append(json.loads((tmp_path / threads / "report.json").read_text()))
    for seed in (1, 2, 3):
        for name in (f"trace_seed{seed}.csv", f"events_seed{seed}.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
    for report in reports:
        for r in report["runs"]:
            del r["runtime_s"], r["outputs"]
    assert reports[0] == reports[1]


def test_run_divergence_exits_4_without_trace(ex_file, tmp_path, capsys):
    out_dir = tmp_path / "diverged"
    code, out = run_cli(capsys, "run", ex_file(2, gain=[[200.0]], horizon=8.0),
                        "--out", str(out_dir))
    assert code == 4
    assert "diverged" in json.loads(out)["error"]
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
