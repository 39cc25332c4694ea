import pytest

from asynclab import scenarios
from asynclab.design import DesignError
from asynclab.scenarios import ScenarioFormatError, builtin_example, parse_scenario
from asynclab.sim import ScenarioError


def test_parse_builtin_examples():
    for n in (1, 2, 3):
        doc, goldens = builtin_example(n)
        s = parse_scenario(doc)
        assert s.horizon > 0
        assert goldens
    with pytest.raises(ValueError):
        builtin_example(4)


def test_example1_design_resolution():
    doc, _ = builtin_example(1)
    s = parse_scenario(doc)
    # design section resolves to the Riccati gain and supplies P
    assert s.gain.ravel() == pytest.approx([0.5626, 1.0633], abs=1e-3)
    assert s.lyapunov_P is not None


def test_gain_design_exclusivity():
    doc, _ = builtin_example(2)
    doc["design"] = {"lambda": 1.0, "mu": 1.0}   # now both present
    with pytest.raises(ScenarioFormatError):
        parse_scenario(doc)
    del doc["gain"], doc["design"]
    with pytest.raises(ScenarioFormatError):
        parse_scenario(doc)


def test_missing_sections_rejected():
    with pytest.raises(ScenarioFormatError):
        parse_scenario({"mode": "broadcast"})
    with pytest.raises(ScenarioFormatError):
        parse_scenario([1, 2, 3])
    doc, _ = builtin_example(2)
    doc["error_model"] = {"kind": "wat"}
    with pytest.raises(ScenarioFormatError):
        parse_scenario(doc)


@pytest.mark.parametrize("section, value, cause", [
    ("seed", [1], TypeError), ("graph", {"cycle": [5]}, TypeError),
    ("schedules", [{"channel_id": 0, "sample_instants": [0.1]}], KeyError),
    ("design", {"lambda": -1.0, "mu": 1.0}, DesignError),
    ("error_model", {"kind": "log_quantizer", "level": 0.5}, ValueError),
    ("seed", 1.5, TypeError), ("seed", True, TypeError),
    ("snapshot_points", 10.7, TypeError), ("stop_at_consensus", "false", TypeError),
    ("graph", {"cycle": 5.9}, TypeError), ("horizon", "1.0", TypeError),
    ("x0", ["1.0"] * 10, TypeError), ("model", {"A": [[0.0, 1.0], [-1.0, 0.0]]}, TypeError),
    ("error_model", {"kind": "multiplicative", "omega": 0.1, "adversarial": "no"}, TypeError),
    ("error_model", {"kind": "log_quantizer", "level": 1.1, "levle": 1.2}, ValueError),
    ("error_model", {"omega": 0.1}, ValueError),      # kind none takes no keys
    ("error_model", {"kind": "log_quantizer", "level": float("nan")}, ValueError),
    ("graph", {"cycle": 5, "path": 3}, ValueError),
    ("graph", {"n": 5, "edges": [[1, 2]], "m": 1}, ValueError),
    ("design", {"lambda": 1.0, "mu": 1.0, "nu": 1.0}, ValueError),
    ("saturation", {"rho_s": 1.0}, TypeError),      # a number is its one spelling
    ("schedules", [{"channel_id": 0, "sample_instants": [0.1], "delays": [0.0],
                    "delay": [0.0]}], ValueError),
    ("horizon", float("inf"), ValueError), ("x0", [float("nan")] * 10, ValueError),
    ("schedule", {"h_min": 0.012, "h_max": 0.005, "tau_max": 0.005}, ScenarioError),
    ("snapshot_points", -5, ValueError), ("consensus_tol", -1.0, ValueError),
])
def test_bad_section_is_named(section, value, cause):
    doc, _ = builtin_example(1)
    doc[section] = value
    with pytest.raises(ScenarioFormatError, match=f"bad {section} section") as info:
        parse_scenario(doc)
    assert type(info.value.__cause__) is cause


def test_graph_shorthands():
    base, _ = builtin_example(2)
    for spec, m in (({"cycle": 4}, 4), ({"path": 4}, 3), ({"star": 4}, 3)):
        doc = dict(base)
        doc["graph"] = spec
        doc["x0"] = [0.1, 0.2, 0.3, 0.4]
        s = parse_scenario(doc)
        assert s.graph.n == 4 and s.graph.m == m


def test_explicit_schedules_parse():
    doc, _ = builtin_example(2)
    del doc["schedule"]
    doc["schedules"] = [
        {"channel_id": ch,
         "sample_instants": [0.01 + 0.02 * k for k in range(100)],
         "delays": [0.0] * 100}
        for ch in range(5)
    ]
    s = parse_scenario(doc)
    assert s.schedule is None and len(s.schedules) == 5


def test_inferred_topology_is_cycle5():
    # The built-in benchmarks use the 5-cycle whose Laplacian spectrum
    # matches the published constants.
    assert scenarios.LAMBDA_2 == pytest.approx(1.381966, abs=1e-6)
    assert scenarios.LAMBDA_N == pytest.approx(3.618034, abs=1e-6)
