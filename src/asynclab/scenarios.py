"""Scenario files (JSON) and the built-in benchmark scenarios.

A scenario document is a JSON object with sections
    model, graph | coupling, mode, gain | design:{lambda, mu},
    schedule:{h_min, h_max, tau_max} | schedules:[...],
    error_model, saturation, input_delay, x0, horizon, seed
plus optional bound-query sections used by the `bound` subcommand.
The section readers take the section's value; a null section is an absent
one.
"""

from __future__ import annotations

import json

import numpy as np

from .design import DesignError, riccati_design
from .graphs import (InteractionGraph, build_algebra, cycle_graph, path_graph,
                     star_graph)
from .matan import LtiModel
from .sampling import ChannelSchedule, ErrorModel
from .sim import Scenario, ScheduleParams


class ScenarioFormatError(ValueError):
    """Malformed or incomplete scenario document."""


def section(doc, key):
    """The document's `key` section, which must be present and not null."""
    if doc.get(key) is None:
        raise ScenarioFormatError(f"document is missing the {key!r} section")
    return doc[key]


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def parse_model(sec) -> LtiModel:
    return LtiModel(A=_floats(sec["A"]), B=_floats(sec["B"]))


def parse_graph(sec) -> InteractionGraph:
    for shape, build in (("cycle", cycle_graph), ("path", path_graph), ("star", star_graph)):
        if shape in sec:
            return build(int(sec[shape]))
    return InteractionGraph(n=int(sec["n"]),
                            edges=tuple((int(i), int(j)) for i, j in sec["edges"]))


def parse_design(sec) -> tuple[float, float]:
    """(lambda, mu): the weights of the Riccati gain design."""
    return float(sec["lambda"]), float(sec["mu"])


def parse_schedule(sec) -> ScheduleParams | None:
    if sec is None:
        return None
    return ScheduleParams(h_min=float(sec["h_min"]), h_max=float(sec["h_max"]),
                          tau_max=float(sec["tau_max"]))


def parse_schedules(sec) -> tuple[ChannelSchedule, ...]:
    return tuple(ChannelSchedule(channel_id=int(s["channel_id"]),
                                 sample_instants=_floats(s["sample_instants"]),
                                 delays=_floats(s["delays"]))
                 for s in sec)


def parse_error_model(sec) -> ErrorModel:
    if sec is None:
        return ErrorModel.none()
    if not isinstance(sec, dict):
        raise TypeError("an error model must be an object")
    kind = sec.get("kind", "none")
    if kind == "none":
        return ErrorModel.none()
    if kind == "multiplicative":
        return ErrorModel.multiplicative(float(sec["omega"]),
                                         adversarial=bool(sec.get("adversarial", False)))
    if kind == "additive":
        return ErrorModel.additive(float(sec["delta_e"]),
                                   adversarial=bool(sec.get("adversarial", False)))
    if kind == "log_quantizer":
        return ErrorModel.log_quantizer(float(sec["level"]))
    if kind == "event_trigger":
        cap = sec.get("cap")
        return ErrorModel.event_trigger(float(sec["omega"]), float(sec["dwell"]),
                                        cap=None if cap is None else float(cap))
    raise ValueError(f"unknown error model kind {kind!r}")


def _saturation(sec) -> float:
    return float(sec["rho_s"] if isinstance(sec, dict) else sec)


def parse_scenario(doc) -> Scenario:
    """The scenario a document describes. Each Scenario field is read from
    the section of its name, except that a design section gives the gain
    and lyapunov_P. An error raised while reading a section becomes a
    ScenarioFormatError that names the section; one raised because the
    sections do not fit together keeps the scenario's message. Both are
    chained to the original error."""
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")
    for key in ("model", "mode", "x0", "horizon"):
        section(doc, key)
    if (doc.get("gain") is None) == (doc.get("design") is None):
        raise ScenarioFormatError("exactly one of 'gain' and 'design' is required")
    fields = {}
    try:
        for key, read in (("model", parse_model), ("mode", str), ("x0", _floats),
                          ("horizon", float), ("seed", int), ("graph", parse_graph),
                          ("coupling", _floats), ("schedule", parse_schedule),
                          ("schedules", parse_schedules),
                          ("error_model", parse_error_model),
                          ("saturation", _saturation), ("input_delay", float),
                          ("lyapunov_P", _floats), ("startup", str),
                          ("snapshot_points", int), ("stop_at_consensus", bool),
                          ("consensus_tol", float), ("gain", _floats)):
            if doc.get(key) is not None:
                fields[key] = read(doc[key])
        if doc.get("design") is not None:
            key = "design"
            design = riccati_design(fields["model"], *parse_design(doc["design"]))
            fields.update(gain=design.K, lyapunov_P=design.P)
        key = None
        return Scenario(**fields)
    except (KeyError, TypeError, ValueError, DesignError) as exc:
        raise ScenarioFormatError(f"bad {key} section: {exc}" if key else str(exc)) from exc


def serialize_scenario(s: Scenario) -> dict:
    """Document whose parse is semantically identical to the scenario."""
    doc = {
        "mode": s.mode,
        "model": {"A": s.model.A.tolist(), "B": s.model.B.tolist()},
        "gain": s.gain.tolist(),
        "x0": s.x0.tolist(),
        "horizon": s.horizon,
        "seed": s.seed,
        "input_delay": s.input_delay,
        "startup": s.startup,
        "snapshot_points": s.snapshot_points,
        "stop_at_consensus": s.stop_at_consensus,
    }
    if s.graph is not None:
        doc["graph"] = {"n": s.graph.n, "edges": [list(e) for e in s.graph.edges]}
    if s.coupling is not None:
        doc["coupling"] = s.coupling.tolist()
    if s.schedule is not None:
        doc["schedule"] = {"h_min": s.schedule.h_min, "h_max": s.schedule.h_max,
                           "tau_max": s.schedule.tau_max}
    elif s.schedules is not None:
        doc["schedules"] = [{"channel_id": sc.channel_id,
                             "sample_instants": np.asarray(sc.sample_instants).tolist(),
                             "delays": np.asarray(sc.delays).tolist()}
                            for sc in s.schedules]
    em = s.error_model
    if em.kind == "multiplicative":
        doc["error_model"] = {"kind": em.kind, "omega": em.omega,
                              "adversarial": em.adversarial}
    elif em.kind == "additive":
        doc["error_model"] = {"kind": em.kind, "delta_e": em.delta_e,
                              "adversarial": em.adversarial}
    elif em.kind == "log_quantizer":
        doc["error_model"] = {"kind": em.kind, "level": em.quant_level}
    elif em.kind == "event_trigger":
        doc["error_model"] = {"kind": em.kind, "omega": em.omega,
                              "dwell": em.dwell, "cap": em.cap}
    else:
        doc["error_model"] = {"kind": "none"}
    if s.saturation is not None:
        doc["saturation"] = {"rho_s": s.saturation}
    if s.lyapunov_P is not None:
        doc["lyapunov_P"] = np.asarray(s.lyapunov_P).tolist()
    if s.consensus_tol is not None:
        doc["consensus_tol"] = s.consensus_tol
    return doc


def load_scenario(path) -> Scenario:
    with open(path) as f:
        doc = json.load(f)
    return parse_scenario(doc)


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w") as f:
        json.dump(serialize_scenario(s), f, indent=2)
        f.write("\n")


# ---------------------------------------------------------------------------
# Built-in benchmark scenarios.
#
# The interaction topology of all three benchmarks is the 5-cycle; it is
# inferred from the published spectral constants (lambda_2 = 1.382,
# lambda_n = 3.618 match 2(1 - cos(2 pi k / 5))) rather than read from a
# figure.
# ---------------------------------------------------------------------------

CYCLE5 = cycle_graph(5)
_ALG5 = build_algebra(CYCLE5)
LAMBDA_2 = _ALG5.lambda_2       # 1.381966...
LAMBDA_N = _ALG5.lambda_n       # 3.618034...


def example1_doc(seed=0):
    """Harmonic-oscillator agents on the 5-cycle, relative-edge sampling
    with a logarithmic quantizer of level 1.1."""
    return {
        "mode": "relative_edges",
        "model": {"A": [[0.0, 1.0], [-1.0, 0.0]], "B": [[0.0], [1.0]]},
        "graph": {"cycle": 5},
        "design": {"lambda": LAMBDA_2, "mu": 1.0},
        "schedule": {"h_min": 0.005, "h_max": 0.012, "tau_max": 0.005},
        "error_model": {"kind": "log_quantizer", "level": 1.1},
        "x0": [1.0, 0.0, -0.5, 1.0, 0.5, -1.0, -1.0, -0.5, 0.8, 0.6],
        "horizon": 60.0,
        "seed": seed,
    }


def example2_doc(seed=0):
    """Single-integrator agents on the 5-cycle, broadcast self-sampling
    with unit gain inside the certified budget."""
    return {
        "mode": "broadcast",
        "model": {"A": [[0.0]], "B": [[1.0]]},
        "graph": {"cycle": 5},
        "gain": [[1.0]],
        "schedule": {"h_min": 0.02, "h_max": 0.05, "tau_max": 0.019},
        "error_model": {"kind": "none"},
        "x0": [1.0, -0.5, 0.5, -1.0, 0.8],
        "horizon": 30.0,
        "seed": seed,
    }


def example3_doc(seed=0):
    """Single-integrator agents on the 5-cycle, broadcast sampling with a
    capped event trigger and delivery delays."""
    return {
        "mode": "broadcast",
        "model": {"A": [[0.0]], "B": [[1.0]]},
        "graph": {"cycle": 5},
        "design": {"lambda": LAMBDA_2, "mu": LAMBDA_2},
        "schedule": {"h_min": 0.025, "h_max": 0.025, "tau_max": 0.02},
        "error_model": {"kind": "event_trigger", "omega": 0.09,
                        "dwell": 0.025, "cap": 0.08},
        "x0": [1.5, -0.8, 0.6, -1.2, 0.4],
        "horizon": 40.0,
        "seed": seed,
    }


def builtin_example(number: int, seed=0):
    """(scenario document, goldens) for one of the three benchmarks."""
    if number == 1:
        doc = example1_doc(seed)
        goldens = {
            "K": ([0.5626, 1.0633], 1e-3),
            "budget_c1": (0.017, 2e-3),
        }
    elif number == 2:
        doc = example2_doc(seed)
        goldens = {
            "budget_thm3": (0.0691, 1e-3),
            "gamma_star": (2.618034, 1e-4),
            "objective": (0.145898, 1e-5),
            "sync_constant": (0.5528, 1e-4),
        }
    elif number == 3:
        doc = example3_doc(seed)
        goldens = {
            "delta_h": (0.2894, 1e-3),
            "error_bound": (0.4535, 1e-2),
        }
    else:
        raise ValueError("example number must be 1, 2 or 3")
    return doc, goldens
