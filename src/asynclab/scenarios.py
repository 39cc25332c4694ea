"""Scenario documents (JSON) and the built-in benchmark scenarios.

This module is the one reader of the document format. A document is a JSON
object, and each of its keys names a section:
    model, mode, graph | coupling, gain | design:{lambda, mu},
    schedule:{h_min, h_max, tau_max} | schedules:[...], error_model,
    saturation, input_delay, lyapunov_P, startup, snapshot_points,
    stop_at_consensus, consensus_tol, x0, horizon, seed
describe a scenario; query and bound_params feed the `bound` subcommand and
sweep the `run` subcommand. `read` takes every section through its reader
and names the section in every failure. A null section is an absent one,
and a section that is an object takes only the keys its reader knows.
Scalars are checked, not converted: an integer is neither a float nor a
boolean, a flag is true or false, and a number is finite (json reads NaN
and Infinity literals) and not a string. mode is the coupling structure
(abstract_coupled, relative_edges or broadcast); a saturation number turns
saturation on, and an event_trigger error model makes an abstract_coupled
run continuously monitored.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import fields
from functools import partial

import numpy as np

from .bounds import BoundQuery
from .design import DesignError, riccati_design
from .graphs import (InteractionGraph, build_algebra, cycle_graph, path_graph,
                     star_graph)
from .matan import LtiModel
from .sampling import (ChannelSchedule, ErrorModel, ScheduleError,
                       validate_schedule)
from .sim import Scenario, ScheduleParams


class ScenarioFormatError(ValueError):
    """Malformed or incomplete scenario document."""


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value) -> float:
    if not _is_number(value):
        raise TypeError(f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _int(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def check_seed(value, name="seed") -> int:
    """A seed: an integer in [0, 2**64). The random streams are keyed on
    64 bits, so seeds outside that range would repeat the runs of seeds
    inside it."""
    if not 0 <= _int(value) < 2**64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value!r}")
    return value


def _count(value) -> int:
    """A positive integer."""
    if _int(value) < 1:
        raise ValueError(f"expected at least 1, got {value!r}")
    return value


def _positive(value) -> float:
    value = _number(value)
    if not value > 0:
        raise ValueError(f"expected a positive number, got {value!r}")
    return value


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def _keyed(sec, keys) -> dict:
    """The section as an object whose keys all lie in keys."""
    unknown = [key for key in _object(sec) if key not in keys]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    return sec


def _floats(value) -> np.ndarray:
    """A number, or nested lists of numbers, as a float array."""
    if not all(map(_is_number, np.ravel(np.array(value, dtype=object)))):
        raise TypeError("expected a number or nested lists of numbers")
    value = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(value)):
        raise ValueError("expected finite numbers")
    return value


def _record(cls, sec, read):
    """The dataclass cls with the section's keys as its fields, each value
    taken through read; a key that names no field is an error."""
    return cls(**{key: read(value) for key, value in _object(sec).items()})


def _graph(sec) -> InteractionGraph:
    sec = _object(sec)
    for shape, build in (("cycle", cycle_graph), ("path", path_graph), ("star", star_graph)):
        if shape in sec:
            return build(_int(_keyed(sec, (shape,))[shape]))
    sec = _keyed(sec, ("n", "edges"))
    return InteractionGraph(n=_int(sec["n"]),
                            edges=tuple((_int(i), _int(j)) for i, j in sec["edges"]))


def _design(sec) -> tuple[float, float]:
    """(lambda, mu): the weights of the Riccati gain design."""
    sec = _keyed(sec, ("lambda", "mu"))
    return _number(sec["lambda"]), _number(sec["mu"])


def _channel_schedule(entry) -> ChannelSchedule:
    entry = _keyed(entry, ("channel_id", "sample_instants", "delays"))
    return ChannelSchedule(channel_id=_int(entry["channel_id"]),
                           sample_instants=_floats(entry["sample_instants"]),
                           delays=_floats(entry["delays"]))


def _schedules(sec) -> tuple[ChannelSchedule, ...]:
    """The explicit schedules, each structurally admissible (no h or tau cap)."""
    schedules = tuple(map(_channel_schedule, sec))
    for ch, sc in enumerate(schedules):
        try:
            validate_schedule(sc, math.inf, math.inf)
        except ScheduleError as exc:
            raise ValueError(f"channel {ch}: {exc}") from exc
    return schedules


# The keys of an error_model section of each kind, besides kind itself.
_ERROR_KEYS = {"none": (), "multiplicative": ("omega", "adversarial"),
               "additive": ("delta_e", "adversarial"), "log_quantizer": ("level",),
               "event_trigger": ("omega", "dwell", "cap")}


def _error_model(sec) -> ErrorModel:
    kind = _object(sec).get("kind", "none")
    if kind not in _ERROR_KEYS:
        raise ValueError(f"unknown error model kind {kind!r}")
    _keyed(sec, ("kind", *_ERROR_KEYS[kind]))
    if kind == "none":
        return ErrorModel.none()
    if kind == "multiplicative":
        return ErrorModel.multiplicative(_number(sec["omega"]),
                                         adversarial=_flag(sec.get("adversarial", False)))
    if kind == "additive":
        return ErrorModel.additive(_number(sec["delta_e"]),
                                   adversarial=_flag(sec.get("adversarial", False)))
    if kind == "log_quantizer":
        return ErrorModel.log_quantizer(_number(sec["level"]))
    cap = sec.get("cap")
    return ErrorModel.event_trigger(_number(sec["omega"]), _number(sec["dwell"]),
                                    cap=None if cap is None else _number(cap))


# The parameters of theorem 4 that a bound_params section may set; the
# lags h and tau and the error level delta_e are nonnegative, the search
# parameters alpha, gamma and eta positive, and theta above 1.
_BOUND_PARAMS = ("h", "tau", "delta_e", "alpha", "gamma", "eta", "theta")


def _bound_params(sec) -> dict:
    params = {key: _number(value) for key, value in _keyed(sec, _BOUND_PARAMS).items()}
    for key in ("h", "tau", "delta_e"):
        if params.get(key, 0.0) < 0:
            raise ValueError(f"{key} must be nonnegative, got {params[key]!r}")
    for key in ("alpha", "gamma", "eta"):
        if params.get(key, 1.0) <= 0:
            raise ValueError(f"{key} must be positive, got {params[key]!r}")
    if params.get("theta", 2.0) <= 1:
        raise ValueError(f"theta must exceed 1, got {params['theta']!r}")
    return params


def _sweep(sec) -> list[int]:
    """The seeds of a sweep: a non-empty list of distinct seeds, since
    each seed names its output files."""
    seeds = [check_seed(sd) for sd in _keyed(sec, ("seeds",))["seeds"]]
    if not seeds:
        raise ValueError("seeds must not be empty")
    repeated = [sd for i, sd in enumerate(seeds) if sd in seeds[:i]]
    if repeated:
        raise ValueError(f"seeds must be distinct; seed {repeated[0]} is repeated")
    return seeds


# The reader of each section; a document key that is not here is rejected.
# (Only a string can be a valid mode or startup, so str converts nothing
# that the scenario accepts.)
_READERS = {
    "model": partial(_record, LtiModel, read=_floats), "mode": str, "graph": _graph,
    "coupling": _floats, "gain": _floats, "design": _design,
    "schedule": partial(_record, ScheduleParams, read=_number),
    "schedules": _schedules, "error_model": _error_model, "saturation": _number,
    "input_delay": _number, "lyapunov_P": _floats, "startup": str,
    "snapshot_points": _count, "stop_at_consensus": _flag, "consensus_tol": _positive,
    "x0": _floats, "horizon": _number, "seed": check_seed,
    "query": partial(_record, BoundQuery, read=_number),
    "bound_params": _bound_params, "sweep": _sweep,
}
_REQUIRED = ("model", "mode", "x0", "horizon")


@contextmanager
def _naming(key):
    """Turn an error raised while reading the key section into a
    ScenarioFormatError that names the section, chained to the original."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError, DesignError) as exc:
        raise ScenarioFormatError(f"bad {key} section: {exc}") from exc


def load_document(path) -> dict:
    """The document in the JSON file at path: an object whose keys all
    name sections."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ScenarioFormatError("document must be a JSON object")
    unknown = [key for key in doc if key not in _READERS]
    if unknown:
        raise ScenarioFormatError(f"unknown section {unknown[0]!r}")
    return doc


def read(doc, key, required=False, shape=None):
    """The value of the document's key section, reshaped to shape when one
    is given. An absent section fails when it is required and otherwise
    reads as None, except that an absent error model is the model of no
    error."""
    sec = doc.get(key)
    if sec is None:
        if required:
            raise ScenarioFormatError(f"document is missing the {key!r} section")
        return ErrorModel.none() if key == "error_model" else None
    with _naming(key):
        value = _READERS[key](sec)
        return value if shape is None else value.reshape(shape)


def parse_scenario(doc) -> Scenario:
    """The scenario a document describes. Each Scenario field is read from
    the section of its name, except that a design section gives the gain
    and lyapunov_P, so it excludes both sections. An error raised because
    the sections do not fit together keeps the scenario's message, chained
    to the original."""
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")
    values = {f.name: read(doc, f.name, required=f.name in _REQUIRED)
              for f in fields(Scenario)}
    values = {name: value for name, value in values.items() if value is not None}
    design = read(doc, "design")
    if ("gain" in values) == (design is not None):
        raise ScenarioFormatError("exactly one of 'gain' and 'design' is required")
    if design is not None and "lyapunov_P" in values:
        raise ScenarioFormatError("a design section gives lyapunov_P; "
                                  "'lyapunov_P' and 'design' exclude each other")
    if design is not None:
        with _naming("design"):
            solved = riccati_design(values["model"], *design)
        values.update(gain=solved.K, lyapunov_P=solved.P)
    try:
        return Scenario(**values)
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(str(exc)) from exc


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
