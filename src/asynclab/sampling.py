"""Admissible asynchronous sampling schedules and the measurement/actuation
distortion models: multiplicative errors, logarithmic quantization, event
triggering with dwell time, and saturation scaling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ScheduleError(ValueError):
    """A generated or supplied schedule violates the admissibility clauses."""


# Relative guard keeping the strict delay < gap inequality under floating point.
DELAY_GUARD = 1e-9


def channel_rng(seed: int, channel_id: int, stream: int = 0) -> np.random.Generator:
    """Counter-based PRNG keyed by (seed, channel, stream); channels draw
    from statistically independent streams regardless of event interleaving.
    Distinct streams separate schedule generation from error draws."""
    return np.random.Generator(np.random.Philox(
        key=[seed & 0xFFFFFFFFFFFFFFFF,
             ((channel_id & 0xFFFFFFFF) << 32) | (stream & 0xFFFF) | (0x5EED << 16)]))


@dataclass(frozen=True)
class ChannelSchedule:
    """Sampling instants and per-sample delivery delays of one channel."""

    channel_id: int
    sample_instants: np.ndarray
    delays: np.ndarray


def generate_schedule(h_min: float, h_max: float, tau_max: float,
                      horizon: float, seed: int, channel_id: int) -> ChannelSchedule:
    """Draw i.i.d. uniform inter-sample gaps in [h_min, h_max] and uniform
    delays in [0, min(tau_max, gap)), deterministic in (seed, channel_id).

    The first instant is uniform in [0, h_min] so channels start out of
    phase. Requires tau_max <= h_min; the per-sample cap keeps every delay
    strictly below the following gap.
    """
    if not (0 < h_min <= h_max):
        raise ScheduleError("need 0 < h_min <= h_max")
    if tau_max > h_min:
        raise ScheduleError("tau_max must not exceed h_min so delays "
                            "stay strictly below each sampling gap")
    if horizon <= 0:
        raise ScheduleError("horizon must be positive")
    rng = channel_rng(seed, channel_id)
    parts = [np.array([rng.uniform(0.0, h_min)])]
    while parts[-1][-1] < horizon:
        # gaps in blocks of about the count still needed; the running sum
        # continues from the last instant, as one-at-a-time addition would
        size = int((horizon - parts[-1][-1]) / (0.5 * (h_min + h_max))) + 16
        gaps = rng.uniform(h_min, h_max, size=size)
        parts.append(np.cumsum(np.concatenate([parts[-1][-1:], gaps]))[1:])
    instants = np.concatenate(parts)
    instants = instants[: np.searchsorted(instants, horizon) + 1]
    # replay the stream so the delays follow exactly the draws kept above
    rng = channel_rng(seed, channel_id)
    rng.uniform(size=len(instants))
    gaps = np.diff(instants, append=instants[-1] + h_min)
    caps = np.minimum(tau_max, gaps * (1.0 - DELAY_GUARD))
    delays = rng.uniform(0.0, 1.0, size=len(instants)) * caps
    return ChannelSchedule(channel_id=channel_id,
                           sample_instants=instants, delays=delays)


def validate_schedule(sched: ChannelSchedule, h: float, tau: float) -> None:
    """Independent admissibility checker: gaps at most h, each delay strictly
    below the following gap and at most tau, delivery instants strictly
    increasing. Raises ScheduleError on the first violation."""
    t = np.asarray(sched.sample_instants, dtype=float)
    d = np.asarray(sched.delays, dtype=float)
    if t.shape != d.shape:
        raise ScheduleError("sample_instants and delays must align")
    if len(t) == 0:
        return
    gaps = np.diff(t)
    if np.any(gaps <= 0):
        raise ScheduleError("sample instants must be strictly increasing")
    if np.any(gaps > h * (1.0 + 1e-12)):
        raise ScheduleError(f"sampling gap exceeds h = {h}")
    if np.any(d < 0):
        raise ScheduleError("delays must be nonnegative")
    if np.any(d[:-1] >= gaps):
        raise ScheduleError("delay must be strictly smaller than the next gap")
    if np.any(d > tau * (1.0 + 1e-12)):
        raise ScheduleError(f"delay exceeds tau = {tau}")
    deliveries = t + d
    if np.any(np.diff(deliveries) <= 0):
        raise ScheduleError("delivery instants must be strictly increasing")


@dataclass(frozen=True)
class ErrorModel:
    """Measurement distortion applied at sampling instants.

    kind is one of none, multiplicative, additive, log_quantizer,
    event_trigger; only the fields of the active kind are meaningful.
    """

    kind: str = "none"
    omega: float = 0.0
    delta_e: float = 0.0
    quant_level: float = 2.0
    dwell: float = 0.0
    cap: float | None = None
    adversarial: bool = False

    def __post_init__(self):
        kinds = {"none", "multiplicative", "additive", "log_quantizer",
                 "event_trigger"}
        if self.kind not in kinds:
            raise ValueError(f"unknown error model kind {self.kind!r}")
        if self.omega < 0:
            raise ValueError("omega must be nonnegative")
        if self.kind == "log_quantizer" and self.quant_level <= 1.0:
            raise ValueError("quantizing level must exceed 1")
        if self.kind == "event_trigger" and self.dwell <= 0:
            raise ValueError("dwell time must be positive")
        if self.cap is not None and self.cap <= 0:
            raise ValueError("cap must be positive when present")

    @classmethod
    def none(cls):
        return cls(kind="none")

    @classmethod
    def multiplicative(cls, omega, adversarial=False):
        return cls(kind="multiplicative", omega=omega, adversarial=adversarial)

    @classmethod
    def additive(cls, delta_e, adversarial=False):
        return cls(kind="additive", delta_e=delta_e, adversarial=adversarial)

    @classmethod
    def log_quantizer(cls, quant_level):
        return cls(kind="log_quantizer", quant_level=quant_level)

    @classmethod
    def event_trigger(cls, omega, dwell, cap=None):
        return cls(kind="event_trigger", omega=omega, dwell=dwell, cap=cap)


def _random_direction(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        v = np.zeros(dim)
        v[0] = 1.0
        return v
    return v / nrm


def apply_multiplicative_error(value, omega: float, rng: np.random.Generator,
                               adversarial: bool = False):
    """Draw an error with ||e||^2 <= omega/(1 + sqrt(omega))^2 * ||value||^2,
    which guarantees the relative bound against the errored measurement.

    Returns (measured, error) with measured = value - error. The adversarial
    flag pins the error at the bound, aligned with the value.
    """
    value = np.asarray(value, dtype=float)
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    if omega == 0.0:
        return value.copy(), np.zeros_like(value)
    bound = math.sqrt(omega) / (1.0 + math.sqrt(omega)) * np.linalg.norm(value)
    if adversarial:
        nrm = np.linalg.norm(value)
        direction = value / nrm if nrm > 0 else _random_direction(value.size, rng)
        error = bound * direction
    else:
        error = float(rng.uniform(0.0, bound)) * _random_direction(value.size, rng)
    return value - error, error


def apply_additive_error(value, delta_e: float, rng: np.random.Generator,
                         adversarial: bool = False):
    """Draw an error with ||e|| <= delta_e; returns (measured, error)."""
    value = np.asarray(value, dtype=float)
    if delta_e < 0:
        raise ValueError("delta_e must be nonnegative")
    if delta_e == 0.0:
        return value.copy(), np.zeros_like(value)
    magnitude = delta_e if adversarial else float(rng.uniform(0.0, delta_e))
    error = magnitude * _random_direction(value.size, rng)
    return value - error, error


def log_quantize(value, quant_level: float) -> np.ndarray:
    """Entrywise logarithmic quantizer: 0 maps to 0, otherwise
    sign(x) * level^floor(log_level |x|); exact powers of the level quantize
    to themselves (half-ulp snap on the exponent)."""
    if quant_level <= 1.0:
        raise ValueError("quantizing level must exceed 1")
    value = np.asarray(value, dtype=float)
    nz = value != 0.0
    # whole-array ufuncs, no masked indexing: the engine quantizes one small
    # vector per sample, where the per-call overhead dominates
    logs = np.log(np.abs(np.where(nz, value, 1.0))) / np.log(quant_level)
    snapped = np.rint(logs)
    exps = np.where(np.abs(logs - snapped) < 1e-9, snapped, np.floor(logs))
    return np.where(nz, np.copysign(quant_level**exps, value), 0.0)


def event_trigger_check(current, held, omega: float, cap: float | None = None) -> bool:
    """Trigger condition on the deviation of the current value from the held
    measurement: ||current - held||^2 >= omega ||held||^2. A cap turns the
    threshold into min(sqrt(omega) ||held||, cap).

    current and held are 1-d; each norm is sqrt(x . x), which is how
    np.linalg.norm computes it, without that function's call overhead.
    """
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    current = np.asarray(current, dtype=float)
    held = np.asarray(held, dtype=float)
    d = current - held
    dev = math.sqrt(d.dot(d))
    threshold = math.sqrt(omega) * math.sqrt(held.dot(held))
    if cap is not None:
        threshold = min(threshold, cap)
    return dev >= threshold if cap is None else dev > threshold


def saturation_scale(value, rho_s: float):
    """Scale-down factor keeping the max-norm of the scaled value within
    rho_s: rho = 1 for zero input, else 1/ceil(||value||_inf / rho_s).

    Returns (rho, scaled).
    """
    if rho_s <= 0:
        raise ValueError("rho_s must be positive")
    value = np.asarray(value, dtype=float)
    peak = float(np.abs(value).max()) if value.size else 0.0
    if peak == 0.0:
        return 1.0, value.copy()
    rho = 1.0 / math.ceil(peak / rho_s)
    return rho, rho * value
