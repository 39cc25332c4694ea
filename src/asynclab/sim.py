"""Exact event-driven simulation of asynchronously sampled, delayed,
error-corrupted, zero-order-held multi-agent dynamics.

Between events every unit evolves exactly (to matrix-exponential accuracy)
under a constant drive: x(t + dt) = e^{A dt} x(t) + Phi(dt) v with
Phi(dt) = integral of e^{A s}. Sample events read the true state and apply
the error model; deliver events update the zero-order holds of every
controller using that channel simultaneously.

Scheduled runs draw every sample instant and delay before the run, so
their event timeline is sorted once and its flow maps are evaluated in
vectorized chunks; only continuously monitored triggering queues events.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_right
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import eq

import numpy as np

from .graphs import InteractionGraph, build_algebra, is_connected
from .matan import LtiModel, Propagator
from .sampling import (ChannelSchedule, ErrorModel, ScheduleError,
                       apply_additive_error, apply_multiplicative_error,
                       channel_rng, event_trigger_check, generate_schedule,
                       log_quantize, saturation_scale, validate_schedule)

# Deterministic tie-break at equal event times: a sample taken exactly at a
# delivery instant sees the freshly delivered hold.
RANK_DELIVER = 0
RANK_SAMPLE = 1
RANK_DWELL_EXPIRE = 2
RANK_TRIGGER_CHECK = 3
RANK_GRID = 4

MAX_EVENTS = 10_000_000
TRIGGER_REFINE_TOL = 1e-9
# Timeline entries per batched flow-map evaluation: amortizes the numpy call
# overhead while keeping the batch's memory small and flat in the run length.
FLOW_CHUNK = 4096

MODES = ("abstract_coupled", "relative_edges", "broadcast")    # coupling structures
# Event kinds, each logged as its index in KINDS.
KINDS = ("sample", "deliver", "update")
SAMPLE, DELIVER, UPDATE = range(len(KINDS))


class ScenarioError(ValueError):
    """Inconsistent scenario description."""


class DivergenceError(RuntimeError):
    """The simulated state stopped being finite."""


@dataclass(frozen=True)
class ScheduleParams:
    h_min: float
    h_max: float
    tau_max: float

    def __post_init__(self):
        if not 0 < self.h_min <= self.h_max:         # NaN fails each check
            raise ScenarioError("need 0 < h_min <= h_max")
        if not 0 <= self.tau_max <= self.h_min:
            raise ScenarioError("need 0 <= tau_max <= h_min, so delays stay "
                                "strictly below each sampling gap")


@dataclass(frozen=True)
class Scenario:
    """One runnable experiment."""

    mode: str
    model: LtiModel
    gain: np.ndarray
    x0: np.ndarray
    horizon: float
    seed: int = 0
    graph: InteractionGraph | None = None
    coupling: np.ndarray | None = None
    schedule: ScheduleParams | None = None
    schedules: tuple[ChannelSchedule, ...] | None = None
    error_model: ErrorModel = field(default_factory=ErrorModel.none)
    saturation: float | None = None
    input_delay: float = 0.0
    lyapunov_P: np.ndarray | None = None
    startup: str = "zero"  # or "first_sample"
    snapshot_points: int = 1000
    """Intervals of the evenly spaced grid on [0, horizon]. The trace has
    one row at each distinct event time and at each of the
    snapshot_points + 1 grid instants; a grid instant that coincides with
    an event shares its row."""
    stop_at_consensus: bool = False
    consensus_tol: float | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ScenarioError(f"unknown mode {self.mode!r}")
        if self.startup not in ("zero", "first_sample"):
            raise ScenarioError("startup must be 'zero' or 'first_sample'")
        if self.startup == "first_sample" and self.error_model.kind == "event_trigger":
            raise ScenarioError("startup 'first_sample' is not supported with "
                                "event triggering")
        object.__setattr__(self, "gain", np.asarray(self.gain, dtype=float))
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).ravel())
        if not np.all(np.isfinite(self.x0)):
            raise ScenarioError("x0 must be finite")
        if not (self.horizon >= 0 and math.isfinite(self.horizon)):
            raise ScenarioError("horizon must be finite and nonnegative")
        if not 0 <= self.seed < 2**64:      # the random streams key on 64 bits
            raise ScenarioError("seed must lie in [0, 2**64)")
        if not self.input_delay >= 0:     # NaN too
            raise ScenarioError("input delay must be nonnegative")
        points = self.snapshot_points
        if not isinstance(points, (int, np.integer)) or isinstance(points, bool) or points < 1:
            raise ScenarioError("snapshot_points must be an integer of at least 1")
        if self.consensus_tol is not None and not self.consensus_tol > 0:
            raise ScenarioError("consensus_tol must be positive")
        if self.saturation is not None:
            if not 0 < self.saturation < math.inf:
                raise ScenarioError("saturation must be finite and positive")
            if self.mode != "abstract_coupled" or self.monitored:
                raise ScenarioError("saturation applies only to scheduled "
                                    "abstract_coupled runs")
        N = self.model.N
        if self.mode in ("relative_edges", "broadcast"):
            if self.graph is None:
                raise ScenarioError(f"mode {self.mode} requires a graph")
            if self.mode == "relative_edges" and not is_connected(self.graph):
                raise ScenarioError("relative_edges mode needs a connected graph")
            if self.gain.shape != (self.model.M, N):
                raise ScenarioError(f"gain must be {self.model.M}x{N}")
            if self.x0.size != self.graph.n * N:
                raise ScenarioError("x0 length must be n * N")
        else:
            if self.coupling is None:
                raise ScenarioError(f"mode {self.mode} requires a coupling matrix")
            G = np.asarray(self.coupling, dtype=float)
            if G.ndim != 2 or G.shape[0] != G.shape[1]:
                raise ScenarioError("coupling matrix must be square")
            object.__setattr__(self, "coupling", G)
            if self.gain.shape != (N, N):
                raise ScenarioError(f"gain must be {N}x{N} in {self.mode} mode")
            if self.x0.size != G.shape[0] * N:
                raise ScenarioError("x0 length must be m * N")
        if self.lyapunov_P is not None:
            P = np.asarray(self.lyapunov_P, dtype=float)
            if P.shape != (N, N):
                raise ScenarioError(f"lyapunov_P must be {N}x{N}")
            object.__setattr__(self, "lyapunov_P", P)
        em = self.error_model
        if em.kind == "event_trigger":
            if self.mode == "relative_edges":
                raise ScenarioError("event triggering excludes relative_edges mode")
            if self.mode != "broadcast" and self.input_delay != 0.0:
                raise ScenarioError("monitored event triggering excludes delays")
            if self.monitored and (self.schedule is not None or self.schedules is not None):
                raise ScenarioError("a monitored trigger takes no schedule: it checks "
                                    "its condition continuously")
            if (self.mode == "broadcast" and self.schedule is not None
                    and em.dwell > self.schedule.h_min + 1e-12):
                raise ScenarioError("dwell time must not exceed the minimum sampling gap")
        if self.schedule is not None and self.schedules is not None:
            raise ScenarioError("a scenario takes schedule parameters or explicit "
                                "schedules, not both")
        if not self.monitored and self.schedule is None and self.schedules is None:
            raise ScenarioError("scenario needs schedule parameters or explicit schedules")
        if self.schedules is not None and len(self.schedules) != self.n_channels:
            raise ScenarioError(f"expected {self.n_channels} schedules, "
                                f"got {len(self.schedules)}")
        for ch, sc in enumerate(self.schedules or ()):
            if sc.channel_id != ch:
                raise ScenarioError(f"schedules entry {ch} has channel_id {sc.channel_id}; "
                                    "each entry's channel_id must be its position")
            try:    # structural admissibility only; no (h, tau) caps are declared
                validate_schedule(sc, math.inf, math.inf)
            except ScheduleError as exc:
                raise ScenarioError(f"schedules of channel {ch}: {exc}") from exc
            if (em.kind == "event_trigger" and self.mode == "broadcast"
                    and np.any(em.dwell > np.diff(sc.sample_instants) + 1e-12)):
                raise ScenarioError(f"schedules of channel {ch}: dwell time must not "
                                    "exceed a sampling gap")

    @property
    def monitored(self) -> bool:
        """Event triggering in abstract_coupled mode: continuous, no schedule."""
        return self.error_model.kind == "event_trigger" and self.mode != "broadcast"

    @property
    def n_units(self) -> int:
        if self.mode in ("relative_edges", "broadcast"):
            return self.graph.n
        return self.coupling.shape[0]

    @property
    def n_channels(self) -> int:
        if self.mode == "relative_edges":
            return self.graph.m
        return self.n_units


class Log(Sequence):
    """The event log as a read-only sequence of tuples, built on access from
    typed columns: row i is (*(c[i] for c in heads), table[codes[i]]).
    array.array columns give Python floats and ints, so the rows are those
    of a list of tuples, and equal to one."""

    __slots__ = ("_heads", "_codes", "_table")

    def __init__(self, heads, codes, table):
        self._heads, self._codes, self._table = heads, codes, table

    def __len__(self):
        return len(self._codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Log(tuple(c[i] for c in self._heads), self._codes[i], self._table)
        return (*(c[i] for c in self._heads), self._table[self._codes[i]])

    def __iter__(self):
        return zip(*self._heads, map(self._table.__getitem__, self._codes))

    def __eq__(self, other):
        if not isinstance(other, (Log, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self):
        return repr(list(self))


@dataclass
class Trace:
    """Time-stamped log of one simulation run."""

    scenario: Scenario
    t: np.ndarray
    states: np.ndarray                 # (len, units * N)
    delta_sq: np.ndarray
    lyapunov: np.ndarray | None
    events: Log                        # (time, channel, kind)
    drive_changes: array               # times a hold was set: 0.0, then each
                                       # startup hold, delivery or update
    consensus_time: float | None = None


def _chunks(n: int):
    """Consecutive slices of at most FLOW_CHUNK covering range(n)."""
    return (slice(i, i + FLOW_CHUNK) for i in range(0, n, FLOW_CHUNK))


@dataclass(frozen=True)
class Coupling:
    """The network's read and drive maps, the one reader of the mode for
    them: read gives the value channel ch samples from the unit states X,
    and drive feeds the holds H back as -(C H KT). A relative edge reads
    x_head - x_tail, and C is the incidence. Broadcast and abstract units
    read their own state; C is the Laplacian, on the edges of live holds
    until every agent has one, or the scenario's coupling matrix."""

    C: np.ndarray
    KT: np.ndarray
    ends: tuple | None = None               # relative edges: (head, tail) units
    incidence: np.ndarray | None = None     # broadcast: the edges C masks

    @classmethod
    def of(cls, s: Scenario) -> Coupling:
        if s.mode == "abstract_coupled":
            return cls(s.coupling, s.gain.T)
        algebra = build_algebra(s.graph)
        KT = (s.model.B @ s.gain).T
        if s.mode == "broadcast":
            return cls(algebra.graph_laplacian, KT, incidence=algebra.incidence)
        return cls(algebra.incidence, KT,
                   ends=tuple((head - 1, tail - 1) for tail, head in s.graph.edges))

    @property
    def consensus(self) -> bool:     # a graph's agents: 1^T C = 0
        return self.ends is not None or self.incidence is not None

    def read(self, X, ch):
        if self.ends is None:
            return X[ch]
        head, tail = self.ends[ch]
        return X[head] - X[tail]

    def drive(self, H, held):
        """-(C H KT); held[ch] is None while channel ch has no hold."""
        C = self.C
        if self.incidence is not None and None in held:
            # Before an agent's first broadcast arrives, the pairwise
            # controller terms involving it are absent (not zero-valued):
            # restrict the Laplacian to edges with both holds live.
            inc = self.incidence
            live = np.abs(inc).T @ np.array([key is None for key in held]) == 0
            C = (inc * live) @ inc.T
        return -(C.dot(H.dot(self.KT)))


class _Engine:
    """State, holds and trace rows shared by all simulation modes.

    The event loops record only (t, X) per row. settle() derives delta_sq,
    the one column the loops act on, and the consensus time as the rows
    come; finish() derives the others once, after the loop, in vectorized
    passes over the rows."""

    def __init__(self, s: Scenario, rows: int):
        self.s = s
        N = s.model.N
        self.units = s.n_units
        self.channels = s.n_channels
        self.X = s.x0.reshape(self.units, N).copy()
        self.prop = Propagator(s.model.A)
        self.coupling = Coupling.of(s)
        # kappa(t) = e^{At} kappa0 when the mean evolves on its own
        self.kappa0 = self.X.mean(axis=0) if self.coupling.consensus else None
        self.H = np.zeros((self.channels, N))
        self.held = [None] * self.channels    # the bytes of each live hold
        self.drive = np.zeros((self.units, N))
        self.t = 0.0
        # the event log in columns (time, channel, kind code), and the times
        # the holds were set, from the zero drive at t = 0 on
        self.ev_t, self.ev_ch, self.ev_kind = array("d"), array("q"), array("b")
        self.drive_t = array("d", [0.0])
        # preallocated trace columns: rows[:n_rows] hold (t, X), and
        # rows[:n_settled] also delta_sq
        self.n_rows = self.n_settled = 0
        self.row_t = np.empty(rows)
        self.row_x = np.empty((rows, self.units, N))
        self.row_dsq = np.empty(rows)
        self.err_rngs = [channel_rng(s.seed, ch, stream=1)
                         for ch in range(self.channels)]
        d0 = self.X if self.kappa0 is None else self.X - self.kappa0
        self.consensus_tol = (s.consensus_tol if s.consensus_tol is not None
                              else 1e-8 * (1.0 + float(np.sum(d0 * d0))))
        # the watch over the settled rows: the start of the run of rows
        # below the tolerance that they end in, and its consensus time
        self.below_since = self.consensus_time = None
        self.snapshot()     # the row at t = 0; holds set at t = 0 do not move it

    # -- state ------------------------------------------------------------
    def set_hold(self, ch, value):
        """Hold value, saturated when the scenario saturates, on channel ch,
        log the time and return the drive. The drive is recomputed unless
        the channel already holds these bytes (-0.0 is not +0.0)."""
        if self.s.saturation is not None:
            _, value = saturation_scale(value, self.s.saturation)
        key = value.tobytes()
        if key != self.held[ch]:
            self.held[ch] = key
            self.H[ch] = value
            self.drive = self.coupling.drive(self.H, self.held)
        self.drive_t.append(self.t)
        return self.drive

    def log(self, t, ch, kind):
        """Log an event of kind (an index into KINDS) on channel ch at t."""
        self.ev_t.append(t)
        self.ev_ch.append(ch)
        self.ev_kind.append(kind)

    # -- measurement ------------------------------------------------------
    def measure(self, ch, value):
        em = self.s.error_model
        if em.kind == "none" or em.kind == "event_trigger":
            return np.array(value, copy=True)
        if em.kind == "multiplicative":
            return apply_multiplicative_error(
                value, em.omega, self.err_rngs[ch], adversarial=em.adversarial)[0]
        if em.kind == "additive":
            return apply_additive_error(
                value, em.delta_e, self.err_rngs[ch], adversarial=em.adversarial)[0]
        return log_quantize(value, em.quant_level)

    # -- trace rows -------------------------------------------------------
    def snapshot(self):
        """Record the current state as a trace row, unless the clock has not
        moved since the last row: an event changes the drive, never the
        state."""
        r = self.n_rows
        if r and self.row_t[r - 1] == self.t:
            return
        if r == len(self.row_t):
            self.row_t, self.row_x, self.row_dsq = (
                np.concatenate([c, np.empty_like(c)])
                for c in (self.row_t, self.row_x, self.row_dsq))
        self.row_t[r] = self.t
        self.row_x[r] = self.X
        self.n_rows += 1

    def settle(self, final=False) -> bool:
        """Derive delta_sq for the rows recorded since the last pass,
        FLOW_CHUNK rows at a time, check that it is finite and watch for
        consensus. With stop_at_consensus the trace is cut at the consensus
        row, and settle returns True. The last row waits for the next pass
        unless final: events at its time may still be unprocessed (in the
        next FLOW_CHUNK of the timeline, or in the heap), and a cut at that
        row must keep them."""
        end = self.n_rows if final else self.n_rows - 1
        while self.n_settled < end:
            sl = slice(self.n_settled, min(end, self.n_settled + FLOW_CHUNK))
            t, X = self.row_t[sl], self.row_x[sl]
            if self.kappa0 is not None:
                X = X - (self.prop.exps(t) @ self.kappa0)[:, None, :]
            dsq = np.sum((X * X).reshape(len(t), -1), axis=1)
            bad = np.flatnonzero(~np.isfinite(dsq))
            if len(bad):
                raise DivergenceError(f"simulation diverged at t = {float(t[bad[0]])!r}")
            self.row_dsq[sl] = dsq
            self.n_settled = sl.stop
            hit = self._consensus_watch(t, dsq < self.consensus_tol)
            if hit is not None and self.s.stop_at_consensus:
                self._cut(sl.start + hit)
                return True
        return False

    def _consensus_watch(self, t, below):
        """Index of the first of the rows t that lies at least 1 s after the
        first row of its run of rows below the tolerance, or None. Keeps
        below_since, the start of the run the rows end in, and consensus_time,
        the first such row of that run; a row at the tolerance clears both."""
        k = np.arange(len(t))
        run_start = np.maximum.accumulate(np.where(below, -1, k)) + 1
        t0 = t[np.minimum(run_start, len(t) - 1)]
        if self.below_since is not None:
            t0 = np.where(run_start == 0, self.below_since, t0)
        hit = np.flatnonzero(below & (t - t0 >= 1.0))
        if not below[-1]:
            self.below_since = self.consensus_time = None
        else:
            self.below_since = float(t0[-1])
            if self.consensus_time is None or run_start[-1] > 0:
                late = hit[hit >= run_start[-1]]
                self.consensus_time = float(t[late[0]]) if len(late) else None
        return int(hit[0]) if len(hit) else None

    def _cut(self, r):
        """End the trace at row r, the consensus row: drop later rows and
        the logs after it."""
        self.consensus_time = tc = float(self.row_t[r])
        self.n_rows = self.n_settled = r + 1
        k = bisect_right(self.ev_t, tc)
        del self.ev_t[k:], self.ev_ch[k:], self.ev_kind[k:]
        del self.drive_t[bisect_right(self.drive_t, tc):]

    def _lyapunov_column(self, X):
        """V = 1/2 sum over edges of z^T P z, z the relative states."""
        P = self.s.lyapunov_P
        return np.concatenate([0.5 * np.sum(Z * (Z @ P.T), axis=(1, 2)) for Z in
                               (self.coupling.C.T @ X[sl] for sl in _chunks(len(X)))])

    def finish(self) -> Trace:
        """The trace of the run. Both loops end at the grid instant on the
        horizon, unless stop_at_consensus cut them short."""
        self.settle(final=True)
        n = self.n_rows
        t, X, dsq = self.row_t[:n], self.row_x[:n], self.row_dsq[:n]
        relative = self.coupling.ends is not None and self.s.lyapunov_P is not None
        return Trace(scenario=self.s, t=t, states=X.reshape(n, -1), delta_sq=dsq,
                     lyapunov=self._lyapunov_column(X) if relative else None,
                     events=Log((self.ev_t, self.ev_ch), self.ev_kind, KINDS),
                     drive_changes=self.drive_t,
                     consensus_time=self.consensus_time)


def _build_schedules(s: Scenario) -> list[ChannelSchedule]:
    if s.schedules is not None:     # checked when the scenario was built
        return list(s.schedules)
    p = s.schedule
    # Before any draw: each channel samples at least floor(horizon / h_max)
    # times up to the horizon (one less allows for rounding), and each
    # sample has its delivery.
    samples = max(math.floor(s.horizon / p.h_max) - 1, 0)
    _check_budget(s.snapshot_points + 1 + 2 * s.n_channels * samples, "at least ")
    scheds = [generate_schedule(p.h_min, p.h_max, p.tau_max, s.horizon,
                                s.seed, ch) for ch in range(s.n_channels)]
    for sc in scheds:
        validate_schedule(sc, p.h_max, p.tau_max)
    return scheds


def _check_budget(events: int, bound: str = "") -> None:
    if events > MAX_EVENTS:
        raise RuntimeError(f"event budget exhausted: {bound}{events} events "
                           f"exceed {MAX_EVENTS}")


def _timeline(s: Scenario, scheds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (time, channel, order) of every sample, delivery and grid
    instant up to the horizon, in processing order. channel is -1 on the
    grid; order is 2k for sample k (or grid point k), 2k + 1 for its delivery.
    Sorting by (time, rank, channel, order) matches a priority queue that
    takes each delivery when its sample is taken: one due at its own sample
    instant takes the sample's rank, so it follows that sample."""
    insts = [np.asarray(sc.sample_instants, dtype=float) for sc in scheds]
    counts = [int(np.searchsorted(inst, s.horizon, side="right")) for inst in insts]
    _check_budget(s.snapshot_points + 1 + 2 * sum(counts))   # before any column is built
    parts = [(np.linspace(0.0, s.horizon, s.snapshot_points + 1), RANK_GRID, -1, 0)]
    for ch, (sc, inst, n) in enumerate(zip(scheds, insts, counts)):
        inst = inst[:n]
        due = inst + np.asarray(sc.delays, dtype=float)[:n] + s.input_delay
        parts += [(inst, RANK_SAMPLE, ch, 0),
                  (due, np.where(due == inst, RANK_SAMPLE, RANK_DELIVER), ch, 1)]
    t = np.concatenate([p[0] for p in parts])
    rank, ch, order = (np.concatenate(c) for c in zip(*[
        (np.broadcast_to(r, len(tp)), np.full(len(tp), c), 2 * np.arange(len(tp)) + d)
        for tp, r, c, d in parts]))
    perm = np.lexsort((order, ch, rank, t))
    t, ch, order = t[perm], ch[perm], order[perm]
    n = np.searchsorted(t, s.horizon, side="right")   # drop deliveries past the horizon
    return t[:n], ch[:n], order[:n]


# A diverging state overflows before the divergence check sees it; the check
# reports it, so numpy stays quiet for the whole run.
@np.errstate(over="ignore", invalid="ignore")
def run(s: Scenario) -> Trace:
    """Simulate one scenario. Scheduled runs, event-triggered broadcasts
    included, make one pass over the precomputed timeline (_scheduled);
    continuously monitored triggering queues its events (_monitored)."""
    rows = s.snapshot_points + 1
    if not s.monitored and s.horizon > 0:
        times, chans, orders = _timeline(s, _build_schedules(s))
        # The state steps through every timeline instant, skipped
        # deliveries included; dts[i] is the step into entry i, zero at
        # a repeated time.
        dts = np.diff(times, prepend=0.0)
        rows = int(np.count_nonzero(dts)) + 1
    eng = _Engine(s, rows)
    try:
        if s.monitored and s.horizon > 0:
            _monitored(eng)
        elif s.horizon > 0:
            _scheduled(eng, times, dts, chans, orders)
            del times, dts, chans, orders     # before finish adds its columns
    except (OverflowError, ValueError):
        # a failure inside the loop: raise DivergenceError if a row is not finite
        eng.snapshot()
        eng.settle(final=True)
        raise
    return eng.finish()


def _scheduled(eng: _Engine, times, dts, chans, orders) -> None:
    """One pass over the timeline. In triggered broadcasts each agent
    samples on its own admissible schedule and broadcasts, with delay, only
    when the (optionally capped) trigger condition holds at the sampling
    instant; a delivery whose sample did not fire is skipped.

    The state, drive, clock and row cursor live in locals; they are written
    back to the engine before each settle and when the loop fails. The
    state changes only at a step, so each row is written once, by the
    first event at its time that is not a skipped delivery."""
    em = eng.s.error_model
    triggered = em.kind == "event_trigger"
    queue = [deque() for _ in range(eng.channels)]   # (k, measured)
    last_sent = [None] * eng.channels

    def fire(ch, value):
        """Whether a triggered broadcast is sent on: once the value has
        moved far enough from the last one sent."""
        if last_sent[ch] is not None and not event_trigger_check(
                value, last_sent[ch], em.omega, cap=em.cap):
            return False
        last_sent[ch] = value
        return True

    read, measure, set_hold = eng.coupling.read, eng.measure, eng.set_hold
    log_t, log_ch, log_kind = eng.ev_t.append, eng.ev_ch.append, eng.ev_kind.append
    row_t, row_x = eng.row_t, eng.row_x      # sized for every row of the run
    X, t, r = eng.X, eng.t, eng.n_rows - 1
    if eng.s.startup == "first_sample":
        for ch in range(eng.channels):
            set_hold(ch, read(X, ch))
    drive = eng.drive
    t_row = t       # the time of row r, the last one
    try:
        for sl in _chunks(len(times)):
            # transposed flow maps, contiguous so that dot need not copy them
            eT, pT = (np.ascontiguousarray(m.transpose(0, 2, 1))
                      for m in eng.prop.pairs(dts[sl]))
            for te, ch, order, E, P in zip(times[sl].tolist(), chans[sl].tolist(),
                                           orders[sl].tolist(), eT, pT):
                if te != t:
                    X = X.dot(E) + drive.dot(P)
                    t = te
                if ch >= 0 and order & 1:
                    q = queue[ch]
                    if not q or q[0][0] != order >> 1:
                        continue        # its sample did not fire: no row
                    _, value = q.popleft()
                    eng.t = te          # the time set_hold logs the hold at
                    drive = set_hold(ch, value)
                    log_t(te)
                    log_ch(ch)
                    log_kind(DELIVER)
                elif ch >= 0:
                    value = read(X, ch)
                    if not triggered or fire(ch, value):
                        queue[ch].append((order >> 1, measure(ch, value)))
                        if triggered:
                            log_t(te)
                            log_ch(ch)
                            log_kind(UPDATE)
                    log_t(te)
                    log_ch(ch)
                    log_kind(SAMPLE)
                if te != t_row:
                    r += 1
                    row_t[r] = t_row = te
                    row_x[r] = X
            eng.X, eng.t, eng.n_rows = X, t, r + 1
            if eng.settle():
                break
    except (OverflowError, ValueError):
        eng.X, eng.t, eng.n_rows = X, t, r + 1     # for run's divergence check
        raise


def _monitored(eng: _Engine) -> None:
    """Event-triggered updates with a mandatory dwell time in abstract_coupled
    mode: each subsystem monitors its own state continuously after the dwell
    window, with trigger checks every dwell/50 and bisection refinement of
    the crossing instant; updates are delay-free. Every state is one forward
    flow from the last event's (eng.t, eng.X), so each row is written once."""
    s, em = eng.s, eng.s.error_model
    dwell = em.dwell
    dt_check = dwell / 50.0
    # each channel's events lie at least dt_check apart
    _check_budget(s.snapshot_points + 1
                  + eng.channels * (math.ceil(s.horizon / dt_check) + 2))
    # (time, rank, channel) is unique: one pending event per channel; times
    # are Python floats, as the event log's are
    heap = [(tg, RANK_GRID, -1)
            for tg in np.linspace(0.0, s.horizon, s.snapshot_points + 1).tolist()]
    # first update at t = 0 for every channel
    for ch in range(eng.channels):
        eng.set_hold(ch, eng.X[ch])
        eng.log(0.0, ch, UPDATE)
        heap.append((dwell, RANK_DWELL_EXPIRE, ch))
    heapq.heapify(heap)

    def flow(t):
        """The state at t >= eng.t under the held drive. ndarray.dot
        reaches the same BLAS products as @ with less call overhead."""
        if t == eng.t:
            return eng.X
        expA, phi = eng.prop.pair(t - eng.t)
        return eng.X.dot(expA.T) + eng.drive.dot(phi.T)

    def triggered(ch, X):
        return event_trigger_check(X[ch], eng.H[ch], em.omega, cap=em.cap)

    while heap:
        te, rank, ch = heapq.heappop(heap)
        if te > s.horizon:
            break
        X = flow(te)
        watched = rank in (RANK_DWELL_EXPIRE, RANK_TRIGGER_CHECK)
        update = watched and triggered(ch, X)
        if update and rank == RANK_TRIGGER_CHECK:
            # Bisect for the crossing, but not to before the last event:
            # every event up to it has been processed, and the drive held since.
            lo = max(te - dt_check, eng.t)
            X_lo = flow(lo)
            if triggered(ch, X_lo):
                te, X = lo, X_lo
            while te - lo > TRIGGER_REFINE_TOL:
                mid = 0.5 * (lo + te)
                X_mid = flow(mid)
                if triggered(ch, X_mid):
                    te, X = mid, X_mid
                else:
                    lo = mid
        eng.t, eng.X = te, X
        eng.snapshot()
        if update:
            eng.set_hold(ch, X[ch])
            eng.log(te, ch, UPDATE)
            heapq.heappush(heap, (te + dwell, RANK_DWELL_EXPIRE, ch))
        elif watched:
            heapq.heappush(heap, (te + dt_check, RANK_TRIGGER_CHECK, ch))
        if eng.n_rows - eng.n_settled > FLOW_CHUNK and eng.settle():
            break
