"""Exact event-driven simulation of asynchronously sampled, delayed,
error-corrupted, zero-order-held multi-agent dynamics.

Between events every unit evolves exactly (to matrix-exponential accuracy)
under a constant drive: x(t + dt) = e^{A dt} x(t) + Phi(dt) v with
Phi(dt) = integral of e^{A s}. Sample events read the true state and apply
the error model; deliver events update the zero-order holds of every
controller using that channel simultaneously.

Scheduled modes draw every sample instant and delay before the run, so
their event timeline is sorted once and its flow maps are evaluated in
vectorized chunks; only continuously monitored triggering queues events.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np
import scipy.linalg as sla

from .graphs import InteractionGraph, build_algebra, is_connected
from .matan import LtiModel
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

MODES = ("abstract_coupled", "relative_edges", "broadcast",
         "event_triggered", "saturated")


class ScenarioError(ValueError):
    """Inconsistent scenario description."""


class DivergenceError(RuntimeError):
    """The simulated state stopped being finite."""


@dataclass(frozen=True)
class ScheduleParams:
    h_min: float
    h_max: float
    tau_max: float


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
        if self.input_delay < 0:
            raise ScenarioError("input delay must be nonnegative")
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
        em = self.error_model
        if em.kind == "event_trigger":
            if self.mode not in ("abstract_coupled", "event_triggered", "broadcast"):
                raise ScenarioError("event triggering supports abstract or broadcast modes")
            if self.mode != "broadcast" and self.input_delay != 0.0:
                raise ScenarioError("abstract event-triggered mode excludes delays")
            if (self.mode == "broadcast" and self.schedule is not None
                    and em.dwell > self.schedule.h_min + 1e-12):
                raise ScenarioError("dwell time must not exceed the minimum sampling gap")

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


@dataclass
class Trace:
    """Time-stamped log of one simulation run."""

    scenario: Scenario
    t: np.ndarray
    states: np.ndarray                 # (len, units * N)
    delta_sq: np.ndarray
    lyapunov: np.ndarray | None
    delta_tilde_sq: np.ndarray | None
    events: list                       # (time, channel, kind)
    drive_changes: list                # (time, drive matrix snapshot)
    held_changes: list                 # (time, channel, held value)
    consensus_time: float | None = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _chunks(n: int):
    """Consecutive slices of at most FLOW_CHUNK covering range(n)."""
    return (slice(i, i + FLOW_CHUNK) for i in range(0, n, FLOW_CHUNK))


class Propagator:
    """Exact flow maps (e^{A dt}, Phi(dt)) for one system matrix.

    Uses the eigendecomposition of A when it is well conditioned (covers
    normal and diagonal matrices, including A = 0, vectorized over many
    steps at once); falls back to the block-matrix exponential otherwise.
    """

    COND_LIMIT = 1e6

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)
        self.n = self.A.shape[0]
        self._diag = False
        try:
            w, V = np.linalg.eig(self.A)
            Vi = np.linalg.inv(V)
            cond = np.linalg.cond(V)
            recon = np.linalg.norm(V @ np.diag(w) @ Vi - self.A)
            if cond < self.COND_LIMIT and recon <= 1e-10 * (1.0 + np.linalg.norm(self.A)):
                self.w, self.V, self.Vi = w, V, Vi
                self._diag = True
        except np.linalg.LinAlgError:
            pass
        if not self._diag:
            blk = np.zeros((2 * self.n, 2 * self.n))
            blk[: self.n, : self.n] = self.A
            blk[: self.n, self.n:] = np.eye(self.n)
            self._blk = blk

    def pair(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """(e^{A dt}, integral of e^{A s} over [0, dt]); dt may be negative."""
        expA, phi = self.pairs([dt])
        return expA[0], phi[0]

    def pairs(self, dts) -> tuple[np.ndarray, np.ndarray]:
        """Stacked flow maps of a 1-d sequence of steps: two (len, n, n)
        arrays whose k-th matrices are the pair of dts[k]."""
        dts = np.asarray(dts, dtype=float)[:, None]
        if self._diag:
            wd = dts * self.w
            ew = np.exp(wd)
            small = np.abs(wd) < 1e-8
            phiw = np.where(small, dts * (1.0 + wd / 2.0 + wd * wd / 6.0),
                            (ew - 1.0) / np.where(small, 1.0, self.w))
            expA = (self.V * ew[:, None, :]) @ self.Vi
            phi = (self.V * phiw[:, None, :]) @ self.Vi
            return expA.real, phi.real
        E = sla.expm(self._blk * dts[:, :, None])
        return E[:, : self.n, : self.n], E[:, : self.n, self.n:]


class _Engine:
    """State, holds and trace rows shared by all simulation modes.

    The event loops record only (t, X) per row; settle() derives every other
    column in vectorized passes over the recorded rows."""

    def __init__(self, s: Scenario, rows: int):
        self.s = s
        N = s.model.N
        self.N = N
        self.units = s.n_units
        self.channels = s.n_channels
        self.X = s.x0.reshape(self.units, N).copy()
        self.prop = Propagator(s.model.A)
        self.consensus_mode = s.mode in ("relative_edges", "broadcast")
        # The coupling sums to zero, so the mean evolves on its own:
        # kappa(t) = e^{At} kappa0.
        self.kappa0 = self.X.mean(axis=0) if self.consensus_mode else None
        self.algebra = build_algebra(s.graph) if self.consensus_mode else None
        if s.mode == "relative_edges":
            self.couple = self.algebra.incidence           # n x m
        elif s.mode == "broadcast":
            self.couple = self.algebra.graph_laplacian     # n x n
        else:
            self.couple = s.coupling                       # m x m
        self.KT = (s.model.B @ s.gain).T if self.consensus_mode else s.gain.T
        self.H = np.zeros((self.channels, N))
        self.H_live = np.zeros(self.channels, dtype=bool)
        self.drive = np.zeros((self.units, N))
        self.t = 0.0
        self.events = []
        self.drive_changes = [(0.0, self.drive)]
        self.held_changes = []
        # preallocated trace columns: rows[:n_rows] hold (t, X), and
        # rows[:n_settled] also the columns that settle() derives
        self.n_rows = self.n_settled = 0
        self.row_t = np.empty(rows)
        self.row_x = np.empty((rows, self.units, N))
        self.row_dsq = np.empty(rows)
        self.lyapunov_P = s.lyapunov_P if s.mode == "relative_edges" else None
        self.track_tilde = s.mode == "broadcast"
        # columns a mode does not use stay empty
        self.row_tilde = np.empty(rows if self.track_tilde else 0)
        self.row_v = np.empty(rows if self.lyapunov_P is not None else 0)
        if self.track_tilde:
            # disagreements held since the last deliveries, and the
            # deliveries not yet settled: (time, channel, sampled value,
            # sampling time)
            self.delta_tilde = self.X - self.kappa0
            self.tilde_sq = float((self.delta_tilde ** 2).sum())
            self.deliveries = []
        self.err_rngs = [channel_rng(s.seed, ch, stream=1)
                         for ch in range(self.channels)]
        d0 = self.X - self.kappa0 if self.consensus_mode else self.X
        self.consensus_tol = (s.consensus_tol if s.consensus_tol is not None
                              else 1e-8 * (1.0 + float(np.sum(d0 * d0))))
        self.below_since = None
        self.consensus_time = None
        self.stopped = False    # cut at the consensus row (stop_at_consensus)
        self.snapshot()     # the row at t = 0; holds set at t = 0 do not move it

    # -- state ------------------------------------------------------------
    def advance(self, t_new, expA=None, phi=None):
        """Move the state to t_new under the held drive (flow maps optional)."""
        if t_new != self.t:
            if expA is None:
                expA, phi = self.prop.pair(t_new - self.t)
            self.X = self.X @ expA.T + self.drive @ phi.T
            self.t = t_new

    def state_at(self, t_query):
        """State matrix at t_query under the current constant drive."""
        dt = t_query - self.t
        if dt == 0.0:
            return self.X
        expA, phi = self.prop.pair(dt)
        return self.X @ expA.T + self.drive @ phi.T

    def read_channel(self, ch, X=None):
        X = self.X if X is None else X
        if self.s.mode == "relative_edges":
            tail, head = self.s.graph.edges[ch]
            return X[head - 1] - X[tail - 1]
        return X[ch]

    def recompute_drive(self):
        H = self.H
        if self.s.mode == "saturated":
            H = H.copy()
            for j in range(self.channels):
                if self.H_live[j]:
                    _, H[j] = saturation_scale(H[j], self.s.saturation)
        couple = self.couple
        if self.s.mode == "broadcast" and not np.all(self.H_live):
            # Before an agent's first broadcast arrives, the pairwise
            # controller terms involving it are absent (not zero-valued):
            # restrict the Laplacian to edges with both holds live.
            couple = self._masked_laplacian()
        self.drive = -(couple @ (H @ self.KT))
        self.drive_changes.append((self.t, self.drive))

    def _masked_laplacian(self):
        inc = self.algebra.incidence
        live = np.abs(inc).T @ ~self.H_live == 0     # no endpoint without a hold
        return (inc * live) @ inc.T

    def set_hold(self, ch, value):
        """Hold value on channel ch; value is kept, not copied, so callers
        pass an array that nothing changes afterwards."""
        self.H[ch] = value
        self.H_live[ch] = True
        self.held_changes.append((self.t, ch, value))
        self.recompute_drive()

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
        """Record the current state as a trace row. At the time of the last
        row, refresh that row instead, so the post-event state wins."""
        r = self.n_rows - 1
        if r < 0 or self.row_t[r] != self.t:
            r += 1
            if r == len(self.row_t):
                self.row_t, self.row_x, self.row_dsq, self.row_tilde, self.row_v = (
                    np.concatenate([c, np.empty_like(c)]) for c in
                    (self.row_t, self.row_x, self.row_dsq, self.row_tilde, self.row_v))
            self.n_rows += 1
            self.row_t[r] = self.t
        self.row_x[r] = self.X

    def settle(self, final=False):
        """Derive delta_sq, delta_tilde_sq and V for the rows recorded since
        the last pass, FLOW_CHUNK rows at a time, check that they are finite
        and run the consensus watch over them. The last row waits for the
        next pass unless final, since an event at its time may still refresh
        it. With stop_at_consensus the trace is cut at the consensus row."""
        end = self.n_rows if final else self.n_rows - 1
        while self.n_settled < end:
            sl = slice(self.n_settled, min(end, self.n_settled + FLOW_CHUNK))
            t, X = self.row_t[sl], self.row_x[sl]
            if self.consensus_mode:
                X = X - (self.prop.pairs(t)[0] @ self.kappa0)[:, None, :]
            dsq = np.sum((X * X).reshape(len(t), -1), axis=1)
            bad = np.flatnonzero(~np.isfinite(dsq))
            if len(bad):
                raise DivergenceError(f"simulation diverged at t = {float(t[bad[0]])!r}")
            self.row_dsq[sl] = dsq
            if self.track_tilde:
                self.row_tilde[sl] = self._tilde_column(t)
            if self.lyapunov_P is not None:
                # 1/2 sum over edges of z^T P z, z the relative states
                Z = self.couple.T @ self.row_x[sl]
                self.row_v[sl] = 0.5 * np.sum(Z * (Z @ self.lyapunov_P.T), axis=(1, 2))
            stop = self._consensus_watch(t, dsq < self.consensus_tol)
            self.n_settled = sl.stop
            if stop is not None:
                self._cut(sl.start + stop)
                return

    def _tilde_column(self, t):
        """delta_tilde_sq at row times t; the held disagreements change only
        at deliveries, each to the sampled value minus kappa at sampling."""
        n = bisect_right(self.deliveries, t[-1], key=itemgetter(0))
        due, self.deliveries = self.deliveries[:n], self.deliveries[n:]
        levels = [self.tilde_sq]
        if due:
            kappa = self.prop.pairs([d[3] for d in due])[0] @ self.kappa0
            for (_, ch, value, _), k in zip(due, kappa):
                self.delta_tilde[ch] = value - k
                levels.append(float((self.delta_tilde ** 2).sum()))
            self.tilde_sq = levels[-1]
        return np.take(levels, np.searchsorted([d[0] for d in due], t, side="right"))

    def _consensus_watch(self, t, below):
        """Consensus is reached at the first row of a run of rows below the
        tolerance that lies at least 1 s after the run's first row; a row
        above the tolerance clears it. Rows are in increasing time order.
        Returns the index of the consensus row when the run stops there."""
        k = np.arange(len(t))
        run_start = np.maximum.accumulate(np.where(below, -1, k)) + 1
        t0 = t[np.minimum(run_start, len(t) - 1)]
        if self.below_since is not None:
            t0 = np.where(run_start == 0, self.below_since, t0)
        hit = below & (t - t0 >= 1.0)
        new = np.flatnonzero(hit & ~np.append(self.consensus_time is not None, hit[:-1]))
        if self.s.stop_at_consensus and len(new):
            self.consensus_time = float(t[new[0]])
            return int(new[0])
        self.below_since = float(t0[-1]) if below[-1] else None
        if not hit[-1]:
            self.consensus_time = None
        elif len(new) and new[-1] >= run_start[-1]:
            self.consensus_time = float(t[new[-1]])

    def _cut(self, r):
        """End the trace at row r: drop later rows and the changes after it."""
        tc = self.row_t[r]
        self.n_rows = self.n_settled = r + 1
        for log in (self.events, self.drive_changes, self.held_changes):
            del log[bisect_right(log, tc, key=itemgetter(0)):]
        self.stopped = True

    def raise_if_diverged(self):
        """Raise DivergenceError if the state or a recorded row is not
        finite; for failures inside an event loop, whose rows the
        statistics pass checks only later."""
        self.snapshot()
        self.settle(final=True)

    def finish(self) -> Trace:
        if self.t < self.s.horizon and not self.stopped:
            self.advance(self.s.horizon)
            self.snapshot()
        self.settle(final=True)
        n = self.n_rows
        return Trace(scenario=self.s, t=self.row_t[:n],
                     states=self.row_x[:n].reshape(n, -1),
                     delta_sq=self.row_dsq[:n],
                     lyapunov=self.row_v[:n] if self.lyapunov_P is not None else None,
                     delta_tilde_sq=self.row_tilde[:n] if self.track_tilde else None,
                     events=self.events, drive_changes=self.drive_changes,
                     held_changes=self.held_changes, consensus_time=self.consensus_time)


def _build_schedules(s: Scenario) -> list[ChannelSchedule]:
    if s.schedules is not None:
        scheds = list(s.schedules)
        if len(scheds) != s.n_channels:
            raise ScenarioError(f"expected {s.n_channels} schedules, got {len(scheds)}")
        for sc in scheds:
            # structural admissibility only; no (h, tau) caps are declared
            validate_schedule(sc, math.inf, math.inf)
    elif s.schedule is not None:
        p = s.schedule
        scheds = [generate_schedule(p.h_min, p.h_max, p.tau_max, s.horizon,
                                    s.seed, ch) for ch in range(s.n_channels)]
        for sc in scheds:
            validate_schedule(sc, p.h_max, p.tau_max)
    else:
        raise ScenarioError("scenario needs schedule parameters or explicit schedules")
    return scheds


def _check_budget(events: int) -> None:
    if events > MAX_EVENTS:
        raise RuntimeError(f"event budget exhausted: {events} events exceed {MAX_EVENTS}")


def _timeline(s: Scenario, scheds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (time, channel, order) of every sample, delivery and grid
    instant up to the horizon, in processing order. channel is -1 on the
    grid; order is 2k for sample k (or grid point k), 2k + 1 for its delivery.
    Sorting by (time, rank, channel, order) matches a priority queue that
    takes each delivery when its sample is taken: one due at its own sample
    instant takes the sample's rank, so it follows that sample."""
    parts = [(np.linspace(0.0, s.horizon, s.snapshot_points + 1), RANK_GRID, -1, 0)]
    for ch, sc in enumerate(scheds):
        inst = np.asarray(sc.sample_instants, dtype=float)
        inst = inst[: np.searchsorted(inst, s.horizon, side="right")]
        due = inst + np.asarray(sc.delays, dtype=float)[: len(inst)] + s.input_delay
        parts += [(inst, RANK_SAMPLE, ch, 0),
                  (due, np.where(due == inst, RANK_SAMPLE, RANK_DELIVER), ch, 1)]
    t = np.concatenate([p[0] for p in parts])
    _check_budget(len(t))
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
    """Simulate one scenario. The scheduled modes, event-triggered
    broadcasts included, make one pass over the precomputed timeline
    (_scheduled); the continuously monitored trigger modes queue their
    events (_monitored)."""
    monitored = s.error_model.kind == "event_trigger" and s.mode != "broadcast"
    rows = s.snapshot_points + 2
    if not monitored:
        if s.error_model.kind == "event_trigger" and s.schedule is None and s.schedules is None:
            raise ScenarioError("scheduled event triggering needs sampling schedules")
        if s.horizon > 0:
            times, chans, orders = _timeline(s, _build_schedules(s))
            # The state steps through every timeline instant, skipped
            # deliveries included; dts[i] is the step into entry i, zero at
            # a repeated time.
            dts = np.diff(times, prepend=0.0)
            rows = int(np.count_nonzero(dts)) + 2
    eng = _Engine(s, rows)
    try:
        if monitored and s.horizon > 0:
            _monitored(eng)
        elif s.horizon > 0:
            _scheduled(eng, times, dts, chans, orders)
    except (OverflowError, ValueError):
        eng.raise_if_diverged()
        raise
    return eng.finish()


def _scheduled(eng: _Engine, times, dts, chans, orders) -> None:
    """One pass over the timeline. In triggered broadcasts each agent
    samples on its own admissible schedule and broadcasts, with delay, only
    when the (optionally capped) trigger condition holds at the sampling
    instant; a delivery whose sample did not fire is skipped."""
    em = eng.s.error_model
    triggered = em.kind == "event_trigger"
    queue = [deque() for _ in range(eng.channels)]   # (k, measured, sampled, time)
    last_sent = [None] * eng.channels

    def fire(ch, value):
        """Whether a sample is sent on: always, except that a triggered
        broadcast waits until the value has moved far enough from the last."""
        if not triggered:
            return True
        if last_sent[ch] is not None and not event_trigger_check(
                value, last_sent[ch], em.omega, cap=em.cap):
            return False
        last_sent[ch] = value
        return True

    if eng.s.startup == "first_sample":
        for ch in range(eng.channels):
            eng.set_hold(ch, eng.read_channel(ch))
    for sl in _chunks(len(times)):
        expA, phi = eng.prop.pairs(dts[sl])
        for j, (te, ch, order) in enumerate(zip(times[sl].tolist(), chans[sl].tolist(),
                                                orders[sl].tolist())):
            if te != eng.t:
                eng.advance(te, expA[j], phi[j])
            if ch >= 0 and order & 1:
                q = queue[ch]
                if not q or q[0][0] != order >> 1:
                    continue        # its sample did not fire
                _, value, sampled, t_sampled = q.popleft()
                eng.set_hold(ch, value)
                if eng.track_tilde:
                    eng.deliveries.append((te, ch, sampled, t_sampled))
                eng.events.append((te, ch, "deliver"))
            elif ch >= 0:
                value = eng.read_channel(ch)
                if fire(ch, value):
                    queue[ch].append((order >> 1, eng.measure(ch, value), value, te))
                    if triggered:
                        eng.events.append((te, ch, "update"))
                eng.events.append((te, ch, "sample"))
            eng.snapshot()
        eng.settle()
        if eng.stopped:
            break


def _monitored(eng: _Engine) -> None:
    """Event-triggered updates with a mandatory dwell time, in the abstract
    modes: each subsystem monitors its own state continuously after the
    dwell window, with trigger checks every dwell/50 and bisection
    refinement of the crossing instant; updates are delay-free."""
    s, em = eng.s, eng.s.error_model
    dwell = em.dwell
    dt_check = dwell / 50.0
    # each channel's events lie at least dt_check apart
    _check_budget(s.snapshot_points + 1
                  + eng.channels * (math.ceil(s.horizon / dt_check) + 2))
    # (time, rank, channel) is unique: one pending event per channel
    heap = [(tg, RANK_GRID, -1)
            for tg in np.linspace(0.0, s.horizon, s.snapshot_points + 1)]
    # first update at t = 0 for every channel
    for ch in range(eng.channels):
        eng.set_hold(ch, eng.read_channel(ch))
        eng.events.append((0.0, ch, "update"))
        heap.append((dwell, RANK_DWELL_EXPIRE, ch))
    heapq.heapify(heap)

    def triggered(ch, X):
        return event_trigger_check(eng.read_channel(ch, X), eng.H[ch],
                                   em.omega, cap=em.cap)

    while heap and not eng.stopped:
        te, rank, ch = heapq.heappop(heap)
        if te > s.horizon:
            break
        eng.advance(te)
        if rank in (RANK_DWELL_EXPIRE, RANK_TRIGGER_CHECK):
            if triggered(ch, eng.X):
                if rank == RANK_TRIGGER_CHECK:
                    # Refine the crossing, but not to before the last row:
                    # every event up to it has been processed. The last
                    # drive change and the end of this channel's dwell
                    # window each have a row, so the bracket lies inside
                    # the constant-drive window.
                    lo = max(te - dt_check, float(eng.row_t[eng.n_rows - 1]))
                    hi = te
                    if lo < hi and not triggered(ch, eng.state_at(lo)):
                        while hi - lo > TRIGGER_REFINE_TOL:
                            mid = 0.5 * (lo + hi)
                            if triggered(ch, eng.state_at(mid)):
                                hi = mid
                            else:
                                lo = mid
                        te = hi
                    else:
                        te = lo if lo < hi else te
                    eng.advance(te)
                eng.set_hold(ch, eng.read_channel(ch))
                eng.events.append((te, ch, "update"))
                heapq.heappush(heap, (te + dwell, RANK_DWELL_EXPIRE, ch))
            else:
                heapq.heappush(heap, (te + dt_check, RANK_TRIGGER_CHECK, ch))
        eng.snapshot()
        if eng.n_rows - eng.n_settled > FLOW_CHUNK:
            eng.settle()


def metrics(trace: Trace, window: float = 0.1) -> dict:
    """Derived metric series: per-window event counts, the consensus flag,
    and trailing minima of the consensus errors."""
    s = trace.scenario
    counts = {}
    if s.horizon > 0:
        edges = np.arange(0.0, s.horizon + window, window)
        for kind in ("sample", "deliver", "update"):
            times = [t for t, _, k in trace.events if k == kind]
            if times:
                counts[kind] = np.histogram(times, bins=edges)[0]
    out = {
        "delta_sq": trace.delta_sq,
        "lyapunov": trace.lyapunov,
        "delta_tilde_sq": trace.delta_tilde_sq,
        "event_counts": counts,
        "consensus": trace.consensus_time is not None,
        "consensus_time": trace.consensus_time,
        "final_delta_sq": float(trace.delta_sq[-1]) if len(trace.delta_sq) else None,
    }
    if trace.delta_tilde_sq is not None and len(trace.t):
        tail = trace.t >= trace.t[-1] - 1.0
        out["trailing_min_delta_tilde_sq"] = float(trace.delta_tilde_sq[tail].min())
    return out


def min_update_gap(trace: Trace) -> float:
    """Smallest gap between consecutive updates of the same channel in an
    event-triggered run (the Zeno-freeness witness)."""
    per_channel: dict[int, list[float]] = {}
    for t, ch, kind in trace.events:
        if kind == "update":
            per_channel.setdefault(ch, []).append(t)
    gaps = [np.diff(ts).min() for ts in per_channel.values() if len(ts) > 1]
    return float(min(gaps)) if gaps else math.inf


def average_state_error(trace: Trace) -> float:
    """Max over snapshots of || mean_i x_i(t) - e^{At} mean_i x_i(0) ||."""
    s = trace.scenario
    if s.mode not in ("relative_edges", "broadcast"):
        raise ScenarioError("average-state invariance applies to consensus modes")
    N = s.model.N
    n = s.graph.n
    prop = Propagator(s.model.A)
    mean0 = s.x0.reshape(n, N).mean(axis=0)
    means = trace.states.reshape(-1, n, N).mean(axis=1)
    worst = 0.0
    for sl in _chunks(len(trace.t)):
        expA, _ = prop.pairs(trace.t[sl])
        drift = np.linalg.norm(means[sl] - expA @ mean0, axis=1)
        worst = max(worst, float(drift.max(initial=0.0)))
    return worst
