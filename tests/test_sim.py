import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter, deque
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import solve_ivp

from asynclab import matan, scenarios, sim
from asynclab.graphs import build_algebra, cycle_graph, path_graph
from asynclab.matan import LtiModel
from asynclab.sampling import (ChannelSchedule, ErrorModel, apply_additive_error,
                               apply_multiplicative_error, channel_rng,
                               event_trigger_check, generate_schedule)
from asynclab.scenarios import builtin_example, parse_scenario
from asynclab.sim import (DivergenceError, Scenario, ScenarioError,
                          ScheduleParams, run)

from test_matan import scipy_expm_integral

OSCILLATOR = LtiModel(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]])
INTEGRATOR = LtiModel(A=[[0.0]], B=[[1.0]])


def _drive_reference(tr):
    """Every drive of the run, rebuilt from the trace alone at each hold it
    sets: the zero drive at t = 0, a hold of each channel's value at t = 0
    in a first_sample start, then one per delivery, or per update of a
    monitored run. A delivery holds its channel's value at the sampling
    instant, measured and then saturated as the scenario says; the
    measurement replays the channel's error stream in sample order, as the
    engine draws it. A triggered broadcast queues only the samples that
    fired (its updates), and a monitored update holds the state it reads
    at once. The drive couples all holds; a broadcast couples only the
    edges whose two agents have a hold. Returns the drives and the final
    holds."""
    s = tr.scenario
    em = s.error_model
    X = tr.states.reshape(len(tr.t), s.n_units, s.model.N)
    row = {t: k for k, t in enumerate(tr.t.tolist())}
    inc = build_algebra(s.graph).incidence if s.graph is not None else None
    KT = s.gain.T if s.mode == "abstract_coupled" else (s.model.B @ s.gain).T
    rngs = [channel_rng(s.seed, ch, stream=1) for ch in range(s.n_channels)]

    def measured(ch, Xk):
        if s.mode == "relative_edges":
            tail, head = s.graph.edges[ch]
            v = Xk[head - 1] - Xk[tail - 1]
        else:
            v = Xk[ch].copy()
        if em.kind == "log_quantizer":      # the masked quantizer law
            nz = v != 0.0
            logs = np.log(np.abs(v[nz])) / np.log(em.quant_level)
            snapped = np.round(logs)
            exps = np.where(np.abs(logs - snapped) < 1e-9, snapped, np.floor(logs))
            v[nz] = np.sign(v[nz]) * np.array([em.quant_level ** int(e) for e in exps])
        elif em.kind == "multiplicative":
            v = apply_multiplicative_error(v, em.omega, rngs[ch],
                                           adversarial=em.adversarial)[0]
        elif em.kind == "additive":
            v = apply_additive_error(v, em.delta_e, rngs[ch], adversarial=em.adversarial)[0]
        return v

    H = np.zeros((s.n_channels, s.model.N))
    live = set()

    def hold(ch, v):
        if s.saturation is not None:
            peak = np.abs(v).max()
            v = v if peak == 0 else (1.0 / math.ceil(peak / s.saturation)) * v
        H[ch] = v
        live.add(ch)
        if s.mode == "relative_edges":
            couple = inc
        elif s.mode == "broadcast":
            couple = np.zeros((s.n_units, s.n_units))
            for i, j in s.graph.edges:
                if {i - 1, j - 1} <= live:
                    couple[[i - 1, j - 1], [i - 1, j - 1]] += 1.0
                    couple[[i - 1, j - 1], [j - 1, i - 1]] -= 1.0
        else:
            couple = s.coupling
        drives.append(-(couple @ (H @ KT)))

    drives = [np.zeros((s.n_units, s.model.N))]
    if s.startup == "first_sample":
        for ch in range(s.n_channels):
            hold(ch, measured(ch, X[0]))
    queued = "update" if em.kind == "event_trigger" else "sample"
    pending = [deque() for _ in range(s.n_channels)]
    for t, ch, kind in tr.events:
        if kind == queued:
            pending[ch].append(measured(ch, X[row[t]]))
        if kind == "deliver" or s.monitored:
            hold(ch, pending[ch].popleft())
    return drives, H


def ivp_oracle_final_state(trace, rtol=1e-12, atol=1e-13):
    """Independent reconstruction of the final state: piecewise integration
    of dX/dt = X A^T + V, each drive V rebuilt from the trace alone
    (_drive_reference) and held from the time the run set its hold
    (trace.drive_changes)."""
    s = trace.scenario
    A = s.model.A
    units = s.n_units
    X = s.x0.reshape(units, s.model.N).astype(float)
    drives, _ = _drive_reference(trace)
    assert len(drives) == len(trace.drive_changes)
    # last drive wins at duplicated change times
    segs = dict(zip(trace.drive_changes, drives))
    times = sorted(segs)
    t_end = float(trace.t[-1])
    knots = [t for t in times if t < t_end] + [t_end]
    for k in range(len(knots) - 1):
        t0, t1 = knots[k], knots[k + 1]
        if t1 <= t0:
            continue
        V = segs[knots[k]]
        rhs = lambda t, y: (y.reshape(units, -1) @ A.T + V).ravel()
        sol = solve_ivp(rhs, (t0, t1), X.ravel(), rtol=rtol, atol=atol,
                        method="DOP853")
        X = sol.y[:, -1].reshape(units, -1)
    return X.ravel()


def min_update_gap(trace) -> float:
    """Smallest gap between consecutive updates of the same channel in an
    event-triggered run (the Zeno-freeness witness)."""
    per_channel: dict[int, list[float]] = {}
    for t, ch, kind in trace.events:
        if kind == "update":
            per_channel.setdefault(ch, []).append(t)
    gaps = [np.diff(ts).min() for ts in per_channel.values() if len(ts) > 1]
    return float(min(gaps)) if gaps else math.inf


def average_state_error(trace) -> float:
    """Max over snapshots of || mean_i x_i(t) - e^{At} mean_i x_i(0) ||."""
    s = trace.scenario
    if s.mode not in ("relative_edges", "broadcast"):
        raise ScenarioError("average-state invariance applies to consensus modes")
    N = s.model.N
    n = s.graph.n
    prop = sim.Propagator(s.model.A)
    mean0 = s.x0.reshape(n, N).mean(axis=0)
    means = trace.states.reshape(-1, n, N).mean(axis=1)
    worst = 0.0
    for sl in sim._chunks(len(trace.t)):
        drift = np.linalg.norm(means[sl] - prop.exps(trace.t[sl]) @ mean0, axis=1)
        worst = max(worst, float(drift.max(initial=0.0)))
    return worst


def _delta_tilde_reference(tr):
    """Theorem 4's broadcast error delta_tilde^2 at each row, from the trace
    alone: each agent holds the disagreement of its last delivered
    broadcast, the state it sent minus kappa at that time, and its initial
    disagreement before any arrives."""
    s = tr.scenario
    X = tr.states.reshape(len(tr.t), s.n_units, s.model.N)
    row = {t: k for k, t in enumerate(tr.t.tolist())}
    kappa0 = X[0].mean(axis=0)
    sent = "update" if s.error_model.kind == "event_trigger" else "sample"
    held, pending, levels = X[0] - kappa0, [deque() for _ in range(s.n_units)], []
    events = deque(tr.events)
    for tk in tr.t.tolist():
        while events and events[0][0] <= tk:
            t, ch, kind = events.popleft()
            if kind == sent:
                pending[ch].append(t)
            elif kind == "deliver":
                ts = pending[ch].popleft()
                held[ch] = X[row[ts], ch] - sla.expm(s.model.A * ts) @ kappa0
        levels.append(float((held ** 2).sum()))
    return np.array(levels)


def random_scenario(rng):
    n = int(rng.integers(1, 5))
    N = int(rng.integers(1, 4))
    A = rng.uniform(-1.0, 1.0, size=(N, N))
    K = rng.uniform(-0.5, 0.5, size=(N, N))
    G = rng.uniform(-0.5, 0.5, size=(n, n))
    x0 = rng.uniform(-1.0, 1.0, size=n * N)
    kind = rng.choice(["none", "multiplicative", "additive"])
    if kind == "multiplicative":
        em = ErrorModel.multiplicative(float(rng.uniform(0.0, 0.2)))
    elif kind == "additive":
        em = ErrorModel.additive(float(rng.uniform(0.0, 0.1)))
    else:
        em = ErrorModel.none()
    return Scenario(
        mode="abstract_coupled",
        model=LtiModel(A=A, B=np.eye(N)),
        gain=K, x0=x0,
        horizon=float(rng.uniform(0.5, 3.0)),
        seed=int(rng.integers(0, 10000)),
        coupling=G,
        schedule=ScheduleParams(h_min=0.05, h_max=0.15, tau_max=0.04),
        error_model=em,
        snapshot_points=20,
    )


def test_rest_state_stays_at_rest():
    s = Scenario(mode="abstract_coupled", model=INTEGRATOR,
                 gain=np.zeros((1, 1)), x0=[0.7], horizon=2.0,
                 coupling=np.eye(1),
                 schedule=ScheduleParams(0.1, 0.1, 0.0))
    tr = run(s)
    assert np.allclose(tr.states, 0.7)


def test_single_oscillator_norm_preserved():
    s = Scenario(mode="abstract_coupled", model=OSCILLATOR,
                 gain=np.zeros((2, 2)), x0=[1.0, 0.5], horizon=5.0,
                 coupling=np.eye(1),
                 schedule=ScheduleParams(0.1, 0.2, 0.05))
    tr = run(s)
    norms = np.linalg.norm(tr.states, axis=1)
    assert np.allclose(norms, norms[0], atol=1e-10)


def test_exactness_against_ivp_oracle():
    rng = np.random.default_rng(99)
    for _ in range(10):
        s = random_scenario(rng)
        tr = run(s)
        expected = ivp_oracle_final_state(tr)
        assert np.linalg.norm(tr.states[-1] - expected) < 1e-8


def test_determinism_bit_identical():
    rng = np.random.default_rng(3)
    s = random_scenario(rng)
    a, b = run(s), run(s)
    assert a.events == b.events
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.t, b.t)


def _triggered_oscillator_doc(seed):
    """Example 1's oscillators and design as a capped triggered broadcast
    with an input delay: its windows' batched flow products sum over N = 2."""
    doc = scenarios.example1_doc(seed)
    doc.update(mode="broadcast", input_delay=0.02,
               error_model={"kind": "event_trigger", "omega": 0.05, "dwell": 0.005,
                            "cap": 0.05})
    return doc


def _example_digests(horizon):
    """SHA-256 of every trace column, event and drive-change time of
    examples 1-3 and of the triggered oscillator broadcast (seed 5) over
    the horizon, keyed by example number ("4" for the broadcast)."""
    out = {}
    for number in (1, 2, 3, 4):
        doc = builtin_example(number, seed=5)[0] if number < 4 else _triggered_oscillator_doc(5)
        doc["horizon"] = horizon
        tr = run(parse_scenario(doc))
        h = hashlib.sha256(repr(tr.events).encode())
        for column in (tr.t, tr.states, tr.delta_sq, tr.lyapunov):
            if column is not None:
                h.update(column.tobytes())
        h.update(tr.drive_changes.tobytes())
        out[str(number)] = h.hexdigest()
    return out


# numpy's SIMD dispatch cut down to SSE4.2, as on an x86-64 CPU without
# AVX2 or AVX-512; the setting acts on the child process only
NO_AVX_FEATURES = "SSE SSE2 SSE3 SSSE3 SSE41 POPCNT SSE42"
_DISPATCH_CHILD = """
import json
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:     # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from test_sim import _example_digests
print(json.dumps({"dispatch": [f for f in __cpu_dispatch__ if __cpu_features__[f]],
                  "digests": _example_digests(4.0)}))
"""


def _child_run(**env):
    """The dispatched SIMD features and the example digests of a child
    process whose environment adds env."""
    here = Path(__file__).resolve().parent
    paths = [str(Path(sim.__file__).resolve().parents[1]), str(here),
             os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p), **env)
    done = subprocess.run([sys.executable, "-c", _DISPATCH_CHILD], env=env, cwd=here,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the dispatch features named are x86-64 ones")
def test_traces_do_not_depend_on_numpy_simd_dispatch():
    # The examples' traces must not depend on which SIMD kernels numpy
    # picks: a child limited to SSE4.2 gives the bytes of this process.
    child = _child_run(NPY_ENABLE_CPU_FEATURES=NO_AVX_FEATURES)
    # the limit took hold: no AVX2, FMA or AVX-512 kernel is dispatched
    assert not [f for f in child["dispatch"]
                if f.startswith(("AVX", "FMA", "F16C", "X86_V3", "X86_V4"))]
    assert child["digests"] == _example_digests(4.0)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_traces_do_not_depend_on_blas_thread_count(threads):
    # Nor on the size of OpenBLAS's thread pool: the benchmark runs with one
    # thread, and this process with the library's default.
    assert _child_run(OPENBLAS_NUM_THREADS=threads)["digests"] == _example_digests(4.0)


def test_average_state_invariance_relative_mode():
    s = Scenario(mode="relative_edges", model=OSCILLATOR,
                 gain=np.array([[0.5626, 1.0633]]),
                 graph=cycle_graph(5),
                 x0=np.arange(10) / 5.0 - 1.0, horizon=3.0, seed=4,
                 schedule=ScheduleParams(0.005, 0.012, 0.005),
                 error_model=ErrorModel.log_quantizer(1.1))
    tr = run(s)
    assert average_state_error(tr) < 1e-9


def test_average_state_invariance_broadcast_mode():
    # Invariance holds for any admissible error sequence; exact consensus
    # is only expected without errors (broadcast errors scale with the
    # absolute state, so they do not vanish at consensus).
    common = dict(mode="broadcast", model=INTEGRATOR, gain=np.array([[1.0]]),
                  graph=cycle_graph(5), x0=[1.0, -0.5, 0.5, -1.0, 0.8],
                  horizon=12.0, seed=7,
                  schedule=ScheduleParams(0.02, 0.05, 0.019))
    noisy = run(Scenario(error_model=ErrorModel.multiplicative(0.01), **common))
    assert average_state_error(noisy) < 1e-9
    clean = run(Scenario(**common))
    assert average_state_error(clean) < 1e-9
    assert clean.consensus_time is not None


def test_zoh_changes_only_at_deliveries():
    rng = np.random.default_rng(12)
    s = random_scenario(rng)
    tr = run(s)
    # every drive change after the one at t = 0 is made by a delivery
    deliveries = [t for t, _, kind in tr.events if kind == "deliver"]
    assert deliveries
    assert list(tr.drive_changes[1:]) == deliveries


def test_zoh_equals_errored_sample_without_errors():
    # With no measurement errors, each delivered hold equals the channel
    # value at its sampling instant; verify against the oracle trajectory.
    s = Scenario(mode="abstract_coupled", model=INTEGRATOR,
                 gain=np.array([[0.8]]), x0=[1.0, -1.0], horizon=2.0,
                 coupling=np.array([[1.0, -1.0], [-1.0, 1.0]]), seed=5,
                 schedule=ScheduleParams(0.1, 0.2, 0.05))
    tr = run(s)
    sample_times = {}
    for t, ch, kind in tr.events:
        if kind == "sample":
            sample_times.setdefault(ch, []).append(t)
    # every deliver is preceded by exactly one sample on the same channel
    idx = {ch: 0 for ch in sample_times}
    for t, ch, kind in tr.events:
        if kind == "deliver":
            t_sample = sample_times[ch][idx[ch]]
            idx[ch] += 1
            assert t_sample <= t


def test_consensus_manifold_invariance():
    # Identical initial states: delta stays identically zero.
    s = Scenario(mode="broadcast", model=INTEGRATOR, gain=np.array([[1.0]]),
                 graph=cycle_graph(4), x0=[0.3, 0.3, 0.3, 0.3], horizon=2.0,
                 schedule=ScheduleParams(0.05, 0.1, 0.04))
    tr = run(s)
    assert np.all(tr.delta_sq < 1e-20)


def test_mean_centering():
    s = Scenario(mode="broadcast", model=INTEGRATOR, gain=np.array([[1.0]]),
                 graph=path_graph(2), x0=[0.0, 2.0], horizon=0.0,
                 schedule=ScheduleParams(0.05, 0.1, 0.0))
    tr = run(s)
    assert tr.delta_sq[0] == pytest.approx(2.0)   # (-1)^2 + 1^2


def test_zero_horizon():
    s = Scenario(mode="broadcast", model=INTEGRATOR, gain=np.array([[1.0]]),
                 graph=path_graph(2), x0=[0.0, 2.0], horizon=0.0,
                 schedule=ScheduleParams(0.05, 0.1, 0.0))
    tr = run(s)
    assert len(tr.t) == 1 and tr.t[0] == 0.0
    assert tr.events == []


def test_explicit_schedules_and_input_delay_equivalence():
    # Adding input delay d is the same as shifting every delivery by d.
    inst = np.arange(0.05, 2.0, 0.1)
    base = ChannelSchedule(0, inst, np.full_like(inst, 0.02))
    shifted = ChannelSchedule(0, inst, np.full_like(inst, 0.05))
    common = dict(mode="abstract_coupled", model=OSCILLATOR,
                  gain=0.3 * np.eye(2), x0=[1.0, 0.0], horizon=2.0,
                  coupling=np.eye(1))
    tr_delay = run(Scenario(schedules=(base,), input_delay=0.03, **common))
    tr_shift = run(Scenario(schedules=(shifted,), input_delay=0.0, **common))
    assert np.allclose(tr_delay.states[-1], tr_shift.states[-1], atol=1e-12)


def test_saturation_inactive_when_limit_large():
    common = dict(model=OSCILLATOR, gain=0.3 * np.eye(2), x0=[1.0, 0.0, -0.5, 0.5],
                  horizon=2.0, coupling=np.array([[1.0, -0.2], [-0.2, 1.0]]),
                  schedule=ScheduleParams(0.05, 0.1, 0.04), seed=2)
    loose = run(Scenario(mode="abstract_coupled", saturation=100.0, **common))
    plain = run(Scenario(mode="abstract_coupled", **common))
    assert np.allclose(loose.states[-1], plain.states[-1], atol=1e-12)
    tight = run(Scenario(mode="abstract_coupled", saturation=0.05, **common))
    assert not np.allclose(tight.states[-1], plain.states[-1], atol=1e-6)


def test_event_triggered_huge_omega_single_update():
    s = Scenario(mode="abstract_coupled", model=INTEGRATOR,
                 gain=np.array([[1.0]]), x0=[1.0, -1.0], horizon=2.0,
                 coupling=np.array([[1.0, -1.0], [-1.0, 1.0]]),
                 error_model=ErrorModel.event_trigger(1e12, dwell=0.05))
    tr = run(s)
    updates = [e for e in tr.events if e[2] == "update"]
    assert len(updates) == 2            # one initial update per channel
    assert all(t == 0.0 for t, _, _ in updates)


def test_event_triggered_zeno_freeness():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        G = np.eye(n) * n - 1.0
        s = Scenario(mode="abstract_coupled", model=INTEGRATOR,
                     gain=np.array([[1.0]]),
                     x0=rng.uniform(-1.0, 1.0, size=n),
                     horizon=2.0, coupling=G,
                     seed=int(rng.integers(0, 1000)),
                     error_model=ErrorModel.event_trigger(0.01, dwell=0.05))
        tr = run(s)
        assert min_update_gap(tr) >= 0.05 - 1e-9


def test_event_triggered_condition_between_updates():
    # Outside the dwell windows the deviation stays below the threshold
    # until the next update (checked on the recorded update instants).
    s = Scenario(mode="abstract_coupled", model=OSCILLATOR,
                 gain=0.4 * np.eye(2), x0=[1.0, 0.0, -1.0, 0.2], horizon=3.0,
                 coupling=np.array([[1.0, -1.0], [-1.0, 1.0]]),
                 error_model=ErrorModel.event_trigger(0.04, dwell=0.02))
    tr = run(s)
    updates = [e for e in tr.events if e[2] == "update"]
    assert len(updates) > 2
    assert min_update_gap(tr) >= 0.02 - 1e-9
    # exactness still holds through the trigger bisection
    expected = ivp_oracle_final_state(tr)
    assert np.linalg.norm(tr.states[-1] - expected) < 1e-8


def test_broadcast_trigger_tracks_delta_tilde():
    s = Scenario(mode="broadcast", model=INTEGRATOR, gain=np.array([[1.0]]),
                 graph=cycle_graph(5), x0=[1.5, -0.8, 0.6, -1.2, 0.4],
                 horizon=10.0, seed=1,
                 schedule=ScheduleParams(0.025, 0.025, 0.02),
                 error_model=ErrorModel.event_trigger(0.09, dwell=0.025,
                                                      cap=0.08))
    tr = run(s)
    # the last second of the broadcast error stays inside theorem 4's bound
    assert _delta_tilde_reference(tr)[tr.t >= tr.t[-1] - 1.0].min() < 0.4535
    assert average_state_error(tr) < 1e-9


def _replayed_broadcast(name):
    """A triggered broadcast whose trigger decisions the trace replays:
    example 3 at a seed ("ex3_seed<k>"); oscillators broadcasting behind
    an input delay above h_max, so that a channel can fire again before its
    last broadcast arrives, with the trigger capped (the > rule) or
    uncapped (the >= rule); or two fast oscillators ("spinning") that turn
    1.5 rad between samples and hear nothing for 20 s. Each of those fires
    every other sample, against the value it sent last, so a stretch
    without deliveries holds many fires of one channel."""
    if name.startswith("ex3_seed"):
        doc, _ = builtin_example(3, seed=int(name[len("ex3_seed"):]))
        return parse_scenario(doc)
    if name == "spinning":
        h = 0.05
        return Scenario(mode="broadcast", model=LtiModel(A=[[0.0, 1.5 / h], [-1.5 / h, 0.0]],
                                                         B=[[0.0], [1.0]]),
                        gain=np.array([[0.1, 0.1]]), graph=path_graph(2),
                        x0=[1.0, 0.0, 0.0, -0.5], horizon=30.0, seed=2,
                        schedule=ScheduleParams(h, h, 0.0), input_delay=20.0,
                        error_model=ErrorModel.event_trigger(3.5, dwell=0.01))
    cap = 0.05 if name == "oscillator_capped" else None
    return Scenario(mode="broadcast", model=OSCILLATOR, gain=np.array([[0.5626, 1.0633]]),
                    graph=cycle_graph(5), x0=[1.0, 0.0, -0.5, 1.0, 0.5, -1.0, -1.0, -0.5, 0.8, 0.6],
                    horizon=10.0, seed=3, schedule=ScheduleParams(0.05, 0.1, 0.04),
                    input_delay=0.13, error_model=ErrorModel.event_trigger(0.05, dwell=0.05, cap=cap))


@pytest.mark.parametrize("name", ["ex3_seed0", "ex3_seed5", "ex3_seed17", "ex3_seed1234",
                                  "oscillator_capped", "oscillator_uncapped", "spinning"])
def test_trigger_decisions_replay_from_the_trace(name):
    # Each update fires and every other sample does not, under
    # event_trigger_check of the sampled row against the channel's state at
    # its last update row: the loop's vectorized screen never decides.
    s = _replayed_broadcast(name)
    tr = run(s)
    em = s.error_model
    X = tr.states.reshape(len(tr.t), s.n_units, s.model.N)
    row = {t: k for k, t in enumerate(tr.t.tolist())}
    events = list(tr.events)
    sent = [None] * s.n_channels
    in_flight, deepest = [0] * s.n_channels, 0
    fired = skipped = 0
    for k, (t, ch, kind) in enumerate(events):
        if kind == "sample":
            value = X[row[t], ch]
            fires = sent[ch] is None or event_trigger_check(value, sent[ch], em.omega, cap=em.cap)
            assert fires == (events[k - 1] == (t, ch, "update")), (t, ch)
            if fires:
                sent[ch], fired = value, fired + 1
            else:
                skipped += 1
        else:
            in_flight[ch] += 1 if kind == "update" else -1
            deepest = max(deepest, in_flight[ch])
    assert min(fired, skipped) > 100
    if name.startswith("ex3"):
        assert skipped > 40 * fired
    else:
        assert deepest >= 2      # a channel fired again before its delivery
    assert np.array_equal(tr.t, _row_times(s, events))


def _row_times(s, events):
    """The times a trace has rows at: every grid instant and event time, once."""
    return np.union1d(np.linspace(0.0, s.horizon, s.snapshot_points + 1),
                      [t for t, _, _ in events])


@pytest.mark.parametrize("input_delay", [0.0, 0.0625])
def test_triggered_broadcast_rows_at_coincident_instants(input_delay):
    # Oscillators on the 5-cycle all sample every 1/16 s without delay, on a
    # grid of 1/16 s, so every delivery of a fired sample meets samples and a
    # grid instant exactly: at its own sample's instant, or at the next one
    # behind the input delay. Each instant keeps one row, and the states
    # equal the lifted product.
    h, horizon = 0.0625, 10.0
    inst = np.arange(1, 160) * h
    s = Scenario(mode="broadcast", model=OSCILLATOR, gain=np.array([[0.5626, 1.0633]]),
                 graph=cycle_graph(5), x0=[1.0, 0.0, -0.5, 1.0, 0.5, -1.0, -1.0, -0.5, 0.8, 0.6],
                 horizon=horizon, seed=3, snapshot_points=160, input_delay=input_delay,
                 schedules=tuple(ChannelSchedule(c, inst, np.zeros_like(inst)) for c in range(5)),
                 error_model=ErrorModel.event_trigger(0.05, dwell=0.05))
    tr = run(s)
    events = list(tr.events)
    kinds = Counter(k for _, _, k in events)
    assert 50 < kinds["update"] < 0.8 * kinds["sample"]
    assert np.array_equal(tr.t, _row_times(s, events))
    scale = np.max(np.abs(tr.states))
    assert np.max(np.abs(_lifted_states(tr) - tr.states)) <= 1e-12 * scale


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError):
        Scenario(mode="bogus", model=INTEGRATOR, gain=[[1.0]], x0=[0.0],
                 horizon=1.0)
    with pytest.raises(ScenarioError):   # missing graph
        Scenario(mode="relative_edges", model=INTEGRATOR, gain=[[1.0]],
                 x0=[0.0], horizon=1.0)
    with pytest.raises(ScenarioError):   # x0 wrong length
        Scenario(mode="broadcast", model=INTEGRATOR, gain=[[1.0]],
                 graph=cycle_graph(3), x0=[0.0], horizon=1.0)
    with pytest.raises(ScenarioError):   # delays in abstract triggered mode
        run(Scenario(
            mode="abstract_coupled", model=INTEGRATOR, gain=[[1.0]],
            x0=[0.0], horizon=1.0, coupling=np.eye(1), input_delay=0.1,
            error_model=ErrorModel.event_trigger(0.1, dwell=0.05)))
    abstract = dict(mode="abstract_coupled", model=INTEGRATOR, gain=[[1.0]],
                    coupling=np.eye(1), schedule=ScheduleParams(0.1, 0.2, 0.05))
    for bad in ({"x0": [np.nan], "horizon": 1.0}, {"x0": [0.0], "horizon": np.inf},
                {"x0": [0.0], "horizon": np.nan}):
        with pytest.raises(ScenarioError):
            Scenario(**abstract, **bad)
    # the grid has an integer count of intervals, at least 1, and the
    # consensus tolerance is positive
    for bad in ({"snapshot_points": 0}, {"snapshot_points": -1}, {"snapshot_points": 2.5},
                {"snapshot_points": True}, {"consensus_tol": 0.0},
                {"consensus_tol": -1e-3}, {"consensus_tol": np.nan}):
        with pytest.raises(ScenarioError):
            Scenario(**abstract, x0=[0.0], horizon=1.0, **bad)
    assert len(run(Scenario(**abstract, x0=[1.0], horizon=1.0,
                            snapshot_points=np.int64(1))).t) >= 2
    # saturation: finite and positive, on scheduled abstract_coupled runs only
    for level in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ScenarioError):
            Scenario(**abstract, x0=[0.0], horizon=1.0, saturation=level)
    with pytest.raises(ScenarioError):
        Scenario(**abstract, x0=[0.0], horizon=1.0, saturation=1.0,
                 error_model=ErrorModel.event_trigger(0.1, dwell=0.05))
    with pytest.raises(ScenarioError):
        Scenario(mode="broadcast", model=INTEGRATOR, gain=[[1.0]], graph=cycle_graph(3),
                 x0=[0.0, 1.0, 2.0], horizon=1.0, saturation=1.0,
                 schedule=ScheduleParams(0.1, 0.2, 0.05))
    # explicit schedules start at t >= 0, list the channels in order and,
    # in a triggered broadcast, keep every gap at least the dwell time
    inst = np.arange(0.0, 1.0, 0.05)
    bcast = dict(mode="broadcast", model=INTEGRATOR, gain=[[1.0]], graph=cycle_graph(3),
                 x0=[0.0, 1.0, 2.0], horizon=1.0)
    with pytest.raises(ScenarioError, match="schedules"):
        Scenario(**bcast, schedules=tuple(ChannelSchedule(ch, inst - 0.5, np.zeros_like(inst))
                                          for ch in range(3)))
    with pytest.raises(ScenarioError, match="schedules"):
        Scenario(**bcast, schedules=tuple(ChannelSchedule(2 - ch, inst, np.zeros_like(inst))
                                          for ch in range(3)))
    with pytest.raises(ScenarioError, match="schedules"):
        Scenario(**bcast, error_model=ErrorModel.event_trigger(0.1, dwell=0.06),
                 schedules=tuple(ChannelSchedule(ch, inst, np.zeros_like(inst))
                                 for ch in range(3)))
    Scenario(**bcast, error_model=ErrorModel.event_trigger(0.1, dwell=0.05),
             schedules=tuple(ChannelSchedule(ch, inst, np.zeros_like(inst)) for ch in range(3)))
    # a continuously monitored trigger takes no schedule of either kind
    monitor = dict(mode="abstract_coupled", model=INTEGRATOR, gain=[[1.0]],
                   coupling=np.eye(1), x0=[0.0], horizon=1.0,
                   error_model=ErrorModel.event_trigger(0.1, dwell=0.05))
    for sched in ({"schedule": ScheduleParams(0.5, 0.9, 0.4)},
                  {"schedules": (ChannelSchedule(0, inst, np.zeros_like(inst)),)}):
        with pytest.raises(ScenarioError, match="monitored trigger takes no schedule"):
            Scenario(**monitor, **sched)
    # lyapunov_P is N x N
    for P in ([[1.0, 0.0]], [[1.0]], [1.0, 0.0, 0.0, 1.0]):
        with pytest.raises(ScenarioError, match="lyapunov_P"):
            Scenario(mode="relative_edges", model=OSCILLATOR, gain=[[0.5, 1.0]],
                     graph=cycle_graph(3), x0=np.zeros(6), horizon=1.0,
                     schedule=ScheduleParams(0.1, 0.2, 0.05), lyapunov_P=P)
    for h_min, h_max, tau_max in ((0.2, 0.1, 0.0), (0.1, 0.2, 0.15), (-0.1, 0.2, 0.0),
                                  (0.1, 0.2, -0.01), (np.nan, 0.2, 0.0),
                                  (0.1, np.nan, 0.0), (0.1, 0.2, np.nan)):
        with pytest.raises(ScenarioError):
            ScheduleParams(h_min, h_max, tau_max)


# -- engine equivalence -------------------------------------------------------
# Reference outputs of the heap-driven engine that preceded the precomputed
# timeline, except where noted: a digest of the event list, event counts by
# kind, trace rows and the final state, for each scenario below (seed 1
# throughout).

def _example(number, horizon, **overrides):
    doc, _ = builtin_example(number, seed=1)
    doc.update(horizon=horizon, **overrides)
    return parse_scenario(doc)


def _equivalence_scenario(name):
    triangle = np.array([[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5], [-0.5, -0.5, 1.0]])
    inst = np.arange(0.0, 2.0, 0.1)
    if name == "ex1":
        return _example(1, 3.0)
    if name == "ex2":
        return _example(2, 5.0)
    if name == "ex3":
        return _example(3, 5.0)
    if name == "ex2_stop":
        return replace(_example(2, 30.0), stop_at_consensus=True, consensus_tol=1e-4)
    if name == "ex2_zero_delay":
        return _example(2, 3.0, schedule={"h_min": 0.02, "h_max": 0.05, "tau_max": 0.0})
    if name == "saturated":
        return Scenario(mode="abstract_coupled", model=OSCILLATOR, gain=0.3 * np.eye(2),
                        x0=[1.0, 0.0, -0.5, 0.5, 0.2, -0.8], horizon=3.0,
                        coupling=triangle, seed=1, saturation=0.1,
                        schedule=ScheduleParams(0.05, 0.1, 0.04),
                        startup="first_sample", input_delay=0.013,
                        snapshot_points=50)
    if name == "coincident":
        # all channels sample together; two deliver at their sample instant
        return Scenario(mode="abstract_coupled", model=OSCILLATOR,
                        gain=0.3 * np.eye(2), x0=[1.0, 0.0, -0.5, 0.5, 0.2, -0.8],
                        horizon=2.0, coupling=triangle, seed=1,
                        schedules=(ChannelSchedule(0, inst, np.zeros_like(inst)),
                                   ChannelSchedule(1, inst, np.full_like(inst, 0.05)),
                                   ChannelSchedule(2, inst, np.zeros_like(inst))),
                        error_model=ErrorModel.multiplicative(0.05),
                        snapshot_points=40)
    assert name == "event_triggered"
    return Scenario(mode="abstract_coupled", model=OSCILLATOR, gain=0.4 * np.eye(2),
                    x0=[1.0, 0.0, -1.0, 0.2], horizon=3.0, seed=1,
                    coupling=np.array([[1.0, -1.0], [-1.0, 1.0]]),
                    error_model=ErrorModel.event_trigger(0.04, dwell=0.02),
                    snapshot_points=100)


EQUIVALENCE = {
    "ex1": ("73c9f49a51ceb641", {"sample": 1766, "deliver": 1764}, 4531,
            [-0.2548752127785641, -0.08411623068463199, -0.19137502128938896,
             -0.03779803219768015, -0.026674619647334197, -0.05895328275126253,
             -0.1281489081422029, 0.046359091170962874, -0.1768082346167823,
             -0.07738680164530355]),
    "ex2": ("1663f8cc5ef73aab", {"sample": 723, "deliver": 722}, 2446,
            [0.1604632590580596, 0.16003926624885143, 0.1595572708556239,
             0.15969044905245774, 0.1602497547850086]),
    "ex3": ("e2bc4747b83081bf", {"update": 106, "sample": 1000, "deliver": 106}, 2107,
            [0.11345020630601657, 0.09137801590523918, 0.10356192925627968,
             0.10142230832718506, 0.09018754020527775]),
    "ex2_stop": ("25007916771baa9e", {"sample": 604, "deliver": 604}, 1349,
                 [0.16144689906873766, 0.16010822466339908, 0.15862588297693264,
                  0.1590358339640034, 0.16078315932692816]),
    "ex2_zero_delay": ("e60f482549f3e27a", {"sample": 430, "deliver": 430}, 1431,
                       [0.16861316066729692, 0.16071636443443169, 0.15182644327579245,
                        0.1542350138765156, 0.1646090177459617]),
    "saturated": ("84c4c09450ba67b1", {"sample": 119, "deliver": 119}, 289,
                  [-0.8787680170050401, -0.10576859590719917, 0.4202407564305678,
                   -0.34081573624649075, -0.27680348946379135, 0.6447980754919137]),
    "coincident": ("33ac3830f99b2c47", {"sample": 60, "deliver": 60}, 45,
                   [-0.28876237477222305, -0.4533781773392313, 0.15405657587346375,
                    -0.031653715520007994, -0.4293862147319437, -0.02663225495459371]),
    # Re-recorded once the crossing refinement stopped moving the clock back
    # past recorded rows: the heap engine's reference (3dce5ba94f0fa579,
    # 13,028 rows) has 19 rows out of time order, and most updates now come
    # at most one trigger-check step (dwell / 50) later.
    "event_triggered": ("9510dc2677dc5ccc", {"update": 36}, 13010,
                        [-0.06323269649727528, -0.08369200411058406,
                         0.09145669810924861, -0.11430649520941537]),
}


def _event_digest(events):
    h = hashlib.sha256()
    for t, ch, kind in events:
        h.update(f"{float(t)!r},{ch},{kind};".encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(EQUIVALENCE))
def test_engine_matches_reference_outputs(name):
    digest, kinds, rows, final = EQUIVALENCE[name]
    s = _equivalence_scenario(name)
    tr = run(s)
    if not s.stop_at_consensus:
        assert tr.t[-1] == s.horizon     # the last grid instant ends both loops
    counts = {}
    for _, _, kind in tr.events:
        counts[kind] = counts.get(kind, 0) + 1
    assert counts == kinds
    assert _event_digest(tr.events) == digest
    assert len(tr.t) == rows == len(tr.states) == len(tr.delta_sq)
    assert np.max(np.abs(tr.states[-1] - final)) <= 1e-12


def test_flow_step_dot_matches_matmul():
    # The engine's flow step and drive use ndarray.dot, which reaches the
    # same BLAS products as @ with less call overhead: bit for bit on
    # contiguous operands and on the engine's own flow-map stacks (modal
    # .real views, expm slices). The scheduled loop steps with contiguous
    # copies of the transposed stacks; with two or more units they give
    # the bits of the transposed views. A single unit is left out for the
    # stacks: its one-row products may take another BLAS path on either
    # layout and differ in the last bit, and criterion 7 holds those runs
    # to the ODE oracle instead.
    rng = np.random.default_rng(23)
    for _ in range(3000):
        units, N, channels = (int(rng.integers(1, k)) for k in (7, 4, 9))
        X, D = rng.standard_normal((2, units, N))
        maps = [rng.standard_normal((2, N, N))]
        if units > 1:
            A = rng.standard_normal((N, N))
            for prop in (sim.Propagator(A), sim.Propagator(np.triu(A, 1))):
                E, P = prop.pairs(rng.uniform(0.0, 0.1, 3))
                maps.append((E[1], P[1]))
                eT, pT = (np.ascontiguousarray(m.transpose(0, 2, 1)) for m in (E, P))
                assert ((X.dot(eT[1]) + D.dot(pT[1])).tobytes()
                        == (X.dot(E[1].T) + D.dot(P[1].T)).tobytes())
        for E, P in maps:
            assert (X.dot(E.T) + D.dot(P.T)).tobytes() == (X @ E.T + D @ P.T).tobytes()
        C = rng.standard_normal((units, channels))
        H = rng.standard_normal((channels, N))
        KT = rng.standard_normal((N, N)).T
        assert C.dot(H.dot(KT)).tobytes() == (C @ (H @ KT)).tobytes()


def test_stop_at_consensus_ends_at_the_consensus_row():
    tr = run(_equivalence_scenario("ex2_stop"))
    assert tr.consensus_time == pytest.approx(4.202999198552228, abs=1e-12)
    assert tr.t[-1] == tr.consensus_time
    assert tr.events[-1][0] <= tr.consensus_time


def test_logs_retain_little_per_event():
    # An event is three typed column entries, and a drive change one time.
    # Beyond the trace's rows, example 1 (10 s, seed 5) retains 22.1 bytes
    # per event; keeping the distinct drive arrays as well retained 69.0,
    # and a tuple per event and per drive change 149.
    doc, _ = builtin_example(1, seed=5)
    doc["horizon"] = 10.0
    s = parse_scenario(doc)
    run(s)      # caches that outlive a run are filled before the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tr = run(s)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = sum(c.nbytes for c in (tr.t, tr.states, tr.delta_sq, tr.lyapunov))
    assert (retained - rows) / len(tr.events) < 40


@pytest.mark.parametrize("name", ["ex3_seed0", "ex3_seed5", "oscillator_capped", "spinning"])
def test_triggered_broadcast_allocates_the_rows_it_fills(name):
    # The trace's columns are views of the engine's row columns. A triggered
    # broadcast sizes them for its sample and grid instants and grows them
    # for fired deliveries: example 3 (seed 5) allocates 9,563 rows and
    # fills 9,156, where one row per timeline instant was 16,999.
    tr = run(_replayed_broadcast(name))
    assert len(tr.t) <= len(tr.t.base) <= 1.1 * len(tr.t)


def test_logs_read_as_lists_of_tuples():
    tr = run(_equivalence_scenario("ex1"))
    log, rows = tr.events, list(tr.events)
    assert len(log) == len(rows) > 10
    assert log[0] == rows[0] and log[-1] == rows[-1] and log[3] == rows[3]
    assert list(log[2:9]) == rows[2:9] and len(log[5:]) == len(rows) - 5
    assert repr(log[:4]) == repr(rows[:4])
    assert tr.events == list(tr.events) and [] == tr.events[:0]
    assert tr.events != tr.events[1:] and tr.events != list(tr.events)[::-1]
    with pytest.raises(IndexError):
        tr.events[len(tr.events)]
    with pytest.raises(TypeError):
        tr.events[0] = (0.0, 0, "sample")


def test_event_budget_checked_before_the_loop(monkeypatch):
    def no_flow_maps(self, dts):
        raise AssertionError("the loop started")
    monkeypatch.setattr(sim, "MAX_EVENTS", 100)
    monkeypatch.setattr(sim.Propagator, "pairs", no_flow_maps)
    with pytest.raises(RuntimeError, match="event budget"):
        run(_example(2, 5.0))


def test_divergence_raises_with_time():
    s = _example(2, 8.0, gain=[[200.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # numpy's overflow warnings included
        with pytest.raises(DivergenceError, match=r"at t = 5\.\d+") as info:
            run(s)
    assert isinstance(info.value, RuntimeError)


def test_event_budget_checked_before_any_column(monkeypatch):
    # A run over the budget is refused before its schedules are drawn or its
    # timeline built: a refusal costs no memory in the size of the run.
    monkeypatch.setattr(sim, "MAX_EVENTS", 1000)
    inst = np.arange(1, 200_001) * 1e-4
    explicit = replace(_example(2, 30.0), schedule=None, schedules=tuple(
        ChannelSchedule(ch, inst, np.zeros_like(inst)) for ch in range(5)))
    cases = {
        "grid": _example(2, 30.0, snapshot_points=2_000_000),
        "drawn": _example(2, 500.0, schedule={"h_min": 0.004, "h_max": 0.006,
                                              "tau_max": 0.002}),
        # floor(100 / 1.5) samples per channel fit, but ~133 are drawn
        "counted": _example(2, 100.0, snapshot_points=10,
                            schedule={"h_min": 0.004, "h_max": 1.5, "tau_max": 0.002}),
        "explicit": explicit,
    }
    for name, s in cases.items():
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="event budget"):
                run(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, name


def test_event_budget_admits_a_run_that_fits_exactly(monkeypatch):
    # The budget counts the grid and each sample up to the horizon with its
    # delivery; a budget of exactly that many passes both checks.
    s = _example(2, 30.0, schedule={"h_min": 0.05, "h_max": 0.05, "tau_max": 0.01})
    samples = sum(kind == "sample" for _, _, kind in run(s).events)
    monkeypatch.setattr(sim, "MAX_EVENTS", s.snapshot_points + 1 + 2 * samples)
    run(s)
    monkeypatch.setattr(sim, "MAX_EVENTS", s.snapshot_points + 2 * samples)
    with pytest.raises(RuntimeError, match="event budget"):
        run(s)


def test_saturated_holds_match_per_delivery_reference(monkeypatch):
    # Each delivery holds the sampled state, measured and scaled into the
    # saturation level, and the run matches the ODE oracle on the drives
    # rebuilt from those holds. A delivery that repeats its channel's hold
    # does not recompute the drive (example 1 repeats most of its quantized
    # holds), but the first delivery of an agent that sends exactly 0.0
    # does: it adds the agent's edges to the broadcast's coupling, which
    # the oracle sees.
    drive, calls = sim.Coupling.drive, []

    def counted(self, H, held):
        calls.append(None)
        return drive(self, H, held)
    monkeypatch.setattr(sim.Coupling, "drive", counted)
    zero_start = Scenario(mode="broadcast", model=INTEGRATOR, gain=np.array([[1.0]]),
                          graph=cycle_graph(5), x0=[1.0, 0.0, 0.5, -1.0, 0.8],
                          horizon=3.0, seed=1, schedule=ScheduleParams(0.02, 0.05, 0.019))
    cases = {"saturated": replace(_equivalence_scenario("saturated"), horizon=10.0),
             "ex1": _equivalence_scenario("ex1"), "zero_start": zero_start}
    # (drive computations, holds set after t = 0)
    counts = {"saturated": (401, 401), "ex1": (677, 1764), "zero_start": (428, 428)}
    for name, s in cases.items():
        calls.clear()
        tr = run(s)
        assert (len(calls), len(tr.drive_changes) - 1) == counts[name], name
        expected = ivp_oracle_final_state(tr)
        assert np.linalg.norm(tr.states[-1] - expected) < 1e-8, name
        if name == "saturated":
            assert np.abs(_drive_reference(tr)[1]).max() <= s.saturation
    # agent 2 first sends exactly 0.0
    sent = next(t for t, ch, kind in tr.events if kind == "sample" and ch == 1)
    assert tr.states[list(tr.t).index(sent), 1] == 0.0


def test_ivp_oracle_sees_the_coupling(monkeypatch):
    # The oracle rebuilds every drive from the scenario's own gain and
    # coupling, so an engine that drives through the transposed gain
    # misses it by far more than its 1e-8.
    of = sim.Coupling.of.__func__

    def transposed(cls, s):
        coupling = of(cls, s)
        return replace(coupling, KT=coupling.KT.T)
    monkeypatch.setattr(sim.Coupling, "of", classmethod(transposed))
    rng = np.random.default_rng(777)
    for k in range(9):
        n, N = int(rng.integers(2, 7)), int(rng.integers(2, 4))
        A = rng.uniform(-1.0, 1.0, size=(N, N))
        K = rng.uniform(-0.5, 0.5, size=(N, N))
        K[0, 1], K[1, 0] = 0.5, -0.5        # K - K^T is at least 1 in norm
        s = Scenario(mode="abstract_coupled", model=LtiModel(A=A, B=np.eye(N)), gain=K,
                     x0=rng.uniform(-1.0, 1.0, size=n * N),
                     horizon=float(rng.uniform(0.5, 10.0)), seed=k,
                     coupling=rng.uniform(-0.5, 0.5, size=(n, n)),
                     schedule=ScheduleParams(0.05, 0.15, 0.04),
                     error_model=ErrorModel.multiplicative(float(rng.uniform(0.0, 0.2))),
                     snapshot_points=10)
        tr = run(s)
        assert np.linalg.norm(tr.states[-1] - ivp_oracle_final_state(tr)) > 1e-3, k


# -- the engine against exact lifted maps --------------------------------------
# A zero-error run on explicit schedules is a switched linear system, flows
# between jumps (Hetel et al., "Recent developments on the stability of
# systems with aperiodic sampling: an overview", Automatica, 2017), so the
# product of its lifted maps gives the state at every row with no ODE solver.

def _lifted_states(tr):
    """The unit states at every row of tr, from the product of exact linear
    maps on z = (X, H, P): the states, the holds, and the measurements in
    flight on each channel, a ring of as many slots as the channel ever has
    in flight. A flow over dt maps X to
    (I (x) e^{A dt}) X - (C (x) Phi(dt) BK) H, a queued sample on channel c
    (every sample; in a triggered broadcast, each update) sets its next
    slot to (R_c (x) I) X, and a delivery sets H_c to its oldest; events
    apply in the order of the event log. Relative edges read R = D^T,
    x_head - x_tail, and drive through C = D, the incidence. Broadcasts
    read R = I and drive through the Laplacian of the edges whose two
    agents hold a delivered value. R, C and BK are built here, not taken
    from the sim.Coupling that this checks; e^{A dt} and Phi(dt) are blocks
    of scipy's expm of one matrix."""
    s = tr.scenario
    A, N, BK = s.model.A, s.model.N, s.model.B @ s.gain
    D = build_algebra(s.graph).incidence
    relative = s.mode == "relative_edges"
    R = D.T if relative else np.eye(s.graph.n)
    channels, units = R.shape
    queued = "update" if s.error_model.kind == "event_trigger" else "sample"
    in_flight, depth = [0] * channels, 1
    for _, c, kind in tr.events:
        in_flight[c] += (kind == queued) - (kind == "deliver")
        depth = max(depth, in_flight[c])
    nx, nh = units * N, channels * N
    X = slice(0, nx)

    def H(c):
        return slice(nx + c * N, nx + (c + 1) * N)

    def P(c, k):
        start = nx + nh + ((k % depth) * channels + c) * N
        return slice(start, start + N)

    def jump(rows, cols, block):
        J = np.eye(nx + nh + depth * nh)
        J[rows] = 0.0
        J[rows, cols] = block
        return J

    live = np.zeros(channels, dtype=bool)

    def flow(dt):
        if relative:
            C = D
        else:
            both = [live[i - 1] and live[j - 1] for i, j in s.graph.edges]
            C = D[:, both] @ D[:, both].T
        blk = np.zeros((2 * N, 2 * N))
        blk[:N, :N], blk[:N, N:] = A, np.eye(N)
        E = sla.expm(blk * dt)
        F = np.eye(nx + nh + depth * nh)
        F[X, X] = np.kron(np.eye(units), E[:N, :N])
        F[X, nx:nx + nh] = -np.kron(C, E[:N, N:] @ BK)
        return F

    z = np.concatenate([s.x0, np.zeros(nh + depth * nh)])
    if s.startup == "first_sample":
        for c in range(channels):
            z = jump(H(c), X, np.kron(R[c:c + 1], np.eye(N))) @ z
        live[:] = True
    events, t, out = deque(tr.events), 0.0, []
    pushed, popped = [0] * channels, [0] * channels
    for tk in tr.t.tolist():
        while events and events[0][0] <= tk:
            te, c, kind = events.popleft()
            z = flow(te - t) @ z
            t = te
            if kind == queued:
                z = jump(P(c, pushed[c]), X, np.kron(R[c:c + 1], np.eye(N))) @ z
                pushed[c] += 1
            elif kind == "deliver":
                z = jump(H(c), P(c, popped[c]), np.eye(N)) @ z
                popped[c] += 1
                live[c] = True
        z = flow(tk - t) @ z
        t = tk
        out.append(z[X].copy())
    return np.array(out)


def _lifted_scenarios(mode, startup, model):
    """Zero-error runs in mode and startup on example 1's 5-cycle, with the
    agents of model (example 1's oscillator and design gain, a single
    integrator or a double integrator), keyed by the kind of their explicit
    schedules: synchronous instants, per-channel phase offsets, generated
    draws, and the draws behind an input delay above the longest gap, so
    that measurements queue on their channels. Mode "triggered" is a
    broadcast with a capped event trigger."""
    base = _example(1, 4.0)
    if model == "integrator":
        base = replace(base, model=INTEGRATOR, gain=np.array([[1.0]]),
                       x0=[1.0, -0.5, 0.5, -1.0, 0.8], lyapunov_P=None)
    elif model == "double_integrator":
        base = replace(base, model=LtiModel(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]]),
                       gain=np.array([[0.5, 1.0]]), lyapunov_P=None)
    h, tau = 0.1, 0.04
    inst = np.arange(0.0, 4.0, h)
    # half-period offsets, nudged so that no two channels sample together
    offsets = np.array([0.0, 0.5, 0.5, 0.0, 0.5]) * h + [0.0, 0.013, 0.027, 0.041, 0.066]
    kinds = {
        "synchronous": [ChannelSchedule(c, inst, np.full_like(inst, tau)) for c in range(5)],
        "offsets": [ChannelSchedule(c, inst + phase, np.full_like(inst, tau))
                    for c, phase in enumerate(offsets)],
        "drawn": [generate_schedule(0.05, 0.15, tau, 4.0, 3, c) for c in range(5)],
    }
    kinds["delayed"] = kinds["drawn"]
    em = (ErrorModel.event_trigger(0.05, dwell=0.02, cap=0.1) if mode == "triggered"
          else ErrorModel.none())
    return {kind: replace(base, mode="broadcast" if mode == "triggered" else mode,
                          startup=startup, schedule=None, schedules=tuple(schedules),
                          error_model=em, input_delay=0.17 if kind == "delayed" else 0.0,
                          snapshot_points=40)
            for kind, schedules in kinds.items()}


@pytest.mark.parametrize("model", ["oscillator", "integrator", "double_integrator"])
@pytest.mark.parametrize("mode,startup", [
    ("relative_edges", "zero"), ("relative_edges", "first_sample"),
    ("broadcast", "zero"), ("broadcast", "first_sample"), ("triggered", "zero")])
def test_engine_states_equal_the_lifted_product(mode, startup, model):
    # The engine's state at every row equals the exact product of lifted
    # maps, to 1e-12 of the trace's largest entry. The oscillator and the
    # integrator take Propagator's modal branch, the defective double
    # integrator its block exponential. A triggered broadcast delivers only
    # what fired, a fraction of its samples.
    for kind, s in _lifted_scenarios(mode, startup, model).items():
        tr = run(s)
        delivered = sum(k == "deliver" for _, _, k in tr.events)
        assert delivered > (20 if mode == "triggered" else 100), kind
        if mode == "triggered":
            assert delivered < 0.9 * sum(k == "sample" for _, _, k in tr.events), kind
        scale = np.max(np.abs(tr.states))
        assert np.max(np.abs(_lifted_states(tr) - tr.states)) <= 1e-12 * scale, kind


def test_lyapunov_column_matches_per_row_formula():
    s = _equivalence_scenario("ex1")      # 4,531 rows: more than one chunk
    tr = run(s)
    inc = build_algebra(s.graph).incidence
    expected = []
    for row in tr.states:
        Z = inc.T @ row.reshape(5, 2)
        expected.append(0.5 * np.sum(Z * (Z @ s.lyapunov_P.T)))
    assert len(tr.t) > sim.FLOW_CHUNK
    assert np.allclose(tr.lyapunov, expected, rtol=1e-12, atol=1e-15)


def test_abstract_trigger_rows_in_time_order():
    # The crossing refinement may not move the clock back past a recorded
    # row: it used to, 19 times in this run, by up to 3.4e-4 s.
    s = Scenario(mode="abstract_coupled", model=OSCILLATOR,
                 gain=0.4 * np.eye(2), x0=[1.0, 0.0, -1.0, 0.2], horizon=3.0,
                 seed=1, coupling=np.array([[1.0, -1.0], [-1.0, 1.0]]),
                 error_model=ErrorModel.event_trigger(0.04, dwell=0.02))
    tr = run(s)
    assert np.all(np.diff(tr.t) > 0)
    times = [t for t, _, _ in tr.events]
    assert times == sorted(times)
    assert min_update_gap(tr) >= 0.02 - 1e-9
    expected = ivp_oracle_final_state(tr)
    assert np.linalg.norm(tr.states[-1] - expected) < 1e-8


def test_monitored_clock_only_moves_forward(monkeypatch):
    # Every monitored state is one forward flow from the last event's state:
    # the crossing refinement brackets after it instead of stepping back.
    steps = []
    pair = sim.Propagator.pair

    def recording_pair(self, dt):
        steps.append(dt)
        return pair(self, dt)
    monkeypatch.setattr(sim.Propagator, "pair", recording_pair)
    tr = run(_equivalence_scenario("event_triggered"))
    assert len(steps) > len(tr.t)
    assert min(steps) > 0
    assert np.all(np.diff(tr.t) > 0)


# -- statistics derived after the event loop -----------------------------------

def _delta_sq_formula(tr):
    """Per-row disagreement with kappa(t) = e^{At} kappa0 from scipy's expm."""
    s = tr.scenario
    X = tr.states.reshape(len(tr.t), s.n_units, s.model.N)
    kappa = sla.expm(s.model.A * tr.t[:, None, None]) @ X[0].mean(axis=0)
    D = X - kappa[:, None, :]
    return np.sum(D * D, axis=(1, 2))


def test_delta_sq_follows_the_closed_form_mean():
    doc, _ = builtin_example(1, seed=1)
    ex1 = run(parse_scenario(doc))
    assert ex1.consensus_time == 14.07443163351406
    assert len(ex1.t) > sim.FLOW_CHUNK
    for tr in (ex1, run(_example(3, 5.0))):
        assert np.max(np.abs(tr.delta_sq - _delta_sq_formula(tr))) <= 1e-14


@pytest.mark.parametrize("A", [[[0.0, 1.0], [-1.0, 0.0]], [[0.0]], [[-0.3, 2.0], [0.0, 0.1]],
                               [[0.0, 1.0], [0.0, 0.0]]],
                         ids=["oscillator", "integrator", "diagonalizable", "defective"])
def test_exps_are_the_exponentials_of_pairs(A):
    # settle and average_state_error take kappa(t) from exps; it must give
    # the bits that pairs gave them.
    prop = sim.Propagator(A)
    ts = np.concatenate([np.linspace(0.0, 40.0, 997), [1e-12, 5e-9, -0.25]])
    assert np.array_equal(prop.exps(ts), prop.pairs(ts)[0])


@pytest.mark.parametrize("A, modal", [
    ([[0.0, 1.0], [-1.0, 0.0]], True), ([[0.0]], True), ([[0.0, 0.0], [0.0, 0.0]], True),
    ([[-0.3, 2.0], [0.0, 0.1]], True), ([[0.5, -1.0, 0.2], [0.3, -0.7, 1.1], [0.0, 0.4, 0.1]], True),
    ([[0.0, 1.0], [0.0, 0.0]], False), ([[-0.5, 1.0], [0.0, -0.5]], False),
    ([[0.2, 1.0, 0.0], [0.0, 0.2, 1.0], [0.0, 0.0, 0.2]], False)],
    ids=["oscillator", "integrator", "zero", "diagonalizable", "dense",
         "defective", "defective_stable", "jordan3"])
def test_pairs_match_expm_and_its_integral(A, modal):
    # The flow maps, from either branch (modal or block exponential),
    # against scipy's scaling-and-squaring e^{A dt} and its Van Loan
    # integral, to a tolerance; matan.expm is exps itself.
    prop = sim.Propagator(A)
    assert prop._diag is modal
    dts = np.array([0.0, 1e-12, 5e-9, 1e-4, 0.013, 0.25, 1.0, 3.7])
    E, P = prop.pairs(dts)
    for dt, e, p in zip(dts.tolist(), E, P):
        for got, want in ((e, sla.expm(np.asarray(A) * dt)), (p, scipy_expm_integral(A, dt))):
            assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))
    assert np.array_equal(matan.expm(A, dts), prop.exps(dts))


def _consensus_reference(t, delta_sq, tol):
    """The consensus watch row by row: (consensus time, its row or None)."""
    below_since = consensus = row = None
    for k, (tk, d) in enumerate(zip(t.tolist(), delta_sq.tolist())):
        if d < tol:
            if below_since is None:
                below_since = tk
            elif consensus is None and tk - below_since >= 1.0:
                consensus = tk
                row = k if row is None else row
        else:
            below_since = None
            if consensus is not None and tk > consensus:
                consensus = None
    return consensus, row


def test_consensus_watch_across_chunks(monkeypatch):
    # Example 3 hovers around its error level; tolerances at quantiles of
    # delta_sq make runs of rows below them start and break many times.
    # Example 1 (relative edges, quantized) and a continuously monitored
    # run take the same rule: one watch answers when consensus came and
    # where stop_at_consensus cuts, in both loops.
    monkeypatch.setattr(sim, "FLOW_CHUNK", 97)
    for s in (_example(3, 12.0), _example(1, 6.0), _equivalence_scenario("event_triggered")):
        full = run(s)
        checked = 0
        for q in (0.3, 0.6, 0.9, 0.99, 1.0):
            tol = float(np.quantile(full.delta_sq, q)) * (1.0 + 1e-9)
            tr = run(replace(s, consensus_tol=tol))
            consensus, first = _consensus_reference(tr.t, tr.delta_sq, tol)
            assert tr.consensus_time == consensus
            if first is None:
                continue
            checked += 1
            cut = run(replace(s, consensus_tol=tol, stop_at_consensus=True))
            assert cut.consensus_time == tr.t[first] == cut.t[-1]
            assert len(cut.t) == first + 1
            assert np.array_equal(cut.states, tr.states[:first + 1])
            assert np.array_equal(cut.delta_sq, tr.delta_sq[:first + 1])
            n = sum(t <= cut.t[-1] for t, _, _ in tr.events)
            assert cut.events == tr.events[:n]
            assert all(t <= cut.t[-1] for t in cut.drive_changes)
        assert checked >= 2


# Overrides of example 2's document: a defective A, whose block flow maps
# overflow over the gaps of 1-2 s.
OVERFLOWING_EX2 = {
    "model": {"A": [[1000.0, 1.0], [0.0, 1000.0]], "B": [[0.0], [1.0]]},
    "gain": [[0.5, 1.0]],
    "schedule": {"h_min": 1.0, "h_max": 2.0, "tau_max": 0.019},
    "x0": [1.0, 0.0, -0.5, 1.0, 0.5, -1.0, -1.0, -0.5, 0.8, 0.6],
}


def test_divergence_found_when_a_flow_map_overflows():
    # The block exponential of a long gap overflows; the non-finite state it
    # leaves is reported as a divergence at its time.
    s = parse_scenario(dict(builtin_example(2)[0], **OVERFLOWING_EX2))
    assert not sim.Propagator(s.model.A)._diag
    with pytest.raises(DivergenceError, match=r"^simulation diverged at t = \d"):
        run(s)


def test_divergence_found_when_the_loop_fails_first():
    # A saturated hold of an infinite state raises OverflowError before the
    # statistics pass sees the row; the run still reports the divergence.
    s = Scenario(mode="abstract_coupled", model=LtiModel(A=[[40.0]], B=[[1.0]]),
                 gain=np.array([[0.5]]), x0=[1.0, -0.5], horizon=20.0,
                 coupling=np.array([[1.0, -1.0], [-1.0, 1.0]]), saturation=1.0,
                 schedule=ScheduleParams(0.05, 0.1, 0.04), seed=3)
    with pytest.raises(DivergenceError, match=r"at t = \d"):
        run(s)


def test_triggered_broadcast_divergence_passes_huge_thresholds():
    # With omega > 1 a finite sent value has a trigger threshold whose square
    # overflows (from |x| ~ 7e153 on); the trigger screen takes it, and the
    # run goes on to report the divergence at its first row that is not finite.
    s = Scenario(mode="broadcast", model=LtiModel(A=[[5.0]], B=[[1.0]]), gain=np.array([[0.1]]),
                 graph=cycle_graph(3), x0=[1.0, -1.0, 0.5], horizon=80.0, seed=1,
                 schedule=ScheduleParams(0.05, 0.1, 0.02),
                 error_model=ErrorModel.event_trigger(3.5, dwell=0.01))
    with pytest.raises(DivergenceError, match=r"at t = 72\.43"):
        run(s)
