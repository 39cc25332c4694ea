import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import solve_ivp

from asynclab import sim
from asynclab.graphs import build_algebra, cycle_graph, path_graph
from asynclab.matan import LtiModel
from asynclab.sampling import ChannelSchedule, ErrorModel, channel_rng
from asynclab.scenarios import builtin_example, parse_scenario
from asynclab.sim import (DivergenceError, Scenario, ScenarioError,
                          ScheduleParams, average_state_error, metrics,
                          min_update_gap, run)

OSCILLATOR = LtiModel(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]])
INTEGRATOR = LtiModel(A=[[0.0]], B=[[1.0]])


def ivp_oracle_final_state(trace, rtol=1e-12, atol=1e-13):
    """Independent reconstruction of the final state: piecewise integration
    of dX/dt = X A^T + V with the drive segments recorded in the trace."""
    s = trace.scenario
    A = s.model.A
    units = s.n_units
    X = s.x0.reshape(units, s.model.N).astype(float)
    # last drive wins at duplicated change times
    segs = {}
    for t, V in trace.drive_changes:
        segs[t] = V
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
        assert np.linalg.norm(tr.final_state - expected) < 1e-8


def test_determinism_bit_identical():
    rng = np.random.default_rng(3)
    s = random_scenario(rng)
    a, b = run(s), run(s)
    assert a.events == b.events
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.t, b.t)


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
    assert metrics(clean)["consensus"]


def test_zoh_changes_only_at_deliveries():
    rng = np.random.default_rng(12)
    s = random_scenario(rng)
    tr = run(s)
    deliver_times = {(t, ch) for t, ch, kind in tr.events if kind == "deliver"}
    for t, ch, _ in tr.held_changes:
        assert (t, ch) in deliver_times


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
    assert np.allclose(tr_delay.final_state, tr_shift.final_state, atol=1e-12)


def test_saturation_inactive_when_limit_large():
    common = dict(model=OSCILLATOR, gain=0.3 * np.eye(2), x0=[1.0, 0.0, -0.5, 0.5],
                  horizon=2.0, coupling=np.array([[1.0, -0.2], [-0.2, 1.0]]),
                  schedule=ScheduleParams(0.05, 0.1, 0.04), seed=2)
    loose = run(Scenario(mode="saturated", saturation=100.0, **common))
    plain = run(Scenario(mode="abstract_coupled", **common))
    assert np.allclose(loose.final_state, plain.final_state, atol=1e-12)
    tight = run(Scenario(mode="saturated", saturation=0.05, **common))
    assert not np.allclose(tight.final_state, plain.final_state, atol=1e-6)


def test_event_triggered_huge_omega_single_update():
    s = Scenario(mode="event_triggered", model=INTEGRATOR,
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
        s = Scenario(mode="event_triggered", model=INTEGRATOR,
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
    s = Scenario(mode="event_triggered", model=OSCILLATOR,
                 gain=0.4 * np.eye(2), x0=[1.0, 0.0, -1.0, 0.2], horizon=3.0,
                 coupling=np.array([[1.0, -1.0], [-1.0, 1.0]]),
                 error_model=ErrorModel.event_trigger(0.04, dwell=0.02))
    tr = run(s)
    updates = [e for e in tr.events if e[2] == "update"]
    assert len(updates) > 2
    assert min_update_gap(tr) >= 0.02 - 1e-9
    # exactness still holds through the trigger bisection rewinds
    expected = ivp_oracle_final_state(tr)
    assert np.linalg.norm(tr.final_state - expected) < 1e-8


def test_broadcast_trigger_tracks_delta_tilde():
    s = Scenario(mode="broadcast", model=INTEGRATOR, gain=np.array([[1.0]]),
                 graph=cycle_graph(5), x0=[1.5, -0.8, 0.6, -1.2, 0.4],
                 horizon=10.0, seed=1,
                 schedule=ScheduleParams(0.025, 0.025, 0.02),
                 error_model=ErrorModel.event_trigger(0.09, dwell=0.025,
                                                      cap=0.08))
    tr = run(s)
    assert tr.delta_tilde_sq is not None
    m = metrics(tr)
    assert m["trailing_min_delta_tilde_sq"] < 0.4535
    assert average_state_error(tr) < 1e-9


def test_event_counts_windows():
    s = Scenario(mode="broadcast", model=INTEGRATOR, gain=np.array([[1.0]]),
                 graph=cycle_graph(3), x0=[1.0, 0.0, -1.0], horizon=1.0,
                 schedule=ScheduleParams(0.05, 0.1, 0.04))
    tr = run(s)
    m = metrics(tr)
    counts = m["event_counts"]
    n_samples = sum(1 for e in tr.events if e[2] == "sample")
    assert counts["sample"].sum() == n_samples


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
            mode="event_triggered", model=INTEGRATOR, gain=[[1.0]],
            x0=[0.0], horizon=1.0, coupling=np.eye(1), input_delay=0.1,
            error_model=ErrorModel.event_trigger(0.1, dwell=0.05)))


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
        return Scenario(mode="saturated", model=OSCILLATOR, gain=0.3 * np.eye(2),
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
    return Scenario(mode="event_triggered", model=OSCILLATOR, gain=0.4 * np.eye(2),
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
    tr = run(_equivalence_scenario(name))
    counts = {}
    for _, _, kind in tr.events:
        counts[kind] = counts.get(kind, 0) + 1
    assert counts == kinds
    assert _event_digest(tr.events) == digest
    assert len(tr.t) == rows == len(tr.states) == len(tr.delta_sq)
    assert np.max(np.abs(tr.final_state - final)) <= 1e-12


def test_stop_at_consensus_ends_at_the_consensus_row():
    tr = run(_equivalence_scenario("ex2_stop"))
    assert tr.consensus_time == pytest.approx(4.202999198552228, abs=1e-12)
    assert tr.t[-1] == tr.consensus_time
    assert tr.events[-1][0] <= tr.consensus_time


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
    s = Scenario(mode="event_triggered", model=OSCILLATOR,
                 gain=0.4 * np.eye(2), x0=[1.0, 0.0, -1.0, 0.2], horizon=3.0,
                 seed=1, coupling=np.array([[1.0, -1.0], [-1.0, 1.0]]),
                 error_model=ErrorModel.event_trigger(0.04, dwell=0.02))
    tr = run(s)
    assert np.all(np.diff(tr.t) > 0)
    times = [t for t, _, _ in tr.events]
    assert times == sorted(times)
    assert min_update_gap(tr) >= 0.02 - 1e-9
    expected = ivp_oracle_final_state(tr)
    assert np.linalg.norm(tr.final_state - expected) < 1e-8


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
    monkeypatch.setattr(sim, "FLOW_CHUNK", 97)
    s = _example(3, 12.0)
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
        assert all(t <= cut.t[-1] for t, _ in cut.drive_changes)
    assert checked >= 2


def test_divergence_found_when_the_loop_fails_first():
    # A saturated hold of an infinite state raises OverflowError before the
    # statistics pass sees the row; the run still reports the divergence.
    s = Scenario(mode="saturated", model=LtiModel(A=[[40.0]], B=[[1.0]]),
                 gain=np.array([[0.5]]), x0=[1.0, -0.5], horizon=20.0,
                 coupling=np.array([[1.0, -1.0], [-1.0, 1.0]]), saturation=1.0,
                 schedule=ScheduleParams(0.05, 0.1, 0.04), seed=3)
    with pytest.raises(DivergenceError, match=r"at t = \d"):
        run(s)
