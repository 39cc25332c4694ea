"""Acceptance gate: the nine release criteria, one pass/fail line each.

Each criterion prints exactly one line of the form
    ACCEPTANCE <n>: PASS|FAIL (<elapsed> s) <summary>
on the real stdout (so the lines survive pytest's capture), and fails the
test on any violated assertion.
"""

import math
import sys
import time

import numpy as np
import pytest
import scipy.linalg as sla
from dataclasses import replace

from asynclab.bounds import (theorem2_budget, theorem3_budget,
                             theorem4_bound_opt_beta, corollary1_budget,
                             delta_kappa, max_expm_norms)
from asynclab.design import riccati_design
from asynclab.graphs import build_algebra, cycle_graph
from asynclab.matan import (LtiModel, SpectralConstants, lemma1_bounds, lemma2_check,
                            max_singular_value)
from asynclab.sampling import (ErrorModel, generate_schedule, log_quantize,
                               validate_schedule)
from asynclab.scenarios import builtin_example, parse_scenario
from asynclab.sim import Scenario, ScheduleParams, run

from test_matan import scipy_expm_integral
from test_sim import (_delta_tilde_reference, average_state_error, ivp_oracle_final_state,
                      min_update_gap)

OSCILLATOR = LtiModel(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]])
INTEGRATOR = LtiModel(A=[[0.0]], B=[[1.0]])
ALG5 = build_algebra(cycle_graph(5))


# Lines collected here are re-emitted by conftest's terminal-summary hook so
# they survive pytest's fd-level capture.
RESULTS = []


class criterion:
    """Times the block and records/prints the single acceptance line."""

    def __init__(self, number, summary):
        self.number = number
        self.summary = summary

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        line = (f"ACCEPTANCE {self.number}: {verdict} ({elapsed:.2f} s) "
                f"{self.summary}")
        RESULTS.append(line)
        print(line, file=sys.__stdout__, flush=True)
        return False


def test_criterion_1_gain_design_golden():
    with criterion(1, "Riccati gain design golden and closed-form oracle"):
        t0 = time.perf_counter()
        lam = ALG5.lambda_2
        d = riccati_design(OSCILLATOR, lam=lam, mu=1.0)
        elapsed = time.perf_counter() - t0
        assert d.K.ravel() == pytest.approx([0.5626, 1.0633], abs=1e-3)
        # independent closed-form oracle: lam p2^2 + p2 = mu, lam p3^2 = p2 + mu
        p2 = (-1.0 + math.sqrt(1.0 + 4.0 * lam)) / (2.0 * lam)
        p3 = math.sqrt((p2 + 1.0) / lam)
        assert d.K.ravel() == pytest.approx([p2, p3], abs=1e-9)
        assert elapsed < 1.0


def test_criterion_2_theorem3_budget_golden():
    with criterion(2, "Theorem-3 budget golden with gamma stationarity oracle"):
        t0 = time.perf_counter()
        report = theorem3_budget(ALG5)
        elapsed = time.perf_counter() - t0
        assert report.budget == pytest.approx(0.0691, abs=1e-3)
        assert report.details["gamma_star"] == pytest.approx(2.618034, abs=1e-4)
        assert report.details["objective"] == pytest.approx(0.145898, abs=1e-5)
        # hand-derived stationarity quadratic a g^2 - 2 b g - c = 0
        a, b = ALG5.lambda_2, report.details["sigma"] / 2.0
        c = ALG5.lambda_n - ALG5.lambda_2
        g = report.details["gamma_star"]
        assert a * g * g - 2.0 * b * g - c == pytest.approx(0.0, abs=1e-9)
        assert elapsed < 1.0


def test_criterion_3_corollary1_budget_golden():
    with criterion(3, "Corollary-1 / Theorem-2 budget golden (quantized oscillator)"):
        t0 = time.perf_counter()
        d = riccati_design(OSCILLATOR, lam=ALG5.lambda_2, mu=1.0)
        report = corollary1_budget(OSCILLATOR, d, ALG5, quant_level=1.1)
        elapsed = time.perf_counter() - t0
        assert report.feasible
        assert report.budget == pytest.approx(0.017, abs=2e-3)
        # consistency with the direct multiplicative route omega = 0.01
        direct = theorem2_budget(OSCILLATOR, d, ALG5, omega=0.01)
        assert report.budget == pytest.approx(direct.budget, rel=1e-12)
        assert elapsed < 30.0


def test_criterion_4_theorem4_goldens():
    with criterion(4, "Theorem-4 Delta(h) and error-bound goldens"):
        d = riccati_design(INTEGRATOR, lam=ALG5.lambda_2, mu=ALG5.lambda_2)
        x0_sum = np.array([0.5])
        h, tau, delta_e = 0.025, 0.02, 0.08
        dk = delta_kappa(INTEGRATOR, x0_sum, 5, h, max_expm_norms(INTEGRATOR.A)[0])
        delta_h = ALG5.lambda_n * 1.0 * (dk + delta_e)   # sigma_BK = 1
        assert delta_h == pytest.approx(0.2894, abs=1e-3)
        bound, beta = theorem4_bound_opt_beta(
            INTEGRATOR, d, ALG5, h, tau, delta_e, x0_sum,
            alpha=0.5, gamma=3.188, eta=1.6)
        assert bound == pytest.approx(0.4535, abs=1e-2)
        assert beta > 0     # optimizer-selected beta recorded (clamp floor here)


def test_criterion_5_comparison_constant():
    with criterion(5, "synchronous comparison constant 2/lambda_n"):
        assert 2.0 / ALG5.lambda_n == pytest.approx(0.5528, abs=1e-4)
        report = theorem3_budget(ALG5)
        assert report.details["synchronous_necessary_sufficient"] == \
            pytest.approx(0.5528, abs=1e-4)


def test_criterion_6_lemma_property_suite():
    with criterion(6, "Lemma-1 envelopes and Lemma-2 inequalities on random draws"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            A = rng.uniform(-2.0, 2.0, size=(n, n))
            c = SpectralConstants.from_matrix(A)
            for t in (0.01, 0.1, 1.0):
                b1, b2, b3 = lemma1_bounds(c, t)
                E = sla.expm(A * t)
                assert b1 - max_singular_value(E) >= -1e-9
                assert b2 - max_singular_value(E - np.eye(n)) >= -1e-9
                assert b3 - max_singular_value(scipy_expm_integral(A, t)) >= -1e-9
        for t in rng.uniform(0.0, 10.0, size=1000):
            lhs1, rhs1, l2a, l2b, r2b = lemma2_check(float(t))
            assert lhs1 <= rhs1 * (1.0 + 1e-12) + 1e-12
            assert l2a <= l2b + 1e-12
            assert l2b <= r2b * (1.0 + 1e-12) + 1e-12
        assert time.perf_counter() - t0 < 10.0


def test_criterion_7_simulation_exactness():
    with criterion(7, "event-driven stepping vs adaptive ODE oracle on 50 scenarios"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(777)
        for k in range(50):
            n = int(rng.integers(1, 7))
            N = int(rng.integers(1, 4))
            s = Scenario(
                mode="abstract_coupled",
                model=LtiModel(A=rng.uniform(-1.0, 1.0, size=(N, N)),
                               B=np.eye(N)),
                gain=rng.uniform(-0.5, 0.5, size=(N, N)),
                x0=rng.uniform(-1.0, 1.0, size=n * N),
                horizon=float(rng.uniform(0.5, 10.0)),
                seed=k,
                coupling=rng.uniform(-0.5, 0.5, size=(n, n)),
                schedule=ScheduleParams(0.05, 0.15, 0.04),
                error_model=ErrorModel.multiplicative(
                    float(rng.uniform(0.0, 0.2))),
                snapshot_points=10,
            )
            tr = run(s)
            expected = ivp_oracle_final_state(tr)
            assert np.linalg.norm(tr.states[-1] - expected) < 1e-8
        assert time.perf_counter() - t0 < 60.0


def test_criterion_8_structural_invariants():
    with criterion(8, "average-state invariance, Zeno-freeness, schedule "
                      "admissibility, quantizer law"):
        # average-state invariance in both consensus modes
        doc1, _ = builtin_example(1)
        doc1["horizon"] = 3.0
        tr1 = run(parse_scenario(doc1))
        assert average_state_error(tr1) < 1e-9
        doc2, _ = builtin_example(2)
        doc2["horizon"] = 5.0
        tr2 = run(parse_scenario(doc2))
        assert average_state_error(tr2) < 1e-9
        # Zeno-freeness in both event-triggered flavors
        doc3, _ = builtin_example(3)
        doc3["horizon"] = 5.0
        tr3 = run(parse_scenario(doc3))
        assert min_update_gap(tr3) >= 0.025 - 1e-9
        s_et = Scenario(mode="abstract_coupled", model=INTEGRATOR,
                        gain=np.array([[1.0]]), x0=[1.0, -1.0, 0.5],
                        horizon=2.0, coupling=np.eye(3) * 2.0 - 1.0 + np.eye(3),
                        error_model=ErrorModel.event_trigger(0.01, dwell=0.04))
        tr4 = run(s_et)
        assert min_update_gap(tr4) >= 0.04 - 1e-9
        # every generated schedule passes the independent validator
        for seed in range(10):
            for ch in range(5):
                sched = generate_schedule(0.005, 0.012, 0.005, 5.0, seed, ch)
                validate_schedule(sched, 0.012, 0.005)
        # quantizer relative-error law on 1e6 samples
        rng = np.random.default_rng(31)
        x = rng.uniform(-50.0, 50.0, size=1_000_000)
        x = x[x != 0.0]
        for level in (1.1, 2.0):
            q = log_quantize(x, level)
            assert np.all(np.abs(x - q) <= (level - 1.0) * np.abs(q) * (1 + 1e-9))


def test_criterion_9_convergence_demonstrations():
    with criterion(9, "Example-1 and Example-3 convergence across 20 seeds"):
        t0 = time.perf_counter()
        for seed in range(20):
            doc, _ = builtin_example(1, seed=seed)
            s = parse_scenario(doc)
            d0 = s.x0.reshape(5, 2) - s.x0.reshape(5, 2).mean(axis=0)
            target = 1e-6 * float((d0 * d0).sum())
            s = replace(s, stop_at_consensus=True, consensus_tol=target)
            tr = run(s)
            assert np.any(tr.delta_sq < target), f"example 1 seed {seed}"
            assert tr.t[np.argmax(tr.delta_sq < target)] <= 60.0
        for seed in range(20):
            doc, _ = builtin_example(3, seed=seed)
            tr = run(parse_scenario(doc))
            last_second = tr.t >= tr.t[-1] - 1.0
            assert _delta_tilde_reference(tr)[last_second].min() < 0.4535, \
                f"example 3 seed {seed}"
        assert time.perf_counter() - t0 < 120.0
