import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from asynclab import bounds
from asynclab.bounds import (NORM_SAMPLES, BoundQuery, InfeasibleError, SearchParams,
                             SetMembershipError, _best_margin, _best_witness,
                             _find_budget, _gamma_sup, _margin_at, corollary1_budget,
                             corollary2_budget, delta_kappa, marginally_stable,
                             max_expm_norms, theorem1_budget, theorem1_margin,
                             theorem2_budget, theorem3_budget,
                             theorem4_bound_opt_beta,
                             theorem4_error_bound, theorem5_budget)
from asynclab.design import riccati_design
from asynclab.graphs import build_algebra, cycle_graph, path_graph
from asynclab.matan import LtiModel, expm, max_singular_value

OSCILLATOR = LtiModel(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]])
INTEGRATOR = LtiModel(A=[[0.0]], B=[[1.0]])
ALG5 = build_algebra(cycle_graph(5))


# -- inner optimizer vs numeric oracle --------------------------------------

def _numeric_best_margin(mu, eps, omega, lam_As, sigma_A, coupling, s):
    """Independent oracle: grid seeding plus coordinate-wise golden-section
    refinement of the margin over (alpha, beta)."""
    grid = np.geomspace(1e-6, 1e6, 121)
    best = -np.inf
    for a in grid:
        for b in grid:
            m = _margin_at(mu, eps, omega, lam_As, sigma_A, coupling, s, a, b)
            if m > best:
                best, seed = m, (a, b)
    a, b = seed
    for _ in range(6):
        ra = minimize_scalar(
            lambda x: -_margin_at(mu, eps, omega, lam_As, sigma_A, coupling,
                                  s, math.exp(x), b),
            bracket=(math.log(a) - 2, math.log(a) + 2), method="golden",
            options={"xtol": 1e-13})
        a = math.exp(ra.x)
        rb = minimize_scalar(
            lambda x: -_margin_at(mu, eps, omega, lam_As, sigma_A, coupling,
                                  s, a, math.exp(x)),
            bracket=(math.log(b) - 2, math.log(b) + 2), method="golden",
            options={"xtol": 1e-13})
        b = math.exp(rb.x)
    return _margin_at(mu, eps, omega, lam_As, sigma_A, coupling, s, a, b)


def test_closed_form_inner_optimum_matches_numeric_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        mu = rng.uniform(0.2, 3.0)
        eps = rng.uniform(0.2, 3.0)
        omega = rng.choice([0.0, rng.uniform(0.001, 0.5)])
        lam_As = rng.uniform(-1.0, 1.0)
        sigma_A = rng.choice([0.0, rng.uniform(0.1, 2.0)])
        coupling = rng.uniform(0.1, 3.0)
        s = rng.uniform(0.01, 0.5)
        exact = _best_margin(mu, eps, omega, lam_As, sigma_A, coupling, s)
        numeric = _numeric_best_margin(mu, eps, omega, lam_As, sigma_A,
                                       coupling, s)
        assert numeric <= exact + 1e-9
        assert numeric == pytest.approx(exact, abs=1e-6, rel=1e-6)


def test_margin_decreases_in_error_terms():
    q0 = BoundQuery(mu=1.0, eps=1.0, omega=0.0, lambda_As=0.0, sigma_A=1.0,
                    sigma_G=1.0, sigma_K=1.0, h=0.05, tau=0.02)
    q1 = BoundQuery(mu=1.0, eps=1.0, omega=0.1, lambda_As=0.0, sigma_A=1.0,
                    sigma_G=1.0, sigma_K=1.0, h=0.05, tau=0.02)
    p = SearchParams(alpha=1.0, beta=1.0)
    assert theorem1_margin(q1, p) < theorem1_margin(q0, p)


# -- theorem 1 budget -------------------------------------------------------

def test_theorem1_budget_certified_by_witness():
    q = BoundQuery(mu=1.0, eps=0.5, omega=0.05, lambda_As=0.3, sigma_A=1.2,
                   sigma_G=2.0, sigma_K=1.5)
    report = theorem1_budget(q)
    assert report.feasible and not report.unbounded
    # The reported witness certifies the budget ...
    at_budget = BoundQuery(mu=q.mu, eps=q.eps, omega=q.omega,
                           lambda_As=q.lambda_As, sigma_A=q.sigma_A,
                           sigma_G=q.sigma_G, sigma_K=q.sigma_K,
                           h=report.budget, tau=0.0)
    assert theorem1_margin(at_budget, report.witness) > 0
    # ... and no grid witness certifies a 1% larger lag.
    beyond = report.budget * 1.01
    for a in np.geomspace(1e-6, 1e6, 61):
        for b in np.geomspace(1e-6, 1e6, 61):
            assert _margin_at(q.mu, q.eps, q.omega, q.lambda_As, q.sigma_A,
                              q.sigma_G * q.sigma_K, beyond, a, b) <= 0


def test_theorem1_infeasible_when_error_dominates():
    # eps * omega >= mu: no lag can be certified.
    report = theorem1_budget(BoundQuery(mu=1.0, eps=2.0, omega=0.6,
                                        sigma_G=1.0, sigma_K=1.0))
    assert not report.feasible
    assert report.budget == 0.0


def test_theorem1_unbounded_without_coupling_or_drift():
    report = theorem1_budget(BoundQuery(mu=1.0, eps=1.0, omega=0.0,
                                        lambda_As=0.0, sigma_A=0.0,
                                        sigma_G=0.0, sigma_K=0.0))
    assert report.feasible and report.unbounded
    assert report.budget == math.inf


# -- exact budget search vs the dense scan it replaced ----------------------

SCAN_RESOLUTION = 1e-4
SCAN_LIMIT = 1e3
SCAN_CHUNK = 10**6


def _scan_budget(mu, eps, omega, lam_As, sigma_A, coupling):
    """Reference: the first sign change of the best margin on a 1e-4 grid
    out to SCAN_LIMIT, then bisection to adjacent floats. Returns (budget,
    unbounded); it cannot see a crossing beyond SCAN_LIMIT. The grid is
    evaluated in chunks to keep memory flat."""
    fm = lambda s: _best_margin(mu, eps, omega, lam_As, sigma_A, coupling, s)
    if fm(0.0) <= 0:
        return 0.0, False
    lo = hi = None
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in ((0.0, 1.0), (1.0, 10.0), (10.0, 100.0), (100.0, SCAN_LIMIT)):
            n = int(round((b - a) / SCAN_RESOLUTION)) + 1
            for start in range(0, n, SCAN_CHUNK):
                k = start + np.arange(min(SCAN_CHUNK, n - start))
                neg = np.nonzero(fm(a + SCAN_RESOLUTION * k) <= 0)[0]
                if neg.size:
                    k = k[neg[0]]
                    lo = a + SCAN_RESOLUTION * (k - 1) if k > 0 else a
                    hi = a + SCAN_RESOLUTION * k
                    break
            if hi is not None:
                break
    if hi is None:
        return SCAN_LIMIT, True
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo, False
        if fm(mid) > 0:
            lo = mid
        else:
            hi = mid


def test_exact_budget_search_matches_scan():
    # Draws cover every shape of the penalty: rising (lambda_As >= 0),
    # peaked with and without a crossing (lambda_As < 0), and flat or
    # falling without slope (c = 0).
    rng = np.random.default_rng(3)
    for _ in range(30):
        mu = rng.uniform(0.2, 3.0)
        eps = rng.uniform(0.2, 3.0)
        omega = rng.choice([0.0, rng.uniform(0.001, 0.5)])
        lam_As = rng.choice([0.0, rng.uniform(-3.0, 1.0)])
        sigma_A = rng.choice([0.0, rng.uniform(0.1, 2.0)])
        coupling = rng.choice([0.0, rng.uniform(0.1, 3.0)])
        args = (mu, eps, omega, lam_As, sigma_A, coupling)
        ref, ref_unbounded = _scan_budget(*args)
        budget, lag = _find_budget(*args)
        assert (budget == math.inf) == ref_unbounded, args
        if not ref_unbounded:
            assert budget == pytest.approx(ref, rel=1e-12, abs=0.0), args
            assert lag == budget
            assert budget == 0.0 or _best_margin(*args, budget) > 0


def test_budget_beyond_the_old_scan_limit_is_finite():
    # lambda_As = sigma_A = 0: the budget is (sqrt(mu/eps) - sqrt(omega)) / c,
    # about 1624, past the s = 1000 where the dense scan called it unbounded.
    q = BoundQuery(mu=2.473662513915308, eps=0.2826194151384146,
                   omega=0.19521653405696718, sigma_G=0.0010144051820021316,
                   sigma_K=1.0)
    args = (q.mu, q.eps, q.omega, 0.0, 0.0, q.sigma_G)
    assert _scan_budget(*args) == (SCAN_LIMIT, True)
    closed_form = ((math.sqrt(q.mu / q.eps) - math.sqrt(q.omega))
                   / (math.sqrt(7.0 / 3.0) * q.sigma_G))
    assert _find_budget(*args)[0] == pytest.approx(closed_form, rel=1e-12)
    report = theorem1_budget(q)
    assert report.feasible and not report.unbounded
    # The report may shave the budget until its clamped witness certifies it.
    assert report.budget == pytest.approx(1624.14, abs=0.01)
    assert report.budget <= closed_form
    assert theorem1_margin(replace(q, h=report.budget), report.witness) > 0


def test_budget_is_the_largest_lag_its_witness_certifies():
    # The clamped witness does not certify the exact root of this query; the
    # report bisects down to the last float whose own witness does.
    q = BoundQuery(mu=2.473662513915308, eps=0.2826194151384146,
                   omega=0.19521653405696718, sigma_G=0.0010144051820021316,
                   sigma_K=1.0)
    args = (q.mu, q.eps, q.omega, 0.0, 0.0, q.sigma_G)

    def certified(s):
        return _margin_at(*args, s, *_best_witness(q.omega, 0.0, q.sigma_G, s))

    root = _find_budget(*args)[0]
    assert certified(root) <= 0
    report = theorem1_budget(q)
    assert 1624.13855 <= report.budget < root
    assert theorem1_margin(replace(q, h=report.budget), report.witness) > 0
    assert report.margin == certified(report.budget) > 0
    assert certified(math.nextafter(report.budget, math.inf)) <= 0


def test_unbounded_budget_is_infinite_with_worst_lag_witness():
    q = BoundQuery(mu=1.0, eps=1.0, omega=0.01, lambda_As=-5.0, sigma_A=1.0,
                   sigma_G=1.0, sigma_K=1.0)
    tracemalloc.start()
    try:
        report = theorem1_budget(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert report.feasible and report.unbounded
    assert report.budget == math.inf
    assert math.isfinite(report.margin) and report.margin > 0
    # The witness sits where the penalty peaks, s* = (-c/lambda - sqrt(omega))/c.
    c = 1.0 + math.sqrt(7.0 / 3.0)
    s_star = (c / 5.0 - 0.1) / c
    assert report.margin == pytest.approx(
        _best_margin(1.0, 1.0, 0.01, -5.0, 1.0, 1.0, s_star), rel=1e-6)
    assert theorem5_budget(q).budget == math.inf


# -- gamma supremum ---------------------------------------------------------

def test_gamma_sup_against_scan():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.uniform(0.1, 3.0)
        b = rng.uniform(0.05, 3.0)
        c = rng.uniform(-b * b / a + 1e-3, 3.0)
        sup, gamma_star, unbounded = _gamma_sup(a, b, c)
        assert not unbounded
        grid = np.geomspace(1e-4, 1e4, 200001)
        vals = (a - b / grid) / (b * grid + c)
        ok = grid > b / a          # positive numerator branch
        scan = vals[ok].max()
        assert sup >= scan - 1e-9
        assert sup == pytest.approx(scan, rel=1e-6)
        # stationarity: a g^2 - 2 b g - c = 0 at gamma_star
        assert a * gamma_star**2 - 2 * b * gamma_star - c == pytest.approx(
            0.0, abs=1e-9 * max(1.0, gamma_star**2))


def test_gamma_sup_unbounded_branch():
    sup, _, unbounded = _gamma_sup(2.0, 1.0, -1.0)   # b^2/a + c = -0.5 <= 0
    assert unbounded and math.isinf(sup)


# -- theorem 2 (relative-edge pipeline) -------------------------------------

def test_theorem2_budget_golden_oscillator():
    d = riccati_design(OSCILLATOR, lam=ALG5.lambda_2, mu=1.0)
    report = theorem2_budget(OSCILLATOR, d, ALG5, omega=0.01)
    assert report.feasible
    assert report.budget == pytest.approx(0.01779, abs=2e-4)
    assert report.details["gamma_star"] == pytest.approx(4.236068, abs=1e-4)
    assert report.details["gamma_sup"] == pytest.approx(0.055728, abs=1e-5)


def test_theorem2_requires_connected_graph():
    from asynclab.graphs import InteractionGraph
    d = riccati_design(OSCILLATOR, lam=ALG5.lambda_2, mu=1.0)
    disconnected = build_algebra(InteractionGraph(n=4, edges=((1, 2), (3, 4))))
    with pytest.raises(InfeasibleError):
        theorem2_budget(OSCILLATOR, d, disconnected, omega=0.0)


def test_theorem2_rejects_oversized_design_lambda():
    # Designing at lambda = lambda_n leaves lambda_2 below the design value,
    # so the Lyapunov inequality fails on that mode.
    d = riccati_design(OSCILLATOR, lam=ALG5.lambda_n, mu=1.0)
    with pytest.raises(InfeasibleError):
        theorem2_budget(OSCILLATOR, d, ALG5, omega=0.0)


# -- theorem 3 (single-integrator broadcast) --------------------------------

def test_theorem3_budget_golden_cycle5():
    report = theorem3_budget(ALG5)
    assert report.budget == pytest.approx(0.069114, abs=1e-5)
    assert report.details["gamma_star"] == pytest.approx(2.618034, abs=1e-4)
    assert report.details["objective"] == pytest.approx(0.145898, abs=1e-5)
    assert report.details["synchronous_necessary_sufficient"] == pytest.approx(
        0.5527864, abs=1e-5)


@pytest.mark.parametrize("gain", [2.0, 5.0, 0.25])
def test_theorem3_gain_rescales_time(gain):
    # x' = -k L x_hat is the unit-gain system in time k t: the budget and
    # the synchronous constant divide by k, and the rest stays
    unit, scaled = theorem3_budget(ALG5), theorem3_budget(ALG5, gain=gain)
    assert scaled.budget == unit.budget / gain
    assert (scaled.details["synchronous_necessary_sufficient"]
            == unit.details["synchronous_necessary_sufficient"] / gain)
    assert scaled.margin == unit.margin
    assert scaled.details["objective"] == unit.details["objective"]


def test_theorem3_diagnostics_name_the_gain():
    # unit gain keeps its label; any other k labels the constant it divides
    assert theorem3_budget(ALG5).diagnostics == (
        "single-integrator budget 0.0691136 (gamma* = 2.61803, objective = 0.145898); "
        "synchronous comparison constant 2/lambda_n = 0.552786")
    assert theorem3_budget(ALG5, gain=5.0).diagnostics == (
        "single-integrator budget 0.0138227 (gamma* = 2.61803, objective = 0.145898); "
        "synchronous comparison constant 2/(k lambda_n) = 0.110557")


@pytest.mark.parametrize("gain", [0.0, -1.0, math.inf, math.nan])
def test_theorem3_refuses_a_gain_that_is_not_positive_and_finite(gain):
    with pytest.raises(InfeasibleError, match="gain"):
        theorem3_budget(ALG5, gain=gain)


def test_theorem3_k2_formula_and_scan_oracle():
    # K2: lambda_2 = lambda_n = 2, sigma = max{4, -2} = 4, and the
    # objective is (2 - 2/g)/(2g) with optimum 1/4 at g = 2.
    alg = build_algebra(path_graph(2))
    report = theorem3_budget(alg)
    assert report.details["sigma"] == pytest.approx(4.0)
    assert report.details["gamma_star"] == pytest.approx(2.0)
    assert report.details["objective"] == pytest.approx(0.25)
    assert report.budget == pytest.approx(math.sqrt(3.0 / 28.0 * 0.25))
    # scan oracle on the gamma objective
    grid = np.geomspace(1e-3, 1e3, 200001)
    vals = (alg.lambda_2 - 2.0 / grid) / (2.0 * grid + 0.0)
    assert report.details["objective"] == pytest.approx(vals.max(), rel=1e-6)


def test_theorem3_scan_oracle_on_cycles():
    # The closed-form gamma optimum matches a dense scan on several cycles.
    for n in (3, 4, 6, 8):
        alg = build_algebra(cycle_graph(n))
        report = theorem3_budget(alg)
        lam2, lam_n = alg.lambda_2, alg.lambda_n
        sigma = report.details["sigma"]
        grid = np.geomspace(1e-3, 1e4, 200001)
        vals = (lam2 - sigma / (2.0 * grid)) / (sigma * grid / 2.0 + lam_n - lam2)
        assert report.details["objective"] == pytest.approx(vals.max(), rel=1e-6)
        assert report.budget == pytest.approx(
            math.sqrt(3.0 / (7.0 * lam_n**2) * vals.max()), rel=1e-6)


# -- marginal stability and exponential norms -------------------------------

def test_marginally_stable_classification():
    assert marginally_stable(np.zeros((2, 2)))
    assert marginally_stable([[0.0, 1.0], [-1.0, 0.0]])
    assert marginally_stable([[-1.0, 0.0], [0.0, -2.0]])
    assert not marginally_stable([[1e-3, 0.0], [0.0, 0.0]])
    # Jordan block at zero: e^{At} grows linearly.
    assert not marginally_stable([[0.0, 1.0], [0.0, 0.0]])


def test_max_expm_norms_known_cases():
    two, inf = max_expm_norms(np.zeros((1, 1)))
    assert two == pytest.approx(1.0)
    assert inf == pytest.approx(1.0)
    # Rotation: spectral norm 1 for all t; max row sum |cos|+|sin| peaks
    # at sqrt(2).
    two, inf = max_expm_norms([[0.0, 1.0], [-1.0, 0.0]])
    assert two == pytest.approx(1.0, abs=1e-9)
    assert inf == pytest.approx(math.sqrt(2.0), abs=1e-4)


def _loop_expm_norms(A):
    """Reference: the per-sample loop that max_expm_norms replaced."""
    A = np.asarray(A, dtype=float)
    eig = np.linalg.eigvals(A)
    T = 1.0
    freqs = np.abs(eig.imag)
    freqs = freqs[freqs > 1e-9]
    if freqs.size:
        T = max(T, 2.0 * math.pi / freqs.min())
    decays = -eig.real[eig.real < -1e-9]
    if decays.size:
        T = max(T, 10.0 / decays.min())
    best2 = bestinf = 0.0
    for s in np.linspace(0.0, T, NORM_SAMPLES):
        E = expm(A, s)
        best2 = max(best2, max_singular_value(E))
        bestinf = max(bestinf, float(np.abs(E).sum(axis=1).max()))
    return best2, bestinf


@pytest.mark.parametrize("A", [
    [[0.0]],
    [[0.0, 1.0], [-1.0, 0.0]],
    [[-1.0, 1.0], [0.0, -1.0]],
    [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.5], [0.0, 0.0, -0.5]],
    np.zeros((2, 2)),
    np.zeros((3, 3)),
    np.diag([0.0, -1.0]),
    np.diag([-1.0, -2.0]),
    np.diag([0.0, -0.3, -7.0]),
], ids=["zero", "rotation", "jordan_decay", "mixed_3x3", "zero_2x2", "zero_3x3",
        "diag_0_-1", "diag_-1_-2", "diag_0_-0.3_-7"])
def test_max_expm_norms_batched_equals_loop(A):
    assert max_expm_norms(A) == _loop_expm_norms(A)


def test_max_expm_norms_diagonal_takes_no_samples(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a diagonal A needs no sampled e^{As}")
    monkeypatch.setattr(bounds, "expm", fail)
    monkeypatch.setattr(np.linalg, "svd", fail)
    for A in ([[0.0]], np.zeros((3, 3)), np.diag([0.0, -1.0]), np.diag([-1.0, -2.0])):
        assert max_expm_norms(A) == (1.0, 1.0)
    # an off-diagonal entry or a positive one takes the sampled scan
    for A in ([[0.0, 1.0], [-1.0, 0.0]], [[1.0]]):
        with pytest.raises(AssertionError, match="no sampled"):
            max_expm_norms(A)


def test_delta_kappa_vanishes_for_integrators():
    assert delta_kappa(INTEGRATOR, np.array([3.0]), 5, 0.025,
                       max_expm_norms(INTEGRATOR.A)[0]) == 0.0


def test_delta_kappa_oscillator_hand_value():
    # lambda_As = 0 limit: growth = sigma_A * h; max ||e^{As}||_2 = 1.
    x0_sum = np.array([2.0, -1.0])
    val = delta_kappa(OSCILLATOR, x0_sum, 5, 0.01, max_expm_norms(OSCILLATOR.A)[0])
    expected = (1.0 / math.sqrt(5.0)) * np.linalg.norm(x0_sum) * 1.0 * 0.01
    assert val == pytest.approx(expected, rel=1e-6)


# -- theorem 4 --------------------------------------------------------------

def _example3_setup():
    d = riccati_design(INTEGRATOR, lam=ALG5.lambda_2, mu=ALG5.lambda_2)
    x0_sum = np.array([0.5])
    return d, x0_sum


def test_theorem4_golden_bound():
    d, x0_sum = _example3_setup()
    bound, beta = theorem4_bound_opt_beta(
        INTEGRATOR, d, ALG5, h=0.025, tau=0.02, delta_e=0.08, x0_sum=x0_sum,
        alpha=0.5, gamma=3.188, eta=1.6)
    assert bound == pytest.approx(0.4535, abs=1e-2)
    # sigma_A = 0 drives the optimal beta to the clamp floor.
    assert beta == pytest.approx(1e-9)


def test_theorem4_infeasible_parameters_listed():
    d, x0_sum = _example3_setup()
    # gamma huge makes the decay negative.
    with pytest.raises(SetMembershipError, match="feasibility"):
        theorem4_error_bound(INTEGRATOR, d, ALG5, 0.025, 0.02, 0.08, x0_sum,
                             SearchParams(alpha=0.5, beta=1e-9, gamma=1e-4,
                                          eta=1.6))


def test_theorem4_rejects_unstable_dynamics():
    d = riccati_design(LtiModel(A=[[0.5]], B=[[1.0]]), lam=1.0, mu=1.0)
    with pytest.raises(InfeasibleError):
        theorem4_error_bound(LtiModel(A=[[0.5]], B=[[1.0]]), d, ALG5,
                             0.01, 0.0, 0.01, np.array([0.0]),
                             SearchParams(alpha=1.0, beta=1.0))


# -- corollaries and theorem 5 ----------------------------------------------

def test_corollary1_matches_theorem2_with_squared_level():
    d = riccati_design(OSCILLATOR, lam=ALG5.lambda_2, mu=1.0)
    via_c1 = corollary1_budget(OSCILLATOR, d, ALG5, quant_level=1.1)
    direct = theorem2_budget(OSCILLATOR, d, ALG5, omega=0.01)
    assert via_c1.budget == pytest.approx(direct.budget, rel=1e-9)
    with pytest.raises(ValueError):
        corollary1_budget(OSCILLATOR, d, ALG5, quant_level=1.0)


def test_corollary1_abstract_route():
    q = BoundQuery(mu=1.0, eps=1.0, omega=0.0, sigma_G=1.0, sigma_K=1.0)
    r = corollary1_budget(q, quant_level=1.2)
    expected = theorem1_budget(BoundQuery(mu=1.0, eps=1.0, omega=0.04,
                                          sigma_G=1.0, sigma_K=1.0))
    assert r.budget == pytest.approx(expected.budget)


def test_corollary2_equals_theorem1_with_zero_tau():
    q = BoundQuery(mu=1.0, eps=0.5, omega=0.09, sigma_A=1.0,
                   sigma_G=1.5, sigma_K=1.0)
    assert corollary2_budget(q).budget == pytest.approx(
        theorem1_budget(q).budget)


def test_theorem5_residual_budget():
    q = BoundQuery(mu=1.0, eps=0.5, omega=0.02, sigma_A=1.0,
                   sigma_G=1.5, sigma_K=1.0, tau_in=0.0)
    base = theorem1_budget(q)
    q_in = BoundQuery(mu=1.0, eps=0.5, omega=0.02, sigma_A=1.0,
                      sigma_G=1.5, sigma_K=1.0, tau_in=base.budget / 2.0)
    r = theorem5_budget(q_in)
    assert r.feasible
    assert r.budget == pytest.approx(base.budget / 2.0)
    # input delay eats the whole budget
    q_big = BoundQuery(mu=1.0, eps=0.5, omega=0.02, sigma_A=1.0,
                       sigma_G=1.5, sigma_K=1.0, tau_in=base.budget * 2.0)
    assert not theorem5_budget(q_big).feasible


@pytest.mark.parametrize("bad", [{"mu": 0.0}, {"eps": -1.0}, {"omega": -0.1},
                                 {"sigma_A": -5.0}, {"sigma_G": -1.0}, {"sigma_K": -1.0},
                                 {"h": -0.1}, {"tau_in": -0.1}, {"omega": math.nan},
                                 {"lambda_As": math.nan}, {"sigma_A": math.inf},
                                 {"lambda_As": -math.inf}])
def test_bound_query_rejects(bad):
    # the budget search takes nonnegative, finite constants; a negative
    # singular value was certified unbounded, and a NaN omega feasible
    with pytest.raises(ValueError):
        BoundQuery(**{"mu": 1.0, "eps": 1.0, **bad})


def test_bound_query_validation():
    with pytest.raises(ValueError):
        SearchParams(alpha=0.0, beta=1.0)
    with pytest.raises(ValueError):
        SearchParams(alpha=1.0, beta=1.0, theta=1.0)
