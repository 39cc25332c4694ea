from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.linalg

from asynclab import design
from asynclab.design import (DesignError, design_constants, riccati_design,
                             riccati_residual, theorem4_sigma,
                             verify_lyapunov_family)
from asynclab.graphs import build_algebra, cycle_graph
from asynclab.matan import LtiModel

LAM2 = 2.0 * (1.0 - np.cos(2.0 * np.pi / 5.0))      # 1.381966...

OSCILLATOR = LtiModel(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]])
INTEGRATOR = LtiModel(A=[[0.0]], B=[[1.0]])


def test_scalar_integrator_closed_form():
    # A = 0, B = 1: -2 lam p^2 = -2 mu -> p = sqrt(mu/lam), K = p.
    d = riccati_design(INTEGRATOR, lam=2.0, mu=8.0)
    assert d.P[0, 0] == pytest.approx(2.0)
    assert d.K[0, 0] == pytest.approx(2.0)
    assert riccati_residual(d, INTEGRATOR) < 1e-10


def test_oscillator_gain_golden():
    d = riccati_design(OSCILLATOR, lam=LAM2, mu=1.0)
    assert d.K.ravel() == pytest.approx([0.5626, 1.0633], abs=1e-3)
    assert riccati_residual(d, OSCILLATOR) < 1e-10
    assert np.all(np.linalg.eigvalsh(d.P) > 0)


def test_oscillator_closed_form_oracle():
    # Independent oracle: with A = [[0,1],[-1,0]], B = [0,1]^T and
    # P = [[p1,p2],[p2,p3]], the Riccati equation reduces entrywise to
    #   -2 p2 - 2 lam p2^2 = -2 mu   (1,1)
    #   p1 - p3 - 2 lam p2 p3 = 0    (1,2)
    #   2 p2 - 2 lam p3^2 = -2 mu    (2,2)
    # so  lam p2^2 + p2 - mu = 0  and  lam p3^2 = p2 + mu.
    lam, mu = LAM2, 1.0
    p2 = (-1.0 + np.sqrt(1.0 + 4.0 * lam * mu)) / (2.0 * lam)
    p3 = np.sqrt((p2 + mu) / lam)
    p1 = p3 + 2.0 * lam * p2 * p3
    d = riccati_design(OSCILLATOR, lam=lam, mu=mu)
    assert d.P == pytest.approx(np.array([[p1, p2], [p2, p3]]), abs=1e-10)
    # K = B^T P is the bottom row of P
    assert d.K.ravel() == pytest.approx([p2, p3], abs=1e-10)


def test_riccati_rejects_bad_inputs():
    with pytest.raises(DesignError):
        riccati_design(INTEGRATOR, lam=0.0, mu=1.0)
    with pytest.raises(DesignError):
        riccati_design(INTEGRATOR, lam=1.0, mu=-1.0)
    # Unstabilizable pair: A = 1, B = 0.
    with pytest.raises(DesignError):
        riccati_design(LtiModel(A=[[1.0]], B=[[0.0]]), lam=1.0, mu=1.0)


def _scalar_draws(seed, count, decades):
    """count scalar models (a, B) per sign of a and per B of 1 and 3
    columns, each with its (lam, mu); every magnitude is log-uniform over
    10^(+-decades)."""
    rng = np.random.default_rng(seed)
    for sign in (-1.0, 0.0, 1.0):
        for m in (1, 3):
            for _ in range(count):
                a, b_norm, lam, mu = 10.0 ** rng.uniform(-decades, decades, 4)
                b = rng.normal(size=(1, m))
                yield (LtiModel(A=[[sign * a]], B=b_norm * b / np.linalg.norm(b)),
                       float(lam), float(mu))


def test_scalar_design_matches_scipy():
    # The closed form and scipy's Schur solver agree to 1e-14 relative on
    # well-scaled scalar equations, for a < 0, a = 0 and a > 0.
    for model, lam, mu in _scalar_draws(1, 100, 0.5):
        p = riccati_design(model, lam, mu).P[0, 0]
        q = scipy.linalg.solve_continuous_are(
            model.A, model.B, 2.0 * mu * np.eye(1), np.eye(model.M) / (2.0 * lam))[0, 0]
        assert abs(p - q) <= 1e-14 * q, (model, lam, mu)


def test_scalar_design_matches_the_exact_root():
    # Over four decades either way, where scipy's solution drifts by up to
    # ~3e-12, the closed form stays within a few ulps of the positive root
    # of 2 a p - 2 lam |b|^2 p^2 + 2 mu = 0 in 60-digit arithmetic.
    with localcontext() as ctx:
        ctx.prec = 60
        for model, lam, mu in _scalar_draws(2, 50, 2.0):
            a, lam_d, mu_d = Decimal(model.A[0, 0]), Decimal(lam), Decimal(mu)
            bb = sum(Decimal(x) ** 2 for x in model.B.ravel().tolist())
            root = (a + (a * a + 4 * lam_d * mu_d * bb).sqrt()) / (2 * lam_d * bb)
            p = Decimal(riccati_design(model, lam, mu).P[0, 0])
            assert abs(p - root) <= Decimal(1e-15) * root, (model, lam, mu)


def test_scalar_design_edge_cases():
    # B = 0 leaves the linear equation 2 a p + 2 mu = 0: p = mu / |a| for
    # a stable a, and no solution otherwise.
    d = riccati_design(LtiModel(A=[[-4.0]], B=[[0.0]]), lam=1.0, mu=3.0)
    assert d.P[0, 0] == 0.75
    for a in (0.0, 1.0):
        with pytest.raises(DesignError):
            riccati_design(LtiModel(A=[[a]], B=[[0.0]]), lam=1.0, mu=1.0)
    # an infinite lambda has no positive finite root: refused, never a NaN P
    for a in (-1.0, 0.0, 1.0):
        for b in (0.0, 1.0):
            with pytest.raises(DesignError):
                riccati_design(LtiModel(A=[[a]], B=[[b]]), lam=np.inf, mu=1.0)


def test_riccati_refuses_a_residual_lost_to_underflow(monkeypatch):
    # With lam = mu = 1e-300 the answer is P = I, which both solvers find.
    model = LtiModel(A=np.zeros((2, 2)), B=np.eye(2))
    d = riccati_design(model, lam=1e-300, mu=1e-300)
    assert np.array_equal(d.P, np.eye(2)) and np.array_equal(d.K, np.eye(2))
    d = riccati_design(INTEGRATOR, lam=1e-300, mu=1e-300)
    assert d.P[0, 0] == 1.0 and d.K[0, 0] == 1.0
    # scipy's Schur solver returns ~2.8e-209 I for the two-state equation,
    # whose 2e-300 residual has an underflowing Frobenius norm; measured
    # against the size of the equation's terms it is refused.
    monkeypatch.setattr(design, "_hamiltonian_riccati",
                        lambda *args: 2.8e-209 * np.eye(2))
    with pytest.raises(DesignError, match="residual"):
        riccati_design(model, lam=1e-300, mu=1e-300)


def _matrix_draws(seed, count):
    """count well-scaled models with N of 2-8 states and M of 1-N inputs:
    A's scale and lam and mu are log-uniform over 10^(+-1)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n + 1))
        A = 10.0 ** rng.uniform(-1.0, 1.0) * rng.normal(size=(n, n))
        lam, mu = 10.0 ** rng.uniform(-1.0, 1.0, 2)
        yield LtiModel(A=A, B=rng.normal(size=(n, m))), float(lam), float(mu)


def test_hamiltonian_design_matches_scipy(monkeypatch):
    # The eigenvector solution and scipy's Schur solution both pass
    # riccati_design's residual check, and their gains agree to 1e-7
    # relative (the worst of these draws is ~1e-10).
    draws = list(_matrix_draws(3, 300))
    gains = [riccati_design(model, lam, mu).K for model, lam, mu in draws]

    def schur(A, B, lam, mu):
        P = scipy.linalg.solve_continuous_are(
            A, B, 2.0 * mu * np.eye(len(A)), np.eye(B.shape[1]) / (2.0 * lam))
        return (P + P.T) / 2.0

    monkeypatch.setattr(design, "_hamiltonian_riccati", schur)
    for (model, lam, mu), K in zip(draws, gains):
        ref = riccati_design(model, lam, mu).K
        assert np.abs(K - ref).max() <= 1e-7 * np.abs(ref).max(), (model, lam, mu)


def test_unstabilizable_pair_is_refused():
    # A = I with only the first state actuated: the second state's unstable
    # mode cannot be moved, so no stabilizing P exists.
    with pytest.raises(DesignError, match="stabiliz"):
        riccati_design(LtiModel(A=np.eye(2), B=[[1.0], [0.0]]), lam=1.0, mu=1.0)
    # an unstable uncontrolled mode beside a stable one is refused too
    with pytest.raises(DesignError, match="stabiliz"):
        riccati_design(LtiModel(A=np.diag([-1.0, 1.0]), B=[[1.0], [0.0]]),
                       lam=1.0, mu=1.0)
    # an oscillator without input at lam = mu = 1e300: its eigenvectors give
    # no finite P, refused without a floating-point warning
    with pytest.raises(DesignError, match="stabiliz"):
        riccati_design(LtiModel(A=OSCILLATOR.A, B=[[0.0], [0.0]]), lam=1e300, mu=1e300)


def test_lyapunov_family_over_spectrum():
    alg = build_algebra(cycle_graph(5))
    d = riccati_design(OSCILLATOR, lam=alg.lambda_2, mu=1.0)
    spectrum = alg.spectrum[1:]
    assert verify_lyapunov_family(d, OSCILLATOR, spectrum)
    # For eigenvalues below the design lambda the margin is lost.
    assert not verify_lyapunov_family(d, OSCILLATOR, [0.1])


def test_design_constants_shapes_and_values():
    alg = build_algebra(cycle_graph(5))
    d = riccati_design(OSCILLATOR, lam=alg.lambda_2, mu=1.0)
    c = design_constants(d, OSCILLATOR, alg)
    # Independent recomputation of each constant.
    P, K, B = d.P, d.K, OSCILLATOR.B
    PBK = P @ B @ K
    assert c.lambda_PBK_s == pytest.approx(
        np.linalg.eigvalsh((PBK + PBK.T) / 2.0)[-1])
    assert c.sigma_PB == pytest.approx(np.linalg.norm(P @ B, 2))
    assert c.sigma_BK == pytest.approx(np.linalg.norm(B @ K, 2))
    assert c.sigma_BBtP == pytest.approx(np.linalg.norm(B @ B.T @ P, 2))
    big = np.kron(alg.edge_laplacian, PBK) - 2.0 * d.mu * np.eye(5 * 2)
    assert c.sigma_edge == pytest.approx(np.linalg.norm(big, 2))


def test_theorem4_sigma_single_integrators():
    # Single integrators with mu = lam = lambda_2 give P = K = 1 and
    # sigma = sigma_max(L - 2(mu - lam_P/(2 eta)) I).
    alg = build_algebra(cycle_graph(5))
    d = riccati_design(INTEGRATOR, lam=alg.lambda_2, mu=alg.lambda_2)
    assert d.P[0, 0] == pytest.approx(1.0)
    eta = 1.6
    shift = 2.0 * (d.mu - 1.0 / (2.0 * eta))
    expected = np.linalg.norm(alg.graph_laplacian - shift * np.eye(5), 2)
    assert theorem4_sigma(d, INTEGRATOR, alg, eta) == pytest.approx(expected)
    with pytest.raises(ValueError):
        theorem4_sigma(d, INTEGRATOR, alg, 0.0)
