import numpy as np
import pytest

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
