"""Feedback-gain synthesis via the consensus Riccati equation
P A + A^T P - 2 lambda P B B^T P = -2 mu I, with K = B^T P, plus the
Lyapunov-inequality verification over the Laplacian spectrum."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .graphs import GraphAlgebra
from .matan import LtiModel, max_singular_value, symmetric_part_max_eig

# Tolerance on the max eigenvalue in the negative-semidefiniteness tests.
PSD_TOL = 1e-9


class DesignError(RuntimeError):
    """Riccati solver failure or an unusable (A, B) pair."""


@dataclass(frozen=True)
class GainDesign:
    P: np.ndarray
    K: np.ndarray
    mu: float
    lam: float

    @property
    def lambda_P(self) -> float:
        return float(np.linalg.eigvalsh(self.P)[-1])


def riccati_design(model: LtiModel, lam: float, mu: float) -> GainDesign:
    """Solve P A + A^T P - 2 lam P B B^T P = -2 mu I for the stabilizing
    positive-definite P and return K = B^T P.

    The equation maps onto the standard CARE with Q = 2 mu I and
    R = I / (2 lam); scipy solves it via the Hamiltonian / ordered-Schur
    invariant-subspace method.
    """
    if lam <= 0 or mu <= 0:
        raise DesignError("lambda and mu must be positive")
    A, B = model.A, model.B
    N = model.N
    try:
        P = sla.solve_continuous_are(
            A, B, 2.0 * mu * np.eye(N), np.eye(model.M) / (2.0 * lam)
        )
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise DesignError(f"Riccati solver failed: {exc}") from exc
    P = (P + P.T) / 2.0
    design = GainDesign(P=P, K=B.T @ P, mu=float(mu), lam=float(lam))
    residual = riccati_residual(design, model)
    if residual > 1e-8 * (1.0 + np.linalg.norm(P, "fro")):
        raise DesignError(f"Riccati residual too large: {residual:.3e}")
    if np.linalg.eigvalsh(P)[0] <= 0:
        raise DesignError("Riccati solution is not positive definite")
    return design


def riccati_residual(design: GainDesign, model: LtiModel) -> float:
    A, B = model.A, model.B
    P = design.P
    return float(np.linalg.norm(
        P @ A + A.T @ P - 2.0 * design.lam * P @ B @ B.T @ P
        + 2.0 * design.mu * np.eye(model.N), "fro"))


def verify_lyapunov_family(design: GainDesign, model: LtiModel, spectrum) -> bool:
    """Check (A - lam_i B K)^T P + P (A - lam_i B K) + 2 mu I <= 0 for every
    supplied eigenvalue lam_i (the nonzero Laplacian eigenvalues); these are
    the disagreement modes of the consensus protocol u = -K sum(...)."""
    A, B = model.A, model.B
    P, K, mu = design.P, design.K, design.mu
    for lam_i in np.atleast_1d(np.asarray(spectrum, dtype=float)):
        Acl = A - lam_i * B @ K
        S = Acl.T @ P + P @ Acl + 2.0 * mu * np.eye(model.N)
        if np.linalg.eigvalsh((S + S.T) / 2.0)[-1] > PSD_TOL:
            return False
    return True


@dataclass(frozen=True)
class DesignConstants:
    """Spectral constants derived from a gain design and a topology."""

    lambda_PBK_s: float
    sigma_PB: float
    sigma_BBtP: float
    sigma_BK: float
    sigma_edge: float            # sigma_max((D^T D kron P B K) - 2 mu I)


def design_constants(design: GainDesign, model: LtiModel,
                     algebra: GraphAlgebra) -> DesignConstants:
    """Constants feeding the relative-edge and broadcast margin conditions;
    the broadcast sigma depends on the free parameter eta and comes from
    theorem4_sigma."""
    B, N = model.B, model.N
    P, K, mu = design.P, design.K, design.mu
    PBK = P @ B @ K
    if PBK.shape != (N, N):
        raise ValueError("incompatible dimensions between design and model")
    m = algebra.graph.m
    sigma_edge = max_singular_value(
        np.kron(algebra.edge_laplacian, PBK) - 2.0 * mu * np.eye(m * N))
    return DesignConstants(
        lambda_PBK_s=symmetric_part_max_eig(PBK),
        sigma_PB=max_singular_value(P @ B),
        sigma_BBtP=max_singular_value(B @ B.T @ P),
        sigma_BK=max_singular_value(B @ K),
        sigma_edge=sigma_edge,
    )


def theorem4_sigma(design: GainDesign, model: LtiModel, algebra: GraphAlgebra,
                   eta: float) -> float:
    """sigma_max((D D^T kron P B B^T P) - 2 (mu - lambda_P / (2 eta)) I)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    B, N = model.B, model.N
    P = design.P
    PBBtP = P @ B @ B.T @ P
    n = algebra.graph.n
    shift = 2.0 * (design.mu - design.lambda_P / (2.0 * eta))
    return max_singular_value(
        np.kron(algebra.graph_laplacian, PBBtP) - shift * np.eye(n * N))
