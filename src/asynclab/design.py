"""Feedback-gain synthesis via the consensus Riccati equation
P A + A^T P - 2 lambda P B B^T P = -2 mu I, with K = B^T P, plus the
Lyapunov-inequality verification over the Laplacian spectrum."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

    A scalar state (N = 1) makes the equation the quadratic
    2 a p - 2 lam |b|^2 p^2 + 2 mu = 0, whose positive root has a closed
    form (_scalar_riccati). Otherwise P comes from the stable invariant
    subspace of the Hamiltonian matrix (_hamiltonian_riccati). Both
    solutions pass the same residual and positive-definiteness checks.
    """
    if lam <= 0 or mu <= 0:
        raise DesignError("lambda and mu must be positive")
    A, B = model.A, model.B
    N = model.N
    if N == 1:
        P = _scalar_riccati(float(A[0, 0]), float((B @ B.T)[0, 0]), lam, mu)
    else:
        P = _hamiltonian_riccati(A, B, lam, mu)
    # The residual against the size of the equation's terms, in the largest
    # absolute entry, which neither underflows nor lets a NaN pass.
    PA, PBBtP = P @ A, P @ B @ B.T @ P
    residual = np.abs(PA + PA.T - 2.0 * lam * PBBtP + 2.0 * mu * np.eye(N)).max()
    scale = 2.0 * np.abs(PA).max() + 2.0 * lam * np.abs(PBBtP).max() + 2.0 * mu
    if not (residual <= 1e-8 * scale and math.isfinite(scale)):
        raise DesignError(f"Riccati residual too large: {residual:.3e}")
    if np.linalg.eigvalsh(P)[0] <= 0:
        raise DesignError("Riccati solution is not positive definite")
    return GainDesign(P=P, K=B.T @ P, mu=float(mu), lam=float(lam))


def _scalar_riccati(a: float, bb: float, lam: float, mu: float) -> np.ndarray:
    """The positive root p of 2 a p - 2 lam bb p^2 + 2 mu = 0 (bb = |b|^2),
    as a 1 x 1 P. r = sqrt(a^2 + 4 lam mu bb) is taken as a hypotenuse of
    square roots, so neither a square nor the product under- or overflows;
    p = 2 mu / (r - a) for a < 0 and (a + r) / (2 lam bb) otherwise, so
    that no branch subtracts nearly equal numbers."""
    r = math.hypot(a, 2.0 * math.sqrt(lam * bb) * math.sqrt(mu))
    num, den = (2.0 * mu, r - a) if a < 0 else (a + r, 2.0 * lam * bb)
    if den == 0:
        raise DesignError("Riccati equation has no positive solution: "
                          "(A, B) is not stabilizable")
    p = num / den
    if not (math.isfinite(p) and p > 0):
        raise DesignError(f"Riccati solution is not positive and finite: {p!r}")
    return np.array([[p]])


def _hamiltonian_riccati(A: np.ndarray, B: np.ndarray, lam: float,
                         mu: float) -> np.ndarray:
    """Potter's eigenvector solution: the N eigenvectors [U1; U2] of
    H = [[A, -2 lam B B^T], [-2 mu I, -A^T]] whose eigenvalues lie in the
    open left half-plane span the graph of the stabilizing P = U2 U1^-1.
    H's eigenvalues are symmetric about the imaginary axis, so any other
    count of stable ones means some lie on the axis: an unstabilizable
    pair. A singular U1 (or one whose P is not finite) means the same."""
    N = A.shape[0]
    unstabilizable = ("Riccati equation has no stabilizing solution: "
                      "(A, B) is not stabilizable")
    # a bad solution is refused by riccati_design's checks, so numpy stays
    # quiet about the floating-point errors that led to it
    with np.errstate(all="ignore"):
        H = np.block([[A, -2.0 * lam * (B @ B.T)], [-2.0 * mu * np.eye(N), -A.T]])
        try:
            w, V = np.linalg.eig(H)
        except np.linalg.LinAlgError as exc:
            raise DesignError(f"Riccati solver failed: {exc}") from exc
        stable = w.real < 0
        if np.count_nonzero(stable) != N:
            raise DesignError(unstabilizable)
        try:
            # P U1 = U2, solved as U1^T P^T = U2^T
            P = np.linalg.solve(V[:N, stable].T, V[N:, stable].T).T.real
        except np.linalg.LinAlgError as exc:
            raise DesignError(unstabilizable) from exc
    if not np.isfinite(P).all():
        raise DesignError(unstabilizable)
    return (P + P.T) / 2.0


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
