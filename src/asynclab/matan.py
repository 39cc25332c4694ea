"""Dense real matrix analysis: exponentials, spectral constants, and the
closed-form singular-value envelopes used by the stability margins.

All functions operate on plain numpy arrays and are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

# Below this magnitude the spectral abscissa is treated as zero and the
# exact limit expressions are used instead of the generic formulas.
LAMBDA_ZERO_TOL = 1e-10


class DimensionError(ValueError):
    """Raised when a matrix argument has an incompatible shape."""


def _as_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


def _as_square(M) -> np.ndarray:
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    return M


def symmetric_part_max_eig(M) -> float:
    """Largest eigenvalue of (M + M^T)/2."""
    M = _as_square(M)
    if M.size == 0:
        raise DimensionError("empty matrix")
    return float(np.linalg.eigvalsh((M + M.T) / 2.0)[-1])


def max_singular_value(M) -> float:
    """Largest singular value of M."""
    M = _as_matrix(M)
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def expm(M, t=1.0) -> np.ndarray:
    """Matrix exponential e^{M t}; for a 1-d array of t, the stack of
    e^{M t_k} along the first axis, from one batched call.

    Delegates to scipy's scaling-and-squaring implementation (Al-Mohy and
    Higham, degree-13 Pade approximant with norm-based squaring), which
    treats every matrix of a stack on its own.
    """
    M = _as_square(M)
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise DimensionError(f"t must be a scalar or 1-d, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")
    # an overflow is raised below, so numpy stays quiet about it
    with np.errstate(over="ignore"):
        out = sla.expm(M * t[..., None, None])
    if not np.all(np.isfinite(out)):
        raise OverflowError("matrix exponential overflowed; ||M t|| too large")
    return out


def expm_integral(M, t: float) -> np.ndarray:
    """Phi(t) = integral of e^{M s} over s in [0, t].

    Computed as the top-right block of exp([[M, I], [0, 0]] * t), which is
    exact for singular M as well; equals M^{-1}(e^{Mt} - I) when M is
    invertible.
    """
    M = _as_square(M)
    if t < 0:
        raise ValueError("t must be nonnegative")
    n = M.shape[0]
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = M
    blk[:n, n:] = np.eye(n)
    return expm(blk, t)[:n, n:]


@dataclass(frozen=True)
class SpectralConstants:
    """Spectral abscissa of the symmetric part and the largest singular value."""

    lambda_As: float
    sigma_A: float

    @classmethod
    def from_matrix(cls, A) -> "SpectralConstants":
        A = _as_square(A)
        return cls(
            lambda_As=symmetric_part_max_eig(A),
            sigma_A=max_singular_value(A),
        )


@dataclass(frozen=True)
class LtiModel:
    """Shared agent dynamics dx/dt = A x + B u."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _as_square(self.A))
        B = _as_matrix(self.B)
        if B.shape[0] != self.A.shape[0]:
            raise DimensionError(
                f"B has {B.shape[0]} rows but A is {self.A.shape[0]}x{self.A.shape[0]}"
            )
        object.__setattr__(self, "B", B)

    @property
    def N(self) -> int:
        return self.A.shape[0]

    @property
    def M(self) -> int:
        return self.B.shape[1]

    @property
    def constants(self) -> SpectralConstants:
        return SpectralConstants.from_matrix(self.A)


def lemma1_bounds(c: SpectralConstants, t: float) -> tuple[float, float, float]:
    """Closed-form upper bounds on the largest singular values of e^{At},
    e^{At} - I, and Phi(t), in that order.

    When the spectral abscissa vanishes the limit values (1, sigma_A * t, t)
    are returned explicitly rather than relying on floating cancellation.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    lam, sig = c.lambda_As, c.sigma_A
    bound_exp = float(np.exp(lam * t))
    if abs(lam) < LAMBDA_ZERO_TOL:
        return bound_exp, sig * t, t
    growth = (np.exp(lam * t) - 1.0) / lam
    return bound_exp, float(sig * growth), float(growth)


def lemma2_check(t: float) -> tuple[float, float, float, float, float]:
    """The five scalar expressions of the exponential comparison inequalities:
    e^{2t} - 4e^t + 3 + 2t <= (2t^3/3)e^{2t} and t <= e^t - 1 <= t e^t.

    Returns (lhs1, rhs1, lhs2a, lhs2b, rhs2b).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    et = np.exp(t)
    lhs1 = et * et - 4.0 * et + 3.0 + 2.0 * t
    rhs1 = (2.0 * t**3 / 3.0) * et * et
    return float(lhs1), float(rhs1), float(t), float(et - 1.0), float(t * et)
