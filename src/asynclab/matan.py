"""Dense real matrix analysis: exponentials, spectral constants, and the
closed-form singular-value envelopes used by the stability margins.

All functions operate on plain numpy arrays and are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


class Propagator:
    """Exact flow maps (e^{A dt}, Phi(dt)) for one system matrix, with
    Phi(dt) the integral of e^{A s} over [0, dt].

    Uses the eigendecomposition of A when it is well conditioned (covers
    normal and diagonal matrices, including A = 0, vectorized over many
    steps at once); falls back to scipy's expm of the Van Loan block
    [[A, I], [0, 0]] otherwise, the package's one use of scipy.
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
        """(e^{A dt}, integral of e^{A s} over [0, dt])."""
        expA, phi = self.pairs([dt])
        return expA[0], phi[0]

    def pairs(self, dts) -> tuple[np.ndarray, np.ndarray]:
        """Stacked flow maps of a 1-d sequence of steps: two (len, n, n)
        arrays whose k-th matrices are the pair of dts[k]. A map that
        overflows comes back non-finite, as the modal maps do."""
        dts = np.asarray(dts, dtype=float)
        if not self._diag:
            import scipy.linalg
            E = scipy.linalg.expm(self._blk * dts[:, None, None])
            return E[:, : self.n, : self.n], E[:, : self.n, self.n:]
        wd = dts[:, None] * self.w
        ew = np.exp(wd)
        small = np.abs(wd) < 1e-8
        phiw = np.where(small, dts[:, None] * (1.0 + wd / 2.0 + wd * wd / 6.0),
                        (ew - 1.0) / np.where(small, 1.0, self.w))
        return self._modal(ew), self._modal(phiw)

    def exps(self, ts) -> np.ndarray:
        """Stacked e^{A t} of a 1-d sequence of times: bit for bit
        pairs(ts)[0], without the modal branch's Phi stack."""
        if not self._diag:
            return self.pairs(ts)[0]
        return self._modal(np.exp(np.asarray(ts, dtype=float)[:, None] * self.w))

    def _modal(self, f):
        """The real matrices V diag(f[k]) V^-1 for each row f[k]. Vi is
        shared, so the stack is one (K n x n) @ (n x n) product."""
        K, n = f.shape
        return ((self.V * f[:, None, :]).reshape(K * n, n) @ self.Vi).real.reshape(K, n, n)


def expm(M, t=1.0) -> np.ndarray:
    """Matrix exponential e^{M t}; for a 1-d array of t, the stack of
    e^{M t_k} along the first axis: the flow maps of Propagator(M).exps,
    so modal for a diagonalizable M with well-conditioned eigenvectors.
    """
    M = _as_square(M)
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise DimensionError(f"t must be a scalar or 1-d, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")
    # an overflow is raised below, so numpy stays quiet about it
    with np.errstate(over="ignore", invalid="ignore"):
        out = Propagator(M).exps(t.reshape(-1))
    if not np.all(np.isfinite(out)):
        raise OverflowError("matrix exponential overflowed; ||M t|| too large")
    return out.reshape(t.shape + M.shape)


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
