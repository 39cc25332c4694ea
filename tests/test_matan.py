import numpy as np
import pytest
import scipy.linalg as sla

from asynclab.matan import (DimensionError, LtiModel, Propagator, SpectralConstants,
                            expm, lemma1_bounds, lemma2_check, max_singular_value,
                            symmetric_part_max_eig)


def scipy_expm_integral(A, t):
    """Phi(t), the integral of e^{A s} over [0, t], from scipy: the top-right
    block of exp([[A, I], [0, 0]] t) (Van Loan), exact for singular A too.
    An independent reference for Propagator's flow maps."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = A
    blk[:n, n:] = np.eye(n)
    return sla.expm(blk * t)[:n, n:]


def test_symmetric_part_max_eig_known():
    # A = [[0, 1], [-1, 0]] is skew-symmetric: symmetric part is zero.
    assert symmetric_part_max_eig([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(0.0)
    assert symmetric_part_max_eig([[2.0]]) == pytest.approx(2.0)
    # Hand case: [[0, 2], [0, 0]] -> sym part [[0,1],[1,0]], eigs +-1.
    assert symmetric_part_max_eig([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(1.0)


def test_max_singular_value_known():
    assert max_singular_value([[3.0, 0.0], [0.0, -4.0]]) == pytest.approx(4.0)
    assert max_singular_value([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(1.0)


def test_shape_errors():
    with pytest.raises(DimensionError):
        symmetric_part_max_eig([[1.0, 2.0]])
    with pytest.raises(DimensionError):
        expm(np.ones((2, 3)))
    with pytest.raises(ValueError):
        max_singular_value([[np.nan]])


def test_expm_rotation():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    t = 0.7
    expected = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    assert np.allclose(expm(A, t), expected, atol=1e-12)


def test_expm_stack_over_times():
    A = np.array([[0.0, 1.0], [-1.0, -0.3]])
    t = np.linspace(0.0, 2.0, 7)
    stack = expm(A, t)
    assert stack.shape == (7, 2, 2)
    for k, tk in enumerate(t):
        assert np.array_equal(stack[k], expm(A, tk))
    with pytest.raises(ValueError):
        expm(A, np.array([0.0, np.inf]))
    with pytest.raises(DimensionError):
        expm(A, np.zeros((2, 2)))


def test_expm_identity_at_zero():
    A = np.random.default_rng(0).normal(size=(4, 4))
    assert np.allclose(expm(A, 0.0), np.eye(4))


def test_expm_overflow():
    with pytest.raises(OverflowError):
        expm(np.array([[1000.0]]), 1000.0)


def test_expm_integral_invertible():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(3, 3)) - 3.0 * np.eye(3)   # safely invertible
    t = 0.9
    expected = np.linalg.solve(A, sla.expm(A * t) - np.eye(3))
    assert np.allclose(Propagator(A).pair(t)[1], expected, atol=1e-10)


def test_expm_integral_singular():
    # For A = 0 the integral is t * I exactly.
    assert np.allclose(Propagator(np.zeros((2, 2))).pair(1.7)[1], 1.7 * np.eye(2))


def test_lti_model_dimensions():
    m = LtiModel(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]])
    assert m.N == 2 and m.M == 1
    assert m.constants.lambda_As == pytest.approx(0.0)
    assert m.constants.sigma_A == pytest.approx(1.0)
    with pytest.raises(DimensionError):
        LtiModel(A=[[0.0]], B=[[1.0], [0.0]])


def test_lemma1_limit_branch():
    c = SpectralConstants(lambda_As=0.0, sigma_A=2.0)
    b1, b2, b3 = lemma1_bounds(c, 0.5)
    assert b1 == pytest.approx(1.0)
    assert b2 == pytest.approx(1.0)     # sigma_A * t
    assert b3 == pytest.approx(0.5)     # t


def test_lemma1_dominates_numerics():
    # Property: the closed-form envelopes dominate the true singular values.
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = rng.integers(1, 7)
        A = rng.uniform(-2.0, 2.0, size=(n, n))
        c = SpectralConstants.from_matrix(A)
        for t in (0.01, 0.1, 1.0):
            b1, b2, b3 = lemma1_bounds(c, t)
            E = sla.expm(A * t)
            assert max_singular_value(E) <= b1 + 1e-9
            assert max_singular_value(E - np.eye(n)) <= b2 + 1e-9
            assert max_singular_value(scipy_expm_integral(A, t)) <= b3 + 1e-9


def test_lemma2_scalar_inequalities():
    rng = np.random.default_rng(7)
    for t in rng.uniform(0.0, 10.0, size=1000):
        lhs1, rhs1, l2a, l2b, r2b = lemma2_check(float(t))
        assert lhs1 <= rhs1 * (1.0 + 1e-12) + 1e-12
        assert l2a <= l2b + 1e-12
        assert l2b <= r2b * (1.0 + 1e-12) + 1e-12
