import numpy as np
import pytest

from optbias.errors import NumericalError
from optbias.numerics import RngState, cholesky_factor, cholesky_solve


def test_cholesky_identity():
    L = cholesky_factor(np.eye(3))
    assert np.allclose(L, np.eye(3))


def test_cholesky_2x2_hand_value():
    A = np.array([[4.0, 2.0], [2.0, 3.0]])
    L = cholesky_factor(A)
    expected = np.array([[2.0, 0.0], [1.0, 1.41421356]])
    assert np.allclose(L, expected, atol=1e-8)
    assert np.allclose(L @ L.T, A)


def test_cholesky_indefinite_raises():
    # eigenvalue -1 cannot be fixed by jitter <= 1e-4
    with pytest.raises(NumericalError, match="Cholesky failed at max jitter"):
        cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_nonsquare_raises():
    with pytest.raises(NumericalError, match="expected square matrix"):
        cholesky_factor(np.ones((2, 3)))


def test_cholesky_random_spd_frobenius():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 51))
        B = rng.standard_normal((n, n))
        A = B.T @ B + np.eye(n)
        L = cholesky_factor(A)
        err = np.linalg.norm(L @ L.T - A) / np.linalg.norm(A)
        assert err <= 1e-8


def test_cholesky_jitter_escalation_on_singular():
    # rank-deficient PSD matrix: plain Cholesky fails, jitter recovers it
    v = np.array([1.0, 2.0, 3.0])
    A = np.outer(v, v)
    L = cholesky_factor(A)
    assert np.linalg.norm(L @ L.T - A) <= 1e-3


def test_solve_identity():
    b = np.array([3.0, -1.0, 2.0])
    assert np.allclose(cholesky_solve(np.eye(3), b), b)


def test_solve_2x2_oracle():
    L = cholesky_factor(np.array([[4.0, 2.0], [2.0, 3.0]]))
    x = cholesky_solve(L, np.array([1.0, 1.0]))
    assert np.allclose(x, [0.125, 0.25], atol=1e-10)


def test_solve_shape_mismatch():
    L = cholesky_factor(np.eye(2))
    with pytest.raises(NumericalError, match="row mismatch"):
        cholesky_solve(L, np.ones((3, 1)))


def test_solve_recovers_x():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        B = rng.standard_normal((n, n))
        A = B.T @ B + np.eye(n)
        x = rng.standard_normal(n)
        got = cholesky_solve(cholesky_factor(A), A @ x)
        assert np.linalg.norm(got - x) / np.linalg.norm(x) <= 1e-6


def test_rng_same_seed_identical_stream():
    a, b = RngState(123), RngState(123)
    assert np.array_equal(a.uniform(size=100), b.uniform(size=100))
    assert np.array_equal(a.normal(size=50), b.normal(size=50))
    assert np.array_equal(a.integers(10, size=30), b.integers(10, size=30))


def test_rng_split_deterministic_and_distinct():
    root = RngState(5)
    c1 = root.split(2).uniform(size=8)
    c2 = RngState(5).split(2).uniform(size=8)
    c3 = RngState(5).split(3).uniform(size=8)
    assert np.array_equal(c1, c2)
    assert not np.array_equal(c1, c3)


def test_rng_uniform_degenerate_interval():
    assert RngState(0).uniform(3.0, 3.0) == 3.0


def test_rng_uniform_invalid_range():
    with pytest.raises(NumericalError, match="lo=1.0 > hi=0.0"):
        RngState(0).uniform(1.0, 0.0)


def test_rng_uniform_law_of_large_numbers():
    s = RngState(42)
    draws = s.uniform(0.0, 1.0, size=10**5)
    assert 0.49 <= draws.mean() <= 0.51
    assert draws.min() >= 0.0 and draws.max() < 1.0
