"""Oracle tests for proximal operators, the box projection, and dual norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from robust_huber import (
    MaxNormBall,
    dual_norm_linf,
    dual_norm_spectral,
    nuclear_norm,
    project_maxnorm,
    prox_l1,
    prox_nuclear,
)
from robust_huber import prox as prox_module
from robust_huber.prox import GRAM_MAX_SV_RATIO, _prox_nuclear_svd


def scalar_soft_threshold_oracle(v, t):
    """Numeric minimizer of (x-v)^2/2 + t|x| by bisection on its derivative.

    Value-based search cannot localize a quadratic argmin beyond sqrt(eps),
    so the oracle roots the strictly increasing derivative x - v + t*sign(x)
    instead, which pins the minimizer to machine precision.
    """
    def deriv(x):
        return x - v + t * np.sign(x)

    lo, hi = -abs(v) - t - 1.0, abs(v) + t + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if deriv(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# prox_l1


def test_prox_l1_examples():
    np.testing.assert_allclose(
        prox_l1(np.array([3.0, -1.0, 0.5]), 1.0), np.array([2.0, 0.0, 0.0])
    )
    v = np.array([1.3, -0.2, 7.0])
    np.testing.assert_array_equal(prox_l1(v, 0.0), v)
    np.testing.assert_array_equal(prox_l1(np.zeros(2), 5.0), np.zeros(2))


def test_prox_l1_matches_numeric_minimization():
    rng = np.random.default_rng(10)
    for _ in range(50):
        v = rng.standard_normal() * 3
        t = rng.uniform(0, 2)
        assert prox_l1(np.array([v]), t)[0] == pytest.approx(
            scalar_soft_threshold_oracle(v, t), abs=1e-8
        )


def test_prox_l1_subgradient_optimality():
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = rng.standard_normal(8) * 4
        t = rng.uniform(0.01, 2)
        x = prox_l1(v, t)
        for vi, xi in zip(v, x):
            if xi != 0.0:
                assert vi - xi == pytest.approx(t * np.sign(xi), abs=1e-10)
            else:
                assert abs(vi) <= t + 1e-10


def test_prox_l1_rejects_negative_threshold():
    with pytest.raises(ValueError):
        prox_l1(np.ones(3), -0.1)


@settings(max_examples=200)
@given(
    a=hnp.arrays(float, 6, elements=st.floats(-50, 50)),
    b=hnp.arrays(float, 6, elements=st.floats(-50, 50)),
    t=st.floats(0, 10),
)
def test_prox_l1_nonexpansive(a, b, t):
    lhs = np.linalg.norm(prox_l1(a, t) - prox_l1(b, t))
    assert lhs <= np.linalg.norm(a - b) + 1e-9


# ---------------------------------------------------------------------------
# prox_nuclear


def test_prox_nuclear_diagonal_example():
    out = prox_nuclear(np.diag([3.0, 1.0]), 2.0)
    np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_prox_nuclear_zero_threshold_identity():
    rng = np.random.default_rng(12)
    M = rng.standard_normal((4, 4))
    np.testing.assert_allclose(prox_nuclear(M, 0.0), M, atol=1e-12)


def test_prox_nuclear_rank_never_grows():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 6))
    out = prox_nuclear(A, 0.3)
    assert np.linalg.matrix_rank(out, tol=1e-9) <= np.linalg.matrix_rank(A, tol=1e-9)


def test_prox_nuclear_local_optimality():
    rng = np.random.default_rng(14)
    t = 0.7
    M = rng.standard_normal((5, 5))
    X = prox_nuclear(M, t)

    def objective(Z):
        return 0.5 * np.linalg.norm(Z - M) ** 2 + t * nuclear_norm(Z)

    base = objective(X)
    for _ in range(10_000):
        P = X + rng.standard_normal((5, 5)) * rng.uniform(1e-4, 0.5)
        assert objective(P) >= base - 1e-10


def test_prox_nuclear_psd_matches_eigen_shrinkage():
    rng = np.random.default_rng(15)
    for _ in range(20):
        A = rng.standard_normal((5, 5))
        M = A @ A.T  # PSD; eigenvalues are its singular values
        t = rng.uniform(0, 3)
        w, Q = np.linalg.eigh(M)
        oracle = (Q * np.maximum(w - t, 0.0)) @ Q.T
        np.testing.assert_allclose(prox_nuclear(M, t), oracle, atol=1e-8)


def test_prox_nuclear_nonexpansive():
    rng = np.random.default_rng(16)
    for _ in range(300):
        A = rng.standard_normal((5, 5)) * 3
        B = rng.standard_normal((5, 5)) * 3
        t = rng.uniform(0, 5)
        lhs = np.linalg.norm(prox_nuclear(A, t) - prox_nuclear(B, t))
        assert lhs <= np.linalg.norm(A - B) + 1e-9


@st.composite
def prox_nuclear_inputs(draw):
    """(M, threshold): square or rectangular M of any rank, the zero matrix
    included, and thresholds from 0 through sigma_1/GRAM_MAX_SV_RATIO to
    above sigma_1."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rank = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3, 3))
    M = scale * rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    sigma_1 = np.linalg.norm(M, 2) if rank else scale
    ratio = draw(
        st.one_of(
            st.just(np.inf),  # threshold 0
            st.sampled_from([0.5, 1.0, 0.99 * GRAM_MAX_SV_RATIO, 1.01 * GRAM_MAX_SV_RATIO]),
            st.floats(-1, 5).map(lambda e: 10.0**e),  # sigma_1/threshold
        )
    )
    return M, sigma_1 / ratio


@settings(max_examples=300, deadline=None)
@given(prox_nuclear_inputs())
def test_prox_nuclear_matches_full_svd(inputs):
    M, t = inputs
    diff = np.max(np.abs(prox_nuclear(M, t) - _prox_nuclear_svd(M, t)))
    assert diff <= 1e-10 * max(1.0, np.linalg.norm(M))


def test_prox_nuclear_takes_full_svd_at_zero_threshold_and_large_ratio(monkeypatch):
    calls = []

    def recording_svd(M, t):
        calls.append(t)
        return _prox_nuclear_svd(M, t)

    monkeypatch.setattr(prox_module, "_prox_nuclear_svd", recording_svd)
    M = np.diag([GRAM_MAX_SV_RATIO, 1.0, 0.5])
    expected = np.diag([GRAM_MAX_SV_RATIO - 1, 0, 0])
    np.testing.assert_allclose(prox_nuclear(M, 1.0), expected, atol=1e-12)
    assert calls == []
    expected = np.diag([GRAM_MAX_SV_RATIO - 0.9, 0.1, 0])
    np.testing.assert_allclose(prox_nuclear(M, 0.9), expected, atol=1e-12)
    assert calls == [0.9]
    prox_nuclear(M, 0.0)
    assert calls == [0.9, 0.0]


def test_prox_nuclear_rejects_bad_input():
    with pytest.raises(ValueError):
        prox_nuclear(np.ones((2, 2)), -1.0)
    with pytest.raises(ValueError):
        prox_nuclear(np.ones(4), 1.0)
    with pytest.raises(ValueError):
        prox_nuclear(np.array([[np.inf, 0], [0, 1]]), 1.0)


# ---------------------------------------------------------------------------
# projection


def test_project_maxnorm_examples():
    ball = MaxNormBall(1.0)
    M = np.array([[0.5, -0.2]])
    np.testing.assert_array_equal(project_maxnorm(M, ball), M)
    np.testing.assert_array_equal(
        project_maxnorm(np.array([[2.0, -3.0]]), ball), np.array([[1.0, -1.0]])
    )


def test_project_maxnorm_idempotent_and_optimal():
    rng = np.random.default_rng(17)
    ball = MaxNormBall(0.8)
    M = rng.standard_normal((6, 6)) * 2
    P = project_maxnorm(M, ball)
    np.testing.assert_array_equal(project_maxnorm(P, ball), P)
    assert ball.contains(P)
    base = np.linalg.norm(P - M)
    for _ in range(1000):
        Q = rng.uniform(-ball.radius, ball.radius, size=(6, 6))
        assert np.linalg.norm(Q - M) >= base - 1e-12


def test_project_maxnorm_nonexpansive():
    rng = np.random.default_rng(18)
    ball = MaxNormBall(1.0)
    for _ in range(200):
        A = rng.standard_normal((4, 4)) * 3
        B = rng.standard_normal((4, 4)) * 3
        lhs = np.linalg.norm(project_maxnorm(A, ball) - project_maxnorm(B, ball))
        assert lhs <= np.linalg.norm(A - B) + 1e-12


def test_maxnorm_ball_validation():
    with pytest.raises(ValueError):
        MaxNormBall(0.0)
    with pytest.raises(ValueError):
        MaxNormBall(-2.0)


# ---------------------------------------------------------------------------
# dual norms


def test_dual_norm_linf_examples():
    assert dual_norm_linf(np.array([1.0, -4.0, 2.0])) == 4.0
    assert dual_norm_linf(np.array([0.0])) == 0.0
    assert dual_norm_linf(np.array([])) == 0.0


def test_dual_norm_linf_is_max_over_signed_basis():
    rng = np.random.default_rng(19)
    for _ in range(100):
        v = rng.standard_normal(7)
        brute = max(abs(float(np.dot(s * e, v)))
                    for s in (1.0, -1.0)
                    for e in np.eye(7))
        assert dual_norm_linf(v) == pytest.approx(brute, rel=1e-15)


def test_dual_norm_spectral_examples():
    assert dual_norm_spectral(np.diag([3.0, 1.0])) == pytest.approx(3.0)
    assert dual_norm_spectral(np.zeros((3, 3))) == 0.0


def test_dual_norm_spectral_matches_eigensolver():
    rng = np.random.default_rng(20)
    for _ in range(50):
        M = rng.standard_normal((6, 6))
        oracle = np.sqrt(np.max(np.linalg.eigvalsh(M.T @ M)))
        assert dual_norm_spectral(M) == pytest.approx(oracle, rel=1e-8)


def test_nuclear_norm_matches_svd_sum():
    rng = np.random.default_rng(21)
    M = rng.standard_normal((5, 3))
    assert nuclear_norm(M) == pytest.approx(np.sum(np.linalg.svd(M, compute_uv=False)))
