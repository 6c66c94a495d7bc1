"""Unit tests for the Huber penalty, loss, gradient, and curvature predicate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_huber import (
    HuberParams,
    curvature_lower_bound_holds,
    huber_loss,
    huber_loss_and_grad,
    huber_loss_grad,
    huber_penalty,
    huber_penalty_deriv,
)

H2 = HuberParams(2.0)

finite_reals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_penalty_examples():
    assert huber_penalty(0.0, H2) == 0.0
    assert huber_penalty(1.0, H2) == 0.5
    assert huber_penalty(3.0, H2) == 4.0
    assert huber_penalty(-3.0, H2) == 4.0


def test_penalty_quadratic_branch_exact():
    t = np.linspace(-2.0, 2.0, 41)
    np.testing.assert_allclose(huber_penalty(t, H2), 0.5 * t * t, rtol=0, atol=0)


def test_penalty_linear_branch_exact():
    for t in (2.5, -7.0, 100.0):
        assert huber_penalty(t, H2) == 2.0 * (abs(t) - 1.0)


def test_deriv_examples():
    assert huber_penalty_deriv(1.0, H2) == 1.0
    assert huber_penalty_deriv(5.0, H2) == 2.0
    assert huber_penalty_deriv(-5.0, H2) == -2.0


def test_value_and_slope_match_at_transition():
    h = 1.7
    p = HuberParams(h)
    # both branches evaluated at |t| = h agree in value and derivative
    assert huber_penalty(h, p) == pytest.approx(0.5 * h * h, abs=0)
    assert huber_penalty(h, p) == pytest.approx(h * (h - h / 2), rel=1e-15)
    assert huber_penalty_deriv(h, p) == h
    assert huber_penalty_deriv(-h, p) == -h


def test_loss_examples():
    assert huber_loss(np.zeros(3), H2) == 0.0
    assert huber_loss([1.0, 3.0], H2) == 4.5
    assert huber_loss([-1.0, -3.0], H2) == 4.5
    assert huber_loss(np.zeros((0,)), H2) == 0.0


def test_loss_on_matrix_residuals():
    R = np.array([[1.0, 3.0], [-1.0, -3.0]])
    assert huber_loss(R, H2) == 9.0


def test_loss_zero_iff_zero_residual():
    rng = np.random.default_rng(0)
    r = rng.standard_normal(50)
    assert huber_loss(r, H2) > 0
    assert huber_loss(np.zeros(50), H2) == 0.0


def test_loss_reproducible_and_splittable():
    rng = np.random.default_rng(1)
    r = rng.standard_normal(10_001) * 5
    a = huber_loss(r, H2)
    assert huber_loss(r, H2) == a  # bit-identical on identical input
    parts = huber_loss(r[:5000], H2) + huber_loss(r[5000:], H2)
    assert parts == pytest.approx(a, rel=1e-12)


def test_grad_examples():
    np.testing.assert_array_equal(huber_loss_grad(np.zeros(2), H2), np.zeros(2))
    np.testing.assert_array_equal(
        huber_loss_grad(np.array([1.0, 5.0, -5.0]), H2), np.array([1.0, 2.0, -2.0])
    )


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    step = 1e-6
    for _ in range(100):
        r = rng.standard_normal(20) * 3
        # keep clear of the kinks so the central difference is quadratic-exact
        r = r[np.abs(np.abs(r) - H2.h) > 1e-3]
        g = huber_loss_grad(r, H2)
        for j in range(r.size):
            e = np.zeros_like(r)
            e[j] = step
            fd = (huber_loss(r + e, H2) - huber_loss(r - e, H2)) / (2 * step)
            assert fd == pytest.approx(g[j], rel=1e-5, abs=1e-8)


def test_grad_bounded_by_h():
    rng = np.random.default_rng(3)
    r = rng.standard_cauchy(1000) * 10
    assert np.max(np.abs(huber_loss_grad(r, H2))) <= H2.h


def test_curvature_predicate_examples():
    assert curvature_lower_bound_holds(0.0, 0.0, 1.0, H2) is True
    assert curvature_lower_bound_holds(0.5, 0.4, 1.0, H2) is True


def test_curvature_predicate_random_batch():
    rng = np.random.default_rng(4)
    n = 100_000
    eta = rng.uniform(-3 * H2.h, 3 * H2.h, size=n)
    delta = rng.uniform(-3 * H2.h, 3 * H2.h, size=n)
    tau = rng.uniform(0.0, H2.h, size=n)
    assert np.all(curvature_lower_bound_holds(eta, delta, tau, H2))


def test_curvature_predicate_tau_out_of_range():
    with pytest.raises(ValueError):
        curvature_lower_bound_holds(0.0, 0.0, -0.1, H2)
    with pytest.raises(ValueError):
        curvature_lower_bound_holds(0.0, 0.0, 2.5, H2)


def test_params_validation():
    with pytest.raises(ValueError):
        HuberParams(0.0)
    with pytest.raises(ValueError):
        HuberParams(-1.0)
    with pytest.raises(ValueError):
        HuberParams(float("nan"))


def test_non_finite_inputs_rejected():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            huber_penalty(bad, H2)
        with pytest.raises(ValueError):
            huber_penalty_deriv(bad, H2)
        with pytest.raises(ValueError):
            huber_loss([0.0, bad], H2)
        with pytest.raises(ValueError):
            huber_loss_grad([bad], H2)


def _assert_fused_matches_separate_calls(r, params):
    value, grad = huber_loss_and_grad(r, params)
    assert value == huber_loss(r, params)
    expected = huber_loss_grad(r, params)
    assert grad.shape == expected.shape
    assert grad.tobytes() == expected.tobytes()  # signed zeros included


def test_fused_value_and_gradient_bitwise_equal_separate_calls():
    h = H2.h
    rng = np.random.default_rng(5)
    edge = np.array([h, -h, 0.0, -0.0, np.nextafter(h, 0), np.nextafter(h, 3),
                     -np.nextafter(h, 3), 1e300, -1e300, 1e-160, -1e-170, 5e-324,
                     3.58e-162, -2.5e-162])  # squares where (0.5 m) m != (m m) 0.5
    cases = [
        edge,
        rng.standard_normal(4001) * 3,  # an odd length, past pairwise blocks
        rng.standard_cauchy(1000),
        rng.standard_normal((40, 30)) * 3,
        np.asfortranarray(rng.standard_normal((7, 9)) * 3),
        np.zeros(0),
        np.zeros((0, 3)),
    ]
    cases += [edge[i:i + 1] for i in range(edge.size)]  # alone, so no sum hides a bit
    for r in cases:
        for params in (H2, HuberParams(0.37), HuberParams(1e-3)):
            _assert_fused_matches_separate_calls(r, params)
    assert huber_loss_and_grad(np.zeros(0), H2)[0] == 0.0


@given(t=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20),
       h=st.floats(min_value=1e-3, max_value=1e3))
def test_fused_matches_separate_calls_on_any_finite_vector(t, h):
    r = np.array(t, dtype=float)
    with np.errstate(over="ignore"):  # 1e308-sized entries overflow the sum to inf
        _assert_fused_matches_separate_calls(r, HuberParams(h))


def test_fused_kernel_rejects_non_finite_input():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            huber_loss_and_grad([0.0, bad], H2)
        with pytest.raises(ValueError):
            huber_loss_and_grad(np.array([[1.0, 2.0], [bad, 0.0]]), H2)


@given(t=finite_reals, h=st.floats(min_value=1e-3, max_value=1e3))
def test_penalty_between_zero_and_half_square(t, h):
    p = HuberParams(h)
    val = huber_penalty(t, p)
    assert 0.0 <= val <= 0.5 * t * t + 1e-12 * (1 + t * t)
    if abs(t) <= h:
        assert val == pytest.approx(0.5 * t * t, rel=1e-15, abs=0)
    else:
        assert val < 0.5 * t * t


@given(t=finite_reals, h=st.floats(min_value=1e-3, max_value=1e3))
def test_penalty_even_and_deriv_odd(t, h):
    p = HuberParams(h)
    assert huber_penalty(t, p) == huber_penalty(-t, p)
    assert huber_penalty_deriv(t, p) == -huber_penalty_deriv(-t, p)
    assert abs(huber_penalty_deriv(t, p)) <= h


@settings(max_examples=200)
@given(
    t1=finite_reals,
    t2=finite_reals,
    lam=st.floats(min_value=0.0, max_value=1.0),
    h=st.floats(min_value=1e-3, max_value=1e3),
)
def test_penalty_convex(t1, t2, lam, h):
    p = HuberParams(h)
    mix = lam * t1 + (1 - lam) * t2
    lhs = huber_penalty(mix, p)
    rhs = lam * huber_penalty(t1, p) + (1 - lam) * huber_penalty(t2, p)
    assert lhs <= rhs + 1e-12 * (1 + abs(rhs))
