"""Tests for the certificate machinery: cones, condition checkers, and the
assembled per-instance certificate."""

import numpy as np
import pytest

from robust_huber import (
    CertificateParams,
    EstimatorConstants,
    LowRankCone,
    MetaCertificate,
    NoiseSpec,
    PcaProblem,
    RegressionProblem,
    RscSamplingError,
    SignalSpec,
    SolverConfig,
    SparseCone,
    assemble_certificate,
    check_decomposability,
    check_gaussian_concentration,
    check_re_property,
    check_well_spread,
    estimate_rsc,
    gradient_bound_pca,
    gradient_bound_regression,
    make_pca_instance,
    make_regression_instance,
    measure_contraction,
    measure_gradient_dual_norm,
    nuclear_norm,
    estimate_pca,
    estimate_sparse_regression,
)
from robust_huber.huber import HuberParams, huber_loss_grad
from robust_huber.verification import CONDITION_NAMES, RADIUS_RTOL, loss_gradient_at_truth


# ---------------------------------------------------------------------------
# cones


def test_sparse_cone_samples_are_members():
    cone = SparseCone(support=np.array([0, 3, 7]), dim=12, expansion=4.0)
    rng = np.random.default_rng(0)
    for _ in range(300):
        u = cone.sample(rng)
        assert cone.member(u)


def test_sparse_cone_rejects_pure_complement_vector():
    cone = SparseCone(support=np.array([0]), dim=5)
    v = np.array([0.0, 1.0, -2.0, 0.0, 0.5])
    assert not cone.member(v)
    assert cone.member(np.zeros(5))  # zero vector is trivially inside


def test_sparse_cone_validation():
    with pytest.raises(ValueError):
        SparseCone(support=np.array([], dtype=int), dim=4)
    with pytest.raises(ValueError):
        SparseCone(support=np.array([4]), dim=4)
    with pytest.raises(ValueError):
        SparseCone(support=np.array([-1]), dim=4)


def test_lowrank_cone_from_truth_detects_rank():
    a = np.array([1.0, 2.0, 0.0, -1.0])
    b = np.array([1.0, -1.0, 1.0, -1.0])
    cone = LowRankCone.from_truth(np.outer(a, b))
    assert cone.rank == 1
    # column basis spans a
    a_hat = cone.col_basis[:, 0]
    assert np.allclose(np.abs(np.dot(a_hat, a / np.linalg.norm(a))), 1.0)
    assert cone.member(np.outer(a, b))


def test_lowrank_cone_rejects_perp_element():
    cone = LowRankCone.from_truth(np.outer([1.0, 0, 0, 0], [1.0, 0, 0, 0]))
    perp = np.zeros((4, 4))
    perp[2, 3] = 1.0  # rows and columns both outside the spans
    assert not cone.member(perp)


def test_lowrank_cone_samples_are_members():
    rng = np.random.default_rng(1)
    L = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 10))
    cone = LowRankCone.from_truth(L, r=2)
    for _ in range(300):
        M = cone.sample(rng)
        assert cone.member(M)


def test_lowrank_cone_requires_orthonormal_basis():
    bad = np.ones((4, 2))
    good, good_perp = np.eye(4)[:, :2], np.eye(4)[:, 2:]
    with pytest.raises(ValueError):
        LowRankCone(col_basis=bad, row_basis=good, col_perp=good_perp, row_perp=good_perp)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_lowrank_projection_norm_from_rank_2r_factor(r):
    rng = np.random.default_rng(30 + r)
    for n in (4, 12, 40):
        L = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
        cone = LowRankCone.from_truth(L, r=r)
        U, V = cone.col_basis, cone.row_basis
        # a generic matrix, one inside the spans, and one whose M V lies in span U
        for M in (rng.standard_normal((n, n)), U @ rng.standard_normal((r, r)) @ V.T, U @ V.T):
            full = nuclear_norm(cone.project_omega_bar(M))
            assert cone.projection_norm(M) == pytest.approx(full, rel=1e-10)


def test_lowrank_projection_idempotent_and_complement_orthogonal():
    rng = np.random.default_rng(2)
    cone = LowRankCone.from_truth(rng.standard_normal((8, 2)) @ rng.standard_normal((2, 8)))
    M = rng.standard_normal((8, 8))
    P = cone.project_omega_bar(M)
    assert np.allclose(cone.project_omega_bar(P), P, atol=1e-12)
    resid = M - P
    assert np.allclose(cone.col_basis.T @ resid, 0.0, atol=1e-12)
    assert np.allclose(resid @ cone.row_basis, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# decomposability


def l1_norm(u):
    return float(np.sum(np.abs(u)))


def nuclear(M):
    return float(np.sum(np.linalg.svd(M, compute_uv=False)))


def span_sampler(basis):
    """Random elements of the span of the given vectors."""
    basis = np.asarray(basis, dtype=float)
    return lambda rng: rng.standard_normal(len(basis)) @ basis


def test_l1_decomposable_on_disjoint_supports():
    d = 6
    eye = np.eye(d)
    model = span_sampler([eye[0], eye[1]])
    perp = span_sampler([eye[2], eye[3], eye[4], eye[5]])
    assert check_decomposability(l1_norm, model, perp, trials=100, seed=0)


def test_l1_decomposability_accepts_samplers():
    d = 6

    def model(rng):
        u = np.zeros(d)
        u[:2] = rng.standard_normal(2)
        return u

    def perp(rng):
        u = np.zeros(d)
        u[2:] = rng.standard_normal(4)
        return u

    assert check_decomposability(l1_norm, model, perp, trials=100, seed=3)


def test_l1_not_decomposable_on_overlapping_supports():
    eye = np.eye(4)
    model = span_sampler([eye[0], eye[1]])
    overlap = span_sampler([eye[1], eye[2]])  # shares coordinate 1 with the model space
    assert not check_decomposability(l1_norm, model, overlap, trials=50, seed=0)


def test_nuclear_decomposable_on_orthogonal_spans():
    n = 5

    def model(rng):
        M = np.zeros((n, n))
        M[0, 0] = rng.standard_normal()
        return M

    def perp(rng):
        M = np.zeros((n, n))
        M[1:, 1:] = rng.standard_normal((n - 1, n - 1))
        return M

    assert check_decomposability(nuclear, model, perp, trials=50, seed=1)


def test_nuclear_not_decomposable_on_shared_column_space():
    n = 4

    def first_row(rng):
        M = np.zeros((n, n))
        M[0] = rng.standard_normal(n)
        return M

    assert not check_decomposability(nuclear, first_row, first_row, trials=50, seed=2)


def test_decomposability_validation():
    with pytest.raises(ValueError):
        check_decomposability(l1_norm, span_sampler([np.ones(2)]), span_sampler([np.ones(2)]),
                              trials=0, seed=0)


# ---------------------------------------------------------------------------
# contraction


def test_contraction_exact_sparse_vectors():
    # expansion 1 leaves no budget for tails, so samples are k-sparse
    k = 3
    cone = SparseCone(support=np.arange(k), dim=20, expansion=1.0)
    s = measure_contraction(cone, np.linalg.norm, trials=400, seed=0)
    assert 1.0 <= s <= np.sqrt(k) + 1e-9


def test_contraction_sparse_cone_within_closed_form_bound():
    k = 3
    cone = SparseCone(support=np.arange(k), dim=20, expansion=4.0)
    s = measure_contraction(cone, np.linalg.norm, trials=400, seed=0)
    assert 1.0 <= s <= 4.0 * np.sqrt(k) * (1 + 1e-9)


def test_contraction_exact_lowrank_matrices():
    rng = np.random.default_rng(3)
    r = 2
    L = rng.standard_normal((10, r)) @ rng.standard_normal((r, 10))
    cone = LowRankCone.from_truth(L, r=r, expansion=1.0)
    s = measure_contraction(
        cone, lambda M: float(np.linalg.norm(M)), trials=400, seed=4
    )
    assert 1.0 <= s <= np.sqrt(2 * r) + 1e-9


def test_contraction_lowrank_cone_within_closed_form_bound():
    rng = np.random.default_rng(5)
    r = 2
    L = rng.standard_normal((10, r)) @ rng.standard_normal((r, 10))
    cone = LowRankCone.from_truth(L, r=r, expansion=4.0)
    s = measure_contraction(
        cone, lambda M: float(np.linalg.norm(M)), trials=400, seed=6
    )
    assert 1.0 <= s <= 4.0 * np.sqrt(2 * r) * (1 + 1e-9)


def test_contraction_degenerate_metric_raises():
    cone = SparseCone(support=np.array([0]), dim=3)
    with pytest.raises(ValueError):
        measure_contraction(cone, lambda u: 0.0, trials=10, seed=0)


# ---------------------------------------------------------------------------
# loss gradient at the truth and its dual norm


def test_gradient_zero_on_noiseless_instances():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((30, 5))
    beta = np.array([1.0, -2.0, 0.0, 0.0, 0.5])
    prob = RegressionProblem(X=X, y=X @ beta, beta_star=beta)
    assert measure_gradient_dual_norm(prob) == 0.0

    L = np.full((6, 6), 0.5)
    pca = PcaProblem(Y=L.copy(), rho_over_n=1.0, zeta=1.0, L_star=L, r=1)
    assert measure_gradient_dual_norm(pca) == 0.0


def test_gradient_clipping_regression():
    # residuals (5, -0.5): the first clips at h, the second stays linear
    X = np.eye(2)
    prob = RegressionProblem(X=X, y=np.array([5.0, -0.5]), beta_star=np.zeros(2))
    g = loss_gradient_at_truth(prob)
    assert np.allclose(g, [-2.0, 0.5])
    assert measure_gradient_dual_norm(prob) == pytest.approx(2.0)
    assert measure_gradient_dual_norm(prob, h=1.0) == pytest.approx(1.0)


def test_gradient_dual_norm_pca_is_spectral():
    Y = np.diag([5.0, -0.5])
    pca = PcaProblem(Y=Y, rho_over_n=1.0, zeta=1.0, L_star=np.zeros((2, 2)), r=1)
    # h = zeta + rho/n = 2, so the clipped residual matrix is diag(2, -0.5)
    assert measure_gradient_dual_norm(pca) == pytest.approx(2.0)


def test_gradient_requires_truth():
    prob = RegressionProblem(X=np.eye(2), y=np.ones(2))
    with pytest.raises(ValueError):
        loss_gradient_at_truth(prob)
    with pytest.raises(TypeError):
        loss_gradient_at_truth([1, 2, 3])


def test_gradient_is_the_reference_formula_bit_for_bit():
    # the certificate reads the gradient off the estimator's composite; it must
    # be the textbook -X^T clip(y - X beta*) and -clip(Y - L*), to the bit
    noise = NoiseSpec("symmetric_mixture", alpha=0.7)
    reg = make_regression_instance(300, 12, SignalSpec(2, 3.0), noise, seed=21)
    pca = make_pca_instance(20, 1, noise, 1.0, seed=22, l_scale=0.5)
    for h in (None, 0.5):
        hp = HuberParams(h or reg.default_huber_h)
        expected = -(reg.X.T @ huber_loss_grad(reg.y - reg.X @ reg.beta_star, hp))
        assert loss_gradient_at_truth(reg, h=h).tobytes() == expected.tobytes()
        hp = HuberParams(h or pca.default_huber_h)
        expected = -huber_loss_grad(pca.Y - pca.L_star, hp)
        assert loss_gradient_at_truth(pca, h=h).tobytes() == expected.tobytes()


def test_gradient_rejects_a_zero_huber_width():
    prob = RegressionProblem(X=np.eye(2), y=np.ones(2), beta_star=np.zeros(2))
    with pytest.raises(ValueError):
        measure_gradient_dual_norm(prob, h=0)


def test_gradient_bound_formulas():
    nu, n, d, delta = 1.7, 400, 50, 0.05
    expect = 20.0 * np.sqrt(nu * n * (np.log(d) + np.log(2.0 / delta)))
    assert gradient_bound_regression(nu, n, d, delta) == pytest.approx(expect)
    h = 2.5
    assert gradient_bound_pca(h, n, delta) == pytest.approx(
        10.0 * h * np.sqrt(n + np.log(2.0 / delta))
    )
    with pytest.raises(ValueError):
        gradient_bound_regression(nu, n, d, 0.0)
    with pytest.raises(ValueError):
        gradient_bound_pca(h, n, 1.0)


# ---------------------------------------------------------------------------
# restricted strong convexity estimates


def noiseless_regression(n, d, k, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    beta = np.zeros(d)
    beta[:k] = 1.0
    return RegressionProblem(
        X=X, y=X @ beta, beta_star=beta, support=np.arange(k), k=k
    )


def test_rsc_quadratic_regime_regression():
    # zero residuals and a tiny radius keep every sample in the quadratic
    # branch, where the curvature ratio is exactly n
    prob = noiseless_regression(100, 8, 2, seed=8)
    cone = SparseCone(prob.support, prob.d)
    kappa = estimate_rsc(prob, cone, radius=1e-3, trials=60, seed=9)
    assert kappa == pytest.approx(prob.n, rel=1e-9)


def test_rsc_quadratic_regime_pca():
    rng = np.random.default_rng(10)
    u = np.where(rng.random(12) < 0.5, -1.0, 1.0)
    v = np.where(rng.random(12) < 0.5, -1.0, 1.0)
    L = 0.5 * np.outer(u, v)  # strictly inside the unit box
    prob = PcaProblem(Y=L.copy(), rho_over_n=1.0, zeta=1.0, L_star=L, r=1)
    cone = LowRankCone.from_truth(L, r=1)
    kappa = estimate_rsc(prob, cone, radius=1e-3, trials=60, seed=11)
    assert kappa == pytest.approx(1.0, rel=1e-9)


def test_rsc_nonnegative_under_noise():
    noise = NoiseSpec("symmetric_mixture", alpha=0.7)
    prob = make_regression_instance(200, 10, SignalSpec(2, 3.0), noise, seed=12)
    cone = SparseCone(prob.support, prob.d)
    kappa = estimate_rsc(prob, cone, radius=0.5, trials=100, seed=13)
    assert kappa >= -1e-9


def test_rsc_zero_curvature_when_all_residuals_clip():
    # a constant huge offset puts every residual deep in the linear branch,
    # where the second-order bracket vanishes identically
    prob = noiseless_regression(40, 6, 2, seed=14)
    shifted = RegressionProblem(
        X=prob.X,
        y=prob.y + 1e5,
        beta_star=prob.beta_star,
        support=prob.support,
        k=prob.k,
    )
    cone = SparseCone(prob.support, prob.d)
    kappa = estimate_rsc(shifted, cone, radius=1.0, trials=50, seed=15)
    assert abs(kappa) <= 1e-6


def test_rsc_sampling_error_beyond_feasible_diameter():
    # with ||u||_F = 20 on an 8x8 grid some entry of u exceeds 2 in magnitude,
    # so L* + u always leaves the unit box and every sample is rejected
    n = 8
    L = np.outer(np.ones(n), np.where(np.arange(n) % 2 == 0, 1.0, -1.0))
    prob = PcaProblem(Y=L.copy(), rho_over_n=1.0, zeta=1.0, L_star=L, r=1)
    cone = LowRankCone.from_truth(L, r=1)
    with pytest.raises(RscSamplingError):
        estimate_rsc(prob, cone, radius=20.0, trials=5, seed=16)


def test_rsc_zero_prediction_norm_raises():
    prob = RegressionProblem(
        X=np.zeros((10, 4)),
        y=np.zeros(10),
        beta_star=np.zeros(4),
        support=np.array([0]),
        k=1,
    )
    cone = SparseCone(np.array([0]), 4)
    with pytest.raises(RscSamplingError):
        estimate_rsc(prob, cone, radius=1.0, trials=5, seed=17)


def test_rsc_validation():
    prob = noiseless_regression(20, 4, 1, seed=18)
    cone = SparseCone(prob.support, prob.d)
    with pytest.raises(ValueError):
        estimate_rsc(prob, cone, radius=0.0, trials=10, seed=0)
    with pytest.raises(ValueError):
        estimate_rsc(prob, cone, radius=1.0, trials=0, seed=0)
    with pytest.raises(TypeError):
        estimate_rsc("not a problem", cone, radius=1.0, trials=1, seed=0)


# ---------------------------------------------------------------------------
# design-structure checkers


def test_re_identity_design_gives_one():
    n = 6
    X = np.sqrt(n) * np.eye(n)
    lam = check_re_property(X, support=np.array([0, 1]), trials=50, seed=19)
    assert lam == pytest.approx(1.0, rel=1e-12)


def test_re_zero_support_column_gives_zero():
    rng = np.random.default_rng(20)
    X = rng.standard_normal((30, 6))
    X[:, 2] = 0.0
    lam = check_re_property(X, support=np.array([2]), trials=10, seed=21)
    assert lam == 0.0


def test_re_monotone_in_trials():
    rng = np.random.default_rng(22)
    X = rng.standard_normal((40, 8))
    support = np.array([0, 5])
    vals = [check_re_property(X, support, trials=t, seed=23) for t in (10, 100, 400)]
    assert vals[0] >= vals[1] >= vals[2]


def test_re_exact_enumeration_never_above_sampled():
    rng = np.random.default_rng(24)
    X = rng.standard_normal((30, 6))
    support = np.array([1, 4])
    sampled = check_re_property(X, support, trials=200, seed=25)
    exact = check_re_property(X, support, trials=200, seed=25, exact=True)
    assert exact <= sampled + 1e-15


def test_re_validation():
    X = np.eye(4)
    with pytest.raises(ValueError):
        check_re_property(X, support=np.array([], dtype=int), trials=10, seed=0)
    wide = np.ones((3, 13))
    with pytest.raises(ValueError):
        check_re_property(wide, support=np.array([0]), trials=1, seed=0, exact=True)


def test_well_spread_gaussian_design():
    rng = np.random.default_rng(26)
    X = rng.standard_normal((200, 10))
    support = np.array([0, 1])
    assert check_well_spread(X, support, m=0, trials=50, seed=27)
    assert check_well_spread(X, support, m=1, trials=50, seed=27)


def test_well_spread_fails_on_concentrated_row():
    rng = np.random.default_rng(28)
    X = 1e-3 * rng.standard_normal((50, 6))
    X[0, :] = 100.0  # one row carries essentially all the energy
    assert not check_well_spread(X, np.array([0]), m=1, trials=50, seed=29)


def test_well_spread_validation():
    X = np.eye(5)
    with pytest.raises(ValueError):
        check_well_spread(X, np.array([0]), m=5, trials=10, seed=0)
    with pytest.raises(ValueError):
        check_well_spread(X, np.array([0]), m=-1, trials=10, seed=0)


def test_concentration_holds_for_matched_design():
    rng = np.random.default_rng(30)
    X = rng.standard_normal((800, 20))
    assert check_gaussian_concentration(X, np.eye(20), sparsity=4, trials=200, seed=31)


def test_concentration_fails_for_mismatched_scale():
    rng = np.random.default_rng(32)
    X = 10.0 * rng.standard_normal((100, 10))
    assert not check_gaussian_concentration(X, np.eye(10), sparsity=3, trials=50, seed=33)


def test_concentration_validation():
    X = np.eye(4)
    with pytest.raises(ValueError):
        check_gaussian_concentration(X, -np.eye(4), sparsity=2, trials=10, seed=0)
    with pytest.raises(ValueError):
        check_gaussian_concentration(X, np.eye(4), sparsity=0, trials=10, seed=0)


# ---------------------------------------------------------------------------
# assembled certificates


def test_certificate_params_validation():
    with pytest.raises(ValueError):
        CertificateParams(alpha=0.0)
    with pytest.raises(ValueError):
        CertificateParams(alpha=1.5)
    assert CertificateParams(alpha=1.0).alpha == 1.0


def test_certificate_regression_in_regime():
    noise = NoiseSpec("symmetric_mixture", alpha=0.9)
    prob = make_regression_instance(4000, 16, SignalSpec(2, 3.0), noise, seed=424242)
    constants = EstimatorConstants(gamma_scale=5.0)
    beta_hat, _ = estimate_sparse_regression(
        prob, constants, SolverConfig(max_iters=20000, rel_tol=1e-7)
    )
    cert = assemble_certificate(
        prob, beta_hat, constants, CertificateParams(alpha=0.9, seed=1)
    )
    assert isinstance(cert, MetaCertificate)
    assert set(cert.conditions) == set(CONDITION_NAMES)
    assert cert.all_conditions()
    assert cert.cone_membership_ok
    assert cert.error_lt_radius
    assert cert.dominated_est
    assert cert.kappa > 0 and np.isfinite(cert.R)
    assert cert.lambda_hat is not None and cert.lambda_hat > 0
    assert not cert.rsc_vacuous


def test_certificate_pca_in_regime():
    noise = NoiseSpec("symmetric_mixture", alpha=0.9)
    prob = make_pca_instance(60, 1, noise, 1.0, seed=434343, l_scale=0.5)
    constants = EstimatorConstants(gamma_scale=2.0)
    L_hat, _ = estimate_pca(prob, constants, SolverConfig(max_iters=1500, rel_tol=1e-5))
    cert = assemble_certificate(
        prob, L_hat, constants, CertificateParams(alpha=0.9, seed=2)
    )
    assert set(cert.conditions) == set(CONDITION_NAMES)
    assert cert.conditions["decomposability"]
    assert cert.conditions["contraction"]
    assert cert.all_conditions()
    assert cert.cone_membership_ok
    assert cert.error_lt_radius
    assert cert.lambda_hat is None
    assert cert.s == pytest.approx(4.0 * np.sqrt(2.0))


def test_certificate_pca_radius_beyond_the_box_is_vacuous():
    # at alpha 0.2 the measured curvature is weak and R far exceeds the
    # largest Frobenius distance the box allows; kappa was measured at the
    # sampling cap, so R and kappa's radius disagree and only the vacuous
    # clause lets the radius condition hold
    noise = NoiseSpec("symmetric_mixture", alpha=0.2)
    prob = make_pca_instance(20, 1, noise, 1.0, seed=1, l_scale=0.5)
    constants = EstimatorConstants(gamma_scale=2.0)
    L_hat, _ = estimate_pca(prob, constants, SolverConfig(max_iters=1500, rel_tol=1e-5))
    cert = assemble_certificate(
        prob, L_hat, constants, CertificateParams(alpha=0.2, seed=1)
    )
    feasible_diameter = np.linalg.norm(prob.rho_over_n + np.abs(prob.L_star))
    assert cert.radius_formula_ok
    assert cert.R > feasible_diameter
    assert cert.rsc_vacuous
    assert abs(cert.R - cert.kappa_radius) > RADIUS_RTOL * cert.R
    assert cert.conditions["radius_bound"]


def test_certificate_fails_when_all_residuals_clip():
    prob = noiseless_regression(200, 8, 2, seed=34)
    shifted = RegressionProblem(
        X=prob.X,
        y=prob.y + 1e5,
        beta_star=prob.beta_star,
        support=prob.support,
        k=prob.k,
    )
    cert = assemble_certificate(
        shifted,
        prob.beta_star,
        EstimatorConstants(gamma_scale=5.0),
        CertificateParams(alpha=0.9, seed=3),
    )
    assert not cert.conditions["restricted_convexity"]
    assert not cert.conditions["radius_bound"]
    assert not cert.all_conditions()
    assert not np.isfinite(cert.R)


def test_certificate_zero_gradient_collapses_radius():
    # noiseless data: gradient at the truth vanishes, so the certified radius
    # is exactly zero and the strict error < R comparison cannot hold
    prob = noiseless_regression(300, 6, 2, seed=36)
    cert = assemble_certificate(
        prob,
        prob.beta_star,
        EstimatorConstants(gamma_scale=5.0),
        CertificateParams(alpha=0.9, seed=5),
    )
    assert cert.gamma_measured == 0.0
    assert cert.R == 0.0
    assert cert.conditions["radius_bound"]
    assert cert.conditions["restricted_convexity"]
    assert cert.error_value == 0.0
    assert not cert.error_lt_radius


def test_certificate_requires_truth():
    prob = RegressionProblem(X=np.eye(4), y=np.ones(4))
    with pytest.raises(ValueError):
        assemble_certificate(
            prob, np.zeros(4), EstimatorConstants(), CertificateParams(alpha=0.5)
        )
    with pytest.raises(TypeError):
        assemble_certificate(
            "nope", np.zeros(4), EstimatorConstants(), CertificateParams(alpha=0.5)
        )


def test_certificate_report_format():
    prob = noiseless_regression(300, 6, 2, seed=35)
    cert = assemble_certificate(
        prob,
        prob.beta_star,
        EstimatorConstants(gamma_scale=5.0),
        CertificateParams(alpha=0.9, seed=4),
    )
    report = cert.to_report()
    assert report.endswith("\n")
    lines = report.strip().splitlines()
    for name in CONDITION_NAMES:
        assert any(ln.startswith(f"condition_{name} = ") for ln in lines)
    for key in ("gamma_measured", "kappa", "R", "error_value", "lambda_hat"):
        assert any(ln.startswith(f"{key} = ") for ln in lines)
    assert all(" = " in ln for ln in lines)


def test_certificate_report_key_order():
    # conditions, then the measured values sorted by name (lambda_hat only for
    # regression), then the flags in a fixed order
    conditions = [f"condition_{name}" for name in CONDITION_NAMES]
    flags = ["radius_formula_ok", "rsc_vacuous", "cone_membership_ok", "error_lt_radius",
             "dominated_est", "dominated_meas"]
    reg = noiseless_regression(300, 6, 2, seed=35)
    noise = NoiseSpec("symmetric_mixture", alpha=0.9)
    pca = make_pca_instance(20, 1, noise, 1.0, seed=1, l_scale=0.5)
    cases = [
        (reg, reg.beta_star, EstimatorConstants(gamma_scale=5.0), [
            "R", "contraction_measured", "error_value", "gamma_est", "gamma_measured",
            "kappa", "kappa_radius", "lambda_hat", "radius_est", "s",
        ]),
        (pca, pca.L_star, EstimatorConstants(gamma_scale=2.0), [
            "R", "contraction_measured", "error_value", "gamma_est", "gamma_measured",
            "kappa", "kappa_radius", "radius_est", "s",
        ]),
    ]
    for prob, truth, constants, measured in cases:
        cert = assemble_certificate(prob, truth, constants, CertificateParams(alpha=0.9, seed=4))
        pairs = [ln.split(" = ") for ln in cert.to_report().splitlines()]
        assert [key for key, _ in pairs] == conditions + measured + flags
        assert {value for key, value in pairs if key in conditions + flags} <= {"0", "1"}
