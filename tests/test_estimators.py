"""Estimator-level tests: interpolation limits, grid oracles, error metrics,
scaling equivariance, and constant plumbing."""

import numpy as np
import pytest

from robust_huber import (
    EstimatorConstants,
    HuberParams,
    NoiseSpec,
    PcaProblem,
    RegressionProblem,
    SolverConfig,
    build_pca_composite,
    build_regression_composite,
    estimate_pca,
    estimate_sparse_regression,
    frobenius_error,
    huber_loss,
    huber_loss_grad,
    huber_penalty,
    make_pca_instance,
    parameter_error,
    prediction_error,
)

TINY_GAMMA = EstimatorConstants(gamma_scale=1e-12)


def test_noiseless_regression_interpolates():
    rng = np.random.default_rng(50)
    X = rng.standard_normal((40, 6))
    beta = np.zeros(6)
    beta[[1, 4]] = [2.0, -1.0]
    problem = RegressionProblem(X=X, y=X @ beta, beta_star=beta, support=np.array([1, 4]))
    est, result = estimate_sparse_regression(
        problem, TINY_GAMMA, SolverConfig(rel_tol=1e-10)
    )
    assert prediction_error(problem, est) <= 1e-6
    assert result.reference_dominated is True


def test_regression_matches_refined_grid_argmin():
    rng = np.random.default_rng(51)
    X = rng.standard_normal((30, 2))
    beta = np.array([0.7, -0.4])
    y = X @ beta + 0.05 * rng.standard_normal(30)
    problem = RegressionProblem(X=X, y=y)
    constants = EstimatorConstants(gamma_scale=0.2)
    est, _ = estimate_sparse_regression(problem, constants, SolverConfig(rel_tol=1e-11))

    composite, info = build_regression_composite(problem, constants)
    params = HuberParams(info["h"])
    gamma = info["gamma"]

    def objective_grid(c1, c2, half_width, points):
        g1 = np.linspace(c1 - half_width, c1 + half_width, points)
        g2 = np.linspace(c2 - half_width, c2 + half_width, points)
        B1, B2 = np.meshgrid(g1, g2, indexing="ij")
        R = y[:, None, None] - (X[:, 0, None, None] * B1 + X[:, 1, None, None] * B2)
        objs = np.sum(huber_penalty(R, params), axis=0) + gamma * (np.abs(B1) + np.abs(B2))
        i, j = np.unravel_index(np.argmin(objs), objs.shape)
        return g1[i], g2[j]

    # coarse pass then two local refinements: final spacing ~1e-5
    c1, c2 = objective_grid(0.0, 0.0, 2.0, 401)
    c1, c2 = objective_grid(c1, c2, 0.02, 401)
    c1, c2 = objective_grid(c1, c2, 2e-4, 401)
    np.testing.assert_allclose(est, [c1, c2], atol=1e-3)


def test_regression_requires_two_columns():
    problem = RegressionProblem(X=np.ones((5, 1)), y=np.zeros(5))
    with pytest.raises(ValueError):
        estimate_sparse_regression(problem)


def test_noiseless_pca_recovers_truth():
    rng = np.random.default_rng(52)
    u = np.sign(rng.standard_normal(15))
    v = np.sign(rng.standard_normal(15))
    L = 0.5 * np.outer(u, v)
    problem = PcaProblem(Y=L.copy(), rho_over_n=1.0, zeta=0.0, L_star=L, r=1)
    est, result = estimate_pca(
        problem, TINY_GAMMA, SolverConfig(rel_tol=1e-10, max_iters=5000)
    )
    assert frobenius_error(problem, est) <= 1e-6
    assert result.reference_dominated is True


def test_pca_objective_beats_2x2_grid():
    rng = np.random.default_rng(53)
    Y = rng.standard_normal((2, 2))
    problem = PcaProblem(Y=Y, rho_over_n=1.0, zeta=0.5)
    constants = EstimatorConstants(gamma_scale=0.3)
    est, result = estimate_pca(
        problem, constants, SolverConfig(rel_tol=1e-11, max_iters=20000)
    )
    composite, info = build_pca_composite(problem, constants)
    params = HuberParams(info["h"])
    gamma = info["gamma"]

    grid = np.linspace(-1.0, 1.0, 41)
    L11, L12, L21, L22 = np.meshgrid(grid, grid, grid, grid, indexing="ij")
    fro2 = L11**2 + L12**2 + L21**2 + L22**2
    det = np.abs(L11 * L22 - L12 * L21)
    nuc = np.sqrt(fro2 + 2.0 * det)
    objs = (
        huber_penalty(Y[0, 0] - L11, params)
        + huber_penalty(Y[0, 1] - L12, params)
        + huber_penalty(Y[1, 0] - L21, params)
        + huber_penalty(Y[1, 1] - L22, params)
        + gamma * nuc
    )
    assert result.objective <= float(objs.min()) + 1e-4
    assert np.max(np.abs(est)) <= 1.0 + 1e-12


def test_pca_scaling_equivariance():
    noise = NoiseSpec(family="symmetric_mixture", alpha=0.9, zeta=1.0, outlier_scale=10.0)
    base = make_pca_instance(20, 1, noise, 1.0, 54, l_scale=0.5)
    c = 3.0
    scaled = PcaProblem(
        Y=c * base.Y,
        rho_over_n=c * base.rho_over_n,
        zeta=c * base.zeta,
        L_star=c * base.L_star,
        r=base.r,
    )
    cfg = SolverConfig(rel_tol=1e-9, max_iters=4000)
    constants = EstimatorConstants(gamma_scale=1.0)
    est_base, _ = estimate_pca(base, constants, cfg)
    est_scaled, _ = estimate_pca(scaled, constants, cfg)
    e1 = frobenius_error(base, est_base)
    e2 = frobenius_error(scaled, est_scaled)
    assert e2 == pytest.approx(c * e1, rel=1e-3)


def test_pca_smooth_eval_returns_the_bits_of_the_separate_huber_calls():
    problem = make_pca_instance(30, 2, NoiseSpec("symmetric_mixture", 0.3), 2.0 / 30, seed=9)
    composite, info = build_pca_composite(problem, EstimatorConstants())
    params = HuberParams(info["h"])
    L = np.random.default_rng(10).uniform(-1, 1, problem.Y.shape) * problem.rho_over_n
    value, grad = composite.smooth_eval(composite.image(L))
    resid = problem.Y - L
    assert value == huber_loss(resid, params)
    assert composite.adjoint(grad).tobytes() == (-huber_loss_grad(resid, params)).tobytes()


# ---------------------------------------------------------------------------
# error metrics


def test_prediction_error_examples():
    X = np.eye(4)
    beta = np.zeros(4)
    problem = RegressionProblem(X=X, y=np.zeros(4), beta_star=beta)
    assert prediction_error(problem, beta) == 0.0
    e1 = np.zeros(4)
    e1[0] = 1.0
    assert prediction_error(problem, beta + e1) == pytest.approx(1.0 / 4.0)


def test_parameter_error_is_squared_norm():
    problem = RegressionProblem(X=np.eye(3), y=np.zeros(3), beta_star=np.zeros(3))
    assert parameter_error(problem, np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)
    assert parameter_error(problem, np.array([3.0, 4.0, 0.0])) == pytest.approx(25.0)


def test_error_metrics_match_naive_oracles():
    rng = np.random.default_rng(55)
    X = rng.standard_normal((12, 5))
    beta = rng.standard_normal(5)
    problem = RegressionProblem(X=X, y=X @ beta, beta_star=beta)
    bhat = beta + rng.standard_normal(5) * 0.3
    diff = bhat - beta
    assert prediction_error(problem, bhat) == pytest.approx(
        sum(float(np.dot(X[i], diff)) ** 2 for i in range(12)) / 12
    )
    assert parameter_error(problem, bhat) == pytest.approx(float(np.dot(diff, diff)))


def test_frobenius_error_examples():
    n = 6
    L = np.zeros((n, n))
    problem = PcaProblem(Y=L, rho_over_n=1.0, zeta=1.0, L_star=L, r=0)
    assert frobenius_error(problem, L) == 0.0
    # all-ones/n perturbation has Frobenius norm exactly 1 for an n x n matrix
    assert frobenius_error(problem, L + np.ones((n, n)) / n) == pytest.approx(1.0)


def test_error_metrics_require_truth():
    problem = RegressionProblem(X=np.eye(2), y=np.zeros(2))
    with pytest.raises(ValueError):
        prediction_error(problem, np.zeros(2))
    with pytest.raises(ValueError):
        parameter_error(problem, np.zeros(2))
    pp = PcaProblem(Y=np.zeros((2, 2)), rho_over_n=1.0, zeta=0.0)
    with pytest.raises(ValueError):
        frobenius_error(pp, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# constants and validation


def test_gamma_formulas():
    rng = np.random.default_rng(56)
    X = rng.standard_normal((100, 10))
    rp = RegressionProblem(X=X, y=np.zeros(100))
    _, info = build_regression_composite(rp, EstimatorConstants(gamma_scale=3.0))
    assert info["gamma"] == pytest.approx(3.0 * np.sqrt(100 * np.log(10)))
    assert info["h"] == 2.0

    pp = PcaProblem(Y=np.zeros((30, 30)), rho_over_n=0.5, zeta=1.5)
    _, info = build_pca_composite(pp, EstimatorConstants(gamma_scale=2.0))
    assert info["gamma"] == pytest.approx(2.0 * np.sqrt(30) * (1.5 + 0.5))
    assert info["h"] == pytest.approx(2.0)


def _lipschitz_designs():
    rng = np.random.default_rng(57)
    tall = rng.standard_normal((400, 12))
    return {
        "tall": tall,
        "wide": rng.standard_normal((7, 30)),
        "rank1": np.outer(rng.standard_normal(50), rng.standard_normal(9)),
        "scaled_up": 1e3 * tall,
        "scaled_down": 1e-3 * tall,
    }


@pytest.mark.parametrize("name", list(_lipschitz_designs()))
def test_regression_lipschitz_matches_spectral_norm(name):
    X = _lipschitz_designs()[name]
    rp = RegressionProblem(X=X, y=np.zeros(X.shape[0]))
    lipschitz = build_regression_composite(rp, EstimatorConstants())[0].lipschitz
    reference = np.linalg.norm(X, 2) ** 2
    assert abs(lipschitz - reference) <= 1e-12 * reference


def test_regression_lipschitz_of_zero_design():
    for shape in [(20, 4), (4, 20)]:
        rp = RegressionProblem(X=np.zeros(shape), y=np.zeros(shape[0]))
        lipschitz = build_regression_composite(rp, EstimatorConstants())[0].lipschitz
        assert lipschitz == 0.0


def test_estimators_solve_a_given_composite_as_they_would_build_it():
    # run_certificate solves the composite that problem_kind built; the
    # estimate must be the bits the estimator gets by building its own
    noise = NoiseSpec("symmetric_mixture", 0.5)
    rng = np.random.default_rng(58)
    X = rng.standard_normal((60, 8))
    beta = np.zeros(8)
    beta[:2] = 2.0
    reg = RegressionProblem(X=X, y=X @ beta + rng.standard_normal(60), beta_star=beta)
    pca = make_pca_instance(12, 1, noise, 1.0, seed=58, l_scale=0.5)
    constants = EstimatorConstants(gamma_scale=2.0)
    config = SolverConfig(rel_tol=1e-6)
    for problem, estimate, build in ((reg, estimate_sparse_regression, build_regression_composite),
                                     (pca, estimate_pca, build_pca_composite)):
        composite, _ = build(problem, constants)
        built, built_result = estimate(problem, constants, config)
        given, given_result = estimate(problem, constants, config, composite=composite)
        np.testing.assert_array_equal(given, built)
        assert given_result.iterations == built_result.iterations
        assert given_result.reference_dominated == built_result.reference_dominated


def test_h_override_changes_h_but_not_gamma():
    pp = PcaProblem(Y=np.zeros((30, 30)), rho_over_n=0.5, zeta=1.5)
    base_info = build_pca_composite(pp, EstimatorConstants(gamma_scale=2.0))[1]
    over_info = build_pca_composite(
        pp, EstimatorConstants(gamma_scale=2.0, huber_h_override=7.0)
    )[1]
    assert over_info["h"] == 7.0
    assert over_info["gamma"] == base_info["gamma"]


def test_estimator_constants_validation():
    with pytest.raises(ValueError):
        EstimatorConstants(gamma_scale=0.0)
    for h in (-2.0, 0.0):
        with pytest.raises(ValueError):
            EstimatorConstants(gamma_scale=1.0, huber_h_override=h)
    assert EstimatorConstants().gamma_scale == 100.0


def test_problem_validation():
    with pytest.raises(ValueError):
        RegressionProblem(X=np.eye(3), y=np.zeros(2))
    beta = np.array([1.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        RegressionProblem(X=np.eye(3), y=np.zeros(3), beta_star=beta, support=np.array([0]))
    # supports that cover beta's mass but hold an index outside [0, d) or a
    # repeated one: 7 would index past a mask, -1 would wrap to d - 1, and
    # [0, 0] would give k = 2
    e0 = np.array([1.0, 0.0, 0.0])
    for support in ([0, 7], [0, -1]):
        with pytest.raises(ValueError, match=r"must lie in \[0, 3\)"):
            RegressionProblem(X=np.eye(3), y=np.zeros(3), beta_star=e0, support=support)
    with pytest.raises(ValueError, match="repeated index"):
        RegressionProblem(X=np.eye(3), y=np.zeros(3), beta_star=e0, support=[0, 0])
    with pytest.raises(ValueError):
        PcaProblem(Y=np.zeros((2, 3)), rho_over_n=1.0, zeta=0.0)
    with pytest.raises(ValueError):
        PcaProblem(Y=np.zeros((2, 2)), rho_over_n=1.0, zeta=0.0,
                   L_star=np.full((2, 2), 2.0))
    with pytest.raises(ValueError):
        PcaProblem(Y=np.zeros((3, 3)), rho_over_n=1.0, zeta=0.0,
                   L_star=np.eye(3), r=0)
