"""Tests for the certificate machinery: cones, condition checkers, and the
assembled per-instance certificate."""

import numpy as np
import pytest

from robust_huber import (
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
    problem_kind,
)
from robust_huber import verification
from robust_huber.huber import HuberParams, huber_loss_grad
from robust_huber.verification import CONDITION_NAMES, RADIUS_RTOL


# ---------------------------------------------------------------------------
# cones


def test_sparse_cone_samples_are_members():
    cone = SparseCone(support=np.array([0, 3, 7]), dim=12)
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
    with pytest.raises(ValueError, match="repeated index"):
        SparseCone(support=np.array([1, 1]), dim=4)


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
    cone = LowRankCone.from_truth(L)
    for _ in range(300):
        M = cone.sample(rng)
        assert cone.member(M)


def test_lowrank_cone_tangent_draw_has_the_law_of_a_projected_gaussian():
    # sample draws its tangent part A from 2rn normals in place of
    # project_omega_bar(M) for a Gaussian n x n M.  In the bases [U, U_perp]
    # and [V, V_perp] the latter has independent standard normal coordinates
    # on U^T M [V, V_perp] and U_perp^T M V, and none on U_perp^T M V_perp
    class TangentMode:  # an rng whose uniform draw picks sample's tangent-only branch
        def __init__(self, rng):
            self.rng = rng

        def random(self):
            return 0.2

        def standard_normal(self, size):
            return self.rng.standard_normal(size)

    n, r = 12, 2
    rng = np.random.default_rng(6)
    cone = LowRankCone.from_truth(rng.standard_normal((n, r)) @ rng.standard_normal((r, n)))
    U, V = cone.col_basis, cone.row_basis
    U_perp = np.linalg.svd(U, full_matrices=True)[0][:, r:]
    V_perp = np.linalg.svd(V, full_matrices=True)[0][:, r:]
    V_full = np.hstack([V, V_perp])
    coords = []
    for _ in range(500):
        A = cone.sample(TangentMode(rng))
        assert np.abs(U_perp.T @ A @ V_perp).max() <= 1e-12
        coords.append(np.concatenate([(U.T @ A @ V_full).ravel(), (U_perp.T @ A @ V).ravel()]))
    coords = np.array(coords)
    assert coords.shape[1] == r * n + (n - r) * r
    assert np.abs(coords.mean(axis=0)).max() < 0.25
    assert np.abs(np.cov(coords.T) - np.eye(coords.shape[1])).max() < 0.3


def test_lowrank_cone_requires_orthonormal_basis():
    bad, good = np.ones((4, 2)), np.eye(4)[:, :2]
    with pytest.raises(ValueError):
        LowRankCone(col_basis=bad, row_basis=good)
    with pytest.raises(ValueError):
        LowRankCone(col_basis=good, row_basis=bad)


def test_lowrank_cone_requires_bases_of_one_n_by_r_shape():
    eye = np.eye(4)
    # U 4x2 with V 4x1 read rank 2 and failed at the first sample_model
    for U, V in ((eye[:, :2], eye[:, :1]), (eye[:3, :2], eye[:, :2]),
                 (eye[:, :0], eye[:, :0]), (eye[0], eye[0])):
        with pytest.raises(ValueError, match="n x r with r >= 1"):
            LowRankCone(col_basis=U, row_basis=V)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_lowrank_projection_norm_from_rank_2r_factor(r):
    rng = np.random.default_rng(30 + r)
    for n in (4, 12, 40):
        L = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
        cone = LowRankCone.from_truth(L)
        U, V = cone.col_basis, cone.row_basis
        # a generic matrix, one inside the spans, and one whose M V lies in span U
        for M in (rng.standard_normal((n, n)), U @ rng.standard_normal((r, r)) @ V.T, U @ V.T):
            full = nuclear_norm(cone.project_omega_bar(M))
            assert cone.projection_norm(M) == pytest.approx(full, rel=1e-10)


@pytest.mark.parametrize("r", [1, 3])
def test_lowrank_subspace_samples_lie_in_their_spaces(r):
    rng = np.random.default_rng(40 + r)
    cone = LowRankCone.from_truth(rng.standard_normal((12, r)) @ rng.standard_normal((r, 12)))
    for _ in range(20):
        perp = cone.sample_perp(rng)
        assert np.linalg.norm(cone.project_omega_bar(perp)) <= 1e-12 * np.linalg.norm(perp)
        model = cone.sample_model(rng)
        assert np.allclose(cone.project_omega_bar(model), model, rtol=0, atol=1e-12)


def test_lowrank_full_rank_truth_has_an_exactly_zero_complement():
    rng = np.random.default_rng(3)
    cone = LowRankCone.from_truth(rng.standard_normal((5, 5)))
    assert cone.rank == 5
    assert np.array_equal(cone.sample_perp(rng), np.zeros((5, 5)))
    for _ in range(50):
        assert cone.member(cone.sample(rng))


def test_sparse_subspace_samples_are_one_normal_draw_on_their_coordinates():
    cone = SparseCone(support=np.array([1, 4]), dim=6)
    for sample, coords in ((cone.sample_model, [1, 4]), (cone.sample_perp, [0, 2, 3, 5])):
        expected = np.zeros(6)
        expected[coords] = np.random.default_rng(9).standard_normal(len(coords))
        assert np.array_equal(sample(np.random.default_rng(9)), expected)
    full = SparseCone(support=np.arange(3), dim=3)
    assert np.array_equal(full.sample_perp(np.random.default_rng(9)), np.zeros(3))


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


def test_contraction_exact_sparse_vectors(monkeypatch):
    # expansion 1 leaves no budget for tails, so samples are k-sparse
    monkeypatch.setattr(verification, "CONE_EXPANSION", 1.0)
    k = 3
    cone = SparseCone(support=np.arange(k), dim=20)
    s = measure_contraction(cone, np.linalg.norm, trials=400, seed=0)
    assert 1.0 <= s <= np.sqrt(k) + 1e-9


def test_contraction_sparse_cone_within_closed_form_bound():
    k = 3
    cone = SparseCone(support=np.arange(k), dim=20)
    s = measure_contraction(cone, np.linalg.norm, trials=400, seed=0)
    assert 1.0 <= s <= 4.0 * np.sqrt(k) * (1 + 1e-9)


def test_contraction_exact_lowrank_matrices(monkeypatch):
    monkeypatch.setattr(verification, "CONE_EXPANSION", 1.0)
    rng = np.random.default_rng(3)
    r = 2
    L = rng.standard_normal((10, r)) @ rng.standard_normal((r, 10))
    cone = LowRankCone.from_truth(L)
    s = measure_contraction(
        cone, lambda M: float(np.linalg.norm(M)), trials=400, seed=4
    )
    assert 1.0 <= s <= np.sqrt(2 * r) + 1e-9


def test_contraction_lowrank_cone_within_closed_form_bound():
    rng = np.random.default_rng(5)
    r = 2
    L = rng.standard_normal((10, r)) @ rng.standard_normal((r, 10))
    cone = LowRankCone.from_truth(L)
    s = measure_contraction(
        cone, lambda M: float(np.linalg.norm(M)), trials=400, seed=6
    )
    assert 1.0 <= s <= 4.0 * np.sqrt(2 * r) * (1 + 1e-9)


def test_cone_expansion_is_stated_once(monkeypatch):
    # the constant sets each kind's cone and its contraction constant together
    noise = NoiseSpec("symmetric_mixture", alpha=0.9)
    reg = make_regression_instance(200, 10, SignalSpec(2, 3.0), noise, seed=12)
    pca = make_pca_instance(20, 1, noise, 1.0, seed=6, l_scale=0.5)
    for prob in (reg, pca):
        geo = problem_kind(prob).geometry(3)
        cone = geo.cone
        if isinstance(cone, SparseCone):
            # l1 norm 4 * ||u_S||_1: the tail holds 3 parts in 4
            inside = np.zeros(cone.dim)
            inside[cone.support] = 1.0
            inside[cone.complement] = 3.0 * cone.support.size / cone.complement.size
        else:
            # spans plus a complement element of 3 times their nuclear norm
            inside = cone.col_basis @ cone.row_basis.T
            perp = cone.sample_perp(np.random.default_rng(0))
            inside += 3.0 * cone.rank * perp / cone.reg_norm(perp)
        assert cone.reg_norm(inside) == pytest.approx(4.0 * cone.projection_norm(inside))
        assert cone.member(inside)
        monkeypatch.setattr(verification, "CONE_EXPANSION", 2.0)
        assert problem_kind(prob).geometry(3).s == geo.s / 2
        assert not cone.member(inside)
        monkeypatch.undo()


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
    pca = PcaProblem(Y=L.copy(), rho_over_n=1.0, zeta=1.0, L_star=L)
    assert measure_gradient_dual_norm(pca) == 0.0


def test_gradient_clipping_regression():
    # residuals (5, -0.5): the first clips at h, the second stays linear
    X = np.eye(2)
    prob = RegressionProblem(X=X, y=np.array([5.0, -0.5]), beta_star=np.zeros(2))
    g = problem_kind(prob).gradient_at_truth()
    assert np.allclose(g, [-2.0, 0.5])
    assert measure_gradient_dual_norm(prob) == pytest.approx(2.0)
    narrow = problem_kind(prob, EstimatorConstants(huber_h_override=1.0))
    assert narrow.dual_norm(narrow.gradient_at_truth()) == pytest.approx(1.0)


def test_gradient_dual_norm_pca_is_spectral():
    Y = np.diag([5.0, -0.5])
    pca = PcaProblem(Y=Y, rho_over_n=1.0, zeta=1.0, L_star=np.zeros((2, 2)))
    # h = zeta + rho/n = 2, so the clipped residual matrix is diag(2, -0.5)
    assert measure_gradient_dual_norm(pca) == pytest.approx(2.0)


def test_gradient_requires_truth():
    prob = RegressionProblem(X=np.eye(2), y=np.ones(2))
    with pytest.raises(ValueError):
        measure_gradient_dual_norm(prob)
    with pytest.raises(TypeError):
        measure_gradient_dual_norm([1, 2, 3])


def test_gradient_is_the_reference_formula_bit_for_bit():
    # the certificate reads the gradient off the estimator's composite; it must
    # be the textbook -X^T clip(y - X beta*) and -clip(Y - L*), to the bit
    noise = NoiseSpec("symmetric_mixture", alpha=0.7)
    reg = make_regression_instance(300, 12, SignalSpec(2, 3.0), noise, seed=21)
    pca = make_pca_instance(20, 1, noise, 1.0, seed=22, l_scale=0.5)
    for h in (None, 0.5):
        constants = EstimatorConstants(huber_h_override=h)
        hp = HuberParams(h or reg.default_huber_h)
        expected = -(reg.X.T @ huber_loss_grad(reg.y - reg.X @ reg.beta_star, hp))
        assert problem_kind(reg, constants).gradient_at_truth().tobytes() == expected.tobytes()
        hp = HuberParams(h or pca.default_huber_h)
        expected = -huber_loss_grad(pca.Y - pca.L_star, hp)
        assert problem_kind(pca, constants).gradient_at_truth().tobytes() == expected.tobytes()


def test_gradient_rejects_a_zero_huber_width():
    # the width reaches the gradient only through the estimator's constants;
    # a zero width is refused there, and by the Huber parameters themselves
    prob = RegressionProblem(X=np.eye(2), y=np.ones(2), beta_star=np.zeros(2))
    with pytest.raises(ValueError):
        problem_kind(prob, EstimatorConstants(huber_h_override=0)).gradient_at_truth()
    with pytest.raises(ValueError):
        huber_loss_grad(np.ones(2), HuberParams(0.0))


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
    return RegressionProblem(X=X, y=X @ beta, beta_star=beta)


def test_rsc_quadratic_regime_regression():
    # zero residuals and a tiny radius keep every sample in the quadratic
    # branch, where the curvature ratio is exactly n
    prob = noiseless_regression(100, 8, 2, seed=8)
    cone = SparseCone(prob.support, prob.d)
    kappa = estimate_rsc(problem_kind(prob), cone, radius=1e-3, trials=60, seed=9)
    assert kappa == pytest.approx(prob.n, rel=1e-9)


def test_rsc_quadratic_regime_pca():
    rng = np.random.default_rng(10)
    u = np.where(rng.random(12) < 0.5, -1.0, 1.0)
    v = np.where(rng.random(12) < 0.5, -1.0, 1.0)
    L = 0.5 * np.outer(u, v)  # strictly inside the unit box
    prob = PcaProblem(Y=L.copy(), rho_over_n=1.0, zeta=1.0, L_star=L)
    cone = LowRankCone.from_truth(L)
    kappa = estimate_rsc(problem_kind(prob), cone, radius=1e-3, trials=60, seed=11)
    assert kappa == pytest.approx(1.0, rel=1e-9)


def test_rsc_nonnegative_under_noise():
    noise = NoiseSpec("symmetric_mixture", alpha=0.7)
    prob = make_regression_instance(200, 10, SignalSpec(2, 3.0), noise, seed=12)
    cone = SparseCone(prob.support, prob.d)
    kappa = estimate_rsc(problem_kind(prob), cone, radius=0.5, trials=100, seed=13)
    assert kappa >= -1e-9


def test_rsc_zero_curvature_when_all_residuals_clip():
    # a constant huge offset puts every residual deep in the linear branch,
    # where the second-order bracket vanishes identically
    prob = noiseless_regression(40, 6, 2, seed=14)
    shifted = RegressionProblem(X=prob.X, y=prob.y + 1e5, beta_star=prob.beta_star)
    cone = SparseCone(prob.support, prob.d)
    kappa = estimate_rsc(problem_kind(shifted), cone, radius=1.0, trials=50, seed=15)
    assert abs(kappa) <= 1e-6


def test_rsc_sampling_error_beyond_feasible_diameter():
    # with ||u||_F = 20 on an 8x8 grid some entry of u exceeds 2 in magnitude,
    # so L* + u always leaves the unit box and every sample is rejected
    n = 8
    L = np.outer(np.ones(n), np.where(np.arange(n) % 2 == 0, 1.0, -1.0))
    prob = PcaProblem(Y=L.copy(), rho_over_n=1.0, zeta=1.0, L_star=L)
    cone = LowRankCone.from_truth(L)
    with pytest.raises(RscSamplingError):
        estimate_rsc(problem_kind(prob), cone, radius=20.0, trials=5, seed=16)


def test_rsc_zero_prediction_norm_raises():
    prob = RegressionProblem(X=np.zeros((10, 4)), y=np.zeros(10), beta_star=np.zeros(4))
    cone = SparseCone(np.array([0]), 4)
    with pytest.raises(RscSamplingError):
        estimate_rsc(problem_kind(prob), cone, radius=1.0, trials=5, seed=17)


def test_rsc_validation():
    prob = noiseless_regression(20, 4, 1, seed=18)
    cone = SparseCone(prob.support, prob.d)
    with pytest.raises(ValueError):
        estimate_rsc(problem_kind(prob), cone, radius=0.0, trials=10, seed=0)
    with pytest.raises(ValueError):
        estimate_rsc(problem_kind(prob), cone, radius=1.0, trials=0, seed=0)
    with pytest.raises(TypeError):
        problem_kind("not a problem")


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


def test_certificate_alpha_validation():
    prob = noiseless_regression(300, 6, 2, seed=35)
    kind = problem_kind(prob, EstimatorConstants(gamma_scale=5.0))
    for alpha in (0.0, 1.5):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
            assemble_certificate(kind, prob.beta_star, alpha)
    assert assemble_certificate(kind, prob.beta_star, 1.0).conditions["decomposability"]


def test_certificate_regression_in_regime():
    noise = NoiseSpec("symmetric_mixture", alpha=0.9)
    prob = make_regression_instance(4000, 16, SignalSpec(2, 3.0), noise, seed=424242)
    constants = EstimatorConstants(gamma_scale=5.0)
    beta_hat, _ = estimate_sparse_regression(
        prob, constants, SolverConfig(max_iters=20000, rel_tol=1e-7)
    )
    cert = assemble_certificate(problem_kind(prob, constants), beta_hat, 0.9, seed=1)
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
    cert = assemble_certificate(problem_kind(prob, constants), L_hat, 0.9, seed=2)
    assert set(cert.conditions) == set(CONDITION_NAMES)
    assert cert.conditions["decomposability"]
    assert cert.conditions["contraction"]
    assert cert.all_conditions()
    assert cert.cone_membership_ok
    assert cert.error_lt_radius
    assert cert.lambda_hat is None
    assert cert.s == pytest.approx(4.0 * np.sqrt(2.0))


def test_certificate_builds_the_estimator_objective_once_per_kind(monkeypatch):
    # every stage (gradient bound, each RSC round, the measured-weight
    # domination check) reads the one ProblemKind it is given, and builds none
    noise = NoiseSpec("symmetric_mixture", alpha=0.9)
    reg = make_regression_instance(400, 8, SignalSpec(2, 3.0), noise, seed=5)
    pca = make_pca_instance(20, 1, noise, 1.0, seed=6, l_scale=0.5)
    calls = {"build_regression_composite": 0, "build_pca_composite": 0, "estimate_rsc": 0}
    for name in calls:
        original = getattr(verification, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(verification, name, counted)
    constants = EstimatorConstants(gamma_scale=5.0)
    for prob, truth, build in ((reg, reg.beta_star, "build_regression_composite"),
                               (pca, pca.L_star, "build_pca_composite")):
        before = dict(calls)
        assemble_certificate(problem_kind(prob, constants), truth, 0.9, seed=1)
        assert calls[build] - before[build] == 1
        assert sum(calls[k] - before[k] for k in calls if k.startswith("build")) == 1
        assert calls["estimate_rsc"] - before["estimate_rsc"] >= 2


def test_certificate_pca_radius_beyond_the_box_is_vacuous():
    # at alpha 0.2 the measured curvature is weak and R far exceeds the
    # largest Frobenius distance the box allows; kappa was measured at the
    # sampling cap, so R and kappa's radius disagree and only the vacuous
    # clause lets the radius condition hold
    noise = NoiseSpec("symmetric_mixture", alpha=0.2)
    prob = make_pca_instance(20, 1, noise, 1.0, seed=1, l_scale=0.5)
    constants = EstimatorConstants(gamma_scale=2.0)
    L_hat, _ = estimate_pca(prob, constants, SolverConfig(max_iters=1500, rel_tol=1e-5))
    cert = assemble_certificate(problem_kind(prob, constants), L_hat, 0.2, seed=1)
    feasible_diameter = np.linalg.norm(prob.rho_over_n + np.abs(prob.L_star))
    assert cert.radius_formula_ok
    assert cert.R > feasible_diameter
    assert cert.rsc_vacuous
    assert abs(cert.R - cert.kappa_radius) > RADIUS_RTOL * cert.R
    assert cert.conditions["radius_bound"]


def test_certificate_on_the_box_boundary_fails_before_sampling(monkeypatch):
    # l_scale 1.0 parks the truth on the box boundary, so no cone sample is
    # feasible: the certificate must say so before it draws any
    noise = NoiseSpec("symmetric_mixture", alpha=0.9)
    prob = make_pca_instance(80, 1, noise, 1.0, seed=3, l_scale=1.0)
    drawn = []
    sample = LowRankCone.sample

    def counted(self, rng):
        drawn.append(1)
        return sample(self, rng)

    monkeypatch.setattr(LowRankCone, "sample", counted)
    with pytest.raises(RscSamplingError, match="truth sits on the box boundary"):
        assemble_certificate(
            problem_kind(prob, EstimatorConstants(gamma_scale=2.0)),
            prob.L_star,
            0.9,
            seed=3,
        )
    assert drawn == []


def test_certificate_fails_when_all_residuals_clip():
    prob = noiseless_regression(200, 8, 2, seed=34)
    shifted = RegressionProblem(X=prob.X, y=prob.y + 1e5, beta_star=prob.beta_star)
    cert = assemble_certificate(
        problem_kind(shifted, EstimatorConstants(gamma_scale=5.0)),
        prob.beta_star,
        0.9,
        seed=3,
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
        problem_kind(prob, EstimatorConstants(gamma_scale=5.0)),
        prob.beta_star,
        0.9,
        seed=5,
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
        assemble_certificate(problem_kind(prob, EstimatorConstants()), np.zeros(4), 0.5)
    with pytest.raises(TypeError):
        assemble_certificate(problem_kind("nope", EstimatorConstants()), np.zeros(4), 0.5)


def test_certificate_report_format():
    prob = noiseless_regression(300, 6, 2, seed=35)
    cert = assemble_certificate(
        problem_kind(prob, EstimatorConstants(gamma_scale=5.0)),
        prob.beta_star,
        0.9,
        seed=4,
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
        cert = assemble_certificate(problem_kind(prob, constants), truth, 0.9, seed=4)
        pairs = [ln.split(" = ") for ln in cert.to_report().splitlines()]
        assert [key for key, _ in pairs] == conditions + measured + flags
        assert {value for key, value in pairs if key in conditions + flags} <= {"0", "1"}
