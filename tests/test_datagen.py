"""Generator tests: moments, counts, symmetry, determinism, stream isolation."""

import numpy as np
import pytest
from scipy.stats import chisquare, norm

from robust_huber import (
    NoiseSpec,
    SignalSpec,
    gen_deterministic_outlier_noise,
    gen_flat_lowrank,
    gen_gaussian_design,
    gen_lb_noise,
    gen_matrix_completion_scenario,
    gen_oblivious_noise_vector,
    gen_sparse_signal,
    lb_noise_params,
    make_gaussian_design_instance,
    make_pca_instance,
    make_regression_instance,
    stream_rng,
    trial_seed,
)
from robust_huber.datagen import _NOISE, lb_xi_of_alpha


def symmetry_gap(x):
    """sup_t |F(t) + F(-t^-) - 1| over the sample's own magnitudes."""
    xs = np.sort(np.asarray(x).ravel())
    n = xs.size
    t = np.abs(xs)
    F_le = np.searchsorted(xs, t, side="right") / n
    F_lt_neg = np.searchsorted(xs, -t, side="left") / n
    return float(np.max(np.abs(F_le + F_lt_neg - 1.0)))


# ---------------------------------------------------------------------------
# designs and signals


def test_design_covariance_close_to_identity():
    X = gen_gaussian_design(10_000, 2, np.eye(2), 100)
    emp = X.T @ X / 10_000
    np.testing.assert_allclose(emp, np.eye(2), atol=0.05)


def test_design_scalar_variance():
    X = gen_gaussian_design(20_000, 1, np.array([[4.0]]), 101)
    assert np.var(X) == pytest.approx(4.0, rel=0.1)


def test_design_deterministic():
    a = gen_gaussian_design(50, 3, np.eye(3), 102)
    b = gen_gaussian_design(50, 3, np.eye(3), 102)
    np.testing.assert_array_equal(a, b)


def test_design_rejects_bad_sigma():
    with pytest.raises(np.linalg.LinAlgError):
        gen_gaussian_design(10, 2, np.array([[1.0, 2.0], [2.0, 1.0]]), 103)
    with pytest.raises(ValueError):
        gen_gaussian_design(10, 2, np.array([[1.0, 0.5], [0.0, 1.0]]), 103)
    with pytest.raises(ValueError):
        gen_gaussian_design(10, 3, np.eye(2), 103)


@pytest.mark.parametrize("n", [5, 500, 2000])
def test_identity_design_without_sigma_is_bitwise_the_eye_draw(n):
    a = gen_gaussian_design(n, 100, None, 108)
    b = gen_gaussian_design(n, 100, np.eye(100), 108)
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def test_correlated_design_is_its_cholesky_draw():
    sigma = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 0.5]])
    X = gen_gaussian_design(40, 3, sigma, 109)
    Z = gen_gaussian_design(40, 3, None, 109)
    np.testing.assert_array_equal(X, Z @ np.linalg.cholesky(sigma).T)


def test_sparse_signal_basic_shapes():
    beta = gen_sparse_signal(4, SignalSpec(k=4, magnitude=2.5), 104)
    assert np.all(np.abs(beta) == 2.5)

    beta = gen_sparse_signal(3, SignalSpec(k=1), 105)
    assert np.count_nonzero(beta) == 1
    assert beta[np.flatnonzero(beta)[0]] in (-1.0, 1.0)

    with pytest.raises(ValueError):
        gen_sparse_signal(2, SignalSpec(k=3), 106)


def test_sparse_signal_support_uniform():
    d = 5
    counts = np.zeros(d)
    for i in range(10_000):
        counts[np.flatnonzero(gen_sparse_signal(d, SignalSpec(k=1), i))[0]] += 1
    stat, pvalue = chisquare(counts)
    assert pvalue > 1e-4


# ---------------------------------------------------------------------------
# noise families


def test_mixture_alpha_one_bounded():
    spec = NoiseSpec(family="symmetric_mixture", alpha=1.0, zeta=0.7)
    eta = gen_oblivious_noise_vector(5000, spec, 107)
    assert np.max(np.abs(eta)) <= 0.7


def test_mixture_inlier_fraction_concentrates():
    n = 100_000
    spec = NoiseSpec(family="symmetric_mixture", alpha=0.6, zeta=1.0, outlier_scale=50.0)
    eta = gen_oblivious_noise_vector(n, spec, 108)
    frac = np.mean(np.abs(eta) <= 1.0)
    assert abs(frac - 0.6) <= 3 * np.sqrt(0.6 * 0.4 / n)
    assert abs(np.mean(np.sign(eta))) <= 3 / np.sqrt(n)


def test_gaussian_family_hits_target_inlier_rate():
    n = 100_000
    spec = NoiseSpec(family="gaussian", alpha=0.5, zeta=1.0)
    eta = gen_oblivious_noise_vector(n, spec, 109)
    frac = np.mean(np.abs(eta) <= 1.0)
    assert abs(frac - 0.5) <= 3 * np.sqrt(0.25 / n)


def test_gaussian_family_alpha_one_is_zero():
    spec = NoiseSpec(family="gaussian", alpha=1.0, zeta=1.0)
    np.testing.assert_array_equal(gen_oblivious_noise_vector(10, spec, 110), np.zeros(10))


@pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5, 0.8, 0.9, 0.99])
@pytest.mark.parametrize("zeta", [0.5, 1.0])
def test_gaussian_family_is_bitwise_the_norm_ppf_draw(alpha, zeta):
    n, seed = 1000, 117
    eta = gen_oblivious_noise_vector(n, NoiseSpec("gaussian", alpha, zeta), seed)
    ref = stream_rng(seed, _NOISE).normal(0.0, zeta / norm.ppf((1 + alpha) / 2), n)
    np.testing.assert_array_equal(eta.view(np.uint64), ref.view(np.uint64))


def test_vector_generator_rejects_matrix_family():
    spec = NoiseSpec(family="lb_geometric_even", alpha=0.5)
    with pytest.raises(ValueError):
        gen_oblivious_noise_vector(10, spec, 111)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(family="nope", alpha=0.5)
    with pytest.raises(ValueError):
        NoiseSpec(family="gaussian", alpha=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(family="gaussian", alpha=1.5)


def test_deterministic_outliers_exact_counts():
    n = 1000
    eta = gen_deterministic_outlier_noise(n, 0.37, 112)
    inliers = np.abs(eta) <= 1.0
    assert int(np.sum(inliers)) == int(np.floor(0.37 * n))
    assert np.all(np.abs(eta[~inliers]) == 1e6)
    np.testing.assert_array_equal(eta, gen_deterministic_outlier_noise(n, 0.37, 112))

    assert np.max(np.abs(gen_deterministic_outlier_noise(50, 1.0, 113))) <= 1.0
    with pytest.raises(ValueError):
        gen_deterministic_outlier_noise(10, 0.05, 114)


def test_all_families_symmetric_about_zero():
    n = 100_000
    draws = [
        gen_oblivious_noise_vector(
            n, NoiseSpec(family="symmetric_mixture", alpha=0.5, zeta=1.0), 115
        ),
        gen_oblivious_noise_vector(n, NoiseSpec(family="gaussian", alpha=0.5, zeta=1.0), 116),
        gen_deterministic_outlier_noise(n, 0.5, 117),
        gen_lb_noise(317, 1, 0.05, 118),  # 317^2 ~ 1e5 entries
    ]
    for x in draws:
        assert symmetry_gap(x) <= 0.01


# ---------------------------------------------------------------------------
# low-rank truth and the even-geometric law


def test_flat_lowrank_entries_and_rank():
    L = gen_flat_lowrank(20, 1, 0.5, 119)
    assert np.all(np.abs(L) == 0.5)
    assert np.linalg.matrix_rank(L, tol=1e-8) == 1

    L = gen_flat_lowrank(21, 4, 1.0, 120)
    assert np.all(np.abs(L) == 1.0)
    assert np.linalg.matrix_rank(L, tol=1e-8) <= 4
    s = np.linalg.svd(L, compute_uv=False)
    assert np.sum(s) <= 21 * 2.0 + 1e-9  # ||L||_nuc <= n sqrt(r) rho/n

    with pytest.raises(ValueError):
        gen_flat_lowrank(3, 4, 1.0, 121)


def test_flat_lowrank_rank_equals_r_generically():
    hits = sum(
        np.linalg.matrix_rank(gen_flat_lowrank(30, 3, 1.0, seed), tol=1e-8) == 3
        for seed in range(10)
    )
    assert hits >= 9


def test_lb_params_closed_form():
    a, q = lb_noise_params(4, 1, 0.5)
    assert a == pytest.approx(0.5 / (4 - 0.5))  # = 1/7
    assert q == pytest.approx(0.75)
    # analytic normalization a (1+q)/(1-q) = 1
    assert a * (1 + q) / (1 - q) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        lb_noise_params(4, 1, 0.0)
    with pytest.raises(ValueError):
        lb_noise_params(4, 100, 0.5)


def test_lb_noise_support_and_zero_mass():
    n, xi = 200, 0.2
    N = gen_lb_noise(n, 1, xi, 122)
    assert np.all(np.mod(N, 2) == 0)
    a, _ = lb_noise_params(n, 1, xi)
    count0 = np.sum(N == 0)
    sd = np.sqrt(n * n * a * (1 - a))
    assert abs(count0 - n * n * a) <= 3 * sd


@pytest.mark.parametrize("n, r, alpha, seed", [(20, 1, 0.25, 5), (40, 2, 0.6, 9)])
def test_pca_instance_lb_noise_derives_xi_from_alpha(n, r, alpha, seed):
    problem = make_pca_instance(n, r, NoiseSpec("lb_geometric_even", alpha), 1.0, seed)
    N = gen_lb_noise(n, r, lb_xi_of_alpha(n, r, alpha), seed)
    assert (problem.Y - problem.L_star).tobytes() == N.tobytes()


# ---------------------------------------------------------------------------
# composite scenarios


def test_matrix_completion_alpha_one_plain():
    prob = gen_matrix_completion_scenario(30, 1, 1.0, 0.2, 1.0, 123)
    assert np.max(np.abs(prob.Y - prob.L_star)) <= 0.2


def test_matrix_completion_hidden_fraction():
    n, alpha = 100, 0.8
    prob = gen_matrix_completion_scenario(n, 1, alpha, 0.2, 1.0, 124)
    N = prob.Y - prob.L_star
    hidden = np.mean(np.abs(N) > 0.2)
    sd = np.sqrt(alpha * (1 - alpha)) / n
    assert abs(hidden - (1 - alpha)) <= 3 * sd
    assert symmetry_gap(N[np.abs(N) > 0.2]) <= 0.05


def test_regression_instance_stream_isolation():
    sig = SignalSpec(k=3, magnitude=2.0)
    a = make_regression_instance(
        50, 10, sig, NoiseSpec(family="symmetric_mixture", alpha=0.9), 125
    )
    b = make_regression_instance(
        50, 10, sig, NoiseSpec(family="symmetric_mixture", alpha=0.3), 125
    )
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.beta_star, b.beta_star)
    assert not np.array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.y - a.X @ a.beta_star, a.y - a.X @ a.beta_star)


def test_regression_instance_default_sigma_is_bitwise_identity():
    sig, noise = SignalSpec(k=3), NoiseSpec(family="symmetric_mixture", alpha=0.5)
    a = make_regression_instance(300, 40, sig, noise, 130)
    b = make_regression_instance(300, 40, sig, noise, 130, sigma=np.eye(40))
    for u, v in [(a.X, b.X), (a.y, b.y), (a.beta_star, b.beta_star)]:
        np.testing.assert_array_equal(u.view(np.uint64), v.view(np.uint64))


def test_gaussian_design_instance_noise_independent_of_design():
    prob = make_gaussian_design_instance(60, 8, SignalSpec(k=2), 0.5, 126)
    eta = prob.y - prob.X @ prob.beta_star
    inliers = np.abs(eta) <= 1.0
    assert int(np.sum(inliers)) == 30
    np.testing.assert_array_equal(eta[~inliers], gen_deterministic_outlier_noise(60, 0.5, 126)[~inliers])


def test_pca_instance_box_placement():
    noise = NoiseSpec(family="symmetric_mixture", alpha=0.9, zeta=1.0)
    prob = make_pca_instance(16, 2, noise, 1.0, 127, l_scale=0.5)
    assert np.all(np.abs(prob.L_star) == 0.5)
    assert prob.rho_over_n == 1.0
    with pytest.raises(ValueError):
        make_pca_instance(16, 2, noise, 1.0, 127, l_scale=1.5)
    lb = NoiseSpec(family="lb_geometric_even", alpha=1.0)  # no xi gives inlier rate 1
    with pytest.raises(ValueError):
        make_pca_instance(16, 1, lb, 1.0, 127)


def test_instances_deterministic():
    sig = SignalSpec(k=2)
    noise = NoiseSpec(family="symmetric_mixture", alpha=0.5)
    a = make_regression_instance(30, 6, sig, noise, 128)
    b = make_regression_instance(30, 6, sig, noise, 128)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)

    pa = make_pca_instance(12, 1, noise, 1.0, 129)
    pb = make_pca_instance(12, 1, noise, 1.0, 129)
    np.testing.assert_array_equal(pa.Y, pb.Y)


# ---------------------------------------------------------------------------
# seeding


def test_trial_seed_stable_and_spread():
    assert trial_seed(7, 3, 5) == trial_seed(7, 3, 5)
    seeds = {trial_seed(7, p, t) for p in range(20) for t in range(50)}
    assert len(seeds) == 20 * 50
    assert all(0 <= s < 2**64 for s in seeds)


def test_stream_rng_rejects_bad_seed():
    with pytest.raises(ValueError):
        stream_rng(-1)
    with pytest.raises(ValueError):
        stream_rng(2**64)
