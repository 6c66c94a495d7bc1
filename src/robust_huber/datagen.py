"""Deterministic synthetic data: designs, sparse signals, noise families, and
full problem instances.

Every generator is a pure function of its parameters and a 64-bit seed.
Independent streams (design, signal, noise, per-trial) are derived from the
seed through numpy SeedSequence keys, so parallel trial execution cannot
change any draw.

Each instance maker has a check_* of the same arguments but the seed, which
raises where the maker would, before any draw, and draws nothing itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .estimators import PcaProblem, RegressionProblem, _check_regression_d

__all__ = [
    "NOISE_FAMILIES",
    "NoiseSpec",
    "SignalSpec",
    "stream_rng",
    "gen_gaussian_design",
    "gen_sparse_signal",
    "gen_oblivious_noise_vector",
    "gen_deterministic_outlier_noise",
    "gen_flat_lowrank",
    "gen_lb_noise",
    "lb_noise_params",
    "lb_alpha_of_xi",
    "lb_xi_of_alpha",
    "gen_matrix_completion_scenario",
    "make_regression_instance",
    "make_gaussian_design_instance",
    "make_pca_instance",
    "check_regression_instance",
    "check_gaussian_design_instance",
    "check_pca_instance",
    "check_matrix_completion_scenario",
    "trial_seed",
]

# the entrywise laws gen_oblivious_noise_vector draws; lb_geometric_even is a
# law of the whole n x n noise matrix, which only make_pca_instance draws
VECTOR_NOISE_FAMILIES = ("symmetric_mixture", "gaussian", "deterministic_sparse_outliers")
NOISE_FAMILIES = (*VECTOR_NOISE_FAMILIES, "lb_geometric_even")

HIDDEN_SCALE = 1000.0  # a completion scenario's hidden entries are +-HIDDEN_SCALE*rho/n

# stream tags keep the draw order of one generator independent of the others
_DESIGN, _SIGNAL, _NOISE, _LOWRANK, _MASK = 11, 13, 17, 19, 23


def stream_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key...); schedule-invariant."""
    if not (0 <= int(seed) < 2**64):
        raise ValueError("seed must be an unsigned 64-bit integer")
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def trial_seed(seed: int, point: int, trial: int) -> int:
    """Scalar instance seed for one (grid point, trial) cell.

    Stable under scheduling and worker count, so serial and parallel batch
    runs generate identical instances.
    """
    ss = np.random.SeedSequence([int(seed), int(point), int(trial)])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class NoiseSpec:
    """Entrywise noise law.

    alpha is the inlier probability: P(|entry| <= zeta) >= alpha for every
    family.  outlier_scale only matters for symmetric_mixture.  The
    lb_geometric_even law's shape xi follows from alpha and the instance's
    (n, r) (lb_xi_of_alpha), so make_pca_instance derives it.
    """

    family: str
    alpha: float
    zeta: float = 1.0
    outlier_scale: float = 100.0

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"noise_family must be one of {sorted(NOISE_FAMILIES)}, "
                             f"got {self.family!r}")
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")
        if not (np.isfinite(self.zeta) and self.zeta >= 0):
            raise ValueError("zeta must be >= 0")
        if not (np.isfinite(self.outlier_scale) and self.outlier_scale > 0):
            raise ValueError("outlier_scale must be positive")


@dataclass(frozen=True)
class SignalSpec:
    """k-sparse signal with entries of fixed magnitude and random sign."""

    k: int
    magnitude: float = 1.0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (np.isfinite(self.magnitude) and self.magnitude > 0):
            raise ValueError("magnitude must be positive")


def gen_gaussian_design(n: int, d: int, sigma, seed: int) -> np.ndarray:
    """Rows i.i.d. N(0, sigma); sigma must be symmetric positive definite.

    sigma=None means the identity covariance: the standard-normal draw is
    returned as is, the same bits that sigma=np.eye(d) gives.
    """
    if sigma is None:
        return stream_rng(seed, _DESIGN).standard_normal((n, d))
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (d, d):
        raise ValueError(f"sigma must be {d}x{d}")
    if not np.allclose(sigma, sigma.T, atol=1e-10):
        raise ValueError("sigma must be symmetric")
    chol = np.linalg.cholesky(sigma)  # LinAlgError on non-PD input
    rng = stream_rng(seed, _DESIGN)
    return rng.standard_normal((n, d)) @ chol.T


def gen_sparse_signal(d: int, spec: SignalSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random support of size k, entries +-magnitude; returns (beta, support)."""
    _check_signal(d, spec)
    rng = stream_rng(seed, _SIGNAL)
    support = np.sort(rng.choice(d, size=spec.k, replace=False))
    beta = np.zeros(d)
    beta[support] = spec.magnitude * (2 * rng.integers(0, 2, size=spec.k) - 1)
    return beta, support


def _check_signal(d: int, spec: SignalSpec) -> None:
    if spec.k > d:
        raise ValueError("k cannot exceed d")


def _mixture_noise(shape, spec: NoiseSpec, rng) -> np.ndarray:
    inlier = rng.uniform(-spec.zeta, spec.zeta, size=shape)
    heavy = (
        spec.outlier_scale
        * np.abs(rng.standard_cauchy(size=shape))
        * (2 * rng.integers(0, 2, size=shape) - 1)
    )
    mask = rng.random(size=shape) < spec.alpha
    return np.where(mask, inlier, heavy)


def _gaussian_noise(shape, spec: NoiseSpec, rng) -> np.ndarray:
    if spec.alpha >= 1.0:
        return np.zeros(shape)
    # imported here: only this family needs scipy, whose import takes ~0.3 s
    from scipy.special import ndtri

    sigma = spec.zeta / ndtri((1 + spec.alpha) / 2)
    return rng.normal(0.0, sigma, size=shape)


def gen_oblivious_noise_vector(n: int, spec: NoiseSpec, seed: int) -> np.ndarray:
    """Length-n noise draw from a symmetric family with P(|entry|<=zeta) >= alpha."""
    _check_noise_vector(n, spec)
    rng = stream_rng(seed, _NOISE)
    if spec.family == "symmetric_mixture":
        return _mixture_noise(n, spec, rng)
    if spec.family == "gaussian":
        return _gaussian_noise(n, spec, rng)
    return gen_deterministic_outlier_noise(n, spec.alpha, seed)


def _check_noise_vector(n: int, spec: NoiseSpec) -> None:
    if spec.family not in VECTOR_NOISE_FAMILIES:
        raise ValueError(f"noise_family must be one of {sorted(VECTOR_NOISE_FAMILIES)}, "
                         f"got {spec.family!r}")
    if spec.family == "gaussian" and spec.alpha < 1 and spec.zeta <= 0:
        raise ValueError("gaussian family needs zeta > 0 when alpha < 1")
    if spec.family == "deterministic_sparse_outliers" and np.floor(spec.alpha * n) < 1:
        raise ValueError("alpha*n must be >= 1 so at least one inlier exists")


def _outliers(alpha: float) -> NoiseSpec:
    return NoiseSpec(family="deterministic_sparse_outliers", alpha=alpha)


OUTLIER_MAGNITUDE = 1e6


def gen_deterministic_outlier_noise(n: int, alpha: float, seed: int) -> np.ndarray:
    """floor(alpha*n) entries uniform on [-1,1], the rest +-1e6.

    Positions and signs are a pure function of the seed; callers must use a
    seed stream distinct from the design stream (make_gaussian_design_instance
    enforces this split).
    """
    _check_noise_vector(n, _outliers(alpha))
    n_in = int(np.floor(alpha * n))
    rng = stream_rng(seed, _NOISE, 2)
    positions = rng.choice(n, size=n_in, replace=False)
    eta = OUTLIER_MAGNITUDE * (2.0 * rng.integers(0, 2, size=n) - 1.0)
    eta[positions] = rng.uniform(-1.0, 1.0, size=n_in)
    return eta


def gen_flat_lowrank(n: int, r: int, rho_over_n: float, seed: int) -> np.ndarray:
    """Rank <= r matrix with every entry exactly +-rho_over_n.

    Built as sum_k u_k v_k^T where u_k is a +-1 indicator of the k-th row
    block (sizes floor(n/r) or ceil(n/r)) and v_k is uniform on {+-1}^n.
    """
    _check_lowrank(n, r, rho_over_n)
    rng = stream_rng(seed, _LOWRANK)
    sizes = [n // r + (1 if i < n % r else 0) for i in range(r)]
    L = np.zeros((n, n))
    row = 0
    for size in sizes:
        u = 2.0 * rng.integers(0, 2, size=size) - 1.0
        v = 2.0 * rng.integers(0, 2, size=n) - 1.0
        L[row : row + size, :] = np.outer(u, v)
        row += size
    return rho_over_n * L


def _check_lowrank(n: int, r: int, rho_over_n: float) -> None:
    if not (1 <= r <= n):
        raise ValueError("need 1 <= r <= n")
    if not (np.isfinite(rho_over_n) and rho_over_n > 0):
        raise ValueError("rho_over_n must be positive")


def lb_noise_params(n: int, r: int, xi: float) -> tuple[float, float]:
    """(a, q) of the even-geometric law P[N=0]=a, P[N=+-2m]=a q^m.

    Valid whenever 0 < xi*sqrt(r) <= sqrt(n); the regime of the impossibility
    statement additionally has xi <= 1/2.
    """
    root = xi * np.sqrt(r)
    if not (0 < root <= np.sqrt(n)):
        raise ValueError("xi*sqrt(r) must lie in (0, sqrt(n)]")
    a = root / (2 * np.sqrt(n) - root)
    q = 1.0 - root / np.sqrt(n)
    return float(a), float(q)


def lb_alpha_of_xi(n: int, r: int, xi: float) -> float:
    """Inlier rate a = xi*sqrt(r) / (2*sqrt(n) - xi*sqrt(r))."""
    a, _ = lb_noise_params(n, r, xi)
    return a


def lb_xi_of_alpha(n: int, r: int, alpha: float) -> float:
    """Inverse map; every alpha in (0, 1) is realizable."""
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1) to be realizable by some xi")
    xi = 2.0 * alpha * np.sqrt(n) / ((1.0 + alpha) * np.sqrt(r))
    lb_noise_params(n, r, xi)
    return float(xi)


def gen_lb_noise(n: int, r: int, xi: float, seed: int) -> np.ndarray:
    """n x n noise with the even-geometric law; P[N=0] = a = the inlier rate."""
    a, q = lb_noise_params(n, r, xi)
    rng = stream_rng(seed, _NOISE, 3)
    zero_mask = rng.random((n, n)) < a
    magnitudes = 2.0 * rng.geometric(1.0 - q, size=(n, n)) if q > 0 else np.full((n, n), 2.0)
    signs = 2.0 * rng.integers(0, 2, size=(n, n)) - 1.0
    return np.where(zero_mask, 0.0, signs * magnitudes)


def gen_matrix_completion_scenario(
    n: int, r: int, alpha: float, zeta: float, rho_over_n: float, seed: int
) -> PcaProblem:
    """Observed entries carry uniform noise, hidden entries a fixed huge value.

    Hidden entries (probability 1-alpha) are +-HIDDEN_SCALE*rho/n with random
    sign, so they behave as oblivious outliers of known magnitude.
    """
    check_matrix_completion_scenario(n, r, alpha, zeta, rho_over_n)
    hidden_magnitude = HIDDEN_SCALE * rho_over_n
    L = gen_flat_lowrank(n, r, rho_over_n, seed)
    rng = stream_rng(seed, _MASK)
    observed = rng.random((n, n)) < alpha
    inlier = rng.uniform(-zeta, zeta, size=(n, n))
    signs = 2.0 * rng.integers(0, 2, size=(n, n)) - 1.0
    N = np.where(observed, inlier, hidden_magnitude * signs)
    return PcaProblem(Y=L + N, rho_over_n=rho_over_n, zeta=zeta, L_star=L, r=r)


def check_matrix_completion_scenario(n: int, r: int, alpha: float, zeta: float,
                                     rho_over_n: float) -> None:
    """Raise ValueError where gen_matrix_completion_scenario would; draws nothing."""
    _check_lowrank(n, r, rho_over_n)
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    if not (0 <= zeta < HIDDEN_SCALE * rho_over_n):
        raise ValueError(f"zeta must be >= 0 and below the hidden magnitude "
                         f"{HIDDEN_SCALE:g}*rho_over_n")


def make_regression_instance(
    n: int,
    d: int,
    signal: SignalSpec,
    noise: NoiseSpec,
    seed: int,
    sigma: Optional[np.ndarray] = None,
) -> RegressionProblem:
    """Gaussian design + sparse signal + entrywise noise, independent streams.

    sigma=None draws an identity-covariance design.
    """
    check_regression_instance(n, d, signal, noise)
    X = gen_gaussian_design(n, d, sigma, seed)
    beta, support = gen_sparse_signal(d, signal, seed)
    eta = gen_oblivious_noise_vector(n, noise, seed)
    return RegressionProblem(
        X=X, y=X @ beta + eta, beta_star=beta, support=support, k=signal.k
    )


def check_regression_instance(n: int, d: int, signal: SignalSpec, noise: NoiseSpec) -> None:
    """Raise ValueError where make_regression_instance, or the estimator's
    composite, would; draws nothing."""
    _check_regression_d(d)
    _check_signal(d, signal)
    _check_noise_vector(n, noise)


def make_gaussian_design_instance(
    n: int,
    d: int,
    signal: SignalSpec,
    alpha: float,
    seed: int,
    sigma: Optional[np.ndarray] = None,
) -> RegressionProblem:
    """Gaussian design with the deterministic-outlier noise vector.

    The noise positions come from a different stream than the design, which
    is the independence the recovery statement needs.
    """
    return make_regression_instance(n, d, signal, _outliers(alpha), seed, sigma=sigma)


def check_gaussian_design_instance(n: int, d: int, signal: SignalSpec, alpha: float) -> None:
    """Raise ValueError where make_gaussian_design_instance would; draws nothing."""
    check_regression_instance(n, d, signal, _outliers(alpha))


def make_pca_instance(
    n: int,
    r: int,
    noise: NoiseSpec,
    rho_over_n: float,
    seed: int,
    l_scale: float = 1.0,
) -> PcaProblem:
    """Flat low-rank truth plus entrywise noise.

    l_scale < 1 places L* strictly inside the max-norm box (entries
    +-l_scale*rho/n) while the problem keeps the box at rho/n.
    """
    check_pca_instance(n, r, noise, rho_over_n, l_scale)
    L = gen_flat_lowrank(n, r, l_scale * rho_over_n, seed)
    if noise.family == "lb_geometric_even":
        N = gen_lb_noise(n, r, lb_xi_of_alpha(n, r, noise.alpha), seed)
    else:
        N = gen_oblivious_noise_vector(n * n, noise, seed).reshape(n, n)
    return PcaProblem(Y=L + N, rho_over_n=rho_over_n, zeta=noise.zeta, L_star=L, r=r)


def check_pca_instance(n: int, r: int, noise: NoiseSpec, rho_over_n: float,
                       l_scale: float) -> None:
    """Raise ValueError where make_pca_instance would; draws nothing."""
    if not (0 < l_scale <= 1):
        raise ValueError("l_scale must lie in (0, 1]")
    _check_lowrank(n, r, l_scale * rho_over_n)
    if noise.family == "lb_geometric_even":
        lb_xi_of_alpha(n, r, noise.alpha)
    else:
        _check_noise_vector(n * n, noise)
