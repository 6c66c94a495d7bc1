"""Numerical checks for the conditions behind the recovery guarantees.

The certificate machinery measures, on a concrete instance, the five
quantities that drive the generic recovery bound for regularized M-estimators:
decomposability of the regularizer, the cone contraction constant s, the dual
norm of the loss gradient at the truth, restricted strong convexity kappa on
the expansion cone at a given radius, and the radius formula R = 4*gamma*s/kappa.

The recovery argument is written once, for both problem kinds, on the
estimator's own objective: the loss, its gradient and the linear image come
from the estimator's CompositeProblem.  `problem_kind`, the module's one
switch on the problem type, builds that composite once, with the estimator's
constants, and adds each kind's truth, regularization weight, cone and s,
curvature scale (whose root normalises the error norm E) and dual norm; the
matrix problem's box is the composite's constraint.
assemble_certificate takes that ProblemKind, the inlier rate and the seed,
and every stage of a certificate reads them; experiments.run_certificate also
solves the kind's composite.  Each cone draws its own directions: cone
samples for contraction and curvature, and random elements of its model
space and of the complement for decomposability.

All Monte-Carlo checks draw per-trial generators keyed by (seed, tag, trial),
so results do not depend on scheduling, and adding trials never flips an
earlier draw (prefix stability).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .datagen import stream_rng
from .estimators import (
    EstimatorConstants,
    PcaProblem,
    RegressionProblem,
    _support_complement,
    build_pca_composite,
    build_regression_composite,
)
# huber_loss and huber_loss_grad are unused here but stay bound: the per-layer
# tracer in perfbench/layers.py wraps verification.huber_loss and .huber_loss_grad
from .huber import huber_loss, huber_loss_grad  # noqa: F401
from .prox import dual_norm_linf, dual_norm_spectral, nuclear_norm
from .solver import DOMINATION_MARGIN, CompositeProblem, certify_against_reference

__all__ = [
    "SparseCone",
    "LowRankCone",
    "RscSamplingError",
    "check_decomposability",
    "measure_contraction",
    "measure_gradient_dual_norm",
    "gradient_bound_regression",
    "gradient_bound_pca",
    "ProblemKind",
    "problem_kind",
    "estimate_rsc",
    "check_re_property",
    "check_well_spread",
    "check_gaussian_concentration",
    "MetaCertificate",
    "assemble_certificate",
]

_T_DECOMP, _T_CONTRACT, _T_RSC, _T_RE, _T_SPREAD, _T_CONC = 31, 37, 41, 43, 47, 53

# certificate sample counts, fixed-point rounds and tolerances
TRIALS_DECOMPOSABILITY = 100
TRIALS_CONTRACTION = 400
TRIALS_RSC = 300
TRIALS_RE = 300
RADIUS_ROUNDS = 20
RADIUS_RTOL = 0.15  # kappa's radius and R agree within this: the radius is consistent
RSC_ATTEMPTS_PER_SAMPLE = 50  # estimate_rsc draws at most this many cone samples per trial


class RscSamplingError(RuntimeError):
    """No feasible cone sample found at the requested radius."""


# ---------------------------------------------------------------------------
# cone samplers for S_b(Omega_bar) = {u : ||u||_reg <= b * ||proj_bar(u)||_reg}

# b of both cones.  Each kind's contraction constant s is b times a bound on
# ||proj_bar(u)||_reg / E(u), so s reads it too and cannot disagree with the cone
CONE_EXPANSION = 4.0
# both cones' member test (and so the cone_membership flag) allows this relative
# slack, so a direction on a cone's boundary passes despite rounding in its norms
MEMBER_RTOL = 1e-6


@dataclass
class SparseCone:
    """Expansion cone of the l1 norm around a support set."""

    support: np.ndarray
    dim: int

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=int)
        if self.support.size == 0:
            raise ValueError("support must be nonempty")
        self.complement = _support_complement(self.support, self.dim)

    def reg_norm(self, u) -> float:
        return float(np.sum(np.abs(u)))

    def projection_norm(self, u) -> float:
        return float(np.sum(np.abs(np.asarray(u)[self.support])))

    def member(self, u) -> bool:
        return self.reg_norm(u) <= CONE_EXPANSION * self.projection_norm(u) * (1 + MEMBER_RTOL) + 1e-12

    def sample(self, rng) -> np.ndarray:
        u = np.zeros(self.dim)
        mode = rng.random()
        if mode < 0.1:
            u[self.support[rng.integers(self.support.size)]] = 1.0
            return u
        u[self.support] = rng.standard_normal(self.support.size)
        if self.complement.size == 0 or mode < 0.3:
            return u
        t = 1.0 if mode < 0.5 else rng.random()
        tail = rng.standard_normal(self.complement.size)
        l1_tail = np.sum(np.abs(tail))
        if l1_tail > 0:
            budget = (CONE_EXPANSION - 1.0) * self.projection_norm(u)
            u[self.complement] = tail * (t * budget / l1_tail)
        return u

    def sample_model(self, rng) -> np.ndarray:
        """A random element of the model space: standard normal on the support."""
        u = np.zeros(self.dim)
        u[self.support] = rng.standard_normal(self.support.size)
        return u

    def sample_perp(self, rng) -> np.ndarray:
        """A random element of the complement: standard normal off the support."""
        u = np.zeros(self.dim)
        u[self.complement] = rng.standard_normal(self.complement.size)
        return u


@dataclass
class LowRankCone:
    """Expansion cone of the nuclear norm around the truth's column and row
    spans U, V (from_truth), which alone fix the model space {U A V^T} and
    its complement {(I - UU^T) M (I - VV^T)} = {M - project_omega_bar(M)}."""

    col_basis: np.ndarray  # n x r, orthonormal columns: U
    row_basis: np.ndarray  # n x r, orthonormal columns: V

    def __post_init__(self):
        for name, B in (("col_basis", self.col_basis), ("row_basis", self.row_basis)):
            if not np.allclose(B.T @ B, np.eye(B.shape[1]), atol=1e-8):
                raise ValueError(f"{name} must have orthonormal columns")

    @classmethod
    def from_truth(cls, L_star, r: Optional[int] = None):
        L_star = np.asarray(L_star, dtype=float)
        U, s, Vt = np.linalg.svd(L_star)
        tol = 1e-12 * (s[0] if s.size and s[0] > 0 else 1.0)
        rank = int(np.sum(s > tol))
        if r is not None:
            rank = min(rank, r)
        if rank == 0:
            raise ValueError("L_star is numerically zero; spans undefined")
        return cls(col_basis=U[:, :rank].copy(), row_basis=Vt[:rank].T.copy())

    @property
    def rank(self) -> int:
        return self.col_basis.shape[1]

    def project_omega_bar(self, M) -> np.ndarray:
        """Remove the component with rows and columns both outside the spans."""
        M = np.asarray(M, dtype=float)
        PU_M = self.col_basis @ (self.col_basis.T @ M)
        M_PV = (M @ self.row_basis) @ self.row_basis.T
        PU_M_PV = self.col_basis @ (self.col_basis.T @ M_PV)
        return PU_M + M_PV - PU_M_PV

    def reg_norm(self, M) -> float:
        return nuclear_norm(M)

    def projection_norm(self, M) -> float:
        M = np.asarray(M, dtype=float)
        return self._omega_bar_norm(self.project_omega_bar(M), M @ self.row_basis)

    def _omega_bar_norm(self, A, W) -> float:
        """||A||_* for an A whose columns lie in span[U, W], W n x r: for
        A = project_omega_bar(M), W = M V.

        A has rank <= 2r, so with Q the orthonormal factor of [U, W],
        ||A||_* = ||Q^T A||_*: the SVD of a 2r x n matrix instead of an
        n x n one.
        """
        Q, _ = np.linalg.qr(np.hstack([self.col_basis, W]))
        return nuclear_norm(Q.T @ A)

    def member(self, M) -> bool:
        return self.reg_norm(M) <= CONE_EXPANSION * self.projection_norm(M) * (1 + MEMBER_RTOL) + 1e-9

    def sample(self, rng) -> np.ndarray:
        n = self.col_basis.shape[0]
        mode = rng.random()
        if mode < 0.1:
            # pure low-rank element of the spans themselves
            return self.sample_model(rng)
        # A = U X + (I - UU^T) Y V^T for standard Gaussian X (r x n) and
        # Y (n x r) has the law of project_omega_bar(M) = U (U^T M) +
        # (I - UU^T)(M V) V^T for a standard Gaussian n x n M, whose U^T M
        # and (I - UU^T) M V are independent; it draws 2rn normals, not n^2
        U, V = self.col_basis, self.row_basis
        A = U @ rng.standard_normal((self.rank, n))
        Y = rng.standard_normal((n, self.rank))
        A += (Y - U @ (U.T @ Y)) @ V.T
        if self.rank == n or mode < 0.3:
            return A
        B = self.sample_perp(rng)
        norm_B = nuclear_norm(B)
        if norm_B == 0:
            return A
        t = 1.0 if mode < 0.5 else rng.random()
        # triangle inequality keeps A + cB inside the cone for this c
        c = t * (CONE_EXPANSION - 1.0) * self._omega_bar_norm(A, Y) / norm_B
        return A + c * B

    def sample_model(self, rng) -> np.ndarray:
        """U G V^T for a standard Gaussian r x r G: an element of the model space."""
        return self.col_basis @ rng.standard_normal((self.rank, self.rank)) @ self.row_basis.T

    def sample_perp(self, rng) -> np.ndarray:
        """G - project_omega_bar(G) for a standard Gaussian n x n G: an element
        of the complement, whose coordinates in its bases are standard
        Gaussian.  A full-rank truth has the zero complement."""
        n = self.col_basis.shape[0]
        if self.rank == n:
            return np.zeros((n, n))
        G = rng.standard_normal((n, n))
        return G - self.project_omega_bar(G)


# ---------------------------------------------------------------------------
# condition measurements


def check_decomposability(
    reg_norm: Callable, sample_model: Callable, sample_perp: Callable, trials: int, seed: int
) -> bool:
    """Additivity ||u + v|| = ||u|| + ||v|| for u = sample_model(rng) from the
    model space and v = sample_perp(rng) from the complement space, on random
    elements of each (a cone's sample_model and sample_perp give both)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for i in range(trials):
        rng = stream_rng(seed, _T_DECOMP, i)
        u = sample_model(rng)
        v = sample_perp(rng)
        nu, nv = reg_norm(u), reg_norm(v)
        if abs(reg_norm(u + v) - nu - nv) > 1e-9 * (nu + nv) + 1e-12:
            return False
    return True


def measure_contraction(cone, error_metric: Callable, trials: int, seed: int) -> float:
    """max over sampled cone directions of ||u||_reg / E(u)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    worst = 0.0
    for i in range(trials):
        rng = stream_rng(seed, _T_CONTRACT, i)
        u = cone.sample(rng)
        reg = cone.reg_norm(u)
        e = float(error_metric(u))
        if e <= 1e-14 * max(reg, 1.0):
            raise ValueError("error metric degenerate (zero) on a sampled cone direction")
        worst = max(worst, reg / e)
    return worst


def measure_gradient_dual_norm(problem) -> float:
    """Dual norm (l-inf or spectral) of the loss gradient at the truth, for the
    estimator with default constants."""
    kind = problem_kind(problem)
    return kind.dual_norm(kind.gradient_at_truth())


def gradient_bound_regression(nu: float, n: int, d: int, delta: float) -> float:
    """High-probability bound 20*sqrt(nu*n*(log d + log(2/delta)))."""
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    return 20.0 * np.sqrt(nu * n * (np.log(d) + np.log(2.0 / delta)))


def gradient_bound_pca(h: float, n: int, delta: float) -> float:
    """High-probability bound 10*h*sqrt(n + log(2/delta))."""
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    return 10.0 * h * np.sqrt(n + np.log(2.0 / delta))


def estimate_rsc(kind: ProblemKind, cone, radius: float, trials: int, seed: int) -> float:
    """Lower-curvature ratio on the cone sphere of the given radius.

    Samples cone directions u rescaled to E(u) = radius (E is the prediction
    metric for regression, Frobenius for the matrix problem), and returns

        min_u [F(truth + u) - F(truth) - <grad F(truth), u>] / (radius^2 / 2)

    with F the smooth loss of kind's composite, read at the truth from
    kind.loss_at_truth.

    This is a one-sided (upper) estimate of the restricted strong convexity
    constant at that radius.  A sampled direction with E(u) = 0 raises
    RscSamplingError.  For the matrix problem, samples leaving the box are
    rejected; RscSamplingError is raised when fewer than trials are feasible
    among RSC_ATTEMPTS_PER_SAMPLE * trials draws.
    """
    if not (radius > 0 and np.isfinite(radius)):
        raise ValueError("radius must be positive and finite")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    a0, f0, d0 = kind.loss_at_truth
    box = kind.composite.constraint  # the matrix problem's max-norm ball; None for regression
    worst = np.inf
    found = 0
    i = 0
    while found < trials and i < RSC_ATTEMPTS_PER_SAMPLE * trials:
        rng = stream_rng(seed, _T_RSC, i)
        i += 1
        # v = image of u, scaled to E(u) = radius; the loss sees truth + u as a0 + v
        v = kind.composite.image(cone.sample(rng))
        e = float(np.linalg.norm(v)) / kind.scale
        if e <= 1e-14:
            raise RscSamplingError("sampled cone direction u with E(u) = 0")
        v *= radius / e
        if box is not None and not box.contains(kind.truth + v):
            continue
        found += 1
        bracket = kind.composite.smooth_eval(a0 + v)[0] - f0 - float(np.vdot(d0, v))
        worst = min(worst, bracket / (0.5 * radius * radius))
    if found < trials:
        raise RscSamplingError(
            f"only {found}/{trials} feasible cone samples at radius {radius:.6g}"
        )
    return float(worst)


# ---------------------------------------------------------------------------
# design-structure checkers (restricted eigenvalue, well-spreadness,
# concentration for correlated Gaussian designs)

RE_CONE_FRACTION = 0.1  # membership: ||u_S||_1 >= 0.1 * ||u||_1


def _re_cone_sample(support, complement, rng):
    d = support.size + complement.size
    u = np.zeros(d)
    u[support] = rng.standard_normal(support.size)
    if complement.size:
        tail = rng.standard_normal(complement.size)
        l1_tail = np.sum(np.abs(tail))
        if l1_tail > 0:
            t = rng.random()
            # the cone's boundary: ||u_S||_1 = RE_CONE_FRACTION * ||u||_1
            budget = (1 / RE_CONE_FRACTION - 1) * np.sum(np.abs(u[support]))
            u[complement] = tail * (t * budget / l1_tail)
    return u


def check_re_property(
    X, support, trials: int, seed: int, exact: bool = False
) -> float:
    """Smallest sampled value of ||Xu||^2 / (n ||u||^2) over the sparse cone.

    The first |S| samples are deterministically the coordinate directions of
    the support, so the estimate can only decrease as trials grow.  With
    exact=True and d <= 12, all {-1,0,1} sign patterns inside the cone are
    enumerated as well.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    support = np.asarray(support, dtype=int)
    if support.size == 0:
        raise ValueError("support must be nonempty")
    complement = _support_complement(support, d)
    lam = np.inf
    for j in range(min(trials, support.size)):
        col = X[:, support[j]]
        lam = min(lam, float(np.dot(col, col)) / n)
    for i in range(max(0, trials - support.size)):
        rng = stream_rng(seed, _T_RE, i)
        u = _re_cone_sample(support, complement, rng)
        nu = float(np.dot(u, u))
        if nu <= 0:
            continue
        v = X @ u
        lam = min(lam, float(np.dot(v, v)) / (n * nu))
    if exact:
        if d > 12:
            raise ValueError("exact enumeration supported only for d <= 12")
        G = X.T @ X / n
        for pattern in itertools.product((-1.0, 0.0, 1.0), repeat=d):
            u = np.array(pattern)
            l1 = np.sum(np.abs(u))
            if l1 == 0:
                continue
            if np.sum(np.abs(u[support])) < RE_CONE_FRACTION * l1:
                continue
            lam = min(lam, float(u @ G @ u) / float(u @ u))
    return float(lam)


def check_well_spread(X, support, m: int, trials: int, seed: int) -> bool:
    """Whether sparse-cone image vectors keep half their norm after deleting
    their m largest-magnitude coordinates."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if not (0 <= m < n):
        raise ValueError("need 0 <= m < n")
    support = np.asarray(support, dtype=int)
    complement = _support_complement(support, d)
    for i in range(trials):
        rng = stream_rng(seed, _T_SPREAD, i)
        u = _re_cone_sample(support, complement, rng)
        v = X @ u
        total = float(np.dot(v, v))
        if total <= 0:
            return False
        if m:
            biggest = np.sort(v * v)[-m:]
            kept = total - float(np.sum(biggest))
        else:
            kept = total
        if np.sqrt(max(kept, 0.0)) < 0.5 * np.sqrt(total) - 1e-12 * np.sqrt(total):
            return False
    return True


def check_gaussian_concentration(
    X, sigma, sparsity: int, trials: int, seed: int
) -> bool:
    """Two-sided sandwich (1/2)||S u|| <= ||Xu||/sqrt(n) <= 2||S u|| with
    S = sigma^{1/2}, over approximately-sparse directions ||u||_1 <= sqrt(K)||u||.

    Includes, ahead of the random draws, the least-singular directions of a
    few random column submatrices, which are the natural worst cases.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    sigma = np.asarray(sigma, dtype=float)
    w, Q = np.linalg.eigh(sigma)
    if np.min(w) <= 0:
        raise ValueError("sigma must be positive definite")
    sqrt_sigma = (Q * np.sqrt(w)) @ Q.T
    K = int(sparsity)
    if not (1 <= K <= d):
        raise ValueError("sparsity must lie in [1, d]")

    def ok(u):
        num = float(np.linalg.norm(X @ u)) / np.sqrt(n)
        den = float(np.linalg.norm(sqrt_sigma @ u))
        if den == 0:
            return True
        return 0.5 * den <= num <= 2.0 * den

    probe_rng = stream_rng(seed, _T_CONC, 0)
    for _ in range(min(8, trials)):
        T = np.sort(probe_rng.choice(d, size=min(K, d), replace=False))
        _, _, Vt = np.linalg.svd(X[:, T], full_matrices=False)
        u = np.zeros(d)
        u[T] = Vt[-1]
        if not ok(u):
            return False
    for i in range(trials):
        rng = stream_rng(seed, _T_CONC, i + 1)
        size = int(rng.integers(1, K + 1))
        T = rng.choice(d, size=size, replace=False)
        u = np.zeros(d)
        u[T] = rng.standard_normal(size)
        if not ok(u):
            return False
    return True


# ---------------------------------------------------------------------------
# certificate


CONDITION_NAMES = (
    "decomposability",
    "contraction",
    "gradient_bound",
    "restricted_convexity",
    "radius_bound",
)


@dataclass
class MetaCertificate:
    gamma_measured: float
    s: float
    kappa: float
    R: float
    conditions: dict
    radius_formula_ok: bool
    # diagnostics
    kappa_radius: float
    rsc_vacuous: bool
    lambda_hat: Optional[float]
    contraction_measured: float
    cone_membership_ok: bool
    error_value: float
    error_lt_radius: bool
    gamma_est: float
    radius_est: float
    dominated_est: bool
    dominated_meas: bool

    def all_conditions(self) -> bool:
        return all(self.conditions[name] for name in CONDITION_NAMES)

    def to_report(self) -> str:
        """One `name = value` line per field: the condition_* lines, then every
        measured value that is not None sorted by name, then every flag (a
        bool field) in declaration order."""
        lines = [f"condition_{name} = {int(self.conditions[name])}" for name in CONDITION_NAMES]
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "conditions"}
        measured = {k: v for k, v in values.items() if v is not None and not isinstance(v, bool)}
        lines += [f"{key} = {measured[key]:.17g}" for key in sorted(measured)]
        lines += [f"{key} = {int(v)}" for key, v in values.items() if isinstance(v, bool)]
        return "\n".join(lines) + "\n"


class _Geometry(NamedTuple):
    """The cone around one truth, and the radii the matrix problem's box allows."""

    cone: object  # SparseCone or LowRankCone
    s: float  # contraction constant: sup over the cone of ||u||_reg / E(u)
    lambda_hat: Optional[float]  # sampled restricted eigenvalue (regression)
    radius_cap: float = np.inf  # largest radius with feasible cone samples
    feasible_diameter: float = np.inf  # beyond it the cone shell leaves the box


@dataclass(frozen=True)
class ProblemKind:
    """What the recovery argument needs from one problem kind (problem_kind)."""

    truth: np.ndarray | None  # None when the problem carries no truth
    composite: CompositeProblem  # the estimator's objective: its loss, image and adjoint
    gamma: float  # the estimator's regularization weight
    dual_norm: Callable  # dual of the regularizer norm: l-inf, or spectral
    kappa_scale: float  # curvature in the quadratic regime: n, or 1
    geometry: Callable  # seed -> _Geometry; needs the truth

    @property
    def scale(self) -> float:  # E(u) = ||image(u)|| / scale: sqrt(n), or 1
        return np.sqrt(self.kappa_scale)

    @cached_property
    def loss_at_truth(self):
        """(a0, f0, d0): the truth's image, the loss there and its gradient in
        the image, evaluated once per kind.  Every stage shares these arrays,
        so none may write to them."""
        if self.truth is None:
            raise ValueError("problem carries no truth")
        a0 = self.composite.image(self.truth)
        f0, d0 = self.composite.smooth_eval(a0)
        return a0, f0, d0

    def gradient_at_truth(self) -> np.ndarray:
        """Gradient of the estimator's smooth loss at the truth; with the
        identity adjoint (matrix problem) it is loss_at_truth's d0 itself."""
        return self.composite.adjoint(self.loss_at_truth[2])

    def error(self, u) -> float:
        """The error norm E(u): ||X u|| / sqrt(n), or ||u||_F."""
        return float(np.linalg.norm(self.composite.image(u))) / self.scale


def problem_kind(problem, constants: EstimatorConstants = EstimatorConstants()) -> ProblemKind:
    """The ingredients of problem's kind: the module's one switch on it.  The
    composite is the estimator's, built once with constants, which are also
    the only way to set its Huber width."""
    match problem:
        case RegressionProblem():
            X = problem.X

            def regression_geometry(seed):
                if problem.beta_star is None:
                    raise ValueError("certificate requires ground truth")
                lambda_hat = check_re_property(X, problem.support, TRIALS_RE, seed)
                s = CONE_EXPANSION * np.sqrt(problem.k / lambda_hat) if lambda_hat > 0 else np.inf
                return _Geometry(SparseCone(problem.support, problem.d), s, lambda_hat)

            composite, info = build_regression_composite(problem, constants)
            return ProblemKind(
                truth=problem.beta_star,
                composite=composite,
                gamma=info["gamma"],
                dual_norm=dual_norm_linf,
                kappa_scale=float(problem.n),
                geometry=regression_geometry,
            )
        case PcaProblem():
            L_star, rho_over_n = problem.L_star, problem.rho_over_n

            def pca_geometry(seed):
                if L_star is None or problem.r is None:
                    raise ValueError("certificate requires ground truth with rank metadata")
                gap = rho_over_n - float(np.max(np.abs(L_star)))
                return _Geometry(
                    LowRankCone.from_truth(L_star, r=problem.r),
                    CONE_EXPANSION * np.sqrt(2.0 * problem.r),
                    None,
                    radius_cap=0.8 * gap * problem.n / 4.5 if gap > 0 else 0.0,
                    # largest Frobenius distance reachable inside the box from
                    # L_star; beyond it the curvature condition is vacuous
                    feasible_diameter=float(np.linalg.norm(rho_over_n + np.abs(L_star))),
                )

            composite, info = build_pca_composite(problem, constants)
            return ProblemKind(
                truth=L_star,
                composite=composite,
                gamma=info["gamma"],
                dual_norm=dual_norm_spectral,
                kappa_scale=1.0,
                geometry=pca_geometry,
            )
    raise TypeError(f"unsupported problem type {type(problem)!r}")


def _radius_fixed_point(kind, geometry, gamma, seed):
    """Iterate R -> 4*gamma*s/kappa(R) with geometric damping, R <= radius_cap.

    The iteration starts from the quadratic-regime curvature kind.kappa_scale
    (n for regression, 1 for the matrix problem), so at the smallest plausible
    radius, and grows only if the measured curvature is weaker.  Returns
    (kappa, kappa_radius, R, consistent): kappa is measured at kappa_radius,
    R is exactly 4*gamma*s/kappa, and consistent means the two radii agree
    within RADIUS_RTOL (the curvature was checked essentially at R).
    """
    cone, s, radius_cap = geometry.cone, geometry.s, geometry.radius_cap
    quick_trials = max(40, TRIALS_RSC // 4)
    R_cur = min(4.0 * gamma * s / kind.kappa_scale, radius_cap)
    if not np.isfinite(R_cur) or R_cur <= 0:
        # zero gradient at the truth collapses the radius to zero; an infinite
        # contraction constant makes it unbounded.  Report curvature at a
        # nominal radius instead of iterating.
        nominal = min(1e-3, radius_cap)
        kappa = estimate_rsc(kind, cone, nominal, TRIALS_RSC, seed)
        if R_cur <= 0 and kappa > 0:
            return kappa, nominal, 0.0, True
        return kappa, nominal, np.inf, False
    kappa = None
    for _ in range(RADIUS_ROUNDS):
        kappa = estimate_rsc(kind, cone, R_cur, quick_trials, seed)
        if kappa <= 0:
            return kappa, R_cur, np.inf, False
        R_next = min(4.0 * gamma * s / kappa, radius_cap)
        if abs(R_next - R_cur) <= 0.02 * R_cur:
            R_cur = R_next
            break
        R_cur = float(np.sqrt(R_cur * R_next))
    kappa = estimate_rsc(kind, cone, R_cur, TRIALS_RSC, seed)
    if kappa <= 0:
        return kappa, R_cur, np.inf, False
    R = 4.0 * gamma * s / kappa
    consistent = abs(R - R_cur) <= RADIUS_RTOL * max(R, 1e-30)
    return kappa, R_cur, R, consistent


def assemble_certificate(
    kind: ProblemKind, estimate, alpha: float, seed: int = 0
) -> MetaCertificate:
    """Measure every condition of the recovery bound on one solved instance,
    given its ProblemKind (problem_kind(problem, constants), built with the
    estimator's constants; the estimate may be a solve of kind.composite).

    alpha is the inlier rate of the noise law, in (0, 1]; the
    restricted-convexity flag compares the measured kappa against
    0.01*alpha*n (regression) or 0.01*alpha (matrix problem).  seed keys
    every Monte-Carlo check.  Sample counts and tolerances are the module
    constants TRIALS_* and RADIUS_*, and the domination checks' slack is
    solver.DOMINATION_MARGIN.

    gamma_measured is twice the dual norm of the loss gradient at the truth;
    R = 4*gamma_measured*s/kappa with all quantities measured.  The
    gradient-bound flag checks that the estimator's regularization weight
    dominates gamma_measured, which is the form of the condition the computed
    estimate actually relies on; radius_est = 4*gamma_est*s/kappa is the
    radius certified for that weight.  For the matrix problem a radius beyond
    the box's feasible diameter leaves the curvature condition vacuous
    (rsc_vacuous), and the radius bound then holds without consistency.
    """
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    geo = kind.geometry(seed)
    if geo.radius_cap <= 0:
        raise RscSamplingError("truth sits on the box boundary; no feasible cone samples exist")
    cone, s, truth, composite = geo.cone, geo.s, kind.truth, kind.composite
    gamma_est = kind.gamma

    gamma_measured = 2.0 * kind.dual_norm(kind.gradient_at_truth())
    decomp = check_decomposability(
        cone.reg_norm, cone.sample_model, cone.sample_perp, TRIALS_DECOMPOSABILITY, seed
    )
    contraction_measured = measure_contraction(cone, kind.error, TRIALS_CONTRACTION, seed)
    kappa, kappa_radius, R, consistent = _radius_fixed_point(kind, geo, gamma_measured, seed)
    radius_formula_ok = bool(kappa > 0 and np.isfinite(R))
    rsc_vacuous = bool(radius_formula_ok and R > geo.feasible_diameter)

    conditions = {
        "decomposability": bool(decomp),
        "contraction": bool(np.isfinite(s) and contraction_measured <= s * (1 + 1e-9)),
        "gradient_bound": bool(gamma_measured <= gamma_est * (1 + 1e-12)),
        "restricted_convexity": bool(kappa >= 0.01 * alpha * kind.kappa_scale),
        "radius_bound": bool(radius_formula_ok and (consistent or rsc_vacuous)),
    }

    point = np.asarray(estimate, dtype=float)
    delta_hat = point - truth
    err = kind.error(delta_hat)

    # the objective with the measured weight, at the estimate and at the truth
    f_hat = composite.smooth_eval(composite.image(point))[0]
    meas_hat = f_hat + gamma_measured * cone.reg_norm(point)
    meas_truth = kind.loss_at_truth[1] + gamma_measured * cone.reg_norm(truth)

    return MetaCertificate(
        gamma_measured=gamma_measured,
        s=s,
        kappa=kappa,
        R=R,
        conditions=conditions,
        radius_formula_ok=radius_formula_ok,
        kappa_radius=kappa_radius,
        rsc_vacuous=rsc_vacuous,
        lambda_hat=geo.lambda_hat,
        contraction_measured=contraction_measured,
        cone_membership_ok=bool(cone.member(delta_hat)),
        error_value=err,
        error_lt_radius=bool(err < R),
        gamma_est=gamma_est,
        radius_est=4.0 * gamma_est * s / kappa if kappa > 0 else np.inf,
        dominated_est=certify_against_reference(composite, estimate, truth),
        dominated_meas=bool(meas_hat <= meas_truth + DOMINATION_MARGIN),
    )
