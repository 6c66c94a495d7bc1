"""Huber-loss estimators: l1-penalized sparse regression and box-constrained
nuclear-penalized low-rank recovery, plus the error metrics used throughout.

Regression solves

    min_beta  sum_i f_2(y_i - <x_i, beta>) + gamma * ||beta||_1,
    gamma = gamma_scale * sqrt(n * log d),

and the matrix problem solves

    min_{||L||_max <= rho/n}  sum_ij f_h((Y - L)_ij) + gamma * ||L||_nuc,
    h = zeta + rho/n,  gamma = gamma_scale * sqrt(n) * (zeta + rho/n).

gamma_scale defaults to 100; experiment configs record the value they use.
The regression solve's first step, and the step of its stopping test, is
1/L with L = sigma_1(X)^2, taken as the largest eigenvalue of the smaller
Gram matrix (X^T X, or X X^T for a wide design); FISTA's step grows from
there.

Both composites have the form f(x) = loss(A x) of solver.CompositeProblem.
The regression image is beta -> X beta and its adjoint D -> D X, so that a
FISTA iteration reads X twice: once for the candidate's image and once for
the two-row adjoint product.  The regression composite also carries the
Newton step on the active set that solve_fista tries once the signs of the
iterate hold (_active_set_newton): it reads the columns of the support on
the rows in the Huber quadratic zone and solves one |S| x |S| system.  The
matrix problem's maps are the identity, and it has no Newton step.
Each smooth evaluation takes the Huber value and gradient from one clip
(huber.huber_loss_and_grad).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# huber_loss and huber_loss_grad are unused here but stay bound: the per-layer
# tracer in perfbench/layers.py wraps estimators.huber_loss and .huber_loss_grad
from .huber import HuberParams, huber_loss, huber_loss_and_grad, huber_loss_grad  # noqa: F401
from .prox import MaxNormBall, nuclear_norm, prox_l1, prox_nuclear, project_maxnorm
from .solver import (
    CompositeProblem,
    SolveResult,
    SolverConfig,
    certify_against_reference,
    solve_fista,
    solve_split,
)

__all__ = [
    "RegressionProblem",
    "PcaProblem",
    "EstimatorConstants",
    "build_regression_composite",
    "build_pca_composite",
    "estimate_sparse_regression",
    "estimate_pca",
    "prediction_error",
    "parameter_error",
    "frobenius_error",
]

REGRESSION_HUBER_H = 2.0


@dataclass
class RegressionProblem:
    """Design X (n x d), response y, optional ground truth and design metadata."""

    X: np.ndarray
    y: np.ndarray
    beta_star: Optional[np.ndarray] = None
    support: Optional[np.ndarray] = None
    k: Optional[int] = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2:
            raise ValueError(f"X must be 2-d, got shape {self.X.shape}")
        n, d = self.X.shape
        if self.y.shape != (n,):
            raise ValueError(f"y must have shape ({n},), got {self.y.shape}")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("X must be finite")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("y must be finite")
        if self.beta_star is not None:
            self.beta_star = np.asarray(self.beta_star, dtype=float)
            if self.beta_star.shape != (d,):
                raise ValueError("beta_star must have shape (d,)")
            if self.support is None:
                self.support = np.flatnonzero(self.beta_star)
            self.support = np.asarray(self.support, dtype=int)
            if np.any(self.beta_star[_support_complement(self.support, d)] != 0):
                raise ValueError("beta_star has mass outside the declared support")
            if self.k is None:
                self.k = int(self.support.size)
            if self.k != self.support.size:
                raise ValueError("k inconsistent with support size")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def default_huber_h(self) -> float:
        return REGRESSION_HUBER_H

    def column_norm_bound(self) -> float:
        """nu with max_j ||X_j||^2 <= nu * n."""
        return float(np.max(np.sum(self.X * self.X, axis=0)) / self.n)


@dataclass
class PcaProblem:
    """Observation Y = L* + N (n x n), box level rho/n, inlier width zeta."""

    Y: np.ndarray
    rho_over_n: float
    zeta: float
    L_star: Optional[np.ndarray] = None
    r: Optional[int] = None

    def __post_init__(self):
        self.Y = np.asarray(self.Y, dtype=float)
        if self.Y.ndim != 2 or self.Y.shape[0] != self.Y.shape[1]:
            raise ValueError(f"Y must be square, got shape {self.Y.shape}")
        if not np.all(np.isfinite(self.Y)):
            raise ValueError("Y must be finite")
        if not (np.isfinite(self.rho_over_n) and self.rho_over_n > 0):
            raise ValueError("rho_over_n must be positive")
        if not (np.isfinite(self.zeta) and self.zeta >= 0):
            raise ValueError("zeta must be >= 0")
        if self.L_star is not None:
            self.L_star = np.asarray(self.L_star, dtype=float)
            if self.L_star.shape != self.Y.shape:
                raise ValueError("L_star must match Y's shape")
            if np.max(np.abs(self.L_star)) > self.rho_over_n * (1 + 1e-12):
                raise ValueError("L_star violates the max-norm bound rho/n")
            if self.r is not None:
                s = np.linalg.svd(self.L_star, compute_uv=False)
                tol = 1e-8 * max(1.0, s[0] if s.size else 0.0)
                if int(np.sum(s > tol)) > self.r:
                    raise ValueError("L_star has rank above the declared r")

    @property
    def n(self) -> int:
        return self.Y.shape[0]

    @property
    def default_huber_h(self) -> float:
        """zeta + rho/n, which also scales the regularization weight."""
        return self.zeta + self.rho_over_n


@dataclass(frozen=True)
class EstimatorConstants:
    """Scale of the regularization weight and an optional Huber-width override."""

    gamma_scale: float = 100.0
    huber_h_override: Optional[float] = None

    def __post_init__(self):
        if not (np.isfinite(self.gamma_scale) and self.gamma_scale > 0):
            raise ValueError("gamma_scale must be positive")
        if self.huber_h_override is not None and not (
            np.isfinite(self.huber_h_override) and self.huber_h_override > 0
        ):
            raise ValueError("huber_h_override must be positive when set")


def _huber_value_and_neg_clip(resid, params):
    """The Huber loss of the residual obs - a and its gradient in a, -clip(resid)."""
    value, clip = huber_loss_and_grad(resid, params)
    return value, np.negative(clip, out=clip)


def _check_regression_d(d: int) -> None:
    """The regression estimator's one rule on the dimension, which
    datagen.check_regression_instance runs at load: d >= 2, since gamma
    scales with sqrt(log d)."""
    if d < 2:
        raise ValueError("regression requires d >= 2")


def _support_complement(support, d: int) -> np.ndarray:
    """The sorted indices of [0, d) outside an integer support, whose indices
    must lie in [0, d), each at most once: np.setdiff1d(np.arange(d),
    support) from a boolean mask, without the np.unique that imports
    numpy.ma."""
    support = np.asarray(support, dtype=int)
    if support.size and (support.min() < 0 or support.max() >= d):
        raise ValueError(f"support indices must lie in [0, {d})")
    in_support = np.zeros(d, dtype=bool)
    in_support[support] = True
    if np.count_nonzero(in_support) != support.size:
        raise ValueError("support has a repeated index")
    return np.flatnonzero(~in_support)


def _active_set_newton(X, h, gamma):
    """The Newton step of the regression objective on the active set of x:
    with S the support of x and Q = {i : |r_i| < h} (the residuals r in the
    Huber quadratic zone, read off the clip -d), the objective is quadratic
    in x_S while S's signs and Q hold, and its minimiser there is x_S - delta
    with (X_QS^T X_QS) delta = g_S + gamma sign(x_S), zero off S.  None where
    that system is singular, which includes |Q| < |S|."""

    def newton_step(x, d, g):
        support = np.flatnonzero(x)
        quad = np.abs(d) < h
        if support.size == 0 or np.count_nonzero(quad) < support.size:
            return None
        x_qs = X[np.ix_(quad, support)]
        try:
            delta = np.linalg.solve(x_qs.T @ x_qs, g[support] + gamma * np.sign(x[support]))
        except np.linalg.LinAlgError:
            return None
        point = np.zeros_like(x)
        point[support] = x[support] - delta
        return point

    return newton_step


def build_regression_composite(
    problem: RegressionProblem, constants: EstimatorConstants
) -> tuple[CompositeProblem, dict]:
    """Composite objective for the regression estimator plus its constants,
    with the active-set Newton step that solve_fista tries."""
    _check_regression_d(problem.d)
    X, y = problem.X, problem.y
    n, d = X.shape
    h = constants.huber_h_override or problem.default_huber_h
    params = HuberParams(h)
    gamma = constants.gamma_scale * np.sqrt(n * np.log(d))
    # f'' <= 1 entrywise, so L = sigma_1(X)^2; a min(n, d)-sized eigvalsh, no SVD of X
    gram = X.T @ X if n >= d else X @ X.T
    lipschitz = float(np.linalg.eigvalsh(gram)[-1])

    composite = CompositeProblem(
        smooth_eval=lambda a: _huber_value_and_neg_clip(y - a, params),
        prox=lambda v, t: prox_l1(v, t * gamma),
        reg_value=lambda beta: gamma * float(np.sum(np.abs(beta))),
        shape=(d,),
        lipschitz=lipschitz,
        image=lambda beta: X @ beta,
        adjoint=lambda D: D @ X,
        newton_step=_active_set_newton(X, h, gamma),
    )
    info = {"gamma": gamma, "h": h}
    return composite, info


def build_pca_composite(
    problem: PcaProblem, constants: EstimatorConstants
) -> tuple[CompositeProblem, dict]:
    """Composite objective for the matrix estimator plus its constants."""
    Y = problem.Y
    n = problem.n
    h = constants.huber_h_override or problem.default_huber_h
    params = HuberParams(h)
    gamma = constants.gamma_scale * np.sqrt(n) * problem.default_huber_h
    ball = MaxNormBall(problem.rho_over_n)

    composite = CompositeProblem(
        smooth_eval=lambda L: _huber_value_and_neg_clip(Y - L, params),
        prox=lambda M, t: prox_nuclear(M, t * gamma),
        reg_value=lambda L: gamma * nuclear_norm(L),
        shape=(n, n),
        constraint=ball,
        lipschitz=1.0,  # the Huber second derivative is at most 1
    )
    info = {"gamma": gamma, "h": h}
    return composite, info


def estimate_sparse_regression(
    problem: RegressionProblem,
    constants: EstimatorConstants = EstimatorConstants(),
    config: SolverConfig = SolverConfig(),
    composite: Optional[CompositeProblem] = None,
) -> tuple[np.ndarray, SolveResult]:
    """Solve the l1-penalized Huber regression from the zero start.  composite
    is the objective build_regression_composite(problem, constants) returns,
    passed when the caller has built it already; it is built here otherwise."""
    if composite is None:
        composite, _ = build_regression_composite(problem, constants)
    return _estimate(composite, solve_fista(composite, config, np.zeros(problem.d)),
                     problem.beta_star)


def estimate_pca(
    problem: PcaProblem,
    constants: EstimatorConstants = EstimatorConstants(),
    config: SolverConfig = SolverConfig(),
    composite: Optional[CompositeProblem] = None,
) -> tuple[np.ndarray, SolveResult]:
    """Solve the box-constrained nuclear-penalized Huber problem.  composite is
    the objective build_pca_composite(problem, constants) returns, passed when
    the caller has built it already; it is built here otherwise.

    Starts from the box projection of Y.  The splitting step starts at, and
    never exceeds, 1/lipschitz = 1 (the Huber loss of Y - L has a 1-Lipschitz
    gradient); solve_split adapts it by residual balancing, accelerates the
    splitting with a safeguarded Anderson step, stops on a residual
    normalised by the step and returns its last feasible iterate.
    """
    if composite is None:
        composite, _ = build_pca_composite(problem, constants)
    start = project_maxnorm(problem.Y, composite.constraint)
    return _estimate(composite, solve_split(composite, config, start), problem.L_star)


def _estimate(composite, result: SolveResult, truth) -> tuple[np.ndarray, SolveResult]:
    """(point, result), result.reference_dominated set against truth unless it is None."""
    if truth is not None:
        result.reference_dominated = certify_against_reference(composite, result.point, truth)
    return result.point, result


def _require_truth(value, name):
    if value is None:
        raise ValueError(f"problem carries no {name}; error metric undefined")
    return value


def prediction_error(problem: RegressionProblem, beta_hat) -> float:
    """(1/n) * ||X (beta_hat - beta_star)||^2."""
    beta_star = _require_truth(problem.beta_star, "beta_star")
    diff = np.asarray(beta_hat, dtype=float) - beta_star
    v = problem.X @ diff
    return float(np.dot(v, v) / problem.n)


def parameter_error(problem: RegressionProblem, beta_hat) -> float:
    """||beta_hat - beta_star||^2."""
    beta_star = _require_truth(problem.beta_star, "beta_star")
    diff = np.asarray(beta_hat, dtype=float) - beta_star
    return float(np.dot(diff, diff))


def frobenius_error(problem: PcaProblem, L_hat) -> float:
    """||L_hat - L_star||_F (not squared)."""
    L_star = _require_truth(problem.L_star, "L_star")
    return float(np.linalg.norm(np.asarray(L_hat, dtype=float) - L_star))
