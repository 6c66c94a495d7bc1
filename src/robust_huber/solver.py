"""First-order solvers for composite objectives smooth + regularizer (+ box).

The smooth part is a loss of a linear image, f(x) = loss(A x): a
CompositeProblem carries A as image and adjoint maps (the identity by
default) and evaluates the loss at the image.  Two routines share the
SolveResult contract:

* solve_fista: accelerated proximal gradient with backtracking line search and
  restart on objective increase. For unconstrained problems (sparse
  regression); it rejects a box.  It carries A x beside x, so an iteration
  applies A once per candidate and its adjoint once, to two rows.
* solve_split: three-operator splitting (gradient step on the smooth part,
  proximal step on the regularizer, projection onto the box). For the
  box-constrained nuclear-penalized problem. Its step adapts during the
  solve by residual balancing, a safeguarded Anderson step accelerates its
  fixed-point map, and it returns its last feasible iterate.

Both take their first step, and solve_split its largest, as 1/lipschitz from
the CompositeProblem: the step belongs to the problem, not to the config.

solve_fista terminates on the prox-gradient fixed-point residual
||x - prox(x - step*grad f(x))|| / max(1, ||x||) <= rel_tol; solve_split on
the same residual divided by its current step, so that rel_tol means the
same at every step and, at step 1, the same as for a fixed step.  Both are
fully deterministic: identical inputs and config give bit-identical iterates.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .prox import MaxNormBall, project_maxnorm

__all__ = [
    "SolverConfig",
    "CompositeProblem",
    "SolveResult",
    "SolverDiverged",
    "composite_objective",
    "solve_fista",
    "solve_split",
    "certify_against_reference",
]

BACKTRACK_FACTOR = 0.5  # solve_fista's step shrink per failed majorization
DOMINATION_MARGIN = 1e-6  # objective slack of every domination check

# Residual balancing of the splitting step (Boyd et al., Distributed
# Optimization and Statistical Learning via ADMM, 2011, sec. 3.4.1): the step
# is divided by STEP_FACTOR when the primal residual exceeds BALANCE_RATIO
# times the dual residual, and multiplied by it in the opposite case.  After
# MAX_STEP_CHANGES changes it stays fixed, so the fixed-step convergence
# guarantee of three-operator splitting applies from then on.
BALANCE_RATIO = 3.0
STEP_FACTOR = 2.0
MAX_STEP_CHANGES = 20

# The Anderson step of the splitting (type II, memory 1; Fu, Zhang & Boyd,
# arXiv:1908.11482) is kept only while the primal residual at the point it
# proposes is at most SAFEGUARD_FACTOR times the residual of the point it
# was extrapolated from (after Zhang, O'Donoghue & Boyd, arXiv:1808.03971).
SAFEGUARD_FACTOR = 2.0


class SolverDiverged(RuntimeError):
    """Raised when an iterate or objective becomes non-finite."""


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 50_000
    rel_tol: float = 1e-7

    def __post_init__(self):
        # a float such as 1e3 would pass the bound and then fail inside range()
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if isinstance(self.rel_tol, bool) or not isinstance(self.rel_tol, numbers.Real):
            raise ValueError(f"rel_tol must be a real number, got {self.rel_tol!r}")
        if not (self.rel_tol > 0):
            raise ValueError("rel_tol must be positive")


def _identity(x):
    return x


@dataclass
class CompositeProblem:
    """min_x f(x) + g(x) subject to an optional entrywise box, where f is a
    loss of a linear image of x: f(x) = loss(A x).

    image(x) is A x and adjoint(D) is D A, applied to one row or to a stack of
    rows (the gradient of loss(A x) is adjoint(grad loss)); both default to
    the identity.  smooth_eval(a) takes a = image(x) and returns
    (f(x), d) with grad f(x) = adjoint(d), so with the default maps it is a
    plain (f(x), grad f(x)).  prox(v, t) is the proximal map of t*g;
    reg_value(x) evaluates g alone.  shape is the iterate shape.
    solve_split writes into the arrays that adjoint and prox return, so
    neither may return an array that is kept for another use.
    lipschitz bounds the Lipschitz constant of grad f; 1/lipschitz is both
    solvers' first step.
    """

    smooth_eval: Callable[[np.ndarray], tuple[float, np.ndarray]]
    prox: Callable[[np.ndarray, float], np.ndarray]
    reg_value: Callable[[np.ndarray], float]
    shape: tuple
    constraint: Optional[MaxNormBall] = None
    lipschitz: float = 1.0
    image: Callable[[np.ndarray], np.ndarray] = _identity
    adjoint: Callable[[np.ndarray], np.ndarray] = _identity


@dataclass
class SolveResult:
    point: np.ndarray
    objective: float
    iterations: int
    residual: float
    # "tolerance" (the residual met rel_tol), "cap" (max_iters ran out), or
    # "start" (solve_fista's start already met rel_tol; no iteration ran)
    stop_reason: str
    step: float  # the step in force at the end
    rejected: int  # Anderson points the safeguard refused (always 0 for solve_fista)
    reference_dominated: Optional[bool] = None

    @property
    def converged(self) -> bool:
        """The stopping residual met rel_tol; False on a cap hit."""
        return self.stop_reason != "cap"


def composite_objective(problem: CompositeProblem, x) -> float:
    f, _ = problem.smooth_eval(problem.image(x))
    return f + problem.reg_value(x)


def _fixed_point_residual(problem, x, grad, step):
    v = problem.prox(x - step * grad, step)
    return float(np.linalg.norm((x - v).ravel()) / max(1.0, np.linalg.norm(x.ravel())))


def _max_step(problem) -> float:
    # 1/lipschitz; a zero lipschitz (f constant) allows any step
    return 1.0 / max(problem.lipschitz, 1e-30)


def _backtracked_prox_step(problem, y, fy, gy, step):
    """Shrink the step until the quadratic majorization at y holds.

    Returns the candidate, its image, its smooth value and its loss gradient
    d (not yet mapped by the adjoint), and the step."""
    while True:
        candidate = problem.prox(y - step * gy, step)
        diff = candidate - y
        quad = fy + float(np.vdot(gy, diff)) + float(np.vdot(diff, diff)) / (2 * step)
        a_cand = problem.image(candidate)
        f_cand, d_cand = problem.smooth_eval(a_cand)
        if f_cand <= quad + 1e-12 * (1.0 + abs(quad)):
            return candidate, a_cand, f_cand, d_cand, step
        step *= BACKTRACK_FACTOR
        if step < 1e-18:
            raise SolverDiverged("backtracking step underflow")


def solve_fista(problem: CompositeProblem, config: SolverConfig, start) -> SolveResult:
    """Accelerated proximal gradient with backtracking and monotone restarts.

    Starts at step 1/lipschitz and halves it while the quadratic
    majorization fails.  The objective is non-increasing over the iterations
    up to roundoff: whenever the accelerated step would increase it, momentum
    is reset and a backtracked proximal gradient step from the current
    iterate (a guaranteed descent) is taken instead.  Its steps never
    project, so a boxed problem raises ValueError: solve_split takes those.

    The image A x of the iterate is carried beside it: each candidate costs
    one image call, the extrapolated point's image is the same affine
    combination of the last two images, and the gradients at the new iterate
    and at the next extrapolated point come from one adjoint call on the
    stack of their two loss gradients.  So an iteration without backtracking
    applies A once and its adjoint once.
    """
    if problem.constraint is not None:
        raise ValueError("solve_fista takes no box constraint; use solve_split")
    x = np.array(start, dtype=float, copy=True)
    if x.shape != tuple(problem.shape):
        raise ValueError(f"start has shape {x.shape}, expected {tuple(problem.shape)}")
    step = _max_step(problem)
    a_x = problem.image(x)
    fx, d_x = problem.smooth_eval(a_x)
    gx = problem.adjoint(d_x)
    obj_x = fx + problem.reg_value(x)
    if not np.isfinite(obj_x):
        raise SolverDiverged(f"objective non-finite at start: {obj_x}")

    residual = _fixed_point_residual(problem, x, gx, step)
    if residual <= config.rel_tol:
        return SolveResult(x, obj_x, 0, residual, "start", step, 0)

    y, fy, gy = x, fx, gx
    t_mom = 1.0
    iterations = 0
    for iterations in range(1, config.max_iters + 1):
        cand, a_c, f_c, d_c, step = _backtracked_prox_step(problem, y, fy, gy, step)
        obj_c = f_c + problem.reg_value(cand)
        if obj_c > obj_x:
            y, fy, gy = x, fx, gx
            t_mom = 1.0
            cand, a_c, f_c, d_c, step = _backtracked_prox_step(problem, y, fy, gy, step)
            obj_c = f_c + problem.reg_value(cand)
        if not np.isfinite(obj_c):
            raise SolverDiverged(f"objective non-finite at iteration {iterations}")

        x_prev, a_x_prev = x, a_x
        x, a_x, fx, obj_x = cand, a_c, f_c, obj_c

        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        coef = (t_mom - 1.0) / t_next
        y = x + coef * (x - x_prev)
        fy, d_y = problem.smooth_eval(a_x + coef * (a_x - a_x_prev))
        gx, gy = problem.adjoint(np.stack([d_c, d_y]))
        t_mom = t_next

        residual = _fixed_point_residual(problem, x, gx, step)
        if residual <= config.rel_tol:
            break

    stop_reason = "tolerance" if residual <= config.rel_tol else "cap"
    return SolveResult(x, obj_x, iterations, residual, stop_reason, step, 0)


def solve_split(problem: CompositeProblem, config: SolverConfig, start) -> SolveResult:
    """Three-operator splitting for box-constrained regularized problems.

    Iterates x_b = project(z), x_a = prox(2 x_b - z - step*grad f(x_b)), and
    the fixed-point map T z = z + (x_a - x_b) (Davis & Yin, arXiv:1504.01032).
    The first and largest step is 1/lipschitz.  After each iteration the step
    is balanced: halved while the primal residual ||x_a - x_b|| exceeds
    BALANCE_RATIO times the dual residual ||x_b - x_b_prev|| / step, doubled
    (up to 1/lipschitz) in the opposite case, at most MAX_STEP_CHANGES times.
    A change rescales z about x_b, which keeps x_b and the box multiplier
    (z - x_b)/step.

    The next z is the Anderson point T z - gamma (T z - T z_prev), where f =
    x_a - x_b and gamma = <df, f>/<df, df> with df = f - f_prev.  An Anderson
    point whose primal residual exceeds SAFEGUARD_FACTOR times that of the
    point it came from is rejected: the solve goes back to the plain image T z
    of that point.  A rejection and a step change (which changes the map)
    clear the memory, and the step after a clear is the plain one.  Every
    evaluation, rejected or not, is one iteration and one prox call.

    Stops when ||x_a - x_b|| / (step * max(1, ||x_b||)) <= rel_tol.  Returns
    the last box projection x_b = project(T z), which the splitting converges
    in and which satisfies the box exactly, with its composite objective.
    """
    if problem.constraint is None:
        raise ValueError("solve_split requires a box constraint")
    ball = problem.constraint
    z = np.array(start, dtype=float, copy=True)
    if z.shape != tuple(problem.shape):
        raise ValueError(f"start has shape {z.shape}, expected {tuple(problem.shape)}")
    max_step = _max_step(problem)
    step = max_step
    step_changes = 0
    # the Anderson memory: the last residual f and plain image T z, None while
    # clear; and the primal residual of the point that z was extrapolated
    # from, None while z is a plain image
    f_prev = tz_prev = primal_from = None
    rejected = 0

    x_b = project_maxnorm(z, ball)
    f_b, g_b = _value_and_grad(problem, x_b)
    if not np.isfinite(f_b + problem.reg_value(x_b)):
        raise SolverDiverged("objective non-finite at start")
    residual = np.inf
    iterations = 0
    for iterations in range(1, config.max_iters + 1):
        # the prox argument 2 x_b - z - step*g_b, built in the gradient's buffer
        g_b *= -step
        g_b += x_b
        g_b += x_b
        g_b -= z
        f = problem.prox(g_b, step)
        f -= x_b  # x_a - x_b
        primal = float(np.linalg.norm(f.ravel()))
        accepted = primal_from is None or primal <= SAFEGUARD_FACTOR * primal_from
        primal_from = None
        if accepted:
            residual = primal / (step * max(1.0, float(np.linalg.norm(x_b.ravel()))))
            z += f  # T z
            if f_prev is None:
                tz_prev = z.copy()
            elif residual > config.rel_tol:
                z, tz_prev, extrapolated = _anderson_step(z, f, f_prev, tz_prev)
                if extrapolated:
                    primal_from = primal
            f_prev = f
        else:
            # back to the plain image of the point the refused one came from
            rejected += 1
            z, f_prev, tz_prev = tz_prev, None, None
        x_next = project_maxnorm(z, ball)
        dual = float(np.linalg.norm((x_next - x_b).ravel())) / step
        x_b = x_next
        f_b, g_b = _value_and_grad(problem, x_b)
        if not np.isfinite(f_b):
            raise SolverDiverged(f"smooth value non-finite at iteration {iterations}")
        if not accepted:  # a refused point neither stops the solve nor balances the step
            continue
        if residual <= config.rel_tol:
            break
        if step_changes < MAX_STEP_CHANGES:
            new_step = step
            if primal > BALANCE_RATIO * dual:
                new_step = step / STEP_FACTOR
            elif dual > BALANCE_RATIO * primal:
                new_step = min(step * STEP_FACTOR, max_step)
            if new_step != step:
                # z <- x_b + (new_step/step) (z - x_b), in place; the map changed
                z -= x_b
                z *= new_step / step
                z += x_b
                step = new_step
                step_changes += 1
                f_prev = tz_prev = primal_from = None

    stop_reason = "tolerance" if residual <= config.rel_tol else "cap"
    return SolveResult(x_b, f_b + problem.reg_value(x_b), iterations, residual, stop_reason,
                       step, rejected)


def _value_and_grad(problem, x):
    f, d = problem.smooth_eval(problem.image(x))
    return f, problem.adjoint(d)


def _anderson_step(tz, f, f_prev, tz_prev):
    """Type-II Anderson step of memory 1 from the plain image tz = T z with
    residual f, given the previous pair (f_prev, tz_prev).

    Returns (next z, the plain image T z, whether the next z is extrapolated):
    tz - gamma (tz - tz_prev) with gamma = <df, f>/<df, df>, df = f - f_prev,
    or tz itself when df = 0.  Writes into the buffers of f_prev and tz_prev,
    so the step costs no array beyond the two it keeps.
    """
    df = np.subtract(f, f_prev, out=f_prev)
    dg = np.subtract(tz, tz_prev, out=tz_prev)
    df_df = float(np.vdot(df, df))
    if not df_df > 0:
        np.copyto(dg, tz)
        return tz, dg, False
    dg *= -float(np.vdot(df, f)) / df_df
    dg += tz
    return dg, tz, True


def certify_against_reference(problem: CompositeProblem, candidate, reference) -> bool:
    """True when objective(candidate) <= objective(reference) + DOMINATION_MARGIN.

    Both points must satisfy the problem's box constraint when present.
    """
    if problem.constraint is not None:
        for name, point in (("candidate", candidate), ("reference", reference)):
            if not problem.constraint.contains(point):
                raise ValueError(f"{name} violates the box constraint")
    return bool(
        composite_objective(problem, candidate)
        <= composite_objective(problem, reference) + DOMINATION_MARGIN
    )
