"""First-order solvers for composite objectives smooth + regularizer (+ box).

The smooth part is a loss of a linear image, f(x) = loss(A x): a
CompositeProblem carries A as image and adjoint maps (the identity by
default) and evaluates the loss at the image.  Two routines share the
SolveResult contract:

* solve_fista: accelerated proximal gradient with a line search whose trial
  step is the larger of a grown last step and a damped Barzilai-Borwein step
  of the gradients it already holds, and that restarts on objective increase
  and on the gradient test. For unconstrained problems (sparse regression);
  it rejects a box.  It carries A x beside x, so an iteration applies A once
  per candidate and its adjoint once, to two rows.  Where the problem has a
  newton_step (the regression composite does), it tries a Newton step on
  the active set once the sign pattern of the iterate holds, keeps it only
  where the signs hold and the objective does not rise, and counts every
  try as an iteration and every refusal in SolveResult.rejected.
* solve_split: three-operator splitting (gradient step on the smooth part,
  proximal step on the regularizer, projection onto the box). For the
  box-constrained nuclear-penalized problem. Its step adapts during the
  solve by residual balancing, a safeguarded Anderson step of memory
  ANDERSON_MEMORY, kept in fixed buffers, accelerates its fixed-point map,
  and it returns its last feasible iterate.

Both take their first step, and solve_split its largest, as 1/lipschitz from
the CompositeProblem: the step belongs to the problem, not to the config.

solve_fista terminates on the prox-gradient fixed-point residual
||x - prox(x - step*grad f(x))|| / max(1, ||x||) <= rel_tol at step
1/lipschitz, whatever step the iterations take.  solve_split stops on the
same residual at its current step divided by that step, so that rel_tol
means the same at every step and, at step 1, the same as for a fixed step.
Both are fully deterministic: identical inputs and config give bit-identical
iterates.
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
# solve_fista's trial step is at least STEP_GROWTH times the last accepted
# one, and at least the Barzilai-Borwein step over STEP_GROWTH
STEP_GROWTH = 1.25
# solve_fista restarts only on an objective rise beyond RESTART_MARGIN times
# |objective|, a few ulps, so that roundoff alone never resets momentum
RESTART_MARGIN = 4 * np.finfo(float).eps
# solve_fista takes at most NEWTON_RUN Newton steps in a row before a
# prox-gradient iteration, which alone can change the support
NEWTON_RUN = 3
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

# The Anderson step of the splitting (type II, memory ANDERSON_MEMORY; Fu,
# Zhang & Boyd, arXiv:1908.11482) is kept only while the primal residual at
# the point it proposes is at most SAFEGUARD_FACTOR times the residual of the
# point it was extrapolated from (after Zhang, O'Donoghue & Boyd,
# arXiv:1808.03971).  Each unit of memory holds two arrays of the iterate's
# shape.
ANDERSON_MEMORY = 3
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

    newton_step(x, d, g), optional, proposes a point from x, the loss
    gradient d at image(x) and the gradient g = adjoint(d): where f + g is
    piecewise quadratic, the minimiser of the quadratic piece that holds x,
    or None where its system is singular.  Only solve_fista uses it.
    """

    smooth_eval: Callable[[np.ndarray], tuple[float, np.ndarray]]
    prox: Callable[[np.ndarray, float], np.ndarray]
    reg_value: Callable[[np.ndarray], float]
    shape: tuple
    constraint: Optional[MaxNormBall] = None
    lipschitz: float = 1.0
    image: Callable[[np.ndarray], np.ndarray] = _identity
    adjoint: Callable[[np.ndarray], np.ndarray] = _identity
    newton_step: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray],
                                   Optional[np.ndarray]]] = None


@dataclass
class SolveResult:
    point: np.ndarray
    objective: float
    iterations: int
    residual: float
    # "tolerance" (the residual met rel_tol), "cap" (max_iters ran out), or
    # "start" (solve_fista's start already met rel_tol; no iteration ran)
    stop_reason: str
    # the step in force at the end: solve_split's splitting step, solve_fista's
    # last accepted prox-gradient step (which may exceed 1/lipschitz)
    step: float
    # points refused: solve_split's Anderson points, solve_fista's Newton
    # steps (always 0 for a problem without newton_step)
    rejected: int
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


def _majorized(f_cand, quad, half_sq, a_cand, d_cand, a_y, d_y) -> bool:
    """The majorization test of _backtracked_prox_step at a candidate c: quad
    is the quadratic model at y evaluated at c, half_sq = ||c - y||^2/(2 step),
    and a, d are the images and loss gradients at c and y."""
    allowance = 1e-12 * (1.0 + abs(quad))
    if half_sq > allowance:
        return f_cand - quad <= allowance
    return float(np.vdot(d_cand - d_y, a_cand - a_y)) <= 2 * half_sq


def _backtracked_prox_step(problem, y, a_y, fy, d_y, gy, step):
    """Shrink the step until the quadratic majorization at y holds.

    The majorization f(c) <= f(y) + <grad f(y), c - y> + ||c - y||^2/(2 step)
    is tested on function values, up to a roundoff allowance.  Where its
    quadratic term is itself within the allowance, function values cannot
    tell one step from another (near a solution, a step that grew past the
    curvature would pass on roundoff alone), so the test is then
    <grad f(c) - grad f(y), c - y> <= ||c - y||^2/step, taken in the image
    and free of cancellation.  For a quadratic f it is the same condition; for
    a convex f it bounds the gap f(c) - f(y) - <grad f(y), c - y> only by
    twice the quadratic term (a Huber loss can exceed the term itself), so it
    is used only where function values cannot resolve the difference.  TFOCS
    (Becker, Candes & Grant, Math. Prog. Comp. 2011) switches to a gradient
    test likewise.  The test is _majorized; its gradient form is what refuses
    the grown steps on which solve_fista stalls when a restart keeps the step
    in force.

    Returns the candidate, its image, its smooth value and its loss gradient
    d (not yet mapped by the adjoint), and the step."""
    while True:
        candidate = problem.prox(y - step * gy, step)
        diff = candidate - y
        half_sq = float(np.vdot(diff, diff)) / (2 * step)
        quad = fy + float(np.vdot(gy, diff)) + half_sq
        a_cand = problem.image(candidate)
        f_cand, d_cand = problem.smooth_eval(a_cand)
        if _majorized(f_cand, quad, half_sq, a_cand, d_cand, a_y, d_y):
            return candidate, a_cand, f_cand, d_cand, step
        step *= BACKTRACK_FACTOR
        if step < 1e-18:
            raise SolverDiverged("backtracking step underflow")


def _trial_step(step, dx, dg) -> float:
    """The next trial step after an accepted step, given the moves dx of the
    iterate and dg of the gradient over that iteration: the larger of
    STEP_GROWTH * step and s_bb / STEP_GROWTH, with s_bb = <dx, dg>/<dg, dg>
    the Barzilai-Borwein step of the gradients already held, or STEP_GROWTH *
    step alone when <dx, dg> <= 0 or dg = 0 (no curvature along dx)."""
    grown = STEP_GROWTH * step
    curvature, dg_dg = float(np.vdot(dx, dg)), float(np.vdot(dg, dg))
    if not (curvature > 0 and dg_dg > 0):
        return grown
    return max(grown, curvature / dg_dg / STEP_GROWTH)


def solve_fista(problem: CompositeProblem, config: SolverConfig, start) -> SolveResult:
    """Accelerated proximal gradient with a spectral trial step and restarts.

    The first trial step is 1/lipschitz.  Each later one is _trial_step of
    the last accepted step and of the moves dx of the iterate and dg of its
    gradient over the last iteration: the larger of STEP_GROWTH times the
    accepted step and s_bb / STEP_GROWTH, where s_bb = <dx, dg>/<dg, dg> is
    the Barzilai-Borwein step (Wright, Nowak & Figueiredo, SpaRSA, IEEE TSP
    2009).  The gradient at the new iterate is computed anyway for the
    stopping residual, so s_bb costs two vector differences and two dot
    products, and no pass over A.  The step so follows the curvature near the
    iterates (for a Huber loss, that of the residuals in its quadratic zone)
    rather than the global bound, and can jump to it rather than grow by
    STEP_GROWTH per iteration.  A trial step is multiplied by
    BACKTRACK_FACTOR while the quadratic majorization fails
    (_backtracked_prox_step), so every accepted step passes the same test
    whatever its trial.

    The momentum is the rule of Scheinberg, Goldfarb & Bai (Found. Comput.
    Math. 2014) for a changing step, t+ = (1 + sqrt(1 + 4 theta t^2))/2 with
    theta = s_prev/s_next.  theta is taken as 1/STEP_GROWTH, the ratio for a
    trial that only grows: the extrapolated point must be formed before the
    one adjoint call that gives both the gradient at the new iterate, from
    which s_bb is read, and the gradient at the extrapolated point.  Where
    s_bb sets a larger trial, the momentum is the grown step's; the two
    restarts below catch an extrapolation that overshoots.

    The objective is non-increasing over the iterations up to roundoff:
    whenever the accelerated step would increase it by more than
    RESTART_MARGIN times its size, momentum is reset and a backtracked
    proximal gradient step from the current iterate (a guaranteed descent) is
    taken instead.  Its first trial is the step in force, the one just
    accepted at the extrapolated point; backtracking shrinks it only where the
    majorization fails at the current iterate.  The momentum is also reset,
    with no second step, when the accepted step from the extrapolated point y
    to x+ points against the last move: <y - x+, x+ - x> > 0, the gradient
    restart of O'Donoghue & Candes (Found. Comput. Math. 2015), since
    (y - x+)/step is the prox-gradient at y.  The next extrapolated point is
    then x+ itself.  No step projects, so a boxed problem raises ValueError:
    solve_split takes those.

    The stopping residual is taken at 1/lipschitz, not at the step taken.
    The residual grows with the step, so this keeps the stop where a solve
    at the fixed step 1/lipschitz would test it.  SolveResult.step is the
    last accepted step.

    The image A x of the iterate is carried beside it: each candidate costs
    one image call, the extrapolated point's image is the same affine
    combination of the last two images, and the gradients at the new iterate
    and at the next extrapolated point come from one adjoint call on the
    stack of their two loss gradients.  So an iteration without backtracking
    applies A once and its adjoint once.

    Where the problem has a newton_step, the solve also tries the Newton step
    on the active set (Yi & Huang, J. Comput. Graph. Stat. 2017; Li, Sun &
    Toh, SIAM J. Optim. 2018): for the l1-penalized Huber regression, f + g
    is quadratic on the piece where the signs of x and the residuals in the
    quadratic zone hold, and one step lands on that piece's minimiser, where
    the prox-gradient iterations would approach it linearly.  A step is
    tried once the sign pattern of x has held over the last prox-gradient
    iteration, and up to NEWTON_RUN times in a row, a prox-gradient iteration
    following.  It is kept only if it keeps every sign of x (zeros included)
    and the objective does not rise beyond RESTART_MARGIN times its size
    (_newton_point); a kept step resets the momentum, and the gradient and
    the stopping residual at 1/lipschitz are taken at the new point as after
    any iteration.  After the j-th refusal since the sign pattern last
    changed, the next try waits until the pattern has held over 2^j more
    prox-gradient iterations, so refusals cost few iterations where the
    signs settle before the residuals do.  Every try, kept or refused,
    counts as one iteration (a kept one applies A and its adjoint once, to
    one row; a sign change is refused before A is applied), and
    SolveResult.rejected counts the refused ones.  A problem without
    newton_step runs the prox-gradient iterations alone.
    """
    if problem.constraint is not None:
        raise ValueError("solve_fista takes no box constraint; use solve_split")
    x = np.array(start, dtype=float, copy=True)
    if x.shape != tuple(problem.shape):
        raise ValueError(f"start has shape {x.shape}, expected {tuple(problem.shape)}")
    max_step = step = _max_step(problem)
    a_x = problem.image(x)
    fx, d_x = problem.smooth_eval(a_x)
    gx = problem.adjoint(d_x)
    obj_x = fx + problem.reg_value(x)
    if not np.isfinite(obj_x):
        raise SolverDiverged(f"objective non-finite at start: {obj_x}")

    residual = _fixed_point_residual(problem, x, gx, max_step)
    if residual <= config.rel_tol:
        return SolveResult(x, obj_x, 0, residual, "start", step, 0)

    y, a_y, fy, d_y, gy = x, a_x, fx, d_x, gx
    t_mom = 1.0
    trial = step
    iterations = rejected = 0
    newton = problem.newton_step
    # prox-gradient iterations over which the sign pattern must still hold
    # before the next Newton step, its value after the next refusal, and the
    # Newton steps taken in a row
    wait, backoff, newton_run = 1, 2, 0
    for iterations in range(1, config.max_iters + 1):
        if newton is not None and wait <= 0 and newton_run < NEWTON_RUN:
            newton_run += 1
            kept = _newton_point(problem, newton, x, d_x, gx, obj_x)
            if kept is None:
                rejected += 1
                wait, backoff = backoff, 2 * backoff
                continue
            x, a_x, fx, d_x, obj_x = kept
            gx = problem.adjoint(d_x)
            y, a_y, fy, d_y, gy = x, a_x, fx, d_x, gx
            t_mom = 1.0
            residual = _fixed_point_residual(problem, x, gx, max_step)
            if residual <= config.rel_tol:
                break
            continue
        newton_run = 0

        cand, a_c, f_c, d_c, step = _backtracked_prox_step(
            problem, y, a_y, fy, d_y, gy, trial)
        obj_c = f_c + problem.reg_value(cand)
        if obj_c > obj_x + RESTART_MARGIN * abs(obj_x):
            y, a_y, fy, d_y, gy = x, a_x, fx, d_x, gx
            t_mom = 1.0
            cand, a_c, f_c, d_c, step = _backtracked_prox_step(
                problem, y, a_y, fy, d_y, gy, step)
            obj_c = f_c + problem.reg_value(cand)
        if not np.isfinite(obj_c):
            raise SolverDiverged(f"objective non-finite at iteration {iterations}")

        if float(np.vdot(y - cand, cand - x)) > 0:
            t_mom = 1.0  # the gradient restart

        x_prev, a_x_prev, gx_prev = x, a_x, gx
        x, a_x, fx, d_x, obj_x = cand, a_c, f_c, d_c, obj_c

        # theta = 1/STEP_GROWTH: the trial is known only after the adjoint call
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom / STEP_GROWTH))
        coef = (t_mom - 1.0) / t_next
        dx = x - x_prev
        y = x + coef * dx
        a_y = a_x + coef * (a_x - a_x_prev)
        fy, d_y = problem.smooth_eval(a_y)
        gx, gy = problem.adjoint(np.stack([d_c, d_y]))
        t_mom = t_next
        trial = _trial_step(step, dx, gx - gx_prev)

        residual = _fixed_point_residual(problem, x, gx, max_step)
        if residual <= config.rel_tol:
            break
        if newton is not None:
            if np.array_equal(np.sign(x), np.sign(x_prev)):
                wait -= 1
            else:
                wait, backoff = 1, 2

    stop_reason = "tolerance" if residual <= config.rel_tol else "cap"
    return SolveResult(x, obj_x, iterations, residual, stop_reason, step, rejected)


def _newton_point(problem, newton, x, d_x, gx, obj_x):
    """The point newton proposes from x with its image, smooth value, loss
    gradient and objective, or None where solve_fista refuses it: newton
    finds no point, a sign of x changes (zero included), or the objective
    rises beyond RESTART_MARGIN times its size.  The image is taken only for
    a point of x's sign pattern."""
    point = newton(x, d_x, gx)
    if point is None or not np.array_equal(np.sign(point), np.sign(x)):
        return None
    a_p = problem.image(point)
    f_p, d_p = problem.smooth_eval(a_p)
    obj_p = f_p + problem.reg_value(point)
    if not obj_p <= obj_x + RESTART_MARGIN * abs(obj_x):  # a NaN is refused too
        return None
    return point, a_p, f_p, d_p, obj_p


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

    The next z is the type-II Anderson point of memory m = ANDERSON_MEMORY,
    T z - dG gamma, where f = x_a - x_b, the columns of dF and dG are the
    differences of f and of T z over the last m + 1 accepted evaluations
    (fewer after a clear), and gamma minimises ||f - dF gamma||
    (_AndersonHistory).  An Anderson point whose primal residual exceeds
    SAFEGUARD_FACTOR times that of the point it came from is rejected: the
    solve goes back to the plain image T z of that point.  A rejection and a
    step change (which changes the map) clear the memory, and the step after
    a clear, like one whose gamma cannot be solved for, is the plain one.
    Every evaluation, rejected or not, is one iteration and one prox call.
    The memory's 2m arrays are allocated once, at its first use.  x_b is
    always the box clip of z (a step change rescales z about x_b, which
    leaves its clip alone), so the solve frees x_b while the prox runs and
    clips z again after it: during the prox call it holds 2m + 2 arrays of
    the iterate's shape, the memory's, z and the prox argument.

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
    # the Anderson memory, None until its first use; and the primal residual
    # of the point that z was extrapolated from, None while z is a plain image
    history = primal_from = None
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
        del x_b
        f = problem.prox(g_b, step)
        del g_b
        x_b = np.clip(z, -ball.radius, ball.radius)  # equal to the x_b just freed
        f -= x_b  # x_a - x_b
        primal = float(np.linalg.norm(f.ravel()))
        accepted = primal_from is None or primal <= SAFEGUARD_FACTOR * primal_from
        primal_from = None
        if accepted:
            residual = primal / (step * max(1.0, float(np.linalg.norm(x_b.ravel()))))
            z += f  # T z
            if residual > config.rel_tol:
                if history is None:
                    history = _AndersonHistory(z.shape, ANDERSON_MEMORY)
                if history.pairs:
                    z, extrapolated = history.step(f, z)
                    if extrapolated:
                        primal_from = primal
                else:
                    history.hold(f, z)
        else:
            # back to the plain image of the point the refused one came from
            rejected += 1
            z = history.restore(z)
        del f  # the history holds its own copy: free this one before the next prox call
        x_prev, x_b = x_b, project_maxnorm(z, ball)
        dual = float(np.linalg.norm((x_b - x_prev).ravel())) / step
        del x_prev  # x_b alone may hold the new clip, so that the next prox call frees it
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
                primal_from = None
                history.clear()

    stop_reason = "tolerance" if residual <= config.rel_tol else "cap"
    return SolveResult(x_b, f_b + problem.reg_value(x_b), iterations, residual, stop_reason,
                       step, rejected)


def _value_and_grad(problem, x):
    f, d = problem.smooth_eval(problem.image(x))
    return f, problem.adjoint(d)


class _AndersonHistory:
    """The memory of solve_split's type-II Anderson step: 2 * memory arrays
    of the iterate's shape, allocated at construction.

    It holds the last `pairs` accepted pairs (f, T z), 0 while clear.  The
    last pair sits in slot `head` of the buffers df and dg; the differences
    of consecutive pairs, newest first, sit in the slots before it (mod m).
    gram[i, j] = <df[i], df[j]> and rhs[j] = <df[j], f> over the held
    differences are kept incrementally: a step adds the products of its new
    difference with the held ones and with f, m + 1 at most, and re-reads no
    other array.
    """

    def __init__(self, shape, memory):
        self.df = [np.empty(shape) for _ in range(memory)]
        self.dg = [np.empty(shape) for _ in range(memory)]
        self.gram = np.zeros((memory, memory))
        self.rhs = np.zeros(memory)
        self.head = 0
        self.pairs = 0

    def clear(self):
        self.pairs = 0

    def hold(self, f, tz):
        """Clear the memory and hold (f, tz) as its one pair."""
        np.copyto(self.df[self.head], f)
        np.copyto(self.dg[self.head], tz)
        self.pairs = 1

    def restore(self, z):
        """Clear the memory and return the last pair's plain image; the
        buffer of z takes its slot."""
        tz, self.dg[self.head] = self.dg[self.head], z
        self.clear()
        return tz

    def step(self, f, tz):
        """The next z after the plain image tz = T z with residual f, and
        whether it is extrapolated; needs a held pair.

        The next z is tz - dG gamma, written in a buffer of the memory, which
        then holds tz itself (not a copy) as its last pair.  Where gamma
        cannot be solved for, it is tz, and (f, tz) becomes the one pair
        held.  With memory 1 this is Tz - gamma (Tz - Tz_prev), gamma =
        <df, f>/<df, df>.
        """
        held = self._extend(f, tz)
        gamma = self._coefficients(held)
        memory = len(self.df)
        self.head = slot = (self.head + 1) % memory
        if gamma is None:
            self.hold(f, tz)
            return tz, False
        out, scratch = self.dg[slot], self.df[slot]
        if len(held) == memory:  # slot holds the oldest difference, last in held
            out *= -gamma[-1]
            out += tz
            held, gamma = held[:-1], gamma[:-1]
        else:
            np.copyto(out, tz)
        for j, coefficient in zip(held, gamma):
            np.multiply(self.dg[j], coefficient, out=scratch)
            out -= scratch
        np.copyto(scratch, f)
        self.dg[slot] = tz
        self.pairs = min(self.pairs + 1, memory)
        return out, True

    def _extend(self, f, tz):
        """Turn the last pair into the differences to (f, tz) and bring gram
        and rhs up to date; returns the slots of the differences, newest
        first."""
        memory, head = len(self.df), self.head
        df = np.subtract(f, self.df[head], out=self.df[head])
        np.subtract(tz, self.dg[head], out=self.dg[head])
        held = [(head - i) % memory for i in range(self.pairs)]
        for j in held:
            self.gram[head, j] = self.gram[j, head] = float(np.vdot(df, self.df[j]))
        # <df_j, f> = <df_j, f_prev> + <df_j, df> for the older differences
        self.rhs[held[1:]] += self.gram[held[1:], head]
        self.rhs[head] = float(np.vdot(df, f))
        return held

    def _coefficients(self, held):
        """gamma over the differences in slots held, from the normal equations
        gram gamma = rhs, or None where they are singular or gamma is not
        finite."""
        try:
            gamma = np.linalg.solve(self.gram[np.ix_(held, held)], self.rhs[held])
        except np.linalg.LinAlgError:
            return None
        return gamma if np.all(np.isfinite(gamma)) else None


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
