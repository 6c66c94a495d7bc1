"""Solver tests: closed-form and grid-search oracles, monotonicity,
feasibility, determinism, FISTA's growing step, its Newton step on the active
set and its stopping residual, the adaptive splitting step and its Anderson
memory, and the reference-domination certificate."""

import copy
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from robust_huber import (
    CompositeProblem,
    EstimatorConstants,
    HuberParams,
    MaxNormBall,
    NoiseSpec,
    SignalSpec,
    SolverConfig,
    SolverDiverged,
    certify_against_reference,
    composite_objective,
    huber_loss,
    huber_loss_and_grad,
    huber_loss_grad,
    make_regression_instance,
    project_maxnorm,
    prox_l1,
    prox_nuclear,
)
from robust_huber import estimators, solver
from robust_huber.datagen import trial_seed
from robust_huber.estimators import (
    build_pca_composite,
    build_regression_composite,
    estimate_pca,
)
from robust_huber.experiments import ExperimentSpec, build_instance
from robust_huber.solver import solve_fista, solve_split

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def regression_composite(X, y, h, gamma, lipschitz=1.0):
    params = HuberParams(h)

    def smooth_eval(beta):
        resid = y - X @ beta
        return huber_loss(resid, params), -(X.T @ huber_loss_grad(resid, params))

    return CompositeProblem(
        smooth_eval=smooth_eval,
        prox=lambda v, t: prox_l1(v, t * gamma),
        reg_value=lambda b: gamma * float(np.sum(np.abs(b))),
        shape=(X.shape[1],),
        lipschitz=lipschitz,
    )


def pca_composite(Y, h, gamma, radius):
    params = HuberParams(h)

    def smooth_eval(L):
        resid = Y - L
        return huber_loss(resid, params), -huber_loss_grad(resid, params)

    return CompositeProblem(
        smooth_eval=smooth_eval,
        prox=lambda M, t: prox_nuclear(M, t * gamma),
        reg_value=lambda L: gamma * float(np.sum(np.linalg.svd(L, compute_uv=False))),
        shape=Y.shape,
        constraint=MaxNormBall(radius),
    )


def nuclear_2x2(l11, l12, l21, l22):
    # sum of the two singular values of [[l11, l12], [l21, l22]]
    fro2 = l11**2 + l12**2 + l21**2 + l22**2
    det = np.abs(l11 * l22 - l12 * l21)
    return np.sqrt(fro2 + 2.0 * det)


# ---------------------------------------------------------------------------
# solve_fista


def test_fista_zero_data_stays_at_zero():
    X = np.eye(1)
    problem = regression_composite(X, np.zeros(1), 2.0, 0.0)
    result = solve_fista(problem, SolverConfig(), np.zeros(1))
    assert result.iterations == 0
    assert result.converged is True
    assert result.stop_reason == "start"
    assert result.point[0] == 0.0
    assert result.objective == 0.0


def test_fista_matches_normal_equations_in_quadratic_regime():
    rng = np.random.default_rng(30)
    X = rng.standard_normal((4, 2))
    beta_true = np.array([0.3, -0.2])
    y = X @ beta_true + 0.01 * rng.standard_normal(4)
    # h large enough that every reachable residual stays on the quadratic branch
    problem = regression_composite(X, y, 1e6, 0.0, np.linalg.norm(X, 2) ** 2)
    result = solve_fista(problem, SolverConfig(rel_tol=1e-12), np.zeros(2))
    oracle = np.linalg.solve(X.T @ X, X.T @ y)
    np.testing.assert_allclose(result.point, oracle, atol=1e-6)


def test_fista_beats_grid_search_with_l1_penalty():
    rng = np.random.default_rng(31)
    X = rng.standard_normal((6, 2))
    y = X @ np.array([0.8, -0.5]) + 0.1 * rng.standard_normal(6)
    gamma = 1.5
    problem = regression_composite(X, y, 2.0, gamma, np.linalg.norm(X, 2) ** 2)
    result = solve_fista(problem, SolverConfig(rel_tol=1e-12), np.zeros(2))

    grid = np.linspace(-2.0, 2.0, 401)
    B1, B2 = np.meshgrid(grid, grid, indexing="ij")
    R = y[:, None, None] - (X[:, 0, None, None] * B1 + X[:, 1, None, None] * B2)
    params = HuberParams(2.0)
    a = np.abs(R)
    m = np.minimum(a, 2.0)
    objs = np.sum(0.5 * m * m + 2.0 * (a - m), axis=0) + gamma * (np.abs(B1) + np.abs(B2))
    assert result.objective <= float(objs.min()) + 1e-6


def test_fista_objective_non_increasing_in_max_iters():
    # FISTA is deterministic, so the max_iters = k run is the first k
    # iterations of the full solve: its objective is the k-th iterate's
    rng = np.random.default_rng(32)
    X = rng.standard_normal((40, 5))
    y = X @ rng.standard_normal(5) + rng.standard_normal(40)
    problem = regression_composite(X, y, 2.0, 2.0, np.linalg.norm(X, 2) ** 2)
    full = solve_fista(problem, SolverConfig(rel_tol=1e-10), np.zeros(5))
    assert full.converged and full.iterations > 10
    h = np.array([
        solve_fista(problem, SolverConfig(max_iters=k, rel_tol=1e-10), np.zeros(5)).objective
        for k in range(1, full.iterations + 1)
    ])
    assert h[-1] == full.objective
    assert np.all(np.diff(h) <= 1e-12 * (1.0 + np.abs(h[:-1])))


def test_fista_fixed_point_consistency():
    rng = np.random.default_rng(33)
    X = rng.standard_normal((30, 4))
    y = X @ rng.standard_normal(4) + rng.standard_normal(30)
    lipschitz = np.linalg.norm(X, 2) ** 2
    problem = regression_composite(X, y, 2.0, 1.0, lipschitz)
    step = 1.0 / lipschitz
    rel_tol = 1e-8
    result = solve_fista(problem, SolverConfig(rel_tol=rel_tol), np.zeros(4))
    assert result.residual <= rel_tol
    _, g = problem.smooth_eval(result.point)
    extra = problem.prox(result.point - step * g, step)
    before = composite_objective(problem, result.point)
    after = composite_objective(problem, extra)
    assert abs(after - before) <= 10 * rel_tol * (1.0 + abs(before))


def test_fista_deterministic():
    rng = np.random.default_rng(34)
    X = rng.standard_normal((20, 3))
    y = rng.standard_normal(20)
    lipschitz = np.linalg.norm(X, 2) ** 2
    problem = regression_composite(X, y, 2.0, 0.7, lipschitz)
    cfg = SolverConfig(rel_tol=1e-9)
    r1 = solve_fista(problem, cfg, np.zeros(3))
    r2 = solve_fista(problem, cfg, np.zeros(3))
    assert r1.step == r2.step > 1.0 / lipschitz  # the step grew, the same way twice
    assert r1.iterations == r2.iterations
    assert r1.objective == r2.objective
    assert r1.point.tobytes() == r2.point.tobytes()


def test_fista_rejects_bad_start_shape():
    problem = regression_composite(np.eye(2), np.zeros(2), 2.0, 0.0)
    with pytest.raises(ValueError):
        solve_fista(problem, SolverConfig(), np.zeros(3))


def test_fista_raises_on_nonfinite_objective():
    problem = CompositeProblem(
        smooth_eval=lambda x: (float("inf"), np.zeros(1)),
        prox=lambda v, t: v,
        reg_value=lambda x: 0.0,
        shape=(1,),
    )
    with pytest.raises(SolverDiverged):
        solve_fista(problem, SolverConfig(), np.zeros(1))


def test_fista_reports_convergence():
    rng = np.random.default_rng(36)
    X = rng.standard_normal((30, 4))
    y = X @ rng.standard_normal(4) + rng.standard_normal(30)
    problem = regression_composite(X, y, 2.0, 1.0, np.linalg.norm(X, 2) ** 2)
    capped = solve_fista(problem, SolverConfig(max_iters=1), np.zeros(4))
    assert capped.iterations == 1
    assert capped.converged is False
    assert capped.stop_reason == "cap"
    done = solve_fista(problem, SolverConfig(), np.zeros(4))
    assert done.converged is True
    assert done.stop_reason == "tolerance"
    assert done.residual <= SolverConfig().rel_tol
    assert capped.rejected == done.rejected == 0  # no Anderson step in FISTA


def _gradient_path(composite):
    """The composite without its Newton step, so that solve_fista runs the
    prox-gradient iterations alone: the tests that pin their structure per
    iteration solve this."""
    return replace(composite, newton_step=None)


def _regression_instance(seed=71):
    problem = make_regression_instance(
        300, 40, SignalSpec(4, 1.5), NoiseSpec("symmetric_mixture", 0.6), seed=seed
    )
    return problem, EstimatorConstants(gamma_scale=0.5)


@pytest.mark.parametrize("lipschitz_scale", [1.0, 0.05])  # 0.05: every early step backtracks
def test_fista_reads_the_design_twice_per_iteration(lipschitz_scale):
    # one image call per candidate (plus one at the start) and one adjoint
    # call per iteration (plus one at the start), on a stack of two rows
    problem, constants = _regression_instance()
    composite = _gradient_path(build_regression_composite(problem, constants)[0])
    composite.lipschitz *= lipschitz_scale
    image, adjoint, prox = composite.image, composite.adjoint, composite.prox
    images, adjoint_rows, prox_calls = [], [], []

    def counting_image(x):
        images.append(1)
        return image(x)

    def counting_adjoint(D):
        adjoint_rows.append(D.shape[:-1])
        return adjoint(D)

    def counting_prox(v, t):
        prox_calls.append(t)
        return prox(v, t)

    composite.image, composite.adjoint, composite.prox = (
        counting_image, counting_adjoint, counting_prox)
    result = solve_fista(composite, SolverConfig(rel_tol=1e-9), np.zeros(problem.d))
    assert result.converged and result.iterations > 20
    assert len(adjoint_rows) == result.iterations + 1
    assert adjoint_rows[0] == () and set(adjoint_rows[1:]) == {(2,)}
    # prox runs once per candidate and once per stopping residual (one per
    # iteration and one at the start)
    candidates = len(prox_calls) - (result.iterations + 1)
    assert len(images) == candidates + 1
    if lipschitz_scale < 1:
        assert candidates > result.iterations  # the backtracking was exercised


def test_fista_image_formulation_matches_plain_gradient_formulation():
    # the same regression solved through build_regression_composite (image X b,
    # adjoint D X) and through a plain smooth_eval(b) with identity maps
    problem, constants = _regression_instance(seed=72)
    composite, info = build_regression_composite(problem, constants)
    composite = _gradient_path(composite)
    plain = regression_composite(problem.X, problem.y, info["h"], info["gamma"],
                                 composite.lipschitz)
    config = SolverConfig(rel_tol=1e-9)
    carried = solve_fista(composite, config, np.zeros(problem.d))
    direct = solve_fista(plain, config, np.zeros(problem.d))
    assert carried.converged and direct.converged
    assert abs(carried.iterations - direct.iterations) <= 1
    assert carried.objective == pytest.approx(direct.objective, rel=1e-12, abs=0)
    assert composite_objective(composite, direct.point) == pytest.approx(
        composite_objective(plain, direct.point), rel=1e-12, abs=0)


def test_fista_step_grows_past_one_over_lipschitz_where_the_loss_is_flat():
    # every residual starts beyond h, so the loss is linear along the first
    # iterates and 1/lipschitz is far below the step its curvature allows
    rng = np.random.default_rng(73)
    X = rng.standard_normal((200, 10))
    beta = np.zeros(10)
    beta[:3] = 10.0
    outliers = rng.random(200) < 0.7
    y = X @ beta + np.where(outliers, 30.0 * rng.choice([-1.0, 1.0], 200), 0.1)
    h = 1.0
    keep = np.abs(y) > h
    X, y = X[keep], y[keep]
    assert np.all(np.abs(y) > h) and len(y) > 150  # the residuals at the zero start
    lipschitz = np.linalg.norm(X, 2) ** 2
    problem = regression_composite(X, y, h, 1.0, lipschitz)
    result = solve_fista(problem, SolverConfig(rel_tol=1e-9), np.zeros(10))
    assert result.converged is True
    assert result.step > 1.0 / lipschitz


def _regression_solve(rel_tol, seed=71):
    problem, constants = _regression_instance(seed)
    composite, _ = build_regression_composite(problem, constants)
    return composite, solve_fista(composite, SolverConfig(rel_tol=rel_tol), np.zeros(problem.d))


def test_fista_stops_on_the_residual_at_one_over_lipschitz():
    # the stop is tested at 1/lipschitz, always, not at the grown
    # step: recompute that residual from the composite at the returned point
    composite, result = _regression_solve(1e-7)
    assert result.converged and result.step > 1.0 / composite.lipschitz
    step = 1.0 / composite.lipschitz
    x = result.point
    _, d = composite.smooth_eval(composite.image(x))
    v = composite.prox(x - step * composite.adjoint(d), step)
    residual = np.linalg.norm(x - v) / max(1.0, np.linalg.norm(x))
    assert residual <= 1e-7
    assert result.residual == pytest.approx(residual, rel=1e-6)  # the residual it stopped on


def test_fista_objective_matches_a_tight_reference():
    _, result = _regression_solve(1e-7)
    _, reference = _regression_solve(1e-12)
    assert reference.converged is True
    assert abs(result.objective - reference.objective) <= 1e-12 * abs(reference.objective)


def _demo_gaussian_design_case(n, trial):
    spec = ExperimentSpec.from_config(CONFIG_DIR / "demo_gaussian_design.ini")
    p, seed = next((p, seed) for _, t, p, seed in spec.trials() if p["n"] == n and t == trial)
    composite, _ = build_regression_composite(build_instance(spec, p, seed), spec.constants)
    return composite, spec.solver, np.zeros(composite.shape)


def test_fista_gradient_form_majorization_prevents_the_stall(monkeypatch):
    # near a solution the quadratic term of the majorization is within
    # roundoff, so function values pass a step grown past the curvature; the
    # gradient form refuses it.  With function values only, this solve took
    # 494 iterations, against 16 with the gradient form.
    composite, config, start = _demo_gaussian_design_case(1000, 0)
    composite = _gradient_path(composite)
    real = solve_fista(composite, config, start)
    assert real.converged and real.iterations <= 25

    def values_only(f_cand, quad, half_sq, *_):
        return f_cand - quad <= 1e-12 * (1.0 + abs(quad))

    monkeypatch.setattr(solver, "_majorized", values_only)
    stalled = solve_fista(composite, config, start)
    assert stalled.iterations >= 5 * real.iterations


def test_majorization_refuses_a_huber_step_its_gradient_form_passes():
    # 1-D Huber loss, h = 1, from y = 0 to c = 2 at step 2: the gradient form
    # <f'(c) - f'(y), c - y> = 2 <= |c - y|^2/step = 2 holds, but the gap
    # f(c) - f(y) - f'(y)(c - y) = 1.5 exceeds the quadratic term 1, so the
    # gradient form alone would accept a step that is no majorization
    params = HuberParams(1.0)
    y, c, step = np.array([0.0]), np.array([2.0]), 2.0
    (f_y, d_y), (f_c, d_c) = huber_loss_and_grad(y, params), huber_loss_and_grad(c, params)
    half_sq = float(np.vdot(c - y, c - y)) / (2 * step)
    quad = f_y + float(np.vdot(d_y, c - y)) + half_sq
    assert float(np.vdot(d_c - d_y, c - y)) <= 2 * half_sq
    assert f_c - (quad - half_sq) > half_sq
    assert not solver._majorized(f_c, quad, half_sq, c, d_c, y, d_y)


def test_trial_step_is_the_larger_of_the_grown_and_the_damped_spectral_step():
    growth = solver.STEP_GROWTH
    dx = np.array([1.0, 0.0])
    # dg = dx/4, the gradient move of a quadratic of curvature 1/4: s_bb = 4
    assert solver._trial_step(1.0, dx, dx / 4) == 4.0 / growth
    assert solver._trial_step(4.0, dx, dx / 4) == 4.0 * growth
    # no curvature along dx: the grown step alone
    for dg in (-dx, np.zeros(2), np.array([0.0, 1.0])):
        assert solver._trial_step(1.0, dx, dg) == growth


def _recorded_fista(monkeypatch, composite, config):
    """Solve from zero, recording each _backtracked_prox_step call as (trial,
    y, candidate, accepted step) and each _trial_step result.  Returns the
    result, the calls grouped by iteration, and the _trial_step results.

    A call that is not an iteration's first is a restart, whose trial is the
    step the call before it accepted; every other call after the first takes
    the next _trial_step result.  The trial rule's result is at least
    STEP_GROWTH times the step it follows, so the two cannot be confused."""
    backtracked, rule = solver._backtracked_prox_step, solver._trial_step
    calls, rules = [], []

    def recording(problem, y, a_y, fy, d_y, gy, step):
        out = backtracked(problem, y, a_y, fy, d_y, gy, step)
        calls.append((step, y.copy(), out[0], out[-1]))
        return out

    def recording_rule(step, dx, dg):
        rules.append(rule(step, dx, dg))
        return rules[-1]

    monkeypatch.setattr(solver, "_backtracked_prox_step", recording)
    monkeypatch.setattr(solver, "_trial_step", recording_rule)
    result = solve_fista(composite, config, np.zeros(composite.shape))
    iterations = [[calls[0]]]
    for before, call in zip(calls, calls[1:]):
        if call[0] == before[3]:
            iterations[-1].append(call)
        else:
            assert call[0] == rules[len(iterations) - 1]
            iterations.append([call])
    return result, iterations, rules


def test_fista_restart_keeps_the_step_in_force(monkeypatch):
    # every call of _backtracked_prox_step gets its trial step from the call
    # before it: the trial rule of the step it accepted at an iteration's
    # first trial, and the step itself at a restart (an iteration's second
    # call), not a shrunk one
    problem, constants = _regression_instance()
    composite = _gradient_path(build_regression_composite(problem, constants)[0])
    result, iterations, rules = _recorded_fista(monkeypatch, composite,
                                                SolverConfig(rel_tol=1e-9))
    assert result.converged
    assert len(iterations) == result.iterations == len(rules)
    assert iterations[0][0][0] == 1.0 / composite.lipschitz
    assert {len(calls) for calls in iterations} == {1, 2}  # restarts happened
    # each rule's trial is at least STEP_GROWTH times the step it follows, and
    # the spectral step sets it beyond that somewhere
    accepted = [calls[-1][3] for calls in iterations]
    assert all(r >= solver.STEP_GROWTH * s for r, s in zip(rules, accepted))
    assert any(r > solver.STEP_GROWTH * s for r, s in zip(rules, accepted))


def test_fista_gradient_restart_resets_the_momentum(monkeypatch):
    # where the accepted step from the extrapolated point y to x+ points
    # against the last move, <y - x+, x+ - x> > 0, the next extrapolated
    # point is x+ itself: the momentum is reset to 1
    problem, constants = _regression_instance()
    composite = _gradient_path(build_regression_composite(problem, constants)[0])
    result, iterations, _ = _recorded_fista(monkeypatch, composite,
                                            SolverConfig(rel_tol=1e-9))
    assert result.converged
    x = np.zeros(composite.shape)
    fired = extrapolated = 0
    for calls, following in zip(iterations, iterations[1:]):
        _, y, x_next, _ = calls[-1]
        next_y = following[0][1]
        if np.vdot(y - x_next, x_next - x) > 0:
            fired += 1
            assert np.array_equal(next_y, x_next)
        elif not np.array_equal(next_y, x_next):
            extrapolated += 1
        x = x_next
    assert fired > 0 and extrapolated > 0


def test_fista_spectral_trial_no_slower_on_a_correlated_design(monkeypatch):
    # a Toeplitz design with rho = 0.99: the curvature along the iterates is
    # far from the global bound and changes as the support settles.  At
    # rel_tol 1e-7 both rules stop 2e-11 to 4e-10 above the optimum on this
    # design, so the objectives are compared at 1e-9 (890 iterations against
    # 3,626 when measured)
    problem = _toeplitz_instance(1)
    composite, _ = build_regression_composite(problem, EstimatorConstants(gamma_scale=0.2))
    composite = _gradient_path(composite)
    config = SolverConfig(rel_tol=1e-9)
    spectral = solve_fista(composite, config, np.zeros(problem.d))
    monkeypatch.setattr(solver, "_trial_step", lambda step, dx, dg: solver.STEP_GROWTH * step)
    grown = solve_fista(composite, config, np.zeros(problem.d))
    assert spectral.converged and grown.converged
    assert spectral.iterations <= grown.iterations
    assert spectral.objective == pytest.approx(grown.objective, rel=1e-12, abs=0)


def _toeplitz_instance(seed, rho=0.99, n=500, d=100):
    sigma = rho ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    return make_regression_instance(n, d, SignalSpec(5, 3.0),
                                    NoiseSpec("symmetric_mixture", 0.5), seed, sigma=sigma)


def test_newton_step_solves_the_normal_equations_on_the_support():
    # with h beyond every residual the loss is quadratic everywhere, so the
    # step from x lands where X_S^T X_S b_S = X_S^T y - gamma sign(x_S)
    problem, _ = _regression_instance(seed=74)
    constants = EstimatorConstants(gamma_scale=0.5, huber_h_override=1e6)
    composite, info = build_regression_composite(problem, constants)
    support = np.array([1, 4, 7, 20])
    x = np.zeros(problem.d)
    x[support] = [0.3, -1.2, 2.0, -0.1]
    a = composite.image(x)
    _, d = composite.smooth_eval(a)
    assert np.all(np.abs(problem.y - a) < info["h"])
    point = composite.newton_step(x, d, composite.adjoint(d))
    X_s = problem.X[:, support]
    expected = np.linalg.solve(X_s.T @ X_s, X_s.T @ problem.y - info["gamma"] * np.sign(x[support]))
    np.testing.assert_allclose(point[support], expected, rtol=1e-10, atol=0)
    assert np.count_nonzero(point) == support.size  # zero off the support


def test_newton_step_is_none_for_an_empty_or_underdetermined_support():
    problem, constants = _regression_instance(seed=74)
    composite, info = build_regression_composite(problem, constants)
    x = np.zeros(problem.d)
    _, d = composite.smooth_eval(composite.image(x))
    assert composite.newton_step(x, d, composite.adjoint(d)) is None
    # every residual beyond h: no row is in the quadratic zone
    saturated = np.full(problem.n, info["h"])
    x[3] = 1.0
    assert composite.newton_step(x, saturated, composite.adjoint(saturated)) is None


@pytest.mark.parametrize("proposal", ["flips_a_sign", "raises_the_objective"])
def test_fista_refuses_and_counts_a_bad_newton_point(proposal):
    # a refused point leaves the iterates alone: the solve ends where the
    # prox-gradient iterations alone end, one iteration later per try
    problem, constants = _regression_instance()
    composite, _ = build_regression_composite(problem, constants)
    config = SolverConfig(rel_tol=1e-9)
    images = {"plain": 0, "refusing": 0}
    tries = []

    def counting_image(key):
        def image(x):
            images[key] += 1
            return composite.image(x)
        return image

    def bad_point(x, d, g):
        tries.append(1)
        return -x if proposal == "flips_a_sign" else 10.0 * x

    plain = solve_fista(replace(composite, newton_step=None, image=counting_image("plain")),
                        config, np.zeros(problem.d))
    result = solve_fista(replace(composite, newton_step=bad_point,
                                 image=counting_image("refusing")), config, np.zeros(problem.d))
    assert tries and result.rejected == len(tries)
    assert result.iterations == plain.iterations + len(tries)
    assert np.array_equal(result.point, plain.point) and result.objective == plain.objective
    # a sign change is refused before the image is taken, a rise after it
    taken = 0 if proposal == "flips_a_sign" else len(tries)
    assert images["refusing"] == images["plain"] + taken


def test_fista_objective_never_rises_on_the_accept04_instances():
    # the max_iters = k solve is the first k iterations of the full one; a
    # kept Newton step, like a prox-gradient iteration, never raises the
    # objective beyond RESTART_MARGIN times its size
    shortened = 0
    for name in ("accept04_regression_n.ini", "accept04_regression_alpha.ini"):
        spec = ExperimentSpec.from_config(CONFIG_DIR / name)
        for _, trial, p, seed in spec.trials():
            if trial != 0:
                continue
            problem = build_instance(spec, p, seed)
            composite, _ = build_regression_composite(problem, spec.constants)
            start = np.zeros(problem.d)
            full = solve_fista(composite, spec.solver, start)
            plain = solve_fista(_gradient_path(composite), spec.solver, start)
            shortened += full.iterations - full.rejected < plain.iterations
            h = np.array([
                solve_fista(composite, replace(spec.solver, max_iters=k), start).objective
                for k in range(1, full.iterations + 1)
            ])
            assert h[-1] == full.objective
            assert np.all(np.diff(h) <= solver.RESTART_MARGIN * np.abs(h[:-1]))
    assert shortened > 0  # a kept Newton step cut the iterations somewhere


def test_fista_stop_on_an_ill_conditioned_design_lands_at_the_optimum():
    # Toeplitz rho = 0.99: the prox-gradient iterations alone stopped 8.8e-10
    # above the optimum at rel_tol 1e-7; the Newton step lands on it once the
    # support has settled.  The reference solves without the Newton step.
    composite, _ = build_regression_composite(_toeplitz_instance(2),
                                              EstimatorConstants(gamma_scale=0.2))
    start = np.zeros(composite.shape)
    reference = solve_fista(_gradient_path(composite), SolverConfig(200_000, 1e-13), start)
    result = solve_fista(composite, SolverConfig(rel_tol=1e-7), start)
    assert reference.converged and result.converged
    assert result.objective - reference.objective <= 1e-13 * abs(reference.objective)


# ---------------------------------------------------------------------------
# solve_split


def test_split_recovers_feasible_target_without_penalty():
    rng = np.random.default_rng(35)
    u = rng.standard_normal(6)
    v = rng.standard_normal(6)
    Y = np.outer(u, v)
    Y /= np.max(np.abs(Y)) * 2  # strictly inside the box
    problem = pca_composite(Y, 2.0, 0.0, 1.0)
    result = solve_split(problem, SolverConfig(rel_tol=1e-10, max_iters=5000), np.zeros((6, 6)))
    assert np.linalg.norm(result.point - Y) <= 1e-6


def test_split_beats_grid_search_on_2x2_instance():
    rng = np.random.default_rng(36)
    radius = 1.0
    Y = rng.standard_normal((2, 2))
    gamma = 0.8
    h = 1.5
    problem = pca_composite(Y, h, gamma, radius)
    result = solve_split(problem, SolverConfig(rel_tol=1e-11, max_iters=20000), np.zeros((2, 2)))

    grid = np.linspace(-radius, radius, 41)
    L11, L12, L21, L22 = np.meshgrid(grid, grid, grid, grid, indexing="ij")

    def pen(t):
        a = np.abs(t)
        m = np.minimum(a, h)
        return 0.5 * m * m + h * (a - m)

    objs = (
        pen(Y[0, 0] - L11) + pen(Y[0, 1] - L12) + pen(Y[1, 0] - L21) + pen(Y[1, 1] - L22)
        + gamma * nuclear_2x2(L11, L12, L21, L22)
    )
    assert result.objective <= float(objs.min()) + 1e-4


def test_split_output_always_feasible():
    rng = np.random.default_rng(37)
    for trial in range(3):
        Y = rng.standard_normal((5, 5)) * 10
        problem = pca_composite(Y, 1.0, 0.5, 0.7)
        result = solve_split(problem, SolverConfig(rel_tol=1e-8, max_iters=2000), np.zeros((5, 5)))
        assert np.max(np.abs(result.point)) <= 0.7 + 1e-12


def test_split_requires_box():
    problem = regression_composite(np.eye(2), np.zeros(2), 2.0, 0.0)
    with pytest.raises(ValueError):
        solve_split(problem, SolverConfig(), np.zeros(2))


def test_fista_rejects_box():
    problem = pca_composite(np.eye(2), 1.0, 0.3, 1.0)
    with pytest.raises(ValueError):
        solve_fista(problem, SolverConfig(), np.zeros((2, 2)))


def test_split_deterministic():
    rng = np.random.default_rng(39)
    Y = rng.standard_normal((4, 4))
    problem = pca_composite(Y, 1.0, 0.3, 1.0)
    cfg = SolverConfig(rel_tol=1e-9, max_iters=2000)
    r1 = solve_split(problem, cfg, np.zeros((4, 4)))
    r2 = solve_split(problem, cfg, np.zeros((4, 4)))
    assert r1.iterations == r2.iterations
    assert r1.objective == r2.objective
    assert r1.point.tobytes() == r2.point.tobytes()


def test_split_reports_convergence():
    rng = np.random.default_rng(40)
    Y = rng.standard_normal((5, 5))
    problem = pca_composite(Y, 1.0, 0.3, 1.0)
    capped = solve_split(problem, SolverConfig(max_iters=1), np.zeros((5, 5)))
    assert capped.iterations == 1
    assert capped.converged is False
    assert capped.stop_reason == "cap"
    done = solve_split(problem, SolverConfig(rel_tol=1e-8, max_iters=5000), np.zeros((5, 5)))
    assert done.iterations < 5000
    assert done.converged is True
    assert done.stop_reason == "tolerance"
    assert type(done.residual) is float and done.residual <= 1e-8


def test_split_stays_at_box_active_optimum_through_step_changes():
    # Two separable coordinates, box [-1, 1], f = sum w_i (x_i - y_i)^2 / 2,
    # g = sum gam_i |x_i|.  Coordinate 0 starts at its splitting fixed point:
    # x* = 1 on the box face, box multiplier u = y - x* - gam = 3.5, so
    # z = x* + step * u.  Coordinate 1 starts beyond the opposite face, which
    # makes the step change.  Every number is exact in binary, so coordinate
    # 0 must stay at 1.0 in every prox output and every projected iterate;
    # a step change that did not rescale z would move it.
    w, y, gam = np.array([1.0, 0.5]), np.array([5.0, 2.0]), np.array([0.5, 0.2])
    steps, prox_out, evaluated = [], [], []

    def smooth_eval(x):
        evaluated.append(x[0])
        return 0.5 * float(np.sum(w * (x - y) ** 2)), w * (x - y)

    def prox(v, t):
        steps.append(t)
        out = np.sign(v) * np.maximum(np.abs(v) - t * gam, 0.0)
        prox_out.append(out[0])
        return out

    problem = CompositeProblem(
        smooth_eval=smooth_eval,
        prox=prox,
        reg_value=lambda x: float(np.sum(gam * np.abs(x))),
        shape=(2,),
        constraint=MaxNormBall(1.0),
    )
    result = solve_split(problem, SolverConfig(rel_tol=1e-12, max_iters=100),
                         np.array([1.0 + 3.5, -10.0]))
    assert result.converged is True
    changes = sum(1 for a, b in zip(steps, steps[1:]) if a != b)
    assert changes >= 2  # the step changed at least twice
    assert result.step == steps[-1] < 1.0
    assert set(prox_out) == {1.0}
    assert set(evaluated) == {1.0}
    np.testing.assert_array_equal(result.point, [1.0, 1.0])


def _pca_config_instance(config, seed, point, trial, **params):
    spec = ExperimentSpec.from_config(CONFIG_DIR / config, seed=seed)
    p = dict(spec.params)
    p.update(params)
    return spec, build_instance(spec, p, trial_seed(spec.seed, point, trial))


def test_split_adaptive_step_no_worse_than_fixed_step(monkeypatch):
    # accept05_pca_n at n=50, trial 0: objective about 4.7e7
    spec, problem = _pca_config_instance("accept05_pca_n.ini", None, 0, 0, n=50)
    config = replace(spec.solver, rel_tol=1e-5)
    thresholds = []  # step * gamma of each prox call

    def recording_prox(M, threshold):
        thresholds.append(threshold)
        return prox_nuclear(M, threshold)

    with monkeypatch.context() as m:
        m.setattr(estimators, "prox_nuclear", recording_prox)
        _, adaptive = estimate_pca(problem, spec.constants, config)
    _, reference = estimate_pca(problem, spec.constants,
                                replace(config, rel_tol=1e-10, max_iters=20_000))
    monkeypatch.setattr(solver, "MAX_STEP_CHANGES", 0)
    _, fixed = estimate_pca(problem, spec.constants, config)
    assert fixed.step == 1.0  # 1/lipschitz of the PCA composite
    assert adaptive.converged and fixed.converged and reference.converged
    assert len(set(thresholds)) > 1  # balancing changed the step during the solve
    # 145 without the Anderson step, 78 at memory 1, 70 at memory 3 (75 fixed)
    assert adaptive.iterations <= 100
    assert adaptive.iterations < fixed.iterations
    # measured gaps to the reference: 1.7e-10 (adaptive), 1.7e-10 (fixed)
    assert adaptive.objective - reference.objective <= 1e-9 * abs(reference.objective)
    assert fixed.objective - reference.objective <= 1e-9 * abs(reference.objective)


def test_split_converges_on_pca_case_that_hit_the_cap():
    # accept05_pca_alpha, alpha 0.8 (grid point 1).  At seed 1, trial 1, the
    # solve at the fixed step 1 stopped at the 1500-iteration cap; at the
    # config seed, trial 0, an Anderson step of memory 10 without a safeguard
    # did.
    for seed, trial in [(1, 1), (None, 0)]:
        spec, problem = _pca_config_instance("accept05_pca_alpha.ini", seed, 1, trial, alpha=0.8)
        assert (problem.n, spec.solver.max_iters) == (100, 1500)
        _, result = estimate_pca(problem, spec.constants, spec.solver)
        assert result.converged is True
        assert result.stop_reason == "tolerance"
        assert result.iterations < 1500


def test_split_safeguard_refuses_every_anderson_point(monkeypatch):
    # with a safeguard factor of 0 every extrapolated point is refused and the
    # solve falls back to the plain image each time; the refused evaluations
    # are iterations, so iterations still counts prox calls.  A refusal and a
    # step change clear the memory, so the evaluation after either is followed
    # by its own plain image T z = z + x_a - x_b.
    rng = np.random.default_rng(44)
    problem = pca_composite(rng.standard_normal((5, 5)) * 3, 1.0, 0.3, 1.0)
    plain_prox, calls = problem.prox, []  # (step, x_a) of each evaluation

    def counting_prox(v, t):
        x_a = plain_prox(v, t)
        calls.append((t, x_a.copy()))
        return x_a

    projected = []  # each z solve_split projects: the start, then one per evaluation

    def recording_project(z, ball):
        projected.append(z.copy())
        return project_maxnorm(z, ball)

    problem.prox = counting_prox
    monkeypatch.setattr(solver, "project_maxnorm", recording_project)
    monkeypatch.setattr(solver, "SAFEGUARD_FACTOR", 0.0)
    result = solve_split(problem, SolverConfig(rel_tol=1e-8, max_iters=5000), np.zeros((5, 5)))
    assert result.converged is True
    assert result.rejected > 0
    assert result.iterations == len(calls) == len(projected) - 1
    assert result.objective == composite_objective(problem, result.point)

    # replay: the z each evaluation started from, and its plain image
    images, clear, came_from, refused, changes = [], True, None, 0, 0
    for i, (t, x_a) in enumerate(calls):
        z = projected[i].copy()
        x_b = project_maxnorm(z, problem.constraint)
        if i and t != calls[i - 1][0]:  # a step change rescaled z about x_b
            z -= x_b
            z *= t / calls[i - 1][0]
            z += x_b
            changes += 1
            clear, came_from = True, None
        z += x_a - x_b
        images.append(z)
        if clear:  # accepted with a clear memory: the next point is plain
            assert np.array_equal(projected[i + 1], images[i])
            clear = False
        elif came_from is not None:  # an Anderson point, refused
            assert np.array_equal(projected[i + 1], images[came_from])
            refused += 1
            clear, came_from = True, None
        elif not np.array_equal(projected[i + 1], images[i]):
            came_from = i  # the next point is extrapolated from this one
    assert refused == result.rejected
    assert changes > 0


@pytest.mark.parametrize("memory", [1, 2, 3])
def test_anderson_history_keeps_its_gram_incrementally(memory):
    # the splitting's use of the history on a linear map T z = A z + b: z is
    # overwritten by T z and handed to the step, which returns the next z.
    # After 2 memory + 2 pairs the ring of slots has wrapped; the history
    # still owns the buffers it started with, its Gram, kept by adding the
    # products of each new difference, is dF^T dF of the stored differences,
    # gamma is the least-squares fit of f, and the step is T z - dG gamma
    # (with memory 1, T z - gamma (T z - T z_prev), gamma = <df, f>/<df, df>)
    rng = np.random.default_rng(45)
    shape = (6, 4)
    A = rng.standard_normal((24, 24))
    A *= 0.9 / np.linalg.norm(A, 2)
    b = rng.standard_normal(24)
    z = rng.standard_normal(shape)
    history = solver._AndersonHistory(shape, memory)
    buffers = {id(a) for a in history.df + history.dg + [z]}

    def evaluate(z):
        tz = (A @ z.ravel() + b).reshape(shape)
        f = tz - z
        z[...] = tz
        return f

    history.hold(evaluate(z), z)
    for _ in range(2 * memory + 1):
        z, extrapolated = history.step(evaluate(z), z)
        assert extrapolated
    assert {id(a) for a in history.df + history.dg + [z]} == buffers

    f = evaluate(z)
    z_next, _ = copy.deepcopy(history).step(f, z.copy())
    held = history._extend(f, z)
    assert len(held) == memory
    dF = np.stack([history.df[j].ravel() for j in held], axis=1)
    dG = np.stack([history.dg[j].ravel() for j in held], axis=1)
    gram = history.gram[np.ix_(held, held)]
    np.testing.assert_allclose(gram, dF.T @ dF, rtol=1e-12, atol=1e-12 * np.abs(gram).max())
    gamma = history._coefficients(held)
    np.testing.assert_allclose(gamma, np.linalg.lstsq(dF, f.ravel(), rcond=None)[0], rtol=1e-9)
    np.testing.assert_allclose(z_next.ravel(), z.ravel() - dG @ gamma, rtol=1e-12, atol=1e-12)


def test_split_allocates_its_memory_once():
    # one accept05_pca_n instance at n = 100, measured after a warm-up solve
    # (numpy's first calls allocate caches of their own).  The traced peak of
    # solve_split does not grow with the iterations, and the memory of m pairs
    # adds at most the 2 (m - 1) n x n arrays of its extra pairs to the peak
    # of the memory-1 step it replaced, 9.1 arrays, less the x_b that the
    # solve frees while the prox runs (the peak was 13.04 arrays with it held,
    # 12.04 without, at m = 3).  The slack of 1/16 of an array covers the
    # Gram and the interpreter's own allocations.
    spec, problem = _pca_config_instance("accept05_pca_n.ini", None, 0, 0, n=100)
    composite, _ = build_pca_composite(problem, spec.constants)
    start = project_maxnorm(problem.Y, composite.constraint)
    array = problem.Y.nbytes

    def peak(max_iters):
        tracemalloc.start()
        try:
            result = solve_split(composite, SolverConfig(max_iters, 1e-14), start)
            assert result.iterations == max_iters
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(5)
    short, long = peak(20), peak(200)
    assert abs(long - short) <= array / 16
    assert long <= (8.1 + 2 * (solver.ANDERSON_MEMORY - 1) + 1 / 16) * array


def test_split_recovers_from_a_transient_step_halving(monkeypatch):
    # f = 0.05 (x - 0.3)^2 / 2, g = 0, box [-1, 1], start z = 10: while z is
    # outside the box x_b does not move, so balancing halves the step on the
    # first iteration.  Without acceleration that made the solve slower than
    # at the fixed step (778 iterations against 385); it must not be.
    problem = CompositeProblem(
        smooth_eval=lambda x: (0.025 * float(np.sum((x - 0.3) ** 2)), 0.05 * (x - 0.3)),
        prox=lambda v, t: v,
        reg_value=lambda x: 0.0,
        shape=(1,),
        constraint=MaxNormBall(1.0),
    )
    config = SolverConfig(rel_tol=1e-10)
    adaptive = solve_split(problem, config, np.array([10.0]))
    monkeypatch.setattr(solver, "MAX_STEP_CHANGES", 0)
    fixed = solve_split(problem, config, np.array([10.0]))
    assert adaptive.converged and fixed.converged
    assert adaptive.iterations <= fixed.iterations
    np.testing.assert_allclose(adaptive.point, [0.3], atol=1e-8)


# ---------------------------------------------------------------------------
# both solvers


def _fista_case():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((30, 4))
    y = X @ rng.standard_normal(4) + rng.standard_normal(30)
    return solve_fista, regression_composite(X, y, 2.0, 1.0, np.linalg.norm(X, 2) ** 2), (4,)


def _split_case():
    rng = np.random.default_rng(43)
    return solve_split, pca_composite(rng.standard_normal((5, 5)) * 3, 1.0, 0.3, 1.0), (5, 5)


@pytest.mark.parametrize("case", [_fista_case, _split_case])
@pytest.mark.parametrize("config, stop_reason", [
    (SolverConfig(max_iters=3), "cap"),
    (SolverConfig(rel_tol=1e-8, max_iters=5000), "tolerance"),
])
def test_objective_is_the_returned_points(case, config, stop_reason):
    solve, problem, shape = case()
    result = solve(problem, config, np.zeros(shape))
    assert result.stop_reason == stop_reason
    assert result.objective == composite_objective(problem, result.point)


# ---------------------------------------------------------------------------
# certify_against_reference


def test_certify_trivial_equality():
    problem = regression_composite(np.eye(2), np.ones(2), 2.0, 1.0)
    x = np.array([0.1, 0.2])
    assert certify_against_reference(problem, x, x) is True


def test_certify_minimizer_dominates_truth():
    rng = np.random.default_rng(40)
    X = rng.standard_normal((30, 3))
    beta = np.array([1.0, 0.0, -0.5])
    y = X @ beta + 0.05 * rng.standard_normal(30)
    problem = regression_composite(X, y, 2.0, 0.5, np.linalg.norm(X, 2) ** 2)
    result = solve_fista(problem, SolverConfig(rel_tol=1e-10), np.zeros(3))
    assert certify_against_reference(problem, result.point, beta) is True


def test_certify_rejects_far_perturbation():
    rng = np.random.default_rng(41)
    X = rng.standard_normal((30, 3))
    beta = np.array([1.0, 0.0, -0.5])
    y = X @ beta + 0.05 * rng.standard_normal(30)
    problem = regression_composite(X, y, 2.0, 0.5)
    assert certify_against_reference(problem, beta + 10.0, beta) is False


def test_certify_enforces_feasibility():
    Y = np.zeros((2, 2))
    problem = pca_composite(Y, 1.0, 0.1, 0.5)
    good = np.zeros((2, 2))
    bad = np.full((2, 2), 2.0)
    with pytest.raises(ValueError):
        certify_against_reference(problem, bad, good)
    with pytest.raises(ValueError):
        certify_against_reference(problem, good, bad)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=1e3)
    with pytest.raises(ValueError):
        SolverConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(rel_tol="abc")
    with pytest.raises(ValueError):
        SolverConfig(rel_tol=True)
