"""Solver tests: closed-form and grid-search oracles, monotonicity,
feasibility, determinism, the adaptive splitting step, and the
reference-domination certificate."""

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
    huber_loss_grad,
    make_regression_instance,
    project_maxnorm,
    prox_l1,
    prox_nuclear,
)
from robust_huber import estimators, solver
from robust_huber.datagen import trial_seed
from robust_huber.estimators import build_regression_composite, estimate_pca
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
    problem = regression_composite(X, y, 2.0, 0.7, np.linalg.norm(X, 2) ** 2)
    cfg = SolverConfig(rel_tol=1e-9)
    r1 = solve_fista(problem, cfg, np.zeros(3))
    r2 = solve_fista(problem, cfg, np.zeros(3))
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
    composite, _ = build_regression_composite(problem, constants)
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
    assert adaptive.iterations <= 100  # 145 without the Anderson step, 78 with it
    assert adaptive.iterations < fixed.iterations
    assert adaptive.objective <= fixed.objective
    # measured gaps to the reference: 2.1e-10 (adaptive), 2.2e-10 (fixed)
    assert adaptive.objective - reference.objective <= 1e-9 * abs(reference.objective)


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
    # are iterations, so iterations still counts prox calls
    rng = np.random.default_rng(44)
    problem = pca_composite(rng.standard_normal((5, 5)) * 3, 1.0, 0.3, 1.0)
    plain_prox, calls = problem.prox, []

    def counting_prox(v, t):
        calls.append(t)
        return plain_prox(v, t)

    problem.prox = counting_prox
    monkeypatch.setattr(solver, "SAFEGUARD_FACTOR", 0.0)
    result = solve_split(problem, SolverConfig(rel_tol=1e-8, max_iters=5000), np.zeros((5, 5)))
    assert result.converged is True
    assert result.rejected > 0
    assert result.iterations == len(calls)
    assert result.objective == composite_objective(problem, result.point)


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
