"""Tests for the weak-recovery phase experiment and its noise-law algebra."""

import numpy as np
import pytest

import robust_huber
from robust_huber import EstimatorConstants, SolverConfig
from robust_huber.datagen import lb_alpha_of_xi, lb_xi_of_alpha, trial_seed
from robust_huber.experiments import (
    ExperimentSpec,
    ResultRow,
    build_instance,
    run_experiment,
    scenario_assertions,
)
from robust_huber.lowerbound import phase_instance, phase_trial

FAST = SolverConfig(max_iters=150, rel_tol=1e-4)
PHASE_CONSTANTS = EstimatorConstants(gamma_scale=2.0, huber_h_override=3.0)


def phase_spec(**overrides):
    kw = dict(
        scenario="lowerbound_phase",
        grid={"alpha": [0.05, 0.25]},
        params={"n": 40, "r": 1, "epsilon": 0.5},
        trials_per_point=2,
        seed=7,
        constants=PHASE_CONSTANTS,
        solver=FAST,
    )
    kw.update(overrides)
    return ExperimentSpec(**kw)


def test_phase_spec_validation():
    phase_spec()
    with pytest.raises(ValueError, match="epsilon"):
        phase_spec(params={"n": 40, "r": 1})
    with pytest.raises(ValueError, match="xi"):
        phase_spec(params={"n": 40, "r": 1, "epsilon": 0.5, "xi": 0.5})
    with pytest.raises(ValueError):
        phase_spec(trials_per_point=0)


def test_alpha_of_xi_worked_example():
    # n=4, r=1, xi=1/2: a = (1/2) / (2*2 - 1/2) = 1/7
    assert lb_alpha_of_xi(4, 1, 0.5) == pytest.approx(1.0 / 7.0, rel=1e-15)


def test_alpha_of_xi_small_xi_limit():
    # a ~ xi*sqrt(r)/(2*sqrt(n)) as xi -> 0
    n, r, xi = 100, 4, 1e-6
    assert lb_alpha_of_xi(n, r, xi) == pytest.approx(
        xi * np.sqrt(r) / (2.0 * np.sqrt(n)), rel=1e-5
    )


def test_alpha_of_xi_range():
    for n, r, xi in [(4, 1, 0.5), (100, 2, 1.0), (50, 1, 7.0)]:
        a = lb_alpha_of_xi(n, r, xi)
        assert 0.0 < a < 1.0


def test_xi_alpha_round_trip():
    n, r = 400, 1
    for alpha in (0.01, 0.1, 0.5, 0.9):
        xi = lb_xi_of_alpha(n, r, alpha)
        assert lb_alpha_of_xi(n, r, xi) == pytest.approx(alpha, rel=1e-12)


def test_xi_of_alpha_rejects_boundary():
    for alpha in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            lb_xi_of_alpha(100, 1, alpha)


def test_phase_trial_record_and_determinism():
    problem = phase_instance(40, 1, 0.25, 12345)
    rel_error, result = phase_trial(problem, PHASE_CONSTANTS, FAST)
    assert rel_error >= 0.0
    assert result.iterations >= 1
    assert result.reference_dominated is not None
    again, again_result = phase_trial(phase_instance(40, 1, 0.25, 12345), PHASE_CONSTANTS, FAST)
    assert again == rel_error
    assert again_result.iterations == result.iterations


def test_lowerbound_keeps_no_copy_of_the_xi_maps():
    from robust_huber import datagen, lowerbound

    for name in ("lb_alpha_of_xi", "lb_xi_of_alpha"):
        assert not hasattr(lowerbound, name)
        assert getattr(robust_huber, name) is getattr(datagen, name)


def test_phase_row_builds_the_trial_instance():
    spec = phase_spec()
    p = {**spec.params, "alpha": 0.25}
    built = build_instance(spec, p, 12345)
    drawn = phase_instance(40, 1, 0.25, 12345)
    assert np.array_equal(built.Y, drawn.Y)
    assert np.array_equal(built.L_star, drawn.L_star)


def test_phase_sweep_through_runner():
    rows = run_experiment(phase_spec())
    assert [(r.point["alpha"], r.trial) for r in rows] == [
        (0.05, 0), (0.05, 1), (0.25, 0), (0.25, 1)
    ]
    for row in rows:
        assert not row.error
        assert row.metrics["rel_error"] >= 0.0
        assert row.flags["success"] == (row.metrics["rel_error"] <= 0.5)
    # trial t at grid point i solves the instance its table row builds from its seed
    spec = phase_spec()
    problem = build_instance(spec, {**spec.params, "alpha": 0.25}, trial_seed(7, 1, 1))
    rel_error, result = phase_trial(problem, PHASE_CONSTANTS, FAST)
    assert rows[3].metrics["rel_error"] == rel_error
    assert rows[3].iterations == result.iterations


def test_phase_success_fraction_arithmetic():
    def row(alpha, trial, success):
        return ResultRow(
            scenario="lowerbound_phase", point={"alpha": alpha}, trial=trial,
            metrics={"rel_error": 0.2 if success else 1.0}, iterations=1,
            flags={"success": success},
        )

    rows = [row(0.1, 0, True), row(0.1, 1, False), row(0.05, 0, False)]
    checks = {name: (ok, detail) for name, ok, detail in scenario_assertions(phase_spec(), rows)}
    assert checks["phase_low_alpha"] == (True, "success 0.000 <= 0.5")
    assert checks["phase_high_alpha"] == (False, "success 0.500 >= 0.9")
    assert checks["phase_monotone"][0] is True
