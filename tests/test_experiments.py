"""Tests for the batch experiment runner: specs, CSV round trips, scenario
assertions, reports, and the command-line front end."""

import csv
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from robust_huber import EstimatorConstants, LowRankCone, RegressionProblem, SolverConfig
from robust_huber.datagen import VECTOR_NOISE_FAMILIES, trial_seed
from robust_huber.cli import EXIT_ASSERT, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from robust_huber import experiments
from robust_huber.experiments import (
    ExperimentSpec,
    ResultRow,
    build_instance,
    emit_csv,
    emit_report,
    fit_loglog_slope,
    grid_points,
    median_by_point,
    run_experiment,
    run_trial,
    scenario_assertions,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

FAST_SOLVER = SolverConfig(max_iters=500, rel_tol=1e-5)


def tiny_regression_spec(**overrides):
    kw = dict(
        scenario="regression_n_sweep",
        grid={"n": [30]},
        params={"d": 8, "k": 2, "alpha": 0.8, "magnitude": 3.0},
        trials_per_point=2,
        seed=5,
        constants=EstimatorConstants(gamma_scale=2.0),
        solver=FAST_SOLVER,
    )
    kw.update(overrides)
    return ExperimentSpec(**kw)


def rows_from(scenario, x_field, pairs, y_field, flags=None, trials_per_x=1):
    rows = []
    for x, y in pairs:
        for t in range(trials_per_x):
            rows.append(
                ResultRow(
                    scenario=scenario,
                    point={x_field: x},
                    trial=t,
                    metrics={y_field: y},
                    iterations=5,
                    flags=dict(flags or {}),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# spec construction


def test_grid_points_ordering():
    pts = grid_points({"b": [1, 2], "a": [3]})
    assert pts == [{"a": 3, "b": 1}, {"a": 3, "b": 2}]
    assert grid_points({"n": [5, 1]}) == [{"n": 5}, {"n": 1}]


def test_spec_validation():
    with pytest.raises(ValueError):
        tiny_regression_spec(scenario="nope")
    with pytest.raises(ValueError):
        tiny_regression_spec(grid={})
    with pytest.raises(ValueError):
        tiny_regression_spec(grid={"n": []})
    # equal values would run two trials under one CSV label
    for values in ([30, 30], [30, 40, 30.0]):
        with pytest.raises(ValueError, match="n_grid must list distinct values"):
            tiny_regression_spec(grid={"n": values})
    with pytest.raises(ValueError):
        tiny_regression_spec(trials_per_point=0)
    # nothing reads a confidence level delta, so it is an unknown key
    with pytest.raises(ValueError, match="delta"):
        tiny_regression_spec(params={"d": 8, "k": 2, "alpha": 0.8, "delta": 0.05})


def test_noise_family_names_follow_the_instance_family():
    spec = tiny_regression_spec(
        scenario="pca_n_sweep", grid={"n": [20]},
        params={"r": 1, "alpha": 0.9, "noise_family": "lb_geometric_even"},
    )
    assert build_instance(spec, next(spec.trials())[2], 1).Y.shape == (20, 20)
    for name in VECTOR_NOISE_FAMILIES:
        tiny_regression_spec(params={"d": 8, "k": 2, "alpha": 0.8, "noise_family": name})
    # lb_geometric_even is a law of the whole noise matrix: no regression draws it
    for name in ("lb_geometric_even", "gausian"):
        with pytest.raises(ValueError, match=f"noise_family must be one of .*'{name}'"):
            tiny_regression_spec(params={"d": 8, "k": 2, "alpha": 0.8, "noise_family": name})


def test_result_row_validation():
    good = dict(
        scenario="pca_n_sweep", point={"n": 4}, trial=0,
        metrics={"frobenius_error": 1.0}, iterations=3, flags={},
    )
    ResultRow(**good)
    with pytest.raises(ValueError):
        ResultRow(**{**good, "trial": -1})
    with pytest.raises(ValueError):
        ResultRow(**{**good, "metrics": {"frobenius_error": float("nan")}})
    with pytest.raises(ValueError):
        ResultRow(**{**good, "metrics": {"frobenius_error": float("inf")}})
    # an error tag suspends the metric checks
    ResultRow(**{**good, "metrics": {}, "error": "RuntimeError: boom"})


def test_from_config_all_shipped_files():
    expected = {
        "accept04_regression_n.ini": "regression_n_sweep",
        "accept04_regression_alpha.ini": "regression_alpha_sweep",
        "accept05_pca_n.ini": "pca_n_sweep",
        "accept05_pca_alpha.ini": "pca_alpha_sweep",
        "accept06_meta_regression.ini": "meta_certificate",
        "accept06_meta_pca.ini": "meta_certificate",
        "accept10_phase.ini": "lowerbound_phase",
        "demo_gaussian_design.ini": "regression_gaussian_design",
        "demo_matrix_completion.ini": "matrix_completion",
    }
    found = {p.name for p in CONFIG_DIR.glob("*.ini")}
    assert found == set(expected)
    for name, scenario in expected.items():
        spec = ExperimentSpec.from_config(CONFIG_DIR / name)
        assert spec.scenario == scenario
        assert spec.grid and spec.trials_per_point >= 1


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.ini")))
def test_checked_in_instances_have_the_configured_structure(name):
    # the certificate's s reads k and the rank off the truth, so the truth a
    # maker draws must keep the config's k and r: trial 0 of every grid point
    spec = ExperimentSpec.from_config(CONFIG_DIR / name)
    for point, trial, p, seed in spec.trials():
        if trial:
            continue
        problem = build_instance(spec, p, seed)
        p = experiments.SCENARIOS[spec.scenario].resolve(p)
        if isinstance(problem, RegressionProblem):
            assert problem.k == p["k"], point
        else:
            assert LowRankCone.from_truth(problem.L_star).rank == p["r"], point


def test_from_config_field_routing():
    spec = ExperimentSpec.from_config(CONFIG_DIR / "accept10_phase.ini")
    assert spec.grid["alpha"] == [0.01, 0.025, 0.05, 0.1, 0.25]
    assert spec.params["epsilon"] == 0.5
    assert spec.trials_per_point == 11
    assert spec.seed == 20260823
    assert spec.constants.huber_h_override == 3.0
    assert spec.constants.gamma_scale == 2.0
    assert spec.solver.max_iters == 250
    assert spec.solver.rel_tol == 1e-4


def test_from_config_overrides_and_errors(tmp_path):
    path = tmp_path / "regression.ini"
    path.write_text(
        "[regression_n_sweep]\n"
        "n_grid = 10 20  # inline comment\n"
        "d = 4\nk = 1\nalpha = 0.8\n"
    )
    spec = ExperimentSpec.from_config(path)
    assert spec.scenario == "regression_n_sweep"
    assert spec.grid["n"] == [10, 20]
    assert spec.params["d"] == 4
    assert ExperimentSpec.from_config(path, seed=99).seed == 99
    with pytest.raises(OSError):
        ExperimentSpec.from_config(tmp_path / "does_not_exist.ini")
    empty = tmp_path / "empty_grid.ini"
    empty.write_text("[regression_n_sweep]\nn_grid =\nd = 4\n")
    with pytest.raises(ValueError):
        ExperimentSpec.from_config(empty)


# ---------------------------------------------------------------------------
# running experiments


def test_run_experiment_rows():
    rows = run_experiment(tiny_regression_spec())
    assert len(rows) == 2
    for row in rows:
        assert row.scenario == "regression_n_sweep"
        assert row.point == {"n": 30}
        assert not row.error
        assert set(row.metrics) == {"prediction_error_sq", "parameter_error_sq"}
        assert row.iterations >= 1
        assert "dominated" in row.flags
    assert [r.trial for r in rows] == [0, 1]


def test_spec_trials_order_seeds_and_rows():
    # magnitude has a default and is swept; the rows come back in trials() order
    spec = tiny_regression_spec(
        scenario="regression_alpha_sweep",
        grid={"alpha": [0.8, 0.9], "magnitude": [2.0, 3.0]},
        params={"n": 30, "d": 8, "k": 2},
        trials_per_point=2,
        seed=11,
    )
    trials = list(spec.trials())
    expected = [
        (point, t, {**spec.params, **point}, trial_seed(11, i, t))
        for i, point in enumerate(grid_points(spec.grid))
        for t in range(2)
    ]
    assert trials == expected
    assert [(pt, t) for pt, t, _, _ in trials[:3]] == [
        ({"alpha": 0.8, "magnitude": 2.0}, 0),
        ({"alpha": 0.8, "magnitude": 2.0}, 1),
        ({"alpha": 0.8, "magnitude": 3.0}, 0),
    ]
    rows = run_experiment(spec)
    assert [(r.point, r.trial) for r in rows] == [(pt, t) for pt, t, _, _ in trials]
    # each row solved its trial's instance
    _, _, p, seed = trials[-1]
    _, metrics = experiments.solve_instance(spec, experiments.build_instance(spec, p, seed))
    assert rows[-1].metrics == metrics


def test_run_experiment_deterministic_and_parallel_identical(tmp_path):
    spec = tiny_regression_spec()
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    emit_csv(run_experiment(spec), paths[0])
    emit_csv(run_experiment(spec), paths[1])
    emit_csv(run_experiment(spec, threads=2), paths[2])
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_run_experiment_captures_trial_errors():
    spec = ExperimentSpec(
        scenario="meta_certificate",
        grid={"instance": [0]},
        params={"family": "pca", "n": 16, "r": 1, "alpha": 0.9, "l_scale": 1.0},
        trials_per_point=1,
        seed=9,
        constants=EstimatorConstants(gamma_scale=2.0),
        solver=SolverConfig(max_iters=200, rel_tol=1e-4),
    )
    rows = run_experiment(spec)
    assert len(rows) == 1
    assert rows[0].error.startswith("RscSamplingError")
    assert rows[0].metrics == {}
    checks = dict_checks(scenario_assertions(spec, rows))
    assert checks["no_trial_errors"] is False
    assert checks["conditions_all_instances"] is False


def break_trials(monkeypatch, scenario):
    """Make every trial of `scenario` raise a TypeError, as a bug would."""

    def broken(spec, p, instance_seed):
        raise TypeError("bug in a metrics helper")

    row = dataclasses.replace(experiments.SCENARIOS[scenario], trial=broken)
    monkeypatch.setitem(experiments.SCENARIOS, scenario, row)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_experiment_raises_programming_errors(monkeypatch, threads):
    break_trials(monkeypatch, "regression_n_sweep")
    spec = tiny_regression_spec(grid={"n": [30, 40]}, trials_per_point=3)
    with pytest.raises(TypeError, match="bug in a metrics helper"):
        run_experiment(spec, threads=threads)


def test_build_instance_unknown_family():
    # the family is checked when the spec is made, before any instance is built
    with pytest.raises(ValueError, match="bogus"):
        ExperimentSpec(
            scenario="meta_certificate",
            grid={"instance": [0]},
            params={"family": "bogus", "n": 20, "alpha": 0.9},
            trials_per_point=1,
        )


def test_spec_rejects_unknown_and_missing_keys():
    with pytest.raises(ValueError, match="max_iter"):
        tiny_regression_spec(params={"d": 8, "k": 2, "alpha": 0.8, "max_iter": 100})
    with pytest.raises(ValueError, match=r"missing required parameter\(s\) \['k'\]"):
        tiny_regression_spec(params={"d": 8, "alpha": 0.8})
    # a grid axis counts as a key like a fixed parameter does
    with pytest.raises(ValueError, match="unknown parameter"):
        tiny_regression_spec(grid={"n": [30], "rank": [1, 2]})
    # a key one scenario reads is unknown to another
    with pytest.raises(ValueError, match="outlier_scale"):
        ExperimentSpec(
            scenario="matrix_completion",
            grid={"alpha": [0.9]},
            params={"n": 20, "r": 1, "outlier_scale": 100.0},
        )


def test_spec_rejects_parameters_of_the_wrong_type():
    with pytest.raises(ValueError, match="n must be an integer, got 'sixty'"):
        tiny_regression_spec(grid={"n": [30, "sixty"]})
    with pytest.raises(ValueError, match="d must be an integer, got 8.5"):
        tiny_regression_spec(params={"d": 8.5, "k": 2, "alpha": 0.8})
    with pytest.raises(ValueError, match="alpha must be a real number, got 'high'"):
        tiny_regression_spec(params={"d": 8, "k": 2, "alpha": "high"})
    with pytest.raises(ValueError, match="noise_family must be a name, got 3"):
        tiny_regression_spec(params={"d": 8, "k": 2, "alpha": 0.8, "noise_family": 3})
    tiny_regression_spec(params={"d": 8, "k": 2, "alpha": 1})  # an integer is a real number


def families_of(row):
    return experiments.FAMILIES.values() if row.family is None else [row.family]


def test_every_parameter_a_scenario_reads_has_a_type():
    for row in experiments.SCENARIOS.values():
        for family in families_of(row):
            assert row.reads | family.reads <= set(experiments.PARAMS)


def test_every_parameter_is_read_by_some_scenario_or_family():
    read = set()
    for row in experiments.SCENARIOS.values():
        for family in families_of(row):
            read |= row.reads | family.reads
    assert read == set(experiments.PARAMS)


def test_every_default_has_its_parameter_type():
    for key, param in experiments.PARAMS.items():
        if param.default is not None:
            assert isinstance(param.default, param.type) and not isinstance(param.default, bool), key


def test_spec_rejects_keys_swept_where_they_must_be_fixed():
    with pytest.raises(ValueError, match="both fixed and swept"):
        tiny_regression_spec(grid={"n": [40]}, params={"n": 30, "d": 8, "k": 2, "alpha": 0.8})
    with pytest.raises(ValueError, match="must be fixed"):
        tiny_regression_spec(grid={"n": [30], "alpha": [0.5, 0.8]}, params={"d": 8, "k": 2})
    with pytest.raises(ValueError, match="must be fixed"):
        ExperimentSpec(
            scenario="meta_certificate",
            grid={"instance": [0], "family": ["regression"]},
            params={"n": 20, "d": 4, "k": 1, "alpha": 0.9},
        )


def test_meta_certificate_keys_follow_its_family():
    base = dict(scenario="meta_certificate", grid={"instance": [0]})
    pca = {"n": 20, "r": 1, "alpha": 0.9, "l_scale": 0.5}
    regression = {"n": 20, "d": 4, "k": 1, "alpha": 0.9, "magnitude": 3.0}
    ExperimentSpec(**base, params={"family": "pca", **pca})
    ExperimentSpec(**base, params={"family": "regression", **regression})
    ExperimentSpec(**base, params=regression)  # regression by default
    with pytest.raises(ValueError, match="l_scale"):
        ExperimentSpec(**base, params={"family": "regression", **regression, "l_scale": 0.5})
    with pytest.raises(ValueError, match=r"unknown parameter\(s\) \['l_scale', 'r'\]"):
        ExperimentSpec(**base, params=pca)  # read as regression, the default
    with pytest.raises(ValueError, match=r"missing required parameter\(s\) \['r'\]"):
        ExperimentSpec(**base, params={"family": "pca", "n": 20, "alpha": 0.9})


def test_every_scenario_requires_alpha_and_reads_its_plot_axis():
    assert experiments.PARAMS["alpha"].default is None
    for name, row in experiments.SCENARIOS.items():
        for family in families_of(row):
            assert "alpha" in row.reads | family.reads, name
            assert row.plot[0] in row.reads | family.reads, name


# required keys of each scenario (and meta_certificate family) at a size that
# builds in milliseconds; the grid sweeps n, which no scenario fixes
SMALL_REQUIRED = {
    "regression_n_sweep": {"d": 8, "k": 2, "alpha": 0.8},
    "regression_alpha_sweep": {"d": 8, "k": 2, "alpha": 0.8},
    "regression_gaussian_design": {"d": 8, "k": 2, "alpha": 0.5},
    "pca_n_sweep": {"r": 1, "alpha": 0.8},
    "pca_alpha_sweep": {"r": 1, "alpha": 0.8},
    "matrix_completion": {"r": 1, "alpha": 0.8},
    "lowerbound_phase": {"r": 1, "alpha": 0.25, "epsilon": 0.5},
}
DEFAULT_CASES = [(name, {}, params) for name, params in SMALL_REQUIRED.items()] + [
    ("meta_certificate", {}, {"d": 8, "k": 2, "alpha": 0.8}),
    ("meta_certificate", {"family": "pca"}, {"r": 1, "alpha": 0.8}),
]


def default_pair(scenario, given, required, n=16):
    """Two specs of one scenario: one omits every key that has a default
    (`given` aside), one sets each of those keys to its PARAMS default."""
    omitted = ExperimentSpec(scenario=scenario, grid={"n": [n]}, params={**given, **required})
    keys = experiments.SCENARIOS[scenario].reads_for(omitted.params)
    defaults = {k: experiments.PARAMS[k].default for k in keys
                if experiments.PARAMS[k].default is not None}
    explicit = ExperimentSpec(
        scenario=scenario, grid={"n": [n]}, params={**defaults, **given, **required}
    )
    assert set(explicit.params) - set(omitted.params) == set(defaults) - set(given)
    return omitted, explicit


@pytest.mark.parametrize("scenario, given, required", DEFAULT_CASES,
                         ids=[f"{c[0]}-{c[1].get('family', 'default')}" for c in DEFAULT_CASES])
def test_omitted_defaults_build_the_instance_bit_for_bit(scenario, given, required):
    omitted, explicit = default_pair(scenario, given, required)
    a, b = (experiments.build_instance(spec, {**spec.params, "n": 16}, 1234)
            for spec in (omitted, explicit))
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        x, y = np.asarray(getattr(a, field.name)), np.asarray(getattr(b, field.name))
        assert x.dtype == y.dtype and x.shape == y.shape, field.name
        assert x.tobytes() == y.tobytes(), field.name


def test_omitted_defaults_give_the_pca_checks_the_same_details():
    omitted, explicit = default_pair("pca_n_sweep", {}, {"r": 2, "alpha": 0.8})
    rows = rows_from(
        "pca_n_sweep", "n", [(n, 0.5 * np.sqrt(n)) for n in (50, 100, 200)], "frobenius_error"
    )
    details = [[detail for _, _, detail in scenario_assertions(spec, rows)]
               for spec in (omitted, explicit)]
    assert details[0] == details[1]
    # the bound reads zeta + rho_over_n = 1.0 + 1.0, the defaults
    bound = 10.0 * np.sqrt(2 * 50) / 0.8 * 2.0
    assert f"<= {bound:.6g}" in details[0][0]
    assert omitted.params == {"r": 2, "alpha": 0.8}  # the spec keeps what was given


def test_a_swept_defaulted_key_overrides_its_default():
    spec = ExperimentSpec(scenario="pca_alpha_sweep", grid={"alpha": [0.8]}, params={"n": 12, "r": 1})
    swept = dataclasses.replace(spec, grid={"alpha": [0.8], "zeta": [0.25]})
    p = {**swept.params, **grid_points(swept.grid)[0]}
    assert experiments.build_instance(swept, p, 7).zeta == 0.25


# a tiny spec of every scenario whose first trial solves: SMALL_REQUIRED at
# n = 16, and the meta_certificate family pca inside its box (l_scale 0.5)
TRIAL_SPECS = [
    ExperimentSpec(scenario=name, grid={"n": [16]}, params=required, solver=FAST_SOLVER)
    for name, required in SMALL_REQUIRED.items()
] + [
    ExperimentSpec(scenario="meta_certificate", grid={"instance": [0]},
                   params={"n": 100, "d": 8, "k": 2, "alpha": 0.9}, solver=FAST_SOLVER),
    ExperimentSpec(scenario="meta_certificate", grid={"instance": [0]},
                   params={"family": "pca", "n": 24, "r": 1, "alpha": 0.9, "l_scale": 0.5},
                   constants=EstimatorConstants(gamma_scale=2.0), solver=FAST_SOLVER),
]


def test_trial_specs_cover_every_scenario():
    assert {spec.scenario for spec in TRIAL_SPECS} == set(experiments.SCENARIOS)


@pytest.mark.parametrize("spec", TRIAL_SPECS,
                         ids=[f"{s.scenario}-{s.params.get('family', '')}" for s in TRIAL_SPECS])
def test_run_trial_returns_the_row_the_sweep_records(spec):
    # one path: the row holds run_trial's metrics, flags and the iterations of
    # its SolveResult, bit for bit; no trial function reports those itself
    (row,) = run_experiment(spec)
    assert not row.error
    _, _, p, seed = next(spec.trials())
    result, metrics, flags = run_trial(spec, p, seed)
    assert row.iterations == result.iterations
    assert row.metrics == {k: float(v) for k, v in metrics.items()}
    assert row.flags == {k: bool(v) for k, v in flags.items()}
    assert result.reference_dominated is not None
    assert flags["dominated"] == result.reference_dominated
    trial_result, _, trial_flags = experiments.SCENARIOS[spec.scenario].trial(spec, p, seed)
    assert "dominated" not in trial_flags
    assert trial_result.iterations == result.iterations


@pytest.mark.parametrize("config", ["accept06_meta_regression.ini", "accept06_meta_pca.ini"])
def test_meta_row_dominated_flag_is_the_certificates(config):
    # the meta row's `dominated` is the solve's reference_dominated; the
    # certificate's dominated_est checks the same composite, estimate and truth
    spec = ExperimentSpec.from_config(CONFIG_DIR / config)
    _, _, p, seed = next(spec.trials())
    result, cert = experiments.run_certificate(spec, p, seed)
    assert result.reference_dominated is not None
    assert result.reference_dominated == cert.dominated_est


# ---------------------------------------------------------------------------
# aggregation


def test_median_by_point_skips_errors_and_sorts():
    rows = rows_from("pca_n_sweep", "n", [(200, 3.0), (100, 1.0)], "frobenius_error")
    rows.append(
        ResultRow(
            scenario="pca_n_sweep", point={"n": 100}, trial=1, metrics={},
            iterations=0, flags={}, error="RuntimeError: boom",
        )
    )
    rows.append(
        ResultRow(
            scenario="pca_n_sweep", point={"n": 100}, trial=2,
            metrics={"frobenius_error": 5.0}, iterations=1, flags={},
        )
    )
    med = median_by_point(rows, "n", "frobenius_error")
    assert list(med) == [100, 200]
    assert med[100] == pytest.approx(3.0)  # median of 1 and 5
    assert med[200] == pytest.approx(3.0)


def test_fit_loglog_slope_exact_power_laws():
    rows = rows_from(
        "pca_n_sweep", "n", [(n, 4.0 / n) for n in (50, 100, 400)], "frobenius_error"
    )
    slope, intercept, resid = fit_loglog_slope(rows, "n", "frobenius_error")
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert intercept == pytest.approx(np.log(4.0), abs=1e-12)
    assert resid == pytest.approx(0.0, abs=1e-12)
    rows2 = rows_from(
        "pca_n_sweep", "n", [(n, 3.0 / n**2) for n in (50, 100, 400)], "frobenius_error"
    )
    slope2, _, _ = fit_loglog_slope(rows2, "n", "frobenius_error")
    assert slope2 == pytest.approx(-2.0, abs=1e-12)


def test_fit_loglog_slope_noisy_power_law():
    wiggle = [1.02, 0.98, 1.01, 0.99, 1.02]
    pairs = [
        (n, 5.0 * n**1.3 * w) for n, w in zip((20, 40, 80, 160, 320), wiggle)
    ]
    rows = rows_from("pca_n_sweep", "n", pairs, "frobenius_error")
    slope, _, _ = fit_loglog_slope(rows, "n", "frobenius_error")
    assert slope == pytest.approx(1.3, abs=0.05)


def test_fit_loglog_slope_errors():
    rows = rows_from("pca_n_sweep", "n", [(100, 1.0)], "frobenius_error")
    with pytest.raises(ValueError):
        fit_loglog_slope(rows, "n", "frobenius_error")
    zero = rows_from("pca_n_sweep", "n", [(100, 0.0), (200, 0.0)], "frobenius_error")
    with pytest.raises(ValueError):
        fit_loglog_slope(zero, "n", "frobenius_error")


# ---------------------------------------------------------------------------
# CSV emission


def read_csv(path):
    """Every record of a CSV, its header first, as emit_csv wrote it."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_emit_csv_schema_and_round_trip(tmp_path):
    rows = [
        ResultRow(
            scenario="pca_n_sweep", point={"n": 50}, trial=0,
            metrics={"frobenius_error": 0.1 + 0.2}, iterations=17,
            flags={"dominated": True},
        ),
        ResultRow(
            scenario="pca_n_sweep", point={"n": 50}, trial=1,
            metrics={}, iterations=0, flags={"dominated": False},
            error="SolverDiverged: objective overflow",
        ),
    ]
    path = tmp_path / "out.csv"
    emit_csv(rows, path)
    assert read_csv(path) == [
        ["scenario", "n", "trial", "frobenius_error", "iterations", "dominated", "error"],
        ["pca_n_sweep", "50", "0", "0.30000000000000004", "17", "1", ""],
        ["pca_n_sweep", "50", "1", "nan", "0", "0", "SolverDiverged: objective overflow"],
    ]


def test_emit_csv_sorts_rows(tmp_path):
    rows = rows_from("pca_n_sweep", "n", [(200, 2.0), (100, 1.0)], "frobenius_error")
    path = tmp_path / "sorted.csv"
    emit_csv(rows[::-1], path)
    ns = [int(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]
    assert ns == [100, 200]


def test_emit_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text() == "scenario,trial,iterations,error\n"
    assert read_csv(path) == [["scenario", "trial", "iterations", "error"]]


def test_csv_io_errors(tmp_path):
    with pytest.raises(OSError):
        emit_csv([], tmp_path / "missing_dir" / "x.csv")


# ---------------------------------------------------------------------------
# scenario assertions


def dict_checks(checks):
    return {name: ok for name, ok, _ in checks}


def regression_n_spec():
    return ExperimentSpec(
        scenario="regression_n_sweep",
        grid={"n": [100, 200, 400]},
        params={"k": 2, "d": 8, "alpha": 0.8},
        trials_per_point=1,
    )


def test_regression_n_assertions_pass():
    rows = rows_from(
        "regression_n_sweep", "n",
        [(n, 4.0 / n) for n in (100, 200, 400)], "prediction_error_sq",
    )
    checks = dict_checks(scenario_assertions(regression_n_spec(), rows))
    assert checks == {
        "median_pred_sq_at_n_100": True,
        "median_pred_sq_at_n_200": True,
        "median_pred_sq_at_n_400": True,
        "slope_vs_n": True,
    }


def test_regression_n_assertions_flag_bound_violation():
    rows = rows_from(
        "regression_n_sweep", "n",
        [(n, 1e6 / n) for n in (100, 200, 400)], "prediction_error_sq",
    )
    checks = dict_checks(scenario_assertions(regression_n_spec(), rows))
    assert checks["median_pred_sq_at_n_100"] is False
    assert checks["slope_vs_n"] is True


def test_regression_n_assertions_flag_flat_slope():
    rows = rows_from(
        "regression_n_sweep", "n",
        [(n, 1.0) for n in (100, 200, 400)], "prediction_error_sq",
    )
    checks = dict_checks(scenario_assertions(regression_n_spec(), rows))
    assert checks["slope_vs_n"] is False


def test_regression_n_assertions_single_point_slope_unavailable():
    rows = rows_from("regression_n_sweep", "n", [(100, 0.01)], "prediction_error_sq")
    checks = scenario_assertions(regression_n_spec(), rows)
    named = {name: (ok, detail) for name, ok, detail in checks}
    ok, detail = named["slope_vs_n"]
    assert ok is False and "unavailable" in detail


def test_regression_alpha_assertions():
    spec = ExperimentSpec(
        scenario="regression_alpha_sweep",
        grid={"alpha": [0.25, 0.5, 1.0]},
        params={"k": 2, "d": 8, "n": 4000},
        trials_per_point=1,
    )
    good = rows_from(
        "regression_alpha_sweep", "alpha",
        [(a, 0.3 / a**2) for a in (0.25, 0.5, 1.0)], "prediction_error_sq",
    )
    assert dict_checks(scenario_assertions(spec, good))["slope_vs_alpha"] is True
    bad = rows_from(
        "regression_alpha_sweep", "alpha",
        [(a, 0.3 / a) for a in (0.25, 0.5, 1.0)], "prediction_error_sq",
    )
    assert dict_checks(scenario_assertions(spec, bad))["slope_vs_alpha"] is False


def test_pca_assertions():
    spec = ExperimentSpec(
        scenario="pca_n_sweep",
        grid={"n": [50, 100, 200]},
        params={"r": 2, "alpha": 0.8, "zeta": 1.0, "rho_over_n": 1.0},
        trials_per_point=1,
    )
    good = rows_from(
        "pca_n_sweep", "n",
        [(n, 0.5 * np.sqrt(n)) for n in (50, 100, 200)], "frobenius_error",
    )
    checks = dict_checks(scenario_assertions(spec, good))
    assert checks["slope_vs_n"] is True
    assert checks["median_frob_at_n_50"] is True
    huge = rows_from(
        "pca_n_sweep", "n",
        [(n, 1e5 * np.sqrt(n)) for n in (50, 100, 200)], "frobenius_error",
    )
    checks = dict_checks(scenario_assertions(spec, huge))
    assert checks["median_frob_at_n_50"] is False

    alpha_spec = ExperimentSpec(
        scenario="pca_alpha_sweep",
        grid={"alpha": [0.6, 0.8, 1.0]},
        params={"r": 2, "n": 100},
        trials_per_point=1,
    )
    good_a = rows_from(
        "pca_alpha_sweep", "alpha",
        [(a, 2.0 / a) for a in (0.6, 0.8, 1.0)], "frobenius_error",
    )
    assert dict_checks(scenario_assertions(alpha_spec, good_a))["slope_vs_alpha"] is True
    flat_a = rows_from(
        "pca_alpha_sweep", "alpha",
        [(a, 2.0) for a in (0.6, 0.8, 1.0)], "frobenius_error",
    )
    assert dict_checks(scenario_assertions(alpha_spec, flat_a))["slope_vs_alpha"] is False


def phase_rows(frac_by_alpha, trials=5):
    rows = []
    for alpha, frac in frac_by_alpha.items():
        wins = round(frac * trials)
        for t in range(trials):
            rows.append(
                ResultRow(
                    scenario="lowerbound_phase",
                    point={"alpha": alpha},
                    trial=t,
                    metrics={"rel_error": 0.1 if t < wins else 1.0},
                    iterations=5,
                    flags={"success": t < wins},
                )
            )
    return rows


def phase_spec():
    return ExperimentSpec(
        scenario="lowerbound_phase",
        grid={"alpha": [0.01, 0.1, 0.25]},
        params={"n": 400, "r": 1, "epsilon": 0.5},
        trials_per_point=5,
    )


def test_phase_assertions_pass():
    rows = phase_rows({0.01: 0.0, 0.1: 0.6, 0.25: 1.0})
    checks = dict_checks(scenario_assertions(phase_spec(), rows))
    assert checks == {
        "phase_low_alpha": True,
        "phase_high_alpha": True,
        "phase_monotone": True,
    }


def test_phase_assertions_flag_violations():
    high_low = phase_rows({0.01: 1.0, 0.1: 1.0, 0.25: 1.0})
    checks = dict_checks(scenario_assertions(phase_spec(), high_low))
    assert checks["phase_low_alpha"] is False

    non_monotone = phase_rows({0.01: 0.0, 0.1: 1.0, 0.25: 0.0})
    checks = dict_checks(scenario_assertions(phase_spec(), non_monotone))
    assert checks["phase_monotone"] is False
    assert checks["phase_high_alpha"] is False


def test_phase_monotone_names_the_largest_drop_beyond_its_slack():
    # two drops beyond 2 sigma: 1.0 -> 0.0 exceeds its slack by 0.74, the
    # later 1.0 -> 0.4 by 0.19; the detail names the first
    fracs = {0.01: 0.0, 0.05: 1.0, 0.1: 0.0, 0.2: 1.0, 0.25: 0.4}
    spec = dataclasses.replace(phase_spec(), grid={"alpha": list(fracs)}, trials_per_point=10)
    checks = {name: (ok, detail)
              for name, ok, detail in scenario_assertions(spec, phase_rows(fracs, trials=10))}
    ok, detail = checks["phase_monotone"]
    assert not ok
    assert detail.startswith("drop 1.000 -> 0.000 at alpha 0.05 -> 0.1 ")


def meta_flags(**overrides):
    flags = {
        "decomposability": True,
        "contraction": True,
        "gradient_bound": True,
        "restricted_convexity": True,
        "radius_bound": True,
        "all_conditions": True,
        "cone_membership": True,
        "error_lt_radius": True,
        "dominated": True,
        "dominated_meas": True,
        "rsc_vacuous": False,
    }
    flags.update(overrides)
    return flags


def meta_spec():
    return ExperimentSpec(
        scenario="meta_certificate",
        grid={"instance": [0, 1]},
        params={"family": "regression", "n": 100, "d": 8, "k": 2, "alpha": 0.9},
        trials_per_point=1,
    )


def meta_row(instance, flags):
    return ResultRow(
        scenario="meta_certificate",
        point={"instance": instance},
        trial=0,
        metrics={"error_value": 0.1, "R": 1.0},
        iterations=9,
        flags=flags,
    )


def test_meta_assertions_pass():
    rows = [meta_row(0, meta_flags()), meta_row(1, meta_flags())]
    checks = dict_checks(scenario_assertions(meta_spec(), rows))
    assert checks == {
        "conditions_all_instances": True,
        "cone_membership": True,
        "error_lt_radius": True,
        "implication_holds": True,
    }


def test_meta_assertions_hard_failure_when_flags_hold_but_bound_fails():
    # all five conditions true and the estimate dominates, yet the error
    # exceeds the certified radius: the implication itself is broken
    rows = [meta_row(0, meta_flags(error_lt_radius=False))]
    checks = dict_checks(scenario_assertions(meta_spec(), rows))
    assert checks["implication_holds"] is False
    assert checks["error_lt_radius"] is False
    assert checks["conditions_all_instances"] is True


def test_meta_assertions_condition_failure_is_not_implication_failure():
    rows = [meta_row(0, meta_flags(restricted_convexity=False, error_lt_radius=False))]
    checks = dict_checks(scenario_assertions(meta_spec(), rows))
    assert checks["conditions_all_instances"] is False
    assert checks["implication_holds"] is True


def test_meta_assertions_count_the_vacuous_instances():
    rows = [meta_row(0, meta_flags(rsc_vacuous=True)), meta_row(1, meta_flags()),
            meta_row(2, meta_flags(rsc_vacuous=True))]
    details = {name: detail for name, _, detail in scenario_assertions(meta_spec(), rows)}
    assert details["conditions_all_instances"] == "3 instances, 2 vacuous"
    checks = dict_checks(scenario_assertions(meta_spec(), rows))
    assert all(checks.values())  # vacuity is reported, not failed


# ---------------------------------------------------------------------------
# reports


def test_emit_report_contents_and_gnuplot(tmp_path):
    rows = rows_from(
        "regression_n_sweep", "n",
        [(n, 4.0 / n) for n in (100, 200, 400)], "prediction_error_sq",
    )
    csv_path = tmp_path / "rows.csv"
    emit_csv(rows, csv_path)
    report_path = tmp_path / "report.txt"
    checks = emit_report(rows, report_path, csv_path=csv_path, spec=regression_n_spec())
    assert all(ok for _, ok, _ in checks)
    text = report_path.read_text()
    assert "median prediction_error_sq by n:" in text
    assert "loglog slope" in text
    assert "PASS slope_vs_n" in text
    script = report_path.with_suffix(".gnuplot").read_text()
    assert "set logscale xy" in script
    assert str(csv_path) in script


def test_outputs_carry_no_clock(tmp_path):
    # two runs of one sweep differ only in their trial times
    rows = rows_from(
        "regression_n_sweep", "n",
        [(n, 4.0 / n) for n in (100, 200, 400)], "prediction_error_sq",
        flags={"dominated": True},
    )
    slower = [dataclasses.replace(row, wall_ms=1000.0 * (i + 1)) for i, row in enumerate(rows)]
    written = {}
    for name, run in (("fast", rows), ("slow", slower)):
        out = tmp_path / name
        out.mkdir()
        emit_csv(run, out / "rows.csv")
        # the same relative CSV path, so the gnuplot companions compare too
        emit_report(run, out / "report.txt", csv_path="rows.csv", spec=regression_n_spec())
        written[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(written["fast"]) == ["report.gnuplot", "report.txt", "rows.csv"]
    assert written["fast"] == written["slow"]
    assert "wall_ms" not in written["fast"]["rows.csv"].decode().splitlines()[0].split(",")


@pytest.mark.parametrize(
    "rows",
    [
        rows_from(
            "regression_n_sweep", "n",
            [(n, 4.0 / n) for n in (100, 200, 400)], "prediction_error_sq",
            flags={"dominated": True},
        ),
        [meta_row(0, meta_flags()), meta_row(1, meta_flags())],
    ],
    ids=["regression_n_sweep", "meta_certificate"],
)
def test_gnuplot_columns_are_the_plot_axes_of_the_csv(tmp_path, rows):
    csv_path = tmp_path / "rows.csv"
    emit_csv(rows, csv_path)
    header = csv_path.read_text().splitlines()[0].split(",")
    spec = {"regression_n_sweep": regression_n_spec, "meta_certificate": meta_spec}[
        rows[0].scenario
    ]()
    script = experiments._gnuplot_script(spec, rows, csv_path)
    ix, iy = map(int, re.search(r"using (\d+):(\d+)", script).groups())
    x_field, y_field, _ = experiments.SCENARIOS[spec.scenario].plot
    assert (header[ix - 1], header[iy - 1]) == (x_field, y_field)


# ---------------------------------------------------------------------------
# command-line front end


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TINY_REGRESSION_INI = (
    "[regression_n_sweep]\n"
    "n_grid = 30\nd = 8\nk = 2\nalpha = 0.8\nmagnitude = 3.0\n"
    "trials_per_point = 1\nseed = 5\ngamma_scale = 2.0\n"
    "max_iters = 500\nrel_tol = 1e-5\n"
)

TINY_COMPLETION_INI = (
    "[matrix_completion]\n"
    "alpha_grid = 0.7 0.9\nn = 24\nr = 1\nzeta = 0.1\nrho_over_n = 1.0\n"
    "trials_per_point = 1\nseed = 3\ngamma_scale = 1.0\n"
    "max_iters = 300\nrel_tol = 1e-4\n"
)


TINY_PHASE_INI = (
    "[lowerbound_phase]\n"
    "alpha_grid = 0.25\nn = 20\nr = 1\nepsilon = 0.5\n"
    "trials_per_point = 1\nseed = 3\ngamma_scale = 2.0\nhuber_h_override = 3.0\n"
    "max_iters = 100\nrel_tol = 1e-4\n"
)


def test_cli_gen_regression(tmp_path):
    cfg = write_config(tmp_path, "reg.ini", TINY_REGRESSION_INI)
    out = tmp_path / "data.csv"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join([f"x{j}" for j in range(8)] + ["y"])
    assert len(lines) == 1 + 30


def test_cli_gen_writes_the_first_trial_instance(tmp_path):
    # two grid points and two trials, with the seed given on the command line:
    # gen writes the instance of grid point 0, trial 0
    ini = TINY_REGRESSION_INI.replace("n_grid = 30", "n_grid = 30 40").replace(
        "trials_per_point = 1", "trials_per_point = 2"
    )
    cfg = write_config(tmp_path, "reg.ini", ini)
    out = tmp_path / "data.csv"
    assert main(["gen", "--config", cfg, "--seed", "12", "--out", str(out)]) == EXIT_OK
    spec = ExperimentSpec.from_config(cfg, seed=12)
    p = {**spec.params, **grid_points(spec.grid)[0]}
    problem = experiments.build_instance(spec, p, trial_seed(12, 0, 0))
    expected = tmp_path / "expected.csv"
    header = ",".join([f"x{j}" for j in range(problem.d)] + ["y"])
    np.savetxt(expected, np.column_stack([problem.X, problem.y]), fmt="%.17g",
               delimiter=",", header=header, comments="")
    assert problem.n == 30
    assert out.read_bytes() == expected.read_bytes()


def test_cli_gen_matrix(tmp_path):
    cfg = write_config(tmp_path, "mc.ini", TINY_COMPLETION_INI)
    out = tmp_path / "obs.csv"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("y0,")
    assert len(lines) == 1 + 24


def test_cli_solve(tmp_path, capsys):
    cfg = write_config(tmp_path, "reg.ini", TINY_REGRESSION_INI)
    est = tmp_path / "estimate.csv"
    assert main(["solve", "--config", cfg, "--out", str(est)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "objective = " in printed
    assert "prediction_error_sq = " in printed
    assert "\nconverged = 1\n" in printed
    assert "\nstop_reason = tolerance\n" in printed
    # the Newton steps that trial 0's FISTA solve refused
    spec = ExperimentSpec.from_config(cfg)
    _, _, p, seed = next(spec.trials())
    result, _, _ = run_trial(spec, p, seed)
    assert f"\nrejected = {result.rejected}\n" in printed
    assert "\ndominated = " in printed
    assert est.exists()


def printed_fields(text):
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def test_cli_solve_prints_the_row_its_sweep_records(tmp_path, capsys):
    # the phase trial records rel_error = Frobenius error / n and its success
    # flag; solve prints those cells of trial 0, not a measure of its own
    cfg = write_config(tmp_path, "phase1.ini", TINY_PHASE_INI)
    assert main(["solve", "--config", cfg]) == EXIT_OK
    printed = printed_fields(capsys.readouterr().out)
    out = tmp_path / "phase1.csv"
    main(["sweep", "--config", cfg, "--out", str(out)])
    header, first, *_ = read_csv(out)
    row = dict(zip(header, first))
    assert row["trial"] == "0"
    for name in ("rel_error", "success", "dominated", "iterations"):
        assert printed[name] == row[name], name
    assert "frobenius_error" not in printed


def test_cli_sweep_rejects_fewer_than_one_thread(tmp_path, capsys):
    cfg = write_config(tmp_path, "reg.ini", TINY_REGRESSION_INI)
    out = tmp_path / "reg.csv"
    for threads in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--out", str(out), "--threads", threads])
        assert exc.value.code == EXIT_CONFIG
        assert "--threads: must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_success(tmp_path):
    cfg = write_config(tmp_path, "mc.ini", TINY_COMPLETION_INI)
    out = tmp_path / "mc.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert out.exists()
    report = tmp_path / "mc_report.txt"
    assert report.exists()
    assert (tmp_path / "mc_report.gnuplot").exists()
    assert len(read_csv(out)) == 1 + 2


def test_cli_sweep_assertion_failure(tmp_path):
    # gamma_scale 50 shrinks the estimate to zero, so the error is flat in n
    # and the decay assertions cannot hold
    cfg = write_config(
        tmp_path,
        "flat.ini",
        "[regression_n_sweep]\n"
        "n_grid = 40 80\nd = 20\nk = 2\nalpha = 0.8\nmagnitude = 3.0\n"
        "trials_per_point = 1\nseed = 5\ngamma_scale = 50.0\n"
        "max_iters = 200\nrel_tol = 1e-5\n",
    )
    out = tmp_path / "flat.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_ASSERT
    assert "FAIL" in (tmp_path / "flat_report.txt").read_text()


def test_cli_verify_success(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "meta.ini",
        "[meta_certificate]\n"
        "instance_grid = 0\nfamily = pca\nn = 60\nr = 1\nalpha = 0.9\n"
        "l_scale = 0.5\ntrials_per_point = 1\nseed = 3\ngamma_scale = 2.0\n"
        "max_iters = 1500\nrel_tol = 1e-5\n",
    )
    assert main(["verify", "--config", cfg]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "condition_decomposability = 1" in printed
    assert "error_lt_radius = 1" in printed


def test_cli_verify_notes_a_vacuous_radius_after_the_unchanged_report(tmp_path, capsys):
    # a PCA certificate whose R exceeds the box's feasible diameter: the report
    # and the exit code are those of any passing certificate, and one line
    # after the report says that the radius bound is vacuous
    cfg = write_config(
        tmp_path,
        "meta_vacuous.ini",
        "[meta_certificate]\n"
        "instance_grid = 0\nfamily = pca\nn = 24\nr = 1\nalpha = 0.9\n"
        "l_scale = 0.5\ntrials_per_point = 1\nseed = 3\ngamma_scale = 2.0\n"
        "max_iters = 1500\nrel_tol = 1e-5\n",
    )
    assert main(["verify", "--config", cfg]) == EXIT_OK
    *report, note = capsys.readouterr().out.splitlines()
    assert "rsc_vacuous = 1" in report
    assert note.startswith("note: R = ") and "feasible diameter" in note
    out = tmp_path / "cert.txt"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines() == report  # the note is not part of the report
    assert capsys.readouterr().out.splitlines()[-1] == note

    regression = write_config(
        tmp_path,
        "meta_regression.ini",
        "[meta_certificate]\n"
        "instance_grid = 0\nfamily = regression\nn = 200\nd = 8\nk = 2\nalpha = 0.9\n"
        "magnitude = 3.0\ntrials_per_point = 1\nseed = 3\ngamma_scale = 5.0\n"
        "max_iters = 5000\nrel_tol = 1e-7\n",
    )
    main(["verify", "--config", regression])
    printed = capsys.readouterr().out
    assert "rsc_vacuous = 0" in printed and "note:" not in printed


def test_cli_verify_numeric_failure(tmp_path):
    # l_scale 1.0 parks the truth on the box boundary: certificate sampling
    # has no feasible directions and the run must exit with the numeric code
    cfg = write_config(
        tmp_path,
        "meta_bad.ini",
        "[meta_certificate]\n"
        "instance_grid = 0\nfamily = pca\nn = 16\nr = 1\nalpha = 0.9\n"
        "l_scale = 1.0\ntrials_per_point = 1\nseed = 3\ngamma_scale = 2.0\n"
        "max_iters = 200\nrel_tol = 1e-4\n",
    )
    assert main(["verify", "--config", cfg]) == EXIT_NUMERIC


def test_cli_missing_config(tmp_path):
    missing = str(tmp_path / "nope.ini")
    assert main(["sweep", "--config", missing]) == EXIT_CONFIG


def test_cli_rejects_non_integer_max_iters(tmp_path):
    ini = TINY_REGRESSION_INI.replace("max_iters = 500", "max_iters = 1e3")
    cfg = write_config(tmp_path, "float_iters.ini", ini)
    out = tmp_path / "float_iters.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_cli_sweep_without_k_is_a_config_error(tmp_path):
    ini = TINY_REGRESSION_INI.replace("k = 2\n", "")
    cfg = write_config(tmp_path, "no_k.ini", ini)
    out = tmp_path / "no_k.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_cli_ambiguous_sections(tmp_path, capsys):
    # a config is exactly one section: two, or none, fail at load in every command
    for name, ini in (("two.ini", TINY_REGRESSION_INI + TINY_COMPLETION_INI),
                      ("none.ini", "# a comment and no section\n")):
        cfg = write_config(tmp_path, name, ini)
        for command in ("gen", "solve", "verify", "sweep"):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
            assert "must have one section" in capsys.readouterr().err
            assert not out.exists()


def test_cli_has_no_scenario_option(tmp_path, capsys):
    cfg = write_config(tmp_path, "reg.ini", TINY_REGRESSION_INI)
    for command in ("gen", "solve", "verify", "sweep"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--scenario", "regression_n_sweep"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --scenario" in capsys.readouterr().err


def test_cli_verify_without_alpha(tmp_path):
    cfg = write_config(
        tmp_path,
        "noalpha.ini",
        "[meta_certificate]\ninstance_grid = 0\nfamily = regression\n"
        "n = 50\nd = 8\nk = 2\n",
    )
    assert main(["verify", "--config", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "name, ini, message",
    [
        ("typo", TINY_REGRESSION_INI + "max_iter = 100\n", "max_iter"),
        ("bad_rel_tol", TINY_REGRESSION_INI.replace("rel_tol = 1e-5", "rel_tol = abc"),
         "rel_tol"),
        ("dead_delta", TINY_REGRESSION_INI + "delta = 0.05\n", "delta"),
        ("dead_initial_step", TINY_REGRESSION_INI + "initial_step = 0.5\n", "initial_step"),
        ("dead_backtrack_factor", TINY_REGRESSION_INI + "backtrack_factor = 0.5\n",
         "backtrack_factor"),
        ("completion_without_r", TINY_COMPLETION_INI.replace("r = 1\n", ""), "['r']"),
        ("word_for_n", TINY_COMPLETION_INI.replace("n = 24", "n = sixty"), "'sixty'"),
        (
            "bogus_family",
            "[meta_certificate]\ninstance_grid = 0\nfamily = bogus\n"
            "n = 50\nd = 8\nk = 2\nalpha = 0.9\n",
            "bogus",
        ),
        ("misspelt_noise_family", TINY_REGRESSION_INI + "noise_family = gausian\n",
         "noise_family must be one of"),
        ("swept_misspelt_noise_family",
         TINY_REGRESSION_INI + "noise_family_grid = gaussian gausian\n", "'gausian'"),
        ("matrix_noise_in_regression",
         TINY_REGRESSION_INI + "noise_family = lb_geometric_even\n", "'lb_geometric_even'"),
        ("repeated_grid_value", TINY_REGRESSION_INI.replace("n_grid = 30", "n_grid = 30 30"),
         "n_grid must list distinct values"),
        # out of the range that the point's signal and noise laws accept (d = 8)
        ("alpha_above_one", TINY_REGRESSION_INI.replace("alpha = 0.8", "alpha = 1.5"),
         "alpha must lie in (0, 1]"),
        ("k_zero", TINY_REGRESSION_INI.replace("k = 2", "k = 0"), "k must be >= 1"),
        ("k_above_d", TINY_REGRESSION_INI.replace("k = 2", "k = 9"), "k cannot exceed d"),
        ("d_one", TINY_REGRESSION_INI.replace("d = 8\nk = 2", "d = 1\nk = 1"),
         "regression requires d >= 2"),
        ("negative_zeta", TINY_REGRESSION_INI + "zeta = -1.0\n", "zeta must be >= 0"),
        ("negative_magnitude", TINY_REGRESSION_INI.replace("magnitude = 3.0", "magnitude = -1.0"),
         "magnitude must be positive"),
        # out of the range that the instance's generator checks before its first draw
        ("phase_alpha_one", TINY_PHASE_INI.replace("alpha_grid = 0.25", "alpha_grid = 0.25 1.0"),
         "alpha must lie in (0, 1) to be realizable by some xi"),
        ("phase_r_above_n", TINY_PHASE_INI.replace("r = 1", "r = 30"), "need 1 <= r <= n"),
        ("completion_alpha_above_one",
         TINY_COMPLETION_INI.replace("alpha_grid = 0.7 0.9", "alpha_grid = 0.7 1.5"),
         "alpha must lie in (0, 1]"),
        ("completion_r_zero", TINY_COMPLETION_INI.replace("r = 1", "r = 0"), "need 1 <= r <= n"),
        ("completion_zeta_hides_nothing", TINY_COMPLETION_INI.replace("zeta = 0.1", "zeta = 5000"),
         "zeta must be >= 0 and below the hidden magnitude 1000*rho_over_n"),
        ("pca_r_zero", "[pca_n_sweep]\nn_grid = 20\nr = 0\nalpha = 0.8\n", "need 1 <= r <= n"),
        ("pca_l_scale_above_one",
         "[pca_alpha_sweep]\nalpha_grid = 0.8\nn = 20\nr = 1\nl_scale = 1.5\n",
         "l_scale must lie in (0, 1]"),
        ("pca_negative_rho",
         "[pca_alpha_sweep]\nalpha_grid = 0.8\nn = 20\nr = 1\nrho_over_n = -1.0\n",
         "rho_over_n must be positive"),
        ("design_without_inliers",
         "[regression_gaussian_design]\nn_grid = 50\nd = 8\nk = 2\nalpha = 0.01\n",
         "alpha*n must be >= 1"),
        ("gaussian_zeta_zero", TINY_REGRESSION_INI + "noise_family = gaussian\nzeta = 0.0\n",
         "gaussian family needs zeta > 0 when alpha < 1"),
        # the CSV's directory is checked before the first trial, not after the run
        ("missing_dir/out", TINY_REGRESSION_INI, "cannot write CSV"),
    ],
)
def test_cli_sweep_rejects_bad_config_at_load(tmp_path, capsys, name, ini, message):
    cfg = write_config(tmp_path, "config.ini", ini)
    out = tmp_path / f"{name}.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert list(tmp_path.iterdir()) == [Path(cfg)]  # no CSV, report or plot
    err = capsys.readouterr().err
    # a trial that ran would have printed its progress line first
    assert err.startswith("configuration error:") and message in err


@pytest.mark.parametrize(
    "value, message",
    [
        ("trials_per_point = 2.5", "trials_per_point must be an integer, got 2.5"),
        ("trials_per_point = 1.5", "trials_per_point must be an integer, got 1.5"),
        ("seed = 2.9", "seed must be an integer, got 2.9"),
        ("seed = -1", "seed must be >= 0, got -1"),
        ("seed = -3", "seed must be >= 0, got -3"),
    ],
)
def test_cli_rejects_run_shape_keys_at_load(tmp_path, capsys, value, message):
    # the value is checked as parsed: int() would run 1.5 trials as 1 and seed
    # 2.9 as seed 2, and a negative seed failed only inside the trials
    key = value.split()[0]
    ini = re.sub(rf"^{key} = .*$", value, TINY_REGRESSION_INI, flags=re.M)
    cfg = write_config(tmp_path, "shape.ini", ini)
    out = tmp_path / "shape.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_spec_requires_integer_trials_and_seed():
    for bad in (2.5, True, "2"):
        with pytest.raises(ValueError, match="trials_per_point must be an integer"):
            tiny_regression_spec(trials_per_point=bad)
        with pytest.raises(ValueError, match="seed must be an integer"):
            tiny_regression_spec(seed=bad)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        tiny_regression_spec(seed=-1)
    assert tiny_regression_spec(trials_per_point=np.int64(2), seed=np.int64(0)).seed == 0


def test_cli_bug_in_a_trial_is_not_a_config_error(tmp_path, monkeypatch):
    break_trials(monkeypatch, "regression_n_sweep")
    cfg = write_config(tmp_path, "reg.ini", TINY_REGRESSION_INI)
    out = tmp_path / "reg.csv"
    with pytest.raises(TypeError, match="bug in a metrics helper"):
        main(["sweep", "--config", cfg, "--out", str(out)])
    assert not out.exists()


def test_cli_phase_with_one_alpha_fails_its_check(tmp_path, capsys):
    # loading must accept it (a benchmark cuts every grid to one point), but
    # one alpha shows no transition, so the sweep cannot pass
    cfg = write_config(tmp_path, "phase1.ini", TINY_PHASE_INI)
    out = tmp_path / "phase1.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_ASSERT
    assert len(read_csv(out)) == 1 + 1
    assert "FAIL phase_alpha_grid: " in capsys.readouterr().out


def test_import_loads_no_scipy():
    # scipy is imported only at the first Gaussian-family noise draw
    code = (
        "import robust_huber, robust_huber.cli, robust_huber.experiments, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_serial_run_loads_neither_the_pool_nor_numpy_ma():
    # the pool is imported only for threads > 1, and support complements come
    # from a boolean mask, not np.setdiff1d, whose np.unique imports numpy.ma
    code = (
        "import dataclasses, sys\n"
        "from robust_huber.experiments import ExperimentSpec, run_experiment\n"
        "for path in sys.argv[1:]:\n"
        "    spec = ExperimentSpec.from_config(path)\n"
        "    grid = {key: list(values)[:1] for key, values in spec.grid.items()}\n"
        "    spec = dataclasses.replace(spec, grid=grid, trials_per_point=1)\n"
        "    [row] = run_experiment(spec)\n"
        "    assert not row.error, row.error\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing', 'numpy.ma')"
        " if m in sys.modules))"
    )
    configs = [str(CONFIG_DIR / name) for name in ("accept04_regression_n.ini", "accept05_pca_n.ini")]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code, *configs], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
