"""Batch experiment runner: the scenario table, configs, seeded trials,
CSV/report emission.

Every scenario is one row of SCENARIOS: its instance builder, its per-trial
metrics, its pass/fail checks, its plot axes and the parameter keys it reads.
A spec is checked against its row when it is made, so a config with an
unknown or a missing key, or a value of the wrong type, fails at load,
before any trial runs.

A run is a pure function of (config bytes, seed): every trial derives its
instance seed from (seed, grid point index, trial index), workers share
nothing, and rows are sorted by (grid point, trial) before emission, so
serial and parallel executions write byte-identical CSVs.  Wall-clock times
are kept in memory for the report but zeroed in the CSV for that reason.
"""

from __future__ import annotations

import configparser
import csv
import itertools
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from math import log
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .datagen import (
    NoiseSpec,
    SignalSpec,
    gen_matrix_completion_scenario,
    make_gaussian_design_instance,
    make_pca_instance,
    make_regression_instance,
    trial_seed,
)
from .estimators import (
    EstimatorConstants,
    RegressionProblem,
    estimate_pca,
    estimate_sparse_regression,
    frobenius_error,
    parameter_error,
    prediction_error,
)
from .lowerbound import phase_instance, phase_trial
from .solver import SolverConfig, SolverDiverged
from .verification import (
    CONDITION_NAMES,
    CertificateParams,
    RscSamplingError,
    assemble_certificate,
)

__all__ = [
    "SCENARIOS",
    "Scenario",
    "Family",
    "ExperimentSpec",
    "ResultRow",
    "run_experiment",
    "fit_loglog_slope",
    "emit_csv",
    "parse_csv",
    "emit_report",
    "scenario_assertions",
    "build_instance",
    "run_certificate",
]

# numeric failures of one trial; the CLI exits with its numeric code on these
NUMERIC_ERRORS = (
    SolverDiverged,
    RscSamplingError,
    np.linalg.LinAlgError,
    FloatingPointError,
    OverflowError,
)
# a trial that raises one of these becomes an error row; anything else is a bug
_ROW_ERRORS = (ValueError, *NUMERIC_ERRORS)


@dataclass(frozen=True)
class ExperimentSpec:
    """One scenario with its grid, fixed parameters, and solver knobs.

    Made only with the parameter keys its SCENARIOS row reads, each of the
    type PARAM_TYPES gives (Scenario.check_keys); anything else raises
    ValueError here.
    """

    scenario: str
    grid: dict
    params: dict
    trials_per_point: int = 1
    seed: int = 0
    constants: EstimatorConstants = EstimatorConstants()
    solver: SolverConfig = SolverConfig()

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if not self.grid or any(len(v) == 0 for v in self.grid.values()):
            raise ValueError("grid must be non-empty")
        # checked, not converted: int() would run 1.5 trials as 1 and seed 2.9 as 2
        for key, low in (("trials_per_point", 1), ("seed", 0)):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{key} must be >= {low}, got {value!r}")
        SCENARIOS[self.scenario].check_keys(self.scenario, self.grid, self.params)

    @classmethod
    def from_config(cls, path, scenario: Optional[str] = None, seed: Optional[int] = None):
        """Build a spec from a flat INI file with one section per scenario."""
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise OSError(f"cannot read config {path}: {exc}") from exc
        sections = parser.sections()
        if scenario is None:
            if len(sections) != 1:
                raise ValueError(
                    f"config {path} has sections {sections}; pick one with scenario="
                )
            scenario = sections[0]
        elif scenario not in sections:
            raise ValueError(f"config {path} has no section [{scenario}]")

        grid, params = {}, {}
        extras = {"trials_per_point": 1, "seed": 0}
        const_kw, solver_kw = {}, {}
        const_keys = {f.name for f in fields(EstimatorConstants)}
        solver_keys = {f.name for f in fields(SolverConfig)}
        for key, raw in parser.items(scenario):
            if key.endswith("_grid"):
                values = [_parse_scalar(tok) for tok in raw.replace(",", " ").split()]
                if not values:
                    raise ValueError(f"empty grid for {key}")
                grid[key[: -len("_grid")]] = values
            elif key in extras:
                extras[key] = _parse_scalar(raw)
            elif key in const_keys:
                const_kw[key] = float(raw)
            elif key in solver_keys:
                solver_kw[key] = _parse_scalar(raw)
            else:
                params[key] = _parse_scalar(raw)
        if seed is not None:
            extras["seed"] = seed
        return cls(
            scenario=scenario,
            grid=grid,
            params=params,
            trials_per_point=extras["trials_per_point"],
            seed=extras["seed"],
            constants=EstimatorConstants(**const_kw),
            solver=SolverConfig(**solver_kw),
        )


def _parse_scalar(raw: str):
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


@dataclass
class ResultRow:
    """One (grid point, trial) outcome."""

    scenario: str
    point: dict
    trial: int
    metrics: dict
    iterations: int
    flags: dict
    wall_ms: float = 0.0
    error: str = ""

    def __post_init__(self):
        if self.trial < 0:
            raise ValueError("trial must be >= 0")
        if not self.error:
            for name, value in self.metrics.items():
                if np.isnan(value):
                    raise ValueError(f"metric {name} is NaN without an error tag")
                if "error" in name and not np.isfinite(value):
                    raise ValueError(f"error metric {name} must be finite")


def _row_sort_key(row: ResultRow):
    return (tuple(sorted(row.point.items())), row.trial)


def grid_points(grid: dict) -> list[dict]:
    keys = sorted(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


# ---------------------------------------------------------------------------
# instance builders: (parameters, instance seed) -> problem.  Each one calls
# its data generator through this module's globals at call time, so a wrapper
# set on the module attribute sees every build.


def _noise(p: dict) -> NoiseSpec:
    return NoiseSpec(
        family=p.get("noise_family", "symmetric_mixture"),
        alpha=float(p["alpha"]),
        zeta=float(p.get("zeta", 1.0)),
        outlier_scale=float(p.get("outlier_scale", 100.0)),
    )


def _signal(p: dict) -> SignalSpec:
    return SignalSpec(k=int(p["k"]), magnitude=float(p.get("magnitude", 1.0)))


def _build_regression(p, instance_seed):
    return make_regression_instance(int(p["n"]), int(p["d"]), _signal(p), _noise(p), instance_seed)


def _build_gaussian_design(p, instance_seed):
    return make_gaussian_design_instance(
        int(p["n"]), int(p["d"]), _signal(p), float(p["alpha"]), instance_seed
    )


def _build_pca(p, instance_seed):
    return make_pca_instance(
        int(p["n"]),
        int(p["r"]),
        _noise(p),
        float(p.get("rho_over_n", 1.0)),
        instance_seed,
        l_scale=float(p.get("l_scale", 1.0)),
    )


def _build_completion(p, instance_seed):
    return gen_matrix_completion_scenario(
        int(p["n"]),
        int(p["r"]),
        float(p["alpha"]),
        float(p.get("zeta", 1.0)),
        float(p.get("rho_over_n", 1.0)),
        instance_seed,
    )


def _build_phase(p, instance_seed):
    return phase_instance(int(p["n"]), int(p["r"]), float(p["alpha"]), instance_seed)


@dataclass(frozen=True)
class Family:
    """One kind of problem instance: its builder and the keys the builder reads."""

    build: Callable[[dict, int], object]
    required: frozenset
    optional: frozenset = frozenset()


_NOISE_KEYS = frozenset({"noise_family", "zeta", "outlier_scale"})
_REGRESSION = Family(
    _build_regression, frozenset({"n", "d", "k", "alpha"}), _NOISE_KEYS | {"magnitude"}
)
_PCA = Family(_build_pca, frozenset({"n", "r", "alpha"}), _NOISE_KEYS | {"rho_over_n", "l_scale"})
# The type of every scenario parameter, checked when a spec is made: a value
# of the wrong type (n = sixty) is a config error, not a failure of each trial.
PARAM_TYPES = {
    **dict.fromkeys(("n", "d", "k", "r", "instance"), numbers.Integral),
    **dict.fromkeys(
        ("alpha", "zeta", "outlier_scale", "magnitude", "rho_over_n", "l_scale", "epsilon"),
        numbers.Real,
    ),
    **dict.fromkeys(("noise_family", "family"), str),
}
_TYPE_NAMES = {numbers.Integral: "an integer", numbers.Real: "a real number", str: "a name"}
# meta_certificate solves whichever of these its `family` parameter names
FAMILIES = {"regression": _REGRESSION, "pca": _PCA}
DEFAULT_FAMILY = "regression"


# ---------------------------------------------------------------------------
# per-trial execution: (spec, parameters, instance seed) ->
# (metrics, iterations, flags)


def build_instance(spec: ExperimentSpec, p: dict, instance_seed: int):
    """The problem object a given scenario solves, before solving it."""
    return SCENARIOS[spec.scenario].family_for(p).build(p, instance_seed)


def _solve(spec: ExperimentSpec, problem):
    """Solve one instance with its kind's estimator: (estimate, SolveResult,
    error metrics against the truth).  The estimators are called through this
    module's globals, solver config third, so a wrapper set on those module
    attributes sees every solve and its config."""
    if isinstance(problem, RegressionProblem):
        estimate, result = estimate_sparse_regression(problem, spec.constants, spec.solver)
        metrics = {
            "prediction_error_sq": prediction_error(problem, estimate),
            "parameter_error_sq": parameter_error(problem, estimate),
        }
    else:
        estimate, result = estimate_pca(problem, spec.constants, spec.solver)
        metrics = {"frobenius_error": frobenius_error(problem, estimate)}
    return estimate, result, metrics


def run_certificate(spec: ExperimentSpec, p: dict, instance_seed: int):
    """Solve one instance and assemble its certificate."""
    problem = build_instance(spec, p, instance_seed)
    estimate, result, _ = _solve(spec, problem)
    cert_params = CertificateParams(alpha=float(p["alpha"]), seed=instance_seed)
    cert = assemble_certificate(problem, estimate, spec.constants, cert_params)
    return problem, estimate, result, cert


def _solve_metrics(spec, p, instance_seed):
    _, result, metrics = _solve(spec, build_instance(spec, p, instance_seed))
    return metrics, result.iterations, {"dominated": bool(result.reference_dominated)}


def _phase_metrics(spec, p, instance_seed):
    rec = phase_trial(
        int(p["n"]), int(p["r"]), float(p["alpha"]), instance_seed, spec.constants, spec.solver
    )
    success = rec["rel_error"] <= float(p["epsilon"])
    return (
        {"rel_error": rec["rel_error"]},
        rec["iterations"],
        {"success": bool(success), "dominated": rec["dominated"]},
    )


def _certificate_metrics(spec, p, instance_seed):
    _, _, result, cert = run_certificate(spec, p, instance_seed)
    metrics = {
        "error_value": float(cert.error_value),
        "gamma_measured": float(cert.gamma_measured),
        "kappa": float(cert.kappa),
        "s": float(cert.s),
        "R": float(cert.R),
        "radius_est": float(cert.radius_est),
    }
    flags = {name: bool(ok) for name, ok in cert.conditions.items()}
    flags.update(
        all_conditions=cert.all_conditions(),
        cone_membership=cert.cone_membership_ok,
        error_lt_radius=cert.error_lt_radius,
        dominated=cert.dominated_est,
        dominated_meas=cert.dominated_meas,
        rsc_vacuous=cert.rsc_vacuous,
    )
    return metrics, result.iterations, flags


def _trial_worker(job) -> ResultRow:
    spec, point_idx, point, trial = job
    p = dict(spec.params)
    p.update(point)
    iseed = trial_seed(spec.seed, point_idx, trial)
    t0 = time.perf_counter()
    try:
        metrics, iterations, flags = SCENARIOS[spec.scenario].trial(spec, p, iseed)
        tag = ""
    except _ROW_ERRORS as exc:  # recorded, run continues
        metrics, iterations, flags = {}, 0, {}
        tag = f"{type(exc).__name__}: " + " ".join(str(exc).split())
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    return ResultRow(
        scenario=spec.scenario,
        point=dict(point),
        trial=trial,
        metrics={k: float(v) for k, v in metrics.items()},
        iterations=int(iterations),
        flags={k: bool(v) for k, v in flags.items()},
        wall_ms=wall_ms,
        error=tag,
    )


def run_experiment(
    spec: ExperimentSpec,
    threads: int = 1,
    on_row: Optional[Callable[[ResultRow], None]] = None,
) -> list[ResultRow]:
    """All (grid point, trial) rows, sorted by deterministic key."""
    jobs = [
        (spec, i, pt, t)
        for i, pt in enumerate(grid_points(spec.grid))
        for t in range(spec.trials_per_point)
    ]
    if threads and threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = []
            try:
                for row in pool.map(_trial_worker, jobs):
                    if on_row is not None:
                        on_row(row)
                    rows.append(row)
            except BaseException:
                # a bug in one trial should not wait out the rest of the sweep
                pool.shutdown(cancel_futures=True)
                raise
    else:
        rows = []
        for job in jobs:
            row = _trial_worker(job)
            if on_row is not None:
                on_row(row)
            rows.append(row)
    rows.sort(key=_row_sort_key)
    return rows


# ---------------------------------------------------------------------------
# aggregation


def median_by_point(rows: Sequence[ResultRow], x_field: str, y_field: str) -> dict:
    groups: dict = {}
    for row in rows:
        if row.error:
            continue
        x = row.point.get(x_field)
        if x is None or y_field not in row.metrics:
            continue
        groups.setdefault(x, []).append(row.metrics[y_field])
    return {x: float(np.median(v)) for x, v in sorted(groups.items())}


def fit_loglog_slope(
    rows: Sequence[ResultRow], x_field: str, y_field: str
) -> tuple[float, float, float]:
    """Least-squares line through (log x, log median y) per grid point."""
    med = median_by_point(rows, x_field, y_field)
    if len(med) < 2:
        raise ValueError("need at least 2 distinct grid values to fit a slope")
    xs = np.array(sorted(med))
    ys = np.array([med[x] for x in xs])
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive x values and positive medians")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((slope * lx + intercept - ly) ** 2)))
    return float(slope), float(intercept), resid


# ---------------------------------------------------------------------------
# emission


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _schema(rows: Sequence[ResultRow]):
    point_keys: set = set()
    metric_keys: set = set()
    flag_keys: set = set()
    for row in rows:
        point_keys.update(row.point)
        metric_keys.update(row.metrics)
        flag_keys.update(row.flags)
    return sorted(point_keys), sorted(metric_keys), sorted(flag_keys)


def _csv_header(point_keys, metric_keys, flag_keys) -> list[str]:
    return [
        "scenario", *point_keys, "trial", *metric_keys, "iterations", *flag_keys,
        "wall_ms", "error",
    ]


def emit_csv(rows: Sequence[ResultRow], path) -> None:
    """Deterministic CSV; wall_ms is zeroed so re-runs are byte-identical."""
    rows = sorted(rows, key=_row_sort_key)
    point_keys, metric_keys, flag_keys = _schema(rows)
    header = _csv_header(point_keys, metric_keys, flag_keys)
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                rec = [row.scenario]
                rec += [_fmt(row.point[k]) if k in row.point else "" for k in point_keys]
                rec.append(str(row.trial))
                rec += [
                    _fmt(row.metrics[k]) if k in row.metrics else _fmt(float("nan"))
                    for k in metric_keys
                ]
                rec.append(str(row.iterations))
                rec += [_fmt(bool(row.flags.get(k, False))) for k in flag_keys]
                rec.append(_fmt(0.0))
                rec.append(row.error)
                writer.writerow(rec)
    except OSError as exc:
        raise OSError(f"cannot write CSV {path}: {exc}") from exc


def parse_csv(path) -> list[ResultRow]:
    """Inverse of emit_csv (wall_ms comes back as the stored zero)."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            records = list(reader)
    except OSError as exc:
        raise OSError(f"cannot read CSV {path}: {exc}") from exc
    i_trial = header.index("trial")
    i_iter = header.index("iterations")
    i_wall = header.index("wall_ms")
    point_keys = header[1:i_trial]
    metric_keys = header[i_trial + 1 : i_iter]
    flag_keys = header[i_iter + 1 : i_wall]
    rows = []
    for rec in records:
        point = {
            k: _parse_scalar(v)
            for k, v in zip(point_keys, rec[1 : i_trial])
            if v != ""
        }
        metrics = {
            k: float(v) for k, v in zip(metric_keys, rec[i_trial + 1 : i_iter])
        }
        flags = {k: v == "1" for k, v in zip(flag_keys, rec[i_iter + 1 : i_wall])}
        error = rec[i_wall + 1]
        if error:
            metrics = {k: v for k, v in metrics.items() if not np.isnan(v)}
        rows.append(
            ResultRow(
                scenario=rec[0],
                point=point,
                trial=int(rec[i_trial]),
                metrics=metrics,
                iterations=int(rec[i_iter]),
                flags=flags,
                wall_ms=float(rec[i_wall]),
                error=error,
            )
        )
    return rows


def _gnuplot_script(rows: Sequence[ResultRow], csv_path) -> Optional[str]:
    if not rows or rows[0].scenario not in SCENARIOS:
        return None
    scenario = rows[0].scenario
    x_field, y_field, loglog = SCENARIOS[scenario].plot
    header = _csv_header(*_schema(rows))
    if x_field not in header or y_field not in header:
        return None
    ix = header.index(x_field) + 1
    iy = header.index(y_field) + 1
    lines = [
        "set datafile separator ','",
        f"set title '{scenario}'",
        f"set xlabel '{x_field}'",
        f"set ylabel '{y_field}'",
    ]
    if loglog:
        lines.append("set logscale xy")
    lines.append(
        f"plot '{csv_path}' every ::1 using {ix}:{iy} with points pt 7 title 'trials'"
    )
    return "\n".join(lines) + "\n"


def emit_report(
    rows: Sequence[ResultRow],
    path,
    csv_path=None,
    spec: Optional[ExperimentSpec] = None,
) -> list[tuple[str, bool, str]]:
    """Plain-text summary with per-point medians, slopes, and pass/fail lines.

    Returns the assertion triples so callers can set exit codes; writes a
    companion gnuplot script next to the report when csv_path is given.
    """
    rows = sorted(rows, key=_row_sort_key)
    checks = scenario_assertions(spec, rows) if spec is not None else []
    lines = []
    scenario = spec.scenario if spec is not None else (rows[0].scenario if rows else "?")
    lines.append(f"scenario: {scenario}")
    lines.append(f"rows: {len(rows)} ({sum(1 for r in rows if r.error)} with errors)")
    total_wall = sum(r.wall_ms for r in rows)
    lines.append(f"total solve time: {total_wall / 1000.0:.2f} s")
    point_keys, metric_keys, _ = _schema(rows)
    for x_field in point_keys:
        if len({row.point.get(x_field) for row in rows}) < 2:
            continue
        for y_field in metric_keys:
            med = median_by_point(rows, x_field, y_field)
            if not med:
                continue
            lines.append(f"median {y_field} by {x_field}:")
            for x, m in med.items():
                lines.append(f"  {x_field}={_fmt(x)}  {m:.6g}")
            try:
                slope, intercept, resid = fit_loglog_slope(rows, x_field, y_field)
                lines.append(
                    f"loglog slope of {y_field} vs {x_field}: {slope:.4f}"
                    f" (intercept {intercept:.4f}, rms resid {resid:.4f})"
                )
            except ValueError:
                pass
    for name, ok, detail in checks:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    text = "\n".join(lines) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
        if csv_path is not None:
            script = _gnuplot_script(rows, csv_path)
            if script is not None:
                Path(path).with_suffix(".gnuplot").write_text(script)
    except OSError as exc:
        raise OSError(f"cannot write report {path}: {exc}") from exc
    return checks


# ---------------------------------------------------------------------------
# scenario-level pass/fail rules (shared by the CLI and the acceptance tests).
# Each takes the spec's fixed parameters and the rows without errors.


def _no_checks(p: dict, rows: Sequence[ResultRow]) -> list:
    return []


def _regression_bounds(p, rows):
    k, d, alpha = int(p["k"]), int(p["d"]), float(p["alpha"])
    out = []
    for n, med in median_by_point(rows, "n", "prediction_error_sq").items():
        bound = 100.0 * k * log(d) / (alpha**2 * n)
        out.append((f"median_pred_sq_at_n_{n}", med <= bound, f"{med:.6g} <= {bound:.6g}"))
    return out


def _pca_bounds(p, rows):
    r_rank, alpha = int(p["r"]), float(p["alpha"])
    scale = float(p.get("zeta", 1.0)) + float(p.get("rho_over_n", 1.0))
    out = []
    for n, med in median_by_point(rows, "n", "frobenius_error").items():
        bound = float(10.0 * np.sqrt(r_rank * n) / alpha * scale)
        out.append((f"median_frob_at_n_{n}", med <= bound, f"{med:.6g} <= {bound:.6g}"))
    return out


def _success_fractions(p, rows: Sequence[ResultRow]):
    """Success fraction and trial count per alpha, swept or fixed."""
    by_alpha: dict = {}
    for row in rows:
        alpha = row.point.get("alpha", p.get("alpha"))
        by_alpha.setdefault(alpha, []).append(bool(row.flags.get("success")))
    return {alpha: (float(np.mean(v)), len(v)) for alpha, v in sorted(by_alpha.items())}


def _phase_checks(p, rows):
    fracs = _success_fractions(p, rows)
    alphas = sorted(fracs)
    if len(alphas) < 2:
        # a transition needs two alphas; one alpha must fail, not pass unchecked
        return [("phase_alpha_grid", False,
                 f"{len(alphas)} alpha value(s) with results; the phase checks need at least 2")]
    lo, hi = fracs[alphas[0]][0], fracs[alphas[-1]][0]
    out = [
        ("phase_low_alpha", lo <= 0.5, f"success {lo:.3f} <= 0.5"),
        ("phase_high_alpha", hi >= 0.9, f"success {hi:.3f} >= 0.9"),
    ]
    monotone = True
    worst = ""
    for a, b in zip(alphas, alphas[1:]):
        (pa, ta), (pb, tb) = fracs[a], fracs[b]
        # Laplace-smoothed binomial sigmas so endpoint fractions of
        # exactly 0 or 1 still get a nonzero noise allowance
        sa = np.sqrt((pa * (1 - pa) + 1.0 / (ta + 2)) / ta)
        sb = np.sqrt((pb * (1 - pb) + 1.0 / (tb + 2)) / tb)
        slack = 2.0 * np.hypot(sa, sb)
        if pb < pa - slack:
            monotone = False
            worst = f"drop {pa:.3f} -> {pb:.3f} at alpha {a:.4g} -> {b:.4g} exceeds 2 sigma {slack:.3f}"
    out.append(("phase_monotone", monotone, worst or "within 2 sigma"))
    return out


def _meta_checks(p, rows):
    all_flags = all(
        all(r.flags.get(c, False) for c in CONDITION_NAMES) for r in rows
    ) and len(rows) > 0
    cone = all(r.flags.get("cone_membership", False) for r in rows) and rows
    err_lt = all(r.flags.get("error_lt_radius", False) for r in rows) and rows
    violation = [
        r
        for r in rows
        if all(r.flags.get(c, False) for c in CONDITION_NAMES)
        and r.flags.get("dominated", False)
        and not r.flags.get("error_lt_radius", False)
    ]
    return [
        # a vacuous instance passes radius_bound only because R exceeds the box
        (
            "conditions_all_instances",
            all_flags,
            f"{len(rows)} instances, "
            f"{sum(bool(r.flags.get('rsc_vacuous', False)) for r in rows)} vacuous",
        ),
        ("cone_membership", bool(cone), "estimate error in expansion cone"),
        ("error_lt_radius", bool(err_lt), "E(estimate - truth) < R"),
        (
            "implication_holds",
            not violation,
            "no instance with all flags true but error >= radius",
        ),
    ]


def _slope_check(rows, x_field, y_field, centre, half_width):
    name = f"slope_vs_{x_field}"
    try:
        slope, _, _ = fit_loglog_slope(rows, x_field, y_field)
    except ValueError as exc:
        return (name, False, f"slope fit unavailable: {exc}")
    ok = centre - half_width <= slope <= centre + half_width
    return (name, ok, f"slope {slope:.4f} in {centre:g} +- {half_width:g}")


def scenario_assertions(
    spec: ExperimentSpec, rows: Sequence[ResultRow]
) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) triples encoding each scenario's target claims."""
    row = SCENARIOS[spec.scenario]
    clean = [r for r in rows if not r.error]
    out: list[tuple[str, bool, str]] = []
    if len(clean) < len(rows):
        bad = next(r for r in rows if r.error)
        out.append(
            ("no_trial_errors", False, f"{len(rows) - len(clean)} rows failed; first: {bad.error}")
        )
    out += row.checks(spec.params, clean)
    if row.slope is not None:
        x_field, y_field, _ = row.plot
        out.append(_slope_check(clean, x_field, y_field, *row.slope))
    return out


# ---------------------------------------------------------------------------
# the scenario table


@dataclass(frozen=True)
class Scenario:
    """Everything the runner knows about one scenario."""

    family: Optional[Family]  # None: the one FAMILIES names by the `family` key
    trial: Callable  # (spec, parameters, instance seed) -> (metrics, iterations, flags)
    plot: tuple  # (x field, y field, log-log axes)
    checks: Callable = _no_checks  # (fixed parameters, error-free rows) -> triples
    # (centre, half-width) of the allowed log-log slope of the plotted y vs x
    slope: Optional[tuple] = None
    required: frozenset = frozenset()  # read by the trial or checks, beyond the family's
    optional: frozenset = frozenset()
    fixed: frozenset = frozenset()  # read once from the fixed parameters: never a grid axis

    def family_for(self, p: dict) -> Family:
        if self.family is not None:
            return self.family
        name = p.get("family", DEFAULT_FAMILY)
        if name not in FAMILIES:
            raise ValueError(f"unknown family {name!r}; expected one of {sorted(FAMILIES)}")
        return FAMILIES[name]

    def check_keys(self, scenario: str, grid: dict, params: dict) -> None:
        """Raise ValueError unless grid and params hold exactly the keys this
        scenario reads, every required one and nothing it would ignore, each
        with values of its PARAM_TYPES type."""
        both = sorted(set(grid) & set(params))
        if both:
            raise ValueError(f"[{scenario}] {both} given both fixed and swept")
        swept = sorted(self.fixed & set(grid))
        if swept:
            raise ValueError(f"[{scenario}] {swept} must be fixed, not swept")
        family = self.family_for(params)
        required = self.required | family.required
        allowed = required | self.optional | family.optional
        keys = set(grid) | set(params)
        unknown = sorted(keys - allowed)
        if unknown:
            raise ValueError(
                f"[{scenario}] unknown parameter(s) {unknown}; it reads {sorted(allowed)}"
            )
        missing = sorted(required - keys)
        if missing:
            raise ValueError(f"[{scenario}] missing required parameter(s) {missing}")
        for key in sorted(keys):
            kind = PARAM_TYPES[key]
            for value in grid[key] if key in grid else [params[key]]:
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValueError(
                        f"[{scenario}] {key} must be {_TYPE_NAMES[kind]}, got {value!r}"
                    )


SCENARIOS: dict[str, Scenario] = {
    "regression_n_sweep": Scenario(
        family=_REGRESSION,
        trial=_solve_metrics,
        plot=("n", "prediction_error_sq", True),
        checks=_regression_bounds,
        slope=(-1.0, 0.25),
        fixed=frozenset({"k", "d", "alpha"}),
    ),
    "regression_alpha_sweep": Scenario(
        family=_REGRESSION,
        trial=_solve_metrics,
        plot=("alpha", "prediction_error_sq", True),
        slope=(-2.0, 0.4),
    ),
    "regression_gaussian_design": Scenario(
        family=Family(
            _build_gaussian_design, frozenset({"n", "d", "k", "alpha"}), frozenset({"magnitude"})
        ),
        trial=_solve_metrics,
        plot=("n", "prediction_error_sq", True),
    ),
    "pca_n_sweep": Scenario(
        family=_PCA,
        trial=_solve_metrics,
        plot=("n", "frobenius_error", True),
        checks=_pca_bounds,
        slope=(0.5, 0.2),
        fixed=frozenset({"r", "alpha", "zeta", "rho_over_n"}),
    ),
    "pca_alpha_sweep": Scenario(
        family=_PCA,
        trial=_solve_metrics,
        plot=("alpha", "frobenius_error", True),
        slope=(-1.0, 0.3),
    ),
    "matrix_completion": Scenario(
        family=Family(
            _build_completion, frozenset({"n", "r", "alpha"}), frozenset({"zeta", "rho_over_n"})
        ),
        trial=_solve_metrics,
        plot=("alpha", "frobenius_error", False),
    ),
    "lowerbound_phase": Scenario(
        family=Family(_build_phase, frozenset({"n", "r", "alpha"})),
        trial=_phase_metrics,
        plot=("alpha", "rel_error", False),
        checks=_phase_checks,
        required=frozenset({"epsilon"}),
    ),
    "meta_certificate": Scenario(
        family=None,
        trial=_certificate_metrics,
        plot=("instance", "error_value", False),
        checks=_meta_checks,
        optional=frozenset({"family", "instance"}),
        fixed=frozenset({"family"}),
    ),
}
