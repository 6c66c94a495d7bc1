"""Batch experiment runner: the scenario table, configs, seeded trials,
CSV/report emission.

Every scenario is one row of SCENARIOS: its instance family, its per-trial
metrics, its pass/fail checks, its plot axes and the parameter keys it reads.
A spec is checked against its row when it is made, so a config with an
unknown or a missing key, a value of the wrong type, or a value its
instance's generator would reject fails at load, before any trial runs.
The laws of each grid point are checked by the generator's own check (the
check_* functions of datagen and lowerbound, which draw nothing), so no
range is stated here.  PARAMS states each parameter's type and default once,
and Scenario.resolve fills in the defaults for builders and checks.

Each scenario's trial returns its SolveResult, whose point is the estimate,
with its metrics and flags; run_trial adds the `dominated` flag from the
result.  A sweep's rows and `robust-huber solve` both come from run_trial.

A run is a pure function of (config bytes, seed): every trial derives its
instance seed from (seed, grid point index, trial index), workers share
nothing, and rows are sorted by (grid point, trial) before emission, so
serial and parallel executions write byte-identical CSVs.  No file a sweep
writes holds a clock: a row's wall_ms stays in memory, for callers that time
trials.
The CSV bytes also depend on the BLAS thread count: default BLAS threads
against one thread moved rel_error by up to 1.3e-15 relative.
"""

from __future__ import annotations

import configparser
import csv
import itertools
import numbers
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from math import log
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

# the instance makers are called by name, through this module's globals (Family.build)
from .datagen import (
    NoiseSpec,
    SignalSpec,
    check_gaussian_design_instance,
    check_matrix_completion_scenario,
    check_pca_instance,
    check_regression_instance,
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
from .lowerbound import check_phase_instance, phase_instance, phase_trial
from .solver import SolverConfig, SolverDiverged
from .verification import (
    CONDITION_NAMES,
    RscSamplingError,
    assemble_certificate,
    problem_kind,
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
    "emit_report",
    "scenario_assertions",
    "build_instance",
    "solve_instance",
    "run_certificate",
    "run_trial",
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
    type PARAMS gives (Scenario.check_keys); anything else raises ValueError
    here.  params keeps what the config gave: no default is filled in.
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
        if not self.grid:
            raise ValueError("grid must be non-empty")
        for key, values in self.grid.items():
            # a repeated value would run two trials under one CSV label
            if not values or len(set(values)) < len(values):
                raise ValueError(f"{key}_grid must list distinct values, got {values}")
        # checked, not converted: int() would run 1.5 trials as 1 and seed 2.9 as 2
        for key, low in (("trials_per_point", 1), ("seed", 0)):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{key} must be >= {low}, got {value!r}")
        row = SCENARIOS[self.scenario]
        row.check_keys(self.scenario, self.grid, self.params)
        # each point's laws, checked by its generator's own check without a
        # draw, so a value out of range (alpha = 1.5, r > n) fails here, not
        # in every trial
        for point in grid_points(self.grid):
            p = row.resolve({**self.params, **point})
            try:
                row.family_for(p).laws(p)
            except ValueError as exc:
                raise ValueError(f"[{self.scenario}] at {point}: {exc}") from None

    def trials(self) -> Iterator[tuple[dict, int, dict, int]]:
        """(grid point, trial index, parameters, instance seed) of every trial,
        in run order: the grid_points order, then the trial index.  The
        parameters are params with the point over them."""
        for i, point in enumerate(grid_points(self.grid)):
            for t in range(self.trials_per_point):
                yield point, t, {**self.params, **point}, trial_seed(self.seed, i, t)

    @classmethod
    def from_config(cls, path, seed: Optional[int] = None):
        """Build a spec from a flat INI file of one section, named after its scenario."""
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise OSError(f"cannot read config {path}: {exc}") from exc
        sections = parser.sections()
        if len(sections) != 1:
            raise ValueError(f"config {path} must have one section, has {sections}")
        (scenario,) = sections

        grid, params, shape = {}, {}, {}  # shape: only the run-shape keys given
        const_kw, solver_kw = {}, {}
        const_keys = {f.name for f in fields(EstimatorConstants)}
        solver_keys = {f.name for f in fields(SolverConfig)}
        for key, raw in parser.items(scenario):
            if key.endswith("_grid"):
                grid[key[: -len("_grid")]] = [
                    _parse_scalar(tok) for tok in raw.replace(",", " ").split()
                ]
            elif key in ("trials_per_point", "seed"):
                shape[key] = _parse_scalar(raw)
            elif key in const_keys:
                const_kw[key] = float(raw)
            elif key in solver_keys:
                solver_kw[key] = _parse_scalar(raw)
            else:
                params[key] = _parse_scalar(raw)
        if seed is not None:
            shape["seed"] = seed
        return cls(
            scenario=scenario,
            grid=grid,
            params=params,
            **shape,
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
    wall_ms: float = 0.0  # the trial's wall-clock time; no file a sweep writes holds it
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
# the laws a family's maker draws from, made from a point's parameters


def _noise(p: dict) -> NoiseSpec:
    return NoiseSpec(p["noise_family"], p["alpha"], p["zeta"], p["outlier_scale"])


def _signal(p: dict) -> SignalSpec:
    return SignalSpec(k=p["k"], magnitude=p["magnitude"])


class Param(NamedTuple):
    type: type
    default: object = None  # None: required wherever it is read


# Every scenario parameter: its type, checked when a spec is made (n = sixty is
# a config error, not a failure of each trial), and its default.
PARAMS = {
    **dict.fromkeys(("n", "d", "k", "r"), Param(numbers.Integral)),
    **dict.fromkeys(("alpha", "epsilon"), Param(numbers.Real)),
    "zeta": Param(numbers.Real, 1.0),
    "outlier_scale": Param(numbers.Real, 100.0),
    "magnitude": Param(numbers.Real, 1.0),
    "rho_over_n": Param(numbers.Real, 1.0),
    "l_scale": Param(numbers.Real, 1.0),
    "noise_family": Param(str, "symmetric_mixture"),
    "family": Param(str, "regression"),  # the FAMILIES entry meta_certificate solves
    # a replicate index: no code reads it, each value gets its own instance seed
    "instance": Param(numbers.Integral, 0),
}
_TYPE_NAMES = {numbers.Integral: "an integer", numbers.Real: "a real number", str: "a name"}


def _defaults(keys) -> dict:
    """The PARAMS default of each of keys that has one."""
    return {key: PARAMS[key].default for key in keys if PARAMS[key].default is not None}


@dataclass(frozen=True)
class Family:
    """One kind of problem instance: its maker (of datagen or lowerbound), the
    maker's own check, the keyword arguments of both but the seed, and the
    keys those read.  The laws are the generators' own checks."""

    maker: str  # the maker's name in this module's globals
    check: Callable[..., None]
    args: Callable[[dict], dict]
    reads: frozenset

    def build(self, p: dict, instance_seed: int):
        # looked up when called, so a wrapper set on the module attribute sees every build
        return globals()[self.maker](**self.args(p), seed=instance_seed)

    def laws(self, p: dict) -> None:
        """Raise ValueError where build(p, seed) would, without a draw."""
        self.check(**self.args(p))


_NOISE_KEYS = frozenset({"noise_family", "alpha", "zeta", "outlier_scale"})  # read by _noise
_REGRESSION = Family(
    "make_regression_instance", check_regression_instance,
    lambda p: dict(n=p["n"], d=p["d"], signal=_signal(p), noise=_noise(p)),
    _NOISE_KEYS | {"n", "d", "k", "magnitude"},
)
_PCA = Family(
    "make_pca_instance", check_pca_instance,
    lambda p: dict(n=p["n"], r=p["r"], noise=_noise(p), rho_over_n=p["rho_over_n"],
                   l_scale=p["l_scale"]),
    _NOISE_KEYS | {"n", "r", "rho_over_n", "l_scale"},
)
# meta_certificate solves whichever of these its `family` parameter names
FAMILIES = {"regression": _REGRESSION, "pca": _PCA}


# ---------------------------------------------------------------------------
# per-trial execution: (spec, parameters, instance seed) ->
# (SolveResult, metrics, flags).  The estimate is the result's point, and its
# iterations and `dominated` flag are read from it by run_trial alone.


def build_instance(spec: ExperimentSpec, p: dict, instance_seed: int):
    """The problem object a given scenario solves, before solving it.  p is
    the spec's parameters with a grid point; a key it lacks gets its default."""
    row = SCENARIOS[spec.scenario]
    p = row.resolve(p)
    return row.family_for(p).build(p, instance_seed)


def solve_instance(spec: ExperimentSpec, problem, composite=None):
    """Solve one instance with its kind's estimator: (SolveResult, error
    metrics of its point against the truth).  composite is the estimator's
    objective when the caller has built it (run_certificate).  The estimators
    are called through this module's globals, solver config third, so a
    wrapper set on those module attributes sees every solve and its config."""
    if isinstance(problem, RegressionProblem):
        _, result = estimate_sparse_regression(
            problem, spec.constants, spec.solver, composite=composite)
        metrics = {
            "prediction_error_sq": prediction_error(problem, result.point),
            "parameter_error_sq": parameter_error(problem, result.point),
        }
    else:
        _, result = estimate_pca(problem, spec.constants, spec.solver, composite=composite)
        metrics = {"frobenius_error": frobenius_error(problem, result.point)}
    return result, metrics


def run_certificate(spec: ExperimentSpec, p: dict, instance_seed: int):
    """Solve one instance and assemble the certificate of its estimate, both
    on the one objective that problem_kind builds: (SolveResult,
    MetaCertificate)."""
    problem = build_instance(spec, p, instance_seed)
    kind = problem_kind(problem, spec.constants)
    result, _ = solve_instance(spec, problem, kind.composite)
    return result, assemble_certificate(kind, result.point, p["alpha"], instance_seed)


def _solve_trial(spec, p, instance_seed):
    result, metrics = solve_instance(spec, build_instance(spec, p, instance_seed))
    return result, metrics, {}


def _phase_trial(spec, p, instance_seed):
    problem = build_instance(spec, p, instance_seed)
    rel_error, result = phase_trial(problem, spec.constants, spec.solver)
    return result, {"rel_error": rel_error}, {"success": rel_error <= p["epsilon"]}


def _certificate_trial(spec, p, instance_seed):
    result, cert = run_certificate(spec, p, instance_seed)
    names = ("error_value", "gamma_measured", "kappa", "s", "R", "radius_est")
    metrics = {name: getattr(cert, name) for name in names}
    flags = dict(cert.conditions)
    # no dominated flag: run_trial's, from the same composite, estimate and truth,
    # is the same bit as cert.dominated_est
    flags.update(
        all_conditions=cert.all_conditions(),
        cone_membership=cert.cone_membership_ok,
        error_lt_radius=cert.error_lt_radius,
        dominated_meas=cert.dominated_meas,
        rsc_vacuous=cert.rsc_vacuous,
    )
    return result, metrics, flags


def run_trial(spec: ExperimentSpec, p: dict, instance_seed: int):
    """One trial of spec's scenario: (SolveResult, metrics, flags), the flags
    with `dominated` (the estimate's objective is at most the truth's).  The
    sweep records the metrics, flags and iterations of this result as the
    trial's row, and `robust-huber solve` prints them for the first trial."""
    result, metrics, flags = SCENARIOS[spec.scenario].trial(spec, p, instance_seed)
    return result, metrics, {**flags, "dominated": result.reference_dominated}


def _trial_worker(job) -> ResultRow:
    """One trial's row; metrics become floats and flags bools here."""
    spec, (point, trial, p, iseed) = job
    t0 = time.perf_counter()
    try:
        result, metrics, flags = run_trial(spec, p, iseed)
        iterations, tag = result.iterations, ""
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
    """All (grid point, trial) rows, sorted by deterministic key.  threads > 1
    runs the trials on that many worker processes, otherwise in this one."""
    rows = []
    with _trial_map(threads) as run:
        for row in run(_trial_worker, [(spec, trial) for trial in spec.trials()]):
            if on_row is not None:
                on_row(row)
            rows.append(row)
    rows.sort(key=_row_sort_key)
    return rows


@contextmanager
def _trial_map(threads):
    if not (threads and threads > 1):
        yield map
        return
    # imported here, so that a serial run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        try:
            yield pool.map
        except BaseException:
            # a bug in one trial should not wait out the rest of the sweep
            pool.shutdown(cancel_futures=True)
            raise


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
        "scenario", *point_keys, "trial", *metric_keys, "iterations", *flag_keys, "error",
    ]


def emit_csv(rows: Sequence[ResultRow], path) -> None:
    """Deterministic CSV: no timing column, so re-runs are byte-identical."""
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
                rec.append(row.error)
                writer.writerow(rec)
    except OSError as exc:
        raise OSError(f"cannot write CSV {path}: {exc}") from exc


def _gnuplot_script(spec: ExperimentSpec, rows: Sequence[ResultRow], csv_path) -> Optional[str]:
    x_field, y_field, loglog = SCENARIOS[spec.scenario].plot
    header = _csv_header(*_schema(rows))
    if x_field not in header or y_field not in header:
        return None  # an axis without a CSV column: fixed, or every trial failed
    ix = header.index(x_field) + 1
    iy = header.index(y_field) + 1
    lines = [
        "set datafile separator ','",
        f"set title '{spec.scenario}'",
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
    rows: Sequence[ResultRow], path, csv_path, spec: ExperimentSpec
) -> list[tuple[str, bool, str]]:
    """Plain-text summary with per-point medians, slopes, and pass/fail lines,
    and beside it a gnuplot script of the CSV at csv_path.

    Returns the assertion triples so callers can set exit codes.
    """
    rows = sorted(rows, key=_row_sort_key)
    checks = scenario_assertions(spec, rows)
    lines = [
        f"scenario: {spec.scenario}",
        f"rows: {len(rows)} ({sum(1 for r in rows if r.error)} with errors)",
    ]
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
        script = _gnuplot_script(spec, rows, csv_path)
        if script is not None:
            Path(path).with_suffix(".gnuplot").write_text(script)
    except OSError as exc:
        raise OSError(f"cannot write report {path}: {exc}") from exc
    return checks


# ---------------------------------------------------------------------------
# scenario-level pass/fail rules (shared by the CLI and the acceptance tests).
# Each takes the spec's fixed parameters, defaults filled in, and the rows
# without errors.


def _no_checks(p: dict, rows: Sequence[ResultRow]) -> list:
    return []


def _regression_bounds(p, rows):
    k, d, alpha = p["k"], p["d"], p["alpha"]
    out = []
    for n, med in median_by_point(rows, "n", "prediction_error_sq").items():
        bound = 100.0 * k * log(d) / (alpha**2 * n)
        out.append((f"median_pred_sq_at_n_{n}", med <= bound, f"{med:.6g} <= {bound:.6g}"))
    return out


def _pca_bounds(p, rows):
    r_rank, alpha = p["r"], p["alpha"]
    scale = p["zeta"] + p["rho_over_n"]
    out = []
    for n, med in median_by_point(rows, "n", "frobenius_error").items():
        bound = float(10.0 * np.sqrt(r_rank * n) / alpha * scale)
        out.append((f"median_frob_at_n_{n}", med <= bound, f"{med:.6g} <= {bound:.6g}"))
    return out


def _success_fractions(p, rows: Sequence[ResultRow]):
    """Success fraction and trial count per alpha, swept or fixed."""
    by_alpha: dict = {}
    for row in rows:
        alpha = {**p, **row.point}["alpha"]
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
    drops = []
    for a, b in zip(alphas, alphas[1:]):
        (pa, ta), (pb, tb) = fracs[a], fracs[b]
        # Laplace-smoothed binomial sigmas so endpoint fractions of
        # exactly 0 or 1 still get a nonzero noise allowance
        sa = np.sqrt((pa * (1 - pa) + 1.0 / (ta + 2)) / ta)
        sb = np.sqrt((pb * (1 - pb) + 1.0 / (tb + 2)) / tb)
        slack = 2.0 * np.hypot(sa, sb)
        # the excess (pa - slack) - pb is > 0 exactly where pb < pa - slack
        drops.append(((pa - slack) - pb, f"drop {pa:.3f} -> {pb:.3f} at alpha {a:.4g} -> "
                                         f"{b:.4g} exceeds 2 sigma {slack:.3f}"))
    excess, worst = max(drops, key=lambda drop: drop[0])  # the first of equal excesses
    out.append(("phase_monotone", bool(excess <= 0), worst if excess > 0 else "within 2 sigma"))
    return out


def _meta_checks(p, rows):
    def holds(r, *names):
        return all(r.flags.get(name, False) for name in names)

    def every(*names):
        return bool(rows) and all(holds(r, *names) for r in rows)

    violation = any(
        holds(r, *CONDITION_NAMES, "dominated") and not holds(r, "error_lt_radius")
        for r in rows
    )
    vacuous = sum(holds(r, "rsc_vacuous") for r in rows)
    return [
        # a vacuous instance passes radius_bound only because R exceeds the box
        ("conditions_all_instances", every(*CONDITION_NAMES),
         f"{len(rows)} instances, {vacuous} vacuous"),
        ("cone_membership", every("cone_membership"), "estimate error in expansion cone"),
        ("error_lt_radius", every("error_lt_radius"), "E(estimate - truth) < R"),
        ("implication_holds", not violation,
         "no instance with all flags true but error >= radius"),
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
    out += row.checks(row.resolve(spec.params), clean)
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
    # (spec, parameters, instance seed) -> (SolveResult, metrics, flags without
    # `dominated`); run_trial adds that flag from the result
    trial: Callable
    plot: tuple  # (x field, y field, log-log axes)
    checks: Callable = _no_checks  # (fixed parameters, error-free rows) -> triples
    # (centre, half-width) of the allowed log-log slope of the plotted y vs x
    slope: Optional[tuple] = None
    reads: frozenset = frozenset()  # read by the trial or checks, beyond the family's
    fixed: frozenset = frozenset()  # read once from the fixed parameters: never a grid axis

    def family_for(self, p: dict) -> Family:
        if self.family is not None:
            return self.family
        name = {**_defaults(self.reads), **p}["family"]
        if name not in FAMILIES:
            raise ValueError(f"unknown family {name!r}; expected one of {sorted(FAMILIES)}")
        return FAMILIES[name]

    def reads_for(self, p: dict) -> frozenset:
        """Every key this row reads with parameters p: its own and its family's."""
        return self.reads | self.family_for(p).reads

    def resolve(self, p: dict) -> dict:
        """p with the PARAMS default of every key this row reads and p lacks."""
        return {**_defaults(self.reads_for(p)), **p}

    def check_keys(self, scenario: str, grid: dict, params: dict) -> None:
        """Raise ValueError unless grid and params hold exactly the keys this
        scenario reads, every required one and nothing it would ignore, each
        with values of its PARAMS type.  The required keys are those without
        a default."""
        both = sorted(set(grid) & set(params))
        if both:
            raise ValueError(f"[{scenario}] {both} given both fixed and swept")
        swept = sorted(self.fixed & set(grid))
        if swept:
            raise ValueError(f"[{scenario}] {swept} must be fixed, not swept")
        allowed = self.reads_for(params)
        required = {key for key in allowed if PARAMS[key].default is None}
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
            kind = PARAMS[key].type
            for value in grid[key] if key in grid else [params[key]]:
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValueError(
                        f"[{scenario}] {key} must be {_TYPE_NAMES[kind]}, got {value!r}"
                    )


SCENARIOS: dict[str, Scenario] = {
    "regression_n_sweep": Scenario(
        family=_REGRESSION,
        trial=_solve_trial,
        plot=("n", "prediction_error_sq", True),
        checks=_regression_bounds,
        slope=(-1.0, 0.25),
        fixed=frozenset({"k", "d", "alpha"}),
    ),
    "regression_alpha_sweep": Scenario(
        family=_REGRESSION,
        trial=_solve_trial,
        plot=("alpha", "prediction_error_sq", True),
        slope=(-2.0, 0.4),
    ),
    "regression_gaussian_design": Scenario(
        family=Family(
            "make_gaussian_design_instance", check_gaussian_design_instance,
            lambda p: dict(n=p["n"], d=p["d"], signal=_signal(p), alpha=p["alpha"]),
            frozenset({"n", "d", "k", "alpha", "magnitude"}),
        ),
        trial=_solve_trial,
        plot=("n", "prediction_error_sq", True),
    ),
    "pca_n_sweep": Scenario(
        family=_PCA,
        trial=_solve_trial,
        plot=("n", "frobenius_error", True),
        checks=_pca_bounds,
        slope=(0.5, 0.2),
        fixed=frozenset({"r", "alpha", "zeta", "rho_over_n"}),
    ),
    "pca_alpha_sweep": Scenario(
        family=_PCA,
        trial=_solve_trial,
        plot=("alpha", "frobenius_error", True),
        slope=(-1.0, 0.3),
    ),
    "matrix_completion": Scenario(
        family=Family(
            "gen_matrix_completion_scenario", check_matrix_completion_scenario,
            lambda p: {k: p[k] for k in ("n", "r", "alpha", "zeta", "rho_over_n")},
            frozenset({"n", "r", "alpha", "zeta", "rho_over_n"}),
        ),
        trial=_solve_trial,
        plot=("alpha", "frobenius_error", False),
    ),
    "lowerbound_phase": Scenario(
        family=Family(
            "phase_instance", check_phase_instance,
            lambda p: {k: p[k] for k in ("n", "r", "alpha")},
            frozenset({"n", "r", "alpha"}),
        ),
        trial=_phase_trial,
        plot=("alpha", "rel_error", False),
        checks=_phase_checks,
        reads=frozenset({"epsilon"}),
    ),
    "meta_certificate": Scenario(
        family=None,
        trial=_certificate_trial,
        plot=("instance", "error_value", False),
        checks=_meta_checks,
        reads=frozenset({"family", "instance"}),
        fixed=frozenset({"family"}),
    ),
}
