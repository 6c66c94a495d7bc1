"""Command-line front end.

Exit codes: 0 success, 1 scenario assertion failure, 2 configuration error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

import numpy as np

from .datagen import trial_seed
from .estimators import RegressionProblem
from .experiments import (
    NUMERIC_ERRORS as _NUMERIC_ERRORS,
    ExperimentSpec,
    _solve,
    build_instance,
    emit_csv,
    emit_report,
    grid_points,
    run_certificate,
    run_experiment,
)

EXIT_OK, EXIT_ASSERT, EXIT_CONFIG, EXIT_NUMERIC = 0, 1, 2, 3

_CONFIG_ERRORS = (OSError, ValueError, configparser.Error)


def _load_spec(args) -> ExperimentSpec:
    return ExperimentSpec.from_config(args.config, scenario=args.scenario, seed=args.seed)


def _first_point(spec: ExperimentSpec):
    point = grid_points(spec.grid)[0]
    p = dict(spec.params)
    p.update(point)
    return p


def _write_matrix(path, M, prefix: str) -> None:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    header = ",".join(f"{prefix}{j}" for j in range(M.shape[1]))
    np.savetxt(path, M, fmt="%.17g", delimiter=",", header=header, comments="")


def cmd_gen(args) -> int:
    spec = _load_spec(args)
    p = _first_point(spec)
    problem = build_instance(spec, p, trial_seed(spec.seed, 0, 0))
    out = args.out or f"{spec.scenario}_data.csv"
    if isinstance(problem, RegressionProblem):
        data = np.column_stack([problem.X, problem.y])
        header = ",".join([f"x{j}" for j in range(problem.d)] + ["y"])
        np.savetxt(out, data, fmt="%.17g", delimiter=",", header=header, comments="")
        print(f"wrote {out}: {problem.n} rows, {problem.d} features + response")
    else:
        _write_matrix(out, problem.Y, "y")
        print(f"wrote {out}: {problem.n} x {problem.n} observation matrix")
    return EXIT_OK


def cmd_solve(args) -> int:
    spec = _load_spec(args)
    p = _first_point(spec)
    problem = build_instance(spec, p, trial_seed(spec.seed, 0, 0))
    estimate, result, metrics = _solve(spec, problem)
    print(f"objective = {result.objective:.17g}")
    print(f"iterations = {result.iterations}")
    print(f"converged = {int(result.converged)}")
    print(f"stop_reason = {result.stop_reason}")
    print(f"rejected = {result.rejected}")
    for name, value in metrics.items():
        print(f"{name} = {value:.17g}")
    print(f"dominated = {int(bool(result.reference_dominated))}")
    if args.out:
        _write_matrix(args.out, estimate, "c")
        print(f"wrote estimate to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _load_spec(args)
    p = _first_point(spec)
    _, _, _, cert = run_certificate(spec, p, trial_seed(spec.seed, 0, 0))
    report = cert.to_report()
    if args.out:
        Path(args.out).write_text(report)
        print(f"wrote certificate to {args.out}")
    else:
        sys.stdout.write(report)
    if cert.rsc_vacuous:
        # vacuity is reported, not failed: it changes neither the report nor the exit code
        print(f"note: R = {cert.R:.6g} exceeds the box's feasible diameter, so the "
              "radius bound holds for any point in the box (rsc_vacuous = 1)")
    ok = cert.all_conditions() and cert.cone_membership_ok and cert.error_lt_radius
    return EXIT_OK if ok else EXIT_ASSERT


def _run_sweep(args, spec: ExperimentSpec) -> int:
    total = len(grid_points(spec.grid)) * spec.trials_per_point
    done = [0]

    def progress(row):
        done[0] += 1
        state = "error" if row.error else "ok"
        print(
            f"[{done[0]}/{total}] {row.scenario} {row.point} trial {row.trial}: {state}",
            file=sys.stderr,
        )

    rows = run_experiment(spec, threads=args.threads, on_row=progress)
    out = Path(args.out or f"{spec.scenario}.csv")
    emit_csv(rows, out)
    report_path = out.with_name(out.stem + "_report.txt")
    checks = emit_report(rows, report_path, csv_path=out, spec=spec)
    print(f"wrote {out} and {report_path}")
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_ASSERT


def cmd_sweep(args) -> int:
    return _run_sweep(args, _load_spec(args))


def cmd_phase(args) -> int:
    spec = _load_spec(args)
    if spec.scenario != "lowerbound_phase":
        raise ValueError("phase subcommand requires a lowerbound_phase config")
    return _run_sweep(args, spec)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="robust-huber",
        description="Huber-loss estimators for regression and low-rank recovery "
        "under oblivious outliers, with certificates and batch experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "gen": (cmd_gen, "emit the dataset of a configured scenario as CSV"),
        "solve": (cmd_solve, "solve a single configured instance"),
        "verify": (cmd_verify, "solve one instance and report its certificate"),
        "sweep": (cmd_sweep, "run a configured experiment grid"),
        "phase": (cmd_phase, "run the lower-bound phase experiment"),
    }
    for name, (fn, help_text) in handlers.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="INI file with one scenario section")
        sp.add_argument("--scenario", default=None, help="section to use when several exist")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--out", default=None, help="output path")
        if name in ("sweep", "phase"):
            sp.add_argument("--threads", type=int, default=1, help="worker processes")
        sp.set_defaults(func=fn)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
