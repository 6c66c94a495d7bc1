"""Audit how far each config's solves stop from their optimum.

    python3 scripts/objective_gap.py [CONFIG ...]

Run from the repository root with the package importable (``PYTHONPATH=src``;
point PYTHONPATH at another checkout's ``src`` to audit that revision with the
same configs).  CONFIG defaults to every ``configs/*.ini``.  For each config,
trial 0 of every grid point is solved twice from the same start: once with
the config's solver settings, and once as a reference at ``rel_tol`` 1e-12
for FISTA (regression) or 1e-9 for the splitting (PCA, phase, matrix
completion), with ``max_iters`` REFERENCE_MAX_ITERS.  The FISTA reference
solves the regression composite without its Newton step
(``CompositeProblem.newton_step``), so the optimum a stop is measured
against is one that step did not compute; a package without that field
solves it as it is.  It prints one line per config:

- ``solves``: the grid points solved;
- ``gap_median``, ``gap_max``: the median and the maximum over the solves of
  the relative objective gap (f_stop - f_ref) / |f_ref|, negative where the
  stop ended below the reference;
- ``iters``, ``ref_iters``: the iterations of the stops and of the
  references, summed over the solves;
- ``caps``: the stops and the references that ran out of iterations, so a
  gap whose reference hit its cap bounds nothing;
- ``error_move``: the largest |e_stop - e_ref| / |e_ref| over the solves and
  their error metrics (prediction and parameter error, Frobenius error);
- ``refused``: the points the stops' safeguards refused
  (``SolveResult.rejected``: the splitting's Anderson points, FISTA's Newton
  steps), summed over the solves.

The output holds no timing and OpenBLAS runs one thread (unless
OPENBLAS_NUM_THREADS is set), so two runs on one machine print the same
bytes.  A solver change quotes it at the parent and at the change: a solve
that is faster because it stops further from the optimum shows here.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads OpenBLAS

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from robust_huber import RegressionProblem, SolverConfig  # noqa: E402
from robust_huber.estimators import build_regression_composite  # noqa: E402
from robust_huber.experiments import ExperimentSpec, build_instance, solve_instance  # noqa: E402

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
REFERENCE_TOL = {"fista": 1e-12, "split": 1e-9}
REFERENCE_MAX_ITERS = {"fista": 200_000, "split": 5_000}
COLUMNS = ("config", "solver", "solves", "gap_median", "gap_max", "iters", "ref_iters",
           "caps", "error_move", "refused")
WIDTHS = (28, 6, 6, 10, 10, 7, 9, 5, 10, 7)


def _relative(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else (0.0 if a == b else float("inf"))


def _reference_composite(spec, problem):
    """The objective a FISTA reference solves: the regression composite with
    no Newton step, or None (the estimator builds its own) for the
    splitting."""
    if not isinstance(problem, RegressionProblem):
        return None
    composite, _ = build_regression_composite(problem, spec.constants)
    if hasattr(composite, "newton_step"):
        composite.newton_step = None
    return composite


def audit(path: Path) -> dict:
    """The audit line of one config, as a dict keyed by COLUMNS."""
    spec = ExperimentSpec.from_config(path)
    gaps, iters, ref_iters, refused, moves = [], 0, 0, 0, [0.0]
    caps = [0, 0]
    kind = None
    for _, trial, p, seed in spec.trials():
        if trial != 0:
            continue
        problem = build_instance(spec, p, seed)
        kind = "fista" if isinstance(problem, RegressionProblem) else "split"
        reference = SolverConfig(REFERENCE_MAX_ITERS[kind], REFERENCE_TOL[kind])
        stop, errors = solve_instance(spec, problem)
        ref, ref_errors = solve_instance(dataclasses.replace(spec, solver=reference), problem,
                                         _reference_composite(spec, problem))
        gaps.append((stop.objective - ref.objective) / abs(ref.objective))
        iters += stop.iterations
        ref_iters += ref.iterations
        refused += stop.rejected
        caps[0] += not stop.converged
        caps[1] += not ref.converged
        moves += [_relative(errors[name], ref_errors[name]) for name in errors]
    return {
        "config": path.stem,
        "solver": kind,
        "solves": len(gaps),
        "gap_median": f"{np.median(gaps):.2g}",
        "gap_max": f"{max(gaps):.2g}",
        "iters": iters,
        "ref_iters": ref_iters,
        "caps": f"{caps[0]}/{caps[1]}",
        "error_move": f"{max(moves):.2g}",
        "refused": refused,
    }


def _line(values) -> str:
    return " ".join(f"{value!s:<{width}}" for value, width in zip(values, WIDTHS)).rstrip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("configs", nargs="*", type=Path,
                        help="config files (default: every configs/*.ini)")
    args = parser.parse_args(argv)
    print(_line(COLUMNS))
    for path in args.configs or sorted(CONFIG_DIR.glob("*.ini")):
        row = audit(path)
        print(_line(row[column] for column in COLUMNS), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
