"""Check that two git revisions write byte-identical results for every config.

    python3 scripts/same_results.py --base REV --head REV [--workdir DIR]

Run from the repository root.  Each revision is exported with ``git archive``
(``bench_pairs.export``).  In one subprocess per revision, with
``OPENBLAS_NUM_THREADS=1``, every config under that revision's ``configs/``
runs serially, trimmed to its first grid point and one trial at seed 7, and
writes its CSV; a ``meta_certificate`` config also writes the certificate
report of that first instance (``<config>.report``, the report ``robust-huber
verify`` prints, without the note it adds on a vacuous radius).  The script then lists each CSV and report as
``identical``, ``differs``, or missing on one side (a config that failed to
run, or exists in one revision only), and exits 0 only if all are identical.
Under each file that differs it prints the first differing line of each
side, which names the grid point and trial, or the report field, that moved,
and the largest relative difference |head - base| / |base| of each numeric
column (each numeric field of a report), which shows how far results moved.

A result-neutral change (a refactor, a speedup that must not move any
iterate) should leave every line ``identical``.  The trimmed runs reach every
scenario's code path in seconds; they do not replace the full sweeps.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import export  # noqa: E402

SEED = 7
OUTPUTS = ("*.csv", "*.report")  # the files compared between the revisions

# runs in the exported checkout: python -c RUNNER OUT_DIR SEED
RUNNER = """
import dataclasses, sys, traceback
from pathlib import Path
from robust_huber.datagen import trial_seed
from robust_huber.experiments import (
    ExperimentSpec, emit_csv, grid_points, run_certificate, run_experiment,
)

out, seed = Path(sys.argv[1]), int(sys.argv[2])
for path in sorted(Path("configs").glob("*.ini")):
    try:
        spec = ExperimentSpec.from_config(path, seed=seed)
        first = grid_points(spec.grid)[0]
        spec = dataclasses.replace(
            spec, grid={k: [v] for k, v in first.items()}, trials_per_point=1
        )
        emit_csv(run_experiment(spec), out / (path.stem + ".csv"))
        if spec.scenario == "meta_certificate":
            p = {**spec.params, **first}
            cert = run_certificate(spec, p, trial_seed(spec.seed, 0, 0))[3]
            (out / (path.stem + ".report")).write_text(cert.to_report())
    except Exception:
        print(f"{path.name} failed:", file=sys.stderr)
        traceback.print_exc()
"""


def run_configs(checkout: Path, out: Path, seed: int) -> None:
    """Write one trimmed CSV per config of `checkout`, and a report per
    meta_certificate config, into `out`, which must not exist yet: a file
    left from an earlier run could pass for this one's."""
    out.mkdir(parents=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(checkout / "src"))
    subprocess.run([sys.executable, "-c", RUNNER, str(out), str(seed)],
                   cwd=checkout, env=env, check=True)


def compare_outputs(base: Path, head: Path) -> dict[str, str]:
    """Per CSV or report name in either directory: identical, differs, or
    missing on a side."""
    names = sorted({p.name for d in (base, head) for pattern in OUTPUTS for p in d.glob(pattern)})
    status = {}
    for name in names:
        a, b = base / name, head / name
        if not a.exists():
            status[name] = "missing in base"
        elif not b.exists():
            status[name] = "missing in head"
        else:
            status[name] = "identical" if a.read_bytes() == b.read_bytes() else "differs"
    return status


def first_difference(base: Path, head: Path) -> tuple[int, str, str]:
    """1-based number and text of the first line where two files differ, each
    line with its line ending; a side that has no such line gives ''."""
    with open(base, newline="") as fa, open(head, newline="") as fb:
        for number, (a, b) in enumerate(itertools.zip_longest(fa, fb, fillvalue=""), start=1):
            if a != b:
                return number, a, b
    raise ValueError(f"{base.name} is the same on both sides")


def numeric_columns(path: Path) -> dict[str, list[float]]:
    """The numeric columns of a CSV by header name, or the numeric
    `name = value` fields of a report as one-value columns.  A column with a
    cell that is not a number (a flag, a name, an empty error) is left out."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        cells = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    else:
        cells = {name: [value] for name, _, value in
                 (line.partition(" = ") for line in path.read_text().splitlines())}
    columns = {}
    for name, column in cells.items():
        try:
            columns[name] = [float(cell) for cell in column]
        except ValueError:
            pass
    return columns


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or a == 0:
        return math.inf
    return abs(b - a) / abs(a)


def largest_relative_differences(base: Path, head: Path) -> dict[str, float]:
    """Per numeric column that both files have with as many values: the
    largest |head - base| / |base| over its rows, 0 where the values are
    equal, inf where base is 0 or only one side is NaN."""
    a, b = numeric_columns(base), numeric_columns(head)
    return {name: max(map(_relative, a[name], b[name]), default=0.0)
            for name in a if name in b and len(a[name]) == len(b[name])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision compared against")
    parser.add_argument("--head", required=True, help="revision under test")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="a new directory where the revisions and their outputs go, "
                             "and stay (default: a temporary directory)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        work = args.workdir or Path(tmp)
        outs = {}
        for side in ("base", "head"):
            checkout = work / side
            sha = export(getattr(args, side), checkout)
            print(f"{side}: {sha}", file=sys.stderr)
            outs[side] = work / f"{side}_out"
            run_configs(checkout, outs[side], SEED)
        status = compare_outputs(outs["base"], outs["head"])
        moved = {name: (first_difference(outs["base"] / name, outs["head"] / name),
                        largest_relative_differences(outs["base"] / name, outs["head"] / name))
                 for name, state in status.items() if state == "differs"}
    for name, state in status.items():
        print(f"{name}: {state}")
        if name in moved:
            (number, a, b), largest = moved[name]
            print(f"  line {number} base: {a!r}")
            print(f"  line {number} head: {b!r}")
            if largest:
                print("  largest relative difference: "
                      + ", ".join(f"{column} {value:.3g}" for column, value in largest.items()))
    same = sum(1 for state in status.values() if state == "identical")
    print(f"{same}/{len(status)} files byte-identical")
    return 0 if status and same == len(status) else 1


if __name__ == "__main__":
    sys.exit(main())
