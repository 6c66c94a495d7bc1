"""Time-to-solution benchmark for robust_huber sweeps.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  One process drives the public harness: each
workload's specs come from checked-in configs (see workloads.py) and go
through ``run_experiment`` with the pool size the workload names.  Whole
passes over the workload's trials repeat until ``--seconds`` have elapsed (at
least one pass); times are medians over passes.  Set-up time is measured
after the passes, in fresh interpreters (setup_probe.py).

BLAS threading stays at its default unless a workload pins it for its passes.
pca_sweep_par pins 1 thread: at the default, each of its 2 pool workers runs
2 OpenBLAS threads on 2 cores, and identical pooled passes took from 9 s to
110 s on a 2-core Xeon.  So the end-to-end metrics of pca_sweep_par do not
show that oversubscription, and a change to it does not move them.  The
traced run shows it: it runs the workload's small ``blas_round`` through the
pool twice, pinned and with BLAS at its default, and reports the second
round's wall and its median trial time over the first's
(``experiments.pool_*_blas_default``; 0 for workloads without such a round).
The round is small because the slowdown is a wait per BLAS call: at n=200
a round of one trial per worker took 16 s in one run and 51 s in another.

``--trace 0`` reports the end-to-end metrics.  ``trial_s.p50`` and
``estimate_error.p50`` take the median at each grid point and the geometric
mean of those over the workload's points (see point_gmean).  ``--trace 1``
also runs the same trials serially with every layer wrapped (layers.py) and
reports the per-layer metrics, each per traced pass; untraced passes stay in
that run so the tracing overhead can be measured against them.

Checks, which decide ``correct``:

- no row has an error;
- after the timed passes the first trial of each spec's first grid point
  runs again, serially, and its CSV must be byte-identical to that row's CSV
  from the first pass, iteration count included (for pca_sweep_par this is a
  serial run against the pool);
- every other pass writes CSVs byte-identical to those of the first pass run
  with the same BLAS thread count (1 and 2 threads differ in the last digits);
  with ``--trace 1`` that includes the traced serial pass.

They catch results that do not repeat and a pool that disagrees with a
serial run.  They cannot catch a code change that alters results or
iteration counts, such as a solve that stops earlier, because both sides of
each comparison run the same code; such a change shows only in
``iterations`` and ``estimate_error.p50`` against the parent's figures.

The last line of standard output is the result as one JSON object; the line
before it holds the details (machine, per-pass walls and BLAS threads, the
tail percentile of trial time, scenario assertions, problems found).  Exit
status is non-zero when no result could be produced.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import CONFIG_DIR, PRIMARY_ERROR, ROOT, SRC_DIR, WORKLOADS, build_specs
from spans import Tracer, median, overhead_frac, tail

SETUP_REPEATS = 3
OUT_DIR = Path(__file__).resolve().parent / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPLICATE_AXES = ("instance",)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


@functools.cache
def openblas() -> tuple:
    """(file name, get_config, get_num_threads, set_num_threads) of each
    OpenBLAS the process has mapped, numpy's build and scipy's.  Call it
    after both are imported."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return ()
    out = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            try:
                fns = [getattr(lib, f"scipy_openblas_{name}{suffix}")
                       for name in ("get_config", "get_num_threads", "set_num_threads")]
            except AttributeError:
                continue
            fns[0].restype = ctypes.c_char_p
            fns[1].restype = ctypes.c_int
            fns[2].argtypes = [ctypes.c_int]
            out.append((Path(path).name, *fns))
            break
    return tuple(out)


def blas_threads() -> int:
    return max((get() for _, _, get, _ in openblas()), default=0)


def set_blas_threads(n: int) -> None:
    """Thread count of every OpenBLAS, in this process and in the pool
    workers it forks from now on (the machine facts record the pool's start
    method; a spawned worker would start at the default)."""
    if not openblas():
        raise RuntimeError("cannot set BLAS threads: no OpenBLAS thread API found")
    for _, _, _, set_threads in openblas():
        set_threads(n)


@dataclass
class Pass:
    wall: float
    threads: int
    blas_threads: int
    traced: bool
    rows: list  # per spec, the rows run_experiment returned
    csv: list  # per spec, the emitted CSV bytes


def csv_bytes(rows, path: Path) -> bytes:
    from robust_huber.experiments import emit_csv

    emit_csv(rows, path)
    return path.read_bytes()


def run_pass(specs, threads: int, tracer: Tracer | None, tag: str) -> Pass:
    from robust_huber.experiments import run_experiment
    from layers import ROOT_SPAN

    clock = tracer.now if tracer is not None else time.perf_counter
    t0 = clock()
    rows = []
    for spec in specs:
        if tracer is None:
            rows.append(run_experiment(spec, threads=threads))
        else:
            with tracer.span(ROOT_SPAN):
                rows.append(run_experiment(spec, threads=threads))
    wall = clock() - t0
    csv = [csv_bytes(spec_rows, OUT_DIR / f"{tag}-{i}.csv") for i, spec_rows in enumerate(rows)]
    return Pass(wall, threads, blas_threads(), tracer is not None, rows, csv)


def first_trials(specs, trials: int) -> list:
    """Each spec cut to its first grid point and first `trials` trials.  A
    trial's seed depends on (spec seed, point index, trial), so these trials
    repeat rows of the full specs."""
    return [
        dataclasses.replace(
            spec,
            grid={key: list(values)[:1] for key, values in spec.grid.items()},
            trials_per_point=min(trials, spec.trials_per_point),
        )
        for spec in specs
    ]


def probe_setup(workload: str, seed: int) -> dict:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload,
         str(seed), repr(spawned)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine_facts(default_blas_threads: int) -> dict:
    import multiprocessing

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": numpy.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
        "blas_runtime": [{"lib": name, "config": config().decode(), "threads": get()}
                         for name, config, get, _ in openblas()],
        "blas_threads_default": default_blas_threads,
        "blas_threads_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ} or "default",
        "pool_start_method": multiprocessing.get_start_method(),
    }


def peak_rss_mb(workers: int) -> float:
    """Peak resident set of this process, plus `workers` times that of the
    largest child when the workload runs a pool, since its workers run at
    once.  That bounds the peak of the process tree from above (a forked
    worker's resident set counts the pages it shares with this process).
    Read it before the set-up probes start, so pool workers are the only
    children counted."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        kb += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def row_key(row) -> tuple:
    return row.scenario, tuple(sorted(row.point.items())), row.trial


def check_passes(passes: list, rerun: Pass, unpaired: list = ()) -> list[str]:
    """Problems found: failed rows in any pass; passes whose CSV differs from
    the first pass run with the same BLAS threads; a rerun row whose CSV
    differs from the same row of the first pass.  Passes in `unpaired` are
    checked for failed rows only."""
    problems = []
    labelled = [(f"pass {k}", p) for k, p in enumerate(passes)] + [("rerun", rerun)]
    for label, p in labelled + [(f"unpaired pass {k}", p) for k, p in enumerate(unpaired)]:
        for spec_rows in p.rows:
            for row in spec_rows:
                if row.error:
                    problems.append(f"{label}: {row.scenario} {row.point} trial "
                                    f"{row.trial}: {row.error}")
    for k, p in enumerate(passes):
        j = next(j for j, q in enumerate(passes) if q.blas_threads == p.blas_threads)
        for i, (a, b) in enumerate(zip(passes[j].csv, p.csv)):
            if a != b:
                its = [[r.iterations for r in rows] for rows in (passes[j].rows[i], p.rows[i])]
                problems.append(
                    f"pass {k} (threads={p.threads}, traced={p.traced}) CSV {i} differs "
                    f"from pass {j} (threads={passes[j].threads}); "
                    f"iterations {its[1]} vs {its[0]}"
                )
    first = passes[0]
    for i, (rows, again) in enumerate(zip(first.rows, rerun.rows)):
        keys = {row_key(row) for row in again}
        same = [row for row in rows if row_key(row) in keys]
        if csv_bytes(same, OUT_DIR / f"rerun-ref-{i}.csv") != rerun.csv[i]:
            problems.append(
                f"rerun of spec {i} differs from pass 0 (threads={first.threads}); "
                f"iterations {[r.iterations for r in again]} vs {[r.iterations for r in same]}"
            )
    return problems


def point_gmean(rows_by_spec, value) -> float:
    """Median of value(row) at each grid point of each spec, geometric mean
    over those points.  Points that differ only in a replicate axis (the
    ``instance`` index of meta_certificate, which changes only the seed)
    count as one point.

    A sweep's grid points differ in error and trial time by up to 50x, so the
    median over all its rows sits between two points, or in the tail of one,
    and moves with the seed.  A replicate point has a single trial, whose
    time moves with any pause of the host; the median over the instances
    of a config does not."""
    by_point: dict = {}
    for i, rows in enumerate(rows_by_spec):
        for row in rows:
            if not row.error:
                point = tuple(sorted(kv for kv in row.point.items() if kv[0] not in REPLICATE_AXES))
                by_point.setdefault((i, point), []).append(value(row))
    logs = [math.log(median(values)) for values in by_point.values()]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def timed_passes(passes, workload) -> list:
    """Untraced passes run the way the workload runs, pool included."""
    return [p for p in passes if not p.traced and p.threads == workload.threads]


def end_to_end(passes, probes, workload, rss_mb: float) -> dict:
    timed = timed_passes(passes, workload)
    first = passes[0]
    return {
        "wall_s": (median(p.wall for p in timed), "s"),
        "trial_s.p50": (
            point_gmean([[row for p in timed for row in p.rows[i]] for i in range(len(first.rows))],
                        lambda row: row.wall_ms / 1000.0),
            "s",
        ),
        "iterations": (sum(row.iterations for rows in first.rows for row in rows), "count"),
        "estimate_error.p50": (
            point_gmean(first.rows, lambda row: row.metrics[PRIMARY_ERROR[row.scenario]]),
            "1",
        ),
        "setup_s": (median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def pass_facts(p: Pass) -> dict:
    return {"wall_s": p.wall, "threads": p.threads, "blas_threads": p.blas_threads,
            "traced": p.traced, "rows": sum(len(rows) for rows in p.rows)}


def details(args, workload, passes, rerun, blas_rounds, specs, probes, problems,
            default_blas_threads) -> dict:
    from robust_huber.experiments import scenario_assertions

    timed = timed_passes(passes, workload)
    trial_s = [row.wall_ms / 1000.0 for p in timed for rows in p.rows for row in rows]
    t = tail(trial_s)
    checks = [
        (name, ok, detail)
        for spec, rows in zip(specs, passes[0].rows)
        for name, ok, detail in scenario_assertions(spec, rows)
    ]
    rows = [row for rows in passes[0].rows for row in rows]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "threads": workload.threads,
        "machine": machine_facts(default_blas_threads),
        "passes": [pass_facts(p) for p in passes],
        "rerun": pass_facts(rerun),
        "blas_rounds": [pass_facts(p) for p in blas_rounds],
        "trial_s.tail": (
            {"percentile": t[0], "value": t[1], "samples": t[2]} if t else
            {"samples": len(trial_s), "note": "fewer than 20 trials; no tail reported"}
        ),
        "checks_failed": sum(1 for _, ok, _ in checks if not ok),
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "failed_frac": sum(1 for r in rows if r.error) / len(rows),
        "setup_probes": probes,
        "problems": problems,
    }


def blas_round_metrics(blas_rounds: list) -> dict:
    """Wall of the pooled round with BLAS at its default, and its median
    trial time over that of the same round pinned; both 0 when the workload
    runs no such round."""
    if not blas_rounds:
        return {"experiments.pool_wall_blas_default_s": (0.0, "s"),
                "experiments.pool_trial_ratio_blas_default": (0.0, "ratio")}
    pinned, default = (median(row.wall_ms for rows in p.rows for row in rows)
                       for p in blas_rounds)
    return {
        "experiments.pool_wall_blas_default_s": (blas_rounds[1].wall, "s"),
        "experiments.pool_trial_ratio_blas_default": (default / pinned, "ratio"),
    }


def per_layer(tracer: Tracer, passes, blas_rounds, probes, workload) -> dict:
    from layers import layer_metrics

    traced = [p for p in passes if p.traced]
    serial = [p for p in passes if not p.traced and p.threads == 1]
    timed = timed_passes(passes, workload)
    metrics = layer_metrics(tracer, len(traced))
    rows = [row for rows in traced[0].rows for row in rows]
    metrics.update({
        "experiments.pool_speedup": (
            median(sum(r.wall_ms for rows in p.rows for r in rows) / 1000.0 / p.wall
                   for p in timed),
            "ratio",
        ),
        **blas_round_metrics(blas_rounds),
        "experiments.rows": (len(rows), "count"),
        "experiments.rows_failed": (sum(1 for r in rows if r.error), "count"),
        "setup.import_s": (median(p["import_s"] for p in probes), "s"),
        "trace.overhead_frac": (
            overhead_frac(median(p.wall for p in traced), median(p.wall for p in serial)),
            "ratio",
        ),
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "robust_huber").is_dir() or not CONFIG_DIR.is_dir():
        print(f"perfbench: no robust_huber sources under {ROOT}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC_DIR))
    OUT_DIR.mkdir(exist_ok=True)

    specs = build_specs(workload, args.seed)  # imports the package, numpy and scipy
    default_blas_threads = blas_threads()
    if workload.blas_threads is not None:
        set_blas_threads(workload.blas_threads)
    tracer = Tracer()
    plan = [(workload.threads, None)]
    if args.trace:
        plan.append((1, tracer))
        if workload.threads > 1:
            plan.append((1, None))  # untraced serial base for the overhead

    from layers import instrument

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        for threads, pass_tracer in plan:
            tag = f"{workload.name}-{len(passes)}"
            if pass_tracer is None:
                passes.append(run_pass(specs, threads, None, tag))
            else:
                with instrument(pass_tracer):
                    passes.append(run_pass(specs, threads, pass_tracer, tag))
    rerun = run_pass(first_trials(specs, 1), 1, None, f"{workload.name}-rerun")
    blas_rounds = []
    if args.trace and workload.blas_round:
        round_specs = build_specs(workload, args.seed, workload.blas_round)
        for threads, tag in ((workload.blas_threads, "pinned"), (default_blas_threads, "default")):
            set_blas_threads(threads)
            blas_rounds.append(run_pass(round_specs, workload.threads, None,
                                        f"{workload.name}-blas-{tag}"))
        set_blas_threads(workload.blas_threads)
    rss_mb = peak_rss_mb(workload.threads)
    probes = [probe_setup(workload.name, args.seed) for _ in range(SETUP_REPEATS)]

    problems = check_passes(passes, rerun, blas_rounds)
    metrics = (
        per_layer(tracer, passes, blas_rounds, probes, workload) if args.trace
        else end_to_end(passes, probes, workload, rss_mb)
    )
    ran = [*passes, rerun, *blas_rounds]
    attempted = sum(len(rows) for p in ran for rows in p.rows)
    failed = sum(1 for p in ran for rows in p.rows for row in rows if row.error)
    print(json.dumps(details(args, workload, passes, rerun, blas_rounds, specs, probes,
                             problems, default_blas_threads)))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
