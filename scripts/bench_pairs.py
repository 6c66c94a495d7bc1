"""Run the benchmark on two git revisions in alternating pairs.

    python3 scripts/bench_pairs.py --base REV --head REV --workload NAME \
        --seeds 901-910 [--seconds 12] [--out BENCH.json]

Run from the repository root.  Each revision is exported with ``git archive``
into a work directory (``--workdir``, by default a temporary one), and
``perfbench/run.py`` runs there, unchanged, once per side of each pair:
``--workload NAME --seed S --seconds N --trace 0``.  Pair k runs the base
first when k is even and the head first when k is odd, so that a drift of the
host over the session does not favour one side.  ``--workload`` may repeat;
each workload runs all its pairs before the next starts.  Each name must be
a workload of BENCHMARK.json, checked before any revision is exported, so a
misspelt one is an argparse error (exit 2), not a failure after the earlier
workloads have run.

The output file holds every run's result line (the last line ``run.py``
prints), and, per workload and end-to-end metric of BENCHMARK.json, each
side's median and quartiles, the number of pairs the head won (ties count
for neither side), and two verdicts:

- ``claim_rule_met``: the head won at least 9 of every 10 pairs, and its
  median beats the base's median, in the metric's ``better`` direction, by
  more than the base's interquartile range q3 - q1;
- ``within_bound``: the head's median is worse than the base's by at most the
  metric's ``bound`` (a fraction of the base's median).

It is rewritten after each run, so an interrupted session keeps the runs it
finished.  BENCHMARK.json is only read.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """'901-910' or '901,905,907' (or a mix) as a list of seeds.  An empty
    list, a reversed range or a repeated seed is an argparse error: each would
    run fewer pairs, or one pair twice, without saying so."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        try:
            lo, hi = int(lo), int(hi or lo)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{part!r} is not a seed or a range") from None
        if hi < lo:
            raise argparse.ArgumentTypeError(f"reversed seed range {part!r}")
        seeds.extend(range(lo, hi + 1))
    repeated = sorted({seed for seed in seeds if seeds.count(seed) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(f"seed(s) {repeated} given more than once")
    return seeds


def export(rev: str, dest: Path) -> str:
    """Write the tree of `rev` to `dest`; return the full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {checkout} ({workload}, seed {seed}): "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:  # quantiles() needs two points; one run is its own quartiles
        values = values * 2
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per workload and metric: both sides' quartiles, the head's wins over
    the pairs that have both sides, and the verdicts (within_bound only for a
    metric with a bound)."""
    bounds = bounds or {}
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        full = [p for p in pairs.values() if len(p) == 2]
        if not full:
            continue
        summary = {}
        for metric, direction in better.items():
            base = [p["base"][metric]["value"] for p in full]
            head = [p["head"][metric]["value"] for p in full]
            sign = 1.0 if direction == "lower" else -1.0
            wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
            base_q, head_q = quartiles(base), quartiles(head)
            gain = sign * (base_q["median"] - head_q["median"])  # > 0: the head is better
            summary[metric] = {
                "base": base_q,
                "head": head_q,
                "head_wins": wins,
                "pairs": len(full),
                "claim_rule_met": 10 * wins >= 9 * len(full)
                and gain > base_q["q3"] - base_q["q1"],
            }
            if metric in bounds:
                summary[metric]["within_bound"] = (
                    -gain <= bounds[metric] * abs(base_q["median"]))
        out[workload] = summary
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision measured as the base")
    parser.add_argument("--head", required=True, help="revision measured as the change")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workload", required=True, action="append",
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where the revisions are exported (default: a temporary directory)")
    args = parser.parse_args(argv)

    end_to_end = benchmark["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end if "bound" in m}
    if args.workdir is not None:  # mkdtemp needs its parent to exist
        args.workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        checkouts = {side: Path(tmp) / side for side in ("base", "head")}
        shas = {side: export(getattr(args, side), path) for side, path in checkouts.items()}
        record = {"base": shas["base"], "head": shas["head"], "seconds": args.seconds,
                  "runs": [], "summary": {}}
        for workload in args.workload:
            for k, seed in enumerate(args.seeds):
                for side in (("base", "head") if k % 2 == 0 else ("head", "base")):
                    result = run_bench(checkouts[side], workload, seed, args.seconds)
                    record["runs"].append({"workload": workload, "seed": seed, "pair": k,
                                           "side": side, "result": result})
                    record["summary"] = summarize(record["runs"], better, bounds)
                    args.out.write_text(json.dumps(record, indent=1) + "\n")
                    print(f"{workload} seed {seed} {side}: correct={result['correct']} "
                          f"wall_s={result['metrics']['wall_s']['value']:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
