"""Set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <spawn time>

<spawn time> is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is system-wide on Linux, so the difference covers
interpreter start, the package import and loading the workload's configs,
up to the point where the first trial could start.  Prints one JSON line.
"""

import sys
import time

t_start = time.perf_counter()

import json  # noqa: E402

from workloads import SRC_DIR, WORKLOADS, build_specs  # noqa: E402

sys.path.insert(0, str(SRC_DIR))

from robust_huber.experiments import grid_points  # noqa: E402

import_s = time.perf_counter() - t_start
name, seed, spawned = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
jobs = [pt for spec in build_specs(WORKLOADS[name], seed) for pt in grid_points(spec.grid)]
print(json.dumps({"import_s": import_s, "setup_s": time.monotonic() - spawned, "jobs": len(jobs)}))
