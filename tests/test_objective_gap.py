"""The objective-gap audit: one deterministic line per config, with the gap of
each stop to its tight reference."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "objective_gap.py"

CONFIGS = {
    "tiny_regression.ini": """[regression_gaussian_design]
n_grid = 200 300
d = 20
k = 3
alpha = 0.5
magnitude = 3.0
trials_per_point = 2
seed = 1
gamma_scale = 2.0
rel_tol = 1e-7
""",
    "tiny_completion.ini": """[matrix_completion]
alpha_grid = 0.9
n = 20
r = 1
zeta = 0.1
rho_over_n = 1.0
trials_per_point = 1
seed = 1
gamma_scale = 1.0
max_iters = 1500
rel_tol = 1e-5
""",
}


def _audit(paths) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, paths)], cwd=ROOT, env=env,
                          capture_output=True, check=True).stdout


def test_objective_gap_prints_the_same_bytes_twice(tmp_path):
    paths = []
    for name, text in CONFIGS.items():
        paths.append(tmp_path / name)
        paths[-1].write_text(text)
    first = _audit(paths)
    assert _audit(paths) == first
    header, *lines = first.decode().splitlines()
    assert header.split() == ["config", "solver", "solves", "gap_median", "gap_max", "iters",
                              "ref_iters", "caps", "error_move", "refused"]
    rows = {line.split()[0]: line.split() for line in lines}
    assert set(rows) == {"tiny_regression", "tiny_completion"}
    # trial 0 of each grid point only
    assert rows["tiny_regression"][1:3] == ["fista", "2"]
    assert rows["tiny_completion"][1:3] == ["split", "1"]
    for row in rows.values():
        assert row[7] == "0/0"  # neither the stops nor the references hit a cap
        assert int(row[6]) >= int(row[5]) > 0  # the reference runs at least as long
        assert row[9].isdigit()  # the refused points: a non-negative integer
    assert abs(float(rows["tiny_regression"][4])) <= 1e-12
