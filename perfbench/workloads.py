"""The benchmark's workloads: checked-in configs, trimmed to fit one run.

Each workload is a list of (config file, overrides) pairs.  The spec comes
from ``ExperimentSpec.from_config(path, seed=<workload seed>)`` and is then
trimmed with ``dataclasses.replace``; grids and trial counts shrink, solver
settings never change, so every trial solves the problem the config defines.
Why each workload is in the benchmark is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT / "src"
CONFIG_DIR = ROOT / "configs"

# y-field of each scenario's plot axes: the primary error metric
PRIMARY_ERROR = {
    "regression_n_sweep": "prediction_error_sq",
    "regression_alpha_sweep": "prediction_error_sq",
    "pca_n_sweep": "frobenius_error",
    "pca_alpha_sweep": "frobenius_error",
    "lowerbound_phase": "rel_error",
    "meta_certificate": "error_value",
}


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple  # ((config file name, overrides dict), ...)
    threads: int = 1
    # BLAS threads for the run's passes, set at run time; None leaves the default
    blas_threads: int | None = None
    # parts the traced run also runs pooled, once with blas_threads and once
    # with BLAS at its default, to show what the pin hides
    blas_round: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "phase_certs",
            # One trial per alpha: an n=400 trial takes 7-20 s on a 2-core Xeon.
            # The certificate configs run in the same pass because alone their
            # times followed the host: their wall spread 24.2 % and their
            # median trial time 25.5 % (IQR over median, 10 seeds), against
            # 6.6 % for the phase trials, whose dense SVDs vary less with it.
            (
                ("accept10_phase.ini", {"grid": {"alpha": [0.01, 0.25]}, "trials_per_point": 1}),
                ("accept06_meta_pca.ini", {}),
                ("accept06_meta_regression.ini", {}),
            ),
        ),
        Workload(
            "pca_sweep_par",
            # n=50 and n=100 solves vary 2x in iteration count from seed to seed
            # (107-512 and 231-402 measured), n=200 solves by a few percent
            (("accept05_pca_n.ini", {"grid": {"n": [200]}, "trials_per_point": 4}),),
            threads=2,
            # with default BLAS threads each worker runs 2 BLAS threads on the
            # 2 cores; on a 2-core Xeon (OpenBLAS 0.3.31) identical pooled
            # passes then took from 9 s to 110 s.
            blas_threads=1,
            # one n=50 trial per worker: 0.2 s pinned, 8 s at the default on
            # that Xeon.  The slowdown is a wait of tens of ms per BLAS call,
            # so the same round at n=200 took 16 s in one run and 51 s in another.
            blas_round=(("accept05_pca_n.ini", {"grid": {"n": [50]}, "trials_per_point": 2}),),
        ),
        Workload(
            "regression",
            (
                ("accept04_regression_n.ini", {}),
                ("accept04_regression_alpha.ini", {}),
            ),
        ),
    )
}


def build_specs(workload: Workload, seed: int, parts: tuple | None = None) -> list:
    """The experiment specs of `parts` (by default the workload's own) for
    one seed, trimmed."""
    from robust_huber.experiments import ExperimentSpec

    return [
        dataclasses.replace(
            ExperimentSpec.from_config(CONFIG_DIR / config, seed=seed), **overrides
        )
        for config, overrides in (workload.parts if parts is None else parts)
    ]
