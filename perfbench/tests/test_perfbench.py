"""Tests of the benchmark's own arithmetic and plumbing (no timed runs)."""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

from spans import Tracer, overhead_frac, tail  # noqa: E402
from workloads import SRC_DIR, WORKLOADS, build_specs  # noqa: E402

sys.path.insert(0, str(SRC_DIR))

import run  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_self_time_is_span_minus_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(dt):
        clock.advance(dt)

    def middle():
        clock.advance(1.0)
        traced_leaf(2.0)
        traced_leaf(0.5)
        clock.advance(0.25)

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    with tracer.span("root"):
        clock.advance(3.0)
        traced_middle()

    assert tracer.self_times() == pytest.approx({"root": 3.0, "middle": 1.25, "leaf": 2.5})
    assert tracer.total_times()["root"] == pytest.approx(6.75)
    assert tracer.counts == {"leaf": 2, "middle": 1}


def test_paused_clock_is_charged_to_no_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    probed = []

    def prox():
        clock.advance(1.0)
        return "out"

    def probe(out, args, kwargs):
        clock.advance(5.0)  # e.g. the rank of the output
        probed.append(out)

    traced = tracer.wrap("prox", prox, on_result=probe)
    with tracer.span("solver"):
        traced()
        clock.advance(2.0)

    assert probed == ["out"]
    assert tracer.self_times() == pytest.approx({"solver": 2.0, "prox": 1.0})
    assert tracer.now() == pytest.approx(3.0)


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),
        (20, (50.0, 9, 20)),
        (100, (90.0, 89, 100)),
        (1000, (99.0, 989, 1000)),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    values = list(range(n))[::-1]  # order must not matter
    assert tail(values) == expected
    if expected is not None:
        _, value, _ = expected
        assert sum(1 for v in values if v > value) == 10


def test_overhead_frac_is_traced_over_untraced_minus_one():
    assert overhead_frac(12.0, 10.0) == pytest.approx(0.2)
    assert overhead_frac(10.0, 10.0) == 0.0


def test_seed_reaches_every_spec():
    args = run.parse_args(
        ["--workload", "regression", "--seed", "7", "--seconds", "1", "--trace", "0"]
    )
    assert (args.workload, args.seed, args.seconds, args.trace) == ("regression", 7, 1.0, 0)
    for name, workload in WORKLOADS.items():
        specs = build_specs(workload, args.seed)
        assert len(specs) == len(workload.parts)
        assert all(spec.seed == 7 for spec in specs), name
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "regression", "--seed", "-1", "--seconds", "1",
                        "--trace", "0"])


def test_instrument_restores_the_package():
    import robust_huber.estimators as estimators
    import robust_huber.verification as verification
    from layers import instrument

    before = (estimators.prox_nuclear, verification.nuclear_norm,
              verification.LowRankCone.sample)
    with instrument(Tracer()):
        assert estimators.prox_nuclear is not before[0]
    assert (estimators.prox_nuclear, verification.nuclear_norm,
            verification.LowRankCone.sample) == before


def test_point_gmean_is_geometric_mean_of_point_medians():
    from robust_huber.experiments import ResultRow

    def row(n, trial, err, error=""):
        metrics = {} if error else {"prediction_error_sq": err}
        return ResultRow("regression_n_sweep", {"n": n}, trial, metrics, 10, {}, error=error)

    rows = [row(500, 0, 1.0), row(500, 1, 4.0), row(500, 2, 2.0),
            row(8000, 0, 0.5), row(8000, 1, 0.5), row(8000, 2, 0.0, error="ValueError: x")]
    error = run.point_gmean([rows], lambda r: r.metrics["prediction_error_sq"])
    assert error == pytest.approx(1.0)  # sqrt(2.0 * 0.5); the failed row is skipped
    assert run.point_gmean([], lambda r: 0.0) == 0.0


def test_point_gmean_pools_replicate_instances_within_a_spec():
    from robust_huber.experiments import ResultRow

    def spec_rows(values):
        return [ResultRow("meta_certificate", {"instance": k}, 0, {"error_value": v}, 5, {})
                for k, v in enumerate(values)]

    # one point per spec: medians 8.0 and 0.5, though the instance indices repeat
    rows_by_spec = [spec_rows([9.0, 8.0, 1.0]), spec_rows([0.5, 0.25, 0.5, 100.0])]
    assert run.point_gmean(rows_by_spec, lambda r: r.metrics["error_value"]) == pytest.approx(2.0)


def _pass(iterations, blas_threads=1, error=""):
    from robust_huber.experiments import ResultRow

    rows = [
        ResultRow("pca_n_sweep", {"n": 200}, t, {"frobenius_error": 1.5}, its, {}, error=error)
        for t, its in enumerate(iterations)
    ]
    return run.Pass(1.0, 1, blas_threads, False, [rows], [])


def _with_csv(p, path):
    p.csv = [run.csv_bytes(rows, path) for rows in p.rows]
    return p


def test_rerun_and_repeat_checks_can_fail(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    first = _with_csv(_pass([300, 310]), tmp_path / "a.csv")
    same = _with_csv(_pass([300, 310]), tmp_path / "b.csv")
    rerun_ok = _with_csv(_pass([300]), tmp_path / "c.csv")
    assert run.check_passes([first, same], rerun_ok) == []

    rerun_short = _with_csv(_pass([299]), tmp_path / "d.csv")
    problems = run.check_passes([first, same], rerun_short)
    assert len(problems) == 1 and "rerun" in problems[0] and "[299] vs [300]" in problems[0]

    changed = _with_csv(_pass([300, 250]), tmp_path / "e.csv")
    assert len(run.check_passes([first, changed], rerun_ok)) == 1
    # a pass with other BLAS threads is compared only with passes like it
    other_blas = _with_csv(_pass([300, 250], blas_threads=2), tmp_path / "f.csv")
    assert run.check_passes([first, other_blas], rerun_ok) == []

    failed = _with_csv(_pass([0], error="ValueError: x"), tmp_path / "g.csv")
    assert any("ValueError" in p for p in run.check_passes([first], rerun_ok, [failed]))


def test_first_trials_keeps_the_first_point_and_its_seed():
    from robust_huber.experiments import grid_points

    spec = build_specs(WORKLOADS["phase_certs"], 5)[0]
    (cut,) = run.first_trials([spec], 1)
    assert grid_points(cut.grid) == grid_points(spec.grid)[:1]
    assert (cut.trials_per_point, cut.seed) == (1, spec.seed)
    (cut2,) = run.first_trials([spec], 2)
    assert cut2.trials_per_point == 1  # never more trials than the spec has


def test_peak_rss_counts_pool_workers_only_for_a_pool():
    serial = run.peak_rss_mb(1)
    assert serial > 0
    assert run.peak_rss_mb(2) >= serial


def test_blas_round_ratio_is_default_over_pinned_median_trial():
    from robust_huber.experiments import ResultRow

    def round_pass(wall, trial_ms):
        rows = [ResultRow("pca_n_sweep", {"n": 50}, t, {}, 200, {}, wall_ms=ms)
                for t, ms in enumerate(trial_ms)]
        return run.Pass(wall, 2, 1, False, [rows], [])

    metrics = run.blas_round_metrics([round_pass(0.3, [100.0, 300.0]),
                                      round_pass(8.0, [1000.0, 5000.0])])
    assert metrics["experiments.pool_wall_blas_default_s"] == (8.0, "s")
    assert metrics["experiments.pool_trial_ratio_blas_default"] == (15.0, "ratio")
    assert all(v == 0.0 for v, _ in run.blas_round_metrics([]).values())
    assert WORKLOADS["pca_sweep_par"].blas_round and not WORKLOADS["regression"].blas_round

