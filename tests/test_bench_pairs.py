"""The paired benchmark script's seed parsing, per-metric summary and verdicts."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_parse_seeds():
    assert bench_pairs.parse_seeds("901-903") == [901, 902, 903]
    assert bench_pairs.parse_seeds("5,7-8") == [5, 7, 8]


def test_summary_counts_head_wins_by_direction_and_skips_unpaired_runs():
    def run(pair, side, wall, rows):
        metrics = {"wall_s": {"value": wall}, "rows": {"value": rows}}
        return {"workload": "w", "seed": pair, "pair": pair, "side": side,
                "result": {"metrics": metrics}}

    runs = [run(0, "base", 6.0, 10), run(0, "head", 3.0, 10),
            run(1, "head", 2.0, 9), run(1, "base", 5.0, 11),
            run(2, "base", 4.0, 10), run(2, "head", 4.0, 12),
            run(3, "base", 1.0, 1)]  # pair 3 has no head run yet
    summary = bench_pairs.summarize(runs, {"wall_s": "lower", "rows": "higher"})["w"]
    assert summary["wall_s"]["pairs"] == 3
    assert summary["wall_s"]["head_wins"] == 2  # the tie counts for neither side
    assert summary["wall_s"]["base"] == {"median": 5.0, "q1": 4.5, "q3": 5.5}
    assert summary["wall_s"]["head"]["median"] == 3.0
    assert summary["rows"]["head_wins"] == 1
    # after the first pair, each side's quartiles are its one value
    first = bench_pairs.summarize(runs[:2], {"wall_s": "lower"})["w"]["wall_s"]
    assert first["base"] == {"median": 6.0, "q1": 6.0, "q3": 6.0} and first["head_wins"] == 1


def _pairs(base, head, metric="wall_s"):
    runs = []
    for k, (b, h) in enumerate(zip(base, head)):
        for side, value in (("base", b), ("head", h)):
            runs.append({"workload": "w", "seed": k, "pair": k, "side": side,
                         "result": {"metrics": {metric: {"value": value}}}})
    return runs


BASE = [3.7, 3.8, 3.9, 3.8, 3.6, 3.85, 3.75, 3.8, 3.9, 3.7]  # q1 3.7, median 3.8, q3 3.8375


def test_claim_rule_needs_nine_of_ten_wins_and_a_median_gap_beyond_the_base_iqr():
    def verdict(head, direction="lower"):
        runs = _pairs(BASE, head)
        return bench_pairs.summarize(runs, {"wall_s": direction})["w"]["wall_s"]

    faster = [b - 0.7 for b in BASE]
    assert verdict(faster)["claim_rule_met"] is True
    # one lost pair of ten still meets the rule; two do not
    one_lost = faster[:9] + [BASE[9] + 0.1]
    assert verdict(one_lost)["head_wins"] == 9 and verdict(one_lost)["claim_rule_met"]
    two_lost = faster[:8] + [BASE[8] + 0.1, BASE[9] + 0.1]
    assert verdict(two_lost)["claim_rule_met"] is False
    # winning every pair by less than the base's spread is not enough
    barely = [b - 0.01 for b in BASE]
    assert verdict(barely)["head_wins"] == 10
    assert verdict(barely)["claim_rule_met"] is False
    # the direction comes from `better`: lower times do not win a `higher` metric
    assert verdict(faster, "higher")["claim_rule_met"] is False
    assert verdict([b + 0.7 for b in BASE], "higher")["claim_rule_met"] is True


def test_within_bound_compares_the_medians_against_the_relative_bound():
    def verdict(head, direction="lower"):
        runs = _pairs(BASE, head)
        return bench_pairs.summarize(runs, {"wall_s": direction}, {"wall_s": 0.25})["w"]["wall_s"]

    assert verdict([b * 1.2 for b in BASE])["within_bound"] is True  # 20% worse
    assert verdict([b * 1.3 for b in BASE])["within_bound"] is False  # 30% worse
    assert verdict([b * 0.5 for b in BASE])["within_bound"] is True  # better
    assert verdict([b * 0.7 for b in BASE], "higher")["within_bound"] is False
    # a metric without a bound gets no within_bound verdict
    runs = _pairs(BASE, BASE)
    assert "within_bound" not in bench_pairs.summarize(runs, {"wall_s": "lower"})["w"]["wall_s"]


def test_main_writes_both_verdicts_for_every_metric_and_leaves_benchmark_json(
        tmp_path, monkeypatch):
    import json

    benchmark = SCRIPT.parent.parent / "BENCHMARK.json"
    before = benchmark.read_bytes()
    names = [m["name"] for m in json.loads(before)["end_to_end"]]

    def fake_run(checkout, workload, seed, seconds):
        value = 2.0 if checkout.name == "head" else 3.0 + 0.01 * seed
        return {"correct": True, "metrics": {n: {"value": value} for n in names}}

    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: rev)
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--base", "b", "--head", "h", "--workload", "w",
                             "--seeds", "1-10", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["summary"]["w"]
    assert set(summary) == set(names)
    assert summary["wall_s"]["claim_rule_met"] is True  # lower is better
    assert summary["wall_s"]["within_bound"] is True
    assert all("within_bound" in summary[n] for n in names)
    assert benchmark.read_bytes() == before
