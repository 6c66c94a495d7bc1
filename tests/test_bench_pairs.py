"""The paired benchmark script's seed parsing and per-metric summary."""

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
