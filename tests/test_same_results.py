"""The two-revision result check's CSV comparison (no configs are run)."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "same_results.py"
spec = importlib.util.spec_from_file_location("same_results", SCRIPT)
same_results = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_results)


def test_compare_csvs_by_bytes_and_by_presence(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    base.mkdir()
    head.mkdir()
    files = {
        "same.csv": ("a,b\n1,2\n", "a,b\n1,2\n"),
        "digit.csv": ("x\n0.10000000000000001\n", "x\n0.10000000000000003\n"),
        "newline.csv": ("x\n1\n", "x\n1\r\n"),  # equal as text lines, not as bytes
        "old.csv": ("x\n", None),
        "new.csv": (None, "x\n"),
    }
    for name, (a, b) in files.items():
        if a is not None:
            (base / name).write_bytes(a.encode())
        if b is not None:
            (head / name).write_bytes(b.encode())
    (base / "notes.txt").write_text("not a CSV")
    assert same_results.compare_csvs(base, head) == {
        "digit.csv": "differs",
        "new.csv": "missing in base",
        "newline.csv": "differs",
        "old.csv": "missing in head",
        "same.csv": "identical",
    }
