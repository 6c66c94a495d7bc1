"""The two-revision result check's CSV comparison and its report of the
first differing line (no configs are run)."""

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


def test_first_difference_names_the_moved_row(tmp_path):
    header = "scenario,n,trial,error\n"
    cases = {
        "row": (header + "s,50,0,0.1\ns,50,1,0.2\n", header + "s,50,0,0.1\ns,50,1,0.3\n",
                (3, "s,50,1,0.2\n", "s,50,1,0.3\n")),
        "newline": ("x\n1\n", "x\n1\r\n", (2, "1\n", "1\r\n")),
        "longer_head": ("x\n", "x\ny\n", (2, "", "y\n")),
        "final_newline": ("x\ny", "x\ny\n", (2, "y", "y\n")),
    }
    for name, (a, b, expected) in cases.items():
        (tmp_path / f"{name}_base.csv").write_bytes(a.encode())
        (tmp_path / f"{name}_head.csv").write_bytes(b.encode())
        got = same_results.first_difference(tmp_path / f"{name}_base.csv",
                                            tmp_path / f"{name}_head.csv")
        assert got == expected, name


def test_main_prints_first_differing_line(tmp_path, monkeypatch, capsys):
    # stand-ins for the export and the config runs: base and head write one
    # CSV each, equal but for the second trial's error
    def export(rev, checkout):
        checkout.mkdir(parents=True)
        return rev

    def run_configs(checkout, out, seed):
        out.mkdir(parents=True)
        last = "0.2" if checkout.name == "base" else "0.3"
        (out / "cfg.csv").write_text(f"n,trial,error\n50,0,0.1\n50,1,{last}\n")
        (out / "same.csv").write_text("n,trial,error\n50,0,0.1\n")

    monkeypatch.setattr(same_results, "export", export)
    monkeypatch.setattr(same_results, "run_configs", run_configs)
    assert same_results.main(["--base", "a", "--head", "b", "--workdir", str(tmp_path / "w")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "cfg.csv: differs",
        "  line 3 base: '50,1,0.2\\n'",
        "  line 3 head: '50,1,0.3\\n'",
        "same.csv: identical",
        "1/2 configs byte-identical",
    ]
