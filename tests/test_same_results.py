"""The two-revision result check: its comparison of CSVs, sweep reports and
certificate reports, its report of the first differing line and of the
largest relative difference per numeric column, and the reports the config
runner writes."""

import importlib.util
import math
import os
import shutil
import subprocess
import sys
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
        "cert.report": ("kappa = 1\n", "kappa = 1.0000000000000002\n"),
        "same.report": ("s = 4\n", "s = 4\n"),
        "sweep.txt": ("rows: 1\nPASS a: b\n", "rows: 1\nPASS a: b\n"),
    }
    for name, (a, b) in files.items():
        if a is not None:
            (base / name).write_bytes(a.encode())
        if b is not None:
            (head / name).write_bytes(b.encode())
    (base / "plot.gnuplot").write_text("not compared")
    assert same_results.compare_outputs(base, head) == {
        "cert.report": "differs",
        "digit.csv": "differs",
        "new.csv": "missing in base",
        "newline.csv": "differs",
        "old.csv": "missing in head",
        "same.csv": "identical",
        "same.report": "identical",
        "sweep.txt": "identical",
    }


def test_first_difference_names_the_moved_row(tmp_path):
    header = "scenario,n,trial,error\n"
    cases = {
        "row": (header + "s,50,0,0.1\ns,50,1,0.2\n", header + "s,50,0,0.1\ns,50,1,0.3\n",
                (3, "s,50,1,0.2\n", "s,50,1,0.3\n")),
        "newline": ("x\n1\n", "x\n1\r\n", (2, "1\n", "1\r\n")),
        "longer_head": ("x\n", "x\ny\n", (2, "", "y\n")),
        "final_newline": ("x\ny", "x\ny\n", (2, "y", "y\n")),
        # a sweep report of a revision that still timed its trials
        "time_line": ("rows: 2\ntotal solve time: 0.51 s\nPASS a: b\n", "rows: 2\nPASS a: b\n",
                      (2, "total solve time: 0.51 s\n", "PASS a: b\n")),
    }
    for name, (a, b, expected) in cases.items():
        (tmp_path / f"{name}_base.csv").write_bytes(a.encode())
        (tmp_path / f"{name}_head.csv").write_bytes(b.encode())
        got = same_results.first_difference(tmp_path / f"{name}_base.csv",
                                            tmp_path / f"{name}_head.csv")
        assert got == expected, name


def test_largest_relative_difference_of_each_numeric_column(tmp_path):
    files = {
        "rows.csv": ("scenario,n,err,iterations,ok,error\n"
                     "s,50,2.0,10,True,\ns,100,0.0,20,False,\ns,200,nan,30,True,\n",
                     "scenario,n,err,iterations,ok,error\n"
                     "s,50,2.5,10,True,\ns,100,0.0,15,False,\ns,200,nan,31,False,\n"),
        "zero.csv": ("x,y\n0,nan\n", "x,y\n1e-9,3\n"),
        "longer.csv": ("x,y\n1,2\n", "x,y\n1,2\n1,4\n"),
        "cert.report": ("kappa = 2\ncondition_rsc = 1\nnote = none\n",
                        "kappa = 1.5\ncondition_rsc = 1\nnote = some\n"),
    }
    for name, (a, b) in files.items():
        (tmp_path / f"base_{name}").write_text(a)
        (tmp_path / f"head_{name}").write_text(b)

    def largest(name):
        return same_results.largest_relative_differences(tmp_path / f"base_{name}",
                                                         tmp_path / f"head_{name}")

    # names, flags and empty error cells are not numeric columns
    assert largest("rows.csv") == {"n": 0.0, "err": 0.25, "iterations": 0.25}
    assert largest("zero.csv") == {"x": math.inf, "y": math.inf}
    assert largest("longer.csv") == {}  # rows added or lost: no pairing
    assert largest("cert.report") == {"kappa": 0.25, "condition_rsc": 0.0}


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
        "  largest relative difference: n 0, trial 0, error 0.5",
        "same.csv: identical",
        "1/2 files byte-identical",
    ]


META_INI = (
    "[meta_certificate]\n"
    "instance_grid = 0 1\nfamily = regression\nn = 200\nd = 8\nk = 2\nalpha = 0.9\n"
    "magnitude = 3.0\ntrials_per_point = 1\nseed = 3\ngamma_scale = 5.0\n"
    "max_iters = 5000\nrel_tol = 1e-7\n"
)


def test_runner_writes_the_verify_report_of_meta_certificate_configs(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "configs").mkdir(parents=True)
    (checkout / "configs" / "meta.ini").write_text(META_INI)
    shutil.copy(SCRIPT.parent.parent / "configs" / "demo_matrix_completion.ini",
                checkout / "configs")
    (checkout / "src").symlink_to(SCRIPT.parent.parent / "src")
    out = tmp_path / "out"
    same_results.run_configs(checkout, out, same_results.SEED)
    assert sorted(p.name for p in out.iterdir()) == [
        "demo_matrix_completion.csv", "demo_matrix_completion.gnuplot",
        "demo_matrix_completion.txt", "meta.csv", "meta.gnuplot", "meta.report", "meta.txt",
    ]
    # the report `verify` prints, at the one BLAS thread run_configs pins: the
    # last digits of a result depend on the BLAS thread count
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(checkout / "src"))
    verify = subprocess.run(
        [sys.executable, "-m", "robust_huber.cli", "verify",
         "--config", str(checkout / "configs" / "meta.ini"), "--seed", str(same_results.SEED)],
        env=env, capture_output=True, text=True, check=False,
    )
    assert verify.returncode == 0, verify.stderr
    assert (out / "meta.report").read_text() == verify.stdout
    # the sweep report is the one `sweep` writes: meta.ini runs one trial per point
    sweep = subprocess.run(
        [sys.executable, "-m", "robust_huber.cli", "sweep",
         "--config", str(checkout / "configs" / "meta.ini"), "--seed", str(same_results.SEED),
         "--out", str(tmp_path / "sweep.csv")],
        env=env, capture_output=True, text=True, check=False,
    )
    assert sweep.returncode in (0, 1), sweep.stderr  # 1: a check failed, the report is written
    assert (out / "meta.txt").read_bytes() == (tmp_path / "sweep_report.txt").read_bytes()
    assert (out / "meta.csv").read_bytes() == (tmp_path / "sweep.csv").read_bytes()
