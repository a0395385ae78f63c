"""The experiment scripts in ``scripts/``, each run in a child interpreter at tiny sizes."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import blgi
from blgi.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script, *args):
    src = str(Path(blgi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, env=env
    )


def test_strength_sweeps_script(tmp_path):
    proc = _run("run_strength_sweeps.py", "--outdir", str(tmp_path), "--shots", "2")
    assert proc.returncode == 0, proc.stderr
    for meter, rows in (("gaussian", 15), ("ancilla", 12)):
        csvs = sorted((tmp_path / meter).glob("*.csv"))
        manifests = sorted((tmp_path / meter).glob("*.manifest.json"))
        assert len(csvs) == 4 and len(manifests) == 4
        for path in csvs:
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines[:2] == ["# lmr_bound = 2", "value,mc_mean,mc_stderr,exact,analytic"]
            assert len(lines) == 2 + rows
        # a written manifest re-runs to the same bytes
        rerun = tmp_path / f"rerun-{meter}.out"
        assert main(["sweep", "--manifest", str(manifests[0]), "--out", str(rerun)]) == 0
        original = manifests[0].with_name(manifests[0].name.replace(".manifest.json", ".csv"))
        assert rerun.read_bytes() == original.read_bytes()


@pytest.mark.parametrize("flags, threads", [([], None), (["--threads", "3"], "3")])
def test_strength_sweeps_script_passes_threads_only_when_given(tmp_path, monkeypatch, flags, threads):
    # without --threads the script leaves the worker count to blgi's default
    calls = []
    monkeypatch.setattr("blgi.cli.main", lambda argv: calls.append(argv) or 0)
    monkeypatch.setattr(sys, "argv", ["run_strength_sweeps.py", "--outdir", str(tmp_path), *flags])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "run_strength_sweeps.py"), run_name="__main__")
    assert exit_info.value.code == 0
    assert len(calls) == 8
    for argv in calls:
        assert argv[0] == "sweep"
        assert (argv[argv.index("--threads") + 1] if "--threads" in argv else None) == threads


def test_lhv_scan_script():
    proc = _run("run_lhv_scan.py", "--strategies", "3", "--shots", "100")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "strategies checked: 3 x 100 shots"
    assert len(lines) == 5
    assert lines[-1] == "bound violations:   0"


def test_lhv_scan_script_one_shot_exits_2():
    proc = _run("run_lhv_scan.py", "--strategies", "1", "--shots", "1")
    assert proc.returncode == 2
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "2 for a standard error" in err[0]


def test_lhv_scan_script_many_hidden_states():
    # the enumerated extrema hold at any number of hidden states
    proc = _run("run_lhv_scan.py", "--strategies", "2", "--shots", "100", "--hidden-states", "9")
    assert proc.returncode == 0, proc.stderr
    assert "enumerated extrema: [-2.0, 2.0]" in proc.stdout.splitlines()


@pytest.mark.parametrize(
    "args, named",
    [
        (["--strategies", "1", "--shots", "100", "--noise-sigma", "-1"], "--noise-sigma"),
        (["--strategies", "0"], "--strategies"),
        (["--strategies", "1", "--shots", "100", "--seed", "-1"], "--seed"),
    ],
    ids=["noise-sigma -1", "strategies 0", "seed -1"],
)
def test_lhv_scan_script_bad_input_exits_2(args, named):
    proc = _run("run_lhv_scan.py", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
    assert "Traceback" not in proc.stderr


def test_lhv_scan_script_reports_the_strategies_of_blgi_lhv(tmp_path):
    flags = ["--shots", "200", "--hidden-states", "3", "--noise-sigma", "0.7", "--invasiveness", "0.5", "--seed", "5"]
    proc = _run("run_lhv_scan.py", "--strategies", "6", *flags)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "lhv.csv"
    assert main(["lhv", "--random", "6", *flags, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:] if not line.startswith("#")]
    means = [float(row[1]) for row in rows]
    lines = proc.stdout.splitlines()
    assert lines[1] == f"largest mean seen:  {max(means):+.4f}"
    assert lines[2] == f"smallest mean seen: {min(means):+.4f}"


def test_lhv_scan_script_out_of_memory(monkeypatch, capsys):
    # in-process, so the engine can fail as a run too large to hold would
    def raise_memory_error(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("blgi.lhv.lhv_mean", raise_memory_error)
    monkeypatch.setattr(sys, "argv", ["run_lhv_scan.py", "--strategies", "1", "--shots", "100"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "run_lhv_scan.py"), run_name="__main__")
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.strip().splitlines() == ["error: out of memory"]


def test_lhv_scan_script_overflow_is_a_numerical_failure():
    proc = _run("run_lhv_scan.py", "--strategies", "1", "--shots", "100", "--noise-sigma", "1e200")
    assert proc.returncode == 3
    assert "numerical error:" in proc.stderr and "Traceback" not in proc.stderr
