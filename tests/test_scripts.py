"""The experiment scripts in ``scripts/``, each run in a child interpreter at tiny sizes."""

import os
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


@pytest.mark.parametrize(
    "script, rows",
    [("run_gaussian_sweep.py", 15), ("run_ancilla_sweep.py", 12)],
)
def test_sweep_script(tmp_path, script, rows):
    proc = _run(script, "--outdir", str(tmp_path), "--shots", "2")
    assert proc.returncode == 0, proc.stderr
    csvs = sorted(tmp_path.glob("*.csv"))
    manifests = sorted(tmp_path.glob("*.manifest.json"))
    assert len(csvs) == 4 and len(manifests) == 4
    for path in csvs:
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[:2] == ["# lmr_bound = 2", "value,mc_mean,mc_stderr,exact,analytic"]
        assert len(lines) == 2 + rows
    # a written manifest re-runs to the same bytes
    rerun = tmp_path / "rerun.out"
    assert main(["sweep", "--manifest", str(manifests[0]), "--out", str(rerun)]) == 0
    original = tmp_path / manifests[0].name.replace(".manifest.json", ".csv")
    assert rerun.read_bytes() == original.read_bytes()


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


def test_lhv_scan_script_overflow_is_a_numerical_failure():
    proc = _run("run_lhv_scan.py", "--strategies", "1", "--shots", "100", "--noise-sigma", "1e200")
    assert proc.returncode == 3
    assert "numerical error:" in proc.stderr and "Traceback" not in proc.stderr
