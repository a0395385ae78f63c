import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import blgi
from blgi.cli import _RECORD_BLOCK, _write_records, main
from blgi.protocol import Estimate, _chunks_in_order

SQRT2 = np.sqrt(2.0)


def _read(path):
    return path.read_text(encoding="utf-8")


def _child_env():
    """Environment in which a child interpreter imports this ``blgi``."""
    src = str(Path(blgi.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


#: signals wide enough that the per-shot products overflow
GAUSSIAN_OVERFLOW = ["--sigma", "1e300", "--shots", "10"]
#: 1/v_total overflows to inf in the ancilla kernel
ANCILLA_OVERFLOW = ["--meter", "ancilla", "--v-total", "1e-320", "--shots", "3", "--seed", "1"]
#: sigma times a standard normal draw overflows in the Gaussian kernel itself
DRAW_OVERFLOW = ["--sigma", "1e308", "--shots", "10", "--seed", "3"]


def _summary_row(path):
    lines = _read(path).splitlines()
    assert lines[0] == "mean,stderr,exact,analytic,violation"
    fields = lines[1].split(",")
    return float(fields[0]), float(fields[1]), float(fields[2]), float(fields[3]), fields[4]


class TestSimulate:
    def test_projective_limit_summary(self, tmp_path):
        out = tmp_path / "summary.csv"
        code = main([
            "simulate", "--meter", "ancilla", "--v-total", "1", "--shots", "200000",
            "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        mean, stderr, exact, analytic, violation = _summary_row(out)
        assert abs(mean - 1 / SQRT2) < 4 * stderr
        assert abs(exact - 1 / SQRT2) < 1e-9
        assert abs(analytic - 1 / SQRT2) < 1e-12
        assert violation == "false"

    def test_weak_gaussian_violates(self, tmp_path):
        out = tmp_path / "summary.csv"
        code = main([
            "simulate", "--meter", "gaussian", "--sigma", "10", "--shots", "2000000",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        mean, stderr, exact, analytic, violation = _summary_row(out)
        target = (1 + np.exp(-1 / 200)) ** 2 / SQRT2
        assert abs(mean - target) < 4 * stderr
        assert abs(analytic - target) < 1e-12
        assert violation == "true"

    def test_missing_config_file_names_path(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "ghost.ini")])
        assert code == 2
        assert "ghost.ini" in capsys.readouterr().err

    def test_invalid_value_exits_2(self, capsys):
        code = main(["simulate", "--meter", "gaussian", "--sigma", "-2", "--shots", "10"])
        assert code == 2
        assert "sigma" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # signals of width 1e300 overflow the per-shot products
        out = tmp_path / "x.csv"
        code = main([
            "simulate", "--meter", "gaussian", "--sigma", "1e300", "--shots", "10",
            "--out", str(out),
        ])
        assert code == 3
        assert "numerical error:" in capsys.readouterr().err

    def test_numerical_failure_with_records_exits_3(self, tmp_path, capsys):
        code = main([
            "simulate", "--meter", "gaussian", "--sigma", "1e300", "--shots", "10",
            "--out", str(tmp_path / "x.csv"), "--records", str(tmp_path / "r.csv"),
        ])
        assert code == 3
        assert "numerical error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, records",
        [
            pytest.param(GAUSSIAN_OVERFLOW, False, id="False"),
            pytest.param(GAUSSIAN_OVERFLOW, True, id="True"),
            pytest.param(ANCILLA_OVERFLOW, False, id="ancilla-False"),
            pytest.param(ANCILLA_OVERFLOW, True, id="ancilla-True"),
            pytest.param(DRAW_OVERFLOW, False, id="draw-False"),
        ],
    )
    def test_numerical_failure_prints_no_runtime_warning(self, tmp_path, flags, records):
        # a fresh interpreter, so the warning registry cannot hide a repeat
        argv = ["simulate", *flags, "--out", str(tmp_path / "x.csv")]
        if records:
            argv += ["--records", str(tmp_path / "r.csv")]
        proc = subprocess.run(
            [sys.executable, "-m", "blgi.cli", *argv],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 3
        assert "numerical error:" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_records_do_not_depend_on_threads(self, tmp_path):
        outputs = []
        for threads in ("1", "3"):
            out, records = tmp_path / f"s{threads}.csv", tmp_path / f"r{threads}.csv"
            code = main([
                "simulate", "--meter", "ancilla", "--v-total", "0.6", "--u", "0.9",
                "--shots", str(4 * (1 << 16) + 77), "--seed", "3", "--threads", threads,
                "--out", str(out), "--records", str(records),
            ])
            assert code == 0
            outputs.append((out.read_bytes(), records.read_bytes()))
        assert outputs[0] == outputs[1]
        # pins the text, not just the values: what per-value %.17g formatting wrote
        digest = "fc4805e759dfd4b915827b47de3fb20b287d388fc825995a37a1748a207237c9"
        assert hashlib.sha256(outputs[0][1]).hexdigest() == digest
        # the summary reduces exactly the records written
        alpha1, alpha2, b1, b2 = np.loadtxt(tmp_path / "r1.csv", delimiter=",", skiprows=1).T
        values = alpha1 * alpha2 + alpha1 * b2 + b1 * alpha2 - b1 * b2
        mean = _summary_row(tmp_path / "s1.csv")[0]
        np.testing.assert_allclose(mean, values.mean(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_gaussian_records_text_is_pinned(self, tmp_path, threads):
        # two full chunks and a partial one of mostly distinct signal values
        records = tmp_path / "records.csv"
        code = main([
            "simulate", "--meter", "gaussian", "--sigma", "10", "--eta", "0.5",
            "--shots", str(2 * (1 << 16) + 77), "--seed", "3", "--threads", threads,
            "--out", str(tmp_path / "s.csv"), "--records", str(records),
        ])
        assert code == 0
        digest = "dbb15cd13b495d3ddc46ab17617c5e1a318b36b1767ef25b5f4a4b5fab44ef20"
        assert hashlib.sha256(records.read_bytes()).hexdigest() == digest

    def test_flag_overrides_apply_together(self, tmp_path):
        # --v-total 0.8 alone would exceed the config's u = 0.4
        config = tmp_path / "a.ini"
        config.write_text(
            "[meter1]\ntype = ancilla\nv_total = 0.3\nu = 0.4\n"
            "[meter2]\ntype = ancilla\nv_total = 0.3\nu = 0.4\n",
            encoding="utf-8",
        )
        out = tmp_path / "s.csv"
        code = main([
            "simulate", "--config", str(config), "--u", "0.9", "--v-total", "0.8",
            "--shots", "1000", "--out", str(out),
        ])
        assert code == 0
        analytic = _summary_row(out)[3]
        xi = np.sqrt(1.0 - (0.8 / 0.9) ** 2)
        assert abs(analytic - (1 + xi) ** 2 / SQRT2) < 1e-12

    def test_records_csv(self, tmp_path):
        records = tmp_path / "records.csv"
        out = tmp_path / "summary.csv"
        code = main([
            "simulate", "--meter", "ancilla", "--v-total", "0.5", "--shots", "500",
            "--seed", "3", "--out", str(out), "--records", str(records),
        ])
        assert code == 0
        lines = _read(records).splitlines()
        assert lines[0] == "alpha1,alpha2,b1,b2"
        assert len(lines) == 501
        row = [float(x) for x in lines[1].split(",")]
        assert row[0] in (-2.0, 2.0) and row[2] in (-1.0, 1.0)

    def test_seed_env_override(self, tmp_path, monkeypatch):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        out3 = tmp_path / "c.csv"
        args = ["simulate", "--meter", "ancilla", "--v-total", "0.7", "--shots", "5000"]
        monkeypatch.setenv("BLGI_SEED", "123")
        assert main(args + ["--out", str(out1)]) == 0
        monkeypatch.delenv("BLGI_SEED")
        assert main(args + ["--seed", "123", "--out", str(out2)]) == 0
        assert main(args + ["--seed", "7", "--out", str(out3)]) == 0
        assert _read(out1) == _read(out2)
        assert _read(out1) != _read(out3)

    def test_shot_budget_warning(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main([
            "simulate", "--meter", "ancilla", "--v-total", "0.05", "--shots", "1000",
            "--out", str(out),
        ])
        assert code == 0
        assert "predicted stderr" in capsys.readouterr().err


class TestSweep:
    def test_csv_layout_and_monotonicity(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--meter", "gaussian", "--axis", "sigma",
            "--values", "0.25,0.5,1,2,5,10", "--shots", "20000", "--seed", "2",
            "--out", str(out),
        ])
        assert code == 0
        lines = _read(out).splitlines()
        assert lines[0] == "# lmr_bound = 2"
        assert lines[1] == "value,mc_mean,mc_stderr,exact,analytic"
        rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
        assert len(rows) == 6
        analytic = [row[4] for row in rows]
        assert all(b > a for a, b in zip(analytic, analytic[1:]))
        assert analytic[0] > 1 / SQRT2 - 1e-9

    def test_threads_do_not_change_output(self, tmp_path):
        base = [
            "sweep", "--meter", "gaussian", "--axis", "sigma", "--values", "0.5,2",
            "--shots", "50000", "--seed", "11",
        ]
        out1 = tmp_path / "t1.csv"
        out4 = tmp_path / "t4.csv"
        assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert main(base + ["--threads", "4", "--out", str(out4)]) == 0
        assert _read(out1) == _read(out4)

    def test_requires_axis_and_values(self, capsys):
        assert main(["sweep", "--values", "1,2"]) == 2
        assert main(["sweep", "--axis", "sigma"]) == 2

    def test_axis_mismatch_exits_2(self, capsys):
        code = main([
            "sweep", "--meter", "ancilla", "--axis", "sigma", "--values", "1,2",
            "--shots", "100",
        ])
        assert code == 2
        assert "Gaussian" in capsys.readouterr().err

    def test_bad_values_exit_2(self, capsys):
        code = main(["sweep", "--meter", "gaussian", "--axis", "sigma", "--values", "a,b"])
        assert code == 2


class TestWorkers:
    """``simulate`` and ``sweep`` run one pool of ``min(--threads or usable CPUs, usable CPUs)`` workers."""

    @staticmethod
    def _spy_pool(monkeypatch, cpus):
        # no thread starts and nothing is drawn: the spy runs each task inline,
        # and every chunk is two fixed shots
        seen = []

        def spy(tasks, threads):
            seen.append(threads)
            return (task() for task in tasks)

        monkeypatch.setattr("blgi.protocol._chunks_in_order", spy)
        monkeypatch.setattr("blgi.protocol._usable_cpus", lambda: cpus)
        monkeypatch.setattr("blgi.protocol._run_chunk", lambda config, index, n: tuple(np.ones(2) for _ in range(4)))
        return seen

    @staticmethod
    def _argv(command, tmp_path):
        argv = [command, "--shots", "100000000", "--seed", "3", "--out", str(tmp_path / "x.csv")]
        return argv + (["--axis", "sigma", "--values", "1,2,4"] if command == "sweep" else [])

    @pytest.mark.parametrize("flags, workers", [([], 2), (["--threads", "1"], 1), (["--threads", "1000"], 2)])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_one_pool_capped_by_usable_cpus(self, tmp_path, monkeypatch, command, flags, workers):
        seen = self._spy_pool(monkeypatch, cpus=2)
        assert main([*self._argv(command, tmp_path), *flags]) == 0
        # one pool per command, even for a sweep's three points
        assert seen == [workers]

    @pytest.mark.parametrize("threads", ["0", "-1"])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_non_positive_threads_exit_2(self, tmp_path, monkeypatch, capsys, command, threads):
        seen = self._spy_pool(monkeypatch, cpus=2)
        assert main([*self._argv(command, tmp_path), "--threads", threads]) == 2
        assert capsys.readouterr().err.strip() == f"error: --threads: expected a positive count, got {threads}"
        assert seen == []

    def test_sweep_bytes_do_not_depend_on_workers(self, tmp_path, monkeypatch):
        # four usable CPUs, so --threads 1, --threads 3 and the default each run a different pool
        monkeypatch.setattr("blgi.protocol._usable_cpus", lambda: 4)
        base = [
            "sweep", "--meter", "gaussian", "--eta", "0.5", "--axis", "sigma", "--values", "0.5,1,2",
            "--shots", str((1 << 16) + 77), "--seed", "3",
        ]
        outputs = []
        for index, flags in enumerate((["--threads", "1"], ["--threads", "3"], [])):
            out = tmp_path / f"sweep{index}.csv"
            assert main([*base, *flags, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


class TestManifestRoundTrip:
    def test_sweep_rerun_is_bit_identical(self, tmp_path):
        manifest = tmp_path / "run.json"
        out1 = tmp_path / "first.csv"
        out2 = tmp_path / "second.csv"
        code = main([
            "sweep", "--meter", "ancilla", "--axis", "v_total", "--values", "0.3,0.6,0.9",
            "--shots", "30000", "--seed", "17",
            "--out", str(out1), "--manifest", str(manifest),
        ])
        assert code == 0
        assert manifest.exists()
        code = main(["sweep", "--manifest", str(manifest), "--out", str(out2)])
        assert code == 0
        assert _read(out1) == _read(out2)

    def test_simulate_rerun_is_bit_identical(self, tmp_path):
        manifest = tmp_path / "run.json"
        out1 = tmp_path / "first.csv"
        out2 = tmp_path / "second.csv"
        code = main([
            "simulate", "--meter", "gaussian", "--sigma", "1.5", "--shots", "40000",
            "--seed", "23", "--out", str(out1), "--manifest", str(manifest),
        ])
        assert code == 0
        code = main(["simulate", "--manifest", str(manifest), "--out", str(out2)])
        assert code == 0
        assert _read(out1) == _read(out2)

    def test_rerun_rejects_conflicting_flags(self, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        out = tmp_path / "out.csv"
        main([
            "simulate", "--meter", "ancilla", "--v-total", "0.9", "--shots", "1000",
            "--out", str(out), "--manifest", str(manifest),
        ])
        code = main(["simulate", "--manifest", str(manifest), "--shots", "5"])
        assert code == 2

    def test_rerun_rejects_command_mismatch(self, tmp_path):
        manifest = tmp_path / "run.json"
        out = tmp_path / "out.csv"
        main([
            "simulate", "--meter", "ancilla", "--v-total", "0.9", "--shots", "1000",
            "--out", str(out), "--manifest", str(manifest),
        ])
        assert main(["sweep", "--manifest", str(manifest)]) == 2

    @pytest.mark.parametrize(
        "command", [["simulate", "--records", "records.csv"], ["sweep", "--axis", "v", "--values", "0.5,1"]]
    )
    def test_config_file_rerun_is_bit_identical(self, tmp_path, monkeypatch, command):
        config = tmp_path / "run.ini"
        config.write_text(
            "[meter1]\ntype = gaussian\nsigma = 1.7\neta = 0.6\n\n"
            "[meter2]\ntype = ancilla\nv_total = 0.5\nu = 0.8\n\n"
            "[angles]\na1 = 1.1\n\n[run]\nshots = 20000\nseed = 9\n"
        )
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("BLGI_SEED", raising=False)
        manifest = tmp_path / "run.json"
        out1 = tmp_path / "first.csv"
        out2 = tmp_path / "second.csv"
        code = main([*command, "--config", str(config), "--out", str(out1), "--manifest", str(manifest)])
        assert code == 0
        records = _read(tmp_path / "records.csv") if command[0] == "simulate" else None
        # the re-run needs neither the config file nor the seed source
        config.unlink()
        monkeypatch.setenv("BLGI_SEED", "5")
        assert main([command[0], "--manifest", str(manifest), "--out", str(out2)]) == 0
        assert _read(out1) == _read(out2)
        if records is not None:
            assert _read(tmp_path / "records.csv") == records

    def test_stored_path_may_start_with_a_dash(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--shots", "1000", "--out=-first.csv", "--records=-records.csv"]
        assert main([*argv, "--manifest", "run.json"]) == 0
        first = _read(tmp_path / "-first.csv"), _read(tmp_path / "-records.csv")
        assert main(["simulate", "--manifest", "run.json"]) == 0
        assert (_read(tmp_path / "-first.csv"), _read(tmp_path / "-records.csv")) == first

    def test_lhv_rerun_ignores_blgi_seed(self, tmp_path, monkeypatch):
        manifest = tmp_path / "run.json"
        out1 = tmp_path / "first.csv"
        out2 = tmp_path / "second.csv"
        monkeypatch.setenv("BLGI_SEED", "11")
        code = main([
            "lhv", "--random", "3", "--shots", "20000",
            "--out", str(out1), "--manifest", str(manifest),
        ])
        assert code == 0
        monkeypatch.setenv("BLGI_SEED", "12")
        assert main(["lhv", "--manifest", str(manifest), "--out", str(out2)]) == 0
        assert _read(out1) == _read(out2)

    def test_lhv_rerun_is_bit_identical(self, tmp_path):
        manifest = tmp_path / "run.json"
        out1 = tmp_path / "first.csv"
        out2 = tmp_path / "second.csv"
        code = main([
            "lhv", "--random", "5", "--shots", "20000", "--hidden-states", "3",
            "--seed", "31", "--out", str(out1), "--manifest", str(manifest),
        ])
        assert code == 0
        code = main(["lhv", "--manifest", str(manifest), "--out", str(out2)])
        assert code == 0
        assert _read(out1) == _read(out2)


#: a manifest in the earlier layout, with ``seed``/``out``/``extra`` and no ``argv``
OLD_FORMAT_MANIFEST = {
    "command": "simulate",
    "config": {
        "meter1": {"type": "gaussian", "sigma": 1.0, "eta": 1.0},
        "meter2": {"type": "gaussian", "sigma": 1.0, "eta": 1.0},
        "b": {"v": 1.0},
        "angles": [1.5707963267948966, 0.7853981633974483, 0.0, 2.356194490192345],
        "shots": 100,
        "seed": 3,
    },
    "seed": 3,
    "version": "0.1.0",
    "created_utc": "2026-01-01T00:00:00+00:00",
    "out": None,
    "extra": {"records": None},
}


def _set_stored(flag, value):
    def change(data):
        data["argv"] = [f"{flag}={value}" if arg.startswith(f"{flag}=") else arg for arg in data["argv"]]
        return data

    return change


def _set_config(section, key, value):
    def change(data):
        data["config"][section][key] = value
        return data

    return change


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a value as if it had been typed
        return exc.code


class TestManifestRerunErrors:
    """A manifest whose stored flags or config are bad exits 2, never with a traceback."""

    SIMULATE = ["simulate", "--shots", "100", "--seed", "3"]
    LHV = ["lhv", "--random", "1", "--shots", "100", "--seed", "3"]

    @pytest.mark.parametrize(
        "first, change, rerun_flags, named",
        [
            (SIMULATE, None, ["--records", "other.csv"], "--records"),
            (LHV, _set_stored("--shots", "abc"), [], "--shots"),
            (SIMULATE, lambda data: {**data, "argv": [1]}, [], "argv"),
            (SIMULATE, lambda data: {**data, "config": [1]}, [], "config"),
            (SIMULATE, lambda data: OLD_FORMAT_MANIFEST, [], "argv"),
            (LHV, None, ["--shots", "100000"], "--shots"),
            (SIMULATE, _set_config("run", "shots", 1000.7), [], "run.shots"),
            (SIMULATE, _set_config("meter1", "sigma", None), [], "meter1.sigma"),
            (SIMULATE, lambda data: {**data, "argv": ["--meter", "ancilla"]}, [], "--meter"),
            (SIMULATE, _set_config("meter1", "v_total", 0.5), [], "meter1.v_total"),
            (SIMULATE, _set_config("meter2", "sigmaa", 5), [], "meter2.sigmaa"),
            (SIMULATE, _set_config("run", "shot", 10), [], "run.shot"),
            (SIMULATE, lambda data: {**data, "config": {**data["config"], "angels": {}}}, [], "angels"),
            (SIMULATE, lambda data: {**data, "config": {**data["config"], "DEFAULT": {"sigma": 3}}}, [], "DEFAULT"),
            # every lhv manifest written while the flag existed stores it
            (LHV, lambda data: {**data, "argv": [*data["argv"], "--calibration-shots=10000"]}, [], "--calibration-shots"),
        ],
        ids=[
            "simulate --records on a re-run",
            "stored --shots abc",
            "argv [1]",
            "config [1]",
            "manifest without argv",
            "lhv --shots 100000 on a re-run",
            "run.shots 1000.7",
            "meter1.sigma null",
            "stored config flag",
            "config meter1.v_total on a Gaussian meter",
            "config meter2.sigmaa",
            "config run.shot",
            "config section angels",
            "config section DEFAULT",
            "lhv manifest with --calibration-shots",
        ],
    )
    def test_exits_2(self, tmp_path, capsys, monkeypatch, first, change, rerun_flags, named):
        monkeypatch.chdir(tmp_path)
        manifest = tmp_path / "run.json"
        assert main([*first, "--out", str(tmp_path / "first.csv"), "--manifest", str(manifest)]) == 0
        if change is not None:
            data = change(json.loads(_read(manifest)))
            manifest.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert _exit_code([first[0], "--manifest", str(manifest), *rerun_flags]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error:" in err.splitlines()[-1] and named in err.splitlines()[-1]
        assert not (tmp_path / "other.csv").exists()


class TestLhvCommand:
    def test_brute_force_prints_two(self, capsys):
        assert main(["lhv", "--brute-force", "--hidden-states", "2"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_brute_force_writes_out(self, tmp_path, capsys):
        out = tmp_path / "bf.csv"
        assert main(["lhv", "--brute-force", "--out", str(out)]) == 0
        assert _read(out) == "2\n"
        assert capsys.readouterr().out == ""

    def test_random_strategies_all_pass(self, tmp_path):
        out = tmp_path / "lhv.csv"
        code = main([
            "lhv", "--random", "20", "--shots", "20000", "--hidden-states", "3",
            "--seed", "6", "--out", str(out),
        ])
        assert code == 0
        lines = _read(out).splitlines()
        assert lines[0] == "strategy,mean,stderr,bound_ok,calibration_ok"
        data = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        assert len(data) == 20
        assert all(row[3] == "true" for row in data)
        assert all(row[4] == "true" for row in data)
        assert any("brute_force_max(3 hidden states) = 2" in line for line in lines)

    def test_output_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "lhv.csv"
        code = main([
            "lhv", "--random", "5", "--shots", "20000", "--hidden-states", "3",
            "--invasiveness", "0.3", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        digest = "8f9ae18ccf537d14f7650357a96cda73c26bc04268402b6570cae902ada13412"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_worker_count_never_changes_the_bytes(self, tmp_path, monkeypatch):
        # lhv has no --threads: it runs min(strategies, usable CPUs) workers
        workers = []

        def spy(tasks, threads):
            workers.append(threads)
            return _chunks_in_order(tasks, threads)

        monkeypatch.setattr("blgi.cli._chunks_in_order", spy)
        argv = [
            "lhv", "--random", "7", "--shots", "5000", "--hidden-states", "3",
            "--invasiveness", "0.3", "--noise-sigma", "2", "--seed", "3",
        ]
        outputs = []
        for cpus in (1, 3):
            monkeypatch.setattr("blgi.cli._usable_cpus", lambda: cpus)
            out = tmp_path / f"lhv-{cpus}.csv"
            assert main([*argv, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert workers == [1, 3]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "strategies, shots, cpus, workers",
        [(4, 50_000_000, 8, 1), (4, 2_000_000, 8, 2), (16, 100_000, 8, 8), (200, 100_000, 2, 2), (3, 100_000, 8, 3)],
    )
    def test_workers_are_capped_by_live_shots(self, tmp_path, monkeypatch, strategies, shots, cpus, workers):
        # every worker holds one strategy's records, so many shots mean fewer workers
        seen = []

        def spy(tasks, threads):
            seen.append(threads)
            return _chunks_in_order(tasks, threads)

        monkeypatch.setattr("blgi.cli._chunks_in_order", spy)
        monkeypatch.setattr("blgi.cli._usable_cpus", lambda: cpus)
        # nothing is drawn: a stub stands in for each strategy's run
        monkeypatch.setattr("blgi.lhv.lhv_mean", lambda strategy, n, rng: Estimate(mean=0.0, stderr=0.1, shots=n))
        argv = ["lhv", "--random", str(strategies), "--shots", str(shots), "--seed", "3"]
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 0
        assert seen == [workers]

    def test_numerical_error_in_a_worker_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("blgi.cli._usable_cpus", lambda: 3)
        out = tmp_path / "x.csv"
        code = main([
            "lhv", "--random", "4", "--noise-sigma", "1e154", "--shots", "1000", "--seed", "3", "--out", str(out),
        ])
        assert code == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numerical error: ")
        assert not out.exists()

    def test_strategy_file_run(self, tmp_path):
        strategy = tmp_path / "strategy.ini"
        strategy.write_text(
            "[strategy]\nhidden_states = 1\nprep_dist = 1\na1 = 1\na2 = 1\n"
            "b1 = 1\nb2 = -1\nnoise_sigma1 = 0\nnoise_sigma2 = 0\n"
        )
        out = tmp_path / "report.csv"
        code = main(["lhv", "--strategy", str(strategy), "--shots", "20000", "--out", str(out)])
        assert code == 0
        row = _read(out).splitlines()[1].split(",")
        assert float(row[1]) == 2.0

    def test_malformed_strategy_exits_2(self, tmp_path, capsys):
        strategy = tmp_path / "bad.ini"
        strategy.write_text(
            "[strategy]\nhidden_states = 2\nprep_dist = 0.5, 0.4\na1 = 1, -1\na2 = 1, -1\n"
            "b1 = 1, -1\nb2 = -1, 1\n"
        )
        code = main(["lhv", "--strategy", str(strategy), "--shots", "1000"])
        assert code == 2
        assert "sum to 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "replace, named",
        [
            (("prep_dist = 0.5, 0.5", "prep_dist = nan, nan"), "prep_dist"),
            (("hidden_states = 2", "hidden_states = 3"), "strategy.prep_dist"),
        ],
        ids=["nan prep_dist", "hidden_states 3"],
    )
    def test_invalid_strategy_exits_2_with_one_line(self, tmp_path, capsys, replace, named):
        # prep_dist comes last: the hidden-state count is checked against it, whatever the key order
        strategy = tmp_path / "bad.ini"
        strategy.write_text(
            "[strategy]\nhidden_states = 2\na1 = 1, -1\na2 = 1, -1\nb1 = 1, -1\nb2 = -1, 1\n"
            "prep_dist = 0.5, 0.5\n".replace(*replace)
        )
        out = tmp_path / "x.csv"
        assert main(["lhv", "--strategy", str(strategy), "--shots", "1000", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
        assert not out.exists()

    def test_needs_a_mode(self):
        assert main(["lhv"]) == 2

    @pytest.mark.parametrize(
        "flags", [["--noise-sigma", "1e308", "--shots", "10"], ["--noise-sigma", "1e154", "--shots", "1000"]],
        ids=lambda flags: " ".join(flags),
    )
    def test_overflow_is_a_numerical_failure(self, tmp_path, flags):
        # a fresh interpreter, so the warning registry cannot hide a repeat
        proc = subprocess.run(
            [sys.executable, "-m", "blgi.cli", "lhv", "--random", "1", *flags, "--out", str(tmp_path / "x.csv")],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 3
        assert "numerical error:" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


STRATEGY_BODY = "[strategy]\nhidden_states = 1\nprep_dist = 1\na1 = 1\na2 = 1\nb1 = 1\nb2 = 1\n"


class TestStrictInputFiles:
    """An unknown section or key, or a key of the other meter type, exits 2 instead of being ignored."""

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[meter1]\ntype = ancilla\nsigma = 3\n", "meter1.sigma"),
            ("[meter2]\nsigmaa = 5\n", "meter2.sigmaa"),
            ("[angels]\na1 = 1\n", "angels"),
            ("[run]\nshot = 10\n", "run.shot"),
            ("[DEFAULT]\nsigma = 3\n[run]\nshots = 10\n", "DEFAULT"),
            ("[b]\nv = 0.9\nu = 0.9\n", "b.u"),
        ],
        ids=["ancilla sigma", "sigmaa", "angels", "shot", "DEFAULT", "b.u"],
    )
    def test_config_file(self, tmp_path, capsys, text, named):
        path = tmp_path / "run.ini"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(path), "--shots", "10", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, named",
        [
            ("noise_sigma = 0\n", "strategy.noise_sigma"),
            ("invasivenes1 = 0.5\n", "strategy.invasivenes1"),
            ("noise_bias1 = 0.2\n", "strategy.noise_bias1"),
            ("[extra]\nx = 1\n", "extra"),
        ],
        ids=["noise_sigma", "invasivenes1", "noise_bias1", "extra section"],
    )
    def test_strategy_file(self, tmp_path, capsys, extra, named):
        path = tmp_path / "strategy.ini"
        path.write_text(STRATEGY_BODY + extra, encoding="utf-8")
        out = tmp_path / "x.csv"
        assert main(["lhv", "--strategy", str(path), "--shots", "100", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
        assert not out.exists()

    def test_meter_flag_takes_the_class_defaults(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[meter1]\ntype = gaussian\nsigma = 3\neta = 0.5\n", encoding="utf-8")
        manifest = tmp_path / "run.json"
        argv = ["simulate", "--config", str(path), "--meter", "ancilla", "--shots", "10"]
        assert main([*argv, "--out", str(tmp_path / "x.csv"), "--manifest", str(manifest)]) == 0
        stored = json.loads(_read(manifest))["config"]
        assert stored["meter1"] == stored["meter2"] == {"type": "ancilla", "v_total": 1.0, "u": 1.0}


class TestInputErrors:
    """Inputs that once crashed or lied: exit 2 with a one-line error."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--shots", "1"],
            ["sweep", "--meter", "gaussian", "--axis", "sigma", "--values", "1", "--shots", "1"],
            ["simulate", "--shots", "10", "--threads", "0"],
            ["sweep", "--axis", "v", "--values", "1", "--shots", "10", "--threads", "-2"],
            ["lhv", "--random", "1", "--shots", "100", "--seed", "-1"],
            ["lhv", "--random", "3", "--shots", "1", "--seed", "1"],
            *(["lhv", "--brute-force", *flag] for flag in (
                ["--manifest", "m.json"], ["--strategy", "/nonexistent.ini"], ["--seed", "-7"],
            )),
            ["lhv", "--random", "1", "--shots", "100", "--hidden-states", "0"],
            ["lhv", "--random", "1", "--shots", "100", "--noise-sigma", "-1"],
            *(["lhv", "--random", "1", "--shots", "10", "--invasiveness", value] for value in ("inf", "nan", "-0.5")),
            ["simulate", "--meter", "gaussian", "--sigma", "1e-200", "--shots", "10"],
            ["simulate", "--shots", "10", "--seed", str(2**64)],
            ["simulate", "--meter", "gaussian", "--v-total", "0.5", "--u", "0.3", "--shots", "10"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_exits_2_with_one_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("flag", [["--config", "ghost.ini"], ["--threads", "2"]], ids=lambda flag: flag[0])
    def test_lhv_takes_no_experiment_flags(self, flag, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert _exit_code(["lhv", "--random", "1", "--shots", "100", *flag, "--out", str(out)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_lhv_manifest_seed_out_of_range(self, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        argv = ["lhv", "--random", "1", "--shots", "100", "--out", str(tmp_path / "x.csv")]
        assert main([*argv, "--manifest", str(manifest)]) == 0
        data = json.loads(manifest.read_text(encoding="utf-8"))
        manifest.write_text(json.dumps(_set_stored("--seed", "-1")(data)), encoding="utf-8")
        capsys.readouterr()
        assert main(["lhv", "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "-1" in err[0]

    def test_config_directory(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(tmp_path) in err[0]

    def test_unwritable_output(self, tmp_path, capsys):
        code = main(["simulate", "--shots", "10", "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.strip().splitlines()[-1].startswith("error: ")

    @pytest.mark.parametrize(
        "target, argv",
        [
            ("blgi.lhv.lhv_mean", ["lhv", "--random", "1", "--shots", "100"]),
            ("blgi.cli.monte_carlo", ["simulate", "--shots", "10000"]),
        ],
        ids=["lhv", "simulate"],
    )
    def test_out_of_memory(self, tmp_path, capsys, monkeypatch, target, argv):
        # a run too large to hold: lhv draws every shot in one block, and
        # simulate lists every chunk size up front
        def raise_memory_error(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(target, raise_memory_error)
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: out of memory"]

    def test_vanishing_total_visibility_is_a_numerical_failure(self, tmp_path, capsys):
        code = main([
            "simulate", "--meter", "ancilla", "--v-total", "1e-200", "--shots", "10",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3
        assert "numerical error:" in capsys.readouterr().err


def _flag(name, *values):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda value: [name, value]))


SIMULATE_FLAGS = st.tuples(
    _flag("--meter", "gaussian", "ancilla"),
    _flag("--sigma", "1", "10", "0.3", "-2", "0", "1e-200", "1e-160", "1e300", "nan", "inf"),
    _flag("--eta", "1", "0.5", "1e-300", "0", "1.5", "nan"),
    _flag("--v-total", "0.6", "1", "1e-200", "1e-320", "0", "2", "nan"),
    _flag("--u", "0.9", "1", "0.1", "0"),
    _flag("--v", "0.8", "1", "0", "-0.1", "1.1", "nan"),
    _flag("--seed", "-1", "0", "3", str(2**64 - 1), str(2**64)),
    _flag("--threads", "-1", "0", "1", "3"),
    _flag("--phi-a1", "0", "1e300", "inf", "nan"),
    st.sampled_from(["-1", "0", "1", "2", "64", "300", "many"]).map(lambda shots: ["--shots", shots]),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=SIMULATE_FLAGS, out=st.sampled_from(["file", "directory", "missing"]), records=st.booleans())
def test_simulate_argv_ends_in_a_documented_exit_code(tmp_path_factory, flags, out, records):
    tmp = tmp_path_factory.mktemp("argv")
    paths = {"file": tmp / "out.csv", "directory": tmp, "missing": tmp / "no" / "out.csv"}
    argv = ["simulate", *(part for flag in flags for part in flag), "--out", str(paths[out])]
    if records:
        argv += ["--records", str(tmp / "records.csv")]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects unparseable values
            code = exc.code
    assert code in (0, 2, 3, 4), argv
    assert "Traceback" not in stderr.getvalue()


LHV_FLAGS = st.tuples(
    _flag("--random", "-1", "0", "1", "2"),
    st.sampled_from([[], ["--brute-force"]]),
    _flag("--shots", "-1", "0", "1", "2", "50"),
    _flag("--hidden-states", "0", "1", "8", "9"),
    _flag("--noise-sigma", "0", "1", "2.5", "-1", "nan", "inf"),
    _flag("--invasiveness", "0", "0.3", "-0.5", "nan", "inf", "1e308"),
    _flag("--seed", "-1", "0", "3", str(2**64 - 1), str(2**64)),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=LHV_FLAGS)
# rng.uniform(0, inf) once ended in an OverflowError traceback
@example(flags=(["--random", "1"], [], ["--shots", "10"], [], [], ["--invasiveness", "inf"], []))
def test_lhv_argv_ends_in_a_documented_exit_code(tmp_path_factory, flags):
    out = tmp_path_factory.mktemp("argv") / "out.csv"
    argv = ["lhv", *(part for flag in flags for part in flag), "--out", str(out)]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects unparseable values
            code = exc.code
    assert code in (0, 2, 3, 4), argv
    assert "Traceback" not in stderr.getvalue()


#: doubles a lookup by value could merge or mangle: signed zeros, NaNs with
#: other signs and payloads, infinities and subnormals
SPECIAL_BITS = [
    0x0000000000000000,  # 0.0
    0x8000000000000000,  # -0.0
    0x7FF8000000000000,  # nan
    0xFFF8000000000000,  # nan, sign bit set
    0x7FF8000000000001,  # nan, another payload
    0x7FF0000000000001,  # signalling nan
    0x7FF0000000000000,  # inf
    0xFFF0000000000000,  # -inf
    0x0000000000000001,  # smallest subnormal
    0x800FFFFFFFFFFFFF,  # largest-magnitude negative subnormal
]

_BITS = st.one_of(
    st.sampled_from(SPECIAL_BITS),
    st.integers(0, 2**64 - 1),
    st.floats(-10, 10).map(lambda value: int(np.float64(value).view(np.uint64))),
)


@st.composite
def _record_chunks(draw):
    """Four columns of one chunk, each a share of pool values among distinct ones."""
    n = draw(st.sampled_from([1, 2, _RECORD_BLOCK - 1, _RECORD_BLOCK, _RECORD_BLOCK + 1, 2 * _RECORD_BLOCK + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(4):
        pool = np.array(draw(st.lists(_BITS, min_size=1, max_size=6)), dtype=np.uint64)
        # 0: all distinct, 1: all repeated, else a mix
        share = draw(st.sampled_from([0.0, 0.5, 1.0]))
        fresh = rng.integers(0, 2**64, size=n, dtype=np.uint64)
        # selected as integers, so every NaN payload survives
        bits = np.where(rng.random(n) < share, pool[rng.integers(len(pool), size=n)], fresh)
        columns.append(bits.view(np.float64))
    return tuple(columns)


@settings(max_examples=40, deadline=None)
@given(records=_record_chunks())
# every special value in every column, across a block boundary
@example(records=tuple(
    np.roll(np.resize(np.array(SPECIAL_BITS, dtype=np.uint64), _RECORD_BLOCK + 1), shift).view(np.float64)
    for shift in range(4)
))
def test_write_records_formats_every_value_with_17_digits(records):
    handle = io.StringIO()
    _write_records(handle, records)
    expected = [
        ",".join("%.17g" % value for value in row) + "\n"
        for row in zip(*(column.tolist() for column in records))
    ]
    written = handle.getvalue().splitlines(keepends=True)
    # report the first differing row: a diff of the whole text is very slow
    assert len(written) == len(expected)
    assert next(((i, a, b) for i, (a, b) in enumerate(zip(written, expected)) if a != b), None) is None


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 5

    @pytest.mark.parametrize(
        "flag",
        [["--config", "x.ini"], ["--seed", "5"], ["--out", "x.csv"], ["--manifest", "m.json"], ["--threads", "4"]],
        ids=lambda flag: flag[0],
    )
    def test_takes_no_run_flags(self, flag, capsys):
        assert _exit_code(["verify", *flag]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_import_does_not_load_scipy():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, blgi.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=_child_env(), check=True,
    )
    assert result.stdout.strip() == "False"
