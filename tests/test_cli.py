import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import blgi
from blgi.cli import (
    _LHV_SHOTS,
    _RECORD_BLOCK,
    _random_configs,
    _verify_checks,
    _write_records,
    build_parser,
    main,
)
from blgi.lhv import MAX_HIDDEN_STATES, RandomStrategySpec
from blgi.measurement import METER_KINDS, AncillaMeterSpec, GaussianMeterSpec, ProjectiveMeterSpec
from blgi.protocol import (
    ANGLE_KEYS,
    CHUNK_SHOTS,
    SWEEP_AXES,
    Estimate,
    ExperimentConfig,
    _chunks_in_order,
    monte_carlo,
    violation_threshold,
)
from oracle import write_records_reference

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
        # the records are written chunk by chunk before the mean is reduced, so they
        # stay whole; the summary and the manifest come after the mean and are not written
        out, records, manifest = tmp_path / "x.csv", tmp_path / "r.csv", tmp_path / "m.json"
        code = main([
            "simulate", "--meter", "gaussian", "--sigma", "1e300", "--shots", "10",
            "--out", str(out), "--records", str(records), "--manifest", str(manifest),
        ])
        assert code == 3
        assert "numerical error:" in capsys.readouterr().err
        assert len(_read(records).splitlines()) == 11
        assert not out.exists()
        assert not manifest.exists()

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
        digest = "b40c8213a885c2e29e00c63669c8c34fae59607b63cb892a3de2510d5c9422d1"
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
        digest = "dce917a480a12e17f7d3acd0ec677fee18434e915ea53ce61eae01146ad5be07"
        assert hashlib.sha256(records.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_mixed_meter_records_text_is_pinned(self, tmp_path, threads):
        # a block holds two-valued ancilla and sign columns beside a Gaussian
        # signal column with no repeats
        config = tmp_path / "mixed.ini"
        config.write_text(
            "[meter1]\ntype = ancilla\nv_total = 0.6\nu = 0.9\n"
            "[meter2]\ntype = gaussian\nsigma = 10\neta = 0.5\n",
            encoding="utf-8",
        )
        records = tmp_path / "records.csv"
        code = main([
            "simulate", "--config", str(config), "--shots", str(2 * (1 << 16) + 77), "--seed", "3",
            "--threads", threads, "--out", str(tmp_path / "s.csv"), "--records", str(records),
        ])
        assert code == 0
        # taken from the writer that joined every block field by field
        digest = "e77d2e054c0576b6dc01e2d6f290f961c684d12fef668587725e5b63ffaddd0a"
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

    def test_shot_budget_warning(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main([
            "simulate", "--meter", "ancilla", "--v-total", "0.05", "--shots", "1000",
            "--out", str(out),
        ])
        assert code == 0
        assert "predicted stderr" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--meter", "ancilla", "--v-total", "0.6", "--u", "0.9", "--shots", "1000"],
        ["sweep", "--meter", "gaussian", "--axis", "sigma", "--values", "1,2", "--shots", "1000"],
        ["lhv", "--random", "2", "--shots", "1000"],
    ],
    ids=lambda argv: argv[0],
)
def test_blgi_seed_in_the_environment_changes_no_byte(tmp_path, monkeypatch, argv):
    # the seed comes from --seed or the config alone, never from the environment
    monkeypatch.delenv("BLGI_SEED", raising=False)
    assert main([*argv, "--out", str(tmp_path / "unset.csv")]) == 0
    monkeypatch.setenv("BLGI_SEED", "5")
    assert main([*argv, "--out", str(tmp_path / "set.csv")]) == 0
    assert _read(tmp_path / "set.csv") == _read(tmp_path / "unset.csv")


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

    @pytest.mark.parametrize("values", ["1,2,", "1,,2", ",1", ""])
    def test_empty_value_exits_2_and_writes_nothing(self, values, tmp_path, capsys):
        # --values is read by the strategy vectors' parser, so an empty part is an error there too
        out, manifest = tmp_path / "x.csv", tmp_path / "m.json"
        argv = ["sweep", "--axis", "sigma", "--values", values, "--shots", "100", "--seed", "3"]
        assert main([*argv, "--out", str(out), "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --values: ")
        assert not out.exists() and not manifest.exists()

    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_flag_on_the_swept_field_writes_nothing(self, axis, tmp_path, capsys):
        # every point sets the axis, so the flag was ignored and the run exited 0
        meter = "ancilla" if axis in {f.name for f in fields(AncillaMeterSpec)} else "gaussian"
        flag = "--" + axis.replace("_", "-")
        out, manifest = tmp_path / "s.csv", tmp_path / "m.json"
        argv = ["sweep", "--meter", meter, "--axis", axis, "--values", "0.5,1", flag, "0.9", "--shots", "100"]
        assert main([*argv, "--seed", "3", "--out", str(out), "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --axis ") and flag in err[0]
        assert list(tmp_path.iterdir()) == []

    def test_out_of_range_value_writes_nothing(self, tmp_path, capsys):
        # every point is retuned before anything is drawn, so a bad value fails the whole sweep
        out, manifest = tmp_path / "o.csv", tmp_path / "m.json"
        argv = ["sweep", "--meter", "gaussian", "--axis", "eta", "--values", "0.5,1.5"]
        assert main([*argv, "--out", str(out), "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: --values: eta must be in (0, 1], got 1.5"]
        assert not out.exists() and not manifest.exists()

    def test_config_value_on_the_swept_field_is_allowed(self, tmp_path):
        config = tmp_path / "c.ini"
        config.write_text("[meter1]\nsigma = 5\n\n[meter2]\nsigma = 5\n", encoding="utf-8")
        argv = ["sweep", "--axis", "sigma", "--values", "1,2", "--shots", "100", "--seed", "3"]
        assert main([*argv, "--config", str(config), "--out", str(tmp_path / "a.csv")]) == 0
        assert main([*argv, "--out", str(tmp_path / "b.csv")]) == 0
        assert _read(tmp_path / "a.csv") == _read(tmp_path / "b.csv")


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_one_float_flag_per_spec_field(command):
    """Each field of each meter kind, then of the readout, is one float flag with that field's help."""
    [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    actions = {action.dest: action for action in commands.choices[command]._actions}
    declared = [(cls, field) for cls in (*METER_KINDS.values(), ProjectiveMeterSpec) for field in fields(cls)]
    assert SWEEP_AXES == tuple(field.name for _, field in declared)
    for cls, field in declared:
        action = actions[field.name]
        assert action.option_strings == ["--" + field.name.replace("_", "-")]
        assert (action.type, action.default) == (float, None)
        assert action.help == f"{cls.label.lower()} {field.metadata['help']}"
    floats = sorted(flag for action in actions.values() if action.type is float for flag in action.option_strings)
    assert floats == sorted(["--sigma", "--eta", "--v-total", "--u", "--v", "--phi-a1", "--phi-a2", "--phi-b1", "--phi-b2"])


class TestWorkers:
    """``simulate`` and ``sweep`` run one pool, capped by ``--threads`` when it is given."""

    @staticmethod
    def _spy_pool(monkeypatch):
        # no thread starts and nothing is drawn: the spy runs each task inline,
        # and every chunk is two fixed shots
        seen = []

        def spy(tasks, threads):
            seen.append(threads)
            return (task() for task in tasks)

        monkeypatch.setattr("blgi.protocol._chunks_in_order", spy)
        monkeypatch.setattr(
            "blgi.protocol._run_chunk", lambda config, index, n, workspace: tuple(np.ones(2) for _ in range(4))
        )
        return seen

    @staticmethod
    def _argv(command, tmp_path):
        argv = [command, "--shots", "100000000", "--seed", "3", "--out", str(tmp_path / "x.csv")]
        return argv + (["--axis", "sigma", "--values", "1,2,4"] if command == "sweep" else [])

    @pytest.mark.parametrize("flags, cap", [([], None), (["--threads", "1"], 1), (["--threads", "1000"], 1000)])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_one_pool_capped_by_threads(self, tmp_path, monkeypatch, command, flags, cap):
        seen = self._spy_pool(monkeypatch)
        assert main([*self._argv(command, tmp_path), *flags]) == 0
        # one pool per command, even for a sweep's three points; _chunks_in_order sizes it from this cap
        assert seen == [cap]

    @pytest.mark.parametrize("threads", ["0", "-1"])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_non_positive_threads_exit_2(self, tmp_path, monkeypatch, capsys, command, threads):
        seen = self._spy_pool(monkeypatch)
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
        manifest = tmp_path / "run.json"
        out1 = tmp_path / "first.csv"
        out2 = tmp_path / "second.csv"
        code = main([*command, "--config", str(config), "--out", str(out1), "--manifest", str(manifest)])
        assert code == 0
        records = _read(tmp_path / "records.csv") if command[0] == "simulate" else None
        # the re-run needs no config file
        config.unlink()
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

    def test_stored_argv_and_config_are_pinned(self, tmp_path, monkeypatch):
        # simulate and sweep manifests store their flags and the resolved config in this layout
        monkeypatch.chdir(tmp_path)
        experiment = ["--meter", "ancilla", "--v-total", "0.6", "--u", "0.9", "--phi-b2", "2", "--shots", "100", "--seed", "3"]
        angles = {"a1": 1.5707963267948966, "a2": 0.7853981633974483, "b1": 0.0, "b2": 2.0}
        meter = {"type": "ancilla", "v_total": 0.6, "u": 0.9}
        for argv, stored, b in (
            (["sweep", "--axis", "v", "--values", "0.5,1"], ["--axis=v", "--values=0.5,1", "--out=x.csv"], 0.5),
            (["simulate", "--records", "r.csv"], ["--records=r.csv", "--out=x.csv"], 1.0),
        ):
            assert main([*argv, *experiment, "--out", "x.csv", "--manifest", f"{argv[0]}.json"]) == 0
            data = json.loads(_read(tmp_path / f"{argv[0]}.json"))
            assert data["argv"] == stored
            assert data["config"] == {
                "meter1": meter, "meter2": meter, "b": {"v": b}, "angles": angles, "run": {"shots": 100, "seed": 3},
            }

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


class TestDrawContract:
    """A manifest names the blgi and numpy versions whose seeded draws it holds."""

    #: a manifest as blgi 0.1 wrote it, in the layout of today but without ``numpy``
    V01_MANIFEST = {
        "command": "simulate",
        "argv": ["--out=x.csv"],
        "config": {
            "meter1": {"type": "gaussian", "sigma": 1.0, "eta": 1.0},
            "meter2": {"type": "gaussian", "sigma": 1.0, "eta": 1.0},
            "b": {"v": 1.0},
            "angles": {"a1": 1.5707963267948966, "a2": 0.7853981633974483, "b1": 0.0, "b2": 2.356194490192345},
            "run": {"shots": 100, "seed": 3},
        },
        "version": "0.1.0",
        "created_utc": "2026-10-19T15:53:03.511474+00:00",
    }

    @pytest.mark.parametrize("data", [V01_MANIFEST, None], ids=["0.1 layout", "earlier layout"])
    def test_a_0_1_manifest_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys, data):
        monkeypatch.chdir(tmp_path)
        Path("m.json").write_text(json.dumps(OLD_FORMAT_MANIFEST if data is None else data), encoding="utf-8")
        assert main(["simulate", "--manifest", "m.json", "--out", "y.csv"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "blgi 0.1.0" in err[0] and f"blgi {blgi.__version__}" in err[0] and "draws" in err[0]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["m.json"]

    def test_a_manifest_records_both_versions(self, tmp_path):
        manifest = tmp_path / "m.json"
        assert main(["simulate", "--shots", "100", "--out", str(tmp_path / "x.csv"), "--manifest", str(manifest)]) == 0
        data = json.loads(_read(manifest))
        assert (data["version"], data["numpy"]) == (blgi.__version__, np.__version__)

    def test_a_rerun_under_another_numpy_warns_and_runs(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        argv = ["simulate", "--shots", "100", "--seed", "3", "--out", str(tmp_path / "x.csv")]
        assert main([*argv, "--manifest", str(manifest)]) == 0
        manifest.write_text(json.dumps({**json.loads(_read(manifest)), "numpy": "1.24.0"}), encoding="utf-8")
        capsys.readouterr()
        assert main(["simulate", "--manifest", str(manifest), "--out", str(tmp_path / "y.csv")]) == 0
        err = capsys.readouterr().err.strip().splitlines()
        warnings = [line for line in err if "numpy" in line]
        assert len(warnings) == 1 and warnings[0].startswith("warning: ")
        assert "numpy 1.24.0" in warnings[0] and f"numpy {np.__version__}" in warnings[0]
        assert _read(tmp_path / "x.csv") == _read(tmp_path / "y.csv")


#: a 0.1 manifest in the earlier layout, with ``seed``/``out``/``extra`` and no ``argv``
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
            (SIMULATE, lambda data: {key: value for key, value in data.items() if key != "argv"}, [], "argv"),
            (LHV, None, ["--shots", "100000"], "--shots"),
            (SIMULATE, _set_config("run", "shots", 1000.7), [], "run.shots"),
            (SIMULATE, _set_config("run", "seed", -1), [], "run.seed"),
            (SIMULATE, _set_config("run", "shots", 0), [], "run.shots"),
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
            "run.seed -1",
            "run.shots 0",
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
        assert lines[-1] == "# lmr_bound = 2"

    @pytest.mark.parametrize(
        "flags",
        [["--strategy", "s.ini"], ["--random", "2", "--hidden-states", "9"], ["--strategy", "s.ini", "--random", "2"]],
        ids=["strategy", "random", "both"],
    )
    def test_output_ends_with_one_lmr_bound_line(self, tmp_path, monkeypatch, flags):
        # whatever the strategies and their hidden-state counts, the bound is stated once, after the rows
        monkeypatch.chdir(tmp_path)
        Path("s.ini").write_text(STRATEGY_BODY, encoding="utf-8")
        assert main(["lhv", *flags, "--shots", "1000", "--out", "x.csv"]) == 0
        lines = _read(tmp_path / "x.csv").splitlines()
        assert lines[0] == "strategy,mean,stderr,bound_ok,calibration_ok"
        assert [line for line in lines if line.startswith("#")] == lines[-1:] == ["# lmr_bound = 2"]

    def test_seed_defaults_to_the_experiment_default(self, tmp_path):
        argv = ["lhv", "--random", "2", "--shots", "1000", "--out"]
        assert main([*argv, str(tmp_path / "default.csv")]) == 0
        assert main([*argv, str(tmp_path / "42.csv"), "--seed", "42"]) == 0
        assert main([*argv, str(tmp_path / "7.csv"), "--seed", "7"]) == 0
        assert _read(tmp_path / "default.csv") == _read(tmp_path / "42.csv") != _read(tmp_path / "7.csv")

    def test_output_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "lhv.csv"
        code = main([
            "lhv", "--random", "5", "--shots", "20000", "--hidden-states", "3",
            "--invasiveness", "0.3", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        digest = "f13ee870a702c626905f8346483c5631b84b1ed144240d0c68047fb4340e36f9"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_worker_count_never_changes_the_bytes(self, tmp_path, monkeypatch):
        # lhv has no --threads: it caps its pool at one worker per strategy, and
        # the pool caps that at the usable CPUs
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
            monkeypatch.setattr("blgi.protocol._usable_cpus", lambda: cpus)
            out = tmp_path / f"lhv-{cpus}.csv"
            assert main([*argv, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert workers == [7, 7]
        assert outputs[0] == outputs[1]

    def test_two_chunk_output_bytes_are_pinned(self, tmp_path):
        # 70000 shots a strategy: each draws a 65536-shot block, then a 4464-shot one
        out = tmp_path / "lhv.csv"
        code = main([
            "lhv", "--random", "2", "--shots", "70000", "--hidden-states", "3",
            "--invasiveness", "0.3", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        digest = "cb7c1ab4844b0de3b251ad7ad30de69f0d3b5c2cb029f18e68fc977ae56aea22"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "strategies, shots, cpus, workers",
        [(4, 50_000_000, 8, 4), (4, 2_000_000, 8, 4), (16, 100_000, 8, 8), (200, 100_000, 2, 2), (3, 100_000, 8, 3)],
    )
    def test_workers_are_strategies_up_to_usable_cpus(self, tmp_path, monkeypatch, strategies, shots, cpus, workers):
        # a worker draws its strategy in chunks into lent workspaces, so no shot count means fewer workers
        seen, pools = [], []

        def spy(tasks, threads):
            seen.append(threads)
            return _chunks_in_order(tasks, threads)

        class PoolSpy(ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                pools.append(max_workers)

        monkeypatch.setattr("blgi.cli._chunks_in_order", spy)
        monkeypatch.setattr("blgi.protocol.ThreadPoolExecutor", PoolSpy)
        monkeypatch.setattr("blgi.protocol._usable_cpus", lambda: cpus)
        # nothing is drawn: a stub stands in for each strategy's run
        monkeypatch.setattr("blgi.lhv.lhv_mean", lambda strategy, n, rng: Estimate(mean=0.0, stderr=0.1, shots=n))
        argv = ["lhv", "--random", str(strategies), "--shots", str(shots), "--seed", "3"]
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 0
        assert seen == [strategies]
        assert pools == [workers]

    def test_bound_violation_exits_4_and_writes_every_row(self, tmp_path, monkeypatch, capsys):
        # a stub mean of 2.5 sits 50 standard errors above the bound, so every row fails it
        monkeypatch.setattr("blgi.lhv.lhv_mean", lambda strategy, n, rng: Estimate(mean=2.5, stderr=0.01, shots=n))
        out, manifest = tmp_path / "x.csv", tmp_path / "m.json"
        argv = ["lhv", "--random", "3", "--shots", "100", "--seed", "3", "--out", str(out), "--manifest", str(manifest)]
        assert main(argv) == 4
        assert capsys.readouterr().err == ""
        lines = _read(out).splitlines()
        assert [line.split(",")[3] for line in lines[1:-1]] == ["false"] * 3
        assert lines[-1] == "# lmr_bound = 2"
        assert manifest.exists()

    def test_chance_trips_the_bound_at_two_shots(self, tmp_path):
        # README's example: at 2 shots a row's stderr can be near 0, so chance alone fails
        # 50 rows; ROADMAP item 3's exact bound_ok, which checks the strategy itself, will change this
        out = tmp_path / "x.csv"
        assert main(["lhv", "--random", "2000", "--shots", "2", "--seed", "3", "--out", str(out)]) == 4
        rows = [line.split(",") for line in _read(out).splitlines()[1:-1]]
        assert len(rows) == 2000
        assert sum(row[3] == "false" for row in rows) == 50

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_random_strategies_are_built_as_the_pool_asks(self, monkeypatch, cpus):
        # each strategy is built when its task is queued and dropped once it has run,
        # and each row is written as its estimate arrives, row 0 before the last strategy exists
        built, most_alive, written = [], [], []
        random_strategy = blgi.lhv.random_strategy
        stdout = io.StringIO()

        def spy(*args, **kwargs):
            strategy = random_strategy(*args, **kwargs)
            built.append(weakref.ref(strategy))
            most_alive.append(sum(ref() is not None for ref in built))
            written.append(stdout.getvalue())
            return strategy

        monkeypatch.setattr("blgi.lhv.random_strategy", spy)
        monkeypatch.setattr("blgi.protocol._usable_cpus", lambda: cpus)
        monkeypatch.setattr("sys.stdout", stdout)
        argv = ["lhv", "--random", "12", "--shots", "2000", "--seed", "3"]
        assert main(argv) == 0
        assert len(built) == 12
        assert max(most_alive) <= cpus + 2
        assert written[0] == ""
        assert written[11].startswith("strategy,mean,stderr,bound_ok,calibration_ok\nrandom-0,")
        assert stdout.getvalue().count("\n") == 14

    def test_hidden_states_bound_is_checked_before_any_strategy_is_built(self, tmp_path, monkeypatch, capsys):
        built = []
        random_strategy = blgi.lhv.random_strategy

        def spy(*args, **kwargs):
            built.append(args)
            return random_strategy(*args, **kwargs)

        monkeypatch.setattr("blgi.lhv.random_strategy", spy)
        monkeypatch.setattr("blgi.lhv.MAX_HIDDEN_STATES", 8)
        argv = ["lhv", "--random", "2", "--shots", "100", "--seed", "3"]
        assert main([*argv, "--hidden-states", "8", "--out", str(tmp_path / "at.csv")]) == 0
        assert len(built) == 2
        capsys.readouterr()
        assert main([*argv, "--hidden-states", "9", "--out", str(tmp_path / "over.csv")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "--hidden-states" in err[0]
        assert len(built) == 2
        assert not (tmp_path / "over.csv").exists()

    @pytest.mark.parametrize("beside", [[], ["--strategy", "s.ini"]], ids=["alone", "beside --strategy"])
    @pytest.mark.parametrize(
        "flag",
        [
            ["--hidden-states", "0"], ["--hidden-states", "1048577"], ["--noise-sigma", "-1"],
            ["--noise-sigma", "nan"], ["--invasiveness", "-0.5"], ["--invasiveness", "inf"],
        ],
        ids=" ".join,
    )
    def test_random_family_range_error_names_its_flag_before_any_draw(self, tmp_path, monkeypatch, capsys, flag, beside):
        monkeypatch.chdir(tmp_path)
        Path("s.ini").write_text(STRATEGY_BODY, encoding="utf-8")
        calls = []
        for name in ("random_strategy", "lhv_mean"):
            real = getattr(blgi.lhv, name)
            monkeypatch.setattr(f"blgi.lhv.{name}", lambda *args, name=name, real=real: calls.append(name) or real(*args))
        argv = ["lhv", *beside, "--random", "2", *flag, "--shots", "100", "--out", "x.csv", "--manifest", "m.json"]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag[0]}: ")
        assert calls == []
        assert sorted(path.name for path in tmp_path.iterdir()) == ["s.ini"]

    @pytest.mark.parametrize(
        "flag", [["--hidden-states", "9"], ["--noise-sigma", "5"], ["--invasiveness", "0.7"], ["--hidden-states", "2"]]
    )
    def test_random_only_flags_without_random_exit_2(self, tmp_path, capsys, flag):
        strategy = tmp_path / "s.ini"
        strategy.write_text(STRATEGY_BODY, encoding="utf-8")
        out, manifest = tmp_path / "x.csv", tmp_path / "m.json"
        argv = ["lhv", "--strategy", str(strategy), *flag, "--shots", "100", "--out", str(out)]
        assert main([*argv, "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and flag[0] in err[0]
        assert not out.exists() and not manifest.exists()

    def test_manifest_stores_random_only_flags_for_random_runs(self, tmp_path):
        strategy = tmp_path / "s.ini"
        strategy.write_text(STRATEGY_BODY, encoding="utf-8")
        stored = {}
        for name, flags in (("file", ["--strategy", str(strategy)]), ("random", ["--random", "1"])):
            manifest = tmp_path / f"{name}.json"
            argv = ["lhv", *flags, "--shots", "100", "--out", str(tmp_path / f"{name}.csv")]
            assert main([*argv, "--manifest", str(manifest)]) == 0
            stored[name] = {arg.split("=")[0] for arg in json.loads(_read(manifest))["argv"]}
        random_only = {"--hidden-states", "--noise-sigma", "--invasiveness"}
        assert not stored["file"] & random_only
        assert random_only <= stored["random"]

    def test_strategy_manifest_with_stored_random_only_flags_exits_2(self, tmp_path, monkeypatch, capsys):
        # an lhv --strategy manifest that stores every flag at its default, as 0.1
        # versions wrote it, is refused by its stored flags under this version too
        monkeypatch.chdir(tmp_path)
        Path("s.ini").write_text(STRATEGY_BODY, encoding="utf-8")
        manifest = {
            "command": "lhv",
            "argv": [
                "--strategy=s.ini", "--shots=1000", "--hidden-states=2", "--noise-sigma=1.0",
                "--invasiveness=0.0", "--seed=3", "--out=x.csv",
            ],
            "config": {},
            "version": blgi.__version__,
            "numpy": np.__version__,
            "created_utc": "2026-10-19T15:53:03.511474+00:00",
        }
        Path("m.json").write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["lhv", "--manifest", "m.json"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "--hidden-states" in err[0]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["m.json", "s.ini"]

    def test_strategy_file_bytes_are_pinned(self, tmp_path, monkeypatch):
        # the bytes that earlier versions wrote for this file with a "hidden_states = 2" line
        monkeypatch.chdir(tmp_path)
        Path("s.ini").write_text(STRATEGY_FILE, encoding="utf-8")
        assert main(["lhv", "--strategy", "s.ini", "--shots", "70000", "--seed", "3", "--out", "x.csv"]) == 0
        digest = "f4dfbb8e273bbd6f3f450ef15b420e1793782a1c49849fc5c024e9ed1f0d2888"
        assert hashlib.sha256((tmp_path / "x.csv").read_bytes()).hexdigest() == digest

    def test_strategy_manifest_keeps_the_strategy(self, tmp_path, monkeypatch):
        # a re-run builds the strategy from the manifest: an edit or the removal of the file changes nothing
        monkeypatch.chdir(tmp_path)
        strategy = Path("s.ini")
        strategy.write_text(STRATEGY_FILE, encoding="utf-8")
        argv = ["lhv", "--strategy", "s.ini", "--shots", "1000", "--seed", "3"]
        assert main([*argv, "--out", "a.csv", "--manifest", "m.json"]) == 0
        data = json.loads(_read(tmp_path / "m.json"))
        assert data["argv"][0] == "--strategy=s.ini"
        assert data["config"]["strategy"]["b2"] == "-1, 1"
        strategy.write_text(STRATEGY_FILE.replace("b2 = -1, 1", "b2 = 1, 1"), encoding="utf-8")
        assert main(["lhv", "--manifest", "m.json", "--out", "b.csv"]) == 0
        strategy.unlink()
        assert main(["lhv", "--manifest", "m.json", "--out", "c.csv"]) == 0
        assert _read(tmp_path / "a.csv") == _read(tmp_path / "b.csv") == _read(tmp_path / "c.csv")

    @pytest.mark.parametrize(
        "flags, config, named",
        [
            (["--strategy", "s.ini"], {}, "[strategy]"),
            (["--strategy", "s.ini"], {"strategy": {"prep_dist": "1", "a1": "1"}}, "strategy.a2 is required"),
            (["--strategy", "s.ini"], {"strategy": {}, "run": {"seed": 3}}, "[run]"),
            (["--random", "1"], {"strategy": {"prep_dist": "1"}}, "stores no config"),
            # the section STRATEGY_BODY stores, with a JSON integer too large for a float
            (["--strategy", "s.ini"], {"strategy": {**dict.fromkeys(["prep_dist", "a1", "a2", "b1", "b2"], "1"),
                                                    "noise_sigma1": 10**400}},
             "strategy.noise_sigma1: expected a number, got 1000"),
        ],
        ids=["earlier layout", "stored key missing", "extra section", "random with a config", "noise_sigma1 10**400"],
    )
    def test_strategy_manifest_with_a_bad_config_exits_2(self, tmp_path, monkeypatch, capsys, flags, config, named):
        # an lhv --strategy manifest of earlier versions has an empty config; a stored
        # section gets the strategy file's checks, and a --random manifest stores none
        monkeypatch.chdir(tmp_path)
        Path("s.ini").write_text(STRATEGY_BODY, encoding="utf-8")
        assert main(["lhv", *flags, "--shots", "100", "--seed", "3", "--out", "x.csv", "--manifest", "m.json"]) == 0
        data = json.loads(_read(tmp_path / "m.json"))
        Path("m.json").write_text(json.dumps({**data, "config": config}), encoding="utf-8")
        Path("x.csv").unlink()
        capsys.readouterr()
        assert main(["lhv", "--manifest", "m.json"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["m.json", "s.ini"]

    def test_numerical_error_in_a_worker_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("blgi.protocol._usable_cpus", lambda: 3)
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
            "[strategy]\nprep_dist = 1\na1 = 1\na2 = 1\n"
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
            "[strategy]\nprep_dist = 0.5, 0.4\na1 = 1, -1\na2 = 1, -1\n"
            "b1 = 1, -1\nb2 = -1, 1\n"
        )
        code = main(["lhv", "--strategy", str(strategy), "--shots", "1000"])
        assert code == 2
        assert "sum to 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "replace, named",
        [
            (("prep_dist = 0.5, 0.5", "prep_dist = nan, nan"), "prep_dist"),
            # sums to 1, so only the sign check refuses it
            (("prep_dist = 0.5, 0.5", "prep_dist = 1.5, -0.5"), "prep_dist has negative entries"),
            (("prep_dist = 0.5, 0.5", "prep_dist = 0.5, 0.5\nnoise_sigma1 = -1"), "noise_sigma1 must be finite and >= 0"),
        ],
        ids=["nan prep_dist", "negative prep_dist", "negative noise_sigma1"],
    )
    def test_invalid_strategy_exits_2_with_one_line(self, tmp_path, capsys, replace, named):
        strategy = tmp_path / "bad.ini"
        strategy.write_text(
            "[strategy]\na1 = 1, -1\na2 = 1, -1\nb1 = 1, -1\nb2 = -1, 1\n"
            "prep_dist = 0.5, 0.5\n".replace(*replace)
        )
        out = tmp_path / "x.csv"
        assert main(["lhv", "--strategy", str(strategy), "--shots", "1000", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
        assert not out.exists()
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


STRATEGY_BODY = "[strategy]\nprep_dist = 1\na1 = 1\na2 = 1\nb1 = 1\nb2 = 1\n"
#: two hidden states with every optional key kind: a noise width and an invasiveness vector
STRATEGY_FILE = (
    "[strategy]\nprep_dist = 0.25, 0.75\na1 = 1, -1\na2 = 1, -0.5\nb1 = 1, -1\nb2 = -1, 1\n"
    "noise_sigma1 = 0.5\ninvasiveness2 = 0.3, -0.2\n"
)


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
            ("hidden_states = 1\n", "strategy.hidden_states"),
        ],
        ids=["noise_sigma", "invasivenes1", "noise_bias1", "extra section", "hidden_states"],
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
            ["lhv", "--random", "1", "--shots", "100", "--hidden-states", "0"],
            # over the per-strategy bound on hidden states: exits before any strategy is built
            ["lhv", "--random", "2", "--shots", "100", "--hidden-states", "2097121"],
            ["lhv", "--random", "1", "--shots", "100", "--hidden-states", str(MAX_HIDDEN_STATES + 1)],
            ["lhv", "--random", "1", "--shots", "100", "--noise-sigma", "-1"],
            *(["lhv", "--random", "1", "--shots", "10", "--invasiveness", value] for value in ("inf", "nan", "-0.5")),
            ["simulate", "--meter", "gaussian", "--sigma", "1e-200", "--shots", "10"],
            ["simulate", "--shots", "10", "--seed", str(2**64)],
            ["sweep", "--axis", "v", "--values", "1", "--shots", "10", "--seed", "-1"],
            ["simulate", "--meter", "gaussian", "--v-total", "0.5", "--u", "0.3", "--shots", "10"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_exits_2_with_one_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize(
        "argv, config, named",
        [
            (["simulate"], "[run]\nseed = -1\n", "run.seed"),
            (["simulate"], "[run]\nshots = 0\n", "run.shots"),
            (["sweep", "--axis", "v", "--values", "1"], "[run]\nseed = -1\n", "run.seed"),
            (["simulate", "--seed", "-1"], None, "--seed"),
            (["simulate", "--seed", str(2**64)], None, "--seed"),
            (["simulate", "--shots", "0"], None, "--shots"),
            (["sweep", "--axis", "v", "--values", "1", "--seed", "-1"], None, "--seed"),
            (["sweep", "--axis", "v", "--values", "1", "--shots", "-5"], None, "--shots"),
            # one shot is in range but has no standard error
            (["simulate"], "[run]\nshots = 1\n", "run.shots"),
            (["sweep", "--axis", "v", "--values", "1"], "[run]\nshots = 1\n", "run.shots"),
            (["simulate", "--shots", "1"], None, "--shots"),
            (["sweep", "--axis", "v", "--values", "1", "--shots", "1"], None, "--shots"),
            (["lhv", "--random", "1", "--shots", "1"], None, "--shots"),
            # a meter or readout value names its flag or key; a sweep point names --values
            (["simulate", "--sigma", "-1"], None, "--sigma"),
            (["simulate", "--meter", "ancilla", "--v", "2"], None, "--v"),
            (["simulate"], "[meter1]\nsigma = -1\n", "meter1.sigma"),
            (["simulate"], "[b]\nv = 2\n", "b.v"),
            (["sweep", "--axis", "eta", "--values", "1.5,0.5"], None, "--values"),
            (["sweep", "--axis", "eta", "--values", "0.5,1.5"], None, "--values"),
            # v_total <= u names the flag or key that broke it
            (["simulate", "--meter", "ancilla", "--u", "0.5"], None, "--u"),
            (["simulate", "--v-total", "0.8"], "[meter1]\ntype = ancilla\nv_total = 0.4\nu = 0.5\n"
             "[meter2]\ntype = ancilla\nv_total = 0.4\nu = 0.5\n", "--v-total"),
            (["simulate"], "[meter2]\ntype = ancilla\nv_total = 0.6\nu = 0.5\n", "meter2.u"),
            (["sweep", "--meter", "ancilla", "--v-total", "0.8", "--axis", "u", "--values", "1,0.5"], None,
             "--values"),
            # u itself in (0, 1]
            (["simulate", "--meter", "ancilla", "--u", "1.5"], None, "--u"),
            (["simulate"], "[meter1]\ntype = ancilla\nu = 0\n", "meter1.u"),
            # a count of 2**63 or more, whose chunk list no index could hold, is refused before any draw
            (["simulate", "--shots", str(10**24)], None, "--shots"),
            (["sweep", "--axis", "sigma", "--values", "1", "--shots", str(10**24)], None, "--shots"),
            (["lhv", "--random", "1", "--shots", str(10**24)], None, "--shots"),
            (["simulate"], f"[run]\nshots = {10**24}\n", "run.shots"),
        ],
        ids=[
            "config seed -1", "config shots 0", "sweep config seed -1", "simulate --seed -1",
            "simulate --seed 2**64", "simulate --shots 0", "sweep --seed -1", "sweep --shots -5",
            "config shots 1", "sweep config shots 1", "simulate --shots 1", "sweep --shots 1", "lhv --shots 1",
            "simulate --sigma -1", "simulate --v 2", "config meter1.sigma -1", "config b.v 2",
            "sweep first point", "sweep later point", "simulate --u under v_total", "simulate --v-total over u",
            "config meter2.u under v_total", "sweep u under v_total", "simulate --u 1.5", "config meter1.u 0",
            "simulate --shots 10**24", "sweep --shots 10**24", "lhv --shots 10**24", "config run.shots 10**24",
        ],
    )
    def test_range_error_names_the_key_or_flag(self, argv, config, named, tmp_path, capsys):
        if config is not None:
            (tmp_path / "run.ini").write_text(config, encoding="utf-8")
            argv = [*argv, "--config", str(tmp_path / "run.ini")]
        out, manifest = tmp_path / "x.csv", tmp_path / "m.json"
        assert main([*argv, "--out", str(out), "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {named}: ")
        assert not out.exists() and not manifest.exists()

    @pytest.mark.parametrize(
        "argv, config, named",
        [
            (["simulate", "--shots", "0"], None, "--shots"),
            (["sweep", "--axis", "v", "--values", "1", "--shots", "0"], None, "--shots"),
            (["lhv", "--random", "1", "--shots", "0"], None, "--shots"),
            (["simulate"], "[run]\nshots = 0\n", "run.shots"),
            (["sweep", "--axis", "v", "--values", "1"], "[run]\nshots = 0\n", "run.shots"),
        ],
        ids=["simulate --shots 0", "sweep --shots 0", "lhv --shots 0", "simulate run.shots 0", "sweep run.shots 0"],
    )
    def test_shot_floor_is_one_rule(self, argv, config, named, tmp_path, capsys):
        # ExperimentConfig holds the one floor, so zero shots read the two-shot message
        if config is not None:
            (tmp_path / "run.ini").write_text(config, encoding="utf-8")
            argv = [*argv, "--config", str(tmp_path / "run.ini")]
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {named}: shots must be >= 2 for a standard error, got 0"]
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key", ANGLE_KEYS)
    def test_non_finite_angle_names_its_flag_or_key(self, key, source, tmp_path, capsys):
        if source == "flag":
            argv, named = ["simulate", f"--phi-{key}", "inf"], f"--phi-{key}"
        else:
            (tmp_path / "run.ini").write_text(f"[angles]\n{key} = nan\n", encoding="utf-8")
            argv, named = ["simulate", "--config", str(tmp_path / "run.ini")], f"angles.{key}"
        out, manifest = tmp_path / "x.csv", tmp_path / "m.json"
        assert main([*argv, "--shots", "100", "--out", str(out), "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {named}: angles must be four finite radians")
        assert not out.exists() and not manifest.exists()

    @pytest.mark.parametrize("flag", [["--config", "ghost.ini"], ["--threads", "2"]], ids=lambda flag: flag[0])
    def test_lhv_takes_no_experiment_flags(self, flag, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert _exit_code(["lhv", "--random", "1", "--shots", "100", *flag, "--out", str(out)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_lhv_has_no_brute_force_flag(self, tmp_path, capsys):
        # the classical bound is stated once, by the trailing lmr_bound line of every lhv output
        out = tmp_path / "x.csv"
        assert _exit_code(["lhv", "--brute-force", "--out", str(out)]) == 2
        assert "unrecognized arguments: --brute-force" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "first, change, named",
        [
            (["simulate"], _set_config("run", "shots", 1), "run.shots: shots must be >= 2"),
            (["sweep", "--axis", "v", "--values", "1"], _set_config("run", "shots", 1), "run.shots: shots must be >= 2"),
            (["lhv", "--random", "1"], _set_stored("--shots", "1"), "--shots: shots must be >= 2"),
            # float(True) and int(True) are 1, but a JSON boolean is no number
            (["simulate"], _set_config("meter1", "sigma", True), "meter1.sigma: expected a number, got True"),
            (["simulate"], _set_config("run", "shots", True), "run.shots: expected an integer, got True"),
            (["sweep", "--axis", "v", "--values", "1"], _set_config("b", "v", False), "b.v: expected a number, got False"),
            # a JSON integer too large for a float
            (["simulate"], _set_config("b", "v", 10**400), "b.v: expected a number, got 1000"),
            (["simulate"], _set_config("meter1", "sigma", 10**400), "meter1.sigma: expected a number, got 1000"),
            (["simulate"], _set_config("angles", "a1", 10**400), "angles.a1: expected a number, got 1000"),
        ],
        ids=[
            "simulate run.shots 1", "sweep run.shots 1", "lhv --shots=1", "meter1.sigma true", "run.shots true",
            "b.v false", "b.v 10**400", "meter1.sigma 10**400", "angles.a1 10**400",
        ],
    )
    def test_manifest_rerun_error_names_the_key_or_flag(self, first, change, named, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        argv = [*first, "--shots", "100", "--seed", "3", "--out", str(tmp_path / "x.csv")]
        assert main([*argv, "--manifest", str(manifest)]) == 0
        manifest.write_text(json.dumps(change(json.loads(_read(manifest)))), encoding="utf-8")
        capsys.readouterr()
        assert main([first[0], "--manifest", str(manifest), "--out", str(tmp_path / "y.csv")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {named}")
        assert not (tmp_path / "y.csv").exists()

    def test_manifest_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        # Python reads no integer of more than 4300 digits by default: json raises a ValueError
        manifest = tmp_path / "run.json"
        argv = ["simulate", "--shots", "100", "--seed", "3", "--out", str(tmp_path / "x.csv")]
        assert main([*argv, "--manifest", str(manifest)]) == 0
        text = _read(manifest)
        assert text.count('"v": 1.0') == 1
        manifest.write_text(text.replace('"v": 1.0', '"v": ' + "1" * 5000), encoding="utf-8")
        capsys.readouterr()
        assert main(["simulate", "--manifest", str(manifest), "--out", str(tmp_path / "y.csv")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "y.csv").exists()

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

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["simulate", "--shots", "100", "--records", "x.csv", "--out", "x.csv"], ("--out", "--records")),
            (["simulate", "--shots", "100", "--records", "x.csv", "--manifest", "./x.csv"], ("--records", "--manifest")),
            (["sweep", "--axis", "v", "--values", "1", "--shots", "100", "--out", "s.json", "--manifest", "s.json"],
             ("--out", "--manifest")),
            (["lhv", "--random", "1", "--shots", "100", "--out", "l.json", "--manifest", "sub/../l.json"],
             ("--out", "--manifest")),
            (["simulate", "--config", "c.ini", "--records", "c.ini", "--shots", "1000"], ("--config", "--records")),
            (["simulate", "--config", "c.ini", "--shots", "1000", "--out", "c.ini"], ("--config", "--out")),
            (["sweep", "--config", "c.ini", "--axis", "sigma", "--values", "1,2", "--out", "c.ini"],
             ("--config", "--out")),
            (["sweep", "--config", "c.ini", "--axis", "sigma", "--values", "1,2", "--manifest", "sub/../c.ini"],
             ("--config", "--manifest")),
            (["lhv", "--strategy", "s.ini", "--out", "s.ini"], ("--strategy", "--out")),
            (["lhv", "--strategy", "./s.ini", "--shots", "100", "--manifest", "s.ini"], ("--strategy", "--manifest")),
        ],
        ids=lambda value: " ".join(value),
    )
    def test_colliding_output_paths_write_nothing(self, argv, flags, tmp_path, monkeypatch, capsys):
        # the later write used to replace the earlier one, or the input, and the run exited 0
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        inputs = {"c.ini": "[run]\nshots = 1000\n", "s.ini": STRATEGY_BODY}
        for name, text in inputs.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and all(flag in err[0] for flag in flags)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.ini", "s.ini", "sub"]
        assert {name: _read(tmp_path / name) for name in inputs} == inputs

    def test_rerun_output_colliding_with_stored_records_writes_nothing(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        records = tmp_path / "r.csv"
        argv = ["simulate", "--shots", "100", "--seed", "3", "--records", str(records)]
        assert main([*argv, "--out", str(tmp_path / "s.csv"), "--manifest", str(manifest)]) == 0
        stored = manifest.read_bytes(), records.read_bytes()
        capsys.readouterr()
        assert main(["simulate", "--manifest", str(manifest), "--out", str(records)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--out" in err[0] and "--records" in err[0]
        assert (manifest.read_bytes(), records.read_bytes()) == stored

    def test_rerun_output_colliding_with_stored_strategy_writes_nothing(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        strategy = tmp_path / "s.ini"
        strategy.write_text(STRATEGY_BODY, encoding="utf-8")
        argv = ["lhv", "--strategy", str(strategy), "--shots", "100", "--seed", "3"]
        assert main([*argv, "--out", str(tmp_path / "l.csv"), "--manifest", str(manifest)]) == 0
        stored = manifest.read_bytes()
        capsys.readouterr()
        assert main(["lhv", "--manifest", str(manifest), "--out", str(strategy)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--strategy" in err[0] and "--out" in err[0]
        assert (manifest.read_bytes(), _read(strategy)) == (stored, STRATEGY_BODY)

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
        # a run too large to hold: a strategy too large to draw, or a
        # simulate whose list of chunk sizes does not fit
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
    _flag("--shots", "-1", "0", "1", "2", "50"),
    _flag("--hidden-states", "0", "1", "8", "9"),
    _flag("--noise-sigma", "0", "1", "2.5", "-1", "nan", "inf"),
    _flag("--invasiveness", "0", "0.3", "-0.5", "nan", "inf", "1e308"),
    _flag("--seed", "-1", "0", "3", str(2**64 - 1), str(2**64)),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=LHV_FLAGS)
# rng.uniform(0, inf) once ended in an OverflowError traceback
@example(flags=(["--random", "1"], ["--shots", "10"], [], [], ["--invasiveness", "inf"], []))
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


#: a column of two bit patterns in every block but three over the chunk:
#: blocks alternate between its patterns 0 and 1 and its patterns 0 and 2
SPLIT = "split"
#: the edges of the writer's rule: a chunk is written from a row table only
#: when each of its four columns holds at most two bit patterns
_EDGE_COUNTS = [
    (1, 1, 1, 1),
    (2, 2, 2, 2),
    (2, 2, 2, 3),
    (SPLIT, 2, 2, 2),
    (2, 1, SPLIT, None),
]


@st.composite
def _patterned_chunks(draw):
    """Four columns of one chunk, each of ``count`` bit patterns over the chunk (or ``SPLIT``), or all distinct.

    Every block holds each of its column's patterns in its first rows.
    """
    n = draw(st.sampled_from([1, 2, _RECORD_BLOCK - 1, _RECORD_BLOCK, _RECORD_BLOCK + 1, 2 * _RECORD_BLOCK + 1]))
    counts = draw(st.one_of(st.tuples(*[st.sampled_from([1, 2, 3, SPLIT, None])] * 4), st.sampled_from(_EDGE_COUNTS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for count in counts:
        if count is None:
            bits = rng.integers(0, 2**64, size=n, dtype=np.uint64)
        else:
            pool = draw(st.lists(_BITS, min_size=3, max_size=3, unique=True))
            per_block = 2 if count == SPLIT else count
            index = rng.integers(per_block, size=n)
            for start in range(0, n, _RECORD_BLOCK):
                head = min(per_block, n - start)
                index[start:start + head] = rng.permutation(head)
            if count == SPLIT:
                index[(index == 1) & (np.arange(n) // _RECORD_BLOCK % 2 == 1)] = 2
            bits = np.array(pool, dtype=np.uint64)[index]
        columns.append(bits.view(np.float64))
    return tuple(columns)


def _split_column(first, second, third):
    """Two blocks and one row of the ``SPLIT`` kind: patterns 0 and 1, then 0 and 2, then 0."""
    pattern = [first, second] * (_RECORD_BLOCK // 2) + [first, third] * (_RECORD_BLOCK // 2) + [first]
    return np.array(pattern, dtype=np.uint64).view(np.float64)


@settings(max_examples=60, deadline=None)
@given(records=_patterned_chunks())
# two-valued columns a lookup by value would merge: signed zeros, NaN payloads, signs of NaN
@example(records=tuple(
    np.resize(np.array(pair, dtype=np.uint64), _RECORD_BLOCK + 1).view(np.float64)
    for pair in (SPECIAL_BITS[0:2], SPECIAL_BITS[2:4], SPECIAL_BITS[2:5:2], SPECIAL_BITS[4:6])
))
# a chunk whose blocks each hold two patterns of every column, three of the first over the chunk
@example(records=(
    _split_column(*SPECIAL_BITS[0:3]),
    *(np.resize(np.array(pair, dtype=np.uint64), 2 * _RECORD_BLOCK + 1).view(np.float64)
      for pair in (SPECIAL_BITS[0:2], SPECIAL_BITS[2:4], SPECIAL_BITS[4:6])),
))
def test_write_records_matches_the_field_by_field_writer(records):
    written, expected = io.StringIO(), io.StringIO()
    _write_records(written, records)
    write_records_reference(expected, records)
    written, expected = written.getvalue(), expected.getvalue()
    # report the first differing row: a diff of the whole text is very slow
    if written != expected:
        rows = zip(written.splitlines(keepends=True), expected.splitlines(keepends=True))
        pytest.fail(f"first differing row: {next(((i, a, b) for i, (a, b) in enumerate(rows) if a != b), None)}")


#: one full chunk's meters: every column two patterns; both signals all
#: distinct; and two-pattern columns beside a distinct signal
_CHUNK_METERS = {
    "ancilla": (AncillaMeterSpec(v_total=0.6, u=0.9), AncillaMeterSpec(v_total=0.6, u=0.9)),
    "gaussian": (GaussianMeterSpec(sigma=10.0, eta=0.5), GaussianMeterSpec(sigma=10.0, eta=0.5)),
    "mixed": (AncillaMeterSpec(v_total=0.6, u=0.9), GaussianMeterSpec(sigma=10.0, eta=0.5)),
}


def _seed_3_chunk(kind):
    """The records of the first full chunk of a seed-3 run of ``_CHUNK_METERS[kind]``."""
    meter1, meter2 = _CHUNK_METERS[kind]
    chunks = []
    monte_carlo(ExperimentConfig(meter1=meter1, meter2=meter2, shots=CHUNK_SHOTS, seed=3), 1, chunks.append)
    return chunks[0]


class _Discard:
    """A text handle that keeps nothing, so tracemalloc sees the writer's own peak."""

    def write(self, text):
        pass


@pytest.mark.parametrize("kind", sorted(_CHUNK_METERS))
def test_write_records_sorts_no_column(monkeypatch, kind):
    records = _seed_3_chunk(kind)
    expected = io.StringIO()
    write_records_reference(expected, records)

    def no_sort(*args, **kwargs):
        raise AssertionError("the records writer sorted a column")

    monkeypatch.setattr(np, "unique", no_sort)
    monkeypatch.setattr(np, "sort", no_sort)
    written = io.StringIO()
    _write_records(written, records)
    # compared whole: a diff of the whole text is very slow
    same = written.getvalue() == expected.getvalue()
    assert same


@pytest.mark.parametrize("kind, mib", [("ancilla", 0.6), ("gaussian", 1.6)])
def test_writing_one_chunk_peaks_under_its_bound(kind, mib):
    # the row codes are uint8: chunk-wide intp codes peaked near 3 MiB for an ancilla chunk
    records = _seed_3_chunk(kind)
    _write_records(_Discard(), records)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _write_records(_Discard(), records)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= mib * 2**20


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 5

    @pytest.mark.parametrize(
        "config",
        [
            # an ancilla grid config and a random one, each off by ten times the row's tolerance
            ExperimentConfig(
                meter1=AncillaMeterSpec(v_total=0.9, u=1.0),
                meter2=AncillaMeterSpec(v_total=0.9, u=1.0),
                b_spec=ProjectiveMeterSpec(v=0.8),
            ),
            _random_configs(200, seed=2013)[57],
        ],
        ids=["grid", "random"],
    )
    def test_a_closed_form_off_by_1e_8_on_one_config_fails(self, monkeypatch, capsys, config):
        analytic = blgi.cli.config_analytic_mean
        monkeypatch.setattr("blgi.cli.config_analytic_mean", lambda c: analytic(c) + (1e-8 if c == config else 0.0))
        [(_, deviation, tolerance)] = [row for row in _verify_checks() if row[0] == "closed form vs instrument moments"]
        assert deviation >= tolerance
        assert main(["verify"]) == 3
        assert "FAIL  closed form vs instrument moments" in capsys.readouterr().out

    def test_a_crossing_off_by_1e_9_fails(self, monkeypatch, capsys):
        # exact_mean is closed form, so the crossing row holds it to 1e-12: an error of 1e-9 fails
        threshold = GaussianMeterSpec(sigma=float(1.0 / np.sqrt(-2.0 * np.log(violation_threshold()))))
        exact = blgi.cli.exact_mean

        def off(config):
            return exact(config) + (1e-9 if config == ExperimentConfig(meter1=threshold, meter2=threshold) else 0.0)

        monkeypatch.setattr("blgi.cli.exact_mean", off)
        [(_, deviation, tolerance)] = [row for row in _verify_checks() if row[0] == "bound crossing at the threshold width"]
        assert deviation >= tolerance
        assert main(["verify"]) == 3
        assert "FAIL  bound crossing at the threshold width" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag",
        [["--config", "x.ini"], ["--seed", "5"], ["--out", "x.csv"], ["--manifest", "m.json"], ["--threads", "4"]],
        ids=lambda flag: flag[0],
    )
    def test_takes_no_run_flags(self, flag, capsys):
        assert _exit_code(["verify", *flag]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


#: perfbench/run.py's four workload argvs, copied literally, with each output's seed-3 sha256
_BENCHMARK_ARGVS = {
    "simulate_mc": (
        ["simulate", "--meter", "gaussian", "--sigma", "10", "--eta", "0.5", "--threads", "2",
         "--shots", str(64 * CHUNK_SHOTS)],
        {"out.csv": "587562ef4cd35a3615ef6960a200a3bf29485190fc0c009babcdffe53530c46d"},
    ),
    "simulate_records": (
        ["simulate", "--meter", "ancilla", "--v-total", "0.6", "--u", "0.9", "--shots", str(8 * CHUNK_SHOTS)],
        {
            "out.csv": "3584bc604f6b3548ab05a64a6965563a57f1174eb015d0d0b4dbd6bf19841dc6",
            "records.csv": "25197ddcb99d6a71d7894252c5ab0743d6b38e97a585d39d4d9580f2c9e68e84",
        },
    ),
    "sweep_exact": (
        ["sweep", "--meter", "gaussian", "--eta", "0.5", "--v", "0.8", "--axis", "sigma",
         "--values", "0.25,0.35,0.5,0.7,1,1.4,2,2.8,4,5.7,8,11.3,16,32,100", "--shots", str(CHUNK_SHOTS)],
        {"out.csv": "42adfe049dbc4e7275030160f2d42d1e99a7d0b524a96eea8d852425eba9ea97"},
    ),
    "lhv_random": (
        ["lhv", "--random", "200", "--hidden-states", "4", "--invasiveness", "0.3", "--shots", "100000"],
        {"out.csv": "e5ed5cae0ead79d6657cc064a293c12a4d7a22fa7efd1b015552915b8f64fbb0"},
    ),
}


@pytest.mark.parametrize("workload", sorted(_BENCHMARK_ARGVS))
def test_benchmark_outputs_are_pinned(tmp_path, workload):
    # the argv perfbench/run.py builds: --seed, --out and, per workload, --records or --manifest
    args, digests = _BENCHMARK_ARGVS[workload]
    argv = [*args, "--seed", "3", "--out", str(tmp_path / "out.csv")]
    if "records.csv" in digests:
        argv += ["--records", str(tmp_path / "records.csv")]
    if workload == "sweep_exact":
        argv += ["--manifest", str(tmp_path / "manifest.json")]
    assert main(argv) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests} == digests


@pytest.mark.parametrize(
    "command, default",
    [("simulate", "the config's run.seed, else 42"), ("sweep", "the config's run.seed, else 42"), ("lhv", "42")],
)
def test_seed_help_states_its_default(command, default):
    subparsers = next(action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction))
    seed = next(action for action in subparsers.choices[command]._actions if action.dest == "seed")
    assert seed.default is None and seed.help == f"64-bit RNG seed (default: {default})"


def _lhv_help(dest):
    subparsers = next(action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction))
    return next(action for action in subparsers.choices["lhv"]._actions if action.dest == dest).help


@pytest.mark.parametrize("dest", ["shots", "hidden_states", "noise_sigma", "invasiveness"])
def test_lhv_help_states_the_default_it_runs(monkeypatch, dest):
    # each help text is formatted from the default cmd_lhv applies, so a new default shows
    if dest == "shots":
        assert f"(default {_LHV_SHOTS}" in _lhv_help(dest)
        monkeypatch.setattr("blgi.cli._LHV_SHOTS", 12345)
    else:
        field = next(field for field in fields(RandomStrategySpec) if field.name == dest)
        assert _lhv_help(dest).startswith(f"{field.metadata['help']} (default {field.default}")
        monkeypatch.setattr(field, "default", 12345)
    assert "(default 12345" in _lhv_help(dest)


def test_hidden_states_help_states_its_bound(monkeypatch):
    assert f"at most {MAX_HIDDEN_STATES})" in _lhv_help("hidden_states")
    monkeypatch.setattr("blgi.lhv.MAX_HIDDEN_STATES", 8)
    assert "at most 8)" in _lhv_help("hidden_states")


def test_cli_import_loads_only_blgi_numpy_and_the_stdlib():
    # only the modules new since the child started: site hooks load their own before it;
    # the child runs no command, since numpy.random's first use loads Cython's helpers
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import blgi.cli\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(new - sys.stdlib_module_names)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env(), check=True,
    )
    assert set(result.stdout.split()) <= {"blgi", "numpy"}


def test_cli_import_does_not_load_qmath():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, blgi.cli; print('blgi.qmath' in sys.modules)"],
        capture_output=True, text=True, env=_child_env(), check=True,
    )
    assert result.stdout.strip() == "False"
