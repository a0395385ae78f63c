import numpy as np
import pytest

from blgi.config import (
    ConfigError,
    RunManifest,
    _read_ini,
    config_from_sections,
    config_to_sections,
    load_experiment_config,
    strategy_from_sections,
)
from blgi.cli import _parse_args, _resolve_config, build_parser
from blgi.measurement import AncillaMeterSpec, GaussianMeterSpec, ProjectiveMeterSpec
from blgi.protocol import DEFAULT_ANGLES, ExperimentConfig

GOOD_CONFIG = """
[meter1]
type = gaussian
sigma = 2.5
eta = 0.5

[meter2]
type = ancilla
v_total = 0.6
u = 0.9

[b]
v = 0.8

[angles]
b2 = 2.0

[run]
shots = 5000
seed = 7
"""

GOOD_STRATEGY = """
[strategy]
prep_dist = 0.5, 0.5
a1 = 1, -1
a2 = 1, -1
b1 = 1, -1
b2 = -1, 1
noise_sigma1 = 0.5
noise_sigma2 = 0.5
"""


class TestExperimentConfigFile:
    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(GOOD_CONFIG)
        config = load_experiment_config(path)
        assert config.meter1 == GaussianMeterSpec(sigma=2.5, eta=0.5)
        assert config.meter2 == AncillaMeterSpec(v_total=0.6, u=0.9)
        assert config.b_spec == ProjectiveMeterSpec(v=0.8)
        assert config.angles[:3] == DEFAULT_ANGLES[:3]
        assert config.angles[3] == 2.0
        assert config.shots == 5000
        assert config.seed == 7

    def test_missing_file(self, tmp_path):
        missing = tmp_path / "nope.ini"
        with pytest.raises(ConfigError, match="nope.ini"):
            load_experiment_config(missing)

    def test_defaults_when_sections_absent(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("[run]\nshots = 10\n")
        config = load_experiment_config(path)
        assert config.meter1 == GaussianMeterSpec(sigma=1.0, eta=1.0)
        assert config.shots == 10
        assert config.seed == 42

    def test_bad_number_names_the_field(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[meter1]\ntype = gaussian\nsigma = fast\n")
        with pytest.raises(ConfigError, match="meter1.sigma"):
            load_experiment_config(path)

    def test_out_of_range_value_is_a_config_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[meter1]\ntype = ancilla\nv_total = 0.9\nu = 0.5\n")
        with pytest.raises(ConfigError, match="v_total"):
            load_experiment_config(path)

    def test_unparseable_file_reports_location(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("meter1]\nsigma = 1\n")
        with pytest.raises(ConfigError, match="broken.ini"):
            load_experiment_config(path)

    def test_dict_round_trip_is_exact(self):
        config = ExperimentConfig(
            meter1=GaussianMeterSpec(sigma=1.1423498329, eta=0.73),
            meter2=AncillaMeterSpec(v_total=0.37, u=0.81),
            b_spec=ProjectiveMeterSpec(v=0.999),
            angles=(0.1, 0.2, 0.3, 0.4),
            shots=123,
            seed=99,
        )
        assert config_from_sections(config_to_sections(config)) == config

    def test_defaults_come_from_the_dataclasses(self):
        assert config_from_sections({}) == ExperimentConfig()
        assert ExperimentConfig().meter1 == ExperimentConfig().meter2 == GaussianMeterSpec(sigma=1.0, eta=1.0)

    def test_sections_are_the_dataclass_fields_plus_type(self):
        config = ExperimentConfig(meter2=AncillaMeterSpec(v_total=0.5, u=0.7))
        sections = config_to_sections(config)
        assert sections["meter1"] == {"type": "gaussian", "sigma": 1.0, "eta": 1.0}
        assert sections["meter2"] == {"type": "ancilla", "v_total": 0.5, "u": 0.7}
        assert sections["b"] == {"v": 1.0}

    @pytest.mark.parametrize(
        "sections, message",
        [
            ({"meter1": {"type": "ancilla", "sigma": 3}}, "meter1.sigma requires Gaussian meters, but meter1 is ancilla"),
            ({"meter2": {"u": 0.5}}, "meter2.u requires ancilla meters, but meter2 is Gaussian"),
            ({"meter2": {"sigmaa": 5}}, "meter2.sigmaa: unknown key"),
            ({"meter1": {"type": "pointer"}}, "meter1.type"),
            ({"angels": {}}, r"\[angels\]: unknown section"),
            ({"angles": {"c1": 1.0}}, "angles.c1: unknown key"),
            ({"run": {"shot": 10}}, "run.shot: unknown key"),
            ({"b": {"v": 2.0}}, "b: v must be in"),
        ],
    )
    def test_strict_sections(self, sections, message):
        with pytest.raises(ConfigError, match=message):
            config_from_sections(sections)

    def test_nonempty_default_section(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[DEFAULT]\nsigma = 3\n\n[meter1]\ntype = gaussian\n")
        with pytest.raises(ConfigError, match="DEFAULT"):
            load_experiment_config(path)

    @pytest.mark.parametrize(
        "sections, where",
        [
            ({"run": {"shots": 1000.7}}, "run.shots"),
            ({"run": {"seed": float("inf")}}, "run.seed"),
            ({"meter1": {"sigma": None}}, "meter1.sigma"),
            ({"angles": {"a1": [1.0]}}, "angles.a1"),
        ],
    )
    def test_json_values_that_are_not_numbers_of_the_right_kind(self, sections, where):
        with pytest.raises(ConfigError, match=where):
            config_from_sections(sections)

    @pytest.mark.parametrize(
        "sections, message",
        [
            ({"run": {"seed": -1}}, "run.seed: seed must be a 64-bit unsigned integer, got -1"),
            ({"run": {"seed": str(2**64)}}, "run.seed: seed must be"),
            ({"run": {"shots": 0}}, "run.shots: shots must be >= 2 for a standard error, got 0"),
            ({"run": {"shots": "5", "seed": "-3"}}, "run.seed: seed must be"),
            ({"angles": {"b2": "inf"}}, "angles.b2: angles must be four finite radians"),
        ],
        ids=["seed -1", "seed 2**64", "shots 0", "seed after shots", "angle inf"],
    )
    def test_range_error_names_the_key(self, sections, message):
        # ExperimentConfig states each range; the reader adds the key that set the value
        with pytest.raises(ConfigError, match=message):
            config_from_sections(sections)


def _resolved_seed(command, argv):
    return _resolve_config(_parse_args(build_parser(), [command, *argv])).seed


@pytest.mark.parametrize("command", ["simulate", "sweep"])
class TestSeedResolution:
    """The seed is ``--seed``, else the config file's ``run.seed``, else ``ExperimentConfig``'s default."""

    def test_flag_wins(self, tmp_path, command):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nseed = 9\n")
        assert _resolved_seed(command, ["--config", str(path), "--seed", "5"]) == 5

    def test_file_beats_default(self, tmp_path, command):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nseed = 9\n")
        assert _resolved_seed(command, ["--config", str(path)]) == 9

    def test_default(self, command):
        assert _resolved_seed(command, []) == ExperimentConfig().seed == 42

    def test_config_seed_out_of_range(self, tmp_path, command):
        # ExperimentConfig checks the seed's range, wherever the seed came from
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\nseed = {2**64}\n")
        with pytest.raises(ConfigError, match="seed"):
            _resolved_seed(command, ["--config", str(path)])


class TestStrategyFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "strategy.ini"
        path.write_text(GOOD_STRATEGY)
        strategy = strategy_from_sections(_read_ini(path), str(path))
        assert strategy.num_hidden_states == 2
        np.testing.assert_allclose(strategy.prep_dist, [0.5, 0.5])
        np.testing.assert_allclose(strategy.b2, [-1, 1])
        assert strategy.noise_sigma1 == 0.5

    def test_bad_prep_dist_names_the_invariant(self, tmp_path):
        path = tmp_path / "strategy.ini"
        path.write_text(GOOD_STRATEGY.replace("prep_dist = 0.5, 0.5", "prep_dist = 0.5, 0.4"))
        with pytest.raises(ConfigError, match="sum to 1"):
            strategy_from_sections(_read_ini(path), str(path))

    def test_wrong_vector_length(self, tmp_path):
        path = tmp_path / "strategy.ini"
        path.write_text(GOOD_STRATEGY.replace("a1 = 1, -1", "a1 = 1"))
        with pytest.raises(ConfigError, match="a1"):
            strategy_from_sections(_read_ini(path), str(path))

    def test_missing_section(self, tmp_path):
        path = tmp_path / "strategy.ini"
        path.write_text("[other]\nx = 1\n")
        with pytest.raises(ConfigError, match="strategy"):
            strategy_from_sections(_read_ini(path), str(path))

    @pytest.mark.parametrize("key", ["prep_dist", "b2"])
    def test_missing_required_key(self, tmp_path, key):
        path = tmp_path / "strategy.ini"
        path.write_text("\n".join(line for line in GOOD_STRATEGY.splitlines() if not line.startswith(key)))
        with pytest.raises(ConfigError, match=f"strategy.{key} is required"):
            strategy_from_sections(_read_ini(path), str(path))

    def test_optional_vectors_and_defaults(self, tmp_path):
        path = tmp_path / "strategy.ini"
        path.write_text(GOOD_STRATEGY.replace("noise_sigma2 = 0.5\n", "invasiveness1 = 0.25, 0.5\n"))
        strategy = strategy_from_sections(_read_ini(path), str(path))
        assert strategy.noise_sigma2 == 1.0
        np.testing.assert_array_equal(strategy.invasiveness1, [0.25, 0.5])
        np.testing.assert_array_equal(strategy.invasiveness2, [0.0, 0.0])

    def test_hidden_states_is_an_unknown_key(self, tmp_path):
        # prep_dist sizes a strategy, so a count of hidden states would state it twice
        path = tmp_path / "strategy.ini"
        path.write_text(GOOD_STRATEGY + "hidden_states = 2\n")
        with pytest.raises(ConfigError, match="strategy.hidden_states: unknown key"):
            strategy_from_sections(_read_ini(path), str(path))

    @pytest.mark.parametrize(
        "sections, message",
        [
            ({"strategy": {"prep_dist": [1.0], "a1": "1", "a2": "1", "b1": "1", "b2": "1"}}, "strategy.prep_dist"),
            ({"strategy": {"prep_dist": 1, "a1": "1", "a2": "1", "b1": "1", "b2": "1"}}, "strategy.prep_dist"),
            ({"strategy": {"prep_dist": "0.5, 0.4", "a1": "1, 1", "a2": "1, 1", "b1": "1, 1", "b2": "1, 1"}},
             "manifest config: prep_dist"),
        ],
        ids=["list vector", "number vector", "bad prep_dist"],
    )
    def test_stored_sections_are_checked_like_the_file(self, sections, message):
        with pytest.raises(ConfigError, match=message):
            strategy_from_sections(sections, "manifest config")

    def test_scalar_field_takes_one_number(self, tmp_path):
        path = tmp_path / "strategy.ini"
        path.write_text(GOOD_STRATEGY.replace("noise_sigma1 = 0.5", "noise_sigma1 = 0.5, 0.5"))
        with pytest.raises(ConfigError, match="strategy.noise_sigma1: expected a number"):
            strategy_from_sections(_read_ini(path), str(path))


class TestManifest:
    def test_write_load_round_trip(self, tmp_path):
        config = ExperimentConfig(
            meter1=GaussianMeterSpec(sigma=3.0), meter2=GaussianMeterSpec(sigma=3.0), shots=77, seed=5
        )
        manifest = RunManifest.create("simulate", ["--out", "a.csv"], config)
        path = tmp_path / "m.json"
        manifest.write(path)
        loaded = RunManifest.load(path)
        assert loaded.command == "simulate"
        assert loaded.config["run"]["seed"] == 5
        assert config_from_sections(loaded.config) == config

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ConfigError, match="manifest"):
            RunManifest.load(tmp_path / "missing.json")

    def test_corrupt_manifest(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            RunManifest.load(path)
