"""Run configuration files, strategy files, and reproducibility manifests.

Config files are flat ``key = value`` INI text with sections ``meter1``,
``meter2``, ``b``, ``angles`` and ``run``; strategy files use a single
``strategy`` section with comma-separated per-hidden-state vectors.  A
:class:`RunManifest` holds a run's command line and its resolved config in
the same section layout, so re-running from a manifest reproduces the
output byte for byte.
"""

from __future__ import annotations

import configparser
import json
import os
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from .lhv import LHVStrategy
from .measurement import AncillaMeterSpec, GaussianMeterSpec, MeterSpec, ProjectiveMeterSpec
from .protocol import DEFAULT_ANGLES, ExperimentConfig

DEFAULT_SEED = 42
SEED_ENV_VAR = "BLGI_SEED"

_ANGLE_KEYS = ("a1", "a2", "b1", "b2")


class ConfigError(Exception):
    """A config or strategy file problem; the message names the culprit."""


def _parse_int(value: Any, where: str) -> int:
    """An integer from INI text or a JSON number; a fractional number is an error."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: expected an integer, got {value!r}") from exc
    if not isinstance(value, str) and number != value:
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return number


def _parse_float(value: Any, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: expected a number, got {value!r}") from exc


def _parse_vector(text: str, where: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{where}: expected comma-separated numbers, got {text!r}") from exc


def _read_ini(path: str | Path) -> configparser.ConfigParser:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parser


def _meter_from_section(section: dict[str, Any], where: str) -> MeterSpec:
    kind = str(section.get("type", "gaussian")).strip().lower()
    try:
        if kind == "gaussian":
            return GaussianMeterSpec(
                sigma=_parse_float(section.get("sigma", 1.0), f"{where}.sigma"),
                eta=_parse_float(section.get("eta", 1.0), f"{where}.eta"),
            )
        if kind == "ancilla":
            return AncillaMeterSpec(
                v_total=_parse_float(section.get("v_total", 1.0), f"{where}.v_total"),
                u=_parse_float(section.get("u", 1.0), f"{where}.u"),
            )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}.type: expected 'gaussian' or 'ancilla', got {kind!r}")


def config_from_sections(sections: dict[str, dict[str, Any]]) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from config-file sections.

    Values may be INI text or JSON numbers; a missing key takes its default.
    """
    meter1 = _meter_from_section(sections.get("meter1", {}), "meter1")
    meter2 = _meter_from_section(sections.get("meter2", {}), "meter2")
    try:
        b_spec = ProjectiveMeterSpec(v=_parse_float(sections.get("b", {}).get("v", 1.0), "b.v"))
    except ValueError as exc:
        raise ConfigError(f"b.v: {exc}") from exc
    angles_section = sections.get("angles", {})
    angles = tuple(
        _parse_float(angles_section.get(key, default), f"angles.{key}")
        for key, default in zip(_ANGLE_KEYS, DEFAULT_ANGLES)
    )
    run_section = sections.get("run", {})
    shots = _parse_int(run_section.get("shots", 1_000_000), "run.shots")
    seed = _parse_int(run_section.get("seed", DEFAULT_SEED), "run.seed")
    try:
        return ExperimentConfig(
            meter1=meter1, meter2=meter2, b_spec=b_spec, angles=angles, shots=shots, seed=seed
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_sections(config: ExperimentConfig) -> dict[str, dict[str, Any]]:
    """The inverse of :func:`config_from_sections`, exact for every field."""
    sections: dict[str, dict[str, Any]] = {}
    for name in ("meter1", "meter2"):
        spec = getattr(config, name)
        if isinstance(spec, GaussianMeterSpec):
            sections[name] = {"type": "gaussian", "sigma": spec.sigma, "eta": spec.eta}
        else:
            sections[name] = {"type": "ancilla", "v_total": spec.v_total, "u": spec.u}
    sections["b"] = {"v": config.b_spec.v}
    sections["angles"] = dict(zip(_ANGLE_KEYS, config.angles))
    sections["run"] = {"shots": config.shots, "seed": config.seed}
    return sections


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Read an experiment config file into an :class:`ExperimentConfig`."""
    parser = _read_ini(path)
    return config_from_sections({name: dict(parser[name]) for name in parser.sections()})


def resolve_seed(flag_seed: int | None, file_seed: int | None = None) -> int:
    """Seed precedence: command-line flag, then BLGI_SEED, then file, then 42.

    The winner must be a 64-bit unsigned integer.
    """
    if flag_seed is not None:
        seed, where = flag_seed, "--seed"
    elif (env := os.environ.get(SEED_ENV_VAR)) is not None:
        try:
            seed, where = int(env), SEED_ENV_VAR
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR}: expected an integer, got {env!r}") from exc
    elif file_seed is not None:
        seed, where = file_seed, "run.seed"
    else:
        return DEFAULT_SEED
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{where}: expected a 64-bit unsigned integer, got {seed!r}")
    return seed


def load_strategy(path: str | Path) -> LHVStrategy:
    """Read a strategy file and validate its invariants."""
    parser = _read_ini(path)
    if not parser.has_section("strategy"):
        raise ConfigError(f"{path}: missing [strategy] section")
    section = dict(parser["strategy"])
    if "hidden_states" not in section:
        raise ConfigError("strategy.hidden_states is required")
    n = _parse_int(section["hidden_states"], "strategy.hidden_states")

    def vector(key: str, required: bool = True) -> list[float] | None:
        if key not in section:
            if required:
                raise ConfigError(f"strategy.{key} is required")
            return None
        values = _parse_vector(section[key], f"strategy.{key}")
        if len(values) != n:
            raise ConfigError(
                f"strategy.{key} must have {n} entries (one per hidden state), got {len(values)}"
            )
        return values

    try:
        strategy = LHVStrategy(
            prep_dist=vector("prep_dist"),
            a1=vector("a1"),
            a2=vector("a2"),
            b1=vector("b1"),
            b2=vector("b2"),
            noise_sigma1=_parse_float(section.get("noise_sigma1", "1.0"), "strategy.noise_sigma1"),
            noise_sigma2=_parse_float(section.get("noise_sigma2", "1.0"), "strategy.noise_sigma2"),
            noise_bias1=vector("noise_bias1", required=False),
            noise_bias2=vector("noise_bias2", required=False),
            invasiveness1=vector("invasiveness1", required=False),
            invasiveness2=vector("invasiveness2", required=False),
        )
        strategy.validate()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return strategy


# ---------------------------------------------------------------------------
# Manifests.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """A run's command line and resolved config; re-running it reproduces the output.

    ``argv`` holds the command's own flags (never the config ones) and
    ``config`` the resolved config in :func:`config_to_sections` layout,
    empty for commands that take no config.
    """

    command: str
    argv: list[str]
    config: dict[str, dict[str, Any]]
    version: str
    created_utc: str

    @classmethod
    def create(cls, command: str, argv: list[str], config: ExperimentConfig | None) -> "RunManifest":
        from . import __version__

        return cls(
            command=command,
            argv=list(argv),
            config=config_to_sections(config) if config is not None else {},
            version=__version__,
            created_utc=datetime.now(timezone.utc).isoformat(),
        )

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"manifest file not found: {path}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse manifest {path}: {exc}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read manifest {path}: {exc}") from exc
        try:
            manifest = cls(
                command=data["command"],
                argv=data["argv"],
                config=data["config"],
                version=str(data.get("version", "")),
                created_utc=str(data.get("created_utc", "")),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"manifest {path} is missing fields: {exc}") from exc
        if not (isinstance(manifest.argv, list) and all(isinstance(arg, str) for arg in manifest.argv)):
            raise ConfigError(f"manifest {path}: argv must be a list of strings, got {manifest.argv!r}")
        if not (
            isinstance(manifest.config, dict)
            and all(isinstance(section, dict) for section in manifest.config.values())
        ):
            raise ConfigError(
                f"manifest {path}: config must map section names to dicts, got {manifest.config!r}"
            )
        return manifest
