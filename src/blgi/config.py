"""Run configuration files, strategy files, and reproducibility manifests.

Config files are flat ``key = value`` INI text with sections ``meter1``,
``meter2``, ``b``, ``angles`` and ``run``; strategy files use a single
``strategy`` section with comma-separated per-hidden-state vectors.  A
:class:`RunManifest` captures everything that determines a run's output,
so re-running from a manifest reproduces the output byte for byte.
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


class ConfigError(Exception):
    """A config or strategy file problem; the message names the culprit."""


def _positive_int(text: str, where: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected an integer, got {text!r}") from exc
    return value


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected a number, got {text!r}") from exc


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


def _meter_from_section(section: dict[str, str], where: str) -> MeterSpec:
    kind = section.get("type", "gaussian").strip().lower()
    try:
        if kind == "gaussian":
            return GaussianMeterSpec(
                sigma=_parse_float(section.get("sigma", "1.0"), f"{where}.sigma"),
                eta=_parse_float(section.get("eta", "1.0"), f"{where}.eta"),
            )
        if kind == "ancilla":
            return AncillaMeterSpec(
                v_total=_parse_float(section.get("v_total", "1.0"), f"{where}.v_total"),
                u=_parse_float(section.get("u", "1.0"), f"{where}.u"),
            )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}.type: expected 'gaussian' or 'ancilla', got {kind!r}")


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Read an experiment config file into an :class:`ExperimentConfig`."""
    parser = _read_ini(path)
    sections = {name: dict(parser[name]) for name in parser.sections()}
    meter1 = _meter_from_section(sections.get("meter1", {}), "meter1")
    meter2 = _meter_from_section(sections.get("meter2", {}), "meter2")
    b_section = sections.get("b", {})
    try:
        b_spec = ProjectiveMeterSpec(v=_parse_float(b_section.get("v", "1.0"), "b.v"))
    except ValueError as exc:
        raise ConfigError(f"b.v: {exc}") from exc
    angles_section = sections.get("angles", {})
    angles = tuple(
        _parse_float(angles_section.get(key, str(default)), f"angles.{key}")
        for key, default in zip(("a1", "a2", "b1", "b2"), DEFAULT_ANGLES)
    )
    run_section = sections.get("run", {})
    shots = _positive_int(run_section.get("shots", "1000000"), "run.shots")
    seed = _positive_int(run_section.get("seed", str(DEFAULT_SEED)), "run.seed")
    try:
        return ExperimentConfig(
            meter1=meter1, meter2=meter2, b_spec=b_spec, angles=angles, shots=shots, seed=seed
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
    return check_seed(seed, where)


def check_seed(seed: Any, where: str) -> int:
    """Return ``seed`` if it is a 64-bit unsigned integer; ``where`` names its source."""
    if not (isinstance(seed, int) and 0 <= seed < 2**64):
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
    n = _positive_int(section["hidden_states"], "strategy.hidden_states")

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


def _meter_to_dict(spec: MeterSpec) -> dict[str, Any]:
    if isinstance(spec, GaussianMeterSpec):
        return {"type": "gaussian", "sigma": spec.sigma, "eta": spec.eta}
    return {"type": "ancilla", "v_total": spec.v_total, "u": spec.u}


def _meter_from_dict(data: dict[str, Any], where: str) -> MeterSpec:
    kind = data.get("type")
    try:
        if kind == "gaussian":
            return GaussianMeterSpec(sigma=float(data["sigma"]), eta=float(data["eta"]))
        if kind == "ancilla":
            return AncillaMeterSpec(v_total=float(data["v_total"]), u=float(data["u"]))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}.type: expected 'gaussian' or 'ancilla', got {kind!r}")


def config_to_dict(config: ExperimentConfig) -> dict[str, Any]:
    return {
        "meter1": _meter_to_dict(config.meter1),
        "meter2": _meter_to_dict(config.meter2),
        "b": {"v": config.b_spec.v},
        "angles": list(config.angles),
        "shots": config.shots,
        "seed": config.seed,
    }


def config_from_dict(data: dict[str, Any]) -> ExperimentConfig:
    try:
        return ExperimentConfig(
            meter1=_meter_from_dict(data["meter1"], "manifest.meter1"),
            meter2=_meter_from_dict(data["meter2"], "manifest.meter2"),
            b_spec=ProjectiveMeterSpec(v=float(data["b"]["v"])),
            angles=tuple(float(a) for a in data["angles"]),
            shots=int(data["shots"]),
            seed=int(data["seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"manifest config: {exc}") from exc


@dataclass(frozen=True)
class RunManifest:
    """A fully resolved run description; re-running it reproduces the output."""

    command: str
    config: dict[str, Any]
    seed: int
    version: str
    created_utc: str
    out: str | None = None
    extra: dict[str, Any] | None = None

    @classmethod
    def create(
        cls,
        command: str,
        config: ExperimentConfig | None,
        out: str | None,
        extra: dict[str, Any] | None = None,
    ) -> "RunManifest":
        from . import __version__

        return cls(
            command=command,
            config=config_to_dict(config) if config is not None else {},
            seed=int(config.seed) if config is not None else int((extra or {}).get("seed", DEFAULT_SEED)),
            version=__version__,
            created_utc=datetime.now(timezone.utc).isoformat(),
            out=out,
            extra=extra or {},
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
            return cls(
                command=data["command"],
                config=data["config"],
                seed=int(data["seed"]),
                version=str(data.get("version", "")),
                created_utc=str(data.get("created_utc", "")),
                out=data.get("out"),
                extra=data.get("extra") or {},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"manifest {path} is missing fields: {exc}") from exc
