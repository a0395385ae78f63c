"""Run configuration files, strategy files, and reproducibility manifests.

Config files are flat ``key = value`` INI text with sections ``meter1``,
``meter2``, ``b``, ``angles`` and ``run``; strategy files use a single
``strategy`` section with comma-separated per-hidden-state vectors.  A
:class:`RunManifest` holds a run's command line and its resolved config or
strategy in the same section layout, so re-running from a manifest
reproduces the output byte for byte under the numpy version it names.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import MISSING, asdict, dataclass, fields, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .lhv import LHVStrategy
from .measurement import METER_KINDS, MeterSpec, ProjectiveMeterSpec, check_meter_field, field_names
from .protocol import ANGLE_KEYS, ExperimentConfig

#: the config-file sections; the meter, ``b`` and ``run`` keys are dataclass fields
_SECTIONS = ("meter1", "meter2", "b", "angles", "run")


class ConfigError(Exception):
    """A config or strategy file problem; the message names the culprit."""


def _parse_int(value: Any, where: str) -> int:
    """An integer from INI text or a JSON number; a fractional number or a boolean is an error."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: expected an integer, got {value!r}") from exc
    # int(True) is 1, but a JSON boolean is no integer
    if isinstance(value, bool) or (not isinstance(value, str) and number != value):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return number


def _parse_float(value: Any, where: str) -> float:
    """A float from INI text or a JSON number; a boolean is an error, though ``float(True)`` is 1.0."""
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: expected a number, got {value!r}") from exc
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return number


def _parse_vector(text: Any, where: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except (AttributeError, ValueError) as exc:
        raise ConfigError(f"{where}: expected comma-separated numbers, got {text!r}") from exc


def _read_ini(path: str | Path) -> dict[str, dict[str, str]]:
    """The sections of INI file ``path``; a ``[DEFAULT]`` section with keys is an error."""
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if parser.defaults():
        raise ConfigError("[DEFAULT]: unknown section; its keys would apply to every section")
    return {name: dict(parser[name]) for name in parser.sections()}


def _keywords(section: dict[str, Any], keys: tuple[str, ...], where: str, parse) -> dict[str, Any]:
    """``section``'s values parsed by ``parse``; a key outside ``keys`` is an error."""
    for key in section:
        if key not in keys:
            raise ConfigError(f"{where}.{key}: unknown key; expected one of {', '.join(keys)}")
    return {key: parse(value, f"{where}.{key}") for key, value in section.items()}


def _build(cls: type, values: dict[str, Any], where: str):
    """``cls(**values)``; a failed invariant is a config error naming ``where``."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _set_each(target, values: dict[str, Any], where: Callable[[str], str], setter: Callable = replace):
    """``target`` with each of ``values`` set by ``setter`` in turn; a failed invariant names ``where(key)``.

    One key at a time, so a range error names the key or flag that set the value.
    """
    for key, value in values.items():
        target = _build(partial(setter, target), {key: value}, where(key))
    return target


def _with_angles(config: ExperimentConfig, **angles: float) -> ExperimentConfig:
    """``config`` with the ``angles`` given, keyed by :data:`~blgi.protocol.ANGLE_KEYS`."""
    return replace(config, angles=tuple({**dict(zip(ANGLE_KEYS, config.angles)), **angles}.values()))


def _meter_from_section(section: dict[str, Any], where: str) -> MeterSpec:
    values = dict(section)
    kind = str(values.pop("type", "gaussian")).strip().lower()
    if kind not in METER_KINDS:
        raise ConfigError(f"{where}.type: expected one of {', '.join(METER_KINDS)}, got {kind!r}")
    for key in values:
        try:
            check_meter_field(METER_KINDS[kind], key, where, f"{where}.{key}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    values = {key: _parse_float(value, f"{where}.{key}") for key, value in values.items()}
    return _build(METER_KINDS[kind], values, where)


def config_from_sections(sections: dict[str, dict[str, Any]]) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from config-file sections.

    Values may be INI text or JSON numbers; a missing key takes its
    dataclass default, and an unknown section or key is an error.
    """
    for name in sections:
        if name not in _SECTIONS:
            raise ConfigError(f"[{name}]: unknown section; expected one of {', '.join(_SECTIONS)}")
    meter1 = _meter_from_section(sections.get("meter1", {}), "meter1")
    meter2 = _meter_from_section(sections.get("meter2", {}), "meter2")
    b_values = _keywords(sections.get("b", {}), field_names(ProjectiveMeterSpec), "b", _parse_float)
    angles = _keywords(sections.get("angles", {}), ANGLE_KEYS, "angles", _parse_float)
    run = _keywords(sections.get("run", {}), ("shots", "seed"), "run", _parse_int)
    config = ExperimentConfig(meter1=meter1, meter2=meter2, b_spec=_build(ProjectiveMeterSpec, b_values, "b"))
    config = _set_each(config, angles, "angles.{}".format, _with_angles)
    return _set_each(config, run, "run.{}".format)


def config_to_sections(config: ExperimentConfig) -> dict[str, dict[str, Any]]:
    """The inverse of :func:`config_from_sections`, exact for every field."""
    return {
        "meter1": {"type": config.meter1.label.lower(), **asdict(config.meter1)},
        "meter2": {"type": config.meter2.label.lower(), **asdict(config.meter2)},
        "b": asdict(config.b_spec),
        "angles": dict(zip(ANGLE_KEYS, config.angles)),
        "run": {"shots": config.shots, "seed": config.seed},
    }


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Read an experiment config file into an :class:`ExperimentConfig`."""
    return config_from_sections(_read_ini(path))


def strategy_from_sections(sections: dict[str, dict[str, Any]], where: str) -> LHVStrategy:
    """Build an :class:`LHVStrategy`, which checks its invariants, from strategy-file sections.

    The one section, ``strategy``, holds :class:`LHVStrategy` fields: a
    field with a float default is a number, any other a vector with one
    entry per hidden state, required when the field has no default.
    Errors of the whole strategy name ``where``.
    """
    if list(sections) != ["strategy"]:
        found = ", ".join(f"[{name}]" for name in sections) or "none"
        raise ConfigError(f"{where}: expected one section, [strategy], got {found}")
    defaults = {field.name: field.default for field in fields(LHVStrategy)}

    def parse(text: str, where: str):
        # _keywords has rejected unknown keys, so the field is known
        scalar = isinstance(defaults[where.rpartition(".")[2]], float)
        return _parse_float(text, where) if scalar else _parse_vector(text, where)

    values = _keywords(sections["strategy"], tuple(defaults), "strategy", parse)
    for key, default in defaults.items():
        if default is MISSING and key not in values:
            raise ConfigError(f"strategy.{key} is required")
    return _build(LHVStrategy, values, where)


# ---------------------------------------------------------------------------
# Manifests.
# ---------------------------------------------------------------------------


def _draw_contract(version) -> list[str] | None:
    """The major and minor parts of a blgi version string, else None."""
    return version.split(".")[:2] if isinstance(version, str) else None


@dataclass(frozen=True)
class RunManifest:
    """A run's command line and resolved config; re-running it reproduces the output.

    ``argv`` holds the command's own flags (never the config ones) and
    ``config`` the resolved config in :func:`config_to_sections` layout,
    or for ``lhv`` its strategy file's sections as read, empty without one.
    ``version`` is blgi's: versions that share their major and minor
    parts draw the same seeded outcomes, and :meth:`load` refuses any
    other.  ``numpy`` is numpy's, whose generators turn the seeded bits
    into uniforms and normals.
    """

    command: str
    argv: list[str]
    config: dict[str, dict[str, Any]]
    version: str
    numpy: str
    created_utc: str

    @classmethod
    def create(cls, command: str, argv: list[str], config: ExperimentConfig | dict[str, dict[str, Any]]) -> "RunManifest":
        return cls(
            command=command,
            argv=list(argv),
            config=config_to_sections(config) if isinstance(config, ExperimentConfig) else config,
            version=__version__,
            numpy=np.__version__,
            created_utc=datetime.now(timezone.utc).isoformat(),
        )

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse manifest {path}: {exc}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read manifest {path}: {exc}") from exc
        # before the fields: a manifest of another draw contract has other fields too
        version = data.get("version", __version__) if isinstance(data, dict) else __version__
        if _draw_contract(version) != _draw_contract(__version__):
            raise ConfigError(
                f"manifest {path} was written by blgi {version}, and blgi {__version__} "
                "draws other seeded outcomes: it cannot reproduce that run"
            )
        keys = field_names(cls)
        if not (isinstance(data, dict) and set(data) == set(keys)):
            raise ConfigError(f"manifest {path}: expected exactly the fields {', '.join(keys)}")
        manifest = cls(**data)
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
