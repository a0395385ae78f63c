"""Command-line front end: simulate | sweep | lhv | verify.

Exit codes: 0 success, 2 usage/config problem, 3 numerical failure,
4 hidden-variable bound violation: a mean more than 4 of its own sample
standard errors beyond 2, which chance alone gives at a handful of shots.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from contextlib import nullcontext
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import __version__, lhv
from .config import (
    ConfigError,
    RunManifest,
    _parse_vector,
    _read_ini,
    _set_each,
    _with_angles,
    config_from_sections,
    load_experiment_config,
    strategy_from_sections,
)
from .measurement import METER_KINDS, AncillaMeterSpec, GaussianMeterSpec, ProjectiveMeterSpec, field_names
from .protocol import (
    ANGLE_KEYS,
    SWEEP_AXES,
    TUNABLE_SPECS,
    ExperimentConfig,
    NumericalError,
    _chunks_in_order,
    analytic_mean,
    config_analytic_mean,
    correlator,
    exact_mean,
    exact_variance,
    monte_carlo,
    predicted_stderr,
    retune,
    substream_rng,
    sweep,
    violation_threshold,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BOUND_VIOLATION = 4

STDERR_WARNING_LEVEL = 0.05
LMR_BOUND = lhv.sign_pattern_extrema()[1]

#: what follows each of a record's four fields; every field is the
#: ``%.17g`` text of its value, which round-trips every double
_RECORD_ENDS = (",", ",", ",", "\n")
#: rows written per call: enough to amortize numpy's per-call cost, few
#: enough that writing one chunk peaks near 0.5 MiB for an ancilla chunk and
#: 0.8 MiB for a Gaussian one, whose signals all differ (tracemalloc, to a
#: handle that keeps nothing).  Timed in one process, 8192 rows wrote an
#: ancilla chunk twice as slowly, and 2048 rows gained nothing
_RECORD_BLOCK = 4096


def _two_patterns(values: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The texts of a column's low and high bit patterns and, per value, a ``uint8`` 1 where it holds the high one.

    Found from the min and max without a sort; a column of one pattern
    holds it as both, and a column of three or more gives None.
    """
    bits = values.view(np.int64)
    low, high = bits.min(), bits.max()
    is_high = bits == high
    if not np.all(is_high | (bits == low)):
        return None
    texts = ["%.17g" % value for value in np.array([low, high]).view(np.float64).tolist()]
    return np.array(texts, dtype=object), is_high.view(np.uint8)


def _write_records(handle, records: tuple[np.ndarray, ...]) -> None:
    """Write one chunk's records, each column classified once for the whole chunk.

    The readout signs are always ±1 and an ancilla signal is ±1/v_total, so
    most columns hold at most two doubles.  They are told apart by bit
    pattern, so 0.0 and -0.0 keep their own text, and each pattern's text
    is formatted once.  Any other column's values are formatted one by one.
    When all four columns hold at most two patterns, as in every ancilla
    run, each of the at most 16 distinct rows is formatted once and a block
    is one join over the rows' ``uint8`` codes; otherwise a block is one
    ``%`` call.
    """
    columns = [_two_patterns(values) for values in records]
    row = "".join(("%.17g" if column is None else "%s") + end for column, end in zip(columns, _RECORD_ENDS))
    n = len(records[0])
    if None not in columns:
        table = np.array([row % texts for texts in itertools.product(*(text for text, _ in columns))], dtype=object)
        code = np.zeros(n, dtype=np.uint8)
        for _, is_high in columns:
            code <<= 1
            code |= is_high
        for start in range(0, n, _RECORD_BLOCK):
            handle.write("".join(table[code[start:start + _RECORD_BLOCK]].tolist()))
        return
    for start in range(0, n, _RECORD_BLOCK):
        stop = start + _RECORD_BLOCK
        fields = np.empty((len(records[0][start:stop]), len(records)), dtype=object)
        for index, (values, column) in enumerate(zip(records, columns)):
            # a two-pattern column's texts picked by its codes, or the values themselves
            fields[:, index] = values[start:stop] if column is None else column[0][column[1][start:stop]]
        handle.write((row * len(fields)) % tuple(fields.ravel().tolist()))


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def _write_lines(out: str | None, lines: Iterable[str]) -> None:
    """Write ``lines`` to ``out`` (stdout when None) as they come; ``out`` is opened once the first is ready."""
    lines = iter(lines)
    first = next(lines)
    with nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8", newline="") as handle:
        handle.write(first)
        handle.writelines(lines)


def _add_common_flags(parser: argparse.ArgumentParser, seed_default: str = f"the config's run.seed, else {ExperimentConfig.seed}") -> None:
    parser.add_argument("--seed", type=int, default=None, help=f"64-bit RNG seed (default: {seed_default})")
    parser.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    parser.add_argument("--manifest", default=None, help="manifest path: re-run if it exists, else written after the run")


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="experiment config file (INI)")
    parser.add_argument("--threads", type=int, default=None, help="worker cap (default: every usable CPU); never changes results")
    parser.add_argument("--meter", choices=tuple(METER_KINDS), default=None, help="meter type for both arms")
    for axis in SWEEP_AXES:
        owner, field = next((cls, field) for cls in TUNABLE_SPECS for field in fields(cls) if field.name == axis)
        parser.add_argument(_flag(axis), type=float, default=None, help=f"{owner.label.lower()} {field.metadata['help']}")
    parser.add_argument("--shots", type=int, default=None, help="number of shots")
    for key in ANGLE_KEYS:
        role = ("first " if key[1] == "1" else "second ") + ("weak" if key[0] == "a" else "readout")
        parser.add_argument(f"--phi-{key}", type=float, default=None, help=f"{role} analyzer angle (radians)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blgi", description=__doc__)
    parser.add_argument("--version", action="version", version=f"blgi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one configuration and write a one-row summary")
    _add_common_flags(p_sim)
    _add_experiment_flags(p_sim)
    p_sim.add_argument("--records", default=None, help="also write every per-shot record to this CSV")

    p_sweep = sub.add_parser("sweep", help="scan one parameter and write a CSV of means")
    _add_common_flags(p_sweep)
    _add_experiment_flags(p_sweep)
    p_sweep.add_argument("--axis", choices=SWEEP_AXES, default=None)
    p_sweep.add_argument("--values", default=None, help="comma-separated parameter values")

    p_lhv = sub.add_parser("lhv", help="check hidden-variable strategies against the classical bound")
    _add_common_flags(p_lhv, seed_default=str(ExperimentConfig.seed))
    p_lhv.add_argument("--strategy", default=None, help="strategy file (INI)")
    p_lhv.add_argument("--random", type=int, default=None, metavar="N", help="check N random calibrated strategies")
    p_lhv.add_argument("--shots", type=int, default=None, help=f"shots per strategy (default {_LHV_SHOTS})")
    for field in fields(lhv.RandomStrategySpec):
        most = f", at most {lhv.MAX_HIDDEN_STATES}" if field.name == "hidden_states" else ""
        p_lhv.add_argument(
            _flag(field.name), type=type(field.default), default=None,
            help=f"{field.metadata['help']} (default {field.default}{most})",
        )

    sub.add_parser("verify", help="run the oracle cross-check suite")
    return parser


# ---------------------------------------------------------------------------
# Manifests: a manifest stores a run's resolved config and its command line.
# ---------------------------------------------------------------------------

#: the flags a manifest stores for each command; its config holds the rest
_MANIFEST_FLAGS = {
    "simulate": ("records", "out"),
    "sweep": ("axis", "values", "out"),
    "lhv": ("strategy", "random", "shots", *field_names(lhv.RandomStrategySpec), "seed", "out"),
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _given(args: argparse.Namespace, names: Iterable[str], dest: str = "{}") -> dict:
    """The values ``args`` holds at ``dest.format(name)`` for each of ``names``, by name, where set; an unset flag is None."""
    values = {name: getattr(args, dest.format(name)) for name in names}
    return {name: value for name, value in values.items() if value is not None}


def _flags_given(args: argparse.Namespace, allowed: tuple[str, ...]) -> list[str]:
    """The flags set in ``args`` apart from ``allowed``; every unset flag is None."""
    return [
        _flag(name) for name, value in vars(args).items()
        if value is not None and name not in ("command", *allowed)
    ]


def _parse_args(parser: argparse.ArgumentParser, argv: list[str] | None) -> argparse.Namespace:
    """Parse ``argv``; an existing ``--manifest`` replaces it with the stored command line.

    The stored flags go through the same parser, so they get exactly the
    checks typed flags get.  ``args.stored_config`` is the manifest's
    config sections on a re-run, else None.
    """
    args = parser.parse_args(argv)
    path = getattr(args, "manifest", None)
    _require_distinct_outputs(args, path)
    if path is None or not Path(path).exists():
        args.stored_config = None
        return args
    overridable = tuple(name for name in ("out", "threads") if hasattr(args, name))
    given = _flags_given(args, (*overridable, "manifest"))
    if given:
        raise ConfigError(
            f"re-running from an existing manifest: drop {', '.join(given)} "
            f"(only {' and '.join(map(_flag, overridable))} may be overridden)"
        )
    manifest = RunManifest.load(path)
    if manifest.command != args.command:
        raise ConfigError(f"manifest was written by {manifest.command!r}, but this is {args.command!r}")
    if manifest.numpy != np.__version__:
        print(
            f"warning: manifest {path} was written under numpy {manifest.numpy}, this is numpy "
            f"{np.__version__}: its seeded outputs may differ",
            file=sys.stderr,
        )
    out = [] if args.out is None else ["--out", args.out]
    rerun = parser.parse_args([args.command, *manifest.argv, *out])
    if "threads" in overridable:
        rerun.threads = args.threads
    stored = _flags_given(rerun, ("threads", *_MANIFEST_FLAGS[args.command]))
    if stored:
        raise ConfigError(f"manifest {path}: a {args.command} manifest does not store {', '.join(stored)}")
    rerun.stored_config = manifest.config
    _require_distinct_outputs(rerun, path)
    return rerun


def _require_distinct_outputs(args: argparse.Namespace, manifest: str | None) -> None:
    """Reject two file flags that name one file, before anything is read or written.

    An output would replace the input or the earlier output it names.  A
    command reads at most one of ``--config`` and ``--strategy``, so two
    flags that share a file always include an output.
    """
    named: dict[Path, str] = {}
    flags = {name: getattr(args, name, None) for name in ("config", "strategy", "out", "records")}
    for name, path in {**flags, "manifest": manifest}.items():
        if path is None:
            continue
        key = Path(path).resolve()
        if key in named:
            raise ConfigError(f"{_flag(named[key])} and {_flag(name)} both name {path}; give each its own file")
        named[key] = name


def _write_manifest(args: argparse.Namespace, config: ExperimentConfig | dict) -> None:
    """Write ``--manifest`` after a fresh run; a re-run's args hold no ``--manifest``."""
    if args.manifest is None:
        return
    # one ``--flag=value`` token each, so a value that starts with "-" parses
    argv = [
        f"{_flag(name)}={getattr(args, name)}"
        for name in _MANIFEST_FLAGS[args.command]
        if getattr(args, name) is not None
    ]
    RunManifest.create(args.command, argv, config).write(args.manifest)


# ---------------------------------------------------------------------------
# Config resolution.
# ---------------------------------------------------------------------------

def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.stored_config is not None:
        return config_from_sections(args.stored_config)
    config = ExperimentConfig() if args.config is None else load_experiment_config(args.config)
    if args.meter is not None:
        spec = METER_KINDS[args.meter]()
        config = replace(config, meter1=spec, meter2=spec)

    def source(key: str) -> str:
        # a sweep sets its axis from --values alone: cmd_sweep rejects the axis's own flag
        return "--values" if key == getattr(args, "axis", None) else _flag(key)

    # a range error names the flag that set the value
    config = _set_each(config, _given(args, SWEEP_AXES), source, retune)
    config = _set_each(config, _given(args, ANGLE_KEYS, "phi_{}"), "--phi-{}".format, _with_angles)
    return _set_each(config, _given(args, ("shots", "seed")), _flag)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _warn_shot_budget(config: ExperimentConfig) -> None:
    predicted = predicted_stderr(config)
    if predicted > STDERR_WARNING_LEVEL:
        print(
            f"warning: predicted stderr {predicted:.3g} exceeds {STDERR_WARNING_LEVEL} "
            f"for {config.shots} shots; consider more shots",
            file=sys.stderr,
        )


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    _warn_shot_budget(config)
    if args.records is None:
        estimate = monte_carlo(config, threads=args.threads)
    else:
        with open(args.records, "w", encoding="utf-8", newline="") as handle:
            handle.write("alpha1,alpha2,b1,b2\n")
            estimate = monte_carlo(
                config, threads=args.threads, on_records=lambda records: _write_records(handle, records)
            )

    exact = exact_mean(config)
    analytic = config_analytic_mean(config)
    violation = estimate.mean - 4.0 * estimate.stderr > LMR_BOUND
    lines = [
        "mean,stderr,exact,analytic,violation\n",
        f"{_fmt(estimate.mean)},{_fmt(estimate.stderr)},{_fmt(exact)},{_fmt(analytic)},{_fmt_bool(violation)}\n",
    ]
    _write_lines(args.out, lines)
    _write_manifest(args, config)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.axis is None:
        raise ConfigError("sweep needs --axis")
    if args.values is None:
        raise ConfigError("sweep needs --values")
    if getattr(args, args.axis) is not None:
        raise ConfigError(f"--axis {args.axis} sweeps {_flag(args.axis)}; drop {_flag(args.axis)}")
    values = _parse_vector(args.values, "--values")
    # every point sets the axis, and the base config is the first: --u 0.8 never meets v_total = 1
    setattr(args, args.axis, values[0])
    config = _resolve_config(args)
    try:
        points = sweep(config, args.axis, values, threads=args.threads)
    except ValueError as exc:
        raise ConfigError(f"--values: {exc}") from exc

    lines = [f"# lmr_bound = {_fmt(LMR_BOUND)}\n", "value,mc_mean,mc_stderr,exact,analytic\n"]
    for point in points:
        lines.append(
            f"{_fmt(point.value)},{_fmt(point.estimate.mean)},{_fmt(point.estimate.stderr)},"
            f"{_fmt(point.exact)},{_fmt(point.analytic)}\n"
        )
    _write_lines(args.out, lines)
    _write_manifest(args, config)
    return EXIT_OK


_LHV_SHOTS = 100_000


def cmd_lhv(args: argparse.Namespace) -> int:
    shaping = _given(args, field_names(lhv.RandomStrategySpec))
    if args.random is None and shaping:
        raise ConfigError(f"{_flag(next(iter(shaping)))} only shapes --random strategies; drop it")
    # lhv takes no config, but its shots and seed have the experiment's defaults and ranges
    config = _set_each(ExperimentConfig(shots=_LHV_SHOTS), _given(args, ("shots", "seed")), _flag)
    if args.random is not None and args.random < 1:
        raise ConfigError(f"--random: expected a positive count, got {args.random}")
    spec = _set_each(lhv.RandomStrategySpec(), shaping, _flag)
    # the manifest stores every value the run used
    args.shots, args.seed = config.shots, config.seed
    if args.random is not None:
        vars(args).update(asdict(spec))

    # a re-run builds the strategy from the section its manifest stores and never reads the file
    if args.stored_config is not None:
        sections, where = args.stored_config, "manifest config"
    else:
        sections, where = ({} if args.strategy is None else _read_ini(args.strategy)), args.strategy
    if args.strategy is None and sections:
        raise ConfigError(f"{where}: an lhv manifest without --strategy stores no config")
    loaded = [] if args.strategy is None else [strategy_from_sections(sections, where)]
    total = len(loaded) + (args.random or 0)
    if not total:
        raise ConfigError("lhv needs --strategy or --random")
    names = itertools.chain([args.strategy] * len(loaded), (f"random-{index}" for index in range(args.random or 0)))

    # each strategy draws from its own substream, so the worker count never changes
    # a byte; the pool reads tasks lazily, so each random strategy is built only
    # when its task is queued, and dropped once its run is done
    randoms = (lhv.random_strategy(spec, substream_rng(config.seed, index)) for index in range(args.random or 0))
    tasks = (
        partial(lhv.lhv_mean, strategy, config.shots, substream_rng(config.seed, (1 << 32) + index))
        for index, strategy in enumerate(itertools.chain(loaded, randoms))
    )
    estimates = _chunks_in_order(tasks, total)
    any_violation = False

    def lines() -> Iterator[str]:
        # calibration_ok is true on every row: each strategy checked its rules when
        # built, and its detector noise has mean zero given the hidden state by construction
        nonlocal any_violation
        header = "strategy,mean,stderr,bound_ok,calibration_ok\n"
        for name, estimate in zip(names, estimates):
            bound_ok = abs(estimate.mean) <= LMR_BOUND + 4.0 * estimate.stderr
            any_violation = any_violation or not bound_ok
            yield f"{header}{name},{_fmt(estimate.mean)},{_fmt(estimate.stderr)},{_fmt_bool(bound_ok)},true\n"
            header = ""
        yield f"# lmr_bound = {_fmt(LMR_BOUND)}\n"

    _write_lines(args.out, lines())
    _write_manifest(args, sections)
    return EXIT_BOUND_VIOLATION if any_violation else EXIT_OK


def _random_meter(rng: np.random.Generator) -> GaussianMeterSpec | AncillaMeterSpec:
    if rng.random() < 0.5:
        return GaussianMeterSpec(sigma=float(rng.uniform(0.2, 5.0)), eta=float(rng.uniform(0.05, 1.0)))
    u = float(rng.uniform(0.05, 1.0))
    return AncillaMeterSpec(v_total=u * float(rng.uniform(0.01, 1.0)), u=u)


def _random_configs(count: int, seed: int) -> list[ExperimentConfig]:
    """Independently drawn meters on the two arms, angles in [-7, 7], ``v`` in [0, 1]."""
    rng = substream_rng(seed, 0)
    return [
        ExperimentConfig(
            meter1=_random_meter(rng),
            meter2=_random_meter(rng),
            b_spec=ProjectiveMeterSpec(v=float(rng.uniform(0.0, 1.0))),
            angles=tuple(rng.uniform(-7.0, 7.0, size=4)),
        )
        for _ in range(count)
    ]


def _verify_checks() -> list[tuple[str, float, float]]:
    """Cross-check the routes to ``<C>`` against each other; returns (name, deviation, tolerance) rows.

    ``blgi verify`` prints these rows and the acceptance suite asserts them.
    """
    checks: list[tuple[str, float, float]] = []

    threshold = violation_threshold()
    checks.append(("threshold identity", abs(analytic_mean(threshold, threshold, 1.0) - 2.0), 1e-12))

    # a Gaussian and an ancilla grid, each meter on both arms at readout visibilities 0.8 and 1;
    # the meter invariant v_total <= u rules out v_total = 0.9 at u = 0.8
    grid = [GaussianMeterSpec(sigma=sigma, eta=eta) for sigma in (0.5, 1.0, 2.0, 5.0) for eta in (0.5, 1.0)]
    grid += [
        AncillaMeterSpec(v_total=v_total, u=u) for v_total in (0.3, 0.6, 0.9) for u in (0.8, 1.0) if v_total <= u
    ]
    configs = _random_configs(200, seed=2013) + [
        ExperimentConfig(meter1=spec, meter2=spec, b_spec=ProjectiveMeterSpec(v=v)) for spec in grid for v in (0.8, 1.0)
    ]
    gap = max(abs(exact_mean(config) - config_analytic_mean(config)) for config in configs)
    checks.append(("closed form vs instrument moments", gap, 1e-9))

    threshold_sigma = 1.0 / np.sqrt(-2.0 * np.log(threshold))
    spec = GaussianMeterSpec(sigma=float(threshold_sigma))
    config = ExperimentConfig(meter1=spec, meter2=spec)
    checks.append(("bound crossing at the threshold width", abs(exact_mean(config) - 2.0), 1e-6))

    config = ExperimentConfig(
        meter1=GaussianMeterSpec(sigma=2.0, eta=0.8),
        meter2=AncillaMeterSpec(v_total=0.6, u=0.9),
        b_spec=ProjectiveMeterSpec(v=0.9),
        angles=(1.3, 0.4, -0.2, 2.6),
        shots=100_000,
        seed=2013,
    )
    chunks = []
    estimate = monte_carlo(config, on_records=chunks.append)
    pull = abs(estimate.mean - exact_mean(config)) / predicted_stderr(config)
    checks.append(("monte carlo vs exact mean, in standard errors", pull, 5.0))
    # the sample variance s^2 against its own standard error, sqrt((mu4 - s^4)/n), from the same run
    deviations = correlator(*map(np.concatenate, zip(*chunks)))
    deviations -= deviations.mean()
    sampled = np.mean(deviations**2)
    pull = abs(sampled - exact_variance(config)) / np.sqrt((np.mean(deviations**4) - sampled**2) / deviations.size)
    checks.append(("exact variance vs sample variance, in standard errors", pull, 5.0))

    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    checks = _verify_checks()
    all_ok = True
    width = max(len(name) for name, _, _ in checks)
    for name, deviation, tolerance in checks:
        ok = deviation < tolerance
        all_ok = all_ok and ok
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:<{width}}  deviation={deviation:.3e}  tolerance={tolerance:.0e}")
    return EXIT_OK if all_ok else EXIT_NUMERICAL


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    handlers = {"simulate": cmd_simulate, "sweep": cmd_sweep, "lhv": cmd_lhv, "verify": cmd_verify}
    try:
        args = _parse_args(parser, argv)
        if getattr(args, "threads", None) is not None and args.threads < 1:
            raise ConfigError(f"--threads: expected a positive count, got {args.threads}")
        return handlers[args.command](args)
    except (ConfigError, OSError, MemoryError) as exc:
        # OSError: an output path that cannot be written; MemoryError: a run
        # too large to hold in memory, which a bare MemoryError does not say
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
