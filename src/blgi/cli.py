"""Command-line front end: simulate | sweep | lhv | verify.

Exit codes: 0 success, 2 usage/config problem, 3 numerical failure,
4 hidden-variable bound violation (would indicate an implementation bug).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, lhv
from .config import (
    ConfigError,
    RunManifest,
    config_from_sections,
    load_experiment_config,
    load_strategy,
    resolve_seed,
)
from .measurement import METER_KINDS, AncillaMeterSpec, GaussianMeterSpec, ProjectiveMeterSpec
from .protocol import (
    SWEEP_AXES,
    ExperimentConfig,
    NumericalError,
    _chunks_in_order,
    _usable_cpus,
    analytic_mean,
    config_analytic_mean,
    exact_mean,
    monte_carlo,
    predicted_stderr,
    require_two_shots,
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
LMR_BOUND = 2.0

#: what follows each of a record's four fields; every field is the
#: ``%.17g`` text of its value, which round-trips every double
_RECORD_ENDS = (",", ",", ",", "\n")
#: rows formatted per write: enough to amortize the call, few enough that
#: the text and its objects stay near 100 kB (peak memory)
_RECORD_BLOCK = 2048


def _write_records(handle, records: tuple[np.ndarray, ...]) -> None:
    """Write one chunk's records, formatting each distinct value of a block's column once.

    The readout signs are always ±1 and an ancilla signal is ±1/v_total, so
    most columns hold a few distinct doubles.  They are told apart by bit
    pattern, so 0.0 and -0.0 keep their own text.
    """
    for start in range(0, len(records[0]), _RECORD_BLOCK):
        block = [values[start:start + _RECORD_BLOCK] for values in records]
        fields = np.empty((len(block[0]), len(block)), dtype=object)
        for column, (values, end) in enumerate(zip(block, _RECORD_ENDS)):
            bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
            # one % call formats the distinct values; "\0" never occurs in their text
            text = ((f"%.17g{end}\0" * len(bits)) % tuple(bits.view(np.float64).tolist())).split("\0")
            fields[:, column] = np.array(text, dtype=object)[inverse]
        handle.write("".join(fields.ravel().tolist()))


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
    parser.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    parser.add_argument("--manifest", default=None, help="manifest path: re-run if it exists, else written after the run")


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="experiment config file (INI)")
    parser.add_argument("--threads", type=int, default=None, help="worker cap (default: every usable CPU); never changes results")
    parser.add_argument("--meter", choices=tuple(METER_KINDS), default=None, help="meter type for both arms")
    parser.add_argument("--sigma", type=float, default=None, help="gaussian signal std per eigenstate")
    parser.add_argument("--eta", type=float, default=None, help="gaussian meter quantum efficiency")
    parser.add_argument("--v-total", type=float, default=None, help="ancilla total visibility")
    parser.add_argument("--u", type=float, default=None, help="ancilla readout visibility")
    parser.add_argument("--v", type=float, default=None, help="projective readout visibility")
    parser.add_argument("--shots", type=int, default=None, help="number of shots")
    parser.add_argument("--phi-a1", type=float, default=None, help="first weak analyzer angle (radians)")
    parser.add_argument("--phi-a2", type=float, default=None, help="second weak analyzer angle (radians)")
    parser.add_argument("--phi-b1", type=float, default=None, help="first readout analyzer angle (radians)")
    parser.add_argument("--phi-b2", type=float, default=None, help="second readout analyzer angle (radians)")


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
    _add_common_flags(p_lhv)
    p_lhv.add_argument("--strategy", default=None, help="strategy file (INI)")
    p_lhv.add_argument("--random", type=int, default=None, metavar="N", help="check N random calibrated strategies")
    p_lhv.add_argument("--brute-force", action="store_true", default=None, help="print the enumerated exact maximum and exit")
    p_lhv.add_argument("--shots", type=int, default=None, help="shots per strategy (default 100000)")
    p_lhv.add_argument("--hidden-states", type=int, default=None, help="default 2")
    p_lhv.add_argument("--noise-sigma", type=float, default=None, help="default 1.0")
    p_lhv.add_argument("--invasiveness", type=float, default=None, help="max readout-mean shift from the first measurement (default 0)")

    sub.add_parser("verify", help="run the oracle cross-check suite")
    return parser


# ---------------------------------------------------------------------------
# Manifests: a manifest stores a run's resolved config and its command line.
# ---------------------------------------------------------------------------

#: the flags a manifest stores for each command; its config holds the rest
_MANIFEST_FLAGS = {
    "simulate": ("records", "out"),
    "sweep": ("axis", "values", "out"),
    "lhv": ("strategy", "random", "shots", "hidden_states", "noise_sigma", "invasiveness", "seed", "out"),
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


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
    out = [] if args.out is None else ["--out", args.out]
    rerun = parser.parse_args([args.command, *manifest.argv, *out])
    if "threads" in overridable:
        rerun.threads = args.threads
    stored = _flags_given(rerun, ("threads", *_MANIFEST_FLAGS[args.command]))
    if stored:
        raise ConfigError(f"manifest {path}: a {args.command} manifest does not store {', '.join(stored)}")
    rerun.stored_config = manifest.config
    return rerun


def _write_manifest(args: argparse.Namespace, config: ExperimentConfig | None) -> None:
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
    try:
        if args.meter is not None:
            spec = METER_KINDS[args.meter]()
            config = replace(config, meter1=spec, meter2=spec)
        values = {name: getattr(args, name) for name in SWEEP_AXES if getattr(args, name) is not None}
        config = retune(config, **values)
        if args.shots is not None:
            config = replace(config, shots=args.shots)
        flags = (args.phi_a1, args.phi_a2, args.phi_b1, args.phi_b2)
        angles = tuple(angle if flag is None else flag for angle, flag in zip(config.angles, flags))
        seed = resolve_seed(args.seed, file_seed=config.seed if args.config is not None else None)
        config = replace(config, angles=angles, seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def _require_two_shots(shots: int) -> None:
    try:
        require_two_shots(shots)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
    _require_two_shots(config.shots)
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
    _write_text(args.out, "".join(lines))
    _write_manifest(args, config)
    return EXIT_OK


def _parse_values(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--values: expected comma-separated numbers, got {text!r}") from exc
    if not values:
        raise ConfigError("--values: empty list")
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.axis is None:
        raise ConfigError("sweep needs --axis")
    if args.values is None:
        raise ConfigError("sweep needs --values")
    values = _parse_values(args.values)
    config = _resolve_config(args)
    _require_two_shots(config.shots)
    try:
        points = sweep(config, args.axis, values, threads=args.threads)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    lines = [f"# lmr_bound = {_fmt(LMR_BOUND)}\n", "value,mc_mean,mc_stderr,exact,analytic\n"]
    for point in points:
        lines.append(
            f"{_fmt(point.value)},{_fmt(point.estimate.mean)},{_fmt(point.estimate.stderr)},"
            f"{_fmt(point.exact)},{_fmt(point.analytic)}\n"
        )
    _write_text(args.out, "".join(lines))
    _write_manifest(args, config)
    return EXIT_OK


_LHV_DEFAULTS = {
    "shots": 100_000,
    "hidden_states": 2,
    "noise_sigma": 1.0,
    "invasiveness": 0.0,
}


# shots alive at once across lhv's workers: about 48 bytes each, so some
# 200 MiB.  A strategy with more shots than this runs alone, as it would
# without the pool
_LHV_LIVE_SHOTS = 1 << 22


def cmd_lhv(args: argparse.Namespace) -> int:
    # --brute-force reads no other flag, so none may be given with it
    given = _flags_given(args, ("brute_force", "hidden_states", "out"))
    for name, default in _LHV_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.brute_force:
        if given:
            raise ConfigError(f"--brute-force takes only --hidden-states and --out; drop {', '.join(given)}")
        try:
            maximum = lhv.brute_force_max(args.hidden_states)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        _write_text(args.out, _fmt(maximum) + "\n")
        return EXIT_OK
    # the manifest stores the resolved seed, so BLGI_SEED cannot change a re-run
    args.seed = seed = resolve_seed(args.seed)
    _require_two_shots(args.shots)

    strategies: list[tuple[str, lhv.LHVStrategy]] = []
    if args.strategy is not None:
        strategies.append((args.strategy, load_strategy(args.strategy)))
    if args.random is not None:
        if args.random < 1:
            raise ConfigError(f"--random: expected a positive count, got {args.random}")
        for index in range(args.random):
            rng = substream_rng(seed, index)
            try:
                strategy = lhv.random_strategy(
                    args.hidden_states,
                    rng,
                    noise_sigma=args.noise_sigma,
                    max_invasiveness=args.invasiveness,
                )
            except ValueError as exc:
                raise ConfigError(f"--random: {exc}") from exc
            strategies.append((f"random-{index}", strategy))
    if not strategies:
        raise ConfigError("lhv needs --strategy, --random or --brute-force")

    # each strategy draws from its own substream, so the worker count never changes a byte
    tasks = (
        partial(lhv.lhv_mean, strategy, args.shots, substream_rng(seed, (1 << 32) + index))
        for index, (_, strategy) in enumerate(strategies)
    )
    workers = min(len(strategies), _usable_cpus(), max(1, _LHV_LIVE_SHOTS // args.shots))
    estimates = list(_chunks_in_order(tasks, workers))

    # calibration_ok is true on every row: each strategy checked its rules when
    # built, and its detector noise has mean zero given the hidden state by construction
    lines = ["strategy,mean,stderr,bound_ok,calibration_ok\n"]
    any_violation = False
    for (name, _), estimate in zip(strategies, estimates):
        bound_ok = abs(estimate.mean) <= LMR_BOUND + 4.0 * estimate.stderr
        any_violation = any_violation or not bound_ok
        lines.append(f"{name},{_fmt(estimate.mean)},{_fmt(estimate.stderr)},{_fmt_bool(bound_ok)},true\n")
    for count in sorted({strategy.num_hidden_states for _, strategy in strategies}):
        lines.append(f"# brute_force_max({count} hidden states) = {_fmt(lhv.brute_force_max(count))}\n")
    _write_text(args.out, "".join(lines))
    _write_manifest(args, None)
    return EXIT_BOUND_VIOLATION if any_violation else EXIT_OK


def _closed_form_gap(configs) -> float:
    """Largest ``|exact_mean - config_analytic_mean|`` over ``configs``."""
    return max(abs(exact_mean(config) - config_analytic_mean(config)) for config in configs)


def _symmetric_configs(specs) -> list[ExperimentConfig]:
    """Both arms on each of ``specs``, at readout visibilities 0.8 and 1."""
    return [
        ExperimentConfig(meter1=spec, meter2=spec, b_spec=ProjectiveMeterSpec(v=v), shots=1)
        for spec in specs
        for v in (0.8, 1.0)
    ]


def _random_meter(rng: np.random.Generator) -> GaussianMeterSpec | AncillaMeterSpec:
    if rng.random() < 0.5:
        return GaussianMeterSpec(sigma=float(rng.uniform(0.2, 5.0)), eta=float(rng.uniform(0.05, 1.0)))
    u = float(rng.uniform(0.05, 1.0))
    return AncillaMeterSpec(v_total=u * float(rng.uniform(0.01, 1.0)), u=u)


def _random_configs(count: int, seed: int) -> list[ExperimentConfig]:
    """Independently drawn meters on the two arms, angles in [-7, 7], ``v`` in [0, 1]."""
    rng = np.random.default_rng(seed)
    return [
        ExperimentConfig(
            meter1=_random_meter(rng),
            meter2=_random_meter(rng),
            b_spec=ProjectiveMeterSpec(v=float(rng.uniform(0.0, 1.0))),
            angles=tuple(rng.uniform(-7.0, 7.0, size=4)),
            shots=1,
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

    gaussian = [GaussianMeterSpec(sigma=sigma, eta=eta) for sigma in (0.5, 1.0, 2.0, 5.0) for eta in (0.5, 1.0)]
    checks.append(
        ("closed form vs instrument moments, gaussian grid", _closed_form_gap(_symmetric_configs(gaussian)), 1e-6)
    )
    # the meter invariant v_total <= u rules out v_total = 0.9 at u = 0.8
    ancilla = [
        AncillaMeterSpec(v_total=v_total, u=u)
        for v_total in (0.3, 0.6, 0.9)
        for u in (0.8, 1.0)
        if v_total <= u
    ]
    checks.append(
        ("closed form vs instrument moments, ancilla grid", _closed_form_gap(_symmetric_configs(ancilla)), 1e-6)
    )
    checks.append((
        "closed form vs instrument moments, random angles and mixed meters",
        _closed_form_gap(_random_configs(200, seed=2013)),
        1e-9,
    ))

    threshold_sigma = 1.0 / np.sqrt(-2.0 * np.log(threshold))
    spec = GaussianMeterSpec(sigma=float(threshold_sigma))
    config = ExperimentConfig(meter1=spec, meter2=spec, shots=1)
    checks.append(("bound crossing at the threshold width", abs(exact_mean(config) - 2.0), 1e-6))

    config = ExperimentConfig(
        meter1=GaussianMeterSpec(sigma=2.0, eta=0.8),
        meter2=AncillaMeterSpec(v_total=0.6, u=0.9),
        b_spec=ProjectiveMeterSpec(v=0.9),
        angles=(1.3, 0.4, -0.2, 2.6),
        shots=100_000,
        seed=2013,
    )
    estimate = monte_carlo(config)
    checks.append(
        ("monte carlo vs exact mean, in standard errors", abs(estimate.mean - exact_mean(config)) / estimate.stderr, 5.0)
    )

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
    handlers = {
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
        "lhv": cmd_lhv,
        "verify": cmd_verify,
    }
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
