"""The full correlator protocol: per-shot sampling, averaging, exact means, sweeps.

One shot prepares the entangled pair, weakly measures arm 1 then arm 2
(signals ``alpha1``, ``alpha2``), projectively reads out both arms
(signals ``b1``, ``b2``), and evaluates the CHSH-form combination
:func:`correlator`,

    C = alpha1*alpha2 + alpha1*b2 + b1*alpha2 - b1*b2.

Every term of every C comes from the same shot of a single fixed analyzer
configuration.  Three routes to the ensemble mean are provided:

* :func:`monte_carlo` averages C over sampled shots,
* :func:`exact_mean` contracts each weak arm's zeroth and first outcome
  moments (closed-form instrument maps on the Bell pair's density matrix)
  with the readout observables, which suffices because C is linear in each
  alpha,
* :func:`analytic_mean` evaluates the closed form in the arms' dephasing
  factors and the analyzer angles, ``(1 + v*xi1)(1 + v*xi2)/sqrt(2)`` at
  the default angles.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Iterator

import numpy as np

from . import measurement as meas
from .measurement import GaussianMeterSpec, MeterSpec, ProjectiveMeterSpec
from .qmath import embed

#: analyzer angles (phi_a1, phi_a2, phi_b1, phi_b2) of the standard
#: maximally violating CHSH configuration
DEFAULT_ANGLES = (np.pi / 2.0, np.pi / 4.0, 0.0, 3.0 * np.pi / 4.0)

#: fixed number of shots per RNG substream; part of the reproducibility
#: contract (results are bit-identical for a given (config, seed) no
#: matter how many workers execute the chunks)
CHUNK_SHOTS = 1 << 16


class NumericalError(RuntimeError):
    """Raised when a computed mean or standard error is not finite."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a run: meters, angles, shots, seed."""

    meter1: MeterSpec = GaussianMeterSpec()
    meter2: MeterSpec = GaussianMeterSpec()
    b_spec: ProjectiveMeterSpec = ProjectiveMeterSpec()
    angles: tuple[float, float, float, float] = DEFAULT_ANGLES
    shots: int = 1_000_000
    seed: int = 42

    def __post_init__(self):
        for name in ("meter1", "meter2"):
            spec = getattr(self, name)
            if not isinstance(spec, tuple(meas.METER_KINDS.values())):
                raise ValueError(f"{name} must be a meter spec, got {type(spec).__name__}")
        if len(self.angles) != 4 or not all(np.isfinite(a) for a in self.angles):
            raise ValueError(f"angles must be four finite radians, got {self.angles}")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))


@dataclass(frozen=True)
class Estimate:
    """Monte-Carlo mean with its standard error (sample std / sqrt(shots))."""

    mean: float
    stderr: float
    shots: int


def require_two_shots(n: int) -> None:
    """Raise ValueError unless ``n >= 2``, the fewest shots with a standard error."""
    if n < 2:
        raise ValueError(f"shots must be >= 2 for a standard error, got {n}")


def _moments(alpha1, alpha2, b1, b2) -> tuple[int, float, float]:
    """Count, sum and sum of squared deviations from the mean of C over one block of records."""
    values = correlator(alpha1, alpha2, b1, b2)
    total = float(values.sum())
    # the second pass of numpy's own variance, squared in place
    values -= total / values.size
    values *= values
    return values.size, total, float(values.sum())


def _sampled_moments(sample: Callable[[], tuple[np.ndarray, ...]]) -> tuple[tuple[np.ndarray, ...], tuple]:
    """The records ``sample()`` draws and their :func:`_moments`."""
    # an overflow, in the draw or in C, ends in NumericalError from estimate, not in a warning
    with np.errstate(over="ignore", invalid="ignore"):
        records = sample()
        return records, _moments(*records)


def estimate(parts: Iterable[tuple[int, float, float]]) -> Estimate:
    """Mean and standard error from blocks' :func:`_moments`, merged in block order.

    The mean is the summed totals over ``n``; the squared deviations merge
    pairwise (Chan, Golub & LeVeque 1979), and ``stderr`` follows the
    operation order of ``values.std(ddof=1) / np.sqrt(n)``.
    """
    n, total, m2 = 0, 0.0, 0.0
    for n_b, total_b, m2_b in parts:
        delta = total_b / n_b - (total / n if n else 0.0)
        m2 += m2_b + delta * delta * n * n_b / (n + n_b)
        n, total = n + n_b, total + total_b
    require_two_shots(n)
    mean = total / n
    stderr = float(np.sqrt(m2 / (n - 1)) / np.sqrt(n))
    if not (np.isfinite(mean) and np.isfinite(stderr)):
        raise NumericalError(f"Monte-Carlo mean {mean} or stderr {stderr} is not finite")
    return Estimate(mean=mean, stderr=stderr, shots=n)


def correlator(alpha1, alpha2, b1, b2):
    """Per-shot CHSH-form combination of the four signals, elementwise on arrays or floats."""
    return alpha1 * alpha2 + alpha1 * b2 + b1 * alpha2 - b1 * b2


def substream_rng(seed: int, index: int) -> np.random.Generator:
    """Substream ``index`` of ``seed``, for any index below ``2**64``.

    Philox is counter based: keying by (seed, index) gives disjoint
    substreams without sequential jumping.
    """
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + index))


def _run_chunk(config: ExperimentConfig, chunk_index: int, n: int) -> tuple[np.ndarray, ...]:
    rng = substream_rng(config.seed, chunk_index)
    return meas.sample_records(n, config.meter1, config.meter2, config.b_spec, config.angles, rng)


def _chunk_sizes(shots: int) -> list[int]:
    full, rest = divmod(shots, CHUNK_SHOTS)
    return [CHUNK_SHOTS] * full + ([rest] if rest else [])


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _chunks_in_order(tasks: Iterable[Callable], threads: int) -> Iterator:
    """Run zero-argument ``tasks`` on ``threads`` workers and yield their results in task order.

    A task is one chunk of work: a Monte-Carlo chunk's draw and
    :func:`_moments`, or one hidden-variable strategy's whole run.  At most
    ``threads + 1`` tasks are submitted and not yet consumed: one queued
    beyond the busy workers, so a worker that finishes picks up the next
    task without waiting for the consumer to wake.  ``tasks`` is read
    lazily; one thread runs them on the calling thread, without a pool.
    A task's exception is raised from the ``next`` that would have
    yielded its result.
    """
    if threads == 1:
        yield from (task() for task in tasks)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for task in tasks:
            pending.append(pool.submit(task))
            if len(pending) > threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _monte_carlo_estimates(
    configs: list[ExperimentConfig],
    threads: int | None,
    on_records: Callable[[tuple[np.ndarray, ...]], None] | None = None,
) -> Iterator[Estimate]:
    """The :func:`monte_carlo` estimate of each of ``configs``, in order.

    Every chunk of every config goes through one :func:`_chunks_in_order`
    call, so the workers run on into the next config's chunks while the
    caller handles the last one's estimate.  The pool has one worker per
    usable CPU, capped by ``threads`` when given: more workers would add
    no speed, only threads and chunks of some megabytes in flight.  It is
    shut down when the estimates end, however they end.
    """
    sizes = [_chunk_sizes(config.shots) for config in configs]
    tasks = (
        partial(_sampled_moments, partial(_run_chunk, config, index, n))
        for config, chunks in zip(configs, sizes)
        for index, n in enumerate(chunks)
    )
    usable = _usable_cpus()
    workers = usable if threads is None else min(threads, usable)
    with closing(_chunks_in_order(tasks, workers)) as results:
        for chunks in sizes:
            parts = []
            for records, moments in islice(results, len(chunks)):
                parts.append(moments)
                if on_records is not None:
                    on_records(records)
                del records
            yield estimate(parts)


def monte_carlo(
    config: ExperimentConfig,
    threads: int | None = None,
    on_records: Callable[[tuple[np.ndarray, ...]], None] | None = None,
) -> Estimate:
    """Average the per-shot correlator over ``config.shots`` sampled shots.

    Deterministic for a fixed (config, seed): shots are generated in fixed
    chunks from counter-based substreams and reduced in chunk order by
    :func:`estimate` (at least two shots), so the result is bit-identical
    for any number of workers.  The chunks run on every usable CPU, or on
    at most ``threads`` of them.  ``on_records``, if given, receives each
    chunk's ``(alpha1, alpha2, b1, b2)`` arrays in chunk order on the
    calling thread: exactly the shots being averaged.
    """
    [result] = _monte_carlo_estimates([config], threads, on_records)
    return result


def analytic_mean(
    xi1: float,
    xi2: float,
    v: float,
    angles: tuple[float, float, float, float] = DEFAULT_ANGLES,
) -> float:
    """Closed-form ensemble mean at analyzer angles ``(a1, a2, b1, b2)``.

    ``xi1``/``xi2`` are the arms' dephasing factors and ``v`` the
    projective readout visibility; all must lie in [0, 1].  On the Bell
    pair ``<O(x) O(y)> = cos(x - y)``; each weak arm keeps the readout
    component along its own analyzer and scales the perpendicular one by
    its ``xi``.  With ``D = a1 - a2``, ``ck = cos(bk - ak)`` and
    ``sk = sin(bk - ak)``,

        <C> = cos D + v*(c2 cos D + xi2 s2 sin D) + v*(c1 cos D - xi1 s1 sin D)
              - v^2*(c1 c2 cos D + xi2 c1 s2 sin D - xi1 s1 c2 sin D + xi1 xi2 s1 s2 cos D),

    which at :data:`DEFAULT_ANGLES` is ``(1 + v*xi1)(1 + v*xi2)/sqrt(2)``.
    """
    for name, value in (("xi1", xi1), ("xi2", xi2), ("v", v)):
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    a1, a2, b1, b2 = angles
    cos_d, sin_d = np.cos(a1 - a2), np.sin(a1 - a2)
    c1, s1 = np.cos(b1 - a1), np.sin(b1 - a1)
    c2, s2 = np.cos(b2 - a2), np.sin(b2 - a2)
    mean = (
        cos_d
        + v * (c2 * cos_d + xi2 * s2 * sin_d)
        + v * (c1 * cos_d - xi1 * s1 * sin_d)
        - v * v * (
            c1 * c2 * cos_d + xi2 * c1 * s2 * sin_d - xi1 * s1 * c2 * sin_d + xi1 * xi2 * s1 * s2 * cos_d
        )
    )
    return float(mean)


def violation_threshold() -> float:
    """Dephasing-factor threshold ``2**(3/4) - 1`` above which the mean exceeds 2.

    This is the statement at :data:`DEFAULT_ANGLES`, with equal factors on
    both arms and ``v = 1``; other angles have other thresholds.
    """
    return 2.0 ** 0.75 - 1.0


def predicted_stderr(config: ExperimentConfig) -> float:
    """Rough a-priori standard error of :func:`monte_carlo` for this config.

    Uses the signals' second moments (``sigma^2 + 1`` for a Gaussian arm,
    ``1/v_total^2`` for an ancilla arm); good to a few tens of percent,
    which is enough for shot-budget warnings.
    """

    m1 = config.meter1.signal_second_moment
    m2 = config.meter2.signal_second_moment
    variance = m1 * m2 + m1 + m2 + 1.0
    return float(np.sqrt(variance / config.shots))


# ---------------------------------------------------------------------------
# Exact mean from the instruments' outcome moments.
# ---------------------------------------------------------------------------


def _projectors(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """The single-qubit projectors onto analyzer ``phi``'s ``ket0`` and ``ket1``."""
    c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
    ket0 = np.array([c, s], dtype=complex)
    ket1 = np.array([-s, c], dtype=complex)
    return np.outer(ket0, ket0.conj()), np.outer(ket1, ket1.conj())


def _arm_moments(spec: MeterSpec, phi: float, arm: int):
    """Zeroth and first outcome moments of one weak arm, as maps on rho.

    With ``P0``/``P1`` the arm's analyzer projectors, the zeroth moment
    (the outcome-averaged update) is ``P0 rho P0 + P1 rho P1 +
    Xi*(P0 rho P1 + P1 rho P0)`` and the first moment (signal-weighted
    update) is ``P0 rho P0 - P1 rho P1`` for either meter, since both
    signals are calibrated: the Gaussian meter's excess dephasing leaves
    the diagonal blocks alone, and the ancilla meter's flip-averaged signal
    is scaled by ``1/v_total = 1/(u*v_ent)``.
    """
    p0, p1 = (embed(projector, arm) for projector in _projectors(phi))
    xi = meas.dephasing_factor(spec)

    def zeroth(rho: np.ndarray) -> np.ndarray:
        return p0 @ rho @ p0 + p1 @ rho @ p1 + xi * (p0 @ rho @ p1 + p1 @ rho @ p0)

    def first(rho: np.ndarray) -> np.ndarray:
        return p0 @ rho @ p0 - p1 @ rho @ p1

    return zeroth, first


def exact_mean(config: ExperimentConfig) -> float:
    """Deterministic ensemble mean of the correlator, no sampling.

    ``C`` is linear in ``alpha1`` and ``alpha2``, so only each weak arm's
    zeroth and first outcome moments enter (see :func:`_arm_moments`).
    With ``D``/``S`` the zeroth/first moment maps, ``XY`` the Bell state
    after map X on arm 1 and map Y on arm 2, and ``R_k`` the readout
    observable on arm k,

        <C> = Tr[SS] + v*Tr[R2 SD] + v*Tr[R1 DS] - v^2*Tr[R1 R2 DD],

    the readout flips (visibility ``v``) being independent per arm.
    """
    phi_a1, phi_a2, phi_b1, phi_b2 = config.angles
    zeroth1, first1 = _arm_moments(config.meter1, phi_a1, 1)
    zeroth2, first2 = _arm_moments(config.meter2, phi_a2, 2)
    readout1 = embed(np.subtract(*_projectors(phi_b1)), 1)
    readout2 = embed(np.subtract(*_projectors(phi_b2)), 2)
    v = config.b_spec.v

    psi = np.array(meas.BELL_AMPLITUDES, dtype=complex)
    rho = np.outer(psi, psi.conj())
    d1, s1 = zeroth1(rho), first1(rho)
    mean = (
        np.trace(first2(s1))
        + v * np.trace(readout2 @ zeroth2(s1))
        + v * np.trace(readout1 @ first2(d1))
        - v * v * np.trace(readout1 @ readout2 @ zeroth2(d1))
    )
    return float(mean.real)


# ---------------------------------------------------------------------------
# Parameter sweeps.
# ---------------------------------------------------------------------------

SWEEP_AXES = ("sigma", "eta", "v", "v_total", "u")


@dataclass(frozen=True)
class SweepPoint:
    """One sweep row: parameter value with all three mean estimates."""

    value: float
    estimate: Estimate
    exact: float
    analytic: float


def config_analytic_mean(config: ExperimentConfig) -> float:
    """Closed-form mean for a config, from the meters' dephasing factors and its angles."""
    return analytic_mean(
        meas.dephasing_factor(config.meter1),
        meas.dephasing_factor(config.meter2),
        config.b_spec.v,
        config.angles,
    )


def retune(config: ExperimentConfig, **values: float) -> ExperimentConfig:
    """Set ``sigma``/``eta`` or ``v_total``/``u`` on both meters and ``v`` on the readout.

    Each meter field must belong to both arms' meter type.  All meter
    fields go into one ``replace`` per arm, so validation sees the final
    pair (raising ``u`` and ``v_total`` together is fine in any order).
    """
    meter_values = {field: value for field, value in values.items() if field != "v"}
    for field, value in meter_values.items():
        for name in ("meter1", "meter2"):
            meas.check_meter_field(type(getattr(config, name)), field, name, f"{field} {value}")
    try:
        config = replace(
            config,
            meter1=replace(config.meter1, **meter_values),
            meter2=replace(config.meter2, **meter_values),
        )
        if "v" in values:
            config = replace(config, b_spec=ProjectiveMeterSpec(v=values["v"]))
    except ValueError as exc:
        given = ", ".join(f"{field}={value}" for field, value in values.items())
        raise ValueError(f"invalid {given}: {exc}") from exc
    return config


def sweep(
    config: ExperimentConfig,
    axis: str,
    values: list[float],
    threads: int | None = None,
) -> list[SweepPoint]:
    """Evaluate Monte-Carlo, deterministic, and closed-form means per value.

    ``axis`` selects the swept parameter: ``sigma``/``eta`` retune both
    Gaussian meters, ``v_total``/``u`` both ancilla meters, ``v`` the
    projective readout.  Every value is checked before anything is drawn.
    All points' chunks run through one pool, on every usable CPU or at
    most ``threads`` of them, and each point's Monte-Carlo mean is
    bit-identical to :func:`monte_carlo` on its own config.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    configs = [retune(config, **{axis: float(value)}) for value in values]
    with closing(_monte_carlo_estimates(configs, threads)) as estimates:
        return [
            SweepPoint(
                value=float(value),
                estimate=sampled,
                exact=exact_mean(derived),
                analytic=config_analytic_mean(derived),
            )
            for value, derived, sampled in zip(values, configs, estimates)
        ]
