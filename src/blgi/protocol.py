"""The full correlator protocol: per-shot sampling, averaging, exact means, sweeps.

One shot prepares the entangled pair, weakly measures arm 1 then arm 2
(signals ``alpha1``, ``alpha2``), projectively reads out both arms
(signals ``b1``, ``b2``), and evaluates the CHSH-form combination
:func:`correlator`,

    C = alpha1*alpha2 + alpha1*b2 + b1*alpha2 - b1*b2.

Every term of every C comes from the same shot of a single fixed analyzer
configuration.  Three routes to the ensemble mean are provided:

* :func:`monte_carlo` averages C over sampled shots,
* :func:`exact_mean` pairs each weak arm's zeroth and first outcome
  moments (closed-form instrument maps, applied to the readout observables
  as real 2x2 matrices) through the Bell pair's amplitudes, which suffices
  because C is linear in each alpha,
* :func:`analytic_mean` evaluates the closed form in the arms' dephasing
  factors and the analyzer angles, ``(1 + v*xi1)(1 + v*xi2)/sqrt(2)`` at
  the default angles.

:func:`exact_variance` gives C's variance in closed form, and
:func:`predicted_stderr` the standard error it implies.
"""

from __future__ import annotations

import math
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

#: analyzer angles (phi_a1, phi_a2, phi_b1, phi_b2) of the standard
#: maximally violating CHSH configuration
DEFAULT_ANGLES = (np.pi / 2.0, np.pi / 4.0, 0.0, 3.0 * np.pi / 4.0)
#: the same angles' names, as ``[angles]`` keys and ``--phi-<key>`` flags
ANGLE_KEYS = ("a1", "a2", "b1", "b2")

#: fixed number of shots per RNG substream; part of the reproducibility
#: contract (results are bit-identical for a given (config, seed) no
#: matter how many workers execute the chunks)
CHUNK_SHOTS = 1 << 16


class NumericalError(RuntimeError):
    """Raised when a computed mean or standard error is not finite."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a run: meters, angles, shots, seed.

    ``shots`` is at least 2 (:func:`require_two_shots`), so every config
    can run and give a standard error, and below ``2**63``, so its list of
    chunk sizes has an index-sized length; an exact route ignores it.
    """

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
        require_two_shots(self.shots)
        if self.shots >= 2**63:
            raise ValueError(f"shots must be < 2**63, got {self.shots}")
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


def _moments(alpha1, alpha2, b1, b2, workspace: meas.Workspace) -> tuple[int, float, float]:
    """Count, sum and sum of squared deviations from the mean of C over one block of records.

    C goes into one buffer of ``workspace`` and each term after the first
    over ``alpha1``, which only the first two terms read: ``alpha1`` is
    consumed, so copy it first to keep it.
    """
    values = correlator(alpha1, alpha2, b1, b2, out=(workspace.take(alpha1.size), alpha1))
    total = float(values.sum())
    # the second pass of numpy's own variance, squared in place
    values -= total / values.size
    values *= values
    m2 = float(values.sum())
    workspace.give(values)
    return values.size, total, m2


#: the workspaces not lent to a block at the moment; each one built stays for the life
#: of the process, so there are at most as many as blocks ever ran at once.  Its pop and
#: append are each atomic, so the pool's threads share it without a lock
_idle_workspaces: list[meas.Workspace] = []


def _sampled_moments(draw: Callable[[meas.Workspace], tuple[np.ndarray, ...]], keep_records: bool = False) -> tuple:
    """One block's :func:`_moments`, with copies of its records if ``keep_records``, else None.

    ``draw(workspace)`` draws one block of at most :data:`CHUNK_SHOTS`
    records, a Monte-Carlo chunk or a hidden-variable block, into a
    workspace lent to this block alone: an idle one, or a new one when
    none is idle.  The copies are made before C is formed, in one more of
    its buffers and over the records' ``alpha1``, and the workspace goes
    back only after both, so no other block writes into records still
    being read.
    """
    try:
        workspace = _idle_workspaces.pop()
    except IndexError:
        workspace = meas.Workspace(CHUNK_SHOTS)
    try:
        # an overflow, in the draw or in C, ends in NumericalError from estimate, not in a warning
        with np.errstate(over="ignore", invalid="ignore"):
            records = draw(workspace)
            kept = tuple(np.copy(r) for r in records) if keep_records else None
            return kept, _moments(*records, workspace)
    finally:
        _idle_workspaces.append(workspace)


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


def correlator(alpha1, alpha2, b1, b2, out: tuple[np.ndarray, np.ndarray] | None = None):
    """Per-shot CHSH-form combination of the four signals, elementwise on arrays or floats.

    ``out``, two arrays of the signals' broadcast shape, takes C and each
    later term in turn; without it both are allocated, and C of four
    floats is a float.  The second may be ``alpha1`` itself, which only
    the first two terms read: :func:`_moments` writes the terms over it.
    """
    if out is None:
        shape = np.broadcast_shapes(*(np.shape(signal) for signal in (alpha1, alpha2, b1, b2)))
        out = (np.empty(shape), np.empty(shape))
    values, term = out
    np.multiply(alpha1, alpha2, out=values)
    values += np.multiply(alpha1, b2, out=term)
    values += np.multiply(b1, alpha2, out=term)
    values -= np.multiply(b1, b2, out=term)
    return values if values.ndim else float(values)


def substream_rng(seed: int, index: int) -> np.random.Generator:
    """Substream ``index`` of ``seed``, for any index below ``2**64``: the runtime's one generator.

    Philox is counter based: keying by (seed, index) gives disjoint
    substreams without sequential jumping.  Monte-Carlo chunk ``i`` is index
    ``i``; ``blgi lhv``'s random strategy ``i`` is ``i`` and its shots are
    ``2**32 + i``; ``blgi verify``'s random configs are index ``0``.
    """
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + index))


def _run_chunk(config: ExperimentConfig, chunk_index: int, n: int, workspace: meas.Workspace) -> tuple[np.ndarray, ...]:
    """Chunk ``chunk_index``'s ``n`` records, drawn into ``workspace``, whose next draw overwrites them."""
    rng = substream_rng(config.seed, chunk_index)
    return meas.sample_records(n, config.meter1, config.meter2, config.b_spec, config.angles, rng, workspace)


def _chunk_sizes(shots: int) -> list[int]:
    full, rest = divmod(shots, CHUNK_SHOTS)
    return [CHUNK_SHOTS] * full + ([rest] if rest else [])


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _chunks_in_order(tasks: Iterable[Callable], threads: int | None) -> Iterator:
    """Run zero-argument ``tasks`` on a pool and yield their results in task order.

    A task is one chunk of work: a Monte-Carlo chunk's draw and
    :func:`_moments`, or one hidden-variable strategy's run, whose blocks
    it draws in turn, each into a workspace lent to it alone.  Only here
    is a worker count set: one per usable CPU, capped by ``threads`` when
    given, since more would add no speed, only blocks in flight.  The pool
    starts a thread only when no worker is idle, so one task runs on one
    thread.  At most ``workers + 1`` tasks are submitted and not yet
    consumed: one queued beyond the busy workers, so a worker that
    finishes picks up the next task without waiting for the consumer to
    wake.  ``tasks`` is read lazily.  A task's exception is raised from
    the ``next`` that would have yielded its result.  The pool is shut
    down when the results end, however they end; the lent workspaces stay
    for the life of the process, at most one per concurrently running
    block.  Each grows to the most buffers that any block drawn into it
    needed, as the shot-kernel comment in :mod:`blgi.measurement` counts
    them for a quantum chunk and :func:`blgi.lhv.lhv_mean` for a
    hidden-variable block.
    """
    usable = _usable_cpus()
    workers = usable if threads is None else min(threads, usable)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for task in tasks:
            pending.append(pool.submit(task))
            if len(pending) > workers:
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
    call, capped by ``threads``, so the workers run on into the next
    config's chunks while the caller handles the last one's estimate.

    Each chunk is drawn into a workspace lent to it alone
    (:func:`_sampled_moments`), so once the lent workspaces exist no chunk
    allocates an array of a chunk's size, in this call or a later one.
    Only with ``on_records`` is a chunk's four records copied out of its
    workspace; those copies are the consumer's own.
    """
    sizes = [_chunk_sizes(config.shots) for config in configs]
    tasks = (
        partial(_sampled_moments, partial(_run_chunk, config, index, n), on_records is not None)
        for config, chunks in zip(configs, sizes)
        for index, n in enumerate(chunks)
    )
    with closing(_chunks_in_order(tasks, threads)) as results:
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
    at most ``threads`` of them.  Each chunk is drawn into a workspace lent
    to it alone; lent workspaces stay for the life of the process, at most
    one per concurrently running block, each as large as the peak that the
    shot-kernel comment in :mod:`blgi.measurement` counts, and later calls
    reuse them.
    ``on_records``, if given, receives each chunk's ``(alpha1, alpha2, b1,
    b2)`` arrays in chunk order on the calling thread: exactly the shots being averaged, copied out of the chunk's
    workspace, so the consumer may keep them.
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


def exact_variance(config: ExperimentConfig) -> float:
    """Exact variance of the per-shot correlator, ``E[C^2] - exact_mean(config)**2``.

    ``b1**2 = b2**2 = 1``, so no term of ``C^2`` pairs the two readouts or
    the two arms' first moments.  Each arm's ``m_k = E[alpha_k^2]`` (its
    meter's ``signal_second_moment``) does not depend on the state, and on
    the Bell pair, whose marginals are ``I/2``, ``E[alpha_k b_k] = v x_k``
    with ``x_k = cos(b_k - a_k)``, so that

        E[C^2] = (m1 + 1)(m2 + 1) + 2v (m1 - 1) x2 + 2v (m2 - 1) x1
               = (m1 - 1)(m2 - 1) + 2 (m1 - 1)(1 + v x2) + 2 (m2 - 1)(1 + v x1) + 4.

    The second form sums products of factors >= 0: a moment that
    overflows to inf gives inf and never ``inf - inf``, and a product with
    a zero factor is 0, the limit of a huge moment that C weighs by 0.
    """
    excess1 = config.meter1.signal_second_moment - 1.0
    excess2 = config.meter2.signal_second_moment - 1.0
    phi_a1, phi_a2, phi_b1, phi_b2 = config.angles
    v = config.b_spec.v
    pairs = (
        (excess1, excess2),
        (excess1, 2.0 * (1.0 + v * math.cos(phi_b2 - phi_a2))),
        (excess2, 2.0 * (1.0 + v * math.cos(phi_b1 - phi_a1))),
    )
    second = 4.0 + sum(x * y if x and y else 0.0 for x, y in pairs)
    # E[C^2] >= <C>^2; rounding must not take a constant C below 0
    return max(second - exact_mean(config) ** 2, 0.0)


def predicted_stderr(config: ExperimentConfig) -> float:
    """A-priori standard error of :func:`monte_carlo` for this config: ``sqrt(exact_variance / shots)``."""
    return float(np.sqrt(exact_variance(config) / config.shots))


# ---------------------------------------------------------------------------
# Exact mean from the instruments' outcome moments.
# ---------------------------------------------------------------------------


def _projectors(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """The real 2x2 projectors onto analyzer ``phi``'s ``ket0`` and ``ket1``."""
    c, s = float(np.cos(phi / 2.0)), float(np.sin(phi / 2.0))
    ket0, ket1 = np.array([c, s]), np.array([-s, c])
    return np.outer(ket0, ket0), np.outer(ket1, ket1)


def _arm_observables(spec: MeterSpec, phi_a: float, phi_b: float) -> tuple[np.ndarray, np.ndarray]:
    """One arm's signal observable ``S`` and its readout ``R`` seen through the weak meter, ``D(R)``.

    With ``P0``/``P1`` the weak analyzer's projectors, the zeroth outcome
    moment (outcome-averaged update) is ``D(X) = P0 X P0 + P1 X P1 +
    Xi*(P0 X P1 + P1 X P0)`` and the first (signal-weighted) one is ``F(X)
    = P0 X P0 - P1 X P1`` for either meter, since both signals are
    calibrated: the Gaussian meter's excess dephasing leaves the diagonal
    blocks alone, and the ancilla signal is scaled by ``1/v_total``.  Both
    maps are self-adjoint, so in the Heisenberg picture ``S = F(I) = P0 - P1``.
    """
    p0, p1 = _projectors(phi_a)
    readout = np.subtract(*_projectors(phi_b))
    xi = spec.dephasing_factor
    seen = p0 @ readout @ p0 + p1 @ readout @ p1 + xi * (p0 @ readout @ p1 + p1 @ readout @ p0)
    return p0 - p1, seen


def exact_mean(config: ExperimentConfig) -> float:
    """Deterministic ensemble mean of the correlator, no sampling.

    ``C`` is linear in ``alpha1`` and ``alpha2``, so only each weak arm's
    zeroth and first outcome moments enter, as the real 2x2 observables
    ``S_k`` and ``D_k(R_k)`` of :func:`_arm_observables`.  The readout
    flips (visibility ``v``) are independent per arm, so

        <C> = <S1 S2> + v<S1 D2(R2)> + v<D1(R1) S2> - v^2<D1(R1) D2(R2)>,

    each a pairing ``<A (x) B> = sum((Psi^T A Psi) * B)`` with ``Psi`` the
    real :data:`blgi.measurement.BELL_AMPLITUDES` read as a 2x2 matrix
    (``Tr(A B^T)/2`` for Phi+).
    """
    phi_a1, phi_a2, phi_b1, phi_b2 = config.angles
    s1, d1 = _arm_observables(config.meter1, phi_a1, phi_b1)
    s2, d2 = _arm_observables(config.meter2, phi_a2, phi_b2)
    psi = np.reshape(meas.BELL_AMPLITUDES, (2, 2))
    pair = lambda a, b: float(np.sum((psi.T @ a @ psi) * b))
    v = config.b_spec.v
    return pair(s1, s2) + v * pair(s1, d2) + v * pair(d1, s2) - v * v * pair(d1, d2)


# ---------------------------------------------------------------------------
# Parameter sweeps.
# ---------------------------------------------------------------------------

#: the spec classes whose fields a run can set: the weak-meter kinds, then the readout
TUNABLE_SPECS = (*meas.METER_KINDS.values(), ProjectiveMeterSpec)
#: each field of :data:`TUNABLE_SPECS` once, in order: what :func:`retune` sets
SWEEP_AXES = tuple(dict.fromkeys(name for cls in TUNABLE_SPECS for name in meas.field_names(cls)))


@dataclass(frozen=True)
class SweepPoint:
    """One sweep row: parameter value with all three mean estimates."""

    value: float
    estimate: Estimate
    exact: float
    analytic: float


def config_analytic_mean(config: ExperimentConfig) -> float:
    """Closed-form mean for a config, from the meters' dephasing factors and its angles."""
    return analytic_mean(config.meter1.dephasing_factor, config.meter2.dephasing_factor, config.b_spec.v, config.angles)


def retune(config: ExperimentConfig, **values: float) -> ExperimentConfig:
    """Set each of ``values`` where it is declared: a meter field on both meters, a readout field on ``b_spec``.

    Each meter field must belong to both arms' meter type.  Every field goes
    into one ``replace``, so validation sees the final specs (raising ``u``
    and ``v_total`` together is fine in any order), and the fields not
    given keep their values.
    """
    readout = {field: value for field, value in values.items() if field in meas.field_names(ProjectiveMeterSpec)}
    meter_values = {field: value for field, value in values.items() if field not in readout}
    for field, value in meter_values.items():
        for name in ("meter1", "meter2"):
            meas.check_meter_field(type(getattr(config, name)), field, name, f"{field} {value}")
    return replace(
        config,
        meter1=replace(config.meter1, **meter_values),
        meter2=replace(config.meter2, **meter_values),
        b_spec=replace(config.b_spec, **readout),
    )


def sweep(
    config: ExperimentConfig,
    axis: str,
    values: list[float],
    threads: int | None = None,
) -> list[SweepPoint]:
    """Evaluate Monte-Carlo, deterministic, and closed-form means per value.

    ``axis``, one of :data:`SWEEP_AXES`, is the field :func:`retune` sets
    to each value.  Every value is checked before anything is drawn.
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
