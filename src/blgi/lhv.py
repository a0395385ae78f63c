"""Classical reference engine: local hidden-variable strategies.

A strategy assigns, per hidden state ``zeta``, bounded property values
``a1, a2`` (targets of the calibrated noisy detectors) and ``b1, b2``
(means of the +/-1 readouts), plus a preparation distribution over
``zeta``.  Detector noise is Gaussian, independent between the arms once
``zeta`` is fixed, and calibrated: its conditional mean equals the
declared property value.  An optional invasiveness term lets the first
measurement on an arm shift that arm's readout mean, clamped to [-1, 1];
this models locally invasive first measurements, which the correlator
bound tolerates by construction.

For every valid strategy the ensemble mean of the per-shot combination
:func:`blgi.protocol.correlator` lies in [-2, 2];
:func:`brute_force_max` establishes the bound by enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .protocol import Estimate, NumericalError, correlator

PREP_DIST_TOL = 1e-12
CALIBRATION_TOL = 1e-12
MAX_BRUTE_FORCE_STATES = 8


def _as_vector(values, n: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have one entry per hidden state ({n}), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LHVStrategy:
    """One local hidden-variable strategy over a finite hidden-state set.

    ``noise_bias1``/``noise_bias2`` shift the detectors' conditional means
    away from the declared values; nonzero bias deliberately breaks the
    calibration assumption and makes the strategy invalid (used to model
    that failure mode, and caught by :func:`validate` and
    :func:`calibration_check`).
    """

    prep_dist: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    noise_sigma1: float = 1.0
    noise_sigma2: float = 1.0
    noise_bias1: np.ndarray | None = None
    noise_bias2: np.ndarray | None = None
    invasiveness1: np.ndarray | None = None
    invasiveness2: np.ndarray | None = None

    def __post_init__(self):
        prep = np.asarray(self.prep_dist, dtype=float)
        if prep.ndim != 1 or prep.size < 1:
            raise ValueError(f"prep_dist must be a non-empty vector, got shape {prep.shape}")
        prep.setflags(write=False)
        object.__setattr__(self, "prep_dist", prep)
        n = prep.size
        for name in ("a1", "a2", "b1", "b2"):
            object.__setattr__(self, name, _as_vector(getattr(self, name), n, name))
        for name in ("noise_bias1", "noise_bias2", "invasiveness1", "invasiveness2"):
            value = getattr(self, name)
            if value is None:
                value = np.zeros(n)
                value.setflags(write=False)
                object.__setattr__(self, name, value)
            else:
                object.__setattr__(self, name, _as_vector(value, n, name))

    @property
    def num_hidden_states(self) -> int:
        return self.prep_dist.size

    def validate(self) -> None:
        """Raise ValueError naming the first violated strategy invariant."""
        if np.any(self.prep_dist < 0.0):
            raise ValueError(f"prep_dist has negative entries (min {self.prep_dist.min()})")
        total = float(self.prep_dist.sum())
        if abs(total - 1.0) > PREP_DIST_TOL:
            raise ValueError(f"prep_dist must sum to 1 within {PREP_DIST_TOL}, got {total}")
        for name in ("a1", "a2", "b1", "b2"):
            values = getattr(self, name)
            if np.max(np.abs(values)) > 1.0 + 1e-15:
                raise ValueError(f"{name} values must lie in [-1, 1], got max |{name}| = {np.max(np.abs(values))}")
        for name, sigma in (("noise_sigma1", self.noise_sigma1), ("noise_sigma2", self.noise_sigma2)):
            if not (np.isfinite(sigma) and sigma >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {sigma}")
        for name in ("noise_bias1", "noise_bias2"):
            bias = getattr(self, name)
            if np.max(np.abs(bias)) > CALIBRATION_TOL:
                raise ValueError(
                    f"{name} must vanish for a calibrated strategy (noise mean must equal "
                    f"the declared property value), got max |bias| = {np.max(np.abs(bias))}"
                )


def lhv_records(
    strategy: LHVStrategy, shots: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized shot sampling; returns ``(zeta, alpha1, alpha2, b1, b2)`` arrays.

    Draw order: hidden states, arm-1 noise, arm-2 noise, arm-1 readout,
    arm-2 readout; one block each.
    """
    prep = strategy.prep_dist / strategy.prep_dist.sum()
    zeta = rng.choice(strategy.num_hidden_states, size=shots, p=prep)
    alpha1 = strategy.a1[zeta] + strategy.noise_bias1[zeta]
    alpha2 = strategy.a2[zeta] + strategy.noise_bias2[zeta]
    if strategy.noise_sigma1 > 0.0:
        alpha1 = alpha1 + strategy.noise_sigma1 * rng.standard_normal(shots)
    if strategy.noise_sigma2 > 0.0:
        alpha2 = alpha2 + strategy.noise_sigma2 * rng.standard_normal(shots)
    # local invasiveness: the observed alpha may shift the same arm's
    # readout mean, but the perturbed mean stays in [-1, 1]
    mean_b1 = strategy.b1[zeta] + strategy.invasiveness1[zeta] * np.tanh(alpha1 - strategy.a1[zeta])
    mean_b2 = strategy.b2[zeta] + strategy.invasiveness2[zeta] * np.tanh(alpha2 - strategy.a2[zeta])
    mean_b1 = np.clip(mean_b1, -1.0, 1.0)
    mean_b2 = np.clip(mean_b2, -1.0, 1.0)
    b1 = np.where(rng.random(shots) < (1.0 + mean_b1) / 2.0, 1.0, -1.0)
    b2 = np.where(rng.random(shots) < (1.0 + mean_b2) / 2.0, 1.0, -1.0)
    return zeta, alpha1, alpha2, b1, b2


def lhv_mean(strategy: LHVStrategy, shots: int, rng: np.random.Generator) -> Estimate:
    """Monte-Carlo mean of the per-shot correlator; :class:`NumericalError` if not finite.

    ``shots`` must be at least 2, the fewest with a standard error.
    """
    if shots < 2:
        raise ValueError(f"shots must be >= 2 for a standard error, got {shots}")
    with np.errstate(over="ignore", invalid="ignore"):
        _, alpha1, alpha2, b1, b2 = lhv_records(strategy, shots, rng)
        values = correlator(alpha1, alpha2, b1, b2)
        mean = float(values.mean())
        stderr = float(values.std(ddof=1) / np.sqrt(shots))
    if not (np.isfinite(mean) and np.isfinite(stderr)):
        raise NumericalError(f"hidden-variable mean {mean} or stderr {stderr} is not finite")
    return Estimate(mean=mean, stderr=stderr, shots=shots)


def _sign_pattern_extrema(num_hidden_states: int) -> tuple[float, float]:
    if not (1 <= num_hidden_states <= MAX_BRUTE_FORCE_STATES):
        raise ValueError(
            f"brute-force enumeration supports 1..{MAX_BRUTE_FORCE_STATES} hidden states, "
            f"got {num_hidden_states}"
        )
    # every hidden state offers the same 16 sign patterns, so the extrema
    # over mixtures of them do not depend on how many states there are
    values = [correlator(*signs) for signs in itertools.product((-1.0, 1.0), repeat=4)]
    return min(values), max(values)


def brute_force_max(num_hidden_states: int) -> float:
    """Exact maximum of the mean correlator over all strategies.

    Enumerates every extremal sign assignment (all 16 choices of
    ``a1, a2, b1, b2`` in {-1, +1}) at each hidden state.  The mean of any
    strategy is a convex mixture of per-state values of this multilinear
    form, and property values inside (-1, 1) are themselves mixtures of
    the sign extremes, so the enumerated maximum bounds every strategy.
    """
    return _sign_pattern_extrema(num_hidden_states)[1]


def brute_force_min(num_hidden_states: int) -> float:
    """Exact minimum over the same enumeration as :func:`brute_force_max`."""
    return _sign_pattern_extrema(num_hidden_states)[0]


def random_strategy(
    num_hidden_states: int,
    rng: np.random.Generator,
    noise_sigma: float = 1.0,
    max_invasiveness: float = 0.0,
) -> LHVStrategy:
    """Draw a calibrated strategy: flat simplex preparation, uniform properties.

    Each arm's invasiveness is drawn per hidden state from
    ``[0, max_invasiveness]``, which must be finite and >= 0.
    """
    if num_hidden_states < 1:
        raise ValueError(f"num_hidden_states must be >= 1, got {num_hidden_states}")
    if not (np.isfinite(max_invasiveness) and max_invasiveness >= 0.0):
        raise ValueError(f"max_invasiveness must be finite and >= 0, got {max_invasiveness}")
    n = num_hidden_states
    prep = rng.dirichlet(np.ones(n))
    uniform = lambda: rng.uniform(-1.0, 1.0, size=n)
    invas1 = rng.uniform(0.0, max_invasiveness, size=n) if max_invasiveness > 0.0 else None
    invas2 = rng.uniform(0.0, max_invasiveness, size=n) if max_invasiveness > 0.0 else None
    return LHVStrategy(
        prep_dist=prep,
        a1=uniform(),
        a2=uniform(),
        b1=uniform(),
        b2=uniform(),
        noise_sigma1=noise_sigma,
        noise_sigma2=noise_sigma,
        invasiveness1=invas1,
        invasiveness2=invas2,
    )


@dataclass(frozen=True)
class CalibrationRow:
    """Per-(hidden state, detector) calibration comparison."""

    zeta: int
    detector: str
    declared: float
    empirical: float
    stderr: float
    ok: bool


@dataclass(frozen=True)
class CalibrationReport:
    rows: tuple[CalibrationRow, ...] = field(default_factory=tuple)

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)


def calibration_check(
    strategy: LHVStrategy, shots: int, rng: np.random.Generator
) -> CalibrationReport:
    """Compare per-state empirical detector means against declared values.

    For each hidden state and each noisy detector, ``shots`` conditional
    signals are drawn; the row fails when the empirical mean misses the
    declared value by 5 empirical standard errors (plus a machine-epsilon
    floor so that noiseless detectors require exact agreement only up to
    rounding).  A failed row is how a miscalibrated detector shows up.
    """
    if shots < 10_000:
        raise ValueError(f"calibration needs at least 10000 shots per hidden state, got {shots}")
    rows = []
    for detector, declared_all, bias, sigma in (
        ("alpha1", strategy.a1, strategy.noise_bias1, strategy.noise_sigma1),
        ("alpha2", strategy.a2, strategy.noise_bias2, strategy.noise_sigma2),
    ):
        for zeta in range(strategy.num_hidden_states):
            declared = float(declared_all[zeta])
            samples = declared + bias[zeta] + sigma * rng.standard_normal(shots)
            empirical = float(samples.mean())
            stderr = float(samples.std(ddof=1) / np.sqrt(shots))
            floor = 64.0 * np.finfo(float).eps * (1.0 + abs(declared))
            ok = abs(empirical - declared) < 5.0 * stderr + floor
            rows.append(
                CalibrationRow(
                    zeta=zeta,
                    detector=detector,
                    declared=declared,
                    empirical=empirical,
                    stderr=stderr,
                    ok=bool(ok),
                )
            )
    return CalibrationReport(rows=tuple(rows))
