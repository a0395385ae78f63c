"""Weak and projective qubit measurement models and the per-shot record kernel.

Two weak-meter models are implemented for the first measurement on each
arm:

* a Gaussian pointer meter with signal standard deviation ``sigma`` per
  eigenstate and quantum efficiency ``eta``; the outcome-averaged update
  damps coherences in the measured basis by ``exp(-1/(2 sigma^2 eta))``,
* an entangled-ancilla meter with total visibility ``v_total`` and ancilla
  readout visibility ``u``; signals are rescaled to ``+/- 1/v_total`` so
  that the signal mean reproduces the measured observable exactly, and the
  back-action damps coherences by ``sqrt(1 - (v_total/u)^2)``.

The final measurement on each arm is projective with readout visibility
``v``, modeled as a symmetric misidentification: the reported sign is the
true outcome flipped with probability ``(1 - v)/2``, so reported means are
``v`` times the ideal ones while the record stays in ``{-1, +1}``.

Every measurement is along an analyzer given by its angle ``phi`` in
radians (the convention is in :mod:`blgi.qmath`).  The record law has one
implementation, :func:`sample_records`.  It keeps each shot as four real
amplitudes and runs four elementwise stages (weak arm 1, weak arm 2,
readout arm 1, readout arm 2) with a fixed RNG draw order.  Every
sampler takes an explicit ``numpy.random.Generator`` and is safe to drive
from disjoint RNG substreams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np


@dataclass(frozen=True)
class GaussianMeterSpec:
    """Gaussian pointer meter: signal std ``sigma`` > 0, efficiency ``eta`` in (0, 1]."""

    label: ClassVar[str] = "Gaussian"

    sigma: float = 1.0
    eta: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if self.variance == 0.0:
            raise ValueError(f"sigma must be wide enough that sigma**2 > 0 in floats, got {self.sigma}")

    @property
    def variance(self) -> float:
        """``sigma**2``, or ``inf`` where that overflows a float."""
        return _squared(self.sigma)

    @property
    def signal_second_moment(self) -> float:
        """``E[alpha^2] = sigma^2 + 1`` on any state."""
        return self.variance + 1.0


@dataclass(frozen=True)
class AncillaMeterSpec:
    """Ancilla meter: total visibility ``v_total`` in (0, 1], readout visibility ``u``.

    ``v_total <= u`` always; the entangling strength is ``v_total / u``.
    """

    label: ClassVar[str] = "ancilla"

    v_total: float = 1.0
    u: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.v_total <= 1.0):
            raise ValueError(f"v_total must be in (0, 1], got {self.v_total}")
        if not (0.0 < self.u <= 1.0):
            raise ValueError(f"u must be in (0, 1], got {self.u}")
        if self.v_total > self.u + 1e-15:
            raise ValueError(f"v_total must not exceed u, got v_total={self.v_total} > u={self.u}")

    @property
    def v_ent(self) -> float:
        """Entangling strength: the visibility seen by the qubit back-action."""
        return min(self.v_total / self.u, 1.0)

    @property
    def signal_second_moment(self) -> float:
        """``E[alpha^2] = 1/v_total^2``, exactly, or ``inf`` where that overflows."""
        return _squared(1.0 / self.v_total)


@dataclass(frozen=True)
class ProjectiveMeterSpec:
    """Projective readout with visibility ``v`` in [0, 1]."""

    v: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.v <= 1.0):
            raise ValueError(f"v must be in [0, 1], got {self.v}")


MeterSpec = GaussianMeterSpec | AncillaMeterSpec

#: the weak-meter types by their lowercase ``label``, the config files' ``type`` names
METER_KINDS: dict[str, type[MeterSpec]] = {cls.label.lower(): cls for cls in (GaussianMeterSpec, AncillaMeterSpec)}


def field_names(cls: type) -> tuple[str, ...]:
    """The field names of dataclass ``cls``, in declaration order."""
    return tuple(f.name for f in fields(cls))


def check_meter_field(kind: type[MeterSpec], field: str, arm: str, what: str) -> None:
    """Raise ValueError, its message opening with ``what``, unless meter type ``kind`` on ``arm`` has ``field``."""
    if field in field_names(kind):
        return
    owner = next((cls for cls in METER_KINDS.values() if field in field_names(cls)), None)
    if owner is None:
        raise ValueError(f"{what}: unknown key; a {kind.label} meter has {', '.join(field_names(kind))}")
    raise ValueError(f"{what} requires {owner.label} meters, but {arm} is {kind.label}")


def _squared(x: float) -> float:
    # Python's float ``**`` raises OverflowError instead of returning inf
    try:
        return x**2
    except OverflowError:
        return math.inf


def dephasing_factor(spec: MeterSpec) -> float:
    """Coherence damping of the outcome-averaged meter back-action.

    Gaussian: ``exp(-1/(2 sigma^2 eta))``.  Ancilla:
    ``sqrt(1 - (v_total/u)^2)``.  The projective-readout visibility factor
    ``v`` is applied by the caller, not here.
    """
    if isinstance(spec, GaussianMeterSpec):
        width = 2.0 * spec.variance * spec.eta
        # a product that underflows to zero is a full collapse
        return float(np.exp(-1.0 / width)) if width > 0.0 else 0.0
    if isinstance(spec, AncillaMeterSpec):
        return float(np.sqrt(max(1.0 - spec.v_ent**2, 0.0)))
    raise TypeError(f"unsupported meter spec {type(spec).__name__}")


def excess_dephasing_factor(spec: GaussianMeterSpec) -> float:
    """Extra damping applied after the quantum-limited update when ``eta < 1``.

    Chosen so that the total average damping is ``exp(-1/(2 sigma^2 eta))``.
    """
    return float(np.exp(-(1.0 / (2.0 * spec.variance)) * (1.0 / spec.eta - 1.0)))


# ---------------------------------------------------------------------------
# The shot kernel.
#
# Every shot is a pure state of the pair with real amplitudes (analyzer
# kets and meter operators are all real), held as four arrays
# ``(c00, c01, c10, c11)`` with |psi> = sum_kl c_kl |k,l>, arm 1 first.
# A stage on one arm rotates that arm into its analyzer frame by phi/2,
# scales the ket0/ket1 branches by the drawn outcome's Kraus entries,
# renormalizes and rotates back; every step is elementwise over shots.
# The excess dephasing of a Gaussian meter with eta < 1 is realized as a
# stochastic sign flip of the ket1 branch, which is the same channel in
# expectation.  Scalars broadcast, so a state shared by all shots (the
# Bell pair) is passed as four floats.
# ---------------------------------------------------------------------------

Amplitudes = tuple  # (c00, c01, c10, c11): arrays or floats

BELL_AMPLITUDES: Amplitudes = (1.0 / math.sqrt(2.0), 0.0, 0.0, 1.0 / math.sqrt(2.0))


def _rotation(phi: float) -> tuple[float, float]:
    # ket0 = (c, s) and ket1 = (-s, c) with c = cos(phi/2), s = sin(phi/2)
    return float(np.cos(phi / 2.0)), float(np.sin(phi / 2.0))


def _to_frame(amps: Amplitudes, arm: int, phi: float):
    """``(x0, x1, y0, y1)``: the ket0 (x) and ket1 (y) components of ``arm``,
    indexed by the other arm's computational state."""
    c00, c01, c10, c11 = amps
    a0, a1, b0, b1 = (c00, c01, c10, c11) if arm == 1 else (c00, c10, c01, c11)
    c, s = _rotation(phi)
    return c * a0 + s * b0, c * a1 + s * b1, c * b0 - s * a0, c * b1 - s * a1


def _from_frame(x0, x1, y0, y1, arm: int, phi: float) -> Amplitudes:
    c, s = _rotation(phi)
    a0, a1, b0, b1 = c * x0 - s * y0, c * x1 - s * y1, s * x0 + c * y0, s * x1 + c * y1
    return (a0, a1, b0, b1) if arm == 1 else (a0, b0, a1, b1)


def _gaussian_branch_scales(signals: np.ndarray, variance: float) -> tuple[np.ndarray, np.ndarray]:
    """The Kraus entries ``g0, g1`` of pointer readouts ``signals``, up to a
    common per-shot factor.

    ``g0/g1 = exp(alpha/variance)``, so dividing both by the larger one
    gives ``exp(min(t, 0))`` and ``exp(-max(t, 0))`` with ``t =
    alpha/variance``: neither underflows to zero with the other.
    """
    t = signals / variance
    return np.exp(np.minimum(t, 0.0)), np.exp(-np.maximum(t, 0.0))


def weak_stage(
    amps: Amplitudes,
    arm: int,
    spec: MeterSpec,
    phi: float,
    rng: np.random.Generator,
    n: int,
) -> tuple[np.ndarray, Amplitudes]:
    """Weakly measure ``arm`` along analyzer angle ``phi`` in ``n`` shots.

    Returns ``(signals, post-state amplitudes)``.

    Draw order: Gaussian, one uniform block (mixture component), one
    normal block (pointer value) and, only when ``eta < 1``, one uniform
    block (phase flip); ancilla, one uniform block (branch) and one
    uniform block (readout flip).
    """
    x0, x1, y0, y1 = _to_frame(amps, arm, phi)
    p0 = x0 * x0 + x1 * x1
    p1 = y0 * y0 + y1 * y1
    if isinstance(spec, GaussianMeterSpec):
        signals = _signs(rng.random(n) < p0) + spec.sigma * rng.standard_normal(n)
        w0, w1 = _gaussian_branch_scales(signals, spec.variance)
    elif isinstance(spec, AncillaMeterSpec):
        half = spec.v_ent / 2.0
        took_plus = rng.random(n) < (0.5 + half) * p0 + (0.5 - half) * p1
        strong, weak = math.sqrt(0.5 + half), math.sqrt(0.5 - half)
        shift = (strong - weak) * took_plus
        w0, w1 = weak + shift, strong - shift
        flip = rng.random(n) < (1.0 - spec.u) / 2.0
        # a Python-float reciprocal overflows to inf without a numpy warning,
        # and +/-1 * (1/v) is +/-1/v exactly
        signals = _signs(took_plus != flip) * (1.0 / spec.v_total)
    else:
        raise TypeError(f"unsupported meter spec {type(spec).__name__}")
    norm = 1.0 / np.sqrt(w0 * w0 * p0 + w1 * w1 * p1)
    w0 = w0 * norm
    w1 = w1 * norm
    if isinstance(spec, GaussianMeterSpec) and spec.eta < 1.0:
        flip = rng.random(n) < 0.5 * (1.0 - excess_dephasing_factor(spec))
        w1 = w1 * _signs(~flip)
    x0, x1, y0, y1 = x0 * w0, x1 * w0, y0 * w1, y1 * w1
    del p0, p1, w0, w1, norm  # freed before the rotation allocates: peak memory
    return signals, _from_frame(x0, x1, y0, y1, arm, phi)


def _signs(mask: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # +1.0 where mask, else -1.0; several times faster than np.where on
    # unpredictable masks.  ``out`` may be the mask itself, as 0.0/1.0 floats
    signs = np.multiply(mask, 2.0, out=out)
    signs -= 1.0
    return signs


def _reported(hit0: np.ndarray, spec: ProjectiveMeterSpec, rng: np.random.Generator) -> np.ndarray:
    # the reported sign is the true one, flipped with probability (1 - v)/2
    return _signs(hit0 != (rng.random(hit0.size) < (1.0 - spec.v) / 2.0))


def first_readout(
    amps: Amplitudes,
    spec: ProjectiveMeterSpec,
    phi: float,
    rng: np.random.Generator,
    n: int,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Projectively read out arm 1 along analyzer angle ``phi`` in ``n`` shots.

    Returns ``(signals, (z0, z1))``: the projection leaves the pair in
    the product of the true outcome's analyzer ket with arm 2's
    conditional ket ``z0|0> + z1|1>``, returned unnormalized.  Only the
    reported sign suffers the misidentification flip.  Draw order: one
    uniform block (outcome), one uniform block (flip).
    """
    x0, x1, y0, y1 = _to_frame(amps, 1, phi)
    hit0 = rng.random(n) < x0 * x0 + x1 * x1
    signals = _reported(hit0, spec, rng)
    # exact select: one of the two products is x*1 or y*1, the other zero
    keep_x = hit0.astype(float)
    keep_y = 1.0 - keep_x
    return signals, (x0 * keep_x + y0 * keep_y, x1 * keep_x + y1 * keep_y)


def second_readout(
    ket: tuple[np.ndarray, np.ndarray],
    spec: ProjectiveMeterSpec,
    phi: float,
    rng: np.random.Generator,
    n: int,
) -> np.ndarray:
    """Projectively read out arm 2 along ``phi``, in state ``ket`` from :func:`first_readout`.

    The last measurement leaves no state behind, so only the ket0
    probability ``<ket0|z>^2 / <z|z>`` is formed.  Draw order: one
    uniform block (outcome), one uniform block (flip).
    """
    z0, z1 = ket
    c, s = _rotation(phi)
    along0 = c * z0 + s * z1
    hit0 = rng.random(n) < along0 * along0 / (z0 * z0 + z1 * z1)
    return _reported(hit0, spec, rng)


def sample_records(
    n: int,
    meter1: MeterSpec,
    meter2: MeterSpec,
    readout: ProjectiveMeterSpec,
    angles: tuple[float, float, float, float],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``n`` shots of the full protocol from the Bell pair: ``(alpha1, alpha2, b1, b2)``.

    ``angles`` are the analyzers ``(a1, a2, b1, b2)`` in radians; a
    non-finite one raises ValueError.  Stages and draws run in the order
    weak arm 1, weak arm 2, readout arm 1, readout arm 2.
    """
    phi_a1, phi_a2, phi_b1, phi_b2 = angles
    for phi in angles:
        if not np.isfinite(phi):
            raise ValueError(f"analyzer angle must be finite, got {phi}")
    alpha1, amps = weak_stage(BELL_AMPLITUDES, 1, meter1, phi_a1, rng, n)
    alpha2, amps = weak_stage(amps, 2, meter2, phi_a2, rng, n)
    b1, ket = first_readout(amps, readout, phi_b1, rng, n)
    b2 = second_readout(ket, readout, phi_b2, rng, n)
    return alpha1, alpha2, b1, b2
