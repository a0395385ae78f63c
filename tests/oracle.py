"""Density-matrix reference for the tests: states, Kraus operators, single shots.

The runtime never builds a two-qubit density matrix shot by shot: the
sampler works on four real amplitudes and the exact mean on closed-form
instrument moments.  This module keeps the textbook formulation beside
them, so that every kernel stage, every meter and the exact mean can be
checked against it:

* :class:`AnalyzerBasis` is an analyzer angle's orthonormal complex qubit
  basis, built by :func:`analyzer_basis`,
* :class:`TwoQubitState` is a validated 4x4 density matrix in the joint
  basis ``|00>, |01>, |10>, |11>`` with arm 1 as the left tensor factor,
* :func:`gaussian_kraus` and :func:`ancilla_kraus` are the weak meters'
  Kraus operators, :func:`apply_dephasing` the extra dephasing channel,
* :class:`MeasurementRecord` and :func:`lhv_shot` give one shot as a
  record of four floats,
* :func:`lhv_records_reference` is the hidden-variable sampler written as
  one expression per array, the reference for the in-place
  :func:`blgi.lhv.lhv_records`,
* :func:`sample_records_reference` is the record kernel written one
  expression per array, the reference for the in-place stages of
  :func:`blgi.measurement.sample_records`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from blgi.lhv import LHVStrategy, lhv_records
from blgi.measurement import (
    BELL_AMPLITUDES,
    AncillaMeterSpec,
    GaussianMeterSpec,
    MeterSpec,
    ProjectiveMeterSpec,
    _signs,
    _squared,
    excess_dephasing_factor,
)
from blgi.qmath import IDENTITY_2, embed

ORTHONORMALITY_TOL = 1e-12
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-9


@dataclass(frozen=True)
class AnalyzerBasis:
    """A measurement axis: angle ``phi`` with its orthonormal qubit basis.

    ``ket0 = cos(phi/2)|0> + sin(phi/2)|1>`` and
    ``ket1 = -sin(phi/2)|0> + cos(phi/2)|1>``.  The associated dichotomic
    observable assigns +1 to ``ket0`` and -1 to ``ket1``.
    """

    phi: float
    ket0: np.ndarray
    ket1: np.ndarray

    def __post_init__(self):
        for name in ("ket0", "ket1"):
            ket = np.asarray(getattr(self, name), dtype=complex)
            ket.setflags(write=False)
            object.__setattr__(self, name, ket)
        if abs(np.vdot(self.ket0, self.ket0) - 1.0) > ORTHONORMALITY_TOL:
            raise ValueError("ket0 is not normalized")
        if abs(np.vdot(self.ket1, self.ket1) - 1.0) > ORTHONORMALITY_TOL:
            raise ValueError("ket1 is not normalized")
        if abs(np.vdot(self.ket0, self.ket1)) > ORTHONORMALITY_TOL:
            raise ValueError("ket0 and ket1 are not orthogonal")

    @property
    def projector0(self) -> np.ndarray:
        return np.outer(self.ket0, self.ket0.conj())

    @property
    def projector1(self) -> np.ndarray:
        return np.outer(self.ket1, self.ket1.conj())

    @property
    def observable(self) -> np.ndarray:
        """The +/-1 observable ``|ket0><ket0| - |ket1><ket1|``."""
        return self.projector0 - self.projector1


def analyzer_basis(phi: float) -> AnalyzerBasis:
    """Build the analyzer basis for angle ``phi`` (radians)."""
    phi = float(phi)
    if not np.isfinite(phi):
        raise ValueError(f"analyzer angle must be finite, got {phi}")
    c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
    ket0 = np.array([c, s], dtype=complex)
    ket1 = np.array([-s, c], dtype=complex)
    return AnalyzerBasis(phi=phi, ket0=ket0, ket1=ket1)


class ZeroProbabilityError(RuntimeError):
    """Raised when a measurement branch carries (numerically) zero weight.

    The post-measurement state is undefined on such a branch and callers
    must not renormalize it.
    """


@dataclass(frozen=True)
class TwoQubitState:
    """A two-qubit density matrix in the fixed ``|00>,|01>,|10>,|11>`` basis.

    Instances are immutable; construct through :meth:`from_rho`, which
    validates Hermiticity, unit trace and positivity, and clips eigenvalues
    in ``[-EIGENVALUE_TOL, 0)`` (accumulated floating-point error) to zero.
    """

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @classmethod
    def from_rho(cls, rho: np.ndarray) -> "TwoQubitState":
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got shape {rho.shape}")
        if not np.all(np.isfinite(rho.view(float))):
            raise ValueError("density matrix contains non-finite entries")
        if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        trace = np.trace(rho).real
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace is {trace}, expected 1")
        rho = 0.5 * (rho + rho.conj().T)
        evals = np.linalg.eigvalsh(rho)
        if evals.min() < -EIGENVALUE_TOL:
            raise ValueError(f"density matrix has eigenvalue {evals.min()} < -{EIGENVALUE_TOL}")
        if evals.min() < 0.0:
            evals, evecs = np.linalg.eigh(rho)
            evals = np.clip(evals, 0.0, None)
            rho = (evecs * evals) @ evecs.conj().T
            rho = rho / np.trace(rho).real
        return cls(rho=rho)

    def reduced(self, arm: int) -> np.ndarray:
        """Partial trace over the other arm; returns the arm's 2x2 state."""
        r = self.rho.reshape(2, 2, 2, 2)
        if arm == 1:
            return np.einsum("abcb->ac", r)
        if arm == 2:
            return np.einsum("abad->bd", r)
        raise ValueError(f"arm must be 1 or 2, got {arm}")

    def purity(self) -> float:
        return float(np.trace(self.rho @ self.rho).real)


def bell_state() -> TwoQubitState:
    """The maximally entangled pair ``(|00> + |11>)/sqrt(2)`` as a density matrix."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    return TwoQubitState(rho=np.outer(psi, psi.conj()))


def apply_operator(state: TwoQubitState, kraus: np.ndarray) -> tuple[float, TwoQubitState]:
    """Apply a 4x4 Kraus operator: ``rho -> K rho K^dag / Tr(...)``.

    Returns ``(weight, new_state)`` with ``weight = Tr(K rho K^dag)``.
    Raises :class:`ZeroProbabilityError` when the branch weight is at or
    below 1e-15.
    """
    kraus = np.asarray(kraus, dtype=complex)
    if kraus.shape != (4, 4):
        raise ValueError(f"two-qubit operator must be 4x4, got shape {kraus.shape}")
    updated = kraus @ state.rho @ kraus.conj().T
    weight = np.trace(updated).real
    if weight <= 1e-15:
        raise ZeroProbabilityError(f"measurement branch has weight {weight}")
    return float(weight), TwoQubitState.from_rho(updated / weight)


def expectation(
    state: TwoQubitState,
    basis1: AnalyzerBasis | None = None,
    basis2: AnalyzerBasis | None = None,
) -> float:
    """Expectation of the +/-1 analyzer observable(s) on one or both arms.

    With both bases given this is the pair correlator
    ``Tr(rho O(phi1) (x) O(phi2))``; with one basis it is that arm's
    marginal ``<O(phi)>``.
    """
    if basis1 is None and basis2 is None:
        raise ValueError("at least one analyzer basis is required")
    op1 = basis1.observable if basis1 is not None else IDENTITY_2
    op2 = basis2.observable if basis2 is not None else IDENTITY_2
    return float(np.trace(state.rho @ np.kron(op1, op2)).real)


def gaussian_kraus(alpha: float, sigma: float, basis: AnalyzerBasis) -> np.ndarray:
    """Kraus operator of the Gaussian meter for pointer readout ``alpha``.

    Diagonal in ``basis`` with entries
    ``(2 pi sigma^2)^(-1/4) exp(-(alpha -/+ 1)^2 / (4 sigma^2))``; the
    squared completeness integral over alpha is the identity.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    variance = _squared(sigma)
    norm = (2.0 * np.pi * variance) ** (-0.25)
    g0 = norm * np.exp(-((alpha - 1.0) ** 2) / (4.0 * variance))
    g1 = norm * np.exp(-((alpha + 1.0) ** 2) / (4.0 * variance))
    return g0 * basis.projector0 + g1 * basis.projector1


def ancilla_kraus(sign: int, v_ent: float, basis: AnalyzerBasis) -> np.ndarray:
    """Back-action operator of the ancilla meter for outcome ``sign`` (+1/-1).

    Diagonal in ``basis`` with entries ``sqrt(1/2 +/- v_ent/2)``; the two
    outcomes satisfy ``M+^dag M+ + M-^dag M- = I`` exactly.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if not (0.0 < v_ent <= 1.0):
        raise ValueError(f"v_ent must be in (0, 1], got {v_ent}")
    e0 = np.sqrt(0.5 + sign * v_ent / 2.0)
    e1 = np.sqrt(0.5 - sign * v_ent / 2.0)
    return e0 * basis.projector0 + e1 * basis.projector1


def apply_dephasing(state: TwoQubitState, arm: int, factor: float, basis: AnalyzerBasis) -> TwoQubitState:
    """Multiply the arm's off-diagonal blocks (in ``basis``) by ``factor``.

    Implemented as the channel ``(1+f)/2 rho + (1-f)/2 O rho O`` with the
    basis observable ``O``, which is trace preserving and completely
    positive for ``factor`` in [0, 1].
    """
    if not (0.0 <= factor <= 1.0):
        raise ValueError(f"dephasing factor must be in [0, 1], got {factor}")
    obs = embed(basis.observable, arm)
    rho = 0.5 * (1.0 + factor) * state.rho + 0.5 * (1.0 - factor) * (obs @ state.rho @ obs)
    return TwoQubitState.from_rho(rho)


@dataclass(frozen=True)
class MeasurementRecord:
    """The four signals of one shot; ``b1``/``b2`` are exactly +/-1."""

    alpha1: float
    alpha2: float
    b1: float
    b2: float


def lhv_shot(strategy: LHVStrategy, rng: np.random.Generator) -> MeasurementRecord:
    """Draw one classical shot from the strategy."""
    _, alpha1, alpha2, b1, b2 = lhv_records(strategy, 1, rng)
    return MeasurementRecord(
        alpha1=float(alpha1[0]), alpha2=float(alpha2[0]), b1=float(b1[0]), b2=float(b2[0])
    )


def lhv_records_reference(
    strategy: LHVStrategy, shots: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`blgi.lhv.lhv_records` with fresh arrays: same draws in the same order, same bytes."""
    prep = strategy.prep_dist / strategy.prep_dist.sum()
    zeta = rng.choice(strategy.num_hidden_states, size=shots, p=prep)
    alpha1 = strategy.a1[zeta]
    alpha2 = strategy.a2[zeta]
    if strategy.noise_sigma1 > 0.0:
        alpha1 = alpha1 + strategy.noise_sigma1 * rng.standard_normal(shots)
    if strategy.noise_sigma2 > 0.0:
        alpha2 = alpha2 + strategy.noise_sigma2 * rng.standard_normal(shots)
    mean_b1 = strategy.b1[zeta] + strategy.invasiveness1[zeta] * np.tanh(alpha1 - strategy.a1[zeta])
    mean_b2 = strategy.b2[zeta] + strategy.invasiveness2[zeta] * np.tanh(alpha2 - strategy.a2[zeta])
    mean_b1 = np.clip(mean_b1, -1.0, 1.0)
    mean_b2 = np.clip(mean_b2, -1.0, 1.0)
    b1 = _signs(rng.random(shots) < (1.0 + mean_b1) / 2.0)
    b2 = _signs(rng.random(shots) < (1.0 + mean_b2) / 2.0)
    return zeta, alpha1, alpha2, b1, b2


# ---------------------------------------------------------------------------
# The record kernel written one expression per array: every stage returns
# fresh arrays and leaves its inputs alone.  The runtime stages in
# :mod:`blgi.measurement` work in place; they must match these bit for bit.
# ---------------------------------------------------------------------------


def _rotation(phi: float) -> tuple[float, float]:
    # ket0 = (c, s) and ket1 = (-s, c) with c = cos(phi/2), s = sin(phi/2)
    return float(np.cos(phi / 2.0)), float(np.sin(phi / 2.0))


def _to_frame(amps: tuple, arm: int, phi: float):
    """``(x0, x1, y0, y1)``: the ket0 (x) and ket1 (y) components of ``arm``,
    indexed by the other arm's computational state."""
    c00, c01, c10, c11 = amps
    a0, a1, b0, b1 = (c00, c01, c10, c11) if arm == 1 else (c00, c10, c01, c11)
    c, s = _rotation(phi)
    return c * a0 + s * b0, c * a1 + s * b1, c * b0 - s * a0, c * b1 - s * a1


def _from_frame(x0, x1, y0, y1, arm: int, phi: float) -> tuple:
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


def weak_stage_reference(
    amps: tuple,
    arm: int,
    spec: MeterSpec,
    phi: float,
    rng: np.random.Generator,
    n: int,
) -> tuple[np.ndarray, tuple]:
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


def _reported(hit0: np.ndarray, spec: ProjectiveMeterSpec, rng: np.random.Generator) -> np.ndarray:
    # the reported sign is the true one, flipped with probability (1 - v)/2
    return _signs(hit0 != (rng.random(hit0.size) < (1.0 - spec.v) / 2.0))


def first_readout_reference(
    amps: tuple,
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


def second_readout_reference(
    ket: tuple[np.ndarray, np.ndarray],
    spec: ProjectiveMeterSpec,
    phi: float,
    rng: np.random.Generator,
    n: int,
) -> np.ndarray:
    """Projectively read out arm 2 along ``phi``, in state ``ket`` from :func:`first_readout_reference`.

    The last measurement leaves no state behind, so only the ket0
    probability ``<ket0|z>^2 / <z|z>`` is formed.  Draw order: one
    uniform block (outcome), one uniform block (flip).
    """
    z0, z1 = ket
    c, s = _rotation(phi)
    along0 = c * z0 + s * z1
    hit0 = rng.random(n) < along0 * along0 / (z0 * z0 + z1 * z1)
    return _reported(hit0, spec, rng)


def sample_records_reference(
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
    alpha1, amps = weak_stage_reference(BELL_AMPLITUDES, 1, meter1, phi_a1, rng, n)
    alpha2, amps = weak_stage_reference(amps, 2, meter2, phi_a2, rng, n)
    b1, ket = first_readout_reference(amps, readout, phi_b1, rng, n)
    b2 = second_readout_reference(ket, readout, phi_b2, rng, n)
    return alpha1, alpha2, b1, b2
