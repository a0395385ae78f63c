"""Density-matrix reference for the tests: states, Kraus operators, single shots.

The runtime never builds a two-qubit density matrix shot by shot: the
sampler draws each stage from a closed-form Bloch component of per-shot 2x2
effects, and the exact mean pairs real 2x2 observables through the Bell
amplitudes.  This module keeps the textbook formulation beside them, so that
every kernel stage, every meter and the exact mean can be checked against it:

* :class:`AnalyzerBasis` is an analyzer angle's orthonormal complex qubit
  basis, built by :func:`analyzer_basis`,
* :class:`TwoQubitState` is a validated 4x4 density matrix in the joint
  basis ``|00>, |01>, |10>, |11>`` with arm 1 as the left tensor factor,
  and :func:`embed` lifts a single-qubit operator to the pair,
* :func:`gaussian_kraus` and :func:`ancilla_kraus` are the weak meters'
  Kraus operators, :func:`apply_dephasing` the extra dephasing channel,
  and :func:`flat_hermite` the Gauss-Hermite rule that integrates the
  Gaussian meter's pointer,
* :class:`MeasurementRecord` and :func:`lhv_shot` give one shot as a
  record of four floats,
* :func:`exact_mean_reference` is the exact mean as four 4x4 traces on
  the Bell pair's density matrix, the reference for the 2x2 pairings of
  :func:`blgi.protocol.exact_mean`,
* :func:`lhv_records_reference` is the hidden-variable sampler written as
  one expression per array, the reference for the in-place
  :func:`blgi.lhv.lhv_records`,
* :func:`apply_instrument` applies the instrument of what a record shows
  of one stage (:func:`gaussian_terms`, :func:`gaussian_sign_terms`,
  :func:`ancilla_terms`, :func:`readout_terms`), whose trace is the
  probability that :func:`blgi.measurement.sample_records` draws each
  outcome with, and :func:`record_sign_law` is the law of a record's signs,
* :func:`write_records_reference` is the records writer joined field by
  field, the reference for :func:`blgi.cli._write_records`.
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
)
from blgi.protocol import ExperimentConfig

ORTHONORMALITY_TOL = 1e-12
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-9

IDENTITY_2 = np.eye(2, dtype=complex)


def _signs(mask: np.ndarray) -> np.ndarray:
    """+1.0 where the bool ``mask`` holds, else -1.0."""
    return np.where(mask, 1.0, -1.0)


def _squared(x: float) -> float:
    """``x**2``, or ``inf`` where that overflows: Python's float ``**`` raises instead."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def embed(op: np.ndarray, arm: int) -> np.ndarray:
    """Lift a single-qubit operator to the pair: ``op (x) I`` or ``I (x) op``."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"single-qubit operator must be 2x2, got shape {op.shape}")
    if arm == 1:
        return np.kron(op, IDENTITY_2)
    if arm == 2:
        return np.kron(IDENTITY_2, op)
    raise ValueError(f"arm must be 1 or 2, got {arm}")


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


def flat_hermite(order: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Pointer values and flat weights for integrating ``f(alpha) d alpha``.

    numpy's Gauss-Hermite rule of ``order`` nodes, scaled to a pointer of
    width ``sigma``: values ``sqrt(2) sigma x`` and weights
    ``sqrt(2) sigma w exp(x^2)``, keeping only the nodes whose weight
    ``w`` is above 0.  ``hermgauss`` overflows from 371 nodes (numpy 2.4),
    and the suite fails on that warning, so 300 is the largest order it uses.
    """
    x, w = np.polynomial.hermite.hermgauss(order)
    keep = w > 0
    x, w = x[keep], w[keep]
    scale = math.sqrt(2.0) * sigma
    return scale * x, scale * np.exp(np.log(w) + x * x)


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
    terms = [(0.5 * (1.0 + factor), np.eye(4)), (0.5 * (1.0 - factor), embed(basis.observable, arm))]
    return TwoQubitState.from_rho(apply_instrument(state.rho, terms))


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
# The exact mean as four 4x4 traces on the Bell pair's density matrix: the
# Schroedinger-picture reference for the 2x2 pairings of
# :func:`blgi.protocol.exact_mean`.
# ---------------------------------------------------------------------------


def _projectors(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """The single-qubit projectors onto analyzer ``phi``'s ``ket0`` and ``ket1``."""
    c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
    ket0 = np.array([c, s], dtype=complex)
    ket1 = np.array([-s, c], dtype=complex)
    return np.outer(ket0, ket0.conj()), np.outer(ket1, ket1.conj())


def _arm_moments(spec: MeterSpec, phi: float, arm: int):
    """Zeroth and first outcome moments of one weak arm, as maps on rho."""
    p0, p1 = (embed(projector, arm) for projector in _projectors(phi))
    xi = spec.dephasing_factor

    def zeroth(rho: np.ndarray) -> np.ndarray:
        return p0 @ rho @ p0 + p1 @ rho @ p1 + xi * (p0 @ rho @ p1 + p1 @ rho @ p0)

    def first(rho: np.ndarray) -> np.ndarray:
        return p0 @ rho @ p0 - p1 @ rho @ p1

    return zeroth, first


def exact_mean_reference(config: ExperimentConfig) -> float:
    """``Tr[SS] + v*Tr[R2 SD] + v*Tr[R1 DS] - v^2*Tr[R1 R2 DD]`` on the Bell pair's ``rho``.

    ``XY`` is the Bell state after moment map X on arm 1 and map Y on arm
    2, ``D``/``S`` the zeroth/first moment maps and ``R_k`` the readout
    observable on arm k.
    """
    phi_a1, phi_a2, phi_b1, phi_b2 = config.angles
    zeroth1, first1 = _arm_moments(config.meter1, phi_a1, 1)
    zeroth2, first2 = _arm_moments(config.meter2, phi_a2, 2)
    readout1 = embed(np.subtract(*_projectors(phi_b1)), 1)
    readout2 = embed(np.subtract(*_projectors(phi_b2)), 2)
    v = config.b_spec.v

    psi = np.array(BELL_AMPLITUDES, dtype=complex)
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
# The instruments of what a record shows.  A record holds each weak signal
# and each reported readout, so each stage's instrument is its Kraus updates
# averaged over what the record does not show: the excess dephasing of a
# Gaussian meter with eta < 1, the ancilla branch behind its reported sign
# and a readout's true sign behind its reported one.  Each is a list of terms
# (w, K) of the map rho -> sum w K rho K^dag, whose trace is the probability
# of the outcome, on one 4x4 density matrix or on a stack of them, one per
# shot.
# ---------------------------------------------------------------------------


def apply_instrument(rho: np.ndarray, terms: list) -> np.ndarray:
    """``sum w K rho K^dag`` over the ``(w, K)`` of ``terms``, unnormalised.

    ``rho`` has shape ``(..., 4, 4)``, each ``K`` is 4x4, and each weight
    is a float or one per matrix.  Each product is one matrix product of
    the flattened matrices: ``K rho K^dag`` flattens to ``(K (x) conj(K))``
    times the flattened ``rho``, a real matrix for a real ``K``, so a real
    ``rho`` stays real.
    """
    flat = rho.reshape(*rho.shape[:-2], 16)
    # a copy: numpy multiplies by a strided transpose of a real part without BLAS
    total = sum(
        np.asarray(weight)[..., None] * (flat @ np.real_if_close(np.kron(kraus, kraus.conj())).T.copy())
        for weight, kraus in terms
    )
    return total.reshape(*total.shape[:-1], 4, 4)


def _diagonal_terms(weight0, weight1, coherence, arm: int, basis: AnalyzerBasis) -> list:
    """``weight0 P0 rho P0 + weight1 P1 rho P1 + coherence (P0 rho P1 + P1 rho P0)`` on ``arm``.

    ``P0 rho P1 + P1 rho P0`` is ``(rho - O rho O)/2`` with the analyzer's observable ``O``.
    """
    return [
        (weight0, embed(basis.projector0, arm)),
        (weight1, embed(basis.projector1, arm)),
        (np.multiply(coherence, 0.5), np.eye(4)),
        (np.multiply(coherence, -0.5), embed(basis.observable, arm)),
    ]


def gaussian_terms(alpha, spec: GaussianMeterSpec, arm: int, basis: AnalyzerBasis) -> list:
    """Pointer value(s) ``alpha``: the Kraus update ``k0 P0 + k1 P1``, then the excess dephasing of ``eta < 1``.

    ``k0, k1`` are :func:`gaussian_kraus`'s entries over the larger one,
    ``exp(min(t, 0))`` and ``exp(-max(t, 0))`` with ``t = alpha/sigma^2``:
    the same update, and finite where ``sigma**2`` overflows.  The
    dephasing, :func:`apply_dephasing`'s channel, scales the coherences by
    :attr:`GaussianMeterSpec.excess_dephasing_factor`.
    """
    t = np.asarray(alpha, dtype=float) / spec.variance
    k0, k1 = np.exp(np.minimum(t, 0.0)), np.exp(-np.maximum(t, 0.0))
    return _diagonal_terms(k0 * k0, k1 * k1, k0 * k1 * spec.excess_dephasing_factor, arm, basis)


def gaussian_sign_terms(sign: float, spec: GaussianMeterSpec, arm: int, basis: AnalyzerBasis) -> list:
    """The sign of the pointer value: the Gaussian instrument integrated over ``sign * alpha > 0``.

    ``P0 rho P0`` is weighted by ``Phi(sign/sigma)``, ``P1 rho P1`` by
    ``Phi(-sign/sigma)``, and the coherences by ``exp(-1/(2 sigma^2))/2``
    times the excess factor of ``eta < 1``.
    """
    # Phi(x) = erfc(-x/sqrt(2))/2
    z = sign / (spec.sigma * math.sqrt(2.0))
    coherence = math.exp(-0.5 / spec.variance) * spec.excess_dephasing_factor / 2.0
    return _diagonal_terms(0.5 * math.erfc(-z), 0.5 * math.erfc(z), coherence, arm, basis)


def ancilla_terms(report, spec: AncillaMeterSpec, arm: int, basis: AnalyzerBasis) -> list:
    """Reported sign(s) ``report``: each branch's update, weighted by its chance ``(1 +/- u)/2`` of that report."""
    report = np.asarray(report, dtype=float)
    return [
        ((1.0 + spec.u * branch * report) / 2.0, embed(ancilla_kraus(branch, spec.v_ent, basis), arm))
        for branch in (+1, -1)
    ]


def readout_terms(report, spec: ProjectiveMeterSpec, arm: int, basis: AnalyzerBasis) -> list:
    """Reported sign(s) ``report``: each projection, weighted by its chance ``(1 +/- v)/2`` of that report."""
    report = np.asarray(report, dtype=float)
    return [
        ((1.0 + spec.v * sign * report) / 2.0, embed(projector, arm))
        for sign, projector in ((+1, basis.projector0), (-1, basis.projector1))
    ]


def record_sign_law(config: ExperimentConfig) -> np.ndarray:
    """The probability of each ``(sign alpha1, sign alpha2, b1, b2)`` of a record, index 0 for +1.

    An ancilla signal's sign is its reported sign; a Gaussian signal is
    zero with probability zero.
    """
    bases = [analyzer_basis(phi) for phi in config.angles]
    law = np.empty((2, 2, 2, 2))
    for index in np.ndindex(law.shape):
        signs = [1.0 - 2.0 * i for i in index]
        rho = bell_state().rho
        for arm, spec in ((1, config.meter1), (2, config.meter2)):
            terms = gaussian_sign_terms if isinstance(spec, GaussianMeterSpec) else ancilla_terms
            rho = apply_instrument(rho, terms(signs[arm - 1], spec, arm, bases[arm - 1]))
        for arm in (1, 2):
            rho = apply_instrument(rho, readout_terms(signs[arm + 1], config.b_spec, arm, bases[arm + 1]))
        law[index] = np.trace(rho).real
    return law


# ---------------------------------------------------------------------------
# The records writer as it formatted field by field: every 2048-row block's
# columns go through a sort.  :func:`blgi.cli._write_records` must write the
# same text byte for byte.
# ---------------------------------------------------------------------------

#: what follows each of a record's four fields
_RECORD_ENDS = (",", ",", ",", "\n")
_RECORD_BLOCK = 2048


def write_records_reference(handle, records: tuple[np.ndarray, ...]) -> None:
    """Write one chunk's records, formatting each distinct value of a block's column once."""
    for start in range(0, len(records[0]), _RECORD_BLOCK):
        block = [values[start:start + _RECORD_BLOCK] for values in records]
        fields = np.empty((len(block[0]), len(block)), dtype=object)
        for column, (values, end) in enumerate(zip(block, _RECORD_ENDS)):
            bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
            # one % call formats the distinct values; "\0" never occurs in their text
            text = ((f"%.17g{end}\0" * len(bits)) % tuple(bits.view(np.float64).tolist())).split("\0")
            fields[:, column] = np.array(text, dtype=object)[inverse]
        handle.write("".join(fields.ravel().tolist()))
