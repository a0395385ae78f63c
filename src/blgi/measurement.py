"""Weak and projective qubit measurement models with per-shot sampling.

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

All samplers take an explicit ``numpy.random.Generator``; they are pure in
the state argument and safe to drive from disjoint RNG substreams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmath import AnalyzerBasis, TwoQubitState, ZeroProbabilityError, apply_operator, embed


@dataclass(frozen=True)
class GaussianMeterSpec:
    """Gaussian pointer meter: signal std ``sigma`` > 0, efficiency ``eta`` in (0, 1]."""

    sigma: float
    eta: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")

    @property
    def variance(self) -> float:
        """``sigma**2``, or ``inf`` where that overflows a float."""
        return _squared(self.sigma)


@dataclass(frozen=True)
class AncillaMeterSpec:
    """Ancilla meter: total visibility ``v_total`` in (0, 1], readout visibility ``u``.

    ``v_total <= u`` always; the entangling strength is ``v_total / u``.
    """

    v_total: float
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


@dataclass(frozen=True)
class ProjectiveMeterSpec:
    """Projective readout with visibility ``v`` in [0, 1]."""

    v: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.v <= 1.0):
            raise ValueError(f"v must be in [0, 1], got {self.v}")


@dataclass(frozen=True)
class MeterOutcome:
    """One sampled measurement: recorded signal, post-state, branch weight.

    ``branch_weight`` is a probability for discrete meters.  For the
    Gaussian meter it is the probability *density* of the drawn signal and
    may exceed 1 when sigma is small.
    """

    signal: float
    post_state: TwoQubitState
    branch_weight: float


MeterSpec = GaussianMeterSpec | AncillaMeterSpec


def _squared(x: float) -> float:
    # Python's float ``**`` raises OverflowError instead of returning inf
    try:
        return x**2
    except OverflowError:
        return math.inf


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


def dephasing_factor(spec: MeterSpec) -> float:
    """Coherence damping of the outcome-averaged meter back-action.

    Gaussian: ``exp(-1/(2 sigma^2 eta))``.  Ancilla:
    ``sqrt(1 - (v_total/u)^2)``.  The projective-readout visibility factor
    ``v`` is applied by the caller, not here.
    """
    if isinstance(spec, GaussianMeterSpec):
        return float(np.exp(-1.0 / (2.0 * spec.variance * spec.eta)))
    if isinstance(spec, AncillaMeterSpec):
        return float(np.sqrt(max(1.0 - spec.v_ent**2, 0.0)))
    raise TypeError(f"unsupported meter spec {type(spec).__name__}")


def excess_dephasing_factor(spec: GaussianMeterSpec) -> float:
    """Extra damping applied after the quantum-limited update when ``eta < 1``.

    Chosen so that the total average damping is ``exp(-1/(2 sigma^2 eta))``.
    """
    return float(np.exp(-(1.0 / (2.0 * spec.variance)) * (1.0 / spec.eta - 1.0)))


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


def _arm_population(state: TwoQubitState, arm: int, basis: AnalyzerBasis) -> float:
    proj = embed(basis.projector0, arm)
    return float(np.clip(np.trace(proj @ state.rho).real, 0.0, 1.0))


def sample_gaussian(
    state: TwoQubitState,
    arm: int,
    spec: GaussianMeterSpec,
    basis: AnalyzerBasis,
    rng: np.random.Generator,
) -> MeterOutcome:
    """Draw one Gaussian-meter shot on ``arm`` and update the state.

    The signal comes from the exact marginal, a two-component Gaussian
    mixture centered on the eigenvalues +/-1 and weighted by the arm's
    populations in ``basis``.  The post-state is the renormalized Kraus
    update followed by the excess dephasing channel when ``eta < 1``.
    """
    p0 = _arm_population(state, arm, basis)
    center = 1.0 if rng.random() < p0 else -1.0
    alpha = center + spec.sigma * rng.standard_normal()
    weight, post = apply_operator(state, embed(gaussian_kraus(alpha, spec.sigma, basis), arm))
    if spec.eta < 1.0:
        post = apply_dephasing(post, arm, excess_dephasing_factor(spec), basis)
    return MeterOutcome(signal=float(alpha), post_state=post, branch_weight=weight)


def sample_ancilla(
    state: TwoQubitState,
    arm: int,
    spec: AncillaMeterSpec,
    basis: AnalyzerBasis,
    rng: np.random.Generator,
) -> MeterOutcome:
    """Draw one ancilla-meter shot on ``arm`` and update the state.

    The +/- branch is chosen from the back-action operators at entangling
    strength ``v_total/u``; the reported ancilla sign is then flipped with
    probability ``(1-u)/2`` and rescaled to ``sign/v_total``, which makes
    the signal mean equal to the measured observable exactly.
    """
    kraus_plus = embed(ancilla_kraus(+1, spec.v_ent, basis), arm)
    p_plus = float(np.clip(np.trace(kraus_plus @ state.rho @ kraus_plus.conj().T).real, 0.0, 1.0))
    sign = +1 if rng.random() < p_plus else -1
    try:
        weight, post = apply_operator(state, embed(ancilla_kraus(sign, spec.v_ent, basis), arm))
    except ZeroProbabilityError:
        # the drawn branch is numerically empty, so the other one is certain
        sign = -sign
        weight, post = apply_operator(state, embed(ancilla_kraus(sign, spec.v_ent, basis), arm))
    reported = -sign if rng.random() < (1.0 - spec.u) / 2.0 else sign
    return MeterOutcome(signal=reported / spec.v_total, post_state=post, branch_weight=weight)


def projective_sample(
    state: TwoQubitState,
    arm: int,
    spec: ProjectiveMeterSpec,
    basis: AnalyzerBasis,
    rng: np.random.Generator,
) -> MeterOutcome:
    """Draw one projective readout on ``arm`` with visibility ``spec.v``.

    The post-state is the projection onto the *true* outcome; only the
    reported sign suffers the misidentification flip.
    """
    p0 = _arm_population(state, arm, basis)
    outcome = +1 if rng.random() < p0 else -1
    projector = basis.projector0 if outcome == +1 else basis.projector1
    try:
        weight, post = apply_operator(state, embed(projector, arm))
    except ZeroProbabilityError:
        outcome = -outcome
        projector = basis.projector0 if outcome == +1 else basis.projector1
        weight, post = apply_operator(state, embed(projector, arm))
    reported = -outcome if rng.random() < (1.0 - spec.v) / 2.0 else outcome
    return MeterOutcome(signal=float(reported), post_state=post, branch_weight=weight)


# ---------------------------------------------------------------------------
# Vectorized shot kernels.
#
# The batch samplers below draw many shots at once.  They propagate each
# shot as a real (2, 2) amplitude matrix C with |psi> = sum_kl C[k,l] |k,l>
# (analyzer kets and meter operators are all real here, and the excess
# dephasing channel for eta < 1 is realized as a stochastic phase flip,
# which is the same channel in expectation).  The per-shot *record* law is
# identical to the single-shot samplers above; only the internal state
# representation differs.
# ---------------------------------------------------------------------------


def _arm_matmul(coeff: np.ndarray, arm: int, op: np.ndarray) -> np.ndarray:
    if arm == 1:
        return np.einsum("ab,nbc->nac", op, coeff)
    return np.einsum("nab,cb->nac", coeff, op)


def _real_projectors(basis: AnalyzerBasis) -> tuple[np.ndarray, np.ndarray]:
    return basis.projector0.real, basis.projector1.real


def _renormalize(coeff: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.einsum("nab,nab->n", coeff, coeff))
    return coeff / norms[:, None, None]


def bell_coefficients(n: int) -> np.ndarray:
    """Amplitude matrices of ``n`` copies of the maximally entangled pair."""
    coeff = np.eye(2) / np.sqrt(2.0)
    return np.broadcast_to(coeff, (n, 2, 2)).copy()


def sample_gaussian_batch(
    coeff: np.ndarray,
    arm: int,
    spec: GaussianMeterSpec,
    basis: AnalyzerBasis,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Gaussian-meter shots; returns ``(signals, new_coeff)``.

    Draw order per call: one uniform block (mixture component), one normal
    block (pointer value), and, only when ``eta < 1``, one uniform block
    (stochastic phase flip).
    """
    proj0, _ = _real_projectors(basis)
    projected = _arm_matmul(coeff, arm, proj0)
    p0 = np.einsum("nab,nab->n", projected, projected)
    centers = np.where(rng.random(p0.size) < p0, 1.0, -1.0)
    alpha = centers + spec.sigma * rng.standard_normal(p0.size)
    g0 = np.exp(-((alpha - 1.0) ** 2) / (4.0 * spec.variance))
    g1 = np.exp(-((alpha + 1.0) ** 2) / (4.0 * spec.variance))
    coeff = g0[:, None, None] * projected + g1[:, None, None] * (coeff - projected)
    coeff = _renormalize(coeff)
    if spec.eta < 1.0:
        factor = excess_dephasing_factor(spec)
        flip = rng.random(p0.size) < 0.5 * (1.0 - factor)
        flipped = _arm_matmul(coeff, arm, basis.observable.real)
        coeff = np.where(flip[:, None, None], flipped, coeff)
    return alpha, coeff


def sample_ancilla_batch(
    coeff: np.ndarray,
    arm: int,
    spec: AncillaMeterSpec,
    basis: AnalyzerBasis,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ancilla-meter shots; returns ``(signals, new_coeff)``.

    Draw order per call: one uniform block (branch), one uniform block
    (readout flip).
    """
    proj0, proj1 = _real_projectors(basis)
    v_ent = spec.v_ent
    m_plus = np.sqrt(0.5 + v_ent / 2.0) * proj0 + np.sqrt(0.5 - v_ent / 2.0) * proj1
    m_minus = np.sqrt(0.5 - v_ent / 2.0) * proj0 + np.sqrt(0.5 + v_ent / 2.0) * proj1
    plus_branch = _arm_matmul(coeff, arm, m_plus)
    p_plus = np.einsum("nab,nab->n", plus_branch, plus_branch)
    took_plus = rng.random(p_plus.size) < p_plus
    sign = np.where(took_plus, 1.0, -1.0)
    coeff = np.where(took_plus[:, None, None], plus_branch, _arm_matmul(coeff, arm, m_minus))
    coeff = _renormalize(coeff)
    reported = np.where(rng.random(sign.size) < (1.0 - spec.u) / 2.0, -sign, sign)
    return reported / spec.v_total, coeff


def sample_projective_batch(
    coeff: np.ndarray,
    arm: int,
    spec: ProjectiveMeterSpec,
    basis: AnalyzerBasis,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projective readout; returns ``(signals, new_coeff)``.

    Draw order per call: one uniform block (outcome), one uniform block
    (misidentification flip).
    """
    proj0, _ = _real_projectors(basis)
    projected = _arm_matmul(coeff, arm, proj0)
    p0 = np.einsum("nab,nab->n", projected, projected)
    hit0 = rng.random(p0.size) < p0
    outcome = np.where(hit0, 1.0, -1.0)
    coeff = np.where(hit0[:, None, None], projected, coeff - projected)
    coeff = _renormalize(coeff)
    reported = np.where(rng.random(outcome.size) < (1.0 - spec.v) / 2.0, -outcome, outcome)
    return reported, coeff


def sample_weak_batch(
    coeff: np.ndarray,
    arm: int,
    spec: MeterSpec,
    basis: AnalyzerBasis,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch to the Gaussian or ancilla batch sampler by spec type."""
    if isinstance(spec, GaussianMeterSpec):
        return sample_gaussian_batch(coeff, arm, spec, basis, rng)
    if isinstance(spec, AncillaMeterSpec):
        return sample_ancilla_batch(coeff, arm, spec, basis, rng)
    raise TypeError(f"unsupported meter spec {type(spec).__name__}")
