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
implementation, :func:`sample_records`: four elementwise stages (weak arm 1,
weak arm 2, readout arm 1, readout arm 2) with a fixed RNG draw order, each
the ``draw`` method of its arm's spec.  A meter kind is one spec class: its
fields, its dephasing factor, its signal moments and its stage.  No shot
carries a state: each stage draws its outcome from the measured arm's Bloch
component along its analyzer, which the Bell pair gives in closed form from
the effects the earlier outcomes left, as the shot-kernel comment below lays
out.  Every sampler takes an explicit ``numpy.random.Generator`` and is safe
to drive from disjoint RNG substreams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np


@dataclass(frozen=True)
class GaussianMeterSpec:
    """Gaussian pointer meter: signal std ``sigma`` > 0, efficiency ``eta`` in (0, 1].

    Each field's ``help`` metadata follows the kind name in its command-line help.
    """

    label: ClassVar[str] = "Gaussian"

    sigma: float = field(default=1.0, metadata={"help": "signal std per eigenstate"})
    eta: float = field(default=1.0, metadata={"help": "meter quantum efficiency"})

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

    @property
    def dephasing_factor(self) -> float:
        """Coherence damping of the outcome-averaged back-action, ``exp(-1/(2 sigma^2 eta))``.

        The projective-readout visibility factor ``v`` is applied by the
        caller, not here.
        """
        width = 2.0 * self.variance * self.eta
        # a product that underflows to zero is a full collapse
        return float(np.exp(-1.0 / width)) if width > 0.0 else 0.0

    @property
    def excess_dephasing_factor(self) -> float:
        """Extra damping applied after the quantum-limited update when ``eta < 1``.

        Chosen so that the total average damping is :attr:`dephasing_factor`.
        """
        return float(np.exp(-(1.0 / (2.0 * self.variance)) * (1.0 / self.eta - 1.0)))

    def draw(self, bloch, rng: np.random.Generator, n: int, workspace: Workspace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Weakly measure, in ``n`` shots, an arm whose Bloch component along the analyzer is ``bloch``.

        ``bloch`` is ``<P0 - P1>`` on the arm's state given every earlier
        outcome, a float or one per shot: 0 on an arm of the Bell pair,
        ``cos(phi)`` on ``|0>``.  Returns ``(signals, length, coherence)``:
        the signals and the effect each outcome leaves on the arm, its Bloch
        length ``T`` and coherence ``g`` (see the shot-kernel comment).
        ``bloch`` is left alone, and the arrays returned are buffers of
        ``workspace``.

        Draw order: one uniform block (mixture component) and one normal
        block (pointer value).  Only what the signal shows is drawn: where
        ``eta < 1`` the coherence is scaled by :attr:`excess_dephasing_factor`.
        """
        threshold = _affine(bloch, 0.5, 0.5, workspace)
        signals = _coin(threshold, rng, workspace.take(n))
        workspace.give(threshold)
        normal = rng.standard_normal(out=workspace.take(n))
        signals += np.multiply(self.sigma, normal, out=normal)
        workspace.give(normal)
        length, coherence = _gaussian_effect(signals, self.variance, workspace)
        if self.eta < 1.0:
            coherence *= self.excess_dephasing_factor
        return signals, length, coherence


@dataclass(frozen=True)
class AncillaMeterSpec:
    """Ancilla meter: total visibility ``v_total`` in (0, 1], readout visibility ``u``.

    ``v_total <= u`` always; the entangling strength is ``v_total / u``.
    """

    label: ClassVar[str] = "ancilla"

    v_total: float = field(default=1.0, metadata={"help": "total visibility"})
    u: float = field(default=1.0, metadata={"help": "readout visibility"})

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

    @property
    def dephasing_factor(self) -> float:
        """As :attr:`GaussianMeterSpec.dephasing_factor`, here ``sqrt(1 - (v_total/u)^2)``."""
        return float(np.sqrt(max(1.0 - self.v_ent**2, 0.0)))

    def draw(self, bloch, rng: np.random.Generator, n: int, workspace: Workspace) -> tuple[np.ndarray, np.ndarray, float]:
        """Weakly measure, in ``n`` shots, an arm whose Bloch component along the analyzer is ``bloch``.

        As :meth:`GaussianMeterSpec.draw`, except that the coherence is one
        float, :attr:`dephasing_factor`.  Draw order: one uniform block
        (reported sign).  Only what the signal shows is drawn: the branch
        behind the ``u`` flip is averaged out, so the reported sign is +
        with probability ``(1 + v_total b)/2`` and leaves ``T = +/-v_total``.
        """
        threshold = _affine(bloch, self.v_total / 2.0, 0.5, workspace)
        length = _coin(threshold, rng, workspace.take(n), self.v_total)
        workspace.give(threshold)
        # +/-1/v_total by the reported sign; a Python-float reciprocal
        # overflows to inf without a numpy warning
        signals = np.copysign(1.0 / self.v_total, length, out=workspace.take(n))
        return signals, length, self.dephasing_factor


@dataclass(frozen=True)
class ProjectiveMeterSpec:
    """Projective readout with visibility ``v`` in [0, 1]."""

    label: ClassVar[str] = "projective"

    v: float = field(default=1.0, metadata={"help": "readout visibility"})

    def __post_init__(self):
        if not (0.0 <= self.v <= 1.0):
            raise ValueError(f"v must be in [0, 1], got {self.v}")

    def draw(self, bloch, rng: np.random.Generator, n: int, workspace: Workspace) -> np.ndarray:
        """Projectively read out, in ``n`` shots, an arm whose Bloch component along the analyzer is ``bloch``.

        Returns the reported signs, +1.0 for ``ket0``.  The true sign, flipped
        with probability ``(1 - v)/2``, is never formed: the reported one is
        one coin, +1.0 with probability ``(1 + v b)/2``.  ``bloch`` is left
        alone, and the array is a buffer of ``workspace``, as in
        :meth:`GaussianMeterSpec.draw`.  Draw order: one uniform block
        (reported sign).
        """
        threshold = _affine(bloch, self.v / 2.0, 0.5, workspace)
        reported = _coin(threshold, rng, workspace.take(n))
        workspace.give(threshold)
        return reported


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


# ---------------------------------------------------------------------------
# The shot kernel.
#
# No shot carries a state.  Every operator here is real, and on the Bell
# pair an operator on arm 1 acts on arm 2 as its transpose,
# (K (x) I)|Phi+> = (I (x) K^T)|Phi+>, so every joint probability of the
# protocol is a pairing <A (x) B> = Tr(A B)/2 of one real symmetric 2x2
# effect per arm, and each stage's outcome is drawn from the conditional
# law that these pairings give in closed form.  In an arm's analyzer frame
# (Z = P0 - P1, X = |ket0><ket1| + |ket1><ket0|) a weak outcome with Kraus
# operator K = k0 P0 + k1 P1 leaves K K ~ I + T Z, and what the arm's readout
# P later sees is K P K, which needs one more number, K X K ~ g X.
#
# Only what a record shows is drawn.  Every joint probability is linear in
# each arm's effect, so a branch that the record does not show is averaged
# into the effect instead of drawn: the excess dephasing of eta < 1 scales g,
# the ancilla branch behind its reported sign weights its two effects by
# (1 +/- u)/2, and a readout's true sign behind its reported one weights its
# two projections by (1 +/- v)/2.  So each weak spec's draw leaves two
# per-shot numbers on its arm:
#
#   Gaussian  T = tanh(t), g = sech(t) with t = alpha/sigma^2 (k0/k1 = e^t),
#             g times excess_dephasing_factor where eta < 1;
#   ancilla   T = +/-v_total (u v_ent) by the reported sign, g = Xi, one float.
#
# Every stage, the draw method of its arm's spec (GaussianMeterSpec.draw,
# AncillaMeterSpec.draw, ProjectiveMeterSpec.draw), draws its reported
# outcome from the measured arm's Bloch component b along its analyzer, given
# all earlier outcomes: ket0 is reported with probability (1 + b)/2 by a weak
# Gaussian stage, the ancilla's + sign with (1 + v_total b)/2 and a readout's
# + with (1 + v b)/2.  With D = a2 - a1, c1, s1 = cos, sin(b1 - a1) and
# c2, s2 = cos, sin(b2 - a2):
#
#   weak arm 1     b = 0
#   weak arm 2     b = T1 cos D
#   readout arm 1  b = (c1 T1 + A1 T2) / (1 + cos D T1 T2),  A1 = c1 cos D + s1 sin D g1
#   readout arm 2  b = (c2 T2 f0 + A2 fz + B2 fx) / ((1 + cos D T1 T2)(1 + r b3)),
#                  A2 = c2 cos D - s2 sin D g2,  B2 = c2 sin D + s2 cos D g2
#
# where r = v b1 is arm 1's reported readout times the visibility, b3 the
# Bloch component it was drawn from, and (f0, fz, fx) = (1 + r c1 T1,
# T1 + r c1, r s1 g1) arm 1's effect after that report, K1 (I + r Z) K1 ~
# f0 I + fz Z + fx X, paired with arm 2's effect in arm 2's frame.
#
# A Gaussian chunk with eta < 1 on both arms takes 71 elementwise float
# passes besides its 4 uniform and 2 normal blocks, and an ancilla chunk 45
# besides its 4 uniform blocks.  The tests draw the same uniforms and
# normals again and check each outcome against the probability of the
# instrument of what the record shows, on 4x4 density matrices in
# ``tests/oracle.py``.
#
# Every array is a float64 buffer of a Workspace that a stage writes
# through ``out=`` and gives back once it is summed or compared.  Every
# +/-1 outcome is one coin: a uniform block compared with its threshold and
# written over by +/-value, in one buffer, so no stage hands out a 0.0/1.0
# mask.  Scalars broadcast: a Bloch component or a coherence shared by every
# shot is one float.
# ---------------------------------------------------------------------------

#: the Bell pair Phi+ in the joint basis |00>, |01>, |10>, |11> (see :mod:`blgi.qmath`)
BELL_AMPLITUDES = (1.0 / math.sqrt(2.0), 0.0, 0.0, 1.0 / math.sqrt(2.0))


class Workspace:
    """Float64 buffers of ``size`` entries that the record kernel reuses.

    :meth:`take` hands out the first ``n`` entries of a free buffer and
    allocates a buffer only when every one is in use;
    :meth:`give` frees what :meth:`take` handed out, and :meth:`reset`
    frees every buffer.  So a caller that keeps one workspace from chunk
    to chunk allocates only during its first chunk, as many buffers as
    the kernel holds at its peak.
    """

    def __init__(self, size: int):
        self.size = size
        self._buffers: list[np.ndarray] = []
        self._free: list[np.ndarray] = []

    def take(self, n: int) -> np.ndarray:
        """The first ``n`` entries of a free buffer, contents undefined."""
        if n > self.size:
            raise ValueError(f"a workspace of {self.size} entries cannot hold {n}")
        if not self._free:
            self._buffers.append(np.empty(self.size))
            self._free.append(self._buffers[-1])
        return self._free.pop()[:n]

    def give(self, *arrays) -> None:
        """Free the buffers behind ``arrays``, each from :meth:`take`; floats are skipped."""
        self._free.extend(array.base for array in arrays if isinstance(array, np.ndarray))

    def reset(self) -> None:
        """Free every buffer, whatever still holds views of it."""
        self._free = list(self._buffers)


def _cos_sin(phi_from: float, phi_to: float) -> tuple[float, float]:
    """``cos`` and ``sin`` of ``phi_to - phi_from``, from each angle's own: no difference is rounded."""
    c_from, s_from = math.cos(phi_from), math.sin(phi_from)
    c_to, s_to = math.cos(phi_to), math.sin(phi_to)
    return c_to * c_from + s_to * s_from, s_to * c_from - c_to * s_from


def _affine(x, scale: float, offset: float, workspace: Workspace, out: np.ndarray | None = None):
    """``x*scale + offset``: a float for a float ``x``, else written over ``out`` or a new buffer."""
    if not isinstance(x, np.ndarray):
        return x * scale + offset
    y = np.multiply(x, scale, out=workspace.take(x.size) if out is None else out)
    y += offset
    return y


def _coin(threshold, rng: np.random.Generator, out: np.ndarray, value: float = 1.0) -> np.ndarray:
    """``value`` where a uniform drawn into ``out`` lies below ``threshold``, else ``-value``, written over ``out``.

    The compare stays in float64, so no bool buffer is cast, and a NaN
    threshold, like ``u < NaN``, is never reached.  ``2*value`` must be finite.
    """
    rng.random(out=out)
    np.less(out, threshold, out=out)
    out *= 2.0 * value
    out -= value
    return out


def _gaussian_effect(signals: np.ndarray, variance: float, workspace: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """``tanh(t)`` and ``sech(t)`` of ``t = signals/variance``, each a new buffer."""
    t = np.divide(signals, variance, out=workspace.take(signals.size))
    length = np.tanh(t, out=workspace.take(signals.size))
    # sech(t) = exp(-|t|) * (1 + |tanh(t)|): no exponent is positive, so nothing overflows
    coherence = np.abs(length, out=workspace.take(signals.size))
    coherence += 1.0
    coherence *= np.exp(np.negative(np.abs(t, out=t), out=t), out=t)
    workspace.give(t)
    return length, coherence


def sample_records(
    n: int,
    meter1: MeterSpec,
    meter2: MeterSpec,
    readout: ProjectiveMeterSpec,
    angles: tuple[float, float, float, float],
    rng: np.random.Generator,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``n`` shots of the full protocol from the Bell pair: ``(alpha1, alpha2, b1, b2)``.

    ``angles`` are the analyzers ``(a1, a2, b1, b2)`` in radians; a
    non-finite one raises ValueError.  Stages and draws run in the order
    weak arm 1, weak arm 2, readout arm 1, readout arm 2, each drawn from
    the Bloch component the shot-kernel comment gives.

    Every array of the chunk, the four records included, is a buffer of
    ``workspace``, which is reset first; without one, a new workspace of
    ``n`` entries is used and the records are the caller's own.  A
    caller that passes one workspace chunk after chunk allocates nothing
    after the first, and each call overwrites the records of the last:
    copy any it keeps.
    """
    phi_a1, phi_a2, phi_b1, phi_b2 = angles
    for phi in angles:
        if not np.isfinite(phi):
            raise ValueError(f"analyzer angle must be finite, got {phi}")
    workspace = Workspace(n) if workspace is None else workspace
    workspace.reset()
    cos_d, sin_d = _cos_sin(phi_a1, phi_a2)
    c1, s1 = _cos_sin(phi_a1, phi_b1)
    c2, s2 = _cos_sin(phi_a2, phi_b2)

    alpha1, t1, g1 = meter1.draw(0.0, rng, n, workspace)
    bloch = np.multiply(t1, cos_d, out=workspace.take(n))
    alpha2, t2, g2 = meter2.draw(bloch, rng, n, workspace)

    # readout arm 1: b3 = (c1 T1 + A1 T2) / norm with norm = 1 + cos D T1 T2
    coeff_a1 = _affine(g1, s1 * sin_d, c1 * cos_d, workspace)
    bloch = np.multiply(t2, coeff_a1, out=bloch)
    workspace.give(coeff_a1)
    norm = np.multiply(t1, c1, out=workspace.take(n))
    bloch += norm
    norm = np.multiply(t1, t2, out=norm)
    norm *= cos_d
    norm += 1.0
    bloch /= norm
    b1 = readout.draw(bloch, rng, n, workspace)
    sign = np.multiply(b1, readout.v, out=workspace.take(n))  # r = v b1
    # arm 2's normaliser: norm * (1 + r b3)
    bloch *= sign
    bloch += 1.0
    norm *= bloch
    workspace.give(bloch)

    # readout arm 2: b4 = (c2 T2 f0 + A2 fz + B2 fx) / norm; g1, g2 and t1 are written over
    coeff_a2 = _affine(g2, -s2 * sin_d, c2 * cos_d, workspace)
    coeff_b2 = _affine(g2, s2 * cos_d, c2 * sin_d, workspace, out=g2)
    fx = np.multiply(sign, g1, out=g1 if isinstance(g1, np.ndarray) else workspace.take(n))
    fx *= s1
    fx *= coeff_b2
    workspace.give(coeff_b2)
    sign *= c1
    bloch = np.multiply(sign, t1, out=workspace.take(n))
    bloch += 1.0  # f0
    fz = np.add(t1, sign, out=t1)
    workspace.give(sign)
    bloch *= t2
    bloch *= c2
    fz *= coeff_a2
    bloch += fz
    bloch += fx
    bloch /= norm
    workspace.give(fz, fx, coeff_a2, t2, norm)
    b2 = readout.draw(bloch, rng, n, workspace)
    workspace.give(bloch)
    return alpha1, alpha2, b1, b2
