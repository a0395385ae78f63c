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
weak arm 2, readout arm 1, readout arm 2) with a fixed RNG draw order, laid
out in the shot-kernel comment below.  Every sampler takes an explicit
``numpy.random.Generator`` and is safe to drive from disjoint RNG substreams.
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


@dataclass(frozen=True)
class ProjectiveMeterSpec:
    """Projective readout with visibility ``v`` in [0, 1]."""

    label: ClassVar[str] = "projective"

    v: float = field(default=1.0, metadata={"help": "readout visibility"})

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
# renormalizes and rotates back with the same rotation by -phi; every
# step is elementwise over shots.  The excess dephasing of a Gaussian
# meter with eta < 1 is a stochastic sign flip of the ket1 branch, the
# same channel in expectation.  Scalars broadcast, so a state shared by
# all shots (the Bell pair) is passed as four floats.  A stage rotates
# and scales the amplitude arrays it is handed in place and returns them
# as the post-state, so a chunk holds one set of them.  Every other
# array, each RNG block included, is a float64 buffer of a Workspace
# that the stage writes through ``out=`` and gives back once it is
# summed or compared.  A coin flip's uniform block becomes its 0.0/1.0
# mask, and the mask its signs, in one buffer.  Every element still goes
# through the operations of the written-out expressions (``c*a + s*b``,
# ``x*keep_x + y*keep_y``, ...) in the same order, so the records keep
# every bit.  The way back by -phi keeps them too: numpy's cos is even
# and its sin odd, bit for bit, and ``c*x + (-s)*y == c*x - s*y``.
# ---------------------------------------------------------------------------

Amplitudes = tuple  # (c00, c01, c10, c11): arrays or floats

BELL_AMPLITUDES: Amplitudes = (1.0 / math.sqrt(2.0), 0.0, 0.0, 1.0 / math.sqrt(2.0))


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


def _rotation(phi: float) -> tuple[float, float]:
    # ket0 = (c, s) and ket1 = (-s, c) with c = cos(phi/2), s = sin(phi/2)
    return float(np.cos(phi / 2.0)), float(np.sin(phi / 2.0))


def _pairs(amps: Amplitudes, arm: int) -> Amplitudes:
    # (a0, a1, b0, b1): arm's |0> (a) and |1> (b) amplitudes at the other arm's |0>, |1>; its own inverse
    return amps if arm == 1 else (amps[0], amps[2], amps[1], amps[3])


def _rotate(pairs: Amplitudes, phi: float, workspace: Workspace) -> Amplitudes:
    """Each pair ``(a, b)`` of ``pairs = (a0, a1, b0, b1)`` becomes ``(c*a + s*b, c*b - s*a)``, arrays in place."""
    a0, a1, b0, b1 = pairs
    c, s = _rotation(phi)
    if not isinstance(a0, np.ndarray):
        return c * a0 + s * b0, c * a1 + s * b1, c * b0 - s * a0, c * b1 - s * a1
    sa, sb = workspace.take(a0.size), workspace.take(a0.size)
    for a, b in ((a0, b0), (a1, b1)):
        np.multiply(s, a, out=sa)
        np.multiply(s, b, out=sb)
        # c*a + s*b and c*b - s*a, each with the operands in that order
        np.add(np.multiply(c, a, out=a), sb, out=a)
        np.subtract(np.multiply(c, b, out=b), sa, out=b)
    workspace.give(sa, sb)
    return pairs


def _scaled(x, w: np.ndarray, workspace: Workspace) -> np.ndarray:
    """``x * w``, written over ``x`` where it is an array, else into a buffer."""
    return np.multiply(x, w, out=x if isinstance(x, np.ndarray) else workspace.take(w.size))


def _squared_sum(x, y, workspace: Workspace):
    """``x*x + y*y``: a float for floats, else a buffer."""
    if not isinstance(x, np.ndarray):
        return x * x + y * y
    total = np.multiply(x, x, out=workspace.take(x.size))
    square = np.multiply(y, y, out=workspace.take(x.size))
    total += square
    workspace.give(square)
    return total


def _uniform_below(threshold, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """``rng.random(out.size) < threshold`` as 1.0/0.0, written over its own uniforms in ``out``."""
    rng.random(out=out)
    return np.less(out, threshold, out=out)


def _gaussian_branch_scales(
    signals: np.ndarray, variance: float, workspace: Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """The Kraus entries ``g0, g1`` of pointer readouts ``signals``, up to a
    common per-shot factor.

    ``g0/g1 = exp(alpha/variance)``, so dividing both by the larger one
    gives ``exp(min(t, 0))`` and ``exp(-max(t, 0))`` with ``t =
    alpha/variance``: neither underflows to zero with the other.
    """
    t = np.divide(signals, variance, out=workspace.take(signals.size))
    g0 = np.minimum(t, 0.0, out=workspace.take(signals.size))
    g1 = np.negative(np.maximum(t, 0.0, out=t), out=t)
    return np.exp(g0, out=g0), np.exp(g1, out=g1)


def weak_stage(
    amps: Amplitudes,
    arm: int,
    spec: MeterSpec,
    phi: float,
    rng: np.random.Generator,
    n: int,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, Amplitudes]:
    """Weakly measure ``arm`` along analyzer angle ``phi`` in ``n`` shots.

    Returns ``(signals, post-state amplitudes)``.  The stage consumes
    ``amps``: arrays are overwritten and returned as the post-state, so
    the caller must not read them again.  Floats, such as a state shared
    by every shot, are left alone, and the post-state is then four
    buffers of ``workspace``, as ``signals`` always is (a new workspace
    of ``n`` entries when none is given).

    Draw order: Gaussian, one uniform block (mixture component), one
    normal block (pointer value) and, only when ``eta < 1``, one uniform
    block (phase flip); ancilla, one uniform block (branch) and one
    uniform block (readout flip).
    """
    workspace = Workspace(n) if workspace is None else workspace
    x0, x1, y0, y1 = _rotate(_pairs(amps, arm), phi, workspace)
    p0 = _squared_sum(x0, x1, workspace)
    p1 = _squared_sum(y0, y1, workspace)
    if isinstance(spec, GaussianMeterSpec):
        component = _uniform_below(p0, rng, workspace.take(n))
        signals = _signs(component, out=component)
        normal = rng.standard_normal(out=workspace.take(n))
        signals += np.multiply(spec.sigma, normal, out=normal)
        workspace.give(normal)
        w0, w1 = _gaussian_branch_scales(signals, spec.variance, workspace)
    elif isinstance(spec, AncillaMeterSpec):
        half = spec.v_ent / 2.0
        threshold = np.multiply(0.5 + half, p0, out=workspace.take(n))
        term = np.multiply(0.5 - half, p1, out=workspace.take(n))
        threshold += term
        workspace.give(term)
        took_plus = _uniform_below(threshold, rng, workspace.take(n))
        workspace.give(threshold)
        strong, weak = math.sqrt(0.5 + half), math.sqrt(0.5 - half)
        shift = np.multiply(strong - weak, took_plus, out=workspace.take(n))
        w0 = np.add(weak, shift, out=workspace.take(n))
        w1 = np.subtract(strong, shift, out=shift)
        flip = _uniform_below((1.0 - spec.u) / 2.0, rng, workspace.take(n))
        # a Python-float reciprocal overflows to inf without a numpy warning,
        # and +/-1 * (1/v) is +/-1/v exactly
        signals = _signs(np.not_equal(took_plus, flip, out=flip), out=flip)
        workspace.give(took_plus)
        signals *= 1.0 / spec.v_total
    else:
        raise TypeError(f"unsupported meter spec {type(spec).__name__}")
    # norm = 1/sqrt(w0*w0*p0 + w1*w1*p1), each buffer given back as soon as it is summed
    norm = np.multiply(w0, w0, out=workspace.take(n))
    norm *= p0
    workspace.give(p0)
    scratch = np.multiply(w1, w1, out=workspace.take(n))
    scratch *= p1
    workspace.give(p1)
    norm += scratch
    workspace.give(scratch)
    np.divide(1.0, np.sqrt(norm, out=norm), out=norm)
    w0 *= norm
    w1 *= norm
    workspace.give(norm)
    if isinstance(spec, GaussianMeterSpec) and spec.eta < 1.0:
        flip = _uniform_below(0.5 * (1.0 - excess_dephasing_factor(spec)), rng, workspace.take(n))
        flip *= -2.0  # 1 - 2*flip: -1.0 where the ket1 branch flips, else +1.0
        flip += 1.0
        w1 *= flip
        workspace.give(flip)
    x0, x1 = _scaled(x0, w0, workspace), _scaled(x1, w0, workspace)
    y0, y1 = _scaled(y0, w1, workspace), _scaled(y1, w1, workspace)
    workspace.give(w0, w1)  # freed before the rotation takes its two: peak memory
    return signals, _pairs(_rotate((x0, x1, y0, y1), -phi, workspace), arm)


def _signs(mask: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # +1.0 where mask, else -1.0; several times faster than np.where on
    # unpredictable masks.  ``out`` may be a 0.0/1.0 float mask itself
    signs = np.multiply(mask, 2.0, out=out)
    signs -= 1.0
    return signs


def _reported(hit0: np.ndarray, spec: ProjectiveMeterSpec, rng: np.random.Generator, workspace: Workspace):
    # the reported sign is the true one, flipped with probability (1 - v)/2
    flip = _uniform_below((1.0 - spec.v) / 2.0, rng, workspace.take(hit0.size))
    return _signs(np.not_equal(hit0, flip, out=flip), out=flip)


def first_readout(
    amps: Amplitudes,
    spec: ProjectiveMeterSpec,
    phi: float,
    rng: np.random.Generator,
    n: int,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Projectively read out arm 1 along analyzer angle ``phi`` in ``n`` shots.

    Returns ``(signals, (z0, z1))``: the projection leaves the pair in
    the product of the true outcome's analyzer ket with arm 2's
    conditional ket ``z0|0> + z1|1>``, returned unnormalized.  Only the
    reported sign suffers the misidentification flip.  Like
    :func:`weak_stage`, the stage consumes the arrays in ``amps``: ``z0``
    and ``z1`` are written over two of them, and ``signals`` is a buffer
    of ``workspace``.  Draw order: one uniform block (outcome), one
    uniform block (flip).
    """
    workspace = Workspace(n) if workspace is None else workspace
    x0, x1, y0, y1 = _rotate(amps, phi, workspace)
    weight0 = _squared_sum(x0, x1, workspace)
    keep_x = _uniform_below(weight0, rng, workspace.take(n))
    workspace.give(weight0)
    signals = _reported(keep_x, spec, rng, workspace)
    # exact select: one of the two products is x*1 or y*1, the other zero
    keep_y = np.subtract(1.0, keep_x, out=workspace.take(n))
    z0 = _scaled(x0, keep_x, workspace)
    z0 += _scaled(y0, keep_y, workspace)
    z1 = _scaled(x1, keep_x, workspace)
    z1 += _scaled(y1, keep_y, workspace)
    workspace.give(keep_x, keep_y)
    return signals, (z0, z1)


def second_readout(
    ket: tuple[np.ndarray, np.ndarray],
    spec: ProjectiveMeterSpec,
    phi: float,
    rng: np.random.Generator,
    n: int,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Projectively read out arm 2 along ``phi``, in state ``ket`` from :func:`first_readout`.

    The last measurement leaves no state behind, so only the ket0
    probability ``<ket0|z>^2 / <z|z>`` is formed, in place: the stage
    consumes the arrays of ``ket``.  The signals are a buffer of
    ``workspace``.  Draw order: one uniform block (outcome), one uniform
    block (flip).
    """
    workspace = Workspace(n) if workspace is None else workspace
    z0, z1 = ket
    c, s = _rotation(phi)
    squared_norm = _squared_sum(z0, z1, workspace)
    # along0 = c*z0 + s*z1, then along0*along0 / squared_norm, all over z0
    along0 = np.add(np.multiply(c, z0, out=z0), np.multiply(s, z1, out=z1), out=z0)
    probability0 = np.divide(np.multiply(along0, along0, out=along0), squared_norm, out=along0)
    workspace.give(squared_norm)
    hit0 = _uniform_below(probability0, rng, workspace.take(n))
    signals = _reported(hit0, spec, rng, workspace)
    workspace.give(hit0)
    return signals


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
    weak arm 1, weak arm 2, readout arm 1, readout arm 2.

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
    alpha1, amps = weak_stage(BELL_AMPLITUDES, 1, meter1, phi_a1, rng, n, workspace)
    alpha2, amps = weak_stage(amps, 2, meter2, phi_a2, rng, n, workspace)
    b1, ket = first_readout(amps, readout, phi_b1, rng, n, workspace)
    b2 = second_readout(ket, readout, phi_b2, rng, n, workspace)
    return alpha1, alpha2, b1, b2
