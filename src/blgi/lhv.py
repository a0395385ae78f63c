"""Classical reference engine: local hidden-variable strategies.

A strategy assigns, per hidden state ``zeta``, bounded property values
``a1, a2`` (targets of the noisy detectors) and ``b1, b2`` (means of the
+/-1 readouts), plus a preparation distribution over ``zeta``.  Detector
noise is zero-mean Gaussian added to the declared value, independent
between the arms once ``zeta`` is fixed, so every detector is calibrated
by construction: its conditional mean is the declared property value,
which is the assumption the bound needs.  An optional invasiveness term
lets the first measurement on an arm shift that arm's readout mean,
clamped to [-1, 1]; this models locally invasive first measurements,
which the correlator bound tolerates by construction.

For every valid strategy the ensemble mean of the per-shot combination
:func:`blgi.protocol.correlator` lies in [-2, 2];
:func:`sign_pattern_extrema` states the bound and why it holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .measurement import Workspace, _coin
from .protocol import Estimate, _chunk_sizes, _sampled_moments, correlator, estimate, require_two_shots

PREP_DIST_TOL = 1e-12


def _as_vector(values, n: int, name: str) -> np.ndarray:
    # a copy: freezing the caller's own array would make it read-only too
    arr = np.array(values, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have one entry per hidden state ({n}), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LHVStrategy:
    """One local hidden-variable strategy over a finite hidden-state set.

    Detector ``k`` reports ``a_k[zeta]`` plus zero-mean Gaussian noise of
    width ``noise_sigma_k``, so its noise has mean zero given the hidden
    state: the strategy is calibrated by construction, and no field can
    make it otherwise.  The constructor checks every other invariant and
    raises ValueError naming the first one broken, so every instance is a
    valid local strategy.
    """

    prep_dist: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    noise_sigma1: float = 1.0
    noise_sigma2: float = 1.0
    invasiveness1: np.ndarray | None = None
    invasiveness2: np.ndarray | None = None

    def __post_init__(self):
        prep = np.asarray(self.prep_dist, dtype=float)
        if prep.ndim != 1 or prep.size < 1:
            raise ValueError(f"prep_dist must be a non-empty vector, got shape {prep.shape}")
        n = prep.size
        for name in ("prep_dist", "a1", "a2", "b1", "b2", "invasiveness1", "invasiveness2"):
            value = getattr(self, name)
            object.__setattr__(self, name, _as_vector(np.zeros(n) if value is None else value, n, name))
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

    @property
    def num_hidden_states(self) -> int:
        return self.prep_dist.size

    @cached_property
    def _hidden_state_cdf(self) -> np.ndarray:
        # built on the first draw and kept; not a field, so no strategy file names it
        return _cdf_table(self.prep_dist / self.prep_dist.sum())


def _cdf_table(prep: np.ndarray) -> np.ndarray:
    """``rng.choice``'s cdf of ``prep``: its running sum over its last entry."""
    cdf = np.cumsum(prep)
    cdf /= cdf[-1]
    cdf.setflags(write=False)
    return cdf


def _hidden_states(table: np.ndarray, rng: np.random.Generator, uniforms, probe, steps) -> np.ndarray:
    """``rng.choice(prep.size, size=uniforms.size, p=prep)``'s draw and bytes, in fewer passes.

    ``table`` is :func:`_cdf_table` of ``prep``.  As in ``choice``, a state
    counts the entries ``<= u`` of that cdf for its uniform ``u``, drawn
    into ``uniforms``.  The count is a branchless binary search of the
    table, one take, compare and add per bit of ``prep.size - 1``, in the
    float64 scratch arrays ``probe`` and ``steps``.
    """
    rounds = (table.size - 1).bit_length()
    rng.random(out=uniforms)
    zeta = np.zeros(uniforms.size, dtype=np.int64)
    below = np.empty(uniforms.size, dtype=bool)
    steps = steps.view(np.int64)
    for step in (1 << r for r in reversed(range(rounds))):
        # a probe past the table clips to its last entry, exactly 1.0, which no
        # uniform in [0, 1) reaches: the count is that of a table padded with inf
        np.take(table[step - 1 :], zeta, out=probe, mode="clip")
        np.less_equal(probe, uniforms, out=below)
        zeta += np.multiply(below, step, out=steps)
    return zeta


def lhv_records(
    strategy: LHVStrategy, shots: int, rng: np.random.Generator, workspace: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized shot sampling; returns ``(zeta, alpha1, alpha2, b1, b2)`` arrays.

    Draw order: hidden states, arm-1 noise, arm-2 noise, arm-1 readout,
    arm-2 readout; one block each.  The four float arrays are buffers of
    ``workspace``, which is reset first; without one, a new workspace of
    ``shots`` entries is used and they are the caller's own.  One more
    buffer is scratch: the hidden states' uniforms, the noise draws and
    each arm's readout mean are built in it in place, and each readout's
    uniforms become its +/-1 column.  The hidden-state search works in the
    two alpha buffers before they are filled.  The scratch buffer is given
    back once arm 2's coin has read it, so a caller may take it again.
    """
    workspace = Workspace(shots) if workspace is None else workspace
    workspace.reset()
    alpha1, alpha2, scratch = (workspace.take(shots) for _ in range(3))
    zeta = _hidden_states(strategy._hidden_state_cdf, rng, scratch, alpha1, alpha2)
    # mode="clip" never clips a hidden state; unlike "raise" it writes out= unbuffered
    take = partial(np.take, indices=zeta, mode="clip")
    take(strategy.a1, out=alpha1)
    take(strategy.a2, out=alpha2)
    for alpha, sigma in ((alpha1, strategy.noise_sigma1), (alpha2, strategy.noise_sigma2)):
        if sigma > 0.0:
            rng.standard_normal(out=scratch)
            scratch *= sigma
            alpha += scratch
    readouts = []
    for alpha, a, b, invasiveness in (
        (alpha1, strategy.a1, strategy.b1, strategy.invasiveness1),
        (alpha2, strategy.a2, strategy.b2, strategy.invasiveness2),
    ):
        # local invasiveness: the observed alpha may shift the same arm's
        # readout mean b + invasiveness*tanh(alpha - a), clamped to [-1, 1];
        # the readout fires +1 with probability (1 + mean)/2
        mean, column = scratch, workspace.take(shots)
        np.subtract(alpha, take(a, out=mean), out=mean)
        np.tanh(mean, out=mean)
        mean *= take(invasiveness, out=column)
        mean += take(b, out=column)
        np.clip(mean, -1.0, 1.0, out=mean)
        mean += 1.0
        mean /= 2.0
        readouts.append(_coin(mean, rng, column))
    workspace.give(scratch)
    return zeta, alpha1, alpha2, *readouts


def lhv_mean(strategy: LHVStrategy, shots: int, rng: np.random.Generator) -> Estimate:
    """Monte-Carlo mean of the per-shot correlator, reduced by :func:`blgi.protocol.estimate`.

    The shots are drawn from ``rng`` in :data:`blgi.protocol.CHUNK_SHOTS`
    blocks in turn, each into a workspace lent to it alone, as the quantum
    engine draws its chunks; a lent workspace stays for the life of the
    process, at most one per concurrently running block, and a block needs
    5 of its buffers (2.5 MiB): the four records and the scratch buffer in
    which :func:`blgi.protocol._moments` forms C.
    Fewer than 2 shots raise ValueError before anything is drawn.
    """
    require_two_shots(shots)
    draw = lambda n, workspace: lhv_records(strategy, n, rng, workspace)[1:]
    return estimate(_sampled_moments(partial(draw, n))[1] for n in _chunk_sizes(shots))


def sign_pattern_extrema() -> tuple[float, float]:
    """The least and greatest mean correlator of any local strategy, ``(-2.0, 2.0)``.

    Given ``zeta``, the two arms' noises are independent and each readout
    depends only on its own arm, while every term of
    :func:`blgi.protocol.correlator` pairs the two arms.  So ``<C | zeta>``
    is the correlator at each arm's conditional means: ``a1, a2`` by
    calibration, and readout means in [-1, 1] however invasive the first
    measurement is.  The correlator is multilinear, so on [-1, 1]^4 its
    extrema lie at the 16 sign patterns, and ``<C>``, a convex mixture over
    ``zeta`` of such values, lies between them whatever the hidden-state
    count or the invasiveness.
    """
    values = [correlator(*signs) for signs in itertools.product((-1.0, 1.0), repeat=4)]
    return min(values), max(values)


#: most hidden states of one random strategy: 56 bytes each plus 8 for its
#: cdf, so at most 64 MiB, and at most one strategy per worker plus one queued
#: exist at once
MAX_HIDDEN_STATES = 1 << 20


@dataclass(frozen=True)
class RandomStrategySpec:
    """The family :func:`random_strategy` draws from, one ``blgi lhv --random`` flag per field.

    Each field's ``help`` metadata starts its command-line help.
    """

    hidden_states: int = field(default=2, metadata={"help": "hidden states of each --random strategy"})
    noise_sigma: float = field(default=1.0, metadata={"help": "detector noise of --random strategies"})
    invasiveness: float = field(
        default=0.0, metadata={"help": "--random strategies' max readout-mean shift from the first measurement"}
    )

    def __post_init__(self):
        if not (1 <= self.hidden_states <= MAX_HIDDEN_STATES):
            raise ValueError(f"hidden_states must be in [1, {MAX_HIDDEN_STATES}], got {self.hidden_states}")
        for name in ("noise_sigma", "invasiveness"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


def random_strategy(spec: RandomStrategySpec, rng: np.random.Generator) -> LHVStrategy:
    """Draw a calibrated strategy of ``spec``'s family: flat simplex preparation, uniform properties.

    Both detectors have noise width ``spec.noise_sigma``, and each arm's
    invasiveness is drawn per hidden state from ``[0, spec.invasiveness]``.
    """
    n = spec.hidden_states
    prep = rng.dirichlet(np.ones(n))
    # draw order: the preparation, both invasiveness vectors, then a1, a2, b1, b2
    invas1, invas2 = (rng.uniform(0.0, spec.invasiveness, size=n) if spec.invasiveness > 0.0 else None for _ in range(2))
    a1, a2, b1, b2 = (rng.uniform(-1.0, 1.0, size=n) for _ in range(4))
    return LHVStrategy(prep, a1, a2, b1, b2, spec.noise_sigma, spec.noise_sigma, invas1, invas2)
