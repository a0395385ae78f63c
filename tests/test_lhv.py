import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blgi.lhv
from blgi.lhv import (
    MAX_HIDDEN_STATES,
    LHVStrategy,
    RandomStrategySpec,
    _cdf_table,
    _hidden_states,
    lhv_mean,
    lhv_records,
    random_strategy,
    sign_pattern_extrema,
)
from blgi.measurement import Workspace
from blgi.protocol import CHUNK_SHOTS, _moments, correlator, estimate
from oracle import lhv_records_reference, lhv_shot

SIGN_PATTERNS = list(itertools.product((-1.0, 1.0), repeat=4))


def _best_deterministic():
    # a1 a2 + a1 b2 + b1 a2 - b1 b2 = 2 at this sign pattern
    return LHVStrategy(
        prep_dist=[1.0],
        a1=[1.0],
        a2=[1.0],
        b1=[1.0],
        b2=[-1.0],
        noise_sigma1=0.0,
        noise_sigma2=0.0,
    )


class TestRandomStrategySpec:
    """The ``--random`` family states each default and range once."""

    def test_defaults(self):
        assert RandomStrategySpec() == RandomStrategySpec(hidden_states=2, noise_sigma=1.0, invasiveness=0.0)

    @pytest.mark.parametrize(
        "values", [{"hidden_states": 1}, {"hidden_states": MAX_HIDDEN_STATES}, {"noise_sigma": 0.0}, {"invasiveness": 1e308}]
    )
    def test_edges_of_each_range(self, values):
        RandomStrategySpec(**values)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("hidden_states", 0),
            ("hidden_states", MAX_HIDDEN_STATES + 1),
            *((name, value) for name in ("noise_sigma", "invasiveness") for value in (-0.5, np.nan, np.inf)),
        ],
    )
    def test_out_of_range_names_the_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            RandomStrategySpec(**{name: value})

    def test_strategy_takes_the_family(self):
        spec = RandomStrategySpec(hidden_states=5, noise_sigma=0.5, invasiveness=0.25)
        strategy = random_strategy(spec, np.random.default_rng(0))
        assert strategy.num_hidden_states == 5
        assert strategy.noise_sigma1 == strategy.noise_sigma2 == 0.5
        assert 0.0 <= strategy.invasiveness1.min() and strategy.invasiveness2.max() <= 0.25


class TestStrategyValidation:
    """Every invariant is checked by the constructor, so an invalid strategy never exists."""

    def test_good_strategy_passes(self):
        strategy = random_strategy(RandomStrategySpec(3), np.random.default_rng(0))
        assert strategy.num_hidden_states == 3

    def test_prep_dist_must_sum_to_one(self):
        with pytest.raises(ValueError, match="prep_dist"):
            LHVStrategy(prep_dist=[0.5, 0.4], a1=[1, -1], a2=[1, -1], b1=[1, -1], b2=[1, -1])

    def test_property_range(self):
        with pytest.raises(ValueError, match="a1"):
            LHVStrategy(prep_dist=[1.0], a1=[1.5], a2=[0.0], b1=[0.0], b2=[0.0])

    def test_vector_length_mismatch(self):
        with pytest.raises(ValueError, match="a2"):
            LHVStrategy(prep_dist=[0.5, 0.5], a1=[1, -1], a2=[1], b1=[1, -1], b2=[1, -1])

    def test_non_finite_prep_dist(self):
        # NaN compares false against every bound, so only a finiteness check catches it
        with pytest.raises(ValueError, match="prep_dist contains non-finite entries"):
            LHVStrategy(prep_dist=[np.nan, np.nan], a1=[1, -1], a2=[1, -1], b1=[1, -1], b2=[1, -1])

    @pytest.mark.parametrize("prep", [[], [[0.5, 0.5]]], ids=["empty", "2-D"])
    def test_prep_dist_must_be_a_non_empty_vector(self, prep):
        # a strategy file cannot express either: its parser refuses an empty vector first
        with pytest.raises(ValueError, match="prep_dist"):
            LHVStrategy(prep_dist=prep, a1=[1, -1], a2=[1, -1], b1=[1, -1], b2=[1, -1])

    def test_caller_arrays_stay_writable(self):
        # the strategy freezes copies of its vectors, never the arrays it was given
        prep, values = np.array([0.5, 0.5]), np.array([1.0, -1.0])
        strategy = LHVStrategy(prep_dist=prep, a1=values, a2=values, b1=values, b2=values, invasiveness1=values * 0)
        assert prep.flags.writeable and values.flags.writeable
        values[0] = 0.5
        assert strategy.a1[0] == 1.0
        for name in ("prep_dist", "a1", "a2", "b1", "b2", "invasiveness1", "invasiveness2"):
            assert not getattr(strategy, name).flags.writeable, name


class TestShots:
    def test_deterministic_strategy_reproduces_its_table(self):
        strategy = _best_deterministic()
        rng = np.random.default_rng(1)
        for _ in range(20):
            record = lhv_shot(strategy, rng)
            assert (record.alpha1, record.alpha2, record.b1, record.b2) == (1.0, 1.0, 1.0, -1.0)

    def test_readouts_are_exactly_plus_minus_one(self):
        strategy = random_strategy(RandomStrategySpec(4, noise_sigma=2.0), np.random.default_rng(2))
        _, _, _, b1, b2 = lhv_records(strategy, 5000, np.random.default_rng(3))
        assert set(np.unique(b1)) <= {-1.0, 1.0}
        assert set(np.unique(b2)) <= {-1.0, 1.0}

    def test_noisy_signal_calibration(self):
        # E[alpha1] = sum_zeta P(zeta) a1(zeta) despite sigma = 5 noise
        strategy = random_strategy(RandomStrategySpec(5, noise_sigma=5.0), np.random.default_rng(4))
        _, alpha1, _, _, _ = lhv_records(strategy, 1_000_000, np.random.default_rng(5))
        target = float(np.dot(strategy.prep_dist, strategy.a1))
        stderr = alpha1.std(ddof=1) / np.sqrt(alpha1.size)
        assert abs(alpha1.mean() - target) < 4 * stderr

    def test_detector_noises_factorize_given_zeta(self):
        # residual covariance conditioned on the hidden state vanishes
        strategy = random_strategy(RandomStrategySpec(3, noise_sigma=1.0), np.random.default_rng(6))
        zeta, alpha1, alpha2, _, _ = lhv_records(strategy, 400_000, np.random.default_rng(7))
        for z in range(3):
            mask = zeta == z
            res1 = alpha1[mask] - strategy.a1[z]
            res2 = alpha2[mask] - strategy.a2[z]
            n = mask.sum()
            assert n > 1000
            correlation = float(np.mean(res1 * res2))
            assert abs(correlation) < 5 / np.sqrt(n)


class TestLeanRecords:
    """The in-place sampler draws and returns exactly what the one-expression reference does."""

    @pytest.mark.parametrize("noise_sigma", [1.0, 1e308])
    @pytest.mark.parametrize("quiet_arm", [None, 1, 2])
    @pytest.mark.parametrize("shots", [2, 77])
    @pytest.mark.parametrize(
        "hidden_states, invasiveness", list(itertools.product([1, 4, 9], [0.0, 0.7]))
    )
    def test_matches_the_reference_byte_for_byte(self, hidden_states, invasiveness, shots, quiet_arm, noise_sigma):
        seed = hidden_states * 100 + shots
        strategy = random_strategy(
            RandomStrategySpec(hidden_states, noise_sigma=noise_sigma, invasiveness=invasiveness), np.random.default_rng(seed)
        )
        if quiet_arm is not None:
            strategy = replace(strategy, **{f"noise_sigma{quiet_arm}": 0.0})
        # a noise of 1e308 overflows to inf in both samplers alike
        with np.errstate(over="ignore", invalid="ignore"):
            lean = lhv_records(strategy, shots, np.random.default_rng(seed + 1))
            reference = lhv_records_reference(strategy, shots, np.random.default_rng(seed + 1))
        assert len(lean) == len(reference) == 5
        for got, want in zip(lean, reference):
            assert got.dtype == want.dtype and got.shape == want.shape == (shots,)
            assert got.tobytes() == want.tobytes()


def _prep_with_a_zero(states: int, zero: str | None) -> np.ndarray:
    raw = np.random.default_rng(states).dirichlet(np.ones(states))
    if zero is not None:
        raw[{"first": 0, "middle": states // 2, "last": states - 1}[zero]] = 0.0
    return raw / raw.sum()


class TestHiddenStateDraw:
    """The hidden states are rng.choice's draw: the same states, bytes and generator state after."""

    @pytest.mark.parametrize(
        "states, zero",
        [(1, None)] + [(n, zero) for n in (2, 3, 5, 9, 17, 1000, 1025, 2**20) for zero in ("first", "middle", "last")],
    )
    def test_equals_choice_byte_for_byte(self, states, zero):
        prep = _prep_with_a_zero(states, zero)
        rng, reference = (np.random.Generator(np.random.Philox(states)) for _ in range(2))
        got = _hidden_states(_cdf_table(prep), rng, *(np.empty(CHUNK_SHOTS) for _ in range(3)))
        want = reference.choice(states, size=CHUNK_SHOTS, p=prep)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert rng.random() == reference.random()
        if zero is not None:
            assert np.all(prep[got] > 0.0)


class TestChunkedDraw:
    """lhv_mean draws CHUNK_SHOTS blocks in turn from its generator, each into a workspace lent to it."""

    def test_blocks_are_the_reference_drawn_in_turn(self):
        strategy = random_strategy(RandomStrategySpec(3, invasiveness=0.3), np.random.default_rng(11))
        got = lhv_mean(strategy, 100_000, np.random.default_rng(12))
        rng = np.random.default_rng(12)
        blocks = [lhv_records_reference(strategy, n, rng)[1:] for n in (CHUNK_SHOTS, 100_000 - CHUNK_SHOTS)]
        want = estimate(_moments(*block, Workspace(CHUNK_SHOTS)) for block in blocks)
        assert (got.mean, got.stderr, got.shots) == (want.mean, want.stderr, 100_000)

    def test_a_reused_workspace_gives_the_reference_bytes(self):
        workspace = Workspace(CHUNK_SHOTS)
        other = random_strategy(RandomStrategySpec(9, noise_sigma=3.0, invasiveness=0.7), np.random.default_rng(1))
        lhv_records(other, CHUNK_SHOTS, np.random.default_rng(2), workspace)
        strategy = random_strategy(RandomStrategySpec(4, invasiveness=0.3), np.random.default_rng(3))
        got = lhv_records(strategy, 77, np.random.default_rng(4), workspace)
        want = lhv_records_reference(strategy, 77, np.random.default_rng(4))
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert len(workspace._buffers) == 5

    def test_the_largest_table_is_built_once_per_strategy(self, monkeypatch):
        builds = []
        cdf_table = blgi.lhv._cdf_table
        monkeypatch.setattr("blgi.lhv._cdf_table", lambda prep: builds.append(prep.size) or cdf_table(prep))
        strategy = random_strategy(RandomStrategySpec(2**20, invasiveness=0.3), np.random.default_rng(13))
        workspace = Workspace(CHUNK_SHOTS)
        rng, reference = np.random.default_rng(14), np.random.default_rng(14)
        for shots in (CHUNK_SHOTS, CHUNK_SHOTS, 77):
            got = lhv_records(strategy, shots, rng, workspace)
            want = lhv_records_reference(strategy, shots, reference)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        got = lhv_mean(strategy, 3 * CHUNK_SHOTS, np.random.default_rng(15))
        reference = np.random.default_rng(15)
        blocks = [lhv_records_reference(strategy, CHUNK_SHOTS, reference)[1:] for _ in range(3)]
        want = estimate(_moments(*block, Workspace(CHUNK_SHOTS)) for block in blocks)
        assert (got.mean, got.stderr) == (want.mean, want.stderr)
        assert builds == [2**20]

    @pytest.mark.parametrize("shots", [CHUNK_SHOTS, 4 * CHUNK_SHOTS])
    def test_a_warm_run_allocates_only_the_hidden_state_draw(self, shots):
        strategy = random_strategy(RandomStrategySpec(4, invasiveness=0.3), np.random.default_rng(5))
        lhv_mean(strategy, shots, np.random.default_rng(6))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            lhv_mean(strategy, shots, np.random.default_rng(7))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the hidden states, 0.5 MiB for one block, and the search's mask, whatever the shots
        assert peak < 1.25 * 2**20


class TestBound:
    def test_best_deterministic_strategy_reaches_two(self):
        estimate = lhv_mean(_best_deterministic(), 10_000, np.random.default_rng(8))
        assert estimate.mean == 2.0
        assert estimate.stderr == 0.0

    @pytest.mark.parametrize("shots", [0, 1])
    def test_fewer_than_two_shots_rejected(self, shots):
        with pytest.raises(ValueError, match="2 for a standard error"):
            lhv_mean(_best_deterministic(), shots, np.random.default_rng(8))

    def test_random_strategies_respect_the_bound(self):
        rng = np.random.default_rng(9)
        for index in range(300):
            strategy = random_strategy(RandomStrategySpec(1 + index % 6, noise_sigma=rng.uniform(0.0, 3.0)), rng)
            estimate = lhv_mean(strategy, 20_000, rng)
            assert abs(estimate.mean) <= 2.0 + 4 * estimate.stderr

    def test_invasive_strategies_respect_the_bound(self):
        # local invasiveness randomizes the readouts but cannot break the bound
        rng = np.random.default_rng(10)
        for _ in range(100):
            strategy = random_strategy(RandomStrategySpec(3, noise_sigma=1.0, invasiveness=1.0), rng)
            estimate = lhv_mean(strategy, 20_000, rng)
            assert abs(estimate.mean) <= 2.0 + 4 * estimate.stderr


def _sign_pattern_strategy(hidden_states: int, value: float) -> LHVStrategy:
    """A noiseless strategy whose hidden states take turns on the sign patterns worth ``value``."""
    patterns = [signs for signs in SIGN_PATTERNS if correlator(*signs) == value]
    a1, a2, b1, b2 = np.array([patterns[zeta % len(patterns)] for zeta in range(hidden_states)]).T
    return LHVStrategy(
        prep_dist=np.full(hidden_states, 1.0 / hidden_states),
        a1=a1,
        a2=a2,
        b1=b1,
        b2=b2,
        noise_sigma1=0.0,
        noise_sigma2=0.0,
    )


class TestBruteForce:
    def test_extrema_are_exactly_two(self):
        low, high = sign_pattern_extrema()
        assert (low, high) == (-2.0, 2.0)
        assert {low, high} <= {correlator(*signs) for signs in SIGN_PATTERNS}

    # the extrema bound every hidden-state count, and every count reaches them
    @pytest.mark.parametrize("n", range(1, 9))
    def test_maximum_is_exactly_two(self, n):
        estimate = lhv_mean(_sign_pattern_strategy(n, 2.0), 1000, np.random.default_rng(n))
        assert (estimate.mean, estimate.stderr) == (sign_pattern_extrema()[1], 0.0)

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_minimum_is_exactly_minus_two(self, n):
        estimate = lhv_mean(_sign_pattern_strategy(n, -2.0), 1000, np.random.default_rng(n))
        assert (estimate.mean, estimate.stderr) == (sign_pattern_extrema()[0], 0.0)

    @settings(max_examples=500, deadline=None)
    @given(st.tuples(*[st.floats(-1.0, 1.0)] * 4))
    def test_correlator_is_a_mixture_of_its_sign_patterns(self, values):
        # multilinearity: C at a point of [-1, 1]^4 is the mixture of its values at
        # the 16 sign patterns with product weights prod((1 + s*x)/2)
        weights = [np.prod([(1.0 + s * x) / 2.0 for s, x in zip(signs, values)]) for signs in SIGN_PATTERNS]
        mixture = sum(w * correlator(*signs) for w, signs in zip(weights, SIGN_PATTERNS))
        value = correlator(*values)
        assert abs(value - mixture) <= 1e-14
        # the four-term sum rounds, by up to an ulp of 2 near a vertex
        low, high = sign_pattern_extrema()
        assert low - 1e-15 <= value <= high + 1e-15

