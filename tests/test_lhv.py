import numpy as np
import pytest

from blgi.lhv import (
    LHVStrategy,
    brute_force_max,
    brute_force_min,
    lhv_mean,
    lhv_records,
    random_strategy,
)
from oracle import lhv_shot


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


class TestStrategyValidation:
    def test_good_strategy_passes(self):
        strategy = random_strategy(3, np.random.default_rng(0))
        strategy.validate()

    def test_prep_dist_must_sum_to_one(self):
        strategy = LHVStrategy(
            prep_dist=[0.5, 0.4], a1=[1, -1], a2=[1, -1], b1=[1, -1], b2=[1, -1]
        )
        with pytest.raises(ValueError, match="prep_dist"):
            strategy.validate()

    def test_property_range(self):
        strategy = LHVStrategy(
            prep_dist=[1.0], a1=[1.5], a2=[0.0], b1=[0.0], b2=[0.0]
        )
        with pytest.raises(ValueError, match="a1"):
            strategy.validate()

    def test_vector_length_mismatch(self):
        with pytest.raises(ValueError, match="a2"):
            LHVStrategy(prep_dist=[0.5, 0.5], a1=[1, -1], a2=[1], b1=[1, -1], b2=[1, -1])


class TestShots:
    def test_deterministic_strategy_reproduces_its_table(self):
        strategy = _best_deterministic()
        rng = np.random.default_rng(1)
        for _ in range(20):
            record = lhv_shot(strategy, rng)
            assert (record.alpha1, record.alpha2, record.b1, record.b2) == (1.0, 1.0, 1.0, -1.0)

    def test_readouts_are_exactly_plus_minus_one(self):
        strategy = random_strategy(4, np.random.default_rng(2), noise_sigma=2.0)
        _, _, _, b1, b2 = lhv_records(strategy, 5000, np.random.default_rng(3))
        assert set(np.unique(b1)) <= {-1.0, 1.0}
        assert set(np.unique(b2)) <= {-1.0, 1.0}

    def test_noisy_signal_calibration(self):
        # E[alpha1] = sum_zeta P(zeta) a1(zeta) despite sigma = 5 noise
        strategy = random_strategy(5, np.random.default_rng(4), noise_sigma=5.0)
        _, alpha1, _, _, _ = lhv_records(strategy, 1_000_000, np.random.default_rng(5))
        target = float(np.dot(strategy.prep_dist, strategy.a1))
        stderr = alpha1.std(ddof=1) / np.sqrt(alpha1.size)
        assert abs(alpha1.mean() - target) < 4 * stderr

    def test_detector_noises_factorize_given_zeta(self):
        # residual covariance conditioned on the hidden state vanishes
        strategy = random_strategy(3, np.random.default_rng(6), noise_sigma=1.0)
        zeta, alpha1, alpha2, _, _ = lhv_records(strategy, 400_000, np.random.default_rng(7))
        for z in range(3):
            mask = zeta == z
            res1 = alpha1[mask] - strategy.a1[z]
            res2 = alpha2[mask] - strategy.a2[z]
            n = mask.sum()
            assert n > 1000
            correlation = float(np.mean(res1 * res2))
            assert abs(correlation) < 5 / np.sqrt(n)


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
            strategy = random_strategy(1 + index % 6, rng, noise_sigma=rng.uniform(0.0, 3.0))
            estimate = lhv_mean(strategy, 20_000, rng)
            assert abs(estimate.mean) <= 2.0 + 4 * estimate.stderr

    def test_invasive_strategies_respect_the_bound(self):
        # local invasiveness randomizes the readouts but cannot break the bound
        rng = np.random.default_rng(10)
        for _ in range(100):
            strategy = random_strategy(3, rng, noise_sigma=1.0, max_invasiveness=1.0)
            estimate = lhv_mean(strategy, 20_000, rng)
            assert abs(estimate.mean) <= 2.0 + 4 * estimate.stderr


class TestBruteForce:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_maximum_is_exactly_two(self, n):
        assert brute_force_max(n) == 2.0

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_minimum_is_exactly_minus_two(self, n):
        assert brute_force_min(n) == -2.0

    def test_resource_limit(self):
        # the 16 sign patterns bound any number of hidden states
        assert brute_force_max(9) == 2.0
        assert brute_force_min(100) == -2.0
        with pytest.raises(ValueError):
            brute_force_max(0)

