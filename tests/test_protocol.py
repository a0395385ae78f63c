import hashlib
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import blgi.protocol
from blgi.lhv import RandomStrategySpec, lhv_records, random_strategy
from blgi.measurement import (
    AncillaMeterSpec,
    GaussianMeterSpec,
    ProjectiveMeterSpec,
    Workspace,
    sample_records,
)
from blgi.protocol import (
    CHUNK_SHOTS,
    DEFAULT_ANGLES,
    ExperimentConfig,
    NumericalError,
    _chunks_in_order,
    _monte_carlo_estimates,
    _moments,
    _run_chunk,
    _sampled_moments,
    analytic_mean,
    config_analytic_mean,
    correlator,
    estimate,
    exact_mean,
    exact_variance,
    monte_carlo,
    predicted_stderr,
    retune,
    substream_rng,
    sweep,
    violation_threshold,
)
from oracle import (
    MeasurementRecord,
    analyzer_basis,
    ancilla_kraus,
    bell_state,
    embed,
    exact_mean_reference,
    flat_hermite,
    gaussian_kraus,
    record_sign_law,
)

SQRT2 = np.sqrt(2.0)

finite = st.floats(-100.0, 100.0)


def _gaussian_config(sigma=1.0, eta=1.0, v=1.0, shots=100_000, seed=42, angles=DEFAULT_ANGLES):
    return ExperimentConfig(
        meter1=GaussianMeterSpec(sigma=sigma, eta=eta),
        meter2=GaussianMeterSpec(sigma=sigma, eta=eta),
        b_spec=ProjectiveMeterSpec(v=v),
        angles=angles,
        shots=shots,
        seed=seed,
    )


def _ancilla_config(v_total=1.0, u=1.0, v=1.0, shots=100_000, seed=42, angles=DEFAULT_ANGLES):
    return ExperimentConfig(
        meter1=AncillaMeterSpec(v_total=v_total, u=u),
        meter2=AncillaMeterSpec(v_total=v_total, u=u),
        b_spec=ProjectiveMeterSpec(v=v),
        angles=angles,
        shots=shots,
        seed=seed,
    )


class TestCorrelator:
    def test_all_ones(self):
        assert correlator(1, 1, 1, 1) == 2.0

    def test_zero_alphas(self):
        assert correlator(0, 0, 1, 1) == -1.0

    def test_mixed_values(self):
        assert abs(correlator(2.5, -0.4, 1, -1) - (-2.9)) < 1e-12

    @given(finite, finite, st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0]))
    def test_formula(self, a1, a2, b1, b2):
        assert correlator(a1, a2, b1, b2) == a1 * a2 + a1 * b2 + b1 * a2 - b1 * b2

    def test_terms_written_over_alpha1_keep_every_bit(self):
        # overflowing signals reach _moments: inf, nan and inf - inf must come out as allocated
        rng = np.random.default_rng(8)
        special = [np.inf, -np.inf, np.nan, 0.0, 1e308]
        alpha1 = np.concatenate([rng.normal(size=64), np.repeat(special, 5)])
        alpha2 = np.concatenate([rng.normal(size=64), np.tile(special, 5)])
        b1, b2 = (np.where(rng.random(alpha1.size) < 0.5, -1.0, 1.0) for _ in range(2))
        with np.errstate(over="ignore", invalid="ignore"):
            want = correlator(alpha1, alpha2, b1, b2)
            written = alpha1.copy()
            got = correlator(written, alpha2, b1, b2, out=(np.empty(alpha1.size), written))
        assert np.isnan(want).any() and np.isinf(want).any()
        assert got.tobytes() == want.tobytes()


class TestConfigValidation:
    def test_default_angles(self):
        config = _gaussian_config()
        assert config.angles == tuple(DEFAULT_ANGLES)
        assert config.angles[2] == 0.0

    def test_bad_shots(self):
        with pytest.raises(ValueError):
            _gaussian_config(shots=0)

    @pytest.mark.parametrize("shots", [-1, 0, 1])
    def test_two_shots_is_the_floor(self, shots):
        # one shot has no standard error, so no config holds fewer than two
        with pytest.raises(ValueError, match=f"^shots must be >= 2 for a standard error, got {shots}$"):
            ExperimentConfig(shots=shots)
        assert ExperimentConfig(shots=2).shots == 2

    def test_shots_stay_below_2_to_the_63(self):
        # a larger count has a chunk list longer than any index, so it never reaches the pool
        with pytest.raises(ValueError, match=f"^shots must be < 2\\*\\*63, got {2**63}$"):
            ExperimentConfig(shots=2**63)
        assert ExperimentConfig(shots=2**63 - 1).shots == 2**63 - 1

    def test_a_meter_must_be_a_meter_spec(self):
        with pytest.raises(ValueError, match="^meter1 must be a meter spec, got ProjectiveMeterSpec$"):
            ExperimentConfig(meter1=ProjectiveMeterSpec())

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            _gaussian_config(seed=-1)

    def test_bad_angles(self):
        with pytest.raises(ValueError):
            _gaussian_config(angles=(0.0, 0.0, np.inf, 0.0))


class TestRunShot:
    """One shot of the full protocol: the record kernel at ``n = 1``."""

    @staticmethod
    def _shot(config, rng):
        alpha1, alpha2, b1, b2 = sample_records(
            1, config.meter1, config.meter2, config.b_spec, config.angles, rng
        )
        return MeasurementRecord(alpha1[0], alpha2[0], b1[0], b2[0])

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    def test_nonfinite_angle_rejected(self, phi):
        spec = GaussianMeterSpec()
        angles = (0.0, 0.0, phi, 0.0)
        with pytest.raises(ValueError, match="analyzer angle must be finite"):
            sample_records(1, spec, spec, ProjectiveMeterSpec(), angles, np.random.default_rng(0))

    def test_projective_aligned_angles_are_perfectly_correlated(self):
        config = _ancilla_config(angles=(0.0, 0.0, 0.0, 0.0))
        rng = np.random.default_rng(0)
        for _ in range(60):
            record = self._shot(config, rng)
            assert record.alpha1 == record.alpha2 == record.b1 == record.b2
            assert record.b1 in (-1.0, 1.0)

    def test_gaussian_record_types(self):
        config = _gaussian_config(sigma=3.0)
        rng = np.random.default_rng(1)
        record = self._shot(config, rng)
        assert np.isfinite(record.alpha1) and np.isfinite(record.alpha2)
        assert record.b1 in (-1.0, 1.0) and record.b2 in (-1.0, 1.0)

    def test_single_shot_mean_tracks_oracle(self):
        config = _ancilla_config(v_total=0.8)
        rng = np.random.default_rng(7)
        values = [correlator(*astuple(self._shot(config, rng))) for _ in range(4000)]
        values = np.asarray(values)
        stderr = values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean() - exact_mean(config)) < 5 * stderr


class TestAnalyticMean:
    def test_ideal_weak_limit_hits_quantum_bound(self):
        assert abs(analytic_mean(1, 1, 1) - 2 * SQRT2) < 1e-14

    def test_projective_limit(self):
        assert abs(analytic_mean(0, 0, 1) - 1 / SQRT2) < 1e-14

    def test_mid_strength(self):
        assert abs(analytic_mean(0.8, 0.8, 1) - 3.24 / SQRT2) < 1e-14

    @pytest.mark.parametrize("args", [(-0.1, 0, 1), (0, 1.2, 1), (0, 0, -1)])
    def test_domain(self, args):
        with pytest.raises(ValueError):
            analytic_mean(*args)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_never_exceeds_quantum_bound(self, xi1, xi2, v):
        assert analytic_mean(xi1, xi2, v) <= 2 * SQRT2 + 1e-12

    def test_matches_quadrature_oracle_at_random_angles(self):
        # the oracle integrates Kraus operators, so it checks the closed
        # form's angle dependence without sharing any of its algebra
        rng = np.random.default_rng(31)
        kinds = [(True, True), (True, False), (False, True), (False, False)]
        for index in range(40):
            gaussian1, gaussian2 = kinds[index % 4]
            config = ExperimentConfig(
                meter1=_random_meter(rng, gaussian1),
                meter2=_random_meter(rng, gaussian2),
                b_spec=ProjectiveMeterSpec(v=rng.random()),
                angles=tuple(rng.uniform(-7.0, 7.0, size=4)),
            )
            reference, _, _ = _quadrature_mean(config)
            assert abs(config_analytic_mean(config) - reference) < 1e-9, config


class TestViolationThreshold:
    def test_value(self):
        assert abs(violation_threshold() - (2**0.75 - 1)) < 1e-15
        assert abs(violation_threshold() - 0.6818) < 5e-4

    def test_defining_identity(self):
        t = violation_threshold()
        assert abs(analytic_mean(t, t, 1.0) - 2.0) < 1e-12

    def test_monotonicity_above_threshold(self):
        t = violation_threshold()
        assert analytic_mean(min(t * 1.01, 1.0), min(t * 1.01, 1.0), 1.0) > 2.0
        assert analytic_mean(t * 0.99, t * 0.99, 1.0) < 2.0


# Reference mean by integrating the joint outcome distribution on a fixed
# grid: Kraus operators and density matrices only, no outcome moments and
# no dephasing factor.
ORACLE_ORDER = 120


def _oracle_arm(spec, basis, arm):
    """Grid ``(signals, weights, kraus)`` of one weak arm, plus its post-channel."""
    if isinstance(spec, GaussianMeterSpec):
        signals, weights = flat_hermite(ORACLE_ORDER, spec.sigma)
        kraus = np.stack([embed(gaussian_kraus(a, spec.sigma, basis), arm) for a in signals])
        factor = spec.excess_dephasing_factor
    else:
        # (back-action branch, reported sign) pairs; the report is flipped
        # with probability (1 - u)/2
        branches = [(sign, report) for sign in (+1, -1) for report in (+1, -1)]
        signals = np.array([report / spec.v_total for _, report in branches])
        weights = np.array([(1 + spec.u * sign * report) / 2 for sign, report in branches])
        kraus = np.stack([embed(ancilla_kraus(sign, spec.v_ent, basis), arm) for sign, _ in branches])
        factor = 1.0
    flip = embed(basis.observable, arm)

    def channel(rho):
        return (1 + factor) / 2 * rho + (1 - factor) / 2 * (flip @ rho @ flip)

    return signals, weights, kraus, channel


def _quadrature_mean(config):
    """``(mean, second moment, total probability)`` of the correlator on the oracle grid."""
    basis_a1, basis_a2, basis_b1, basis_b2 = map(analyzer_basis, config.angles)
    s1, w1, k1, channel1 = _oracle_arm(config.meter1, basis_a1, 1)
    s2, w2, k2, channel2 = _oracle_arm(config.meter2, basis_a2, 2)
    rho1 = channel1(k1 @ bell_state().rho @ k1.conj().transpose(0, 2, 1))
    rho12 = channel2(k2[None] @ rho1[:, None] @ k2.conj().transpose(0, 2, 1)[None])

    def expect(op):
        return np.einsum("ab,ijba->ij", op, rho12).real

    readout1 = embed(basis_b1.observable, 1)
    readout2 = embed(basis_b2.observable, 2)
    prob = expect(np.eye(4))
    # readout flips are independent, so E[b_k] = v<R_k> and E[b1 b2] = v^2<R1 R2>
    v = config.b_spec.v
    a1, a2 = s1[:, None], s2[None, :]
    integrand = (
        a1 * a2 * prob
        + v * a1 * expect(readout2)
        + v * a2 * expect(readout1)
        - v * v * expect(readout1 @ readout2)
    )
    # C^2 = a1^2 a2^2 + a1^2 + a2^2 + 1 + 2 a1^2 a2 b2 + 2 a1 a2^2 b1 - 2 a1 b1 - 2 a2 b2
    squared = (
        (a1 * a1 * a2 * a2 + a1 * a1 + a2 * a2 + 1.0) * prob
        + 2.0 * v * a1 * a1 * a2 * expect(readout2)
        + 2.0 * v * a1 * a2 * a2 * expect(readout1)
        - 2.0 * v * a1 * expect(readout1)
        - 2.0 * v * a2 * expect(readout2)
    )
    weights = w1[:, None] * w2[None, :]
    return float((weights * integrand).sum()), float((weights * squared).sum()), float((weights * prob).sum())


def _random_meter(rng, gaussian):
    if gaussian:
        return GaussianMeterSpec(sigma=rng.uniform(0.3, 20.0), eta=rng.uniform(0.3, 1.0))
    u = rng.uniform(0.5, 1.0)
    return AncillaMeterSpec(v_total=rng.uniform(0.05, u), u=u)


class TestExactMean:
    def test_projective_ancilla_limit(self):
        assert abs(exact_mean(_ancilla_config()) - 1 / SQRT2) < 1e-12

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    @pytest.mark.parametrize("eta", [0.5, 1.0])
    def test_matches_closed_form_gaussian(self, sigma, eta):
        config = _gaussian_config(sigma=sigma, eta=eta)
        assert abs(exact_mean(config) - config_analytic_mean(config)) < 1e-6

    def test_matches_closed_form_mixed_meters(self):
        config = ExperimentConfig(
            meter1=GaussianMeterSpec(sigma=1.0),
            meter2=AncillaMeterSpec(v_total=0.5, u=0.9),
            b_spec=ProjectiveMeterSpec(v=0.85),
        )
        assert abs(exact_mean(config) - config_analytic_mean(config)) < 1e-6

    def test_narrow_signal_width_is_the_projective_limit(self):
        # the moments need no grid, so a signal width far below the
        # eigenvalue spacing resolves to the projective value
        assert abs(exact_mean(_gaussian_config(sigma=0.01)) - 1 / SQRT2) < 1e-12

    def test_matches_quadrature_oracle_over_random_configs(self):
        rng = np.random.default_rng(77)
        kinds = [(True, True), (True, False), (False, True), (False, False)]
        for index in range(52):
            gaussian1, gaussian2 = kinds[index % 4]
            config = ExperimentConfig(
                meter1=_random_meter(rng, gaussian1),
                meter2=_random_meter(rng, gaussian2),
                b_spec=ProjectiveMeterSpec(v=rng.random()),
                angles=tuple(rng.uniform(-np.pi, np.pi, size=4)),
            )
            reference, second, norm = _quadrature_mean(config)
            assert abs(norm - 1.0) < 1e-10, config
            assert abs(exact_mean(config) - reference) < 1e-9, config
            assert abs(exact_variance(config) + exact_mean(config) ** 2 - second) < 1e-12 * second, config

    def test_ancilla_moments_match_the_record_sign_law(self):
        # ancilla signals are exactly +/-1/v_total by their reported signs,
        # so the 16 sign atoms of a record carry C's whole law
        rng = np.random.default_rng(16)
        signs = np.array([1.0, -1.0])
        for _ in range(40):
            config = ExperimentConfig(
                meter1=_random_meter(rng, False),
                meter2=_random_meter(rng, False),
                b_spec=ProjectiveMeterSpec(v=rng.random()),
                angles=tuple(rng.uniform(-7.0, 7.0, size=4)),
            )
            alpha1 = signs[:, None, None, None] / config.meter1.v_total
            alpha2 = signs[None, :, None, None] / config.meter2.v_total
            values = correlator(alpha1, alpha2, signs[None, None, :, None], signs[None, None, None, :])
            law = record_sign_law(config)
            mean, second = float(np.sum(law * values)), float(np.sum(law * values**2))
            assert abs(mean - exact_mean(config)) < 1e-13, config
            assert abs(second - (exact_variance(config) + exact_mean(config) ** 2)) < 1e-12 * second, config

    def test_matches_the_4x4_reference_over_random_configs(self):
        rng = np.random.default_rng(1969)
        kinds = [(True, True), (True, False), (False, True), (False, False)]
        for index in range(300):
            gaussian1, gaussian2 = kinds[index % 4]
            config = ExperimentConfig(
                meter1=_random_meter(rng, gaussian1),
                meter2=_random_meter(rng, gaussian2),
                b_spec=ProjectiveMeterSpec(v=rng.uniform(0.0, 1.0)),
                angles=tuple(rng.uniform(-7.0, 7.0, size=4)),
            )
            assert abs(exact_mean(config) - exact_mean_reference(config)) < 1e-14, config

    @pytest.mark.parametrize(
        "meter, v",
        [
            (GaussianMeterSpec(sigma=0.01), 0.9),
            (GaussianMeterSpec(sigma=1e154), 0.9),
            (GaussianMeterSpec(sigma=1.5, eta=0.4), 0.0),
            (AncillaMeterSpec(v_total=0.7, u=0.7), 0.9),
            (AncillaMeterSpec(v_total=0.7, u=0.7), 0.0),
        ],
        ids=["sigma-0.01", "sigma-1e154", "v-0", "ancilla-v_total-u", "ancilla-v_total-u-v-0"],
    )
    def test_matches_the_4x4_reference_at_the_edges(self, meter, v):
        rng = np.random.default_rng(3)
        for angles in [DEFAULT_ANGLES, *(tuple(rng.uniform(-7.0, 7.0, size=4)) for _ in range(20))]:
            config = ExperimentConfig(
                meter1=meter, meter2=GaussianMeterSpec(sigma=0.8), b_spec=ProjectiveMeterSpec(v=v), angles=angles
            )
            # the edge meter on either arm
            for each in (config, replace(config, meter1=config.meter2, meter2=meter)):
                assert abs(exact_mean(each) - exact_mean_reference(each)) < 1e-14, each

    def test_term_separability_via_readout_visibility(self):
        # the four terms come from one joint distribution, so the mean is
        # exactly quadratic in v: two alpha terms are v-free, the two cross
        # terms are linear, the readout-readout term quadratic
        def at(v):
            return exact_mean(_gaussian_config(sigma=1.2, v=v))

        c0 = at(0.0)
        c_half, c1 = at(0.5), at(1.0)
        linear = 4 * (c_half - c0) - (c1 - c0)
        quadratic = (c1 - c0) - linear
        v = 0.25
        interpolated = c0 + linear * v + quadratic * v * v
        assert abs(at(v) - interpolated) < 1e-9

    def test_tsirelson_bound_over_random_configs(self):
        # the model never exceeds 2*sqrt(2), for any angles or meters
        rng = np.random.default_rng(2024)
        bound = 2 * SQRT2 + 1e-9
        for index in range(900):
            u = rng.uniform(0.5, 1.0)
            config = ExperimentConfig(
                meter1=AncillaMeterSpec(v_total=rng.uniform(0.05, u), u=u),
                meter2=AncillaMeterSpec(v_total=rng.uniform(0.05, u), u=u),
                b_spec=ProjectiveMeterSpec(v=rng.random()),
                angles=tuple(rng.uniform(-np.pi, np.pi, size=4)),
            )
            assert exact_mean(config) <= bound
        for index in range(100):
            config = ExperimentConfig(
                meter1=GaussianMeterSpec(sigma=rng.uniform(0.1, 20.0), eta=rng.uniform(0.3, 1.0)),
                meter2=GaussianMeterSpec(sigma=rng.uniform(0.1, 20.0), eta=rng.uniform(0.3, 1.0)),
                b_spec=ProjectiveMeterSpec(v=rng.random()),
                angles=tuple(rng.uniform(-np.pi, np.pi, size=4)),
            )
            assert exact_mean(config) <= bound


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        config = _gaussian_config(sigma=1.0, shots=70_000, seed=99)
        first = monte_carlo(config)
        second = monte_carlo(config)
        assert first == second

    # SHA-256 of chunks 0 and 3 (4096 shots each) of six seeded configs,
    # pinned under the 0.2 draw contract (blgi.__version__): any change to
    # the kernel's draws or their order moves them
    GOLDEN_CHUNKS = [
        (
            ExperimentConfig(
                meter1=GaussianMeterSpec(sigma=1.3, eta=0.6),
                meter2=GaussianMeterSpec(sigma=0.7, eta=0.9),
                b_spec=ProjectiveMeterSpec(v=0.85),
                angles=(0.3, -1.2, 2.5, 0.9),
                shots=5000,
                seed=7,
            ),
            "6909e8ef9fc79bde33f104a069512f82b3e442cae60542ba1b9772f6d7c47501",
        ),
        (
            ExperimentConfig(
                meter1=AncillaMeterSpec(v_total=0.5, u=0.8),
                meter2=AncillaMeterSpec(v_total=0.3, u=0.9),
                b_spec=ProjectiveMeterSpec(v=0.9),
                angles=(1.1, -0.4, 2.0, -2.7),
                shots=5000,
                seed=8,
            ),
            "946e26bbc286c4509680fa6fd851872e827de0e47522805b2ae23bc717a85b49",
        ),
        (
            ExperimentConfig(
                meter1=GaussianMeterSpec(sigma=2.0, eta=1.0),
                meter2=AncillaMeterSpec(v_total=0.6, u=1.0),
                b_spec=ProjectiveMeterSpec(v=1.0),
                shots=5000,
                seed=9,
            ),
            "6e39cfc0018ccfb197c6707dfab9279f821ddacbdcae5533f0e68abcee181ec9",
        ),
        # readout 2 with a scalar coherence on arm 1 and a per-shot one on arm 2, then the reverse,
        # then a strong meter at seeded random angles, where its normaliser comes near 0
        (
            ExperimentConfig(
                meter1=AncillaMeterSpec(v_total=0.45, u=0.7),
                meter2=GaussianMeterSpec(sigma=1.5, eta=0.5),
                b_spec=ProjectiveMeterSpec(v=0.8),
                angles=(0.3, -1.2, 2.5, 0.9),
                shots=5000,
                seed=10,
            ),
            "183013dc1054c814e0e3eaca2d1955b91d0c4fbb2d7b5e853955a63ca77cbd23",
        ),
        (
            ExperimentConfig(
                meter1=GaussianMeterSpec(sigma=0.9, eta=0.6),
                meter2=AncillaMeterSpec(v_total=0.7, u=0.95),
                b_spec=ProjectiveMeterSpec(v=0.3),
                angles=(-0.7, 1.9, 0.4, -2.2),
                shots=5000,
                seed=11,
            ),
            "4cb123e29ca3ae960f90e411b8a65343f1b2568c45186549f03bbec5e02645ad",
        ),
        (
            ExperimentConfig(
                meter1=GaussianMeterSpec(sigma=0.3),
                meter2=AncillaMeterSpec(v_total=0.45, u=0.8),
                b_spec=ProjectiveMeterSpec(v=0.8),
                angles=tuple(float(phi) for phi in np.random.default_rng(40).uniform(-np.pi, np.pi, 4)),
                shots=5000,
                seed=12,
            ),
            "f5c6deb69a318f51fa136087eb8235630a57870e39386e3f81b24541fbef89f0",
        ),
    ]

    @pytest.mark.parametrize(
        "config, digest",
        GOLDEN_CHUNKS,
        ids=["gaussian", "ancilla", "mixed", "ancilla-gaussian", "gaussian-ancilla", "strong-mixed"],
    )
    def test_chunk_records_are_pinned(self, config, digest):
        sha = hashlib.sha256()
        for index in (0, 3):
            for part in _run_chunk(config, index, 4096, Workspace(CHUNK_SHOTS)):
                sha.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        assert sha.hexdigest() == digest

    def test_thread_count_does_not_change_the_result(self):
        config = _gaussian_config(sigma=2.0, shots=200_000, seed=5)
        assert monte_carlo(config, threads=1) == monte_carlo(config, threads=4)

    def test_seed_changes_the_result(self):
        config = _ancilla_config(shots=10_000, seed=1)
        other = _ancilla_config(shots=10_000, seed=2)
        assert monte_carlo(config).mean != monte_carlo(other).mean

    def test_projective_limit_agrees_with_oracle(self):
        config = _ancilla_config(shots=200_000, seed=11)
        estimate = monte_carlo(config)
        assert abs(estimate.mean - 1 / SQRT2) < 4 * estimate.stderr

    def test_gaussian_agrees_with_oracle(self):
        config = _gaussian_config(sigma=1.0, shots=200_000, seed=12)
        estimate = monte_carlo(config)
        assert abs(estimate.mean - exact_mean(config)) < 4 * estimate.stderr

    def test_ancilla_mid_strength_agrees_with_oracle(self):
        config = _ancilla_config(v_total=0.6, shots=200_000, seed=13)
        estimate = monte_carlo(config)
        assert abs(estimate.mean - 3.24 / SQRT2) < 4 * estimate.stderr

    def test_single_ensemble_linearity(self):
        # per-shot C averages equal the sum of the four per-shot term
        # averages over the same record set, exactly
        config = _gaussian_config(sigma=1.5, shots=50_000, seed=3)
        chunks = []
        estimate = monte_carlo(config, on_records=chunks.append)
        alpha1, alpha2, b1, b2 = (np.concatenate(parts) for parts in zip(*chunks))
        per_shot = alpha1 * alpha2 + alpha1 * b2 + b1 * alpha2 - b1 * b2
        term_sum = (
            (alpha1 * alpha2).mean()
            + (alpha1 * b2).mean()
            + (b1 * alpha2).mean()
            - (b1 * b2).mean()
        )
        np.testing.assert_allclose(per_shot.mean(), term_sum, rtol=0, atol=1e-12)
        np.testing.assert_allclose(estimate.mean, per_shot.mean(), rtol=0, atol=1e-12)

    def test_estimate_stderr_definition(self):
        config = _ancilla_config(shots=30_000, seed=21)
        chunks = []
        estimate = monte_carlo(config, on_records=chunks.append)
        alpha1, alpha2, b1, b2 = (np.concatenate(parts) for parts in zip(*chunks))
        values = alpha1 * alpha2 + alpha1 * b2 + b1 * alpha2 - b1 * b2
        np.testing.assert_allclose(
            estimate.stderr, values.std(ddof=1) / np.sqrt(values.size), rtol=1e-12
        )

    def test_on_records_gets_every_chunk_in_order(self):
        config = _ancilla_config(v_total=0.6, u=0.9, shots=3 * CHUNK_SHOTS + 123, seed=5)
        chunks = []
        threaded = monte_carlo(config, threads=3, on_records=chunks.append)
        sizes = [CHUNK_SHOTS] * 3 + [123]
        assert [len(chunk[0]) for chunk in chunks] == sizes
        for index, (chunk, n) in enumerate(zip(chunks, sizes)):
            for got, want in zip(chunk, _run_chunk(config, index, n, Workspace(CHUNK_SHOTS))):
                np.testing.assert_array_equal(got, want)
        assert threaded == monte_carlo(config)

    def test_predicted_stderr_survives_overflowing_moments(self):
        config = _ancilla_config(v_total=1e-200, shots=10)
        assert predicted_stderr(config) == np.inf

    def test_predicted_stderr_is_the_exact_variance_per_shot(self):
        config = _ancilla_config(v_total=0.6, u=0.9, shots=12_345)
        assert predicted_stderr(config) == np.sqrt(exact_variance(config) / config.shots)

    def test_exact_variance_matches_sampled_variances(self):
        # random angles, readout visibilities and meters; each sample variance
        # s^2 must lie within 5 of its own standard errors, sqrt((mu4 - s^4)/n)
        rng = np.random.default_rng(2026)
        for trial in range(6):
            meters = [
                GaussianMeterSpec(sigma=rng.uniform(0.4, 2.5), eta=rng.uniform(0.3, 1.0))
                if (trial + arm) % 2 == 0
                else AncillaMeterSpec(v_total=rng.uniform(0.5, 1.0))
                for arm in (1, 2)
            ]
            config = ExperimentConfig(
                meter1=meters[0], meter2=meters[1], b_spec=ProjectiveMeterSpec(v=rng.uniform(0.5, 1.0)),
                angles=tuple(rng.uniform(-np.pi, np.pi, size=4)), shots=4 * CHUNK_SHOTS, seed=trial,
            )
            chunks = []
            monte_carlo(config, on_records=chunks.append)
            values = correlator(*(np.concatenate(column) for column in zip(*chunks)))
            deviations = values - values.mean()
            sampled = np.mean(deviations**2)
            stderr = np.sqrt((np.mean(deviations**4) - sampled**2) / values.size)
            assert abs(sampled - exact_variance(config)) < 5 * stderr

    @pytest.mark.parametrize(
        "meter1, meter2",
        [
            (GaussianMeterSpec(sigma=0.7), GaussianMeterSpec(sigma=0.7)),
            (GaussianMeterSpec(sigma=3.0, eta=0.4), AncillaMeterSpec(v_total=0.3, u=0.5)),
            (AncillaMeterSpec(v_total=0.6, u=0.9), AncillaMeterSpec()),
        ],
    )
    @pytest.mark.parametrize("v", [0.0, 0.8, 1.0])
    def test_at_default_angles_the_second_moment_is_the_old_bound(self, meter1, meter2, v):
        # both readouts are orthogonal to their weak analyzers there, so
        # E[C^2] is the product form the a-priori stderr used before
        config = ExperimentConfig(meter1=meter1, meter2=meter2, b_spec=ProjectiveMeterSpec(v=v))
        m1, m2 = meter1.signal_second_moment, meter2.signal_second_moment
        second = exact_variance(config) + exact_mean(config) ** 2
        np.testing.assert_allclose(second, m1 * m2 + m1 + m2 + 1.0, rtol=1e-12)

    def test_a_moment_weighed_by_zero_leaves_the_variance_finite(self):
        # arm 2 reads +/-1 exactly and reads out opposite, b2 = -alpha2, so
        # C = 2 b1 alpha2 never sees alpha1, whose sigma**2 overflows
        config = ExperimentConfig(
            meter1=GaussianMeterSpec(sigma=1e200), meter2=AncillaMeterSpec(),
            angles=(0.0, 0.0, 0.0, np.pi), shots=1000,
        )
        assert config.meter1.signal_second_moment == np.inf
        assert exact_variance(config) == pytest.approx(0.0, abs=1e-12)
        assert monte_carlo(config).stderr == 0.0

    def test_predicted_stderr_is_in_the_ballpark(self):
        config = _gaussian_config(sigma=3.0, shots=100_000, seed=8)
        estimate = monte_carlo(config)
        predicted = predicted_stderr(config)
        assert 0.3 * estimate.stderr < predicted < 3 * estimate.stderr

    def test_agrees_with_oracle_on_the_full_acceptance_grid(self):
        configs = [
            _gaussian_config(sigma=sigma, eta=eta, v=v, shots=50_000, seed=909)
            for sigma in (0.5, 1.0, 2.0, 5.0)
            for eta in (0.5, 1.0)
            for v in (0.8, 1.0)
        ] + [
            _ancilla_config(v_total=v_total, u=u, v=v, shots=50_000, seed=909)
            for v_total in (0.3, 0.6, 0.9)
            for u in (0.8, 1.0)
            for v in (0.8, 1.0)
            if v_total <= u
        ]
        for config in configs:
            estimate = monte_carlo(config)
            assert abs(estimate.mean - exact_mean(config)) < 4 * estimate.stderr


def _value_moments(values):
    """:func:`_moments` of blocks whose C is ``values``: alpha1 = values, alpha2 = 1, b1 = b2 = 0."""
    values = np.asarray(values, dtype=float)
    return _moments(values.copy(), np.ones_like(values), np.zeros_like(values), np.zeros_like(values), Workspace(values.size))


class TestChunksInOrder:
    """The one bounded, in-order pool behind monte_carlo and ``blgi lhv``."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_results_in_task_order_with_bounded_lookahead(self, threads):
        started = []

        def task(index):
            started.append(index)
            return index

        results = []
        for result in _chunks_in_order((partial(task, index) for index in range(20)), threads):
            # at most threads + 1 tasks submitted and not yet consumed
            assert max(started) <= result + threads
            results.append(result)
        assert results == list(range(20))

    @pytest.mark.parametrize("threads", [1, 3])
    def test_a_task_error_is_raised_in_its_place(self, threads):
        def task(index):
            if index == 2:
                raise NumericalError("task 2")
            return index

        results = []
        with pytest.raises(NumericalError, match="task 2"):
            for result in _chunks_in_order((partial(task, index) for index in range(6)), threads):
                results.append(result)
        assert results == [0, 1]

    @pytest.mark.parametrize("threads, workers", [(None, 2), (1, 1), (1000, 2)])
    def test_one_worker_per_usable_cpu_capped_by_threads(self, monkeypatch, threads, workers):
        pools = []

        class Spy(ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                pools.append(self)

        monkeypatch.setattr("blgi.protocol._usable_cpus", lambda: 2)
        monkeypatch.setattr("blgi.protocol.ThreadPoolExecutor", Spy)
        [ident] = _chunks_in_order([threading.get_ident], threads)
        assert ident != threading.get_ident()
        assert [pool._max_workers for pool in pools] == [workers]
        # a pool starts a thread only when none is idle, so one task runs on one thread
        assert len(pools[0]._threads) == 1

    @pytest.mark.parametrize("count, usable", [(5, 5), (None, 1)])
    def test_without_an_affinity_mask_every_cpu_is_usable(self, monkeypatch, count, usable):
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: count)
        assert blgi.protocol._usable_cpus() == usable


class TestEstimateFromSums:
    """:func:`estimate` from per-block sums: counts, totals and centred sums of squares."""

    def test_mean_and_stderr(self):
        values = np.array([1.0, 2.0, 4.0])
        result = estimate([_value_moments(values)])
        assert result.mean == values.mean()
        np.testing.assert_allclose(result.stderr, values.std(ddof=1) / np.sqrt(3), rtol=1e-12)

    def test_one_value_raises(self):
        with pytest.raises(ValueError, match="2 for a standard error"):
            estimate([_value_moments([2.5])])

    def test_monte_carlo_at_one_shot_raises(self):
        with pytest.raises(ValueError, match="2 for a standard error"):
            monte_carlo(_gaussian_config(shots=1))

    def test_large_offset_does_not_cancel(self):
        # a one-pass sum of squares near 4e18 keeps nothing of the spread
        result = estimate([_value_moments(1e9 + np.arange(4.0))])
        assert result.mean == 1e9 + 1.5
        assert result.stderr == np.sqrt(5.0 / 3.0) / 2.0

    @pytest.mark.parametrize("seed", range(5))
    def test_merged_parts_equal_one_part(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(5.0, 2.0, size=2000)
        cuts = np.sort(rng.choice(np.arange(1, values.size), size=20, replace=False))
        # parts of one value at both ends and at a random place
        cuts = np.unique(np.concatenate([[1, cuts[3] + 1, values.size - 1], cuts]))
        parts = [_value_moments(part) for part in np.split(values, cuts)]
        assert min(n for n, _, _ in parts) == 1
        merged, whole = estimate(parts), estimate([_value_moments(values)])
        assert merged.shots == whole.shots == values.size
        np.testing.assert_allclose(merged.mean, whole.mean, rtol=1e-15)
        np.testing.assert_allclose(merged.stderr, whole.stderr, rtol=1e-15)

    @pytest.mark.parametrize("total, m2", [(np.inf, np.inf), (np.nan, 1.0), (1.0, np.inf)])
    def test_non_finite_raises(self, total, m2):
        with pytest.raises(NumericalError, match="not finite"):
            estimate([(10, total, m2)])


class TestSweep:
    def test_sigma_sweep_shape_and_crossing(self):
        config = _gaussian_config(shots=20_000)
        values = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
        points = sweep(config, "sigma", values)
        analytic = [p.analytic for p in points]
        assert all(b > a for a, b in zip(analytic, analytic[1:]))
        # the closed form crosses the classical bound between sigma = 1 and 2
        assert analytic[2] < 2.0 < analytic[3]
        for point in points:
            assert abs(point.exact - point.analytic) < 1e-6

    def test_ancilla_sweep_approaches_quantum_bound(self):
        config = _ancilla_config(shots=20_000)
        points = sweep(config, "v_total", [1e-4, 0.3, 0.6, 0.9])
        assert abs(points[0].analytic - 2 * SQRT2) < 1e-6
        analytic = [p.analytic for p in points]
        assert all(a > b for a, b in zip(analytic, analytic[1:]))

    def test_weak_meters_with_low_readout_visibility_never_violate(self):
        config = _gaussian_config(v=0.68, shots=20_000)
        points = sweep(config, "sigma", [1.0, 5.0, 20.0, 100.0])
        assert all(p.analytic <= 2.0 for p in points)
        assert all(p.exact <= 2.0 + 1e-8 for p in points)

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            sweep(_gaussian_config(shots=10), "kappa", [1.0])

    def test_axis_meter_type_mismatch(self):
        with pytest.raises(ValueError, match="requires Gaussian"):
            sweep(_ancilla_config(shots=10), "sigma", [1.0])
        with pytest.raises(ValueError, match="requires ancilla"):
            sweep(_gaussian_config(shots=10), "v_total", [0.5])

    def test_invalid_value_reported(self):
        with pytest.raises(ValueError, match="-3"):
            sweep(_gaussian_config(shots=10), "sigma", [-3.0])

    def test_each_point_is_its_own_monte_carlo(self):
        # all points' chunks share one pool; each point still reduces exactly its own
        config = _gaussian_config(eta=0.5, shots=2 * CHUNK_SHOTS + 5, seed=9)
        values = [0.6, 1.5, 4.0]
        points = sweep(config, "sigma", values, threads=3)
        assert [p.estimate for p in points] == [monte_carlo(retune(config, sigma=v), threads=1) for v in values]

    def test_every_value_is_checked_before_anything_is_drawn(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew a chunk")

        monkeypatch.setattr("blgi.protocol._run_chunk", no_draws)
        with pytest.raises(ValueError, match="-3"):
            sweep(_gaussian_config(shots=10), "sigma", [1.0, 2.0, -3.0])


class TestChunkMemory:
    def test_one_gaussian_chunk_peaks_under_seven_mib(self):
        # each worker holds one chunk's kernel peak, so the kernel must stay lean
        config = _gaussian_config(sigma=10.0, eta=0.5, shots=CHUNK_SHOTS, seed=3)
        draw = partial(_run_chunk, config, 0, CHUNK_SHOTS)
        _sampled_moments(draw)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _sampled_moments(draw)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 2**20

    def test_a_warm_chunk_allocates_nothing_large(self):
        # after one chunk, the workspace it was lent holds every array a chunk needs, and the next chunk borrows it
        config = _gaussian_config(sigma=10.0, eta=0.5, shots=64 * CHUNK_SHOTS, seed=3)
        _sampled_moments(partial(_run_chunk, config, 0, CHUNK_SHOTS))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _sampled_moments(partial(_run_chunk, config, 1, CHUNK_SHOTS))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # one array of CHUNK_SHOTS doubles is 0.5 MiB
        assert peak < 2**19

    def test_a_workspace_holds_one_chunk_peak_over_many_chunks(self):
        config = _gaussian_config(sigma=10.0, eta=0.5, shots=CHUNK_SHOTS, seed=3)
        other = _ancilla_config(v_total=0.6, u=0.9, shots=CHUNK_SHOTS, seed=3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            workspace = Workspace(CHUNK_SHOTS)
            for index, c in enumerate([config, other, config]):
                sample_records(
                    CHUNK_SHOTS, c.meter1, c.meter2, c.b_spec, c.angles, substream_rng(c.seed, index), workspace
                )
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 7 * 2**20
        # a Gaussian eta < 1 chunk and an ancilla chunk each fit in the same eight float64 buffers
        assert len(workspace._buffers) == 8
        assert all(buffer.dtype == np.float64 for buffer in workspace._buffers)


class TestWorkspaceReuse:
    """A lent workspace carries no state from one chunk into the next."""

    CONFIGS = [
        _gaussian_config(sigma=1.3, eta=1.0, shots=2 * CHUNK_SHOTS + 77, seed=4),
        _gaussian_config(sigma=0.8, eta=0.5, v=0.9, shots=2 * CHUNK_SHOTS + 77, seed=5, angles=(0.3, -1.2, 2.5, 0.9)),
        _ancilla_config(v_total=0.45, u=0.8, v=0.85, shots=2 * CHUNK_SHOTS + 77, seed=6),
        _gaussian_config(sigma=2.0, eta=0.5, shots=2, seed=7),
    ]

    @pytest.mark.parametrize("threads", [1, 3])
    def test_every_chunk_is_a_fresh_workspace_chunk_and_stays_so(self, monkeypatch, threads):
        # three usable CPUs, so --threads 3 runs three workers on any host
        monkeypatch.setattr("blgi.protocol._usable_cpus", lambda: 3)
        received = []
        estimates = list(_monte_carlo_estimates(self.CONFIGS, threads, received.append))
        assert [e.shots for e in estimates] == [c.shots for c in self.CONFIGS]
        chunks = [
            (config, index, n)
            for config in self.CONFIGS
            for index, n in enumerate([CHUNK_SHOTS, CHUNK_SHOTS, 77] if config.shots > 2 else [2])
        ]
        assert len(received) == len(chunks)
        # read only now that every chunk has run: no worker wrote into a chunk it handed over
        for records, (c, index, n) in zip(received, chunks):
            want = sample_records(n, c.meter1, c.meter2, c.b_spec, c.angles, substream_rng(c.seed, index))
            assert [r.tobytes() for r in records] == [w.tobytes() for w in want]
        assert estimates == list(_monte_carlo_estimates(self.CONFIGS, 1))


class TestLentWorkspaces:
    """Each block borrows a workspace from one list that outlives every pool."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_second_call_builds_no_workspace(self, monkeypatch, threads):
        monkeypatch.setattr("blgi.protocol._usable_cpus", lambda: 2)
        monkeypatch.setattr("blgi.protocol._idle_workspaces", [])
        built = []

        class Spy(Workspace):
            def __init__(self, size):
                built.append(size)
                super().__init__(size)

        monkeypatch.setattr("blgi.measurement.Workspace", Spy)
        # each call's first chunks wait for each other, so both calls run `threads` chunks at once
        meeting = threading.Barrier(threads, timeout=30)
        run_chunk = blgi.protocol._run_chunk

        def met(config, index, *args):
            if index < threads:
                meeting.wait()
            return run_chunk(config, index, *args)

        monkeypatch.setattr("blgi.protocol._run_chunk", met)
        config = _gaussian_config(sigma=2.0, eta=0.5, shots=4 * CHUNK_SHOTS, seed=3)
        first = monte_carlo(config, threads=threads)
        assert len(built) == threads
        assert monte_carlo(config, threads=threads) == first
        assert len(built) == threads

    def test_at_most_one_workspace_per_worker(self, monkeypatch):
        # three workers on any host, switching as often as they can: a workspace
        # lent to two chunks at once would corrupt a chunk's moments
        monkeypatch.setattr("blgi.protocol._usable_cpus", lambda: 3)
        monkeypatch.setattr("blgi.protocol._idle_workspaces", [])
        config = _ancilla_config(v_total=0.6, u=0.9, shots=12 * CHUNK_SHOTS + 5, seed=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = monte_carlo(config, threads=3)
        finally:
            sys.setswitchinterval(interval)
        lent = blgi.protocol._idle_workspaces
        assert 1 <= len(lent) <= 3 and len({id(workspace) for workspace in lent}) == len(lent)
        assert threaded == monte_carlo(config, threads=1)


def _lhv_block(n, workspace):
    """One hidden-variable block of ``n`` shots, drawn as ``lhv_mean`` draws it: 4 hidden states, invasive."""
    strategy = random_strategy(RandomStrategySpec(4, invasiveness=0.3), np.random.default_rng(3))
    return lhv_records(strategy, n, np.random.default_rng(4), workspace)[1:]


def _block_draws(n):
    """A Gaussian eta < 1 chunk, an ancilla chunk, an lhv block and both mixed chunks at v < 1, each of ``n`` shots."""
    gaussian = _gaussian_config(sigma=2.0, eta=0.5, shots=n, seed=3)
    ancilla = _ancilla_config(v_total=0.6, u=0.9, shots=n, seed=3)
    meters = (AncillaMeterSpec(v_total=0.6, u=0.9), GaussianMeterSpec(sigma=2.0, eta=0.5))
    mixed = [
        ExperimentConfig(
            meter1=m1, meter2=m2, b_spec=ProjectiveMeterSpec(v=0.8), angles=(0.3, -1.2, 2.5, 0.9), shots=n, seed=3
        )
        for m1, m2 in (meters, meters[::-1])
    ]
    chunks = [partial(_run_chunk, config, 5, n) for config in [gaussian, ancilla, *mixed]]
    return [*chunks[:2], partial(_lhv_block, n), *chunks[2:]]


class TestBlockWorkingSet:
    """A block's draw and moments hold only the buffers live at its peak, and kept records are the draw's own."""

    # a kernel's peak is at the readout-1 draw: both weak records, b3 and its normaliser, readout 2's
    # P and Q, and the draw's threshold and coin; C takes one buffer already freed there.
    # An lhv block holds its four records and the scratch buffer that C takes, its terms over alpha1
    @pytest.mark.parametrize("draw, buffers", zip(_block_draws(CHUNK_SHOTS), [8, 8, 5, 8, 8]))
    def test_a_lent_workspace_holds_the_block_peak(self, monkeypatch, draw, buffers):
        monkeypatch.setattr("blgi.protocol._idle_workspaces", [])
        _sampled_moments(draw)
        [workspace] = blgi.protocol._idle_workspaces
        assert len(workspace._buffers) == buffers

    @pytest.mark.parametrize("draw", _block_draws(77))
    def test_kept_records_are_copied_before_c_is_formed(self, draw):
        kept, moments = _sampled_moments(draw, keep_records=True)
        fresh = draw(Workspace(77))
        assert [k.tobytes() for k in kept] == [f.tobytes() for f in fresh]
        assert moments == _moments(*fresh, Workspace(77))


class TestRetune:
    def test_sets_both_meters_and_the_readout(self):
        config = retune(_gaussian_config(shots=10), sigma=2.5, eta=0.5, v=0.8)
        assert config.meter1 == config.meter2 == GaussianMeterSpec(sigma=2.5, eta=0.5)
        assert config.b_spec == ProjectiveMeterSpec(v=0.8)
        # the readout alone keeps both meters and every other readout field
        base = ExperimentConfig(
            meter1=GaussianMeterSpec(sigma=2.5, eta=0.5), meter2=AncillaMeterSpec(v_total=0.3, u=0.4),
            b_spec=ProjectiveMeterSpec(v=0.7), shots=10,
        )
        assert retune(base, v=0.8) == replace(base, b_spec=replace(base.b_spec, v=0.8))

    def test_validates_the_final_pair(self):
        # v_total=0.8 alone would exceed the old u=0.4
        config = retune(_ancilla_config(v_total=0.3, u=0.4, shots=10), v_total=0.8, u=0.9)
        assert config.meter1 == config.meter2 == AncillaMeterSpec(v_total=0.8, u=0.9)

    def test_mixed_meters_reject_both_kinds(self):
        config = ExperimentConfig(
            meter1=GaussianMeterSpec(sigma=1.0), meter2=AncillaMeterSpec(v_total=0.5), shots=10
        )
        with pytest.raises(ValueError, match="meter2 is ancilla"):
            retune(config, sigma=2.0)
        with pytest.raises(ValueError, match="meter1 is Gaussian"):
            retune(config, u=0.9)
