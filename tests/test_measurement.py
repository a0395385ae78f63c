import numpy as np
import pytest
from scipy.special import roots_hermite

from blgi.measurement import (
    AncillaMeterSpec,
    GaussianMeterSpec,
    ProjectiveMeterSpec,
    ancilla_kraus,
    apply_dephasing,
    bell_coefficients,
    dephasing_factor,
    excess_dephasing_factor,
    gaussian_kraus,
    projective_sample,
    sample_ancilla,
    sample_ancilla_batch,
    sample_gaussian,
    sample_gaussian_batch,
    sample_projective_batch,
)
from blgi.qmath import TwoQubitState, analyzer_basis, apply_operator, bell_state, embed


def _flat_hermite(order, sigma):
    """Nodes and flat weights for integrating f(alpha) d(alpha)."""
    x, w = roots_hermite(order)
    keep = w > 0
    x, w = x[keep], w[keep]
    alpha = np.sqrt(2.0) * sigma * x
    weights = np.sqrt(2.0) * sigma * np.exp(np.log(w) + x * x)
    return alpha, weights


def _ket00_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    return TwoQubitState.from_rho(rho)


def _product_state(ket1, ket2):
    psi = np.kron(ket1, ket2).astype(complex)
    return TwoQubitState.from_rho(np.outer(psi, psi.conj()))


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [dict(sigma=0.0), dict(sigma=-1.0), dict(sigma=np.inf)])
    def test_gaussian_sigma(self, kwargs):
        with pytest.raises(ValueError):
            GaussianMeterSpec(**kwargs)

    @pytest.mark.parametrize("eta", [0.0, -0.5, 1.5])
    def test_gaussian_eta(self, eta):
        with pytest.raises(ValueError):
            GaussianMeterSpec(sigma=1.0, eta=eta)

    def test_ancilla_total_visibility_cannot_exceed_readout(self):
        with pytest.raises(ValueError):
            AncillaMeterSpec(v_total=0.9, u=0.8)

    @pytest.mark.parametrize("v_total", [0.0, 1.2])
    def test_ancilla_range(self, v_total):
        with pytest.raises(ValueError):
            AncillaMeterSpec(v_total=v_total)

    @pytest.mark.parametrize("v", [-0.1, 1.1])
    def test_projective_range(self, v):
        with pytest.raises(ValueError):
            ProjectiveMeterSpec(v=v)


class TestGaussianKraus:
    @pytest.mark.parametrize("sigma", [0.1, 1.0, 5.0])
    def test_completeness_by_quadrature(self, sigma):
        basis = analyzer_basis(0.9)
        alpha, weights = _flat_hermite(200, sigma)
        total = np.zeros((2, 2), dtype=complex)
        for a, w in zip(alpha, weights):
            kraus = gaussian_kraus(a, sigma, basis)
            total += w * kraus.conj().T @ kraus
        np.testing.assert_allclose(total, np.eye(2), atol=1e-8)

    def test_projective_limit_selects_one_branch(self):
        basis = analyzer_basis(0.0)
        kraus = gaussian_kraus(1.0, 0.01, basis)
        ratio = abs(kraus[1, 1]) / abs(kraus[0, 0])
        assert ratio < 1e-300

    def test_outcome_average_damps_coherences(self):
        # quadrature oracle: averaging K rho K^dag over the signal
        # multiplies basis off-diagonals by exp(-1/(2 sigma^2))
        sigma = 1.3
        basis = analyzer_basis(np.pi / 2)
        state = bell_state()
        alpha, weights = _flat_hermite(300, sigma)
        averaged = np.zeros((4, 4), dtype=complex)
        for a, w in zip(alpha, weights):
            kraus = embed(gaussian_kraus(a, sigma, basis), 1)
            averaged += w * (kraus @ state.rho @ kraus.conj().T)
        expected = apply_dephasing(state, 1, np.exp(-1 / (2 * sigma**2)), basis)
        np.testing.assert_allclose(averaged, expected.rho, atol=1e-8)


class TestAncillaKraus:
    def test_projective_limit(self):
        basis = analyzer_basis(0.7)
        np.testing.assert_allclose(ancilla_kraus(+1, 1.0, basis), basis.projector0, atol=1e-14)

    def test_completeness_exact(self):
        basis = analyzer_basis(2.1)
        for v_ent in (0.2, 0.6, 1.0):
            total = sum(
                ancilla_kraus(s, v_ent, basis).conj().T @ ancilla_kraus(s, v_ent, basis)
                for s in (+1, -1)
            )
            np.testing.assert_allclose(total, np.eye(2), atol=1e-15)

    def test_entry_values(self):
        basis = analyzer_basis(0.0)
        kraus = ancilla_kraus(+1, 0.6, basis)
        assert abs(kraus[0, 0] - np.sqrt(0.8)) < 1e-15
        assert abs(kraus[1, 1] - np.sqrt(0.2)) < 1e-15

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            ancilla_kraus(0, 0.5, analyzer_basis(0.0))


class TestDephasingFactor:
    def test_ideally_weak_limits(self):
        assert dephasing_factor(GaussianMeterSpec(sigma=1e6)) > 1 - 1e-9
        assert dephasing_factor(AncillaMeterSpec(v_total=1e-6)) > 1 - 1e-9

    def test_ancilla_three_four_five(self):
        assert abs(dephasing_factor(AncillaMeterSpec(v_total=0.6, u=1.0)) - 0.8) < 1e-15

    def test_gaussian_sigma_two(self):
        # the exponent carries sigma^2, confirmed by the quadrature oracle above
        assert abs(dephasing_factor(GaussianMeterSpec(sigma=2.0)) - np.exp(-1 / 8)) < 1e-15

    def test_efficiency_accelerates_dephasing(self):
        assert abs(dephasing_factor(GaussianMeterSpec(sigma=1.0, eta=0.5)) - np.exp(-1.0)) < 1e-15

    def test_overflowing_width_is_fully_coherent(self):
        # sigma**2 overflows a float; the spec's variance reads inf instead
        spec = GaussianMeterSpec(sigma=1e300, eta=0.5)
        assert spec.variance == np.inf
        assert dephasing_factor(spec) == 1.0
        assert excess_dephasing_factor(spec) == 1.0

    def test_ancilla_with_readout_visibility(self):
        spec = AncillaMeterSpec(v_total=0.4, u=0.8)
        assert abs(dephasing_factor(spec) - np.sqrt(1 - 0.5**2)) < 1e-15


class TestApplyDephasing:
    def test_factor_one_is_identity(self):
        state = bell_state()
        updated = apply_dephasing(state, 1, 1.0, analyzer_basis(0.3))
        np.testing.assert_allclose(updated.rho, state.rho, atol=1e-14)

    def test_full_decoherence_kills_bell_coherence(self):
        updated = apply_dephasing(bell_state(), 1, 0.0, analyzer_basis(0.0))
        np.testing.assert_allclose(updated.rho, np.diag([0.5, 0, 0, 0.5]), atol=1e-14)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            apply_dephasing(bell_state(), 1, 1.5, analyzer_basis(0.0))

    def test_preserves_trace_and_positivity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = raw @ raw.conj().T
            state = TwoQubitState.from_rho(rho / np.trace(rho).real)
            updated = apply_dephasing(state, 2, rng.random(), analyzer_basis(rng.normal()))
            assert abs(np.trace(updated.rho).real - 1) < 1e-12
            assert np.linalg.eigvalsh(updated.rho).min() > -1e-12


class TestGaussianSampling:
    def test_calibration_on_eigenstate(self):
        # signal mean equals the eigenvalue on an eigenstate of the basis
        spec = GaussianMeterSpec(sigma=2.0)
        basis = analyzer_basis(0.0)
        rng = np.random.default_rng(42)
        shots = 1_000_000
        coeff = np.zeros((shots, 2, 2))
        coeff[:, 0, 0] = 1.0  # |00>
        signals, _ = sample_gaussian_batch(coeff, 1, spec, basis, rng)
        stderr = spec.sigma / np.sqrt(shots)
        assert abs(signals.mean() - 1.0) < 4 * stderr

    def test_calibration_general_state(self):
        # E[signal] = <O(phi)> for a state that is not an eigenstate
        spec = GaussianMeterSpec(sigma=1.0)
        basis = analyzer_basis(1.1)
        rng = np.random.default_rng(1)
        shots = 500_000
        coeff = bell_coefficients(shots)
        signals, _ = sample_gaussian_batch(coeff, 1, spec, basis, rng)
        stderr = np.sqrt(spec.sigma**2 + 1) / np.sqrt(shots)
        assert abs(signals.mean() - 0.0) < 4 * stderr

    def test_single_shot_outcome_contract(self):
        spec = GaussianMeterSpec(sigma=0.7, eta=0.8)
        rng = np.random.default_rng(9)
        out = sample_gaussian(bell_state(), 1, spec, analyzer_basis(0.5), rng)
        assert np.isfinite(out.signal)
        assert out.branch_weight > 0
        assert abs(np.trace(out.post_state.rho).real - 1) < 1e-10

    @pytest.mark.parametrize("eta,factor", [(1.0, np.exp(-0.5)), (0.5, np.exp(-1.0))])
    def test_average_damping_matches_dephasing_factor(self, eta, factor):
        # ensemble-averaged coherence of |+>|0> after measuring arm 1 in the
        # computational basis shrinks by the meter's dephasing factor
        spec = GaussianMeterSpec(sigma=1.0, eta=eta)
        basis = analyzer_basis(0.0)
        rng = np.random.default_rng(77)
        shots = 400_000
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        coeff = np.zeros((shots, 2, 2))
        coeff[:, 0, 0] = plus[0]
        coeff[:, 1, 0] = plus[1]
        _, coeff = sample_gaussian_batch(coeff, 1, spec, basis, rng)
        mean_rho_arm1 = np.einsum("nab,ncb->ac", coeff, coeff) / shots
        coherence = mean_rho_arm1[0, 1].real
        assert abs(coherence - 0.5 * factor) < 4 * 0.5 / np.sqrt(shots)

    def test_single_shot_average_damping(self):
        spec = GaussianMeterSpec(sigma=1.0)
        basis = analyzer_basis(0.0)
        rng = np.random.default_rng(123)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        state = _product_state(plus, np.array([1.0, 0.0]))
        shots = 20_000
        accumulated = np.zeros((4, 4), dtype=complex)
        for _ in range(shots):
            accumulated += sample_gaussian(state, 1, spec, basis, rng).post_state.rho
        coherence = (accumulated / shots)[0, 2].real
        assert abs(coherence - 0.5 * np.exp(-0.5)) < 5 * 0.5 / np.sqrt(shots)


class TestAncillaSampling:
    def test_eigenstate_signal_distribution(self):
        spec = AncillaMeterSpec(v_total=0.5, u=1.0)
        basis = analyzer_basis(0.0)
        rng = np.random.default_rng(4)
        shots = 1_000_000
        coeff = np.zeros((shots, 2, 2))
        coeff[:, 0, 0] = 1.0
        signals, _ = sample_ancilla_batch(coeff, 1, spec, basis, rng)
        assert set(np.unique(signals)) == {-2.0, 2.0}
        p_plus = (signals > 0).mean()
        assert abs(p_plus - 0.75) < 4 * np.sqrt(0.75 * 0.25 / shots)
        assert abs(signals.mean() - 1.0) < 4 * np.sqrt((1 / 0.25 - 1) / shots)

    def test_projective_limit(self):
        spec = AncillaMeterSpec(v_total=1.0, u=1.0)
        rng = np.random.default_rng(0)
        out = sample_ancilla(bell_state(), 1, spec, analyzer_basis(0.0), rng)
        assert out.signal in (-1.0, 1.0)
        assert abs(out.post_state.purity() - 1.0) < 1e-10

    def test_projective_limit_kraus_update_on_bell_state(self):
        # full-strength plus branch acts as the |0> projector: weight 1/2,
        # post-state |00><00|
        kraus = embed(ancilla_kraus(+1, 1.0, analyzer_basis(0.0)), 1)
        weight, updated = apply_operator(bell_state(), kraus)
        assert abs(weight - 0.5) < 1e-12
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(updated.rho, expected, atol=1e-12)

    def test_second_moment_is_exactly_inverse_square_visibility(self):
        spec = AncillaMeterSpec(v_total=0.6)
        rng = np.random.default_rng(8)
        shots = 200_000
        coeff = bell_coefficients(shots)
        signals, _ = sample_ancilla_batch(coeff, 1, spec, basis=analyzer_basis(0.4), rng=rng)
        np.testing.assert_allclose(np.abs(signals), 1 / 0.6, atol=1e-12)

    def test_eigenstate_variance(self):
        # signal variance on a definite state is 1/V^2 - 1
        spec = AncillaMeterSpec(v_total=0.6)
        basis = analyzer_basis(0.0)
        rng = np.random.default_rng(14)
        shots = 500_000
        coeff = np.zeros((shots, 2, 2))
        coeff[:, 0, 0] = 1.0
        signals, _ = sample_ancilla_batch(coeff, 1, spec, basis, rng)
        expected = 1 / 0.36 - 1
        assert abs(signals.var(ddof=1) - expected) < 0.01 * expected

    def test_average_damping_is_exact_two_branch_sum(self):
        # outcome-averaged update equals the dephasing channel, exactly
        spec = AncillaMeterSpec(v_total=0.6, u=1.0)
        basis = analyzer_basis(0.9)
        state = bell_state()
        averaged = np.zeros((4, 4), dtype=complex)
        for sign in (+1, -1):
            kraus = embed(ancilla_kraus(sign, spec.v_ent, basis), 1)
            averaged += kraus @ state.rho @ kraus.conj().T
        expected = apply_dephasing(state, 1, dephasing_factor(spec), basis)
        np.testing.assert_allclose(averaged, expected.rho, atol=1e-12)

    def test_readout_visibility_preserves_calibration(self):
        # u < 1 flips the reported sign but the rescaled mean still matches <O>
        spec = AncillaMeterSpec(v_total=0.4, u=0.8)
        basis = analyzer_basis(np.pi / 3)
        rng = np.random.default_rng(21)
        shots = 1_000_000
        coeff = np.zeros((shots, 2, 2))
        coeff[:, 0, 0] = 1.0
        signals, _ = sample_ancilla_batch(coeff, 1, spec, basis, rng)
        target = np.cos(np.pi / 3)
        stderr = np.sqrt(1 / spec.v_total**2 - target**2) / np.sqrt(shots)
        assert abs(signals.mean() - target) < 4 * stderr


class TestProjectiveSampling:
    def test_eigenstate_is_deterministic(self):
        spec = ProjectiveMeterSpec(v=1.0)
        rng = np.random.default_rng(2)
        state = _ket00_state()
        for _ in range(50):
            out = projective_sample(state, 1, spec, analyzer_basis(0.0), rng)
            assert out.signal == 1.0

    def test_zero_visibility_is_coin_flip(self):
        spec = ProjectiveMeterSpec(v=0.0)
        rng = np.random.default_rng(6)
        shots = 200_000
        coeff = np.zeros((shots, 2, 2))
        coeff[:, 0, 0] = 1.0
        signals, _ = sample_projective_batch(coeff, 1, spec, analyzer_basis(0.0), rng)
        assert set(np.unique(signals)) == {-1.0, 1.0}
        assert abs(signals.mean()) < 4 / np.sqrt(shots)

    def test_bell_readouts_agree_at_equal_angles(self):
        spec = ProjectiveMeterSpec(v=1.0)
        basis = analyzer_basis(0.0)
        rng = np.random.default_rng(10)
        for _ in range(200):
            out1 = projective_sample(bell_state(), 1, spec, basis, rng)
            out2 = projective_sample(out1.post_state, 2, spec, basis, rng)
            assert out1.signal == out2.signal

    def test_visibility_scales_reported_mean(self):
        spec = ProjectiveMeterSpec(v=0.7)
        basis = analyzer_basis(np.pi / 3)
        rng = np.random.default_rng(33)
        shots = 500_000
        coeff = np.zeros((shots, 2, 2))
        coeff[:, 0, 0] = 1.0
        signals, _ = sample_projective_batch(coeff, 1, spec, basis, rng)
        target = 0.7 * np.cos(np.pi / 3)
        assert abs(signals.mean() - target) < 4 / np.sqrt(shots)


class TestNoSignaling:
    """Measuring one arm, averaged over outcomes, cannot move the other arm."""

    @staticmethod
    def _probe_state():
        psi = np.array([2.0, 1.0, 0.0, 1.0], dtype=complex)
        psi /= np.linalg.norm(psi)
        return TwoQubitState.from_rho(np.outer(psi, psi.conj()))

    def test_gaussian_meter(self):
        state = self._probe_state()
        before = state.reduced(2)
        sigma = 0.8
        basis = analyzer_basis(0.6)
        alpha, weights = _flat_hermite(512, sigma)
        averaged = np.zeros((4, 4), dtype=complex)
        for a, w in zip(alpha, weights):
            kraus = embed(gaussian_kraus(a, sigma, basis), 1)
            averaged += w * (kraus @ state.rho @ kraus.conj().T)
        after = TwoQubitState.from_rho(averaged).reduced(2)
        np.testing.assert_allclose(after, before, atol=1e-10)

    def test_ancilla_meter(self):
        state = self._probe_state()
        before = state.reduced(2)
        basis = analyzer_basis(1.9)
        averaged = np.zeros((4, 4), dtype=complex)
        for sign in (+1, -1):
            kraus = embed(ancilla_kraus(sign, 0.7, basis), 1)
            averaged += kraus @ state.rho @ kraus.conj().T
        after = TwoQubitState.from_rho(averaged).reduced(2)
        np.testing.assert_allclose(after, before, atol=1e-10)

    def test_projective_meter(self):
        state = self._probe_state()
        before = state.reduced(2)
        basis = analyzer_basis(-0.4)
        averaged = np.zeros((4, 4), dtype=complex)
        for projector in (basis.projector0, basis.projector1):
            kraus = embed(projector, 1)
            averaged += kraus @ state.rho @ kraus.conj().T
        after = TwoQubitState.from_rho(averaged).reduced(2)
        np.testing.assert_allclose(after, before, atol=1e-10)


class TestBatchMatchesSingleShot:
    """The vectorized kernels and the single-shot samplers share one record law."""

    def test_gaussian_means_agree(self):
        spec = GaussianMeterSpec(sigma=1.5)
        basis = analyzer_basis(0.8)
        state = bell_state()
        rng = np.random.default_rng(50)
        single = np.array(
            [sample_gaussian(state, 1, spec, basis, rng).signal for _ in range(20_000)]
        )
        rng = np.random.default_rng(51)
        batch, _ = sample_gaussian_batch(bell_coefficients(200_000), 1, spec, basis, rng)
        pooled = np.sqrt(single.var() / single.size + batch.var() / batch.size)
        assert abs(single.mean() - batch.mean()) < 5 * pooled

    def test_ancilla_sign_probabilities_agree(self):
        spec = AncillaMeterSpec(v_total=0.6, u=0.9)
        basis = analyzer_basis(0.8)
        state = bell_state()
        rng = np.random.default_rng(52)
        single = np.array(
            [sample_ancilla(state, 1, spec, basis, rng).signal for _ in range(20_000)]
        )
        rng = np.random.default_rng(53)
        batch, _ = sample_ancilla_batch(bell_coefficients(200_000), 1, spec, basis, rng)
        p_single = (single > 0).mean()
        p_batch = (batch > 0).mean()
        pooled = np.sqrt(0.25 / single.size + 0.25 / batch.size)
        assert abs(p_single - p_batch) < 5 * pooled
