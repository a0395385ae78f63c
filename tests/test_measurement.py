import itertools

import numpy as np
import pytest
from scipy.special import roots_hermite

from blgi.measurement import (
    BELL_AMPLITUDES,
    AncillaMeterSpec,
    GaussianMeterSpec,
    ProjectiveMeterSpec,
    Workspace,
    _uniform_below,
    dephasing_factor,
    excess_dephasing_factor,
    first_readout,
    sample_records,
    second_readout,
    weak_stage,
)
from oracle import (
    TwoQubitState,
    analyzer_basis,
    ancilla_kraus,
    apply_dephasing,
    apply_operator,
    bell_state,
    embed,
    first_readout_reference,
    gaussian_kraus,
    sample_records_reference,
    second_readout_reference,
    weak_stage_reference,
)

#: |00>, one state shared by every shot
KET_00 = (1.0, 0.0, 0.0, 0.0)


def _flat_hermite(order, sigma):
    """Nodes and flat weights for integrating f(alpha) d(alpha)."""
    x, w = roots_hermite(order)
    keep = w > 0
    x, w = x[keep], w[keep]
    alpha = np.sqrt(2.0) * sigma * x
    weights = np.sqrt(2.0) * sigma * np.exp(np.log(w) + x * x)
    return alpha, weights


def _product_state(ket1, ket2):
    psi = np.kron(ket1, ket2).astype(complex)
    return TwoQubitState.from_rho(np.outer(psi, psi.conj()))


def _pure(amps, index):
    """Density matrix of shot ``index`` of the kernel's amplitude arrays."""
    psi = np.array([a[index] for a in amps], dtype=float)
    return TwoQubitState.from_rho(np.outer(psi, psi))


def _random_amplitudes(rng, n):
    psi = rng.normal(size=(4, n))
    return tuple(psi / np.linalg.norm(psi, axis=0))


def _mean_rho(amps):
    """Average of the shots' |psi><psi| in the |00>,|01>,|10>,|11> basis."""
    psi = np.stack(amps)
    return psi @ psi.T / psi.shape[1]


class StubGenerator:
    """Hands out fixed uniform blocks, in order, in place of ``random``."""

    def __init__(self, *blocks):
        self._blocks = list(blocks)

    def random(self, *, out):
        block = np.asarray(self._blocks.pop(0), dtype=float)
        assert block.shape == out.shape
        out[:] = block
        return out


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [dict(sigma=0.0), dict(sigma=-1.0), dict(sigma=np.inf)])
    def test_gaussian_sigma(self, kwargs):
        with pytest.raises(ValueError):
            GaussianMeterSpec(**kwargs)

    def test_gaussian_sigma_whose_square_underflows(self):
        # the kernel and the dephasing factor divide by sigma**2
        with pytest.raises(ValueError, match="sigma"):
            GaussianMeterSpec(sigma=1e-200)
        assert GaussianMeterSpec(sigma=1e-160).variance > 0.0

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
        phi = 0.0
        rng = np.random.default_rng(42)
        shots = 1_000_000
        signals, _ = weak_stage(KET_00, 1, spec, phi, rng, shots)
        stderr = spec.sigma / np.sqrt(shots)
        assert abs(signals.mean() - 1.0) < 4 * stderr

    def test_calibration_general_state(self):
        # E[signal] = <O(phi)> for a state that is not an eigenstate
        spec = GaussianMeterSpec(sigma=1.0)
        phi = 1.1
        rng = np.random.default_rng(1)
        shots = 500_000
        signals, _ = weak_stage(BELL_AMPLITUDES, 1, spec, phi, rng, shots)
        stderr = np.sqrt(spec.sigma**2 + 1) / np.sqrt(shots)
        assert abs(signals.mean() - 0.0) < 4 * stderr

    def test_single_shot_outcome_contract(self):
        spec = GaussianMeterSpec(sigma=0.7, eta=0.8)
        rng = np.random.default_rng(9)
        signals, post = weak_stage(BELL_AMPLITUDES, 1, spec, 0.5, rng, 1)
        assert signals.shape == (1,) and np.isfinite(signals[0])
        assert abs(sum(float(a[0]) ** 2 for a in post) - 1) < 1e-12

    @pytest.mark.parametrize("eta,factor", [(1.0, np.exp(-0.5)), (0.5, np.exp(-1.0))])
    def test_average_damping_matches_dephasing_factor(self, eta, factor):
        # ensemble-averaged coherence of |+>|0> after measuring arm 1 in the
        # computational basis shrinks by the meter's dephasing factor
        spec = GaussianMeterSpec(sigma=1.0, eta=eta)
        phi = 0.0
        rng = np.random.default_rng(77)
        shots = 400_000
        plus = 1 / np.sqrt(2)
        _, (c00, c01, c10, c11) = weak_stage((plus, 0.0, plus, 0.0), 1, spec, phi, rng, shots)
        coherence = (c00 * c10 + c01 * c11).mean()
        assert abs(coherence - 0.5 * factor) < 4 * 0.5 / np.sqrt(shots)

    def test_single_shot_average_damping(self):
        # the average of the per-shot post-states is the dephasing channel
        spec = GaussianMeterSpec(sigma=1.0)
        basis = analyzer_basis(0.0)
        rng = np.random.default_rng(123)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        state = _product_state(plus, np.array([1.0, 0.0]))
        shots = 20_000
        _, post = weak_stage(tuple(np.kron(plus, [1.0, 0.0])), 1, spec, basis.phi, rng, shots)
        expected = apply_dephasing(state, 1, np.exp(-0.5), basis)
        np.testing.assert_allclose(_mean_rho(post), expected.rho.real, atol=5 * 0.5 / np.sqrt(shots))


class TestAncillaSampling:
    def test_eigenstate_signal_distribution(self):
        spec = AncillaMeterSpec(v_total=0.5, u=1.0)
        phi = 0.0
        rng = np.random.default_rng(4)
        shots = 1_000_000
        signals, _ = weak_stage(KET_00, 1, spec, phi, rng, shots)
        assert set(np.unique(signals)) == {-2.0, 2.0}
        p_plus = (signals > 0).mean()
        assert abs(p_plus - 0.75) < 4 * np.sqrt(0.75 * 0.25 / shots)
        assert abs(signals.mean() - 1.0) < 4 * np.sqrt((1 / 0.25 - 1) / shots)

    def test_projective_limit(self):
        # full strength collapses the Bell pair onto |00> or |11>, as signalled
        spec = AncillaMeterSpec(v_total=1.0, u=1.0)
        rng = np.random.default_rng(0)
        signals, (c00, c01, c10, c11) = weak_stage(BELL_AMPLITUDES, 1, spec, 0.0, rng, 200)
        assert set(np.unique(signals)) == {-1.0, 1.0}
        np.testing.assert_allclose(np.abs(c00), signals > 0, atol=1e-12)
        np.testing.assert_allclose(np.abs(c11), signals < 0, atol=1e-12)
        np.testing.assert_allclose(np.abs(c01) + np.abs(c10), 0.0, atol=1e-12)

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
        signals, _ = weak_stage(BELL_AMPLITUDES, 1, spec, phi=0.4, rng=rng, n=shots)
        np.testing.assert_allclose(np.abs(signals), 1 / 0.6, atol=1e-12)

    def test_eigenstate_variance(self):
        # signal variance on a definite state is 1/V^2 - 1
        spec = AncillaMeterSpec(v_total=0.6)
        phi = 0.0
        rng = np.random.default_rng(14)
        shots = 500_000
        signals, _ = weak_stage(KET_00, 1, spec, phi, rng, shots)
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
        phi = np.pi / 3
        rng = np.random.default_rng(21)
        shots = 1_000_000
        signals, _ = weak_stage(KET_00, 1, spec, phi, rng, shots)
        target = np.cos(np.pi / 3)
        stderr = np.sqrt(1 / spec.v_total**2 - target**2) / np.sqrt(shots)
        assert abs(signals.mean() - target) < 4 * stderr


class TestProjectiveSampling:
    def test_eigenstate_is_deterministic(self):
        spec = ProjectiveMeterSpec(v=1.0)
        rng = np.random.default_rng(2)
        signals, (z0, z1) = first_readout(KET_00, spec, 0.0, rng, 50)
        assert np.all(signals == 1.0)
        assert np.all(second_readout((z0, z1), spec, 0.0, rng, 50) == 1.0)

    def test_zero_visibility_is_coin_flip(self):
        spec = ProjectiveMeterSpec(v=0.0)
        rng = np.random.default_rng(6)
        shots = 200_000
        signals, _ = first_readout(KET_00, spec, 0.0, rng, shots)
        assert set(np.unique(signals)) == {-1.0, 1.0}
        assert abs(signals.mean()) < 4 / np.sqrt(shots)

    def test_bell_readouts_agree_at_equal_angles(self):
        spec = ProjectiveMeterSpec(v=1.0)
        phi = 0.0
        rng = np.random.default_rng(10)
        b1, ket = first_readout(BELL_AMPLITUDES, spec, phi, rng, 200)
        b2 = second_readout(ket, spec, phi, rng, 200)
        assert set(np.unique(b1)) == {-1.0, 1.0}
        np.testing.assert_array_equal(b1, b2)

    def test_visibility_scales_reported_mean(self):
        spec = ProjectiveMeterSpec(v=0.7)
        phi = np.pi / 3
        rng = np.random.default_rng(33)
        shots = 500_000
        signals, _ = first_readout(KET_00, spec, phi, rng, shots)
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

    def test_kernel_average_leaves_the_other_arm_alone(self):
        # the kernel's weak and readout stages on arm 1, averaged over shots
        state = self._probe_state()
        before = state.reduced(2).real
        psi = np.linalg.eigh(state.rho)[1][:, -1].real
        amps = tuple(float(a) for a in psi)
        rng = np.random.default_rng(5)
        shots = 400_000
        tolerance = 5 / np.sqrt(shots)
        for spec in (GaussianMeterSpec(sigma=0.8, eta=0.6), AncillaMeterSpec(v_total=0.7, u=0.9)):
            _, post = weak_stage(amps, 1, spec, 0.6, rng, shots)
            after = TwoQubitState.from_rho(_mean_rho(post)).reduced(2).real
            np.testing.assert_allclose(after, before, atol=tolerance)
        _, (z0, z1) = first_readout(amps, ProjectiveMeterSpec(v=1.0), -0.4, rng, shots)
        norm = z0 * z0 + z1 * z1
        after = np.array([[z0 * z0, z0 * z1], [z1 * z0, z1 * z1]]) / norm
        np.testing.assert_allclose(after.mean(axis=-1), before, atol=tolerance)


class TestBatchMatchesSingleShot:
    """The kernel called one shot at a time and in one batch follows one record law."""

    def test_gaussian_means_agree(self):
        spec = GaussianMeterSpec(sigma=1.5)
        phi = 0.8
        rng = np.random.default_rng(50)
        single = np.concatenate(
            [weak_stage(BELL_AMPLITUDES, 1, spec, phi, rng, 1)[0] for _ in range(20_000)]
        )
        rng = np.random.default_rng(51)
        batch, _ = weak_stage(BELL_AMPLITUDES, 1, spec, phi, rng, 200_000)
        pooled = np.sqrt(single.var() / single.size + batch.var() / batch.size)
        assert abs(single.mean() - batch.mean()) < 5 * pooled

    def test_ancilla_sign_probabilities_agree(self):
        spec = AncillaMeterSpec(v_total=0.6, u=0.9)
        phi = 0.8
        rng = np.random.default_rng(52)
        single = np.concatenate(
            [weak_stage(BELL_AMPLITUDES, 1, spec, phi, rng, 1)[0] for _ in range(20_000)]
        )
        rng = np.random.default_rng(53)
        batch, _ = weak_stage(BELL_AMPLITUDES, 1, spec, phi, rng, 200_000)
        p_single = (single > 0).mean()
        p_batch = (batch > 0).mean()
        pooled = np.sqrt(0.25 / single.size + 0.25 / batch.size)
        assert abs(p_single - p_batch) < 5 * pooled

    def test_signal_laws_match_the_kraus_oracle(self):
        # on a state with <O> != 0: the Gaussian signal mean is <O>, the
        # ancilla's reported sign is + with p+ (1+u)/2 + (1-p+)(1-u)/2
        psi = np.array([2.0, 1.0, 0.0, 1.0]) / np.sqrt(6.0)
        state = TwoQubitState.from_rho(np.outer(psi, psi))
        amps = tuple(float(a) for a in psi)
        basis = analyzer_basis(0.8)
        rng = np.random.default_rng(54)
        shots = 400_000
        observable = float(np.trace(embed(basis.observable, 1) @ state.rho).real)
        gaussian = GaussianMeterSpec(sigma=1.5)
        signals, _ = weak_stage(amps, 1, gaussian, basis.phi, rng, shots)
        assert abs(signals.mean() - observable) < 5 * signals.std() / np.sqrt(shots)
        ancilla = AncillaMeterSpec(v_total=0.6, u=0.9)
        p_plus = apply_operator(state, embed(ancilla_kraus(+1, ancilla.v_ent, basis), 1))[0]
        p_report = p_plus * (1 + ancilla.u) / 2 + (1 - p_plus) * (1 - ancilla.u) / 2
        signals, _ = weak_stage(amps, 1, ancilla, basis.phi, rng, shots)
        assert abs((signals > 0).mean() - p_report) < 5 * 0.5 / np.sqrt(shots)


class TestKernelMatchesKrausOracle:
    """Per shot, each kernel stage is the Kraus update of the outcome it drew.

    The draws are replayed from an identically seeded generator in the
    documented order, and each shot's outcome is decided from the oracle's
    branch weight (4x4 density matrices, ``apply_operator``).
    """

    SHOTS = 24

    @staticmethod
    def _weight0(state, arm, basis):
        return float(np.trace(embed(basis.projector0, arm) @ state.rho).real)

    @pytest.mark.parametrize("arm", [1, 2])
    def test_weak_stage(self, arm):
        rng = np.random.default_rng(100 + arm)
        n = self.SHOTS
        for trial in range(8):
            gaussian = trial % 2 == 0
            if gaussian:
                eta = 1.0 if trial % 4 == 0 else rng.uniform(0.3, 1.0)
                spec = GaussianMeterSpec(sigma=rng.uniform(0.3, 3.0), eta=eta)
            else:
                u = rng.uniform(0.5, 1.0)
                spec = AncillaMeterSpec(v_total=rng.uniform(0.05, u), u=u)
            basis = analyzer_basis(rng.uniform(-np.pi, np.pi))
            amps = _random_amplitudes(rng, n)
            seed = int(rng.integers(2**32))
            # a stage consumes its amplitude arrays, and the checks below read amps
            copies = tuple(a.copy() for a in amps)
            signals, post = weak_stage(copies, arm, spec, basis.phi, np.random.default_rng(seed), n)

            replay = np.random.default_rng(seed)
            branch_draws = replay.random(n)
            if gaussian:
                normal = replay.standard_normal(n)
                flips = np.zeros(n, dtype=bool)
                if spec.eta < 1.0:
                    flips = replay.random(n) < 0.5 * (1.0 - excess_dephasing_factor(spec))
            else:
                report_draws = replay.random(n)
            for i in range(n):
                state = _pure(amps, i)
                if gaussian:
                    center = 1.0 if branch_draws[i] < self._weight0(state, arm, basis) else -1.0
                    assert signals[i] == center + spec.sigma * normal[i]
                    kraus = gaussian_kraus(signals[i], spec.sigma, basis)
                else:
                    plus = embed(ancilla_kraus(+1, spec.v_ent, basis), arm)
                    sign = +1 if branch_draws[i] < apply_operator(state, plus)[0] else -1
                    report = -sign if report_draws[i] < (1.0 - spec.u) / 2.0 else sign
                    assert signals[i] == report / spec.v_total
                    kraus = ancilla_kraus(sign, spec.v_ent, basis)
                _, expected = apply_operator(state, embed(kraus, arm))
                if gaussian and flips[i]:
                    _, expected = apply_operator(expected, embed(basis.observable, arm))
                np.testing.assert_allclose(_pure(post, i).rho, expected.rho, atol=1e-12)

    def test_first_readout(self):
        rng = np.random.default_rng(200)
        n = self.SHOTS
        for _ in range(6):
            spec = ProjectiveMeterSpec(v=rng.uniform(0.0, 1.0))
            basis = analyzer_basis(rng.uniform(-np.pi, np.pi))
            amps = _random_amplitudes(rng, n)
            seed = int(rng.integers(2**32))
            copies = tuple(a.copy() for a in amps)
            signals, (z0, z1) = first_readout(copies, spec, basis.phi, np.random.default_rng(seed), n)

            replay = np.random.default_rng(seed)
            hit_draws, flip_draws = replay.random(n), replay.random(n)
            for i in range(n):
                state = _pure(amps, i)
                outcome = +1 if hit_draws[i] < self._weight0(state, 1, basis) else -1
                report = -outcome if flip_draws[i] < (1.0 - spec.v) / 2.0 else outcome
                assert signals[i] == report
                projector = basis.projector0 if outcome == +1 else basis.projector1
                _, expected = apply_operator(state, embed(projector, 1))
                ket = basis.ket0.real if outcome == +1 else basis.ket1.real
                psi = np.kron(ket, [z0[i], z1[i]]) / np.hypot(z0[i], z1[i])
                np.testing.assert_allclose(np.outer(psi, psi), expected.rho, atol=1e-12)

    def test_second_readout(self):
        # stub draws straddle the oracle's ket0 probability by 1e-12, so the
        # outcomes pin the kernel's probability to that precision
        rng = np.random.default_rng(300)
        n = self.SHOTS
        below = np.arange(n) % 2 == 0
        for _ in range(6):
            basis = analyzer_basis(rng.uniform(-np.pi, np.pi))
            z0, z1 = rng.normal(size=(2, n))
            weights = []
            for i in range(n):
                psi = np.kron([1.0, 0.0], [z0[i], z1[i]]) / np.hypot(z0[i], z1[i])
                weights.append(self._weight0(TwoQubitState.from_rho(np.outer(psi, psi)), 2, basis))
            draws = np.asarray(weights) + np.where(below, -1e-12, 1e-12)
            expected = np.where(below, 1.0, -1.0)
            spec = ProjectiveMeterSpec(v=0.5)
            kept = second_readout((z0.copy(), z1.copy()), spec, basis.phi, StubGenerator(draws, np.ones(n)), n)
            np.testing.assert_array_equal(kept, expected)
            flipped = second_readout((z0.copy(), z1.copy()), spec, basis.phi, StubGenerator(draws, np.zeros(n)), n)
            np.testing.assert_array_equal(flipped, -expected)


def _assert_same_bytes(lean, reference):
    assert len(lean) == len(reference)
    for got, want in zip(lean, reference):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestKernelMatchesReference:
    """The in-place stages write the bytes of the kernel written one expression per array."""

    METERS = (
        GaussianMeterSpec(sigma=0.7, eta=1.0),
        GaussianMeterSpec(sigma=1.9, eta=0.5),
        # sigma**2 is near the largest double, and at 1e308 it overflows, as do the draws
        GaussianMeterSpec(sigma=1e154, eta=0.5),
        GaussianMeterSpec(sigma=1e308, eta=1.0),
        AncillaMeterSpec(v_total=0.45, u=0.8),
        AncillaMeterSpec(v_total=1.0, u=1.0),
    )

    @pytest.mark.parametrize("v", [0.0, 0.8, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 77, 65536])
    def test_sample_records(self, n, v):
        rng = np.random.default_rng(n + int(10 * v))
        # one workspace for every meter pair, as a worker keeps one from chunk to chunk
        shared = Workspace(65536)
        for meter1, meter2 in itertools.product(self.METERS, repeat=2):
            angles = tuple(rng.uniform(-7.0, 7.0, size=4))
            seed = int(rng.integers(2**63))
            readout = ProjectiveMeterSpec(v=v)
            with np.errstate(over="ignore", invalid="ignore"):
                lean = sample_records(n, meter1, meter2, readout, angles, np.random.default_rng(seed))
                reused = sample_records(n, meter1, meter2, readout, angles, np.random.default_rng(seed), shared)
                reference = sample_records_reference(n, meter1, meter2, readout, angles, np.random.default_rng(seed))
            _assert_same_bytes(lean, reference)
            _assert_same_bytes(reused, reference)

    @pytest.mark.parametrize("n", [1, 77, 4096])
    def test_stages_on_amplitude_arrays(self, n):
        # sample_records hands arrays to every stage but the first; here every stage gets them
        rng = np.random.default_rng(n)
        for arm, meter in itertools.product((1, 2), self.METERS[:2] + self.METERS[4:]):
            amps = _random_amplitudes(rng, n)
            phi = rng.uniform(-7.0, 7.0)
            seed = int(rng.integers(2**63))
            signals, post = weak_stage(tuple(a.copy() for a in amps), arm, meter, phi, np.random.default_rng(seed), n)
            want_signals, want_post = weak_stage_reference(amps, arm, meter, phi, np.random.default_rng(seed), n)
            _assert_same_bytes((signals, *post), (want_signals, *want_post))

            readout = ProjectiveMeterSpec(v=rng.uniform(0.0, 1.0))
            b1, ket = first_readout(tuple(a.copy() for a in amps), readout, phi, np.random.default_rng(seed), n)
            want_b1, want_ket = first_readout_reference(amps, readout, phi, np.random.default_rng(seed), n)
            _assert_same_bytes((b1, *ket), (want_b1, *want_ket))

            b2 = second_readout(ket, readout, -phi, np.random.default_rng(seed), n)
            want_b2 = second_readout_reference(want_ket, readout, -phi, np.random.default_rng(seed), n)
            _assert_same_bytes((b2,), (want_b2,))

    @pytest.mark.parametrize("n", [1, 77, 65536])
    @pytest.mark.parametrize("value", [0.0, 1.0, 0.5, 5e-324])
    @pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
    def test_uniform_below_is_the_bool_comparison_as_floats(self, n, value, as_array):
        threshold = np.full(n, value) if as_array else value
        mask = _uniform_below(threshold, np.random.default_rng(n), np.empty(n))
        want = (np.random.default_rng(n).random(n) < threshold).astype(np.float64)
        assert mask.dtype == np.float64 and mask.tobytes() == want.tobytes()

    def test_a_workspace_refuses_more_than_its_size(self):
        with pytest.raises(ValueError, match="cannot hold 5"):
            sample_records(5, *self.METERS[:2], ProjectiveMeterSpec(), (0.0, 0.0, 0.0, 0.0), np.random.default_rng(0), Workspace(4))

    def test_a_stage_returns_the_arrays_it_was_handed(self):
        amps = _random_amplitudes(np.random.default_rng(11), 5)
        _, post = weak_stage(amps, 2, GaussianMeterSpec(sigma=1.0), 0.3, np.random.default_rng(12), 5)
        assert {id(a) for a in post} == {id(a) for a in amps}
