import itertools
import warnings

import numpy as np
import pytest
from scipy.special import roots_hermite

from blgi.measurement import (
    AncillaMeterSpec,
    GaussianMeterSpec,
    ProjectiveMeterSpec,
    Workspace,
    _coin,
    dephasing_factor,
    excess_dephasing_factor,
    readout_stage,
    sample_records,
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

#: Pauli X, the coherence axis of the analyzer at phi = 0
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


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
    """Density matrix of shot ``index`` of amplitude arrays ``(c00, c01, c10, c11)``."""
    psi = np.array([a[index] for a in amps], dtype=float)
    return TwoQubitState.from_rho(np.outer(psi, psi))


def _random_amplitudes(rng, n):
    psi = rng.normal(size=(4, n))
    return tuple(psi / np.linalg.norm(psi, axis=0))


def _bloch_along(amps, arm, phi):
    """Per shot, ``<P0 - P1>`` of analyzer ``phi`` on ``arm`` of normalized amplitude arrays."""
    c00, c01, c10, c11 = amps
    a0, a1, b0, b1 = (c00, c01, c10, c11) if arm == 1 else (c00, c10, c01, c11)
    c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
    x0, x1, y0, y1 = c * a0 + s * b0, c * a1 + s * b1, c * b0 - s * a0, c * b1 - s * a1
    return (x0 * x0 + x1 * x1) - (y0 * y0 + y1 * y1)


def _random_meter(rng, gaussian):
    """A Gaussian meter (``eta < 1`` half the time) or an ancilla meter, of moderate strength."""
    if gaussian:
        eta = 1.0 if rng.random() < 0.5 else rng.uniform(0.3, 1.0)
        return GaussianMeterSpec(sigma=rng.uniform(0.3, 3.0), eta=eta)
    u = rng.uniform(0.5, 1.0)
    return AncillaMeterSpec(v_total=rng.uniform(0.05, u), u=u)


class StubGenerator:
    """Hands out fixed blocks, in order, in place of ``random`` and ``standard_normal``."""

    def __init__(self, *blocks):
        self._blocks = list(blocks)

    def random(self, *, out):
        block = np.asarray(self._blocks.pop(0), dtype=float)
        assert block.shape == out.shape
        out[:] = block
        return out

    standard_normal = random


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
        # signal mean equals the eigenvalue on an eigenstate of the analyzer, Bloch component 1
        spec = GaussianMeterSpec(sigma=2.0)
        rng = np.random.default_rng(42)
        shots = 1_000_000
        signals, _, _ = weak_stage(spec, 1.0, rng, shots)
        stderr = spec.sigma / np.sqrt(shots)
        assert abs(signals.mean() - 1.0) < 4 * stderr

    def test_calibration_general_state(self):
        # E[signal] = <O(phi)> off an eigenstate: 0 on an arm of the Bell pair
        spec = GaussianMeterSpec(sigma=1.0)
        rng = np.random.default_rng(1)
        shots = 500_000
        signals, _, _ = weak_stage(spec, 0.0, rng, shots)
        stderr = np.sqrt(spec.sigma**2 + 1) / np.sqrt(shots)
        assert abs(signals.mean() - 0.0) < 4 * stderr

    def test_single_shot_outcome_contract(self):
        # one Kraus operator k0 P0 + k1 P1 leaves a pure effect: T^2 + g^2 = 1
        spec = GaussianMeterSpec(sigma=0.7, eta=0.8)
        rng = np.random.default_rng(9)
        signals, length, coherence = weak_stage(spec, 0.0, rng, 1)
        assert signals.shape == length.shape == coherence.shape == (1,) and np.isfinite(signals[0])
        assert abs(length[0] ** 2 + coherence[0] ** 2 - 1) < 1e-12

    @pytest.mark.parametrize("eta,factor", [(1.0, np.exp(-0.5)), (0.5, np.exp(-1.0))])
    def test_average_damping_matches_dephasing_factor(self, eta, factor):
        # an arm in |+>, measured along phi = 0, keeps coherence g per shot:
        # the ensemble average shrinks by the meter's dephasing factor
        spec = GaussianMeterSpec(sigma=1.0, eta=eta)
        rng = np.random.default_rng(77)
        shots = 400_000
        _, _, coherence = weak_stage(spec, 0.0, rng, shots)
        assert abs(coherence.mean() - factor) < 4 / np.sqrt(shots)

    def test_single_shot_average_damping(self):
        # the average of the per-shot post-states (I + T Z + g X)/2 of |+> is the dephasing channel
        spec = GaussianMeterSpec(sigma=1.0)
        basis = analyzer_basis(0.0)
        rng = np.random.default_rng(123)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        state = _product_state(plus, np.array([1.0, 0.0]))
        shots = 20_000
        _, length, coherence = weak_stage(spec, 0.0, rng, shots)
        mean = (np.eye(2) + length.mean() * basis.observable.real + coherence.mean() * PAULI_X) / 2
        expected = apply_dephasing(state, 1, np.exp(-0.5), basis)
        np.testing.assert_allclose(mean, expected.reduced(1).real, atol=5 * 0.5 / np.sqrt(shots))


class TestAncillaSampling:
    def test_eigenstate_signal_distribution(self):
        spec = AncillaMeterSpec(v_total=0.5, u=1.0)
        rng = np.random.default_rng(4)
        shots = 1_000_000
        signals, _, _ = weak_stage(spec, 1.0, rng, shots)
        assert set(np.unique(signals)) == {-2.0, 2.0}
        p_plus = (signals > 0).mean()
        assert abs(p_plus - 0.75) < 4 * np.sqrt(0.75 * 0.25 / shots)
        assert abs(signals.mean() - 1.0) < 4 * np.sqrt((1 / 0.25 - 1) / shots)

    def test_projective_limit(self):
        # full strength on the Bell pair: each effect is the projector its signal names
        spec = AncillaMeterSpec(v_total=1.0, u=1.0)
        rng = np.random.default_rng(0)
        signals, length, coherence = weak_stage(spec, 0.0, rng, 200)
        assert set(np.unique(signals)) == {-1.0, 1.0}
        np.testing.assert_array_equal(length, signals)
        assert coherence == 0.0

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
        signals, _, _ = weak_stage(spec, bloch=0.0, rng=rng, n=shots)
        np.testing.assert_allclose(np.abs(signals), 1 / 0.6, atol=1e-12)

    def test_eigenstate_variance(self):
        # signal variance on a definite state is 1/V^2 - 1
        spec = AncillaMeterSpec(v_total=0.6)
        rng = np.random.default_rng(14)
        shots = 500_000
        signals, _, _ = weak_stage(spec, 1.0, rng, shots)
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
        rng = np.random.default_rng(21)
        shots = 1_000_000
        target = np.cos(np.pi / 3)
        signals, _, _ = weak_stage(spec, target, rng, shots)
        stderr = np.sqrt(1 / spec.v_total**2 - target**2) / np.sqrt(shots)
        assert abs(signals.mean() - target) < 4 * stderr


class TestProjectiveSampling:
    def test_eigenstate_is_deterministic(self):
        spec = ProjectiveMeterSpec(v=1.0)
        rng = np.random.default_rng(2)
        for bloch, sign in ((1.0, 1.0), (-1.0, -1.0)):
            reported, true = readout_stage(spec, bloch, rng, 50)
            assert np.all(reported == sign)
            assert np.all(true == sign)

    def test_only_the_reported_sign_is_flipped(self):
        # at v = 0 the flip fires half the time, on the reported sign alone
        reported, true = readout_stage(ProjectiveMeterSpec(v=0.0), 1.0, np.random.default_rng(4), 1000)
        assert np.all(true == 1.0)
        assert set(np.unique(reported)) == {-1.0, 1.0}

    def test_zero_visibility_is_coin_flip(self):
        spec = ProjectiveMeterSpec(v=0.0)
        rng = np.random.default_rng(6)
        shots = 200_000
        signals, _ = readout_stage(spec, 1.0, rng, shots)
        assert set(np.unique(signals)) == {-1.0, 1.0}
        assert abs(signals.mean()) < 4 / np.sqrt(shots)

    def test_bell_readouts_agree_at_equal_angles(self):
        # sigma**2 overflows, so the weak meters see nothing (T = 0, g = 1) and leave the pair alone
        spec = ProjectiveMeterSpec(v=1.0)
        blind = GaussianMeterSpec(sigma=1e200)
        _, _, b1, b2 = sample_records(200, blind, blind, spec, (0.7, 0.7, 0.7, 0.7), np.random.default_rng(10))
        assert set(np.unique(b1)) == {-1.0, 1.0}
        np.testing.assert_array_equal(b1, b2)

    def test_visibility_scales_reported_mean(self):
        spec = ProjectiveMeterSpec(v=0.7)
        rng = np.random.default_rng(33)
        shots = 500_000
        signals, _ = readout_stage(spec, np.cos(np.pi / 3), rng, shots)
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
        # averaged over arm 1's outcomes, arm 2 sees the Bell pair's marginal:
        # the Bloch component T1 cos D its weak stage is handed averages to 0,
        # and so does its readout behind a meter that sees nothing
        rng = np.random.default_rng(5)
        shots = 400_000
        tolerance = 5 / np.sqrt(shots)
        blind = GaussianMeterSpec(sigma=1e200)
        for spec in (GaussianMeterSpec(sigma=0.8, eta=0.6), AncillaMeterSpec(v_total=0.7, u=0.9)):
            _, length, _ = weak_stage(spec, 0.0, rng, shots)
            assert abs(length.mean()) < tolerance
            _, _, _, b2 = sample_records(shots, spec, blind, ProjectiveMeterSpec(v=1.0), (0.6, 0.2, -0.4, 1.3), rng)
            assert abs(b2.mean()) < tolerance


class TestBatchMatchesSingleShot:
    """The kernel called one shot at a time and in one batch follows one record law."""

    def test_gaussian_means_agree(self):
        spec = GaussianMeterSpec(sigma=1.5)
        rng = np.random.default_rng(50)
        single = np.concatenate([weak_stage(spec, 0.0, rng, 1)[0] for _ in range(20_000)])
        rng = np.random.default_rng(51)
        batch, _, _ = weak_stage(spec, 0.0, rng, 200_000)
        pooled = np.sqrt(single.var() / single.size + batch.var() / batch.size)
        assert abs(single.mean() - batch.mean()) < 5 * pooled

    def test_ancilla_sign_probabilities_agree(self):
        spec = AncillaMeterSpec(v_total=0.6, u=0.9)
        rng = np.random.default_rng(52)
        single = np.concatenate([weak_stage(spec, 0.0, rng, 1)[0] for _ in range(20_000)])
        rng = np.random.default_rng(53)
        batch, _, _ = weak_stage(spec, 0.0, rng, 200_000)
        p_single = (single > 0).mean()
        p_batch = (batch > 0).mean()
        pooled = np.sqrt(0.25 / single.size + 0.25 / batch.size)
        assert abs(p_single - p_batch) < 5 * pooled

    def test_signal_laws_match_the_kraus_oracle(self):
        # on a state with <O> != 0: the Gaussian signal mean is <O>, the
        # ancilla's reported sign is + with p+ (1+u)/2 + (1-p+)(1-u)/2
        psi = np.array([2.0, 1.0, 0.0, 1.0]) / np.sqrt(6.0)
        state = TwoQubitState.from_rho(np.outer(psi, psi))
        basis = analyzer_basis(0.8)
        rng = np.random.default_rng(54)
        shots = 400_000
        observable = float(np.trace(embed(basis.observable, 1) @ state.rho).real)
        gaussian = GaussianMeterSpec(sigma=1.5)
        signals, _, _ = weak_stage(gaussian, observable, rng, shots)
        assert abs(signals.mean() - observable) < 5 * signals.std() / np.sqrt(shots)
        ancilla = AncillaMeterSpec(v_total=0.6, u=0.9)
        p_plus = apply_operator(state, embed(ancilla_kraus(+1, ancilla.v_ent, basis), 1))[0]
        p_report = p_plus * (1 + ancilla.u) / 2 + (1 - p_plus) * (1 - ancilla.u) / 2
        signals, _, _ = weak_stage(ancilla, observable, rng, shots)
        assert abs((signals > 0).mean() - p_report) < 5 * 0.5 / np.sqrt(shots)


class TestKernelMatchesKrausOracle:
    """Per shot, each stage draws the outcome of the oracle's branch weight and leaves its Kraus update.

    The draws are replayed from an identically seeded generator in the
    documented order, and each shot's outcome is decided from the oracle's
    branch weight on 4x4 density matrices (``apply_operator``).
    """

    SHOTS = 24

    @staticmethod
    def _weight0(state, arm, basis):
        return float(np.trace(embed(basis.projector0, arm) @ state.rho).real)

    @staticmethod
    def _components(state, arm, phi):
        # the arm's Bloch components along analyzer phi (Z) and across it (X, the analyzer phi + pi/2)
        return tuple(
            float(np.trace(embed(analyzer_basis(angle).observable, arm) @ state.rho).real)
            for angle in (phi, phi + np.pi / 2)
        )

    @staticmethod
    def _weak_draws(rng, spec, n):
        """One weak stage's blocks of draws, in the documented order."""
        if isinstance(spec, AncillaMeterSpec):
            return [rng.random(n), rng.random(n)]
        blocks = [rng.random(n), rng.standard_normal(n)]
        return blocks + ([rng.random(n)] if spec.eta < 1.0 else [])

    @classmethod
    def _weak_update(cls, state, arm, spec, basis, draws, i):
        """Shot ``i``'s signal and post-state of a weak stage, by the oracle, from that stage's draws."""
        if isinstance(spec, GaussianMeterSpec):
            center = 1.0 if draws[0][i] < cls._weight0(state, arm, basis) else -1.0
            signal = center + spec.sigma * draws[1][i]
            _, state = apply_operator(state, embed(gaussian_kraus(signal, spec.sigma, basis), arm))
            if spec.eta < 1.0 and draws[2][i] < 0.5 * (1.0 - excess_dephasing_factor(spec)):
                _, state = apply_operator(state, embed(basis.observable, arm))
            return signal, state
        plus = embed(ancilla_kraus(+1, spec.v_ent, basis), arm)
        sign = +1 if draws[0][i] < apply_operator(state, plus)[0] else -1
        report = -sign if draws[1][i] < (1.0 - spec.u) / 2.0 else sign
        _, state = apply_operator(state, embed(ancilla_kraus(sign, spec.v_ent, basis), arm))
        return report / spec.v_total, state

    @pytest.mark.parametrize("arm", [1, 2])
    def test_weak_stage(self, arm):
        # handed the arm's Bloch component, a stage draws the oracle's outcome,
        # and its effect (T, g) carries the arm's state through the Kraus update
        rng = np.random.default_rng(100 + arm)
        n = self.SHOTS
        for trial in range(8):
            spec = _random_meter(rng, gaussian=trial % 2 == 0)
            basis = analyzer_basis(rng.uniform(-np.pi, np.pi))
            amps = _random_amplitudes(rng, n)
            states = [_pure(amps, i) for i in range(n)]
            along, across = np.array([self._components(state, arm, basis.phi) for state in states]).T
            seed = int(rng.integers(2**32))
            signals, length, coherence = weak_stage(spec, along, np.random.default_rng(seed), n)
            coherence = np.broadcast_to(coherence, (n,))

            draws = self._weak_draws(np.random.default_rng(seed), spec, n)
            for i in range(n):
                signal, expected = self._weak_update(states[i], arm, spec, basis, draws, i)
                assert signals[i] == signal
                # (I + b Z + x X)/2 goes to (I + (T + b)/(1 + b T) Z + g x/(1 + b T) X)/2
                scale = 1.0 + along[i] * length[i]
                got = ((along[i] + length[i]) / scale, coherence[i] * across[i] / scale)
                np.testing.assert_allclose(got, self._components(expected, arm, basis.phi), atol=1e-12)

    def test_sample_records(self):
        # every record of a chunk is the outcome the oracle's branch weight gives
        # its replayed draw, on the 4x4 state that the earlier outcomes' Kraus
        # updates and projections left: stages 2-4 see arm 1's back-action
        rng = np.random.default_rng(400)
        n = self.SHOTS
        for trial in range(8):
            meters = (_random_meter(rng, gaussian=trial % 2 == 0), _random_meter(rng, gaussian=trial % 4 < 2))
            readout = ProjectiveMeterSpec(v=rng.uniform(0.0, 1.0))
            angles = tuple(rng.uniform(-np.pi, np.pi, size=4))
            seed = int(rng.integers(2**32))
            records = sample_records(n, *meters, readout, angles, np.random.default_rng(seed))

            replay = np.random.default_rng(seed)
            weak_draws = [self._weak_draws(replay, spec, n) for spec in meters]
            readout_draws = [(replay.random(n), replay.random(n)) for _ in range(2)]
            bases = [analyzer_basis(phi) for phi in angles]
            for i in range(n):
                state = bell_state()
                for arm, spec, draws in zip((1, 2), meters, weak_draws):
                    signal, state = self._weak_update(state, arm, spec, bases[arm - 1], draws, i)
                    assert records[arm - 1][i] == signal
                for arm, (hits, flips) in zip((1, 2), readout_draws):
                    basis = bases[arm + 1]
                    outcome = +1 if hits[i] < self._weight0(state, arm, basis) else -1
                    report = -outcome if flips[i] < (1.0 - readout.v) / 2.0 else outcome
                    assert records[arm + 1][i] == report
                    if arm == 1:
                        projector = basis.projector0 if outcome == +1 else basis.projector1
                        _, state = apply_operator(state, embed(projector, 1))

    def test_readout_probabilities(self):
        # stub draws straddle the oracle's ket0 probability of each readout by
        # 1e-12, after either outcome on arm 1, so the outcomes pin the
        # kernel's stage-3 and stage-4 probabilities to that precision
        rng = np.random.default_rng(300)
        n = self.SHOTS
        below3 = np.arange(n) % 2 == 0
        below4 = np.arange(n) % 4 < 2
        spec = ProjectiveMeterSpec(v=0.5)
        for trial in range(6):
            meters = (_random_meter(rng, gaussian=trial % 2 == 0), _random_meter(rng, gaussian=trial % 3 == 0))
            angles = tuple(rng.uniform(-np.pi, np.pi, size=4))
            bases = [analyzer_basis(phi) for phi in angles]
            weak_draws = [self._weak_draws(rng, meter, n) for meter in meters]
            draws3, draws4 = np.empty(n), np.empty(n)
            for i in range(n):
                state = bell_state()
                for arm, meter, draws in zip((1, 2), meters, weak_draws):
                    _, state = self._weak_update(state, arm, meter, bases[arm - 1], draws, i)
                draws3[i] = self._weight0(state, 1, bases[2]) + (-1e-12 if below3[i] else 1e-12)
                projector = bases[2].projector0 if below3[i] else bases[2].projector1
                _, state = apply_operator(state, embed(projector, 1))
                draws4[i] = self._weight0(state, 2, bases[3]) + (-1e-12 if below4[i] else 1e-12)
            for flips, sign in ((np.ones(n), 1.0), (np.zeros(n), -1.0)):
                stub = StubGenerator(*weak_draws[0], *weak_draws[1], draws3, flips, draws4, flips)
                _, _, b1, b2 = sample_records(n, *meters, spec, angles, stub)
                np.testing.assert_array_equal(b1, sign * np.where(below3, 1.0, -1.0))
                np.testing.assert_array_equal(b2, sign * np.where(below4, 1.0, -1.0))


def _assert_same_bytes(lean, reference):
    assert len(lean) == len(reference)
    for got, want in zip(lean, reference):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestKernelMatchesReference:
    """The kernel writes the bytes of the amplitude kernel that ``tests/oracle.py`` keeps."""

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
    def test_stages_on_bloch_arrays(self, n):
        # handed the per-shot Bloch components of random amplitude arrays, each
        # stage draws the signals the reference stage draws from the amplitudes
        rng = np.random.default_rng(n)
        for arm, meter in itertools.product((1, 2), self.METERS[:2] + self.METERS[4:]):
            amps = _random_amplitudes(rng, n)
            phi = rng.uniform(-7.0, 7.0)
            seed = int(rng.integers(2**63))
            signals, _, _ = weak_stage(meter, _bloch_along(amps, arm, phi), np.random.default_rng(seed), n)
            want_signals, _ = weak_stage_reference(amps, arm, meter, phi, np.random.default_rng(seed), n)
            _assert_same_bytes((signals,), (want_signals,))

            readout = ProjectiveMeterSpec(v=rng.uniform(0.0, 1.0))
            b1, _ = readout_stage(readout, _bloch_along(amps, 1, phi), np.random.default_rng(seed), n)
            want_b1, (z0, z1) = first_readout_reference(amps, readout, phi, np.random.default_rng(seed), n)
            _assert_same_bytes((b1,), (want_b1,))

            # arm 2's conditional ket z, as the pair |0> (x) z/|z|
            norm = np.hypot(z0, z1)
            ket = (z0 / norm, z1 / norm, np.zeros(n), np.zeros(n))
            b2, _ = readout_stage(readout, _bloch_along(ket, 2, -phi), np.random.default_rng(seed), n)
            want_b2 = second_readout_reference((z0, z1), readout, -phi, np.random.default_rng(seed), n)
            _assert_same_bytes((b2,), (want_b2,))

    @pytest.mark.parametrize("n", [1, 77, 65536])
    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0, 5e-324, np.nan])
    @pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
    @pytest.mark.parametrize("value", [1.0, -1.0, 0.25])
    def test_a_coin_is_value_below_its_threshold_and_minus_value_elsewhere(self, n, threshold, as_array, value):
        # a NaN threshold is never reached: u < NaN is False
        threshold = np.full(n, threshold) if as_array else threshold
        coin = _coin(threshold, np.random.default_rng(n), np.empty(n), value)
        u = np.random.default_rng(n).random(n)
        want = np.where(u < threshold, value, -value)
        assert coin.dtype == np.float64 and coin.tobytes() == want.tobytes()

    def test_a_workspace_refuses_more_than_its_size(self):
        with pytest.raises(ValueError, match="cannot hold 5"):
            sample_records(5, *self.METERS[:2], ProjectiveMeterSpec(), (0.0, 0.0, 0.0, 0.0), np.random.default_rng(0), Workspace(4))

    def test_a_stage_leaves_its_bloch_components_alone(self):
        bloch = np.random.default_rng(11).uniform(-1.0, 1.0, size=5)
        before = bloch.tobytes()
        workspace = Workspace(5)
        for meter in self.METERS[:2] + self.METERS[4:]:
            weak_stage(meter, bloch, np.random.default_rng(12), 5, workspace)
        readout_stage(ProjectiveMeterSpec(v=0.8), bloch, np.random.default_rng(12), 5, workspace)
        assert bloch.tobytes() == before

    @pytest.mark.parametrize("eta", [1.0, 0.5])
    def test_a_strong_gaussian_meter_raises_no_warning(self, eta):
        # at sigma = 0.01, t = alpha/sigma**2 reaches about 1e4, far past where
        # cosh overflows (|t| ~ 710): the kernel only exponentiates -|t|
        meter = GaussianMeterSpec(sigma=0.01, eta=eta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = sample_records(
                4096, meter, meter, ProjectiveMeterSpec(v=0.9), (0.3, -1.2, 2.5, 0.9), np.random.default_rng(3)
            )
        assert all(np.all(np.isfinite(r)) for r in records)
