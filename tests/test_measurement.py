import itertools
import warnings

import numpy as np
import pytest

from blgi.measurement import (
    AncillaMeterSpec,
    GaussianMeterSpec,
    ProjectiveMeterSpec,
    Workspace,
    _coin,
    sample_records,
)
from blgi.protocol import CHUNK_SHOTS, DEFAULT_ANGLES, ExperimentConfig
from oracle import (
    TwoQubitState,
    analyzer_basis,
    ancilla_kraus,
    ancilla_terms,
    apply_dephasing,
    apply_instrument,
    apply_operator,
    bell_state,
    embed,
    flat_hermite,
    gaussian_kraus,
    gaussian_terms,
    readout_terms,
    record_sign_law,
)

#: Pauli X, the coherence axis of the analyzer at phi = 0
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _product_state(ket1, ket2):
    psi = np.kron(ket1, ket2).astype(complex)
    return TwoQubitState.from_rho(np.outer(psi, psi.conj()))


def _random_states(rng, n):
    """``n`` random pure two-qubit density matrices, shape ``(n, 4, 4)``."""
    psi = rng.normal(size=(n, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    return psi[:, :, None] * psi[:, None, :]


def _components(rho, arm, phi):
    """Per matrix, the arm's Bloch components along analyzer ``phi`` (Z) and across it (X, the analyzer phi + pi/2)."""
    return tuple(
        np.trace(embed(analyzer_basis(angle).observable, arm) @ rho, axis1=-2, axis2=-1).real
        for angle in (phi, phi + np.pi / 2)
    )


def _probability(rho, terms):
    """Per matrix, the probability of the outcome whose instrument ``terms`` are."""
    return np.trace(apply_instrument(rho, terms), axis1=-2, axis2=-1).real


def _update(rho, terms):
    """Per matrix, the state that the outcome whose instrument ``terms`` are leaves."""
    after = apply_instrument(rho, terms)
    return after / np.trace(after, axis1=-2, axis2=-1).real[..., None, None]


def _weak_draws(rng, spec, n):
    """One weak stage's blocks of draws, in the documented order."""
    if isinstance(spec, GaussianMeterSpec):
        return [rng.random(n), rng.standard_normal(n)]
    return [rng.random(n)]


def _weak_outcome(rho, arm, spec, basis, draws):
    """Per shot, the signal the oracle gives a weak stage's draws, and the state its instrument leaves."""
    if isinstance(spec, GaussianMeterSpec):
        ket0 = _probability(rho, [(1.0, embed(basis.projector0, arm))])
        signal = np.where(draws[0] < ket0, 1.0, -1.0) + spec.sigma * draws[1]
        return signal, _update(rho, gaussian_terms(signal, spec, arm, basis))
    report = np.where(draws[0] < _probability(rho, ancilla_terms(1.0, spec, arm, basis)), 1.0, -1.0)
    return report * (1.0 / spec.v_total), _update(rho, ancilla_terms(report, spec, arm, basis))


def _readout_outcome(rho, arm, spec, basis, draw):
    """Per shot, the reported sign the oracle gives a readout's draw, and the state its instrument leaves."""
    report = np.where(draw < _probability(rho, readout_terms(1.0, spec, arm, basis)), 1.0, -1.0)
    return report, _update(rho, readout_terms(report, spec, arm, basis))


def _replayed_records(n, meters, readout, angles, rng, every=1):
    """The records the oracle gives :func:`sample_records`' draws, replayed from ``rng``, of every ``every``-th shot.

    The draws are replayed in their documented order, and each outcome is
    +1 where its uniform lies below the oracle's probability on the shot's
    4x4 state.  A signal that overflows to inf leaves a NaN state, as it
    leaves NaN thresholds in the kernel, and a NaN probability is never
    reached.
    """
    draws = [[draw[::every] for draw in _weak_draws(rng, spec, n)] for spec in meters]
    draws += [[rng.random(n)[::every]] for _ in range(2)]
    bases = [analyzer_basis(phi) for phi in angles]
    records = []
    rho = bell_state().rho.real
    with np.errstate(invalid="ignore", over="ignore"):
        for arm, spec in zip((1, 2), meters):
            signal, rho = _weak_outcome(rho, arm, spec, bases[arm - 1], draws[arm - 1])
            records.append(signal)
        for arm in (1, 2):
            report, rho = _readout_outcome(rho, arm, readout, bases[arm + 1], draws[arm + 1][0])
            records.append(report)
    return np.array(records)


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
        alpha, weights = flat_hermite(200, sigma)
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
        alpha, weights = flat_hermite(300, sigma)
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
        assert GaussianMeterSpec(sigma=1e6).dephasing_factor > 1 - 1e-9
        assert AncillaMeterSpec(v_total=1e-6).dephasing_factor > 1 - 1e-9

    def test_ancilla_three_four_five(self):
        assert abs(AncillaMeterSpec(v_total=0.6, u=1.0).dephasing_factor - 0.8) < 1e-15

    def test_gaussian_sigma_two(self):
        # the exponent carries sigma^2, confirmed by the quadrature oracle above
        assert abs(GaussianMeterSpec(sigma=2.0).dephasing_factor - np.exp(-1 / 8)) < 1e-15

    def test_efficiency_accelerates_dephasing(self):
        assert abs(GaussianMeterSpec(sigma=1.0, eta=0.5).dephasing_factor - np.exp(-1.0)) < 1e-15

    def test_overflowing_width_is_fully_coherent(self):
        # sigma**2 overflows a float; the spec's variance reads inf instead
        spec = GaussianMeterSpec(sigma=1e300, eta=0.5)
        assert spec.variance == np.inf
        assert spec.dephasing_factor == 1.0
        assert spec.excess_dephasing_factor == 1.0

    def test_ancilla_with_readout_visibility(self):
        spec = AncillaMeterSpec(v_total=0.4, u=0.8)
        assert abs(spec.dephasing_factor - np.sqrt(1 - 0.5**2)) < 1e-15


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
        signals, _, _ = spec.draw(1.0, rng, shots, Workspace(shots))
        stderr = spec.sigma / np.sqrt(shots)
        assert abs(signals.mean() - 1.0) < 4 * stderr

    def test_calibration_general_state(self):
        # E[signal] = <O(phi)> off an eigenstate: 0 on an arm of the Bell pair
        spec = GaussianMeterSpec(sigma=1.0)
        rng = np.random.default_rng(1)
        shots = 500_000
        signals, _, _ = spec.draw(0.0, rng, shots, Workspace(shots))
        stderr = np.sqrt(spec.sigma**2 + 1) / np.sqrt(shots)
        assert abs(signals.mean() - 0.0) < 4 * stderr

    def test_single_shot_outcome_contract(self):
        # one shot on |+>, along phi = 0, leaves the effect of the oracle's
        # instrument for its signal: the Kraus update k0 P0 + k1 P1, whose
        # effect is pure, then the excess dephasing f of eta < 1 on g
        spec = GaussianMeterSpec(sigma=0.7, eta=0.8)
        rng = np.random.default_rng(9)
        signals, length, coherence = spec.draw(0.0, rng, 1, Workspace(1))
        assert signals.shape == length.shape == coherence.shape == (1,) and np.isfinite(signals[0])
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        rho = _product_state(plus, np.array([1.0, 0.0])).rho
        after = _update(rho, gaussian_terms(signals[0], spec, 1, analyzer_basis(0.0)))
        np.testing.assert_allclose((length[0], coherence[0]), _components(after, 1, 0.0), atol=1e-12)
        assert abs(length[0] ** 2 + (coherence[0] / spec.excess_dephasing_factor) ** 2 - 1) < 1e-12

    @pytest.mark.parametrize("eta,factor", [(1.0, np.exp(-0.5)), (0.5, np.exp(-1.0))])
    def test_average_damping_matches_dephasing_factor(self, eta, factor):
        # an arm in |+>, measured along phi = 0, keeps coherence g per shot:
        # the ensemble average shrinks by the meter's dephasing factor
        spec = GaussianMeterSpec(sigma=1.0, eta=eta)
        rng = np.random.default_rng(77)
        shots = 400_000
        _, _, coherence = spec.draw(0.0, rng, shots, Workspace(shots))
        assert abs(coherence.mean() - factor) < 4 / np.sqrt(shots)

    def test_single_shot_average_damping(self):
        # the average of the per-shot post-states (I + T Z + g X)/2 of |+> is the dephasing channel
        spec = GaussianMeterSpec(sigma=1.0)
        basis = analyzer_basis(0.0)
        rng = np.random.default_rng(123)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        state = _product_state(plus, np.array([1.0, 0.0]))
        shots = 20_000
        _, length, coherence = spec.draw(0.0, rng, shots, Workspace(shots))
        mean = (np.eye(2) + length.mean() * basis.observable.real + coherence.mean() * PAULI_X) / 2
        expected = apply_dephasing(state, 1, np.exp(-0.5), basis)
        np.testing.assert_allclose(mean, expected.reduced(1).real, atol=5 * 0.5 / np.sqrt(shots))


class TestAncillaSampling:
    def test_eigenstate_signal_distribution(self):
        spec = AncillaMeterSpec(v_total=0.5, u=1.0)
        rng = np.random.default_rng(4)
        shots = 1_000_000
        signals, _, _ = spec.draw(1.0, rng, shots, Workspace(shots))
        assert set(np.unique(signals)) == {-2.0, 2.0}
        p_plus = (signals > 0).mean()
        assert abs(p_plus - 0.75) < 4 * np.sqrt(0.75 * 0.25 / shots)
        assert abs(signals.mean() - 1.0) < 4 * np.sqrt((1 / 0.25 - 1) / shots)

    def test_projective_limit(self):
        # full strength on the Bell pair: each effect is the projector its signal names
        spec = AncillaMeterSpec(v_total=1.0, u=1.0)
        rng = np.random.default_rng(0)
        signals, length, coherence = spec.draw(0.0, rng, 200, Workspace(200))
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
        signals, _, _ = spec.draw(bloch=0.0, rng=rng, n=shots, workspace=Workspace(shots))
        np.testing.assert_allclose(np.abs(signals), 1 / 0.6, atol=1e-12)

    def test_eigenstate_variance(self):
        # signal variance on a definite state is 1/V^2 - 1
        spec = AncillaMeterSpec(v_total=0.6)
        rng = np.random.default_rng(14)
        shots = 500_000
        signals, _, _ = spec.draw(1.0, rng, shots, Workspace(shots))
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
        expected = apply_dephasing(state, 1, spec.dephasing_factor, basis)
        np.testing.assert_allclose(averaged, expected.rho, atol=1e-12)

    def test_readout_visibility_preserves_calibration(self):
        # u < 1 flips the reported sign but the rescaled mean still matches <O>
        spec = AncillaMeterSpec(v_total=0.4, u=0.8)
        rng = np.random.default_rng(21)
        shots = 1_000_000
        target = np.cos(np.pi / 3)
        signals, _, _ = spec.draw(target, rng, shots, Workspace(shots))
        stderr = np.sqrt(1 / spec.v_total**2 - target**2) / np.sqrt(shots)
        assert abs(signals.mean() - target) < 4 * stderr


class TestProjectiveSampling:
    def test_eigenstate_is_deterministic(self):
        spec = ProjectiveMeterSpec(v=1.0)
        rng = np.random.default_rng(2)
        for bloch, sign in ((1.0, 1.0), (-1.0, -1.0)):
            assert np.all(spec.draw(bloch, rng, 50, Workspace(50)) == sign)

    def test_reported_sign_fires_below_the_instrument_probability(self):
        # stub draws straddle, by 1e-12, the oracle's probability of a + report:
        # the projections weighted by their chance (1 +/- v)/2 of that report
        rng = np.random.default_rng(4)
        n = 24
        reports = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        for arm in (1, 2, 1, 2):
            rho = _random_states(rng, n)
            basis = analyzer_basis(rng.uniform(-np.pi, np.pi))
            spec = ProjectiveMeterSpec(v=rng.uniform(0.0, 1.0))
            draws = _probability(rho, readout_terms(1.0, spec, arm, basis)) - 1e-12 * reports
            reported = spec.draw(_components(rho, arm, basis.phi)[0], StubGenerator(draws), n, Workspace(n))
            np.testing.assert_array_equal(reported, reports)

    def test_zero_visibility_is_coin_flip(self):
        spec = ProjectiveMeterSpec(v=0.0)
        rng = np.random.default_rng(6)
        shots = 200_000
        signals = spec.draw(1.0, rng, shots, Workspace(shots))
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
        signals = spec.draw(np.cos(np.pi / 3), rng, shots, Workspace(shots))
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
        alpha, weights = flat_hermite(300, sigma)
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
            _, length, _ = spec.draw(0.0, rng, shots, Workspace(shots))
            assert abs(length.mean()) < tolerance
            _, _, _, b2 = sample_records(shots, spec, blind, ProjectiveMeterSpec(v=1.0), (0.6, 0.2, -0.4, 1.3), rng)
            assert abs(b2.mean()) < tolerance


class TestBatchMatchesSingleShot:
    """The kernel called one shot at a time and in one batch follows one record law."""

    def test_gaussian_means_agree(self):
        spec = GaussianMeterSpec(sigma=1.5)
        rng = np.random.default_rng(50)
        single = np.concatenate([spec.draw(0.0, rng, 1, Workspace(1))[0] for _ in range(20_000)])
        rng = np.random.default_rng(51)
        batch, _, _ = spec.draw(0.0, rng, 200_000, Workspace(200_000))
        pooled = np.sqrt(single.var() / single.size + batch.var() / batch.size)
        assert abs(single.mean() - batch.mean()) < 5 * pooled

    def test_ancilla_sign_probabilities_agree(self):
        spec = AncillaMeterSpec(v_total=0.6, u=0.9)
        rng = np.random.default_rng(52)
        single = np.concatenate([spec.draw(0.0, rng, 1, Workspace(1))[0] for _ in range(20_000)])
        rng = np.random.default_rng(53)
        batch, _, _ = spec.draw(0.0, rng, 200_000, Workspace(200_000))
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
        signals, _, _ = gaussian.draw(observable, rng, shots, Workspace(shots))
        assert abs(signals.mean() - observable) < 5 * signals.std() / np.sqrt(shots)
        ancilla = AncillaMeterSpec(v_total=0.6, u=0.9)
        p_plus = apply_operator(state, embed(ancilla_kraus(+1, ancilla.v_ent, basis), 1))[0]
        p_report = p_plus * (1 + ancilla.u) / 2 + (1 - p_plus) * (1 - ancilla.u) / 2
        signals, _, _ = ancilla.draw(observable, rng, shots, Workspace(shots))
        assert abs((signals > 0).mean() - p_report) < 5 * 0.5 / np.sqrt(shots)


#: every meter pair of these runs through the kernel and the oracle alike
EDGE_METERS = (
    GaussianMeterSpec(sigma=0.7, eta=1.0),
    GaussianMeterSpec(sigma=1.9, eta=0.5),
    # sigma**2 is near the largest double, and at 1e308 it overflows, as do the draws
    GaussianMeterSpec(sigma=1e154, eta=0.5),
    GaussianMeterSpec(sigma=1e308, eta=1.0),
    AncillaMeterSpec(v_total=0.45, u=0.8),
    AncillaMeterSpec(v_total=1.0, u=1.0),
)


class TestKernelMatchesKrausOracle:
    """Per shot, each stage draws the outcome of the oracle's instrument probability and leaves its update.

    The draws are replayed from an identically seeded generator in the
    documented order, and each shot's outcome is decided from the
    probability of the instrument of what the record shows, on 4x4 density
    matrices: the Kraus updates averaged over the branches no record shows.
    """

    SHOTS = 24

    @pytest.mark.parametrize("arm", [1, 2])
    def test_weak_stage(self, arm):
        # handed the arm's Bloch component, a stage draws the oracle's outcome,
        # and its effect (T, g) carries the arm's state through the instrument
        rng = np.random.default_rng(100 + arm)
        n = self.SHOTS
        for trial in range(8):
            spec = _random_meter(rng, gaussian=trial % 2 == 0)
            basis = analyzer_basis(rng.uniform(-np.pi, np.pi))
            rho = _random_states(rng, n)
            along, across = _components(rho, arm, basis.phi)
            seed = int(rng.integers(2**32))
            signals, length, coherence = spec.draw(along, np.random.default_rng(seed), n, Workspace(n))

            signal, expected = _weak_outcome(rho, arm, spec, basis, _weak_draws(np.random.default_rng(seed), spec, n))
            np.testing.assert_array_equal(signals, signal)
            # (I + b Z + x X)/2 goes to (I + (T + b)/(1 + b T) Z + g x/(1 + b T) X)/2
            scale = 1.0 + along * length
            got = ((along + length) / scale, coherence * across / scale)
            np.testing.assert_allclose(got, _components(expected, arm, basis.phi), atol=1e-12)

    def test_sample_records(self):
        # every record of a chunk is the outcome the oracle's probability gives
        # its replayed draw, on the 4x4 state that the earlier outcomes'
        # instruments left: stages 2-4 see arm 1's back-action
        rng = np.random.default_rng(400)
        for trial in range(8):
            meters = (_random_meter(rng, gaussian=trial % 2 == 0), _random_meter(rng, gaussian=trial % 4 < 2))
            readout = ProjectiveMeterSpec(v=rng.uniform(0.0, 1.0))
            angles = tuple(rng.uniform(-np.pi, np.pi, size=4))
            seed = int(rng.integers(2**32))
            records = sample_records(self.SHOTS, *meters, readout, angles, np.random.default_rng(seed))
            want = _replayed_records(self.SHOTS, meters, readout, angles, np.random.default_rng(seed))
            np.testing.assert_array_equal(np.array(records), want)

    def test_readout_probabilities(self):
        # stub draws straddle the oracle's probability of each + report by
        # 1e-12, after either report on arm 1, so the reports pin the
        # kernel's stage-3 and stage-4 probabilities to that precision
        rng = np.random.default_rng(300)
        n = self.SHOTS
        report3 = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        report4 = np.where(np.arange(n) % 4 < 2, 1.0, -1.0)
        for trial in range(6):
            meters = (_random_meter(rng, gaussian=trial % 2 == 0), _random_meter(rng, gaussian=trial % 3 == 0))
            readout = ProjectiveMeterSpec(v=rng.uniform(0.0, 1.0))
            angles = tuple(rng.uniform(-np.pi, np.pi, size=4))
            bases = [analyzer_basis(phi) for phi in angles]
            weak_draws = [_weak_draws(rng, meter, n) for meter in meters]
            rho = bell_state().rho
            for arm, meter, draws in zip((1, 2), meters, weak_draws):
                _, rho = _weak_outcome(rho, arm, meter, bases[arm - 1], draws)
            draws3 = _probability(rho, readout_terms(1.0, readout, 1, bases[2])) - 1e-12 * report3
            rho = _update(rho, readout_terms(report3, readout, 1, bases[2]))
            draws4 = _probability(rho, readout_terms(1.0, readout, 2, bases[3])) - 1e-12 * report4
            stub = StubGenerator(*weak_draws[0], *weak_draws[1], draws3, draws4)
            _, _, b1, b2 = sample_records(n, *meters, readout, angles, stub)
            np.testing.assert_array_equal(b1, report3)
            np.testing.assert_array_equal(b2, report4)

    @pytest.mark.parametrize("v", [0.0, 0.8, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 77, 65536])
    def test_sample_records_of_edge_meters(self, n, v):
        rng = np.random.default_rng(n + int(10 * v))
        # one workspace for every meter pair, as a worker keeps one from chunk to chunk
        shared = Workspace(65536)
        for meters in itertools.product(EDGE_METERS, repeat=2):
            angles = tuple(rng.uniform(-7.0, 7.0, size=4))
            seed = int(rng.integers(2**63))
            readout = ProjectiveMeterSpec(v=v)
            with np.errstate(over="ignore", invalid="ignore"):
                fresh = sample_records(n, *meters, readout, angles, np.random.default_rng(seed))
                reused = sample_records(n, *meters, readout, angles, np.random.default_rng(seed), shared)
            assert [r.tobytes() for r in reused] == [r.tobytes() for r in fresh]
            # the oracle's 4x4 products cost about 0.1 s for a whole chunk, so a chunk replays every 16th shot
            every = max(1, n // 4096)
            want = _replayed_records(n, meters, readout, angles, np.random.default_rng(seed), every)
            np.testing.assert_array_equal(np.array(fresh)[:, ::every], want)

    @pytest.mark.parametrize("n", [1, 77, 4096])
    def test_stages_on_bloch_arrays(self, n):
        # handed the per-shot Bloch components of random states, each stage
        # draws the outcomes the oracle's instruments give the same draws
        rng = np.random.default_rng(n)
        for arm, meter in itertools.product((1, 2), EDGE_METERS[:2] + EDGE_METERS[4:]):
            rho = _random_states(rng, n)
            basis = analyzer_basis(rng.uniform(-7.0, 7.0))
            along, _ = _components(rho, arm, basis.phi)
            seed = int(rng.integers(2**63))
            signals, _, _ = meter.draw(along, np.random.default_rng(seed), n, Workspace(n))
            want, _ = _weak_outcome(rho, arm, meter, basis, _weak_draws(np.random.default_rng(seed), meter, n))
            np.testing.assert_array_equal(signals, want)

            readout = ProjectiveMeterSpec(v=rng.uniform(0.0, 1.0))
            reported = readout.draw(along, np.random.default_rng(seed), n, Workspace(n))
            want, _ = _readout_outcome(rho, arm, readout, basis, np.random.default_rng(seed).random(n))
            np.testing.assert_array_equal(reported, want)


class TestRecordLaw:
    """The signs a record shows follow the law of the oracle's instruments: a seeded check of the whole record law."""

    SHOTS = 2**20
    CONFIGS = [
        ExperimentConfig(meter1=GaussianMeterSpec(sigma=10.0, eta=0.5), meter2=GaussianMeterSpec(sigma=10.0, eta=0.5),
                         b_spec=ProjectiveMeterSpec(v=0.8), seed=61),
        ExperimentConfig(meter1=AncillaMeterSpec(v_total=0.6, u=0.9), meter2=AncillaMeterSpec(v_total=0.6, u=0.9),
                         b_spec=ProjectiveMeterSpec(v=0.8), seed=62),
        ExperimentConfig(meter1=GaussianMeterSpec(sigma=10.0, eta=0.5), meter2=AncillaMeterSpec(v_total=0.6, u=0.9),
                         b_spec=ProjectiveMeterSpec(v=0.8), seed=63),
        # strong meters at arbitrary angles, so that every stage's back-action shows
        ExperimentConfig(meter1=AncillaMeterSpec(v_total=0.45, u=0.8), meter2=GaussianMeterSpec(sigma=0.8, eta=0.6),
                         b_spec=ProjectiveMeterSpec(v=0.8), angles=(0.3, -1.2, 2.5, 0.9), seed=64),
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=["gaussian", "ancilla", "mixed", "strong at other angles"])
    def test_sign_cells_pass_a_chi_square(self, config):
        # the 16 cells (sign alpha1, sign alpha2, b1, b2), cell 0 all +1, on 15 degrees of freedom
        rng = np.random.default_rng(config.seed)
        workspace = Workspace(65536)
        counts = np.zeros(16)
        for _ in range(self.SHOTS // 65536):
            records = sample_records(65536, config.meter1, config.meter2, config.b_spec, config.angles, rng, workspace)
            cells = sum((8 >> bit) * (record < 0.0) for bit, record in enumerate(records))
            counts += np.bincount(cells, minlength=16)
        expected = self.SHOTS * record_sign_law(config).ravel()
        statistic = ((counts - expected) ** 2 / expected).sum()
        # the 0.999 quantile of chi-square on 15 degrees of freedom
        assert statistic < 37.69729821835383


class _CountedBuffer(np.ndarray):
    """A workspace buffer that counts the ufunc calls that read or write it."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        _CountedBuffer.calls += 1
        plain = lambda x: x.view(np.ndarray) if isinstance(x, _CountedBuffer) else x
        if out is not None:
            kwargs["out"] = tuple(map(plain, out))
        result = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
        return result if out is None else out[0]


class _CountingWorkspace(Workspace):
    def take(self, n):
        return super().take(n).view(_CountedBuffer)


class TestKernelContract:
    """Coins, workspaces and inputs of the record kernel."""

    @pytest.mark.parametrize(
        "meter, passes",
        [
            (GaussianMeterSpec(sigma=2.0, eta=0.5), 69),
            (GaussianMeterSpec(sigma=2.0, eta=1.0), 67),
            (AncillaMeterSpec(v_total=0.6, u=0.9), 42),
        ],
        ids=["gaussian-eta0.5", "gaussian-eta1", "ancilla"],
    )
    def test_a_chunk_takes_the_float_passes_the_kernel_comment_counts(self, meter, passes):
        # each elementwise pass is one ufunc call on a workspace buffer; the RNG fills are not ufuncs
        args = (CHUNK_SHOTS, meter, meter, ProjectiveMeterSpec(v=0.8), DEFAULT_ANGLES)
        _CountedBuffer.calls = 0
        counted = sample_records(*args, np.random.default_rng(3), _CountingWorkspace(CHUNK_SHOTS))
        calls = _CountedBuffer.calls
        want = sample_records(*args, np.random.default_rng(3))
        assert [c.tobytes() for c in counted] == [w.tobytes() for w in want]
        assert calls == passes

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
            sample_records(5, *EDGE_METERS[:2], ProjectiveMeterSpec(), (0.0, 0.0, 0.0, 0.0), np.random.default_rng(0), Workspace(4))

    def test_a_stage_leaves_its_bloch_components_alone(self):
        bloch = np.random.default_rng(11).uniform(-1.0, 1.0, size=5)
        before = bloch.tobytes()
        workspace = Workspace(5)
        for meter in EDGE_METERS[:2] + EDGE_METERS[4:]:
            meter.draw(bloch, np.random.default_rng(12), 5, workspace)
        ProjectiveMeterSpec(v=0.8).draw(bloch, np.random.default_rng(12), 5, workspace)
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
