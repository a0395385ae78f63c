import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle import TwoQubitState, ZeroProbabilityError, analyzer_basis, apply_operator, bell_state, embed, expectation


class TestBellState:
    def test_matrix_entries(self):
        rho = bell_state().rho
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_trace_one(self):
        assert abs(np.trace(bell_state().rho) - 1.0) < 1e-14

    def test_pure(self):
        assert abs(bell_state().purity() - 1.0) < 1e-12

    def test_reduced_states_maximally_mixed(self):
        state = bell_state()
        np.testing.assert_allclose(state.reduced(1), np.eye(2) / 2, atol=1e-14)
        np.testing.assert_allclose(state.reduced(2), np.eye(2) / 2, atol=1e-14)


class TestAnalyzerBasis:
    def test_zero_angle_is_computational(self):
        basis = analyzer_basis(0.0)
        np.testing.assert_allclose(basis.ket0, [1, 0], atol=1e-15)
        np.testing.assert_allclose(basis.ket1, [0, 1], atol=1e-15)

    def test_half_pi(self):
        basis = analyzer_basis(np.pi / 2)
        r = 1 / np.sqrt(2)
        np.testing.assert_allclose(basis.ket0, [r, r], atol=1e-15)
        np.testing.assert_allclose(basis.ket1, [-r, r], atol=1e-15)

    def test_three_quarter_pi(self):
        basis = analyzer_basis(3 * np.pi / 4)
        np.testing.assert_allclose(
            basis.ket0, [np.cos(3 * np.pi / 8), np.sin(3 * np.pi / 8)], atol=1e-15
        )

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    def test_nonfinite_angle_rejected(self, phi):
        with pytest.raises(ValueError):
            analyzer_basis(phi)

    @given(st.floats(-50.0, 50.0))
    def test_orthonormality(self, phi):
        basis = analyzer_basis(phi)
        assert abs(np.vdot(basis.ket0, basis.ket0) - 1) < 1e-12
        assert abs(np.vdot(basis.ket1, basis.ket1) - 1) < 1e-12
        assert abs(np.vdot(basis.ket0, basis.ket1)) < 1e-12

    def test_orthonormality_bulk(self):
        rng = np.random.default_rng(17)
        for phi in rng.uniform(-8 * np.pi, 8 * np.pi, size=1000):
            basis = analyzer_basis(phi)
            assert abs(np.vdot(basis.ket0, basis.ket0) - 1) < 1e-12
            assert abs(np.vdot(basis.ket0, basis.ket1)) < 1e-12

    def test_observable_is_plus_minus_projector_difference(self):
        basis = analyzer_basis(1.3)
        np.testing.assert_allclose(
            basis.observable @ basis.ket0, basis.ket0, atol=1e-14
        )
        np.testing.assert_allclose(
            basis.observable @ basis.ket1, -basis.ket1, atol=1e-14
        )


class TestEmbed:
    def test_identity(self):
        np.testing.assert_allclose(embed(np.eye(2), 1), np.eye(4), atol=1e-15)
        np.testing.assert_allclose(embed(np.eye(2), 2), np.eye(4), atol=1e-15)

    def test_diagonal_arm1(self):
        op = np.diag([2.0, 3.0])
        np.testing.assert_allclose(embed(op, 1), np.diag([2, 2, 3, 3]), atol=1e-15)

    def test_diagonal_arm2(self):
        op = np.diag([2.0, 3.0])
        np.testing.assert_allclose(embed(op, 2), np.diag([2, 3, 2, 3]), atol=1e-15)

    def test_bad_arm(self):
        with pytest.raises(ValueError):
            embed(np.eye(2), 3)

    def test_opposite_arm_embeddings_commute(self):
        # locality at the algebra level
        rng = np.random.default_rng(11)
        for _ in range(300):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            lhs = embed(a, 1) @ embed(b, 2)
            rhs = embed(b, 2) @ embed(a, 1)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def _random_state(rng) -> TwoQubitState:
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = raw @ raw.conj().T
    return TwoQubitState.from_rho(rho / np.trace(rho).real)


class TestApplyOperator:
    def test_identity_returns_same_state(self):
        state = bell_state()
        weight, updated = apply_operator(state, np.eye(4))
        assert abs(weight - 1.0) < 1e-12
        np.testing.assert_allclose(updated.rho, state.rho, atol=1e-12)

    def test_projecting_bell_onto_zero(self):
        basis = analyzer_basis(0.0)
        weight, updated = apply_operator(bell_state(), embed(basis.projector0, 1))
        assert abs(weight - 0.5) < 1e-12
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(updated.rho, expected, atol=1e-12)

    def test_zero_probability_branch_raises(self):
        ket00 = np.zeros((4, 4), dtype=complex)
        ket00[0, 0] = 1.0
        state = TwoQubitState.from_rho(ket00)
        projector_11 = np.zeros((4, 4), dtype=complex)
        projector_11[3, 3] = 1.0
        with pytest.raises(ZeroProbabilityError):
            apply_operator(state, projector_11)

    def test_random_updates_preserve_state_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            state = _random_state(rng)
            kraus = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            weight, updated = apply_operator(state, kraus)
            assert weight > 0.0
            rho = updated.rho
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-9


class TestExpectation:
    def test_perfect_correlation_at_zero_angles(self):
        value = expectation(bell_state(), analyzer_basis(0.0), analyzer_basis(0.0))
        assert abs(value - 1.0) < 1e-12

    def test_pair_correlator_is_cosine_of_angle_difference(self):
        # oracle: direct matrix evaluation over an angle grid
        state = bell_state()
        for phi1 in np.linspace(0.0, 2 * np.pi, 10):
            for phi2 in np.linspace(-np.pi, np.pi, 5):
                value = expectation(state, analyzer_basis(phi1), analyzer_basis(phi2))
                assert abs(value - np.cos(phi1 - phi2)) < 1e-10

    def test_single_arm_marginal_vanishes(self):
        assert abs(expectation(bell_state(), analyzer_basis(np.pi / 2), None)) < 1e-12

    def test_requires_a_basis(self):
        with pytest.raises(ValueError):
            expectation(bell_state())

    def test_single_arm_of_product_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        state = TwoQubitState.from_rho(rho)
        basis = analyzer_basis(np.pi / 3)
        assert abs(expectation(state, basis, None) - np.cos(np.pi / 3)) < 1e-12


class TestTwoQubitStateValidation:
    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 0.5
        with pytest.raises(ValueError):
            TwoQubitState.from_rho(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            TwoQubitState.from_rho(np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalues(self):
        rho = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(ValueError):
            TwoQubitState.from_rho(rho)

    def test_clips_tiny_negative_eigenvalues(self):
        rho = np.diag([0.5 + 5e-10, 0.5 + 5e-10, -5e-10, -5e-10]).astype(complex)
        state = TwoQubitState.from_rho(rho)
        assert np.linalg.eigvalsh(state.rho).min() >= 0.0
        assert abs(np.trace(state.rho).real - 1.0) < 1e-12
