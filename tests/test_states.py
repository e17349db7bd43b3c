import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbattery.linalg import ContractViolation
from qbattery.states import (
    fixed_entanglement_state,
    locally_passive_state,
    projector,
    schmidt_gap,
    schmidt_lambdas_from_entanglement,
    single_qubit_unitary,
)
from qbhelpers import random_pure_state, rng

from _oracles import (
    euler_product_unitary,
    kron_fixed_entanglement_state,
    log_negativity,
    partial_trace,
    rotated_schmidt_state,
)
from test_transfer import PROPERTY

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def schmidt_weights(c) -> np.ndarray:
    """Squared singular values of the 2x2 coefficient matrix, descending."""
    return np.linalg.svd(np.reshape(c, (2, 2)), compute_uv=False) ** 2


class TestLogNegativity:
    def test_product_state(self):
        assert log_negativity([1, 0, 0, 0]) == 0.0

    def test_bell_state(self):
        assert np.isclose(log_negativity(BELL), 1.0, atol=1e-12)

    def test_partially_entangled(self):
        c = np.array([np.sqrt(0.75), 0, 0, np.sqrt(0.25)])
        want = np.log2(2 * np.sqrt(0.1875) + 1)
        assert np.isclose(log_negativity(c), want, atol=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ContractViolation):
            log_negativity([1, 0, 0, 1])


class TestSchmidtLambdas:
    def test_endpoints(self):
        assert np.allclose(schmidt_lambdas_from_entanglement(0.0), (1.0, 0.0))
        assert np.allclose(schmidt_lambdas_from_entanglement(1.0), (0.5, 0.5))

    def test_intermediate_value(self):
        lam1, lam2 = schmidt_lambdas_from_entanglement(0.6)
        gap = np.sqrt(2**1.6 - 2**1.2)
        assert np.isclose(lam1, 0.5 * (1 + gap), atol=1e-12)
        assert np.isclose(lam2, 0.5 * (1 - gap), atol=1e-12)

    def test_round_trip_through_log_negativity(self):
        for e in np.linspace(0, 1, 11):
            lam1, lam2 = schmidt_lambdas_from_entanglement(e)
            assert np.isclose(lam1 + lam2, 1.0, atol=1e-12)
            c = np.zeros(4)
            c[0], c[3] = np.sqrt(lam1), np.sqrt(lam2)
            assert abs(log_negativity(c) - e) <= 1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            schmidt_lambdas_from_entanglement(1.2)
        with pytest.raises(ValueError):
            schmidt_gap(-0.1)

    def test_invalid_entanglement_raises_on_every_call(self):
        for bad in (1.2, -0.1, np.nan, float("nan")):
            for _ in range(3):
                with pytest.raises(ValueError):
                    schmidt_lambdas_from_entanglement(bad)

    def test_float_like_inputs_agree(self):
        want = schmidt_lambdas_from_entanglement(0.3)
        assert schmidt_lambdas_from_entanglement(np.float64(0.3)) == want
        assert schmidt_lambdas_from_entanglement(np.array(0.3)) == want


class TestLocallyPassiveState:
    def test_zero_entanglement_is_ground_state(self):
        assert np.allclose(locally_passive_state(0.0), [0, 0, 0, 1])

    def test_full_entanglement_is_bell(self):
        assert np.allclose(locally_passive_state(1.0), BELL)

    def test_intermediate_amplitudes(self):
        c = locally_passive_state(0.6)
        lam1, lam2 = schmidt_lambdas_from_entanglement(0.6)
        assert np.isclose(c[0].real, np.sqrt(lam2), atol=1e-12)
        assert np.isclose(c[3].real, np.sqrt(lam1), atol=1e-12)

    def test_reduced_states_are_passive(self):
        # diagonal marginals, more weight on the lower level |1>
        for e in (0.0, 0.3, 0.8, 1.0):
            rho = projector(locally_passive_state(e))
            for keep in ("A", "B"):
                red = partial_trace(rho, (2, 2), keep)
                assert abs(red[0, 1]) <= 1e-14
                assert red[1, 1].real >= red[0, 0].real - 1e-12


class TestFixedEntanglementState:
    def test_zero_angles_give_schmidt_form(self):
        lam1, lam2 = schmidt_lambdas_from_entanglement(0.4)
        c = fixed_entanglement_state(0.4, np.zeros(6))
        assert np.allclose(np.abs(c), [np.sqrt(lam1), 0, 0, np.sqrt(lam2)], atol=1e-12)

    def test_local_unitary_invariance(self):
        gen = rng(41)
        for e in (0.0, 0.37, 0.6, 1.0):
            for _ in range(5):
                angles = gen.uniform(0, 2 * np.pi, size=6)
                c = fixed_entanglement_state(e, angles)
                assert abs(log_negativity(c) - e) <= 1e-10

    def test_schmidt_consistency_loop(self):
        gen = rng(43)
        for e in (0.2, 0.85):
            angles = gen.uniform(0, 2 * np.pi, size=6)
            lams = schmidt_weights(fixed_entanglement_state(e, angles))
            want = schmidt_lambdas_from_entanglement(e)
            assert np.allclose(lams, want, atol=1e-10)

    def test_equals_kron_oracle(self):
        gen = rng(47)
        for e in np.linspace(0.0, 1.0, 21):
            for _ in range(10):
                angles = gen.uniform(-2 * np.pi, 2 * np.pi, size=6)
                got = fixed_entanglement_state(e, angles)
                assert (got == kron_fixed_entanglement_state(e, angles)).all()

    @PROPERTY
    @given(st.floats(0.0, 1.0), st.tuples(*[st.floats(-2 * np.pi, 2 * np.pi)] * 3))
    def test_rotated_schmidt_state_is_the_chart_point(self, e, angles):
        """The 3-angle reference's closed-form state is the chart point
        (0, b1, g1, 0, b2, 0) up to a global phase."""
        b1, g1, b2 = angles
        roots = np.sqrt(schmidt_lambdas_from_entanglement(e))
        closed = rotated_schmidt_state(*roots, b1, g1, b2)
        chart = fixed_entanglement_state(e, (0.0, b1, g1, 0.0, b2, 0.0))
        assert abs(np.linalg.norm(closed) - 1.0) <= 1e-14
        assert abs(abs(np.vdot(closed, chart)) - 1.0) <= 1e-14

    def test_rejects_bad_angles(self):
        with pytest.raises(ValueError):
            fixed_entanglement_state(0.5, np.zeros(5))
        with pytest.raises(ValueError):
            fixed_entanglement_state(0.5, [np.inf] + [0] * 5)


class TestSchmidtDecompose:
    """Schmidt forms of the package's states, from the SVD of c.reshape(2, 2)."""

    def test_product_state(self):
        angles = rng(49).uniform(0, 2 * np.pi, size=6)
        assert np.allclose(schmidt_weights(fixed_entanglement_state(0.0, angles)), [1.0, 0.0], atol=1e-14)

    def test_bell_state(self):
        angles = rng(51).uniform(0, 2 * np.pi, size=6)
        assert np.allclose(schmidt_weights(fixed_entanglement_state(1.0, angles)), [0.5, 0.5], atol=1e-14)

    def test_random_reconstruction(self):
        # any pure state's Schmidt weights follow from its log-negativity
        gen = rng(47)
        for _ in range(10):
            c = random_pure_state(gen, 4)
            lams = schmidt_weights(c)
            assert np.allclose(lams, schmidt_lambdas_from_entanglement(log_negativity(c)), atol=1e-10)
            red = partial_trace(projector(c), (2, 2), "A")
            assert np.allclose(lams[::-1], np.linalg.eigvalsh(red), atol=1e-10)

    def test_basis_columns_orthonormal(self):
        # the Schmidt bases of the family are the columns of its local unitaries
        gen = rng(53)
        angles = gen.uniform(0, 2 * np.pi, size=6)
        u1, u2 = single_qubit_unitary(*angles[:3]), single_qubit_unitary(*angles[3:])
        lam1, lam2 = schmidt_lambdas_from_entanglement(0.45)
        coeffs = np.reshape(fixed_entanglement_state(0.45, angles), (2, 2))
        assert np.allclose(coeffs, u1 @ np.diag(np.sqrt([lam1, lam2])) @ u2.T, atol=1e-12)
        for u in (u1, u2):
            assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)


class TestHelpers:
    def test_single_qubit_unitary_is_unitary(self):
        gen = rng(59)
        for _ in range(5):
            u = single_qubit_unitary(*gen.uniform(0, 2 * np.pi, size=3))
            assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_single_qubit_unitary_matches_euler_product(self):
        gen = rng(61)
        for alpha, beta, gamma in gen.uniform(-4 * np.pi, 4 * np.pi, size=(2000, 3)):
            u = single_qubit_unitary(alpha, beta, gamma)
            assert u.dtype == np.complex128
            assert np.abs(u - euler_product_unitary(alpha, beta, gamma)).max() <= 1e-14
