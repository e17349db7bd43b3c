import numpy as np
import pytest
from scipy.linalg import expm

from qbattery.linalg import (
    ContractViolation,
    is_density_matrix,
    is_hermitian,
    unitary_from_hamiltonian,
)
from qbhelpers import random_density_matrix, random_hermitian, rng

from _oracles import is_unitary, partial_trace, trace_distance

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


class TestPartialTrace:
    def test_factorized(self):
        gen = rng(3)
        a = random_density_matrix(gen, 2)
        b = random_hermitian(gen, 3)
        x = np.kron(a, b)
        assert np.allclose(partial_trace(x, (2, 3), "A"), a * np.trace(b))
        assert np.allclose(partial_trace(x, (2, 3), "B"), b * np.trace(a))

    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        proj = np.outer(bell, bell.conj())
        assert np.allclose(partial_trace(proj, (2, 2), "A"), np.eye(2) / 2)

    def test_random_8x8_against_double_sum(self):
        gen = rng(5)
        x = random_density_matrix(gen, 8)
        got = partial_trace(x, (4, 2), "A")
        # independent elementwise double-sum oracle
        want = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                for s in range(2):
                    want[i, j] += x[2 * i + s, 2 * j + s]
        assert np.allclose(got, want, atol=1e-14)
        assert abs(np.trace(got) - np.trace(x)) <= 1e-12
        assert np.linalg.eigvalsh(got).min() >= -1e-12

    def test_linearity(self):
        gen = rng(7)
        x = random_hermitian(gen, 8)
        y = random_hermitian(gen, 8)
        a, b = 0.3, -1.7
        lhs = partial_trace(a * x + b * y, (2, 4), "B")
        rhs = a * partial_trace(x, (2, 4), "B") + b * partial_trace(y, (2, 4), "B")
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            partial_trace(np.eye(6, dtype=complex), (4, 2), "A")

    def test_bad_keep_tag(self):
        with pytest.raises(ContractViolation):
            partial_trace(np.eye(4, dtype=complex), (2, 2), "C")


class TestEigendecompose:
    """The eigendecomposition inside unitary_from_hamiltonian."""

    def test_sigma_z(self):
        # sz (x) sz is degenerate, so the eigenvector basis is not unique;
        # the propagator must not depend on that choice
        t = 0.61
        u = unitary_from_hamiltonian(np.kron(SZ, SZ), t)
        want = np.diag(np.exp(-1j * t * np.array([1.0, -1.0, -1.0, 1.0])))
        assert np.abs(u - want).max() <= 1e-14

    def test_sigma_x(self):
        t = 0.83
        u = unitary_from_hamiltonian(SX, t)
        assert np.abs(u - (np.cos(t) * I2 - 1j * np.sin(t) * SX)).max() <= 1e-14

    def test_random_reconstruction(self):
        gen = rng(13)
        for _ in range(5):
            h = random_hermitian(gen, 8)
            t = gen.uniform(-3.0, 3.0)
            assert np.abs(unitary_from_hamiltonian(h, t) - expm(-1j * t * h)).max() <= 1e-10

    def test_rejects_nonhermitian(self):
        with pytest.raises(ContractViolation):
            unitary_from_hamiltonian(np.array([[0, 1], [0, 0]], dtype=complex), 0.3)


class TestUnitaryFromHamiltonian:
    def test_zero_time(self):
        gen = rng(17)
        h = random_hermitian(gen, 4)
        assert np.allclose(unitary_from_hamiltonian(h, 0.0), np.eye(4), atol=1e-14)

    def test_sigma_z_phases(self):
        t = 0.37
        u = unitary_from_hamiltonian(SZ, t)
        assert np.allclose(u, np.diag([np.exp(-1j * t), np.exp(1j * t)]), atol=1e-14)

    def test_semigroup(self):
        gen = rng(19)
        h = random_hermitian(gen, 8)
        u1 = unitary_from_hamiltonian(h, 0.31)
        u2 = unitary_from_hamiltonian(h, 0.52)
        u12 = unitary_from_hamiltonian(h, 0.83)
        assert np.abs(u1 @ u2 - u12).max() <= 1e-10

    def test_unitarity(self):
        gen = rng(23)
        for _ in range(5):
            u = unitary_from_hamiltonian(random_hermitian(gen, 8), 1.7)
            assert is_unitary(u, 1e-10)

    def test_rejects_infinite_time(self):
        with pytest.raises(ContractViolation):
            unitary_from_hamiltonian(SZ, np.inf)

    def test_time_array_equals_per_time_calls(self):
        gen = rng(29)
        for dim in (2, 4, 8, 8, 8):
            h = random_hermitian(gen, dim)
            times = gen.uniform(-3.0, 3.0, size=int(gen.integers(1, 40)))
            stack = unitary_from_hamiltonian(h, times)
            assert stack.shape == (len(times), dim, dim)
            for u, t in zip(stack, times.tolist()):
                assert (u == unitary_from_hamiltonian(h, t)).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_time_in_array(self, bad):
        with pytest.raises(ContractViolation):
            unitary_from_hamiltonian(SZ, [0.1, bad, 0.3])


class TestTraceDistance:
    def test_equal_states(self):
        gen = rng(29)
        r = random_density_matrix(gen, 4)
        assert trace_distance(r, r) == 0.0

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert np.isclose(trace_distance(a, b), 1.0)

    def test_classical_example(self):
        a = np.diag([0.7, 0.3]).astype(complex)
        b = np.diag([0.3, 0.7]).astype(complex)
        assert np.isclose(trace_distance(a, b), 0.4)

    def test_symmetry_and_unitary_invariance(self):
        gen = rng(31)
        r1 = random_density_matrix(gen, 4)
        r2 = random_density_matrix(gen, 4)
        d = trace_distance(r1, r2)
        assert np.isclose(d, trace_distance(r2, r1))
        u = unitary_from_hamiltonian(random_hermitian(gen, 4), 0.9)
        d_rot = trace_distance(u @ r1 @ u.conj().T, u @ r2 @ u.conj().T)
        assert abs(d - d_rot) <= 1e-10

    def test_rejects_non_states(self):
        with pytest.raises(ContractViolation):
            trace_distance(np.eye(2, dtype=complex), np.eye(2, dtype=complex) / 2)


class TestPredicates:
    def test_hermitian(self):
        assert is_hermitian(SZ)
        assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_unitary(self):
        assert is_unitary(np.eye(3, dtype=complex))
        assert not is_unitary(2 * np.eye(3, dtype=complex))

    def test_density(self):
        assert is_density_matrix(np.diag([0.5, 0.5]).astype(complex))
        assert not is_density_matrix(np.diag([1.5, -0.5]).astype(complex))
        assert not is_density_matrix(np.diag([0.7, 0.7]).astype(complex))
