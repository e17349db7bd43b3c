import numpy as np
import pytest

from qbattery.model import (
    ID2,
    SIGMA_Z,
    ModelParams,
    bath_spin_hamiltonian,
    battery_hamiltonian,
    interaction_hamiltonian,
    total_collision_hamiltonian,
)

from _oracles import thermal_spin_state

P = ModelParams()


def comm(a, b):
    return a @ b - b @ a


def pauli_assembly(p):
    """The battery, interaction and 8x8 collision Hamiltonians rebuilt from
    scratch with raw numpy Pauli products, no package helpers."""
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    i2, i4 = np.eye(2), np.eye(4)
    h12 = p.e1 * np.kron(sz, i2) + p.e2 * np.kron(i2, sz)
    hint = p.k * (np.kron(sx, sx) + np.kron(sy, sy))
    return h12, hint, np.kron(h12, i2) + np.kron(i2, hint) + np.kron(i4, p.h * sz)


class TestModelParams:
    def test_defaults(self):
        assert (P.e1, P.e2, P.h, P.k, P.beta, P.delta_t) == (2.0, 1.0, 1.0, 1.0, 10.0, 0.2)
        assert P.beta * P.h == 10.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"e1": 1.0, "e2": 1.0},  # ordering e1 > e2 is strict
            {"e1": 1.0, "e2": 2.0},
            {"e2": -0.5},
            {"delta_t": 0.0},
            {"k": -0.1},
            {"beta": -1.0},
            {"h": np.inf},
            {"delta_t": 1e308},  # collision phases 1e308 x (2 + 1 + 1 + 2) overflow
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_thermal_populations(self):
        assert np.isclose(P.p0 + P.p1, 1.0)
        assert np.isclose(P.p0, 1.0 / (1.0 + np.exp(20.0)))
        assert np.isclose(P.p0, 2.0611536e-9, rtol=1e-6)


class TestBatteryHamiltonian:
    def test_default_spectrum(self):
        h = battery_hamiltonian(P)
        assert np.allclose(h, np.diag([3.0, 1.0, -1.0, -3.0]))

    def test_hermitian_and_commutes_with_local_z(self):
        h = battery_hamiltonian(P)
        assert np.abs(h - h.conj().T).max() <= 1e-14
        assert np.abs(comm(h, np.kron(SIGMA_Z, ID2))).max() <= 1e-14


class TestBathSpinHamiltonian:
    def test_zero_field(self):
        assert np.allclose(bath_spin_hamiltonian(ModelParams(h=0.0)), np.zeros((2, 2)))

    def test_default(self):
        assert np.allclose(bath_spin_hamiltonian(P), np.diag([1.0, -1.0]))

    def test_eigenvalues(self):
        p = ModelParams(h=0.7)
        assert np.allclose(np.linalg.eigvalsh(bath_spin_hamiltonian(p)), [-0.7, 0.7])


class TestInteractionHamiltonian:
    def test_zero_coupling(self):
        assert np.allclose(interaction_hamiltonian(ModelParams(k=0.0)), np.zeros((4, 4)))

    def test_exchange_block(self):
        h = interaction_hamiltonian(P)
        want = np.zeros((4, 4), dtype=complex)
        want[1, 2] = want[2, 1] = 2.0
        assert np.allclose(h, want, atol=1e-14)
        assert abs(np.trace(h)) <= 1e-14

    def test_conserves_total_excitation(self):
        h = interaction_hamiltonian(ModelParams(k=1.7))
        number = np.kron(SIGMA_Z, ID2) + np.kron(ID2, SIGMA_Z)
        assert np.abs(comm(h, number)).max() <= 1e-14


class TestTotalHamiltonian:
    def test_decoupled_limit(self):
        p = ModelParams(k=0.0, h=0.0)
        assert np.allclose(total_collision_hamiltonian(p), np.kron(battery_hamiltonian(p), ID2))

    def test_hermitian_traceless(self):
        h = total_collision_hamiltonian(P)
        assert np.abs(h - h.conj().T).max() <= 1e-14
        assert abs(np.trace(h)) <= 1e-14

    def test_against_independent_assembly(self):
        p = ModelParams(e1=1.9, e2=0.4, h=0.8, k=1.3, beta=2.0, delta_t=0.5)
        _, _, want = pauli_assembly(p)
        assert np.allclose(total_collision_hamiltonian(p), want, atol=1e-14)

    def test_closed_forms_equal_the_pauli_assembly_bit_for_bit(self):
        """The closed forms give the Pauli products' own floats, signs of
        zeros included, so no transfer stack or search can move."""
        gen = np.random.default_rng(15)
        for i in range(300):
            e2 = gen.uniform(1e-3, 5.0)
            h = 0.0 if i % 7 == 0 else gen.normal(scale=3.0)
            k = 0.0 if i % 5 == 0 else gen.uniform(0.0, 4.0)
            p = ModelParams(e1=e2 + gen.uniform(1e-6, 5.0), e2=e2, h=h, k=k, delta_t=gen.uniform(0.01, 5.0))
            got = (battery_hamiltonian(p), interaction_hamiltonian(p), total_collision_hamiltonian(p))
            for a, b in zip(got, pauli_assembly(p)):
                assert np.array_equal(a, b)
                assert np.array_equal(np.signbit(a.real), np.signbit(b.real))
                assert np.array_equal(np.signbit(a.imag), np.signbit(b.imag))


class TestThermalSpinState:
    def test_infinite_temperature(self):
        rho = thermal_spin_state(ModelParams(beta=0.0))
        assert np.allclose(rho, np.eye(2) / 2)

    def test_cold_limit(self):
        rho = thermal_spin_state(ModelParams(beta=1e6))
        assert np.allclose(rho, np.diag([0.0, 1.0]), atol=1e-12)

    def test_default_population(self):
        rho = thermal_spin_state(P)
        assert np.isclose(rho[0, 0].real, 1.0 / (1.0 + np.exp(20.0)))
        assert np.isclose(np.trace(rho).real, 1.0)
        assert np.all(np.diag(rho).real >= 0)

    def test_commutes_with_bath_hamiltonian(self):
        rho = thermal_spin_state(P)
        hb = bath_spin_hamiltonian(P)
        assert np.abs(comm(rho, hb)).max() == 0.0
