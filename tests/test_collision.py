import math
from decimal import Context, Decimal

import numpy as np
import pytest

from qbattery.collision import after_collisions, collide_once, collision_propagator, damp, evolve, fine_trajectory
from qbattery.linalg import ContractViolation
from qbattery.model import ModelParams
from qbattery.states import locally_passive_state, projector
from qbhelpers import random_density_matrix, rng

from _oracles import (
    ID2,
    SIGMA_Z,
    partial_trace,
    run_collisions,
    thermal_spin_state,
    total_collision_hamiltonian,
    trace_distance,
    unitary_from_hamiltonian,
)
from test_transfer import assert_phase_blind

P = ModelParams()
RHO_LP = projector(locally_passive_state(0.6))


class TestCollideOnce:
    def test_zero_coupling_keeps_populations(self):
        p = ModelParams(k=0.0)
        gen = rng(101)
        rho = random_density_matrix(gen, 4)
        out = collide_once(rho, p)
        assert np.allclose(np.diag(out), np.diag(rho), atol=1e-12)

    def test_short_collision_is_identity(self):
        p = ModelParams(delta_t=1e-8)
        gen = rng(103)
        rho = random_density_matrix(gen, 4)
        assert np.abs(collide_once(rho, p) - rho).max() <= 1e-7

    def test_fine_step_joint_composition_oracle(self):
        # compose 1000 joint sub-steps of delta_t/1000, trace the spin at the
        # end; must match the one-shot collision
        u_small = unitary_from_hamiltonian(total_collision_hamiltonian(P), P.delta_t / 1000)
        joint = np.kron(RHO_LP, thermal_spin_state(P))
        for _ in range(1000):
            joint = u_small @ joint @ u_small.conj().T
        want = partial_trace(joint, (4, 2), "A")
        assert np.abs(collide_once(RHO_LP, P) - want).max() <= 1e-9

    def test_output_is_state(self):
        out = collide_once(RHO_LP, P)
        assert np.abs(out - out.conj().T).max() <= 1e-10
        assert abs(np.trace(out) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(out).min() >= -1e-10

    def test_rejects_non_state(self):
        with pytest.raises(ContractViolation):
            collide_once(np.eye(4, dtype=complex), P)

    def test_cptp_properties(self):
        gen = rng(107)
        for _ in range(200):
            out = collide_once(random_density_matrix(gen, 4), P)
            assert np.abs(out - out.conj().T).max() <= 1e-10
            assert abs(np.trace(out) - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(out).min() >= -1e-9

    def test_linearity(self):
        gen = rng(109)
        rho, sigma = random_density_matrix(gen, 4), random_density_matrix(gen, 4)
        alpha = 0.37
        mixed = collide_once(alpha * rho + (1 - alpha) * sigma, P)
        split = alpha * collide_once(rho, P) + (1 - alpha) * collide_once(sigma, P)
        assert np.abs(mixed - split).max() <= 1e-10

    def test_contraction_across_full_collisions(self):
        gen = rng(113)
        for _ in range(20):
            rho, sigma = random_density_matrix(gen, 4), random_density_matrix(gen, 4)
            before = trace_distance(rho, sigma)
            after = trace_distance(collide_once(rho, P), collide_once(sigma, P))
            assert after <= before + 1e-9


class TestEvolveWithinCollision:
    """Partial collisions: the phased reference loop samples at taus inside
    one window, and collide_once ends it."""

    def test_full_duration_matches_collide_once(self):
        out = run_collisions(RHO_LP, 1, (P.delta_t / 2, P.delta_t), P)[-1]
        assert np.abs(out - collide_once(RHO_LP, P)).max() <= 1e-12

    def test_half_steps_do_not_compose(self):
        # the spin keeps memory inside one collision, so composing two
        # half-steps of the reduced map differs from the full collision
        half = run_collisions(RHO_LP, 1, (P.delta_t / 2,), P)[-1]
        twice = run_collisions(half, 1, (P.delta_t / 2,), P)[-1]
        assert np.abs(twice - collide_once(RHO_LP, P)).max() > 1e-4

    def test_zero_coupling_diagonal_fixed_points(self):
        p = ModelParams(k=0.0)
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        samples = run_collisions(rho, 1, (0.05, 0.1, 0.2), p)
        assert np.abs(samples - rho).max() <= 1e-12

    def test_excitation_conserved_during_collision(self):
        # with h = e2 the qubit2+spin pair exchanges excitations coherently;
        # <sz_2 + sz_B> of the joint state is constant in tau
        p = ModelParams(h=P.e2)
        number_op = np.kron(np.kron(ID2, SIGMA_Z), ID2) + np.kron(np.eye(4), SIGMA_Z)
        joint0 = np.kron(RHO_LP, thermal_spin_state(p))
        h_tot = total_collision_hamiltonian(p)
        expect0 = np.trace(joint0 @ number_op).real
        for tau in np.linspace(0.02, p.delta_t, 10):
            u = unitary_from_hamiltonian(h_tot, tau)
            joint = u @ joint0 @ u.conj().T
            assert abs(np.trace(joint @ number_op).real - expect0) <= 1e-9


class TestEvolve:
    def test_zero_collisions(self):
        traj = evolve(RHO_LP, 0, P)
        assert len(traj.times) == 1
        assert np.allclose(damp(traj.rho0, traj.lam, traj.params)[0], RHO_LP)

    def test_two_collisions_compose(self):
        # evolve's states are phase-free; collide_once keeps the z rotations
        traj = evolve(RHO_LP, 2, P)
        want = collide_once(collide_once(RHO_LP, P), P)
        assert_phase_blind(damp(traj.rho0, traj.lam, traj.params)[2], want, P)

    def test_all_samples_are_states(self):
        traj = evolve(RHO_LP, 30, P)
        for state in damp(traj.rho0, traj.lam, traj.params):
            assert abs(np.trace(state) - 1.0) <= 1e-9
            assert np.linalg.eigvalsh(state).min() >= -1e-9

    def test_trajectory_invariants(self):
        traj = evolve(RHO_LP, 8, P)
        assert np.all(np.diff(traj.times) > 0)
        assert np.all(np.diff(traj.collision_index) >= 0)
        states, state = damp(traj.rho0, traj.lam, traj.params), RHO_LP
        for n in range(9):
            assert_phase_blind(states[n], state, P, 1e-9)
            state = collide_once(state, P)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            evolve(RHO_LP, -1, P)


class TestFineTrajectory:
    def test_substeps_one_equals_evolve(self):
        fine = fine_trajectory(RHO_LP, 4, 1, P)
        coarse = evolve(RHO_LP, 4, P)
        assert np.allclose(fine.times, coarse.times)
        assert np.array_equal(fine.collision_index, coarse.collision_index)
        assert np.abs(damp(fine.rho0, fine.lam, P) - damp(coarse.rho0, coarse.lam, P)).max() <= 1e-12

    def test_boundary_agreement(self):
        fine = fine_trajectory(RHO_LP, 5, 50, P)
        coarse = evolve(RHO_LP, 5, P)
        fine_states, coarse_states = damp(fine.rho0, fine.lam, P), damp(coarse.rho0, coarse.lam, P)
        for m in range(6):
            assert np.abs(fine_states[m * 50] - coarse_states[m]).max() <= 1e-10

    def test_sample_continuity(self):
        traj = fine_trajectory(RHO_LP, 3, 200, P)
        states = damp(traj.rho0, traj.lam, traj.params)
        jumps = [trace_distance(states[i], states[i + 1]) for i in range(len(states) - 1)]
        assert max(jumps) <= 0.1

    def test_counts_and_index(self):
        fine = fine_trajectory(RHO_LP, 3, 7, P)
        assert len(fine.times) == 3 * 7 + 1
        assert fine.collision_index[0] == 0
        assert np.all(np.diff(fine.times) > 0)
        assert list(fine.collision_index[1:8]) == [1] * 7

    def test_rejects_bad_substeps(self):
        with pytest.raises(ValueError):
            fine_trajectory(RHO_LP, 2, 0, P)


def test_propagator_cached_and_unitary():
    u1 = collision_propagator(P)
    u2 = collision_propagator(P)
    assert u1 is u2
    assert np.abs(u1.conj().T @ u1 - np.eye(8)).max() <= 1e-10
    assert not u1.flags.writeable


def test_collision_powers_are_within_libm_accuracy():
    """Lambda after n collisions is lambda(delta_t)**n within 0.52 ulp, the
    bound glibc documents for its pow, of the exact power taken in 60-digit
    decimal: 5,000 powers of lambda in [0.5, 1), n in [1, 1e5).
    On an AVX-512 host numpy's 0-d power misses it by up to 0.6 ulp here."""
    gen, exact, worst = rng(131), Context(prec=60), 0.0
    for _ in range(50):
        lam = 0.0
        while not 0.5 <= lam < 1.0:
            p = ModelParams(delta_t=float(gen.uniform(0.01, 1.0)))
            lam = float(after_collisions(p, [1])[0])  # lambda(delta_t) itself
        counts = gen.integers(1, 10**5, size=100).tolist()
        for n, power in zip(counts, after_collisions(p, counts).tolist()):
            error = abs(Decimal(power) - exact.power(Decimal(lam), n)) / Decimal(math.ulp(power))
            worst = max(worst, float(error))
    assert worst <= 0.52
