"""The closed-form collision channel against the dense joint-space oracle
and the closed-form collision unitary, and its physical invariants as
properties over random model parameters.  The n-collision map T**n is
checked against the same oracle, against the collision-by-collision loop and
against its n -> infinity limit."""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery.collision import collision_power, collision_propagator, run_collisions, transfer_stack
from qbattery.ergotropy import ergotropy_after_collisions, global_ergotropy, local_ergotropy
from qbattery.model import ModelParams, battery_hamiltonian
from qbattery.states import locally_passive_state, projector
from qbhelpers import random_density_matrix, random_params, random_pure_state, rng

from _oracles import (
    closed_form_stack,
    dense_collisions,
    partial_trace,
    propagator_stack,
    thermal_spin_state,
    total_collision_hamiltonian,
    unitary_from_hamiltonian,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


params_st = st.builds(
    lambda e2, gap, h, k, beta, dt: ModelParams(e1=e2 + gap, e2=e2, h=h, k=k, beta=beta, delta_t=dt),
    st.floats(0.1, 2.0),
    st.floats(0.05, 2.0),
    st.floats(0.0, 3.0),
    st.floats(0.0, 3.0),
    st.floats(0.0, 20.0),
    st.floats(0.05, 3.0),
)
substeps_st = st.integers(1, 6)
seed_st = st.integers(0, 2**32 - 1)


def grid(p: ModelParams, substeps: int) -> list[float]:
    return [(s * p.delta_t) / substeps for s in range(1, substeps + 1)]


class TestDenseOracle:
    def test_states_match(self):
        gen = rng(701)
        for case in range(24):
            p = random_params(gen)
            taus = grid(p, (1, 3, 7)[case % 3])
            n = int(gen.integers(0, 31))
            rho = random_density_matrix(gen, 4)
            got = run_collisions(rho, n, taus, p)
            assert got.shape == (n * len(taus) + 1, 4, 4)
            assert np.abs(got - dense_collisions(rho, n, taus, p)).max() <= 1e-12

    def test_traceless_difference_matches(self):
        gen = rng(703)
        for _ in range(12):
            p = random_params(gen)
            s1, s2 = random_pure_state(gen, 4), random_pure_state(gen, 4)
            diff = np.outer(s1, s1.conj()) - np.outer(s2, s2.conj())
            taus = sorted(gen.uniform(0.0, p.delta_t, size=5))
            got = run_collisions(diff, 30, taus, p)
            assert np.abs(got - dense_collisions(diff, 30, taus, p)).max() <= 1e-12

    def test_channel_matches_dense_path(self):
        """Over 200 random models, every fifth with k = 0 and every seventh
        with e2 = h (so W = 0 at every 35th): the maps and the 8x8 propagator
        against the eigendecomposition, and T**n against repeated products of
        the dense map, whose own rounding grows with n."""
        gen = rng(707)
        counts = (0, 1, 2, 3, 7, 30, 99, 100, 101, 250, 1000)
        for case in range(200):
            p = random_params(gen)
            p = replace(p, k=0.0 if case % 5 == 0 else p.k, h=p.e2 if case % 7 == 0 else p.h)
            taus = tuple(gen.uniform(0.0, 3.0, size=9).tolist()) + (p.delta_t,)
            assert np.abs(transfer_stack(p, taus) - propagator_stack(p, taus)).max() <= 1e-13
            dense_u = unitary_from_hamiltonian(total_collision_hamiltonian(p), taus[0])
            assert np.abs(collision_propagator(p, taus[0]) - dense_u).max() <= 1e-13
            one, power = propagator_stack(p, (p.delta_t,))[0], np.eye(16, dtype=complex)
            for n in range(max(counts) + 1):
                if n in counts:
                    assert np.abs(collision_power(p, n) - power).max() <= 1e-11
                power = one @ power

    def test_first_sample_is_input(self):
        rho = random_density_matrix(rng(705), 4)
        assert np.array_equal(run_collisions(rho, 3, [0.1, 0.2], ModelParams())[0], rho)


class TestCollisionPower:
    COUNTS = (0, 1, 2, 7, 30, 100)

    def cases(self, seed):
        gen = rng(seed)
        for case in range(12):
            p = random_params(gen)
            yield (replace(p, k=0.0) if case % 3 == 0 else p), gen

    def test_state_matches_dense_oracle(self):
        for p, gen in self.cases(711):
            rho = random_density_matrix(gen, 4)
            s1, s2 = random_pure_state(gen, 4), random_pure_state(gen, 4)
            diff = np.outer(s1, s1.conj()) - np.outer(s2, s2.conj())
            for start in (rho, diff):
                dense = dense_collisions(start, max(self.COUNTS), (p.delta_t,), p)
                for n in self.COUNTS:
                    got = (collision_power(p, n) @ start.reshape(16)).reshape(4, 4)
                    assert np.abs(got - dense[n]).max() <= 1e-12

    def test_work_reaches_the_steady_limit(self):
        """lambda(delta_t) < 1 at the defaults, so Lambda = lambda(delta_t)**n
        vanishes: qubit 2 ends in the spin's diag(p0, p1), uncorrelated, and
        qubit 1 only turns.  n = 10**20 is past int64, and at delta_t = 1 the
        phases of n = int(1.7e308) collisions are past the float range."""
        for p in (ModelParams(), ModelParams(delta_t=1.0)):
            h = battery_hamiltonian(p)
            for rho in (projector(locally_passive_state(0.5)), random_density_matrix(rng(719), 4)):
                limit = np.kron(partial_trace(rho, (2, 2), "A"), thermal_spin_state(p))
                for n in (10**12, 10**15, 10**18, 10**20, int(1.7e308)):
                    assert abs(ergotropy_after_collisions(rho, n, p) - global_ergotropy(limit, h)) <= 1e-12
                    assert abs(ergotropy_after_collisions(rho, n, p, "local") - local_ergotropy(limit, p)) <= 1e-12

    def test_power_at_full_swap_and_without_coupling(self):
        """At W*delta_t = pi/2 on resonance lambda(delta_t) is 0, where
        1 - (2k*s)**2 cancels; at k = 0 it is 1, so no count may move the work."""
        swap = ModelParams(delta_t=math.pi / 4)  # W = 2k = 2
        for n in (1, 2, 3):
            dense = np.linalg.matrix_power(propagator_stack(swap, (swap.delta_t,))[0], n)
            assert np.abs(collision_power(swap, n) - dense).max() <= 1e-13
        p, rho = ModelParams(k=0.0, h=0.3), random_density_matrix(rng(727), 4)
        for mode in ("global", "local"):
            still = ergotropy_after_collisions(rho, 0, p, mode)
            for n in (1, 10**12, 10**18, 10**300):
                assert abs(ergotropy_after_collisions(rho, n, p, mode) - still) <= 1e-12

    def test_ergotropy_matches_collision_loop(self):
        for p, gen in self.cases(713):
            rho = random_density_matrix(gen, 4)
            loop = run_collisions(rho, max(self.COUNTS), (p.delta_t,), p)
            h = battery_hamiltonian(p)
            for n in self.COUNTS:
                assert abs(ergotropy_after_collisions(rho, n, p) - global_ergotropy(loop[n], h)) <= 1e-12
                assert abs(ergotropy_after_collisions(rho, n, p, "local") - local_ergotropy(loop[n], p)) <= 1e-12


class TestClosedFormOracle:
    def test_stack_matches_closed_form(self):
        gen = rng(709)
        for case in range(32):
            p = random_params(gen)
            if case % 4 == 0:
                p = replace(p, k=0.0)
            taus = grid(p, int(gen.integers(1, 31))) if case % 2 else gen.uniform(0.0, 3.0, size=9)
            taus = tuple(float(t) for t in taus)
            assert np.abs(transfer_stack(p, taus) - closed_form_stack(p, taus)).max() <= 1e-12

    def test_resonant_uncoupled_limit(self):
        # e2 = h and k = 0: the exchange block's frequency W is 0
        p = ModelParams(k=0.0)
        taus = tuple(grid(p, 5))
        assert np.abs(transfer_stack(p, taus) - closed_form_stack(p, taus)).max() <= 1e-12


class TestTransferProperties:
    @PROPERTY
    @given(params_st, substeps_st)
    def test_choi_is_psd_with_unit_partial_trace(self, p, substeps):
        stack = transfer_stack(p, tuple(grid(p, substeps)))
        assert not stack.flags.writeable
        # Choi[(j, i), (m, k)] = T[(i, k), (j, m)] = <i| Phi(|j><m|) |k>
        choi = stack.reshape(-1, 4, 4, 4, 4).transpose(0, 3, 1, 4, 2).reshape(-1, 16, 16)
        assert np.abs(choi - choi.conj().transpose(0, 2, 1)).max() <= 1e-12
        assert np.linalg.eigvalsh(choi).min() >= -1e-12
        partial = np.einsum("tjimi->tjm", choi.reshape(-1, 4, 4, 4, 4))
        assert np.abs(partial - np.eye(4)).max() <= 1e-12

    @PROPERTY
    @given(params_st, substeps_st, st.integers(0, 6), seed_st)
    def test_trace_distance_contracts(self, p, substeps, n, seed):
        gen = rng(seed)
        rho, sigma = random_density_matrix(gen, 4), random_density_matrix(gen, 4)
        samples = run_collisions(rho - sigma, n, grid(p, substeps), p)
        dist = 0.5 * np.abs(np.linalg.eigvalsh(samples)).sum(axis=1)
        assert np.all(dist <= dist[0] + 1e-12)

    @PROPERTY
    @given(params_st, st.integers(0, 30), seed_st)
    def test_work_bounds(self, p, n, seed):
        rho = run_collisions(random_density_matrix(rng(seed), 4), n, (p.delta_t,), p)[-1]
        h = battery_hamiltonian(p)
        local, total = local_ergotropy(rho, p), global_ergotropy(rho, h)
        ceiling = np.trace(rho @ h).real - np.linalg.eigvalsh(h).min()
        assert -1e-12 <= local <= total + 1e-12
        assert total <= ceiling + 1e-12
