"""The closed-form collision channel against the dense joint-space oracle
and the closed-form collision unitary, and its physical invariants as
properties over random model parameters.  The phase-free damping that every
yield and trace distance is taken from is checked against the same oracle
up to the z rotations it leaves out, against the collision-by-collision
loop and against its n -> infinity limit."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery.collision import after_collisions, collision_propagator, damp, fine_trajectory
from qbattery.ergotropy import _yield_of, ergotropy_after_collisions, global_ergotropy, local_ergotropy, trajectory_work
from qbattery.model import ModelParams, battery_hamiltonian
from qbattery.states import locally_passive_state, projector
from qbhelpers import random_density_matrix, random_params, random_pure_state, rng

from _oracles import (
    closed_form_stack,
    collision_power,
    dense_collisions,
    partial_trace,
    propagator_stack,
    run_collisions,
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


def applied_maps(p: ModelParams, taus) -> np.ndarray:
    """(len(taus), 16, 16) maps on row-major vec(rho) that run_collisions
    applies in one collision, read off its samples from the 16 basis operators."""
    basis = np.eye(16).reshape(16, 4, 4)
    return np.stack([run_collisions(e, 1, taus, p)[1:].reshape(-1, 16) for e in basis], axis=-1)


def assert_phase_blind(got: np.ndarray, want: np.ndarray, p: ModelParams, tol: float = 1e-12) -> None:
    """got and want, (..., 4, 4) operators, agree up to z rotations of the two
    qubits: equal diagonals, equal |entries| and equal global and local yields."""
    assert np.abs(np.diagonal(got, axis1=-2, axis2=-1) - np.diagonal(want, axis1=-2, axis2=-1)).max() <= tol
    assert np.abs(np.abs(got) - np.abs(want)).max() <= tol
    for mode in ("global", "local"):
        work = _yield_of(p, mode)
        assert np.abs(work(got) - work(want)).max() <= tol


def varied(p: ModelParams, case: int) -> ModelParams:
    """p with k = 0 at every fifth case, e2 = h at every seventh (so W = 0 at
    every 35th), an inverted bath h < 0 at every third and beta = 0 at every
    fourth."""
    h = p.e2 if case % 7 == 0 else -p.h if case % 3 == 0 else p.h
    return replace(p, k=0.0 if case % 5 == 0 else p.k, h=h, beta=0.0 if case % 4 == 0 else p.beta)


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
        """Over 200 random models (`varied`): the maps and the 8x8 propagator
        against the eigendecomposition, and the phase-free damping of n full
        collisions against the dense joint-space evolution up to z rotations,
        up to n = 101 and, on every tenth model, n = 1,000."""
        gen = rng(707)
        counts = (0, 1, 2, 3, 7, 30, 99, 100, 101, 250, 1000)
        for case in range(200):
            p = varied(random_params(gen), case)
            taus = tuple(gen.uniform(0.0, 3.0, size=9).tolist()) + (p.delta_t,)
            assert np.abs(applied_maps(p, taus) - propagator_stack(p, taus)).max() <= 1e-13
            dense_u = unitary_from_hamiltonian(total_collision_hamiltonian(p), taus[0])
            assert np.abs(collision_propagator(p, taus[0]) - dense_u).max() <= 1e-13
            rho = random_density_matrix(gen, 4)
            top = max(counts) if case % 10 == 0 else 101
            dense, lam = dense_collisions(rho, top, (p.delta_t,), p), after_collisions(p, range(top + 1))
            kept = [n for n in counts if n <= top]
            assert_phase_blind(damp(rho, lam[kept], p), dense[kept], p)

    def test_memory_is_the_output(self):
        """2,000 collisions of 200 samples: the yields hold Lambda and the
        values beside one chunk of damped states, well below a quarter of
        the (400,001, 4, 4) complex stack (102 MB) of the states."""
        p = ModelParams(delta_t=1.0)
        tracemalloc.start()
        try:
            out = trajectory_work(fine_trajectory(projector(locally_passive_state(0.6)), 2000, 200, p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (400_001,)
        assert peak < 400_001 * 16 * 16 / 4

    def test_first_sample_is_input(self):
        rho = random_density_matrix(rng(705), 4)
        assert np.array_equal(run_collisions(rho, 3, [0.1, 0.2], ModelParams())[0], rho)


class TestCollisionPower:
    """n full collisions: the damping with Lambda = lambda(delta_t)**n."""

    COUNTS = (0, 1, 2, 7, 30, 100)

    def cases(self, seed):
        gen = rng(seed)
        for case in range(12):
            yield varied(random_params(gen), case), gen

    def test_state_matches_dense_oracle(self):
        for p, gen in self.cases(711):
            rho = random_density_matrix(gen, 4)
            s1, s2 = random_pure_state(gen, 4), random_pure_state(gen, 4)
            diff = np.outer(s1, s1.conj()) - np.outer(s2, s2.conj())
            lam = after_collisions(p, self.COUNTS)
            for start in (rho, diff):
                dense = dense_collisions(start, max(self.COUNTS), (p.delta_t,), p)
                assert_phase_blind(damp(start, lam, p), dense[list(self.COUNTS)], p)

    def test_work_reaches_the_steady_limit(self):
        """lambda(delta_t) < 1 at the defaults, so Lambda = lambda(delta_t)**n
        vanishes: qubit 2 ends in the spin's diag(p0, p1), uncorrelated, and
        qubit 1 only turns.  n = 10**20 is past int64, and at delta_t = 1 the
        phases of n = int(1.7e308) collisions, which no yield sees, are past
        the float range."""
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
        rho = random_density_matrix(rng(733), 4)
        for n in (1, 2, 3):
            dense = np.linalg.matrix_power(propagator_stack(swap, (swap.delta_t,))[0], n) @ rho.reshape(16)
            got = damp(rho, after_collisions(swap, [n])[0], swap)
            assert_phase_blind(got, dense.reshape(4, 4), swap, 1e-13)
        p, rho = ModelParams(k=0.0, h=0.3), random_density_matrix(rng(727), 4)
        for mode in ("global", "local"):
            still = ergotropy_after_collisions(rho, 0, p, mode)
            for n in (1, 10**12, 10**18, 10**300):
                assert abs(ergotropy_after_collisions(rho, n, p, mode) - still) <= 1e-12

    def test_work_matches_the_phased_power(self):
        """The yields of the phase-free damping against those of the phased
        T**n, whose z rotations are reduced exactly mod 2*pi, up to n = 1e300."""
        gen = rng(739)
        for case in range(40):
            p, rho = varied(random_params(gen), case), random_density_matrix(gen, 4)
            h = battery_hamiltonian(p)
            for n in (0, 3, 30, 10**20, int(1e300)):
                phased = (collision_power(p, n) @ rho.reshape(16)).reshape(4, 4)
                assert abs(ergotropy_after_collisions(rho, n, p) - global_ergotropy(phased, h)) <= 1e-13
                assert abs(ergotropy_after_collisions(rho, n, p, "local") - local_ergotropy(phased, p)) <= 1e-13

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
            assert np.abs(applied_maps(p, taus) - closed_form_stack(p, taus)).max() <= 1e-12

    def test_resonant_uncoupled_limit(self):
        # e2 = h and k = 0: the exchange block's frequency W is 0
        p = ModelParams(k=0.0)
        taus = tuple(grid(p, 5))
        assert np.abs(applied_maps(p, taus) - closed_form_stack(p, taus)).max() <= 1e-12


class TestTransferProperties:
    @PROPERTY
    @given(params_st, substeps_st)
    def test_choi_is_psd_with_unit_partial_trace(self, p, substeps):
        stack = applied_maps(p, grid(p, substeps))
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
