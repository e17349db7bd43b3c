import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import qbattery.collision as collision
from qbattery.collision import damp, fine_trajectory
import qbattery.ergotropy as ergotropy
from qbattery.ergotropy import (
    ergotropy_after_collisions,
    global_ergotropy,
    local_ergotropy,
    max_work_at_lambdas,
    max_work_fixed_entanglement,
)
from qbattery.linalg import ContractViolation
from qbattery.model import ModelParams, battery_hamiltonian
from qbattery.optimize import OptimizerSettings, multistart_maximize
from qbattery.states import (
    fixed_entanglement_state,
    locally_passive_state,
    projector,
    schmidt_gap,
    schmidt_lambdas_from_entanglement,
)
from qbhelpers import haar_unitaries, random_density_matrix, random_params, random_pure_state, rng, trajectory_work

from _oracles import (
    local_ergotropy_numeric,
    local_work_over_b2,
    marginal_local_work,
    run_collisions,
    six_angle_max_work,
    three_angle_work,
)
from test_transfer import PROPERTY, params_st

P = ModelParams()
H12 = battery_hamiltonian(P)
SZ = np.diag([1.0, -1.0]).astype(complex)


def passive_energy(rho, h) -> float:
    """Energy of rho's passive state, the floor Tr(rho h) - G that
    global_ergotropy implies."""
    return np.trace(rho @ h).real - global_ergotropy(rho, h)


class TestPassiveState:
    def test_swaps_inverted_populations(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        assert np.isclose(passive_energy(rho, SZ), 0.3 - 0.7)

    def test_passive_input_keeps_energy(self):
        rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        assert np.isclose(passive_energy(rho, H12), np.trace(rho @ H12).real)

    def test_commutes_and_preserves_spectrum(self):
        # the states that commute with the nondegenerate H12 and keep rho's
        # spectrum are its permuted diagonals; the passive one is the lowest
        gen = rng(211)
        rho = random_density_matrix(gen, 4)
        lam, energies = np.linalg.eigvalsh(rho), np.diag(H12).real
        lowest = min(lam[list(perm)] @ energies for perm in itertools.permutations(range(4)))
        assert abs(passive_energy(rho, H12) - lowest) <= 1e-12

    def test_random_unitary_minimality(self):
        # no unitary orbit point sits below the passive energy
        gen = rng(223)
        rho = random_density_matrix(gen, 4)
        floor = passive_energy(rho, H12)
        us = haar_unitaries(gen, 10_000, 4)
        energies = np.einsum("nij,njk,ki->n", us, rho[None] @ us.conj().transpose(0, 2, 1), H12).real
        assert energies.min() >= floor - 1e-10

    def test_degenerate_energies_give_unique_value(self):
        # equal local energy scales make the middle levels degenerate; the
        # passive energy must not depend on the tie-breaking basis
        h_deg = np.diag([2.0, 0.0, 0.0, -2.0]).astype(complex)
        gen = rng(227)
        rho = random_density_matrix(gen, 4)
        base = passive_energy(rho, h_deg)
        r_desc = np.linalg.eigvalsh(rho)[::-1]
        for seed in range(5):
            mix = rng(300 + seed)
            theta = mix.uniform(0, 2 * np.pi)
            rot = np.eye(4, dtype=complex)
            rot[1:3, 1:3] = [
                [np.cos(theta), -np.sin(theta)],
                [np.sin(theta), np.cos(theta)],
            ]
            vecs = np.linalg.eigh(h_deg)[1] @ rot  # alternative degenerate basis
            sigma = (vecs * r_desc) @ vecs.conj().T
            assert abs(np.trace(sigma @ h_deg).real - base) <= 1e-10


class TestGlobalErgotropy:
    def test_fully_charged_state(self):
        assert np.isclose(global_ergotropy(projector([1, 0, 0, 0]), H12), 6.0)

    def test_passive_state_yields_nothing(self):
        rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        assert abs(global_ergotropy(rho, H12)) <= 1e-9

    def test_qubit_example(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        assert np.isclose(global_ergotropy(rho, SZ), 0.8)

    def test_nonnegative(self):
        gen = rng(229)
        for _ in range(50):
            assert global_ergotropy(random_density_matrix(gen, 4), H12) >= -1e-12

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ContractViolation):
            global_ergotropy(np.eye(2, dtype=complex) / 2, H12)


class TestLocalErgotropy:
    def test_product_eigenstate(self):
        assert np.isclose(local_ergotropy(projector([1, 0, 0, 0]), P), 6.0)

    def test_bell_state(self):
        bell = projector(np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert abs(local_ergotropy(bell, P)) <= 1e-12

    def test_anti_passive_schmidt_state(self):
        # largest weight on the upper level: the local yield is the closed
        # form 2*(e1+e2)*gap
        gap = schmidt_gap(0.6)
        c = np.zeros(4)
        c[0], c[3] = np.sqrt(0.5 * (1 + gap)), np.sqrt(0.5 * (1 - gap))
        assert np.isclose(local_ergotropy(projector(c), P), 6.0 * gap, atol=1e-9)

    @PROPERTY
    @given(params_st, st.integers(0, 2**32 - 1))
    def test_closed_form_matches_marginal_spectra(self, p, seed):
        gen = rng(seed)
        states = [random_density_matrix(gen, 4) for _ in range(4)]
        states += [projector(random_pure_state(gen)) for _ in range(4)]
        want = marginal_local_work(np.array(states), p)
        for rho, w in zip(states, want):
            assert abs(local_ergotropy(rho, p) - w) <= 1e-13

    def test_matches_numeric_maximization(self):
        gen = rng(233)
        settings = OptimizerSettings(starts=8, seed=17, max_evals=400)
        for _ in range(5):
            rho = random_density_matrix(gen, 4)
            ana = local_ergotropy(rho, P)
            num = local_ergotropy_numeric(rho, P, settings)
            assert abs(ana - num) <= 1e-4


class TestErgotropyAfterCollisions:
    def test_zero_collisions_is_static(self):
        rho = projector(locally_passive_state(0.6))
        assert np.isclose(
            ergotropy_after_collisions(rho, 0, P), global_ergotropy(rho, H12)
        )

    def test_zero_coupling_is_time_independent(self):
        p = ModelParams(k=0.0)
        gen = rng(239)
        rho = random_density_matrix(gen, 4)
        for mode in ("global", "local"):
            vals = [ergotropy_after_collisions(rho, n, p, mode) for n in (0, 1, 5)]
            assert np.ptp(vals) <= 1e-10

    def test_monotone_decay(self):
        rho = projector(locally_passive_state(0.6))
        v0 = ergotropy_after_collisions(rho, 0, P)
        v5 = ergotropy_after_collisions(rho, 5, P)
        v30 = ergotropy_after_collisions(rho, 30, P)
        assert v30 <= v5 + 1e-9
        assert v5 <= v0 + 1e-9

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            ergotropy_after_collisions(projector([0, 0, 0, 1]), 1, P, "both")


class TestTrajectoryWork:
    def test_equals_checked_yield_at_every_sample(self):
        gen = rng(241)
        for _ in range(16):
            p = random_params(gen)
            traj = fine_trajectory(
                random_density_matrix(gen, 4), int(gen.integers(0, 6)), int(gen.integers(1, 9)), p
            )
            h12 = battery_hamiltonian(p)
            states = damp(traj.rho0, traj.lam, traj.params)
            want_global = [global_ergotropy(s, h12) for s in states]
            want_local = [local_ergotropy(s, p) for s in states]
            assert trajectory_work(traj).tolist() == want_global
            assert trajectory_work(traj, "local").tolist() == want_local

    @pytest.mark.parametrize("chunk", [1, 7, collision.DAMP_CHUNK])
    def test_values_do_not_depend_on_the_chunk(self, monkeypatch, chunk):
        traj = fine_trajectory(random_density_matrix(rng(251), 4), 3, 13, ModelParams(delta_t=1.6, beta=0.7))
        whole = [trajectory_work(traj, mode).tobytes() for mode in ("global", "local")]
        monkeypatch.setattr(collision, "DAMP_CHUNK", chunk)
        assert [trajectory_work(traj, mode).tobytes() for mode in ("global", "local")] == whole

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            trajectory_work(fine_trajectory(projector([0, 0, 0, 1]), 1, 2, P), "both")


X_SHAPE = np.eye(4, dtype=bool) | np.fliplr(np.eye(4, dtype=bool))  # the diagonal and the anti-diagonal


def random_x_state(gen) -> np.ndarray:
    """A random density matrix zero off the X: a random state's blocks on
    {|00>, |11>} and {|01>, |10>}, which are positive, with the same trace."""
    return np.where(X_SHAPE, random_density_matrix(gen, 4), 0.0)


class TestXStateWork:
    """The global trajectory yield of an X state reads its spectrum off two
    2x2 blocks; it must agree with the checked 4x4 eigvalsh."""

    @staticmethod
    def cases():
        gen = rng(263)
        resonant = ModelParams(delta_t=math.pi / 4.0)  # W = 2, so lambda(delta_t) is about 4e-33
        for e in (0.0, 1.0, 0.37):
            for state in (locally_passive_state(e), fixed_entanglement_state(e, np.zeros(6))):
                yield projector(state), resonant, 4, 9
                yield projector(state), replace(resonant, k=0.0), 2, 5
        for _ in range(24):
            p = replace(random_params(gen), h=gen.uniform(-1.0, 2.0))
            yield random_x_state(gen), p, int(gen.integers(0, 6)), int(gen.integers(1, 9))
        yield random_x_state(gen), replace(resonant, beta=0.3), 40, 3  # Lambda underflows to 0

    def test_equals_checked_yield_at_every_sample(self):
        """The global yield within 1e-12; the local one, read off the damped
        populations alone, bit for bit."""
        for rho0, p, n, substeps in self.cases():
            traj = fine_trajectory(rho0, n, substeps, p)
            h12 = battery_hamiltonian(p)
            states = damp(traj.rho0, traj.lam, traj.params)
            want = np.array([global_ergotropy(s, h12) for s in states])
            assert np.abs(trajectory_work(traj) - want).max() <= 1e-12
            assert trajectory_work(traj, "local").tolist() == [local_ergotropy(s, p) for s in states]

    def test_damping_keeps_the_x_shape(self):
        for rho0, p, n, substeps in self.cases():
            traj = fine_trajectory(rho0, n, substeps, p)
            states = damp(traj.rho0, traj.lam, traj.params)
            assert not np.any(states[:, ~X_SHAPE])

    def test_local_stays_below_global(self):
        for rho0, p, n, substeps in self.cases():
            traj = fine_trajectory(rho0, n, substeps, p)
            local, total = trajectory_work(traj, "local"), trajectory_work(traj)
            assert local.min() >= 0.0
            assert np.all(local <= total + 1e-12)


class TestMaxWorkFixedEntanglement:
    SETTINGS = OptimizerSettings(starts=6, seed=5, max_evals=600)

    def test_unentangled_global_max_is_full_charge(self):
        rec = max_work_fixed_entanglement(0.0, 0, P, "G", self.SETTINGS)
        assert abs(rec.value - 6.0) <= 1e-3

    def test_bell_local_max_is_zero(self):
        rec = max_work_fixed_entanglement(1.0, 0, P, "L", self.SETTINGS)
        assert abs(rec.value) <= 1e-3
        assert rec.value >= -1e-9

    def test_direct_locally_passive_value(self):
        rec = max_work_fixed_entanglement(0.6, 0, P, "G_p")
        assert abs(rec.value - 3.0 * (1.0 - schmidt_gap(0.6))) <= 1e-9
        assert rec.report is None

    def test_noiseless_closed_forms(self):
        for e in (0.0, 0.5, 1.0):
            gap = schmidt_gap(e)
            rec_g = max_work_fixed_entanglement(e, 0, P, "G", self.SETTINGS)
            rec_l = max_work_fixed_entanglement(e, 0, P, "L", self.SETTINGS)
            assert abs(rec_g.value - 3.0 * (1.0 + gap)) <= 1e-3
            assert abs(rec_l.value - 6.0 * gap) <= 1e-3

    def test_phase_sweep_is_noop_for_covariant_channel(self):
        # The free phase is a z rotation of qubit 1, which commutes with the
        # battery and collision Hamiltonians, so G_p cannot depend on it: the
        # turned state's yield after the phased collision loop equals the
        # phase-free yield of the state at phase 0.
        gen = rng(83)
        for _ in range(20):
            p = random_params(gen)
            e, n, theta = gen.uniform(0.0, 1.0), int(gen.integers(0, 31)), gen.uniform(0, 2 * np.pi)
            plain = ergotropy_after_collisions(projector(locally_passive_state(e)), n, p)
            turned = locally_passive_state(e) * np.array([1.0, 1.0, 1.0, np.exp(1j * theta)])
            evolved = run_collisions(projector(turned), n, (p.delta_t,), p)[-1]
            assert abs(global_ergotropy(evolved, battery_hamiltonian(p)) - plain) <= 1e-12

    def test_ordering_chain(self):
        for e, n in ((0.3, 0), (0.6, 4)):
            g_p = max_work_fixed_entanglement(e, n, P, "G_p").value
            g = max_work_fixed_entanglement(e, n, P, "G", self.SETTINGS).value
            l = max_work_fixed_entanglement(e, n, P, "L", self.SETTINGS).value
            assert g >= g_p - 1e-6
            assert g >= l - 1e-6

    def test_gp_monotone_in_entanglement(self):
        values = [
            max_work_fixed_entanglement(e, 0, P, "G_p").value
            for e in np.linspace(0, 1, 21)
        ]
        assert np.all(np.diff(values) >= -1e-6)

    def test_rejects_unknown_quantity(self):
        with pytest.raises(ValueError):
            max_work_fixed_entanglement(0.5, 0, P, "W")

    @pytest.mark.parametrize("quantity", ["G_p", "G", "L"])
    def test_rejects_negative_collision_count(self, quantity):
        with pytest.raises(ValueError, match="collision count must be >= 0"):
            settings = OptimizerSettings(starts=1, seed=0, max_evals=20)
            max_work_fixed_entanglement(0.5, -1, P, quantity, settings)


def work_objective(e, n, p, quantity):
    """The objective that max_work_fixed_entanglement hands to its search."""
    caught = []

    def search(objective, dim, settings=None):
        caught.append((objective, dim))
        return np.zeros(dim), 0.0, None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ergotropy, "multistart_maximize", search)
        max_work_fixed_entanglement(e, n, p, quantity)
    ((objective, dim),) = caught
    assert dim == 1
    return objective


def reduction_case(gen, i):
    """A random model, entanglement and collision count for case i: h from -1
    to 3, with k = 0 every fifth case, beta = 0 every seventh, E = 0 or 1
    every third and n = 10**20 every eleventh, else n <= 40."""
    e2 = gen.uniform(0.1, 2.0)
    p = ModelParams(
        e1=e2 + gen.uniform(0.05, 2.0),
        e2=e2,
        h=gen.uniform(-1.0, 3.0),
        k=0.0 if i % 5 == 0 else gen.uniform(0.0, 3.0),
        beta=0.0 if i % 7 == 0 else gen.uniform(0.0, 20.0),
        delta_t=gen.uniform(0.05, 3.0),
    )
    e = float(i % 2) if i % 3 == 0 else gen.uniform(0.0, 1.0)
    n = 10**20 if i % 11 == 0 else int(gen.integers(0, 41))
    return p, e, n


def local_maxima(values, rise=1e-12):
    """Points of a periodic scan above both neighbours by more than rise."""
    return int(np.sum((values > np.roll(values, 1) + rise) & (values > np.roll(values, -1) + rise)))


class TestSearchedAngles:
    """G and L depend on the Euler angles (b1, g1 + g2, b2) alone, and they
    are largest at b1 = 0, where g1 + g2 changes no yield (the ergotropy
    module docstring), so G's search and L's stationary points run over b2
    alone."""

    @PROPERTY
    @given(params_st, st.floats(0.0, 1.0), st.integers(0, 39), st.tuples(*[st.floats(-2 * np.pi, 2 * np.pi)] * 6))
    def test_yields_ignore_the_other_three_angles(self, p, e, n, angles):
        _, b1, g1, _, b2, g2 = angles
        full = projector(fixed_entanglement_state(e, angles))
        reduced = projector(fixed_entanglement_state(e, (0.0, b1, g1 + g2, 0.0, b2, 0.0)))
        for mode in ("global", "local"):
            want = ergotropy_after_collisions(full, n, p, mode)
            assert abs(ergotropy_after_collisions(reduced, n, p, mode) - want) <= 1e-13

    def test_three_angles_reduce_to_b2(self):
        """At any (b1, g, b2) the 3-angle yield is at most the 1-angle
        value at b2, and equal to it at b1 = 0 for any g.  G's 1-angle value
        is its search's objective; L, which runs no search, is read off the
        oracle's b2 scan."""
        gen = rng(307)
        for i in range(132):
            p, e, n = reduction_case(gen, i)
            search, local = work_objective(e, n, p, "G"), local_work_over_b2(e, n, p)
            one_angle = {
                "G": lambda b2: search(np.array([b2 - np.pi / 2])),  # the search's angle is b2 - pi/2
                "L": lambda b2: local([b2])[0],
            }
            for quantity, objective in one_angle.items():
                for b1, g, b2 in gen.uniform(-2 * np.pi, 4 * np.pi, (4, 3)):
                    one = objective(b2)
                    case = (p, e, n, quantity, b1, g, b2)
                    assert three_angle_work(e, n, p, quantity, (b1, g, b2)) <= one + 1e-12, case
                    assert abs(three_angle_work(e, n, p, quantity, (0.0, g, b2)) - one) <= 1e-12, case

    def test_benchmark_settings_reach_the_scan_maximum(self):
        """With the benchmark's 2 starts and 200 evaluations, the G search
        reaches the largest of 4,000 evenly spaced values of its objective,
        also where b2 has two local maxima, and L, which ignores the
        settings, the largest of the oracle's values at the same angles."""
        gen = rng(311)
        scan = np.linspace(0.0, 2 * np.pi, 4000, endpoint=False)[:, None]
        twin = 0
        for i in range(300):
            p, e, n = reduction_case(gen, i)
            quantity = ("G", "L")[i % 2]
            if quantity == "G":
                values = work_objective(e, n, p, quantity)(scan)
            else:
                values = local_work_over_b2(e, n, p)(scan[:, 0] + np.pi / 2)  # the search's angle was b2 - pi/2
            twin += local_maxima(values) >= 2
            rec = max_work_fixed_entanglement(e, n, p, quantity, OptimizerSettings(starts=2, seed=i, max_evals=200))
            assert rec.value >= values.max() - 1e-12, (p, e, n, quantity)
        assert twin >= 50

    def test_local_is_the_oracle_maximum(self):
        """L, read off its stationary points, is the oracle's largest local
        yield over b2: a 2,001-point scan of [0, pi] (the yields are even
        and 2*pi-periodic in b2), refined by scipy's bounded search around
        its best point.  It is never below the 24-start search that L used
        to run, made here on the oracle's yield.  The models have inverted
        (h < 0) and cold baths, finite beta and detuning, and E = 0 and 1
        and n = 0, 10**20 and 1e300 recur."""
        gen = rng(317)
        grid = np.linspace(0.0, np.pi, 2001)
        inverted = 0
        for i in range(120):
            e2 = gen.uniform(0.1, 2.0)
            p = ModelParams(
                e1=e2 + gen.uniform(0.05, 2.0), e2=e2, h=gen.uniform(-1.0, 2.0), k=gen.uniform(0.0, 2.0),
                beta=gen.uniform(0.0, 10.0), delta_t=gen.uniform(0.1, 4.0),
            )
            e = float(i % 2) if i % 5 == 0 else gen.uniform(0.0, 1.0)
            n = (0, 10**20, 1e300)[i % 3] if i % 4 == 0 else int(gen.integers(1, 40))
            inverted += p.h < 0.0
            oracle = local_work_over_b2(e, n, p)
            scan = oracle(grid)
            j = int(np.argmax(scan))
            bounds = (grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)])
            refined = minimize_scalar(lambda b2: -oracle([b2])[0], bounds=bounds, method="bounded",
                                      options={"xatol": 1e-12})
            searched = multistart_maximize(lambda x: oracle(x[:, 0] + np.pi / 2), 1)[1]  # 24 starts
            value = max_work_fixed_entanglement(e, n, p, "L").value
            assert abs(value - max(scan[j], -refined.fun)) <= 1e-9, (p, e, n)
            assert value >= searched - 1e-12, (p, e, n)
        assert inverted >= 30

    @pytest.mark.filterwarnings("error")  # a 0/0 or a division by zero would warn
    def test_batched_local_at_the_quadratics_edges(self):
        """L over many Lambda in one call, where the stationary quadratic
        degenerates: beta = 0 with Lambda underflowing to 0 (n = 10**20), where
        its roots' q is 0; Lambda = 1 (k = 0), where a = 0; E = 1, where the
        gap is 0; and random models with h in [-1, 2].  Each value is finite
        and within 1e-12 of the oracle's largest local yield over b2: a
        2,001-point scan of [0, pi], refined by scipy's bounded search around
        its best point."""
        gen = rng(331)
        grid = np.linspace(0.0, np.pi, 2001)
        ns = [0, 1, 2, 5, 17, 40, 10**20]
        cases = [(ModelParams(beta=0.0), 0.4), (ModelParams(beta=0.0, h=-0.7, k=0.3), 0.8),
                 (ModelParams(k=0.0), 0.6), (ModelParams(), 1.0), (ModelParams(beta=0.0), 1.0)]
        for _ in range(10):
            e2 = gen.uniform(0.1, 2.0)
            p = ModelParams(e1=e2 + gen.uniform(0.05, 2.0), e2=e2, h=gen.uniform(-1.0, 2.0), k=gen.uniform(0.0, 2.0),
                            beta=gen.uniform(0.0, 10.0), delta_t=gen.uniform(0.1, 4.0))
            cases.append((p, gen.uniform(0.0, 1.0)))
        for p, e in cases:
            values, reports = max_work_at_lambdas(e, collision.after_collisions(p, ns), p, "L")
            assert reports is None and np.isfinite(values).all(), (p, e)
            for n, value in zip(ns, values):
                oracle = local_work_over_b2(e, n, p)
                scan = oracle(grid)
                j = int(np.argmax(scan))
                bounds = (grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)])
                refined = minimize_scalar(lambda b2: -oracle([b2])[0], bounds=bounds, method="bounded",
                                          options={"xatol": 1e-12})
                assert abs(value - max(scan[j], -refined.fun)) <= 1e-12, (p, e, n)

    def test_steady_state_is_the_product_closed_form(self):
        """After n = 10**20 collisions with lambda(delta_t) < 0.99, qubit 2 is
        the bath's diag(p0, p1) and qubit 1 keeps diag(lambda1, lambda2), so
        G and L are those of the product state."""
        gen = rng(313)
        checked = 0
        for i in itertools.count(1):
            p, e, _ = reduction_case(gen, i)
            w = np.hypot(p.e2 - p.h, 2.0 * p.k)
            if p.k == 0.0 or not 1.0 - (2.0 * p.k * np.sin(w * p.delta_t) / w) ** 2 < 0.99:
                continue
            lam1, lam2 = schmidt_lambdas_from_entanglement(e)
            diag = np.kron([lam1, lam2], [p.p0, p.p1])
            energies = np.array([p.e1 + p.e2, p.e1 - p.e2, -p.e1 + p.e2, -p.e1 - p.e2])
            z1, z2 = lam1 - lam2, p.p0 - p.p1
            want = {
                "G": diag @ energies - np.sort(diag)[::-1] @ np.sort(energies),
                "L": p.e1 * (z1 + abs(z1)) + p.e2 * (z2 + abs(z2)),
            }
            for quantity, value in want.items():
                rec = max_work_fixed_entanglement(e, 10**20, p, quantity, OptimizerSettings(starts=2, seed=checked))
                assert abs(rec.value - value) <= 1e-12, (p, e, quantity)
            checked += 1
            if checked == 40:
                break

    @pytest.mark.parametrize("quantity", ["G", "L"])
    @pytest.mark.parametrize("e", [0.2, 0.6, 0.9])
    @pytest.mark.parametrize("n", [0, 7, 30])
    def test_reaches_the_six_angle_maximum(self, quantity, e, n):
        p = ModelParams(k=0.8)
        six = six_angle_max_work(e, n, p, quantity, OptimizerSettings(starts=2, seed=11, max_evals=1200))
        one = max_work_fixed_entanglement(e, n, p, quantity, OptimizerSettings(starts=4, seed=11)).value
        assert one >= six - 1e-12
