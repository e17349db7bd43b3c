import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qbattery.collision as collision
import qbattery.nonmarkov as nonmarkov
from qbattery.collision import after_collisions, cutoff, fine_trajectory, sample_times
from qbattery.ergotropy import global_ergotropy, local_ergotropy, trajectory_work
from qbattery.model import ModelParams, battery_hamiltonian
from qbattery.nonmarkov import _distance_samples, blp_measure, pair_from_angles
from qbattery.optimize import OptimizerSettings
from qbattery.states import fixed_entanglement_state, locally_passive_state, projector
from qbhelpers import random_density_matrix, random_params, random_pure_state, rng

from _oracles import blp_functional, dense_backflow_lower_bound, dense_collisions, lambda_at_taus, run_collisions
from test_transfer import PROPERTY, params_st, seed_st, varied

P = ModelParams()


def grid_lambda(p: ModelParams, grid_points: int, collisions: int = 1, delta_t: float | None = None) -> np.ndarray:
    """Lambda at the samples of blp_measure's trace, for p or p at delta_t."""
    p = p if delta_t is None else replace(p, delta_t=delta_t)
    return after_collisions(p, range(collisions + 1), grid_points)[: collisions * grid_points + 1]


def search_objective(delta_t: float, p: ModelParams, grid_points: int, collisions: int):
    """The objective that blp_measure hands to its multi-start search."""
    caught = []

    def search(objective, dim, settings=None):
        caught.append(objective)
        return np.zeros(dim), 0.0, None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nonmarkov, "multistart_maximize", search)
        blp_measure(replace(p, delta_t=delta_t), grid_points=grid_points, collisions=collisions)
    return caught[0]


class TestPairParametrization:
    def test_orthonormal_pairs(self):
        gen = rng(301)
        for _ in range(25):
            s1, s2 = pair_from_angles(gen.uniform(0, 2 * np.pi, size=10))
            assert np.isclose(np.linalg.norm(s1), 1.0, atol=1e-12)
            assert np.isclose(np.linalg.norm(s2), 1.0, atol=1e-12)
            assert abs(s1.conj() @ s2) <= 1e-12

    def test_zero_angles(self):
        s1, s2 = pair_from_angles(np.zeros(10))
        assert np.allclose(s1, [1, 0, 0, 0])
        assert np.allclose(s2, [0, 1, 0, 0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            pair_from_angles(np.zeros(9))


class TestDistinguishabilityTrace:
    """The trace distance D of an evolving pair over one collision window."""

    def test_identical_states_stay_at_zero(self):
        gen = rng(307)
        s = random_pure_state(gen, 4)
        assert _distance_samples(s, s, grid_lambda(P, 50, delta_t=0.4), P).max() <= 1e-12

    def test_zero_coupling_keeps_distance_constant(self):
        p = ModelParams(k=0.0)
        gen = rng(311)
        s1, s2 = random_pure_state(gen, 4), random_pure_state(gen, 4)
        assert np.ptp(_distance_samples(s1, s2, grid_lambda(p, 60, delta_t=0.9), p)) <= 1e-12

    def test_default_window_is_contractive(self):
        # below the exchange half-swap time every pair loses distinguishability
        gen = rng(313)
        for _ in range(5):
            s1, s2 = random_pure_state(gen, 4), random_pure_state(gen, 4)
            d = _distance_samples(s1, s2, grid_lambda(P, 80), P)
            assert np.all(np.diff(d) <= 1e-12)

    def test_trace_matches_dense_oracle(self):
        """The phase-free damping of the pair's difference against the dense
        joint-space evolution, over random models, grids and 1-3 collisions."""
        gen = rng(337)
        for case in range(24):
            p, taus = varied(random_params(gen), case), sorted(gen.uniform(0.0, 3.0, size=7))
            s1, s2 = random_pure_state(gen, 4), random_pure_state(gen, 4)
            n = 1 + case % 3
            dense = dense_collisions(np.outer(s1, s1.conj()) - np.outer(s2, s2.conj()), n, taus, p)
            want = 0.5 * np.abs(np.linalg.eigvalsh(dense)).sum(axis=-1)
            assert np.abs(_distance_samples(s1, s2, lambda_at_taus(p, taus, n), p) - want).max() <= 1e-12

    @pytest.mark.parametrize("chunk", [1, 7, collision.DAMP_CHUNK])
    def test_trace_does_not_depend_on_the_chunk(self, monkeypatch, chunk):
        s1, s2 = pair_from_angles(np.random.default_rng(8).uniform(-3.0, 3.0, size=10))
        p = replace(P, beta=0.7)
        lam = grid_lambda(p, 40, 3, delta_t=1.6)
        whole = _distance_samples(s1, s2, lam, p)
        monkeypatch.setattr(collision, "DAMP_CHUNK", chunk)
        assert _distance_samples(s1, s2, lam, p).tobytes() == whole.tobytes()

    def test_trace_memory_stays_below_the_sample_stack(self):
        """20,000 collisions of 2 samples: the trace damps DAMP_CHUNK samples
        at a time and holds no (40,001, 4, 4) complex stack (10.2 MB), which a
        loop over the collisions would."""
        s1, s2 = pair_from_angles(np.full(10, 0.3))
        tracemalloc.start()
        try:
            d = _distance_samples(s1, s2, grid_lambda(P, 2, 20_000, delta_t=1.6), P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.shape == (40_001,)
        assert peak < 40_001 * 16 * 16

    def test_grid_layout(self):
        settings = OptimizerSettings(starts=1, seed=0, max_evals=20)
        trace = blp_measure(replace(P, delta_t=0.5), settings, grid_points=10).lambda_trace
        assert len(trace) == 11
        assert np.allclose(trace[:, 0], np.linspace(0, 0.5, 11))
        assert np.isclose(trace[0, 1], 1.0)  # orthogonal pair starts at D=1


class TestCutoffTime:
    """Backflow sets in at the closed-form cut-off time tau* = pi/(2*Omega),
    Omega = sqrt((e2 - h)**2 + 4k**2), where qubit 2's coherence factor
    first turns (Breuer, Laine & Piilo, PRL 103, 210401 (2009)): before it
    D never grows for any orthogonal pair; after it the equatorial pair's D
    grows.  The global work of a locally passive state inside one collision
    first turns up at the same tau*."""

    POLE = (np.array([1, 0, 0, 0], complex), np.array([0, 1, 0, 0], complex))
    EQUATOR = (np.array([1, 1, 0, 0], complex) / math.sqrt(2), np.array([1, -1, 0, 0], complex) / math.sqrt(2))

    @PROPERTY
    @given(st.floats(0.01, 4.0), st.floats(-0.85, 0.66), st.floats(0.35, 1.5), st.floats(0.7, 1.5), seed_st)
    def test_backflow_begins_at_the_cutoff(self, beta_h, detuning, k, e2, seed):
        h = e2 - detuning
        cutoff = math.pi / (2.0 * math.hypot(detuning, 2.0 * k))
        p = ModelParams(e1=e2 + 1.0, e2=e2, h=h, k=k, beta=beta_h / h, delta_t=1.3 * cutoff)
        taus = sample_times(p, 1, 130)[1:]
        before = taus <= 0.98 * cutoff  # increments of D that end by 0.98 tau*
        after = taus - taus[0] >= cutoff  # increments that begin at tau* or later
        gen = rng(seed)
        pairs = [self.POLE, self.EQUATOR] + [pair_from_angles(gen.uniform(0, 2 * np.pi, 10)) for _ in range(8)]
        steps = [np.diff(_distance_samples(s1, s2, grid_lambda(p, 130), p)) for s1, s2 in pairs]
        assert max(s[before].max() for s in steps) <= 1e-12
        assert np.maximum(steps[1][after], 0.0).sum() > 0.01

    @PROPERTY
    @given(st.floats(0.01, 4.0), st.floats(-0.85, 0.66), st.floats(0.35, 1.5), st.floats(0.7, 1.5),
           st.floats(0.05, 1.0), st.floats(1.2, 2.0))
    def test_work_turns_up_at_the_cutoff(self, beta_h, detuning, k, e2, entanglement, stretch):
        h = e2 - detuning
        cutoff = math.pi / (2.0 * math.hypot(detuning, 2.0 * k))
        p = ModelParams(e1=e2 + 1.0, e2=e2, h=h, k=k, beta=beta_h / h, delta_t=stretch * cutoff)
        traj = fine_trajectory(projector(locally_passive_state(entanglement)), 1, 1000, p)
        rises = np.flatnonzero(np.diff(trajectory_work(traj, "global")) > 1e-12)
        assert rises.size and abs(traj.times[rises[0]] - cutoff) <= p.delta_t / 1000  # within one grid step

    def test_recorded_cutoff_is_the_first_rise_of_lambda(self):
        """The tau* that blp and trajectory manifests record (`collision.cutoff`):
        on a grid of step tau*/400, Lambda (`collision.after_collisions`) falls at every
        step up to tau* and first rises in a step that starts within one step
        of it, on random models with k > 0."""
        gen = rng(349)
        for _ in range(200):
            p = replace(random_params(gen), k=gen.uniform(0.05, 3.0))
            tau_star = cutoff(p)["tau_star"]
            step = tau_star / 400 * gen.uniform(0.9, 1.1)  # tau* on a sample, or between two
            lam = grid_lambda(p, 1200, delta_t=1200 * step)
            first = np.flatnonzero(np.diff(lam) > 0.0)[0]  # the step from first*step to (first + 1)*step
            assert abs(first * step - tau_star) < step, (p, first * step, tau_star)

    def test_work_is_symmetric_about_the_cutoff(self):
        """Inside one collision the work depends on tau only through
        lambda(tau) = 1 - (2k*sin(W*tau)/W)**2: the rest of the channel is z
        rotations, which commute with the battery Hamiltonian.  So the work at
        tau and at pi/W - tau, where lambda is equal, is equal."""
        gen = rng(317)
        for _ in range(200):
            p = random_params(gen)
            turn = math.pi / math.hypot(p.e2 - p.h, 2.0 * p.k)  # twice the cut-off tau*
            tau = gen.uniform(0.0, turn)
            states = run_collisions(random_density_matrix(gen, 4), 1, (tau, turn - tau), p)[1:]
            h = battery_hamiltonian(p)
            assert abs(global_ergotropy(states[0], h) - global_ergotropy(states[1], h)) <= 1e-12
            assert abs(local_ergotropy(states[0], p) - local_ergotropy(states[1], p)) <= 1e-12

    # the paper's states: G_p's locally passive state, and the zero-angle
    # chart point that the trajectories of G and L start from
    PAPER_STATES = {
        "G_p": (locally_passive_state, "global"),
        "G": (lambda e: fixed_entanglement_state(e, np.zeros(6)), "global"),
        "L": (lambda e: fixed_entanglement_state(e, np.zeros(6)), "local"),
    }

    def work_against_lambda(self, p: ModelParams, entanglement: float, quantity: str) -> np.ndarray:
        """Each sample step's change of work times the sign of Lambda's change,
        over three collisions of 40 samples each."""
        state, mode = self.PAPER_STATES[quantity]
        traj = fine_trajectory(projector(state(entanglement)), 3, 40, p)
        return np.diff(trajectory_work(traj, mode)) * np.sign(np.diff(traj.lam))

    @PROPERTY
    @given(params_st.filter(lambda p: p.h > 0), st.floats(0.0, 1.0))
    def test_work_moves_with_lambda(self, p, entanglement):
        """With h > 0, the domain of this identity, the work of each of the
        paper's states moves the same way as Lambda at every step, so the
        work rises inside a collision exactly where Lambda does: past the
        cut-off.  test_inverted_bath_breaks_the_identity pins its limit."""
        for quantity in self.PAPER_STATES:
            assert self.work_against_lambda(p, entanglement, quantity).min() >= -1e-12, quantity

    def test_inverted_bath_breaks_the_identity(self):
        """With h < 0 the work of G_p and L falls while Lambda rises; G's
        still moves with Lambda here.  Over 300 random models with h < 0, on
        this grid, the identity failed for G_p in 168 and for L in 255, and
        never for G."""
        p = ModelParams(h=-1.0, delta_t=1.6)
        worst = {q: self.work_against_lambda(p, 0.5, q).min() for q in self.PAPER_STATES}
        assert worst["G_p"] < -0.05 and worst["L"] < -5e-3 and worst["G"] >= -1e-12, worst


class TestRisingRuns:
    """Inside collision m + 1 the channel is amplitude damping with
    Lambda = lambda(delta_t)**m * lambda(tau) followed by z rotations, so
    D = f(Lambda) with f non-decreasing, and the search's objective reads D
    only at the ends of Lambda's rising runs (the nonmarkov module
    docstring)."""

    @staticmethod
    def lam(p: ModelParams, t) -> np.ndarray:
        """lambda(t) = cos(W t)**2 + ((e2 - h) sin(W t)/W)**2, the form that
        stays accurate where lambda reaches 0."""
        w = math.hypot(p.e2 - p.h, 2.0 * p.k)
        t = np.asarray(t, dtype=float)
        return np.cos(w * t) ** 2 + ((p.e2 - p.h) * t * np.sinc(w * t / np.pi)) ** 2

    @staticmethod
    def case(gen, i: int):
        """Model, delta_t and grid of case i: kinds 0-3 are a random detuned
        model at finite temperature, k = 0, resonance with a sample where
        Lambda reaches 0, and delta_t past pi/W (two rising runs per
        collision); collisions run 1-3, so every kind meets every count."""
        kind, collisions, grid = i % 4, 1 + i % 3, int(gen.integers(10, 121))
        p = random_params(gen)
        delta_t = gen.uniform(0.05, 4.0)
        if kind == 1:
            p = replace(p, k=0.0)
        elif kind == 2:
            p = replace(p, h=p.e2, k=gen.uniform(0.3, 3.0))
            j = int(gen.integers(grid // 4, grid + 1))  # the sample at the cut-off pi/(4k)
            delta_t = math.pi / (4.0 * p.k) * grid / j
        elif kind == 3:
            p = replace(p, k=gen.uniform(0.3, 3.0))
            delta_t = gen.uniform(1.6, 2.4) * math.pi / math.hypot(p.e2 - p.h, 2.0 * p.k)
        return kind, p, delta_t, grid, collisions

    def test_run_ends_give_the_full_trace_backflow(self):
        gen = rng(331)
        for i in range(240):
            kind, p, delta_t, grid, collisions = self.case(gen, i)
            times = np.arange(collisions * grid + 1) * (delta_t / grid)
            taus = times[1 : grid + 1]
            inside = self.lam(p, taus)
            big_lam = np.concatenate([[1.0], np.outer(inside[-1] ** np.arange(collisions), inside).ravel()])
            if kind == 2:
                assert inside.min() <= 1e-20
            if kind == 3:  # two rising runs in one collision
                rising = np.diff(np.concatenate([[1.0], inside])) > 0.0
                assert np.count_nonzero(np.diff(np.concatenate([[False], rising, [False]]))) >= 4
            order = np.argsort(big_lam, kind="stable")
            objective = search_objective(delta_t, p, grid, collisions)
            for _ in range(2):
                angles = gen.uniform(0, 2 * np.pi, 10)
                d = _distance_samples(*pair_from_angles(angles), grid_lambda(p, grid, collisions, delta_t), p)
                assert np.diff(d[order]).min() >= -1e-12, (i, "D falls as Lambda grows")
                assert abs(objective(angles) - blp_functional(np.column_stack([times, d]))) <= 1e-12, i


class TestBlpFunctional:
    def test_monotone_decreasing_gives_zero(self):
        trace = [(0.0, 1.0), (0.5, 0.7), (1.0, 0.3)]
        assert blp_functional(trace) == 0.0

    def test_single_positive_increment(self):
        assert np.isclose(blp_functional([(0.0, 0.2), (1.0, 0.5)]), 0.3)

    def test_mixed_increments(self):
        trace = [(0.0, 0.0), (1.0, 0.1), (2.0, -0.1), (3.0, -0.05)]
        assert np.isclose(blp_functional(trace), 0.15)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            blp_functional([(0.0, 1.0)])

    def test_non_ascending_times(self):
        with pytest.raises(ValueError):
            blp_functional([(0.0, 1.0), (0.0, 0.5)])


class TestBlpMeasure:
    def test_markovian_window_is_zero(self):
        settings = OptimizerSettings(starts=4, seed=2, max_evals=300)
        res = blp_measure(replace(P, delta_t=0.4), settings)
        assert res.q_n <= 1e-6

    def test_long_window_shows_backflow(self):
        settings = OptimizerSettings(starts=6, seed=2, max_evals=2000)
        res = blp_measure(replace(P, delta_t=1.6), settings)
        assert res.q_n > 1e-4
        assert res.q_n > 0.9  # full revival of the exchange

    def test_internal_bookkeeping(self):
        settings = OptimizerSettings(starts=3, seed=9, max_evals=300)
        res = blp_measure(replace(P, delta_t=1.2), settings)
        assert abs(res.q_n - blp_functional(res.lambda_trace)) <= 1e-12
        assert np.allclose(np.diff(res.lambda_trace[:, 0]), 1.2 / 200)
        assert abs(res.lambda_trace[0, 1] - 1.0) <= 1e-10  # the optimal pair is orthogonal

    @pytest.mark.parametrize("collisions", [1, 3])
    def test_no_rising_run_gives_exact_zero(self, collisions):
        """Below the cut-off pi/(2W) Lambda falls at every sample, across
        spin renewals too, so no pair has any backflow to find."""
        detuned = ModelParams(e1=2.7, e2=1.3, h=0.6, k=0.7, beta=1.5)
        cutoff = math.pi / (2.0 * math.hypot(detuned.e2 - detuned.h, 2.0 * detuned.k))
        settings = OptimizerSettings(starts=2, seed=5, max_evals=100)
        for p, delta_t in [(P, 0.4), (detuned, 0.9 * cutoff)]:
            assert blp_measure(replace(p, delta_t=delta_t), settings, grid_points=50, collisions=collisions).q_n == 0.0

    def test_pole_pair_bounds_the_measure(self):
        """Start 0 of every search is the zero vector, the pair |00>, |01>,
        whose D equals Lambda.  So Q_N is at least B, the sum of Lambda's
        positive increments on the grid, and is positive exactly when B is:
        with no rising run no pair has any backflow.  max_evals=1 evaluates
        each start once."""
        gen = rng(277)
        for _ in range(40):
            p = ModelParams(h=gen.uniform(-1.0, 2.0), beta=gen.uniform(0.1, 10.0), k=gen.uniform(0.3, 2.0),
                            delta_t=gen.uniform(0.1, 4.0))
            collisions, grid_points = int(gen.integers(1, 4)), 40
            lam = grid_lambda(p, grid_points, collisions)
            b = np.maximum(np.diff(lam), 0.0).sum()
            q_n = blp_measure(p, OptimizerSettings(starts=3, seed=1, max_evals=1), grid_points, collisions).q_n
            assert q_n >= b - 1e-12, (p, collisions)  # D and Lambda's sum round apart
            assert (q_n > 0.0) == (b > 0.0), (p, collisions)

    def test_zero_coupling_zero_measure(self):
        p = ModelParams(k=0.0)
        settings = OptimizerSettings(starts=3, seed=4, max_evals=200)
        assert blp_measure(replace(p, delta_t=1.6), settings).q_n <= 1e-12

    def test_grid_refinement_stability(self):
        settings = OptimizerSettings(starts=4, seed=12, max_evals=1500)
        q200 = blp_measure(replace(P, delta_t=1.0), settings, grid_points=200).q_n
        q400 = blp_measure(replace(P, delta_t=1.0), settings, grid_points=400).q_n
        assert abs(q400 - q200) < 1e-3

    def test_beats_small_dense_sample(self):
        # quick live version of the dense-pair lower-bound oracle
        bound = dense_backflow_lower_bound(1.6, P, n_pairs=2000, grid_points=200, seed=5)
        settings = OptimizerSettings(starts=6, seed=3, max_evals=2000)
        assert blp_measure(replace(P, delta_t=1.6), settings).q_n >= bound - 1e-4

    def test_domain_errors(self):
        for delta_t in (0.0, 1e17):  # ModelParams checks delta_t: its sign and its phase bound
            with pytest.raises(ValueError, match="delta_t"):
                blp_measure(replace(P, delta_t=delta_t))
        with pytest.raises(ValueError):
            blp_measure(replace(P, delta_t=0.4), grid_points=1)
        with pytest.raises(ValueError):
            blp_measure(replace(P, delta_t=0.4), collisions=0)

    def test_many_run_ends_take_little_memory(self):
        """20,000 collisions on a 2-point grid give 40,000 run ends; a 16x16
        map for each took 160 MB, and GAD_Lambda on the difference needs no
        map."""
        settings = OptimizerSettings(starts=1, seed=1, max_evals=5)
        tracemalloc.start()
        try:
            res = blp_measure(replace(P, delta_t=1.6), settings, grid_points=2, collisions=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.q_n > 0.0
        assert peak < 48 * 2**20

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_objective_values_do_not_depend_on_the_chunk(self, monkeypatch, chunk):
        # 3 collisions on a 40-point grid at delta_t 1.6 give 3 rising runs;
        # a chunk of 1, 5 or 64 (point, run) pairs splits the runs, the rows, or neither
        angles = np.random.default_rng(6).uniform(-3.0, 3.0, size=(7, 10))
        whole = search_objective(1.6, replace(P, beta=0.7), 40, 3)(angles)
        monkeypatch.setattr(nonmarkov, "BLP_CHUNK", chunk)
        objective = search_objective(1.6, replace(P, beta=0.7), 40, 3)
        assert objective(angles).tobytes() == whole.tobytes()
        assert [objective(a).tobytes() for a in angles] == [v.tobytes() for v in whole]

    def test_memory_does_not_grow_with_starts(self):
        """Every round damps and diagonalises at most BLP_CHUNK (point, run)
        pairs, so 9 starts over 5,000 rising runs take about the memory of one."""
        peaks = []
        for starts in (1, 9):
            tracemalloc.start()
            try:
                blp_measure(replace(P, delta_t=1.6), OptimizerSettings(starts=starts, seed=1, max_evals=5),
                            grid_points=2, collisions=5_000)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_multi_collision_extension(self):
        settings = OptimizerSettings(starts=4, seed=3, max_evals=600)
        single = blp_measure(replace(P, delta_t=1.0), settings)
        double = blp_measure(replace(P, delta_t=1.0), settings, collisions=2)
        assert len(double.lambda_trace) == 2 * 200 + 1
        # a longer scan can only add backflow windows
        assert double.q_n >= single.q_n - 1e-3
        # fresh spins at short windows stay Markovian across renewals
        markovian = blp_measure(replace(P, delta_t=0.4), OptimizerSettings(starts=3, seed=8, max_evals=300),
                                collisions=3)
        assert markovian.q_n <= 1e-6
