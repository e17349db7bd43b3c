"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Regression constants recorded from the first verified run are
flagged where they appear.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from qbattery.cli import main as cli_main
from qbattery.collision import collide_once, fine_trajectory
from qbattery.ergotropy import (
    ergotropy_after_collisions,
    local_ergotropy,
    max_work_fixed_entanglement,
)
from qbattery.fitting import MODELS, fit_curve
from qbattery.model import ModelParams
from qbattery.nonmarkov import blp_measure
from qbattery.optimize import OptimizerSettings
from qbattery.states import locally_passive_state, projector, schmidt_gap
from qbhelpers import random_density_matrix, rng

from _oracles import (
    local_ergotropy_numeric,
    partial_trace,
    thermal_spin_state,
    total_collision_hamiltonian,
    trace_distance,
    unitary_from_hamiltonian,
)

P = ModelParams()

# Dense-sampling lower bounds for the pair-maximized backflow, recorded from
# tests/_oracles.py dense_backflow_lower_bound(delta_t, ModelParams()) with
# 100000 Halton pairs, 200 grid points, seed 20240901.
DENSE_BACKFLOW_BOUND = {1.0: 0.4060439725345834, 1.6: 0.9935525865435997}

# Regression constant recorded from the first verified run (measured
# 0.230379 at both entanglement values).  The per-collision population
# retention cos^2(2*k*delta_t) ~= 0.848 makes the decay geometric, so the
# late/early drop ratio is q*(1+q) with q = 0.848^10 ~= 0.193, which bounds
# it near 0.23 at the default coupling and collision time.
SATURATION_DROP_RATIO_MAX = 0.25


def _pass(number: int, text: str) -> None:
    print(f"[acceptance] criterion {number:02d}: PASS - {text}")


@pytest.fixture(scope="module")
def strong_backflow():
    settings = OptimizerSettings(starts=6, seed=31, max_evals=2000)
    return {dt: blp_measure(replace(P, delta_t=dt), settings).q_n for dt in (1.0, 1.6)}


def test_criterion_01_noiseless_closed_forms():
    t0 = time.perf_counter()
    grid = np.round(np.arange(0.0, 1.01, 0.1), 10)
    settings = OptimizerSettings(starts=6, seed=2024, max_evals=800)
    for e in grid:
        gap = schmidt_gap(e)
        direct = max_work_fixed_entanglement(e, 0, P, "G_p").value
        assert abs(direct - 3.0 * (1.0 - gap)) <= 1e-9
        best_g = max_work_fixed_entanglement(e, 0, P, "G", settings).value
        assert abs(best_g - 3.0 * (1.0 + gap)) <= 1e-3
        best_l = max_work_fixed_entanglement(e, 0, P, "L", settings).value
        assert abs(best_l - 6.0 * gap) <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _pass(1, f"noiseless work values match closed forms ({elapsed:.1f}s)")


def test_criterion_02_backflow_threshold(strong_backflow):
    t0 = time.perf_counter()
    quick = OptimizerSettings(starts=4, seed=7, max_evals=300)
    for dt in (0.2, 0.4, 0.6):
        assert blp_measure(replace(P, delta_t=dt), quick).q_n <= 1e-6
    for dt in (1.0, 1.6):
        assert strong_backflow[dt] > 1e-4
    crossover = None
    for dt in np.round(np.arange(0.5, 1.1001, 0.02), 10):
        if blp_measure(replace(P, delta_t=float(dt)), quick).q_n > 1e-5:
            crossover = float(dt)
            break
    elapsed = time.perf_counter() - t0
    assert crossover is not None
    assert 0.70 <= crossover <= 0.90
    assert elapsed < 600.0
    _pass(2, f"Markovian below, backflow above; crossover at {crossover:.2f} ({elapsed:.0f}s)")


def test_criterion_03_intra_collision_dip_and_rise():
    rho0 = projector(locally_passive_state(0.6))
    h12 = np.diag([3.0, 1.0, -1.0, -3.0]).astype(complex)

    def work_curve(delta_t, collisions):
        p = ModelParams(delta_t=delta_t)
        traj = fine_trajectory(rho0, collisions, 200, p)
        from qbattery.ergotropy import global_ergotropy

        return traj, np.array([global_ergotropy(s, h12) for s in traj.states])

    traj, w = work_curve(1.6, 1)
    interior = w[1:-1]
    assert interior.min() < w[0] - 1e-4
    assert interior.min() < w[-1] - 1e-4

    traj, w = work_curve(0.4, 5)
    for m in range(1, 6):
        seg = w[traj.collision_index == m]
        assert np.all(np.diff(seg) <= 1e-6)
    _pass(3, "long collisions dip then recover, short ones only drain")


def test_criterion_04_decay_and_saturation():
    for e in (0.2, 0.6):
        rho0 = projector(locally_passive_state(e))
        values = np.empty(31)
        state = rho0
        for n in range(31):
            values[n] = ergotropy_after_collisions(state, 0, P)
            state = collide_once(state, P)
        assert np.all(np.diff(values) <= 1e-6)
        early = values[0] - values[10]
        late = values[10] - values[30]
        assert late <= SATURATION_DROP_RATIO_MAX * early
    _pass(4, "work decays monotonically and saturates after early collisions")


def test_criterion_05_monotone_in_entanglement_at_n0():
    grid = np.linspace(0.0, 1.0, 21)
    settings = OptimizerSettings(starts=2, seed=5, max_evals=600)
    gp = [max_work_fixed_entanglement(e, 0, P, "G_p").value for e in grid]
    g = [max_work_fixed_entanglement(e, 0, P, "G", settings).value for e in grid]
    l = [max_work_fixed_entanglement(e, 0, P, "L", settings).value for e in grid]
    assert np.all(np.diff(gp) >= -1e-6)
    assert np.all(np.diff(g) <= 1e-6)
    assert np.all(np.diff(l) <= 1e-6)
    _pass(5, "G_p grows with entanglement, G and L shrink")


def test_criterion_06_channel_property_suite():
    gen = rng(606)
    for _ in range(1000):
        out = collide_once(random_density_matrix(gen, 4), P)
        assert np.abs(out - out.conj().T).max() <= 1e-10
        assert abs(np.trace(out) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(out).min() >= -1e-9
    for _ in range(100):
        rho, sigma = random_density_matrix(gen, 4), random_density_matrix(gen, 4)
        d_before = trace_distance(rho, sigma)
        d_after = trace_distance(collide_once(rho, P), collide_once(sigma, P))
        assert d_after <= d_before + 1e-9
    _pass(6, "collision channel preserves states and contracts distances")


def test_criterion_07_local_ergotropy_equivalence():
    gen = rng(707)
    settings = OptimizerSettings(starts=8, seed=70, max_evals=400)
    for _ in range(100):
        rho = random_density_matrix(gen, 4)
        assert abs(local_ergotropy(rho, P) - local_ergotropy_numeric(rho, P, settings)) <= 1e-4
    for e in np.linspace(0.0, 1.0, 11):
        rho = projector(locally_passive_state(e))
        assert local_ergotropy(rho, P) <= 1e-6
    _pass(7, "marginal split equals direct maximization; locally passive yields nothing")


def test_criterion_08_oracle_equivalence(strong_backflow):
    rho0 = projector(locally_passive_state(0.6))
    u_small = unitary_from_hamiltonian(total_collision_hamiltonian(P), P.delta_t / 1000)
    joint = np.kron(rho0, thermal_spin_state(P))
    for _ in range(1000):
        joint = u_small @ joint @ u_small.conj().T
    composed = partial_trace(joint, (4, 2), "A")
    assert np.abs(collide_once(rho0, P) - composed).max() <= 1e-9
    for dt, bound in DENSE_BACKFLOW_BOUND.items():
        assert strong_backflow[dt] >= bound - 1e-4
    _pass(8, "collision map matches sub-step composition; backflow beats dense sampling")


def test_criterion_09_fit_pipeline():
    e_grid = np.linspace(0.0, 1.0, 21)
    data = np.column_stack(
        [e_grid, [max_work_fixed_entanglement(e, 7, P, "G_p").value for e in e_grid]]
    )
    res = fit_curve("M1", data)
    assert res.residual <= 1e-3
    curve = MODELS["M1"].predict(e_grid, np.array([res.params["c"], res.params["a"]]))
    refit = fit_curve("M1", np.column_stack([e_grid, curve]))
    assert max(abs(refit.params[k] - res.params[k]) for k in ("c", "a")) < 1e-8

    exact = np.column_stack([e_grid, MODELS["M1"].predict(e_grid, np.array([0.54, 1.0]))])
    rec = fit_curve("M1", exact)
    assert abs(rec.params["c"] - 0.54) <= 1e-6
    assert abs(rec.params["a"] - 1.0) <= 1e-6
    assert rec.residual <= 1e-12

    truth = np.array([0.12, -0.10, 0.72])
    noisy_y = MODELS["M4"].predict(e_grid, truth) + np.random.default_rng(99).normal(
        scale=1e-3, size=e_grid.shape
    )
    rec4 = fit_curve("M4", np.column_stack([e_grid, noisy_y]))
    for name, value in zip(("a", "b", "c"), truth):
        assert abs(rec4.params[name] - value) <= 3 * rec4.confidence95[name]
    _pass(9, "simulated sweep fits the two-parameter family; synthetic sets recovered")


def test_criterion_10_determinism(tmp_path):
    sweep_args = [
        "sweep", "--seed", "123", "--quantity", "G", "--entanglements", "0.3,0.7",
        "--collisions", "2", "--starts", "3", "--max-evals", "150",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(sweep_args + ["--output", str(a), "--threads", "1"]) == 0
    assert cli_main(sweep_args + ["--output", str(b), "--threads", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()

    blp_args = [
        "blp", "--seed", "5", "--delta-ts", "1.0", "--starts", "2",
        "--max-evals", "120", "--grid-points", "120",
    ]
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert cli_main(blp_args + ["--output", str(c), "--threads", "1"]) == 0
    assert cli_main(blp_args + ["--output", str(d), "--threads", "4"]) == 0
    assert c.read_bytes() == d.read_bytes()
    _pass(10, "fixed seed gives byte-identical outputs across thread counts")
