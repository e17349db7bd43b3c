"""Counts of the calls that rebuild constants, as a deterministic guard.

The collision channel's weights over a whole tau grid and the phase-free
damping of every sample of n collisions are the channel in closed form,
with no eigendecomposition, einsum or matrix power.  Every yield and every
BLP trace distance comes from that damping: the package holds no collision
loop and no n-collision map.  An objective evaluation of the G search
diagonalises only the evolved state; the battery spectrum and the damped
linear form the evaluations read are taken once per search, with one
damping.  L takes no search: one damping and one evaluation of four rows a
point, whose marginal ergotropies are read off the states in closed form.
A sweep enters the work kernel once per entanglement, for all its (n, k)
points.  Counts, not timings, so the guard does not depend on the host's
speed.
"""

import numpy as np
import pytest

from qbattery import cli, collision, ergotropy, nonmarkov
from qbattery.model import ModelParams
from qbattery.optimize import OptimizerSettings
from test_nonmarkov import search_objective
from test_transfer import applied_maps


def counted(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that records each call."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_channel_build_takes_no_decomposition_or_power(monkeypatch):
    p = ModelParams(k=0.7, delta_t=0.9)
    taus = tuple(collision.sample_times(p, 1, 30)[1:])
    eigh = counted(monkeypatch, np.linalg, "eigh")
    einsum = counted(monkeypatch, np, "einsum")
    powers = counted(monkeypatch, np.linalg, "matrix_power")
    assert applied_maps(p, taus).shape == (30, 16, 16)
    assert collision.damp(np.eye(4), collision.after_collisions(p, range(31), 30)[:901], p).shape == (901, 4, 4)
    assert (len(eigh), len(einsum), len(powers)) == (0, 0, 0)


@pytest.mark.parametrize("module", [ergotropy, nonmarkov])
def test_yields_and_distances_hold_no_collision_loop_or_power(module):
    assert not hasattr(module, "run_collisions")
    assert not hasattr(module, "collision_power")


@pytest.mark.parametrize("n", [0, 30, 10**300])
def test_yield_after_collisions_is_one_damping(monkeypatch, n):
    damps = counted(monkeypatch, ergotropy, "damp")
    assert not hasattr(collision, "run_collisions")
    powers = counted(monkeypatch, np.linalg, "matrix_power")
    ergotropy.ergotropy_after_collisions(np.eye(4) / 4, n, ModelParams(k=0.8))
    assert (len(damps), len(powers)) == (1, 0)


@pytest.mark.parametrize("quantity, spectra", [("G", 1)])
@pytest.mark.parametrize("n", [0, 30])
def test_objective_evaluation(monkeypatch, quantity, spectra, n):
    objectives = []

    def capture(objective, dim, settings=None):
        objectives.append((objective, dim))
        return np.zeros(dim), 0.0, None

    monkeypatch.setattr(ergotropy, "multistart_maximize", capture)
    ergotropy.max_work_fixed_entanglement(0.6, n, ModelParams(k=0.8), quantity)
    ((objective, dim),) = objectives
    assert dim == 1
    angles = np.linspace(0.2, 1.7, dim)
    first = objective(angles)
    kron = counted(monkeypatch, np, "kron")
    eigvalsh = counted(monkeypatch, np.linalg, "eigvalsh")
    assert objective(angles) == first
    assert (len(kron), len(eigvalsh)) == (0, spectra)


@pytest.mark.parametrize("quantity", ["G"])
def test_objective_builds_no_state_through_the_checked_path(monkeypatch, quantity):
    """The search builds the Schmidt normal form once; an evaluation only
    rotates it, with no checked state builder or projector call."""
    objectives = []

    def capture(objective, dim, settings=None):
        objectives.append((objective, dim))
        return np.zeros(dim), 0.0, None

    monkeypatch.setattr(ergotropy, "multistart_maximize", capture)
    ergotropy.max_work_fixed_entanglement(0.6, 7, ModelParams(k=0.8), quantity)
    ((objective, dim),) = objectives
    assert dim == 1
    states = counted(monkeypatch, ergotropy, "fixed_entanglement_state")
    projectors = counted(monkeypatch, ergotropy, "projector")
    objective(np.linspace(0.2, 1.7, dim))
    assert (len(states), len(projectors)) == (0, 0)


@pytest.mark.parametrize("quantity", ["G"])
def test_objective_evaluation_applies_the_search_damping(monkeypatch, quantity):
    """The damping is taken once per search: an n=30 evaluation damps
    nothing, applies no channel, runs no collision loop and takes no matrix
    power."""
    objectives = []

    def capture(objective, dim, settings=None):
        objectives.append((objective, dim))
        return np.zeros(dim), 0.0, None

    monkeypatch.setattr(ergotropy, "multistart_maximize", capture)
    damps = counted(monkeypatch, ergotropy, "damp")
    ergotropy.max_work_fixed_entanglement(0.6, 30, ModelParams(k=0.8), quantity)
    ((objective, dim),) = objectives
    assert (dim, len(damps)) == (1, 1)
    angles = np.linspace(0.2, 1.7, dim)
    first = objective(angles)
    applied = counted(monkeypatch, collision, "apply_channel")
    assert not hasattr(collision, "run_collisions")
    powers = counted(monkeypatch, np.linalg, "matrix_power")
    assert objective(angles) == first
    assert (len(damps), len(applied), len(powers)) == (1, 0, 0)


@pytest.mark.parametrize("n", [0, 30])
def test_local_record_takes_no_search(monkeypatch, n):
    """L is read off its closed-form stationary points (the ergotropy module
    docstring): a record runs no search, takes one damping, diagonalises
    nothing and evaluates the local yield once, on four candidate rows per
    point, of which two to four are distinct."""
    searches = counted(monkeypatch, ergotropy, "multistart_maximize")
    damps = counted(monkeypatch, ergotropy, "damp")
    eigvalsh = counted(monkeypatch, np.linalg, "eigvalsh")
    stacks = []
    yield_of = ergotropy._yield_of

    def counted_yield(p, mode):  # for L, the kernel calls the local yield once per chunk of points
        work = yield_of(p, mode)
        return lambda r: stacks.append(r) or work(r)

    monkeypatch.setattr(ergotropy, "_yield_of", counted_yield)
    ergotropy.max_work_fixed_entanglement(0.6, n, ModelParams(k=0.8), "L")
    assert (len(searches), len(damps), len(eigvalsh), len(stacks)) == (0, 1, 0, 1)
    (points, rows, _, _), = [r.shape for r in stacks]
    distinct = len(np.unique(stacks[0].reshape(rows, 16), axis=0))
    assert points == 1 and rows == 4 and 2 <= distinct <= 4


def test_sweep_enters_the_kernel_once_per_entanglement(monkeypatch, tmp_path):
    """A sweep makes one kernel call per E for all its (n, k) points: 101 calls
    for a 101 x 31 G_p grid, not 3,131, and no eigvalsh, since the locally
    passive state is an X state."""
    calls = counted(monkeypatch, cli, "max_work_at_lambdas")
    eigvalsh = counted(monkeypatch, np.linalg, "eigvalsh")
    code = cli.main(["sweep", "--seed", "1", "--quantity", "G_p", "--entanglements", "0:1:0.01",
                     "--collisions", "0:30", "--output", str(tmp_path / "s.csv")])
    assert code == 0 and len(calls) == 101 and len(eigvalsh) == 0
    assert [len(args[1]) for args in calls] == [31] * 101


@pytest.mark.parametrize("collisions, runs", [(1, 1), (3, 3)])
def test_blp_evaluation_reads_the_rising_run_ends(monkeypatch, collisions, runs):
    """At delta_t = 1.6 Lambda rises once per collision, from the cut-off
    pi/4 to pi/2; an evaluation diagonalises D at those runs' two ends in one
    call, builds no damping weights and takes no trace."""
    objective = search_objective(1.6, ModelParams(), 40, collisions)
    eigvalsh = counted(monkeypatch, np.linalg, "eigvalsh")
    samples = counted(monkeypatch, nonmarkov, "_distance_samples")
    damps = counted(monkeypatch, nonmarkov, "damp_chunked")
    weights = counted(monkeypatch, nonmarkov, "damping")
    assert objective(np.linspace(0.2, 1.7, 10)) > 0.0
    assert [args[0].shape for args in eigvalsh] == [(2 * runs, 4, 4)]
    assert (len(samples), len(damps), len(weights)) == (0, 0, 0)


@pytest.mark.parametrize("collisions", [1, 3])
def test_blp_measure_takes_lambda_once(monkeypatch, collisions):
    """The search's run ends and the reported trace read one Lambda array,
    taken from the model's own delta_t."""
    memories = counted(monkeypatch, nonmarkov, "after_collisions")
    result = nonmarkov.blp_measure(ModelParams(delta_t=1.6), OptimizerSettings(starts=1, seed=0, max_evals=20),
                                   grid_points=20, collisions=collisions)
    assert len(memories) == 1 and len(result.lambda_trace) == 20 * collisions + 1
    assert abs(result.lambda_trace[-1, 0] - collisions * 1.6) <= 1e-12


@pytest.mark.parametrize("off_x, shapes", [(0.0, []), (0.01, [(4, 4), (31, 4, 4)])], ids=["X", "not-X"])
def test_trajectory_yield_of_an_x_state_diagonalises_nothing(monkeypatch, off_x, shapes):
    """The global trajectory yield of an X state reads its spectrum off two
    2x2 blocks; any other state takes the battery spectrum and one batched
    eigvalsh per chunk."""
    rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho0[0, 3] = rho0[3, 0] = 0.15
    rho0[0, 1] = rho0[1, 0] = off_x
    traj = collision.fine_trajectory(rho0, 3, 10, ModelParams(delta_t=1.2))
    eigvalsh = counted(monkeypatch, np.linalg, "eigvalsh")
    assert len(ergotropy.trajectory_work(traj)) == 31
    assert [args[0].shape for args in eigvalsh] == shapes
