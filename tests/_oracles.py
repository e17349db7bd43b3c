"""Independent brute-force oracles used to anchor regression constants.

These deliberately avoid the package's optimizer, orthogonal-pair
parametrization and transfer-matrix core: pairs are two *independent* pure
states from a plain spherical chart, sampled with a scrambled Halton
sequence, and the backflow of every pair is accumulated by direct batched
evolution on the joint battery-spin space.  Slow by design; the values
frozen in the test modules were produced by these functions.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import qmc

from qbattery.linalg import partial_trace, unitary_from_hamiltonian
from qbattery.model import ModelParams, thermal_spin_state, total_collision_hamiltonian


def dense_collisions(rho0, n: int, taus, p: ModelParams) -> np.ndarray:
    """Reference for qbattery.collision.run_collisions: every sample is
    Tr_spin[U(tau) (rho_b (x) rho_spin) U(tau)^dag] on the 8x8 joint space,
    rho_b being the state at the last tau of the collision before."""
    bath = thermal_spin_state(p)
    h = total_collision_hamiltonian(p)
    unitaries = [unitary_from_hamiltonian(h, tau) for tau in taus]
    states = [np.asarray(rho0, dtype=complex)]
    for _ in range(n):
        boundary = states[-1]
        for u in unitaries:
            joint = u @ np.kron(boundary, bath) @ u.conj().T
            states.append(partial_trace(joint, (4, 2), "A"))
    return np.array(states)


def spherical_states(unit_cube: np.ndarray) -> np.ndarray:
    """Map points of [0,1)^6 to pure 4-vectors (magnitude angles in [0, pi/2],
    phases in [0, 2*pi))."""
    t = unit_cube[:, :3] * (np.pi / 2)
    ph = unit_cube[:, 3:] * (2 * np.pi)
    c = np.empty((len(unit_cube), 4), dtype=complex)
    c[:, 0] = np.cos(t[:, 0])
    c[:, 1] = np.sin(t[:, 0]) * np.cos(t[:, 1]) * np.exp(1j * ph[:, 0])
    c[:, 2] = np.sin(t[:, 0]) * np.sin(t[:, 1]) * np.cos(t[:, 2]) * np.exp(1j * ph[:, 1])
    c[:, 3] = np.sin(t[:, 0]) * np.sin(t[:, 1]) * np.sin(t[:, 2]) * np.exp(1j * ph[:, 2])
    return c


def dense_backflow_lower_bound(
    delta_t: float,
    p: ModelParams,
    n_pairs: int = 100_000,
    grid_points: int = 200,
    seed: int = 20240901,
    chunk: int = 20_000,
) -> float:
    """Best backflow found over n_pairs low-discrepancy unrestricted pure
    pairs; a lower bound on the pair-maximized measure."""
    sampler = qmc.Halton(d=12, scramble=True, seed=np.random.default_rng(seed))
    cube = sampler.random(n_pairs)
    s1 = spherical_states(cube[:, :6])
    s2 = spherical_states(cube[:, 6:])
    bath = thermal_spin_state(p)
    w, v = np.linalg.eigh(total_collision_hamiltonian(p))
    taus = np.arange(grid_points + 1) * (delta_t / grid_points)
    best = 0.0
    for lo in range(0, n_pairs, chunk):
        hi = min(lo + chunk, n_pairs)
        d4 = np.einsum("ni,nj->nij", s1[lo:hi], s1[lo:hi].conj()) - np.einsum(
            "ni,nj->nij", s2[lo:hi], s2[lo:hi].conj()
        )
        d8 = np.einsum("nij,kl->nikjl", d4, bath).reshape(-1, 8, 8)
        acc = np.zeros(hi - lo)
        prev = None
        for tau in taus:
            u = (v * np.exp(-1j * tau * w)) @ v.conj().T
            evolved = u @ d8 @ u.conj().T
            reduced = np.einsum("nisjs->nij", evolved.reshape(-1, 4, 2, 4, 2))
            dist = 0.5 * np.abs(np.linalg.eigvalsh(reduced)).sum(axis=1)
            if prev is not None:
                acc += np.maximum(dist - prev, 0.0)
            prev = dist
        best = max(best, float(acc.max()))
    return best
