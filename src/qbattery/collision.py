"""Repeated-interaction evolution of the battery.

Each collision couples qubit 2 to one fresh thermal spin for a duration
delta_t through the joint propagator exp(-j*tau*H_total), then traces the
spin out.  On the battery alone this is a linear map, one 16x16 transfer
matrix per tau acting on the row-major vec(rho).  Fresh spins carry no
memory, so every full collision applies the same map T, and an endpoint
after n full collisions is one product with T**n (`collision_power`).
`run_collisions`, the package's only loop over collisions, serves the
trajectories that need every sample.  *Within* a collision the reduced
dynamics is sampled from the collision's initial boundary state, which
keeps the intra-collision spin-battery correlations exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import ContractViolation, is_density_matrix, unitary_from_hamiltonian
from .model import ModelParams, total_collision_hamiltonian


@lru_cache(maxsize=512)
def collision_propagator(p: ModelParams, tau: float | None = None) -> np.ndarray:
    """Joint 8x8 propagator for one (partial) collision of duration tau.

    ``tau=None`` means the full collision duration p.delta_t.  Results are
    cached; treat the returned array as read-only.
    """
    t = p.delta_t if tau is None else float(tau)
    u = unitary_from_hamiltonian(total_collision_hamiltonian(p), t)
    u.flags.writeable = False
    return u


@lru_cache(maxsize=64)
def transfer_stack(p: ModelParams, taus: tuple[float, ...]) -> np.ndarray:
    """(len(taus), 16, 16) stack of partial-collision maps on row-major vec(rho).

    Slice i maps rho.reshape(16) to Tr_spin[U (rho (x) rho_spin) U^dag].reshape(16)
    with U = exp(-j*taus[i]*H_total) and rho_spin = diag(p0, p1).
    Results are cached; treat the returned array as read-only.
    """
    u = unitary_from_hamiltonian(total_collision_hamiltonian(p), taus).reshape(-1, 4, 2, 4, 2)
    pops = np.array([p.p0, p.p1])
    stack = np.einsum("b,tisjb,tksmb->tikjm", pops, u, u.conj()).reshape(-1, 16, 16)
    stack.flags.writeable = False
    return stack


def collision_power(p: ModelParams, n: int) -> np.ndarray:
    """T**n, the 16x16 map of n full collisions on row-major vec(rho)."""
    return np.linalg.matrix_power(transfer_stack(p, (p.delta_t,))[0], n)


def run_collisions(rho0, n: int, taus, p: ModelParams) -> np.ndarray:
    """rho0, then the battery state at every tau of collisions 1..n.

    Each collision starts from the state at the last tau of the one before,
    with a fresh thermal spin.  Unchecked: the map is linear, so rho0 may be
    any 4x4 operator, such as the traceless difference of two states.
    Returns an (n*len(taus) + 1, 4, 4) array.
    """
    stack = transfer_stack(p, tuple(taus))
    m = len(stack)
    out = np.empty((n * m + 1, 16), dtype=complex)
    out[0] = np.reshape(rho0, 16)
    for c in range(n):
        out[c * m + 1 : (c + 1) * m + 1] = stack @ out[c * m]
    return out.reshape(-1, 4, 4)


def _require_state(rho, what: str = "input") -> np.ndarray:
    m = np.asarray(rho, dtype=complex)
    if m.shape != (4, 4):
        raise ContractViolation(f"{what} must be a 4x4 battery state, got {m.shape}")
    if not is_density_matrix(m):
        raise ContractViolation(f"{what} is not a density matrix within tolerance")
    return m


def collide_once(rho, p: ModelParams) -> np.ndarray:
    """One full collision with a fresh thermal spin."""
    return run_collisions(_require_state(rho), 1, (p.delta_t,), p)[-1]


@dataclass(frozen=True)
class Trajectory:
    """Battery states sampled along a collision sequence.

    ``collision_index[i]`` is the 1-based index of the spin active at
    ``times[i]`` (0 for the initial sample); boundary samples at n*delta_t
    belong to collision n.
    """

    times: np.ndarray
    states: np.ndarray
    collision_index: np.ndarray
    params: ModelParams


def evolve(rho0, n: int, p: ModelParams) -> Trajectory:
    """n full collisions, sampled at the boundaries {0, delta_t, ..., n*delta_t}."""
    return fine_trajectory(rho0, n, 1, p)


def fine_trajectory(rho0, n: int, substeps: int, p: ModelParams) -> Trajectory:
    """n collisions sampled at `substeps` interior points each.

    Within collision m the samples evolve from the boundary state at
    (m-1)*delta_t; the final sub-sample of each collision is the next
    boundary state, so boundary samples agree with evolve().
    """
    m = _require_state(rho0, "rho0")
    if n < 0:
        raise ValueError(f"collision count must be >= 0, got {n}")
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    taus = [(s * p.delta_t) / substeps for s in range(1, substeps + 1)]
    steps = np.arange(n * substeps + 1)
    return Trajectory(
        times=steps * p.delta_t / substeps,
        states=run_collisions(m, n, taus, p),
        collision_index=(steps + substeps - 1) // substeps,
        params=p,
    )
