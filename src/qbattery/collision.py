"""Repeated-interaction evolution of the battery.

A collision couples qubit 2 to a fresh thermal spin diag(p0, p1) through
exp(-j*tau*H_total) and traces the spin out: on the battery, a generalized
amplitude-damping channel on qubit 2 followed by z rotations (Nielsen &
Chuang, Quantum Computation and Quantum Information, section 8.3.5).  With
W = hypot(e2 - h, 2k), qubit 2 keeps the fraction
lambda(tau) = 1 - (2k*sin(W*tau)/W)**2 of its population offset from
(p0, p1), its coherence is multiplied by
g(tau) = exp(-j*(e2 + h)*tau)*(cos(W*tau) - j*((e2 - h)/W)*sin(W*tau)),
|g|**2 = lambda, and qubit 1's coherence by exp(-2j*e1*tau).  Fresh spins
carry no memory, so n full collisions raise lambda, g and that phase to the
n-th power (`collision_power`).  `run_collisions`, the only loop over
collisions, samples inside each collision from its initial boundary state,
which keeps the intra-collision spin-battery correlations exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .linalg import ContractViolation, is_density_matrix
from .model import MAX_PHASE, ModelParams


def _exchange(p: ModelParams, t):
    """cos(W*t) and sin(W*t)/W, written t*sinc(W*t/pi) so that W = 0 gives t."""
    w = np.hypot(p.e2 - p.h, 2.0 * p.k)
    return np.cos(w * t), t * np.sinc(w * t / np.pi)


def _qubit2(p: ModelParams, t):
    """lambda(t) and g(t) of the module docstring.  lambda is taken from
    whichever of its two equal forms, 1 - (2k*s)**2 or c**2 + ((e2 - h)*s)**2,
    does not cancel, so it is exactly 1 at k = 0 and accurate near 0."""
    c, s = _exchange(p, t)
    swapped = (2.0 * p.k * s) ** 2
    lam = np.where(swapped <= 0.5, 1.0 - swapped, c**2 + ((p.e2 - p.h) * s) ** 2)
    return lam, np.exp(-1j * (p.e2 + p.h) * t) * (c - 1j * (p.e2 - p.h) * s)


@lru_cache(maxsize=512)
def collision_propagator(p: ModelParams, tau: float | None = None) -> np.ndarray:
    """Joint 8x8 propagator exp(-j*tau*H_total): qubit 1 precesses at e1, in
    qubit 2 (x) spin |00> and |11> pick up exp(-+j*tau*(e2 + h)) and the block
    {|01>, |10>} is cos(W*tau) - j*sin(W*tau)/W * ((e2 - h)*sz + 2k*sx).
    ``tau=None`` means p.delta_t.  Cached; treat the result as read-only."""
    t = p.delta_t if tau is None else float(tau)
    c, s = _exchange(p, t)
    d, x = (p.e2 - p.h) * s, -2j * p.k * s
    phase = np.exp(-1j * (p.e2 + p.h) * t)
    pair = np.diag([phase, 0, 0, np.conj(phase)])
    pair[1:3, 1:3] = [[c - 1j * d, x], [x, c + 1j * d]]
    u = np.kron(np.diag([np.exp(-1j * p.e1 * t), np.exp(1j * p.e1 * t)]), pair)
    u.flags.writeable = False
    return u


def _channel(p: ModelParams, lam, g, rot) -> np.ndarray:
    """(len(lam), 16, 16) maps on row-major vec(rho): qubit 2 keeps the
    fraction lam of its population offset from (p0, p1) and its coherence is
    multiplied by g, qubit 1's coherence by rot."""
    gamma = 1.0 - lam  # lam = 1 gives the identity exactly
    two = np.zeros((len(lam), 2, 2, 2, 2), dtype=complex)  # qubit 2: (out q2, q2'; in q2, q2')
    two[:, 0, 0, 0, 0], two[:, 0, 0, 1, 1] = 1.0 - p.p1 * gamma, p.p0 * gamma
    two[:, 1, 1, 0, 0], two[:, 1, 1, 1, 1] = p.p1 * gamma, 1.0 - p.p0 * gamma
    two[:, 0, 1, 0, 1], two[:, 1, 0, 1, 0] = g, np.conj(g)
    one = np.zeros_like(two)  # qubit 1, the same layout
    one[:, 0, 0, 0, 0] = one[:, 1, 1, 1, 1] = 1.0
    one[:, 0, 1, 0, 1], one[:, 1, 0, 1, 0] = rot, np.conj(rot)
    # vec(rho) runs over (q1, q2, q1', q2'), so the two factors interleave
    return (one[:, :, None, :, None, :, None, :, None] * two[:, None, :, None, :, None, :, None, :]).reshape(-1, 16, 16)


@lru_cache(maxsize=64)
def transfer_stack(p: ModelParams, taus: tuple[float, ...]) -> np.ndarray:
    """(len(taus), 16, 16) stack of the maps of partial collisions of duration
    taus[i] on row-major vec(rho).  Results are cached; treat the returned
    array as read-only."""
    t = np.array(taus, dtype=float)
    stack = _channel(p, *_qubit2(p, t), np.exp(-2j * p.e1 * t))
    stack.flags.writeable = False
    return stack


def _times(phase: float, n: int) -> float:
    """phase*n.  Past MAX_PHASE the product carries no digit of the true
    phase and can overflow, so it is then reduced exactly mod 2*pi instead."""
    total = phase * float(n)
    return total if abs(total) <= MAX_PHASE else float(Fraction(phase) * int(n) % Fraction(math.tau))


def collision_power(p: ModelParams, n: int) -> np.ndarray:
    """T**n, the 16x16 map of n full collisions on row-major vec(rho): the
    channel with Lambda = lambda(delta_t)**n, |g**n| = sqrt(Lambda) and the
    phases taken n times.  n may exceed int64 and reach the float range."""
    lam, g = _qubit2(p, p.delta_t)
    lam_n = lam ** float(n)
    g_n = np.sqrt(lam_n) * np.exp(1j * _times(float(np.angle(g)), n))
    return _channel(p, np.atleast_1d(lam_n), g_n, np.exp(-1j * _times(2.0 * p.e1 * p.delta_t, n)))[0]


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
