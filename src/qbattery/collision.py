"""Repeated-interaction evolution of the battery.

A collision couples qubit 2 to a fresh thermal spin diag(p0, p1) through
exp(-j*tau*H_total) and traces the spin out: on the battery, a generalized
amplitude-damping channel on qubit 2 followed by z rotations (Nielsen &
Chuang, Quantum Computation and Quantum Information, section 8.3.5).  With
W = hypot(e2 - h, 2k), qubit 2 keeps the fraction
lambda(tau) = 1 - (2k*sin(W*tau)/W)**2 of its population offset from
(p0, p1), its coherence is multiplied by
g(tau) = exp(-j*(e2 + h)*tau)*(cos(W*tau) - j*((e2 - h)/W)*sin(W*tau)),
|g|**2 = lambda, and qubit 1's coherence by exp(-2j*e1*tau).  The channel
is written once, as elementwise weights on a 4x4 operator
(`channel_weights`).  Fresh spins carry no memory, so inside collision
m + 1 the battery has passed through the damping with
Lambda = lambda(delta_t)**m * lambda(tau) (`after_collisions`, the one
function that takes that power, so a trajectory's collision boundary reads
the Lambda a sweep reads), then z rotations, which no work yield and no
trace distance sees: those are taken from the phase-free damping (`damp`),
with no loop over collisions.  Each sample
inside a collision is taken from the collision's initial boundary state,
which keeps the intra-collision spin-battery correlations exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import ContractViolation, is_density_matrix
from .model import ModelParams

DAMP_CHUNK = 4096  # samples damped, or written, at a time


def cutoff(p: ModelParams) -> dict:
    """The exchange frequency W = hypot(e2 - h, 2k) and the cut-off
    tau* = pi/(2W), where lambda first turns up; None at k = 0, where
    lambda = 1.  Keyed as the manifests of blp and trajectory record them."""
    w = float(np.hypot(p.e2 - p.h, 2.0 * p.k))
    return {"W": w, "tau_star": math.pi / (2.0 * w) if p.k > 0.0 else None}


def _exchange(p: ModelParams, t):
    """cos(W*t) and sin(W*t)/W, written t*sinc(W*t/pi) so that W = 0 gives t."""
    w = cutoff(p)["W"]
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


def _qubit(d0, c, d1) -> np.ndarray:
    """(..., 2, 2) matrices [[d0, c], [conj(c), d1]] over the arguments' leading axes."""
    m = np.empty(np.broadcast(d0, c, d1).shape + (2, 2), dtype=np.result_type(d0, c, d1))
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = d0, c, np.conj(c), d1
    return m


def channel_weights(p: ModelParams, lam, g, rot=None) -> tuple[np.ndarray, np.ndarray]:
    """The channel with parameters lam, g and rot (module docstring), as
    weights (a, b) over an operator's (q1, q2, q1', q2') axes, one pair per
    leading index of the arguments; `apply_channel` applies them.  Qubit 2's
    populations keep 1 - p_other*(1 - lam) and take p*(1 - lam) of the other
    population, its coherences are multiplied by g, qubit 1's by rot.  With
    no rot, qubit 1 is left alone and its two axes have size 1."""
    gamma = 1.0 - np.asarray(lam)  # lam = 1 gives the identity exactly
    a = _qubit(1.0 - p.p1 * gamma, g, 1.0 - p.p0 * gamma)[..., None, :, None, :]
    b = _qubit(p.p0 * gamma, 0.0, p.p1 * gamma)[..., None, :, None, :]
    if rot is None:
        return a, b
    one = _qubit(1.0, rot, 1.0)[..., :, None, :, None]
    return one * a, one * b


def apply_channel(weights: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """a*x + b*x', x' being x with both qubit-2 indices flipped, for
    channel_weights (a, b) and operators x over (..., q1, q2, q1', q2')."""
    a, b = weights
    return a * x + b * x[..., :, ::-1, :, ::-1]


def damping(p: ModelParams, lam) -> tuple[np.ndarray, np.ndarray]:
    """`channel_weights` of the phase-free damping GAD_Lambda, one pair per
    Lambda of lam: g = sqrt(Lambda) and qubit 1 left alone, which leaves out
    only z rotations (module docstring)."""
    return channel_weights(p, lam, np.sqrt(lam))


def damp(x, lam, p: ModelParams) -> np.ndarray:
    """The (..., 4, 4) operators x, any operators, through the phase-free
    GAD_Lambda; lam's shape broadcasts against x's leading axes."""
    x = np.asarray(x)
    out = apply_channel(damping(p, lam), x.reshape(x.shape[:-2] + (2, 2, 2, 2)))
    return out.reshape(out.shape[:-4] + (4, 4))


def damp_chunked(f, lam) -> np.ndarray:
    """f over the 1-D lam, DAMP_CHUNK values at a time, concatenated: f maps k
    values of Lambda to k values, damping at them, so no (len(lam), 4, 4)
    stack is held."""
    return np.concatenate([f(lam[c : c + DAMP_CHUNK]) for c in range(0, len(lam), DAMP_CHUNK)])


def sample_times(p: ModelParams, n: int, per: int) -> np.ndarray:
    """The n*per + 1 times j*delta_t/per of n collisions sampled per times
    each, at which after_collisions(p, range(n + 1), per) gives Lambda."""
    return np.arange(n * per + 1) * p.delta_t / per


def after_collisions(p: ModelParams, counts, per: int = 1) -> np.ndarray:
    """Lambda at the first per `sample_times` of the collision that follows
    each of the collision counts, as len(counts)*per values: lambda(delta_t)**n
    at the collision's start, that power times lambda(tau) at tau into it.
    Counts may pass int64 and reach the float range.  Each power is the C
    library's pow of two Python floats, one count at a time: it lies within
    0.52 ulp of the exact power, where numpy's 0-d power need not, and a
    count alone gives the same bits, where an array power can round the last
    bit differently.  lambda(0) is 1, so per = 1 gives the powers alone."""
    if min(counts) < 0:
        raise ValueError(f"collision count must be >= 0, got {min(counts)}")
    lam = float(_qubit2(p, p.delta_t)[0])
    inside = _qubit2(p, sample_times(p, 1, per)[:per])[0]
    return np.outer(np.fromiter((lam ** float(n) for n in counts), float), inside).ravel()


def _require_state(rho, what: str = "input") -> np.ndarray:
    m = np.asarray(rho, dtype=complex)
    if m.shape != (4, 4):
        raise ContractViolation(f"{what} must be a 4x4 battery state, got {m.shape}")
    if not is_density_matrix(m):
        raise ContractViolation(f"{what} is not a density matrix within tolerance")
    return m


def collide_once(rho, p: ModelParams) -> np.ndarray:
    """One full collision with a fresh thermal spin, z rotations included."""
    weights = channel_weights(p, *_qubit2(p, p.delta_t), np.exp(-2j * p.e1 * p.delta_t))
    return apply_channel(weights, _require_state(rho).reshape(2, 2, 2, 2)).reshape(4, 4)


@dataclass(frozen=True)
class Trajectory:
    """Samples along a collision sequence.  At ``times[i]`` Lambda is
    ``lam[i]`` (`after_collisions`) and the active spin is
    ``collision_index[i]``, counted from 1, with 0 for the initial sample;
    the sample at n*delta_t belongs to collision n and reads Lambda after n
    collisions, as a sweep does.  ``damp(rho0, lam, params)`` gives the
    states, up to z rotations, which no yield or trace distance sees."""

    times: np.ndarray
    collision_index: np.ndarray
    params: ModelParams
    lam: np.ndarray
    rho0: np.ndarray  # checked


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
    steps = np.arange(n * substeps + 1)
    return Trajectory(
        times=sample_times(p, n, substeps),
        collision_index=(steps + substeps - 1) // substeps,
        params=p,
        lam=after_collisions(p, range(n + 1), substeps)[: n * substeps + 1],
        rho0=m,
    )
