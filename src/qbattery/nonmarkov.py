"""Information backflow of a single collision: the BLP measure.

A Markovian map only contracts the trace distance between two evolving
states; any growth signals memory.  The measure integrates the positive
part of dD/dt over one collision window [0, delta_t] and maximizes over
initial state pairs.  That positive-derivative integral is realized as the
sum of positive grid increments, which is robust at kinks where numerical
differentiation is not.

The maximization runs over orthogonal pure pairs: the first state is a
6-angle chart of the two-qubit pure states, the second takes 4 more angles
in the orthogonal complement.  Both come from one smooth Givens-rotation
frame, so the objective stays continuous in all 10 angles.

The search never evaluates D on the whole grid.  Inside collision m + 1 the
battery has passed through the generalized amplitude-damping channel with
Lambda = lambda(delta_t)**m * lambda(tau), followed by z rotations, which
leave every trace distance as it is.  At one spin temperature
GAD_{Lambda'} = GAD_{Lambda'/Lambda} o GAD_Lambda for Lambda' <= Lambda,
and the trace distance contracts under that CPTP map, so D = f(Lambda) with
f non-decreasing (Breuer, Laine & Piilo, PRL 103, 210401 (2009), make the
same step for amplitude damping).  D therefore rises only where Lambda
rises, and its positive increments over a maximal rising run of Lambda
telescope to D(last sample) - D(first sample).  The maps from the initial
pair to the two ends of each run are built once per delta_t, so one
evaluation costs a pair, one 16x16 product per run end and one batched
4x4 eigvalsh on 2*runs matrices: about 60 us at delta_t = 1.0 on a 2-core
VM, against 560 us for the 201-sample trace.  The reported trace of the
best pair is still sampled on the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collision import _qubit2, run_collisions, transfer_stack
from .model import ModelParams
from .optimize import OptimizerReport, OptimizerSettings, multistart_maximize


def _givens(dim: int, i: int, j: int, theta: float, phi: float) -> np.ndarray:
    g = np.eye(dim, dtype=complex)
    c, s = np.cos(theta), np.sin(theta)
    g[i, i] = c
    g[i, j] = -s * np.exp(-1j * phi)
    g[j, i] = s * np.exp(1j * phi)
    g[j, j] = c
    return g


def _frame(angles6) -> np.ndarray:
    """Unitary frame whose first column sweeps all pure states (up to global
    phase) as the 6 angles vary; the other columns complete it smoothly."""
    t1, p1, t2, p2, t3, p3 = angles6
    return _givens(4, 2, 3, t3, p3) @ _givens(4, 1, 2, t2, p2) @ _givens(4, 0, 1, t1, p1)


def pair_from_angles(angles10) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal pure-state pair from 10 angles (6 for the first state,
    4 for its partner in the orthogonal complement)."""
    a = np.asarray(angles10, dtype=float).reshape(-1)
    if a.shape != (10,):
        raise ValueError(f"expected 10 angles, got shape {a.shape}")
    frame = _frame(a[:6])
    s1 = frame[:, 0]
    psi1, chi1, psi2, chi2 = a[6:]
    comp = np.array(
        [
            np.cos(psi1),
            np.sin(psi1) * np.cos(psi2) * np.exp(1j * chi1),
            np.sin(psi1) * np.sin(psi2) * np.exp(1j * chi2),
        ]
    )
    s2 = frame[:, 1:] @ comp
    return s1, s2


def _difference(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    return np.outer(s1, s1.conj()) - np.outer(s2, s2.conj())


def _trace_distances(ops: np.ndarray) -> np.ndarray:
    """Half the trace norm of each Hermitian 4x4 operator of a stack."""
    return 0.5 * np.abs(np.linalg.eigvalsh(ops)).sum(axis=1)


def _distance_samples(
    s1: np.ndarray, s2: np.ndarray, p: ModelParams, taus, collisions: int = 1
) -> np.ndarray:
    """Trace distance D of the evolving pair at tau = 0 and at every tau of
    each collision: collisions*len(taus) + 1 samples.

    Every map here is linear in the input, so only the difference of the two
    battery states is propagated.
    """
    return _trace_distances(run_collisions(_difference(s1, s2), collisions, taus, p))


def _run_end_maps(p: ModelParams, taus: tuple[float, ...], collisions: int) -> np.ndarray:
    """(2*runs, 16, 16) maps on row-major vec(rho) from tau = 0 to the first
    and the last sample of each maximal run of samples over which Lambda
    rises, in that order.  The sample at taus[j] of collision m + 1 is
    stack[j] after T**m, with T = stack[-1] one full collision."""
    stack = transfer_stack(p, taus)
    lam = _qubit2(p, np.array(taus))[0]
    # cumprod keeps Lambda at a collision's last sample equal to the next power
    powers = np.cumprod(np.concatenate([[1.0], np.full(collisions - 1, lam[-1])]))
    rising = np.diff(np.outer(powers, lam).ravel()) > 0.0  # lambda <= 1, so no run starts at tau = 0
    ends = np.flatnonzero(np.diff(np.concatenate([[False], rising, [False]])))
    maps = np.empty((len(ends), 16, 16), dtype=complex)
    power, done = np.eye(16, dtype=complex), 0
    for i, (m, j) in enumerate(zip(*np.divmod(ends, len(taus)))):  # m ascends, so T**m only grows
        if m > done:
            power, done = np.linalg.matrix_power(stack[-1], m - done) @ power, m
        maps[i] = stack[j] @ power
    return maps


@dataclass(frozen=True)
class BLPResult:
    q_n: float
    lambda_trace: np.ndarray
    report: OptimizerReport


def blp_measure(
    delta_t: float,
    p: ModelParams,
    settings: OptimizerSettings | None = None,
    grid_points: int = 200,
    collisions: int = 1,
) -> BLPResult:
    """Backflow over `collisions` collisions of duration delta_t, maximized
    over orthogonal pure state pairs by seeded multi-start search.

    The default single collision probes the memory of one spin; the
    multi-collision extension also counts backflow across spin renewals.
    """
    if not delta_t > 0.0:
        raise ValueError(f"delta_t must be positive, got {delta_t}")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    if collisions < 1:
        raise ValueError(f"collisions must be >= 1, got {collisions}")

    times = np.arange(collisions * grid_points + 1) * (delta_t / grid_points)
    taus = tuple(times[1 : grid_points + 1].tolist())

    maps = _run_end_maps(p, taus, collisions)

    def objective(angles):
        d = _trace_distances((maps @ _difference(*pair_from_angles(angles)).reshape(16)).reshape(-1, 4, 4))
        return float(np.maximum(d[1::2] - d[::2], 0.0).sum())

    best_angles, q_n, report = multistart_maximize(objective, 10, settings)
    s1, s2 = pair_from_angles(best_angles)
    d = _distance_samples(s1, s2, p, taus, collisions)
    return BLPResult(
        q_n=float(q_n),
        lambda_trace=np.column_stack([times, d]),
        report=report,
    )
