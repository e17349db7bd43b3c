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
telescope to D(last sample) - D(first sample).  Lambda is taken once per
delta_t, at every sample (`collision.memory`), and only its values at the
two ends of each run are kept, as the weights of the phase-free
GAD_Lambda (`collision.damping`): qubit 2's populations keep the fraction
Lambda of their offset from the bath's, its coherences the fraction
sqrt(Lambda).  An evaluation applies them to the pair's difference, so it
costs a pair, a few elementwise products and one batched 4x4 eigvalsh on
2*runs matrices, and a run end takes 256 B per point evaluated.  A search round's points are taken BLP_CHUNK (point, run)
pairs at a time, so memory does not grow with the number of starts.  The
reported trace of the best pair damps its difference phase-free at the
same Lambda, a chunk of samples at a time (`collision.damp_chunked`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .collision import apply_channel, damp, damp_chunked, damping, memory
from .model import ModelParams
from .optimize import OptimizerReport, OptimizerSettings, multistart_maximize

BLP_CHUNK = 4096  # (point, rising run) pairs per step of the BLP objective


def _pair(t1, p1, t2, p2, t3, p3, psi1, chi1, psi2, chi2) -> tuple[complex, ...]:
    """The 8 amplitudes of pair_from_angles for one point, from scalars."""
    c1, n1 = math.cos(t1), math.sin(t1)
    c2, n2 = math.cos(t2), math.sin(t2)
    c3, n3 = math.cos(t3), math.sin(t3)
    u1, u2, u3 = cmath.exp(1j * p1), cmath.exp(1j * p2), cmath.exp(1j * p3)
    a = math.cos(psi1)
    b = math.sin(psi1) * math.cos(psi2) * cmath.exp(1j * chi1)
    d = math.sin(psi1) * math.sin(psi2) * cmath.exp(1j * chi2)
    return (
        c1, n1 * c2 * u1, n1 * n2 * c3 * u1 * u2, n1 * n2 * n3 * u1 * u2 * u3,
        -a * n1 * u1.conjugate(),
        a * c1 * c2 - b * n2 * u2.conjugate(),
        a * c1 * n2 * c3 * u2 + b * c2 * c3 - d * n3 * u3.conjugate(),
        a * c1 * n2 * n3 * u2 * u3 + b * c2 * n3 * u3 + d * c3,
    )


def pair_from_angles(angles10) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal pure-state pair from 10 angles (6 for the first state,
    4 for its partner in the orthogonal complement), over leading axes:
    (..., 10) angles give two (..., 4) states.

    The frame F = G23(t3, p3) G12(t2, p2) G01(t1, p1), with G_ij(t, p) the
    Givens rotation by t in the plane (i, j) whose entry (j, i) is
    sin(t) exp(j p), is unitary, and its first column sweeps all pure states
    (up to global phase) as the 6 angles vary.  The first state is that
    column; the second is F's other three columns weighted by
    (cos psi1, sin psi1 cos psi2 exp(j chi1), sin psi1 sin psi2 exp(j chi2)).
    Both are written out entry by entry in `_pair`, one point at a time.
    """
    a = np.asarray(angles10, dtype=float)
    if a.ndim == 0 or a.shape[-1] != 10:
        raise ValueError(f"expected 10 angles, got shape {a.shape}")
    pairs = np.array([_pair(*row) for row in a.reshape(-1, 10).tolist()], dtype=complex)
    pairs = pairs.reshape(a.shape[:-1] + (2, 4))
    return pairs[..., 0, :], pairs[..., 1, :]


def _difference(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """|s1><s1| - |s2><s2| for each pair of a (..., 4) stack."""
    return s1[..., :, None] * s1[..., None, :].conj() - s2[..., :, None] * s2[..., None, :].conj()


def _trace_distances(ops: np.ndarray) -> np.ndarray:
    """Half the trace norm of each Hermitian 4x4 operator of a stack."""
    return 0.5 * np.abs(np.linalg.eigvalsh(ops)).sum(axis=-1)


def _distance_samples(s1: np.ndarray, s2: np.ndarray, lam: np.ndarray, p: ModelParams) -> np.ndarray:
    """Trace distance D of the evolving pair at every sample of lam, Lambda
    as `collision.memory` gives it.

    Every map here is linear in the input, so only the difference of the two
    battery states is damped.
    """
    return damp_chunked(lambda chunk: _trace_distances(damp(_difference(s1, s2), chunk, p)), lam)


def _rises(weights: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """D at the last minus D at the first end of each rising run, or 0, as
    (rows, runs), for the pair differences x (rows, 1, 2, 2, 2, 2) and the
    run-end weights."""
    ends = apply_channel(weights, x)
    d = _trace_distances(ends.reshape(-1, 4, 4)).reshape(len(x), -1)
    return np.maximum(d[:, 1::2] - d[:, ::2], 0.0)


@dataclass(frozen=True)
class BLPResult:
    q_n: float
    lambda_trace: np.ndarray
    report: OptimizerReport


def blp_measure(
    p: ModelParams,
    settings: OptimizerSettings | None = None,
    grid_points: int = 200,
    collisions: int = 1,
) -> BLPResult:
    """Backflow over `collisions` collisions of duration p.delta_t, maximized
    over orthogonal pure state pairs by seeded multi-start search.

    The default single collision probes the memory of one spin; the
    multi-collision extension also counts backflow across spin renewals.
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    if collisions < 1:
        raise ValueError(f"collisions must be >= 1, got {collisions}")

    times = np.arange(collisions * grid_points + 1) * (p.delta_t / grid_points)
    lam = memory(p, times[1 : grid_points + 1].tolist(), collisions)
    # Lambda at the first and the last sample of each maximal rising run; Lambda(0) = 1 starts none
    weights = damping(p, lam[np.flatnonzero(np.diff(np.concatenate([[False], np.diff(lam) > 0.0, [False]])))])
    runs = len(weights[0]) // 2
    span = min(max(runs, 1), BLP_CHUNK)  # runs per step
    rows = BLP_CHUNK // span  # points per step: a step takes at most BLP_CHUNK (point, run) pairs
    parts = [(c, tuple(w[2 * c : 2 * (c + span)] for w in weights)) for c in range(0, runs, span)]

    def objective(angles):  # (..., 10) angles, one value per point
        x = _difference(*pair_from_angles(angles))
        lead = x.shape[:-2]
        x = x.reshape(-1, 1, 2, 2, 2, 2)  # one axis for the run ends
        rises = np.empty((len(x), runs))
        for r in range(0, len(x), rows):
            for c, part in parts:
                rises[r : r + rows, c : c + span] = _rises(part, x[r : r + rows])
        return rises.sum(axis=-1).reshape(lead)[()]  # [()]: a scalar for one point

    best_angles, q_n, report = multistart_maximize(objective, 10, settings)
    s1, s2 = pair_from_angles(best_angles)
    d = _distance_samples(s1, s2, lam, p)
    return BLPResult(
        q_n=float(q_n),
        lambda_trace=np.column_stack([times, d]),
        report=report,
    )
