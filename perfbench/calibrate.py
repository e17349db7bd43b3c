"""The host's speed, from a fixed piece of work that does not use qbattery.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 2x, in spells of seconds to minutes, and slows set-up, wall and CPU
time alike.  A run therefore times, between its commands and around each
set-up sample, a piece of work of the same kind as qbattery's: small
complex matrix products, Hermitian eigendecompositions and partial traces,
one step at a time in a Python loop and batched over a time grid.  A time is scaled by NOMINAL_S over the mean time
of the pieces taken during the same stretch, wall time by wall time and
CPU time by CPU time.  The result is the time the stretch would take on a
host where one piece takes NOMINAL_S, so a slow spell that lasts the
stretch cancels out, while a change of qbattery's speed does not: the
piece never calls qbattery.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Time of one piece on a quiet 2-core x86-64 VM with Python 3.11, numpy 2.4
# and OpenBLAS 0.3.31; a fixed constant, so that scaled times keep the unit
# and about the size of seconds on that machine.
NOMINAL_S = 0.008
PIECES = 4

_RNG = np.random.default_rng(20240901)
_A = _RNG.normal(size=(8, 8)) + 1j * _RNG.normal(size=(8, 8))
_H = (_A + _A.conj().T) / 2.0
_W, _V = np.linalg.eigh(_H)
_STACK = np.einsum("ab,tb,cb->tac", _V, np.exp(-1j * np.outer(np.linspace(0.0, 2.0, 201), _W)), _V.conj())


def piece() -> float:
    """About half a piece is a Python loop of single 8x8 and 4x4 steps, as
    in the collision and ergotropy layers; the other half is batched steps
    over 201 time points, as in nonmarkov."""
    rho = np.eye(4, dtype=complex) / 4.0
    for _ in range(75):
        w, v = np.linalg.eigh(_H)
        u = (v * np.exp(-1j * w * 0.01)) @ v.conj().T
        big = u @ np.kron(rho, np.eye(2)) @ u.conj().T
        rho = np.trace(big.reshape(4, 2, 4, 2), axis1=1, axis2=3)
        rho = rho / np.trace(rho).real
    joint = np.kron(rho, np.eye(2) / 2.0)
    total = 0.0
    for _ in range(4):
        evolved = _STACK @ joint @ _STACK.conj().transpose(0, 2, 1)
        reduced = np.einsum("tisjs->tij", evolved.reshape(-1, 4, 2, 4, 2))
        total += np.abs(np.linalg.eigvalsh(reduced)).sum()
    return float(rho[0, 0].real) + total


def sample(pieces: int = PIECES) -> list[list[float]]:
    """[wall, CPU] seconds of each of `pieces` pieces run back to back."""
    times = []
    for _ in range(pieces):
        t0, c0 = time.perf_counter(), time.thread_time()
        piece()
        times.append([time.perf_counter() - t0, time.thread_time() - c0])
    return times


def scales(samples: list[list[float]]) -> tuple[float, float]:
    """Factors that take wall and CPU seconds measured among `samples` to a
    host where one piece takes NOMINAL_S."""
    return (
        NOMINAL_S / statistics.mean(w for w, _ in samples),
        NOMINAL_S / statistics.mean(c for _, c in samples),
    )
