"""Two-qubit pure states: entanglement, Schmidt weights, constrained families.

A pure state is a length-4 complex vector over the basis {|00>, |01>, |10>,
|11>} of the sigma_z eigenbases.  Entanglement is measured by logarithmic
negativity, which runs from 0 to 1 ebit for two qubits.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .linalg import ContractViolation

NORM_TOL = 1e-12


def _as_state_vector(c) -> np.ndarray:
    v = np.asarray(c, dtype=complex).reshape(-1)
    if v.shape != (4,):
        raise ContractViolation(f"expected a 4-component state vector, got {v.shape}")
    if not np.isfinite(v).all():
        raise ContractViolation("state vector has non-finite entries")
    if abs(v.conj() @ v - 1.0) > NORM_TOL:
        raise ContractViolation("state vector is not normalized")
    return v


def projector(c) -> np.ndarray:
    """Rank-one density matrix |c><c|."""
    v = _as_state_vector(c)
    return np.outer(v, v.conj())


def schmidt_gap(entanglement):
    """sqrt(2**(E+1) - 2**(2E)): the gap lambda1 - lambda2 at log-negativity E.

    Accepts scalars or arrays; decreases monotonically from 1 at E=0 to 0 at
    E=1.
    """
    e = np.asarray(entanglement, dtype=float)
    if not np.all((e >= -1e-12) & (e <= 1.0 + 1e-12)):  # NaN fails both
        raise ValueError("entanglement must lie in [0, 1]")
    val = 2.0 ** (e + 1.0) - 2.0 ** (2.0 * e)
    out = np.sqrt(np.clip(val, 0.0, None))
    return out if out.ndim else float(out)


def schmidt_lambdas_from_entanglement(entanglement: float) -> tuple[float, float]:
    """Schmidt eigenvalues (lambda1 >= lambda2) of a pure state with the given
    log-negativity; lambda_i = (1 +/- schmidt_gap(E)) / 2."""
    gap = schmidt_gap(float(entanglement))
    return 0.5 * (1.0 + gap), 0.5 * (1.0 - gap)


def locally_passive_state(entanglement: float) -> np.ndarray:
    """The locally passive pure state at fixed entanglement.

    Returns sqrt(lambda2)|00> + sqrt(lambda1)|11>: the larger Schmidt weight
    sits on the two-qubit ground level, so both marginals are passive and
    the local work yield vanishes.  The relative phase of the two terms is
    free and changes no yield (`ergotropy` module docstring); this is its
    representative at phase 0.
    """
    lam1, lam2 = schmidt_lambdas_from_entanglement(entanglement)
    return np.array([np.sqrt(lam2), 0.0, 0.0, np.sqrt(lam1)], dtype=complex)


def single_qubit_unitary(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Rz(alpha) @ Ry(beta) @ Rz(gamma), covering SU(2) up to global phase.

    Written out entry by entry: with Rz(x) = diag(exp(-jx/2), exp(jx/2)) and
    Ry(b) = [[cos b/2, -sin b/2], [sin b/2, cos b/2]], the product is
    [[s* cos, -d* sin], [d sin, s cos]] for the phases
    s = exp(j(alpha + gamma)/2) and d = exp(j(alpha - gamma)/2).
    """
    cb, sb = math.cos(0.5 * beta), math.sin(0.5 * beta)
    s = cmath.exp(0.5j * (alpha + gamma))
    d = cmath.exp(0.5j * (alpha - gamma))
    return np.array([[s.conjugate() * cb, -d.conjugate() * sb], [d * sb, s * cb]])


def fixed_entanglement_state(entanglement: float, angles) -> np.ndarray:
    """A generic pure state with the given entanglement.

    Applies local unitaries, each parametrized by three Euler angles, to the
    Schmidt normal form sqrt(lambda1)|00> + sqrt(lambda2)|11>.  Local
    unitaries leave the log-negativity unchanged, so the whole 6-angle family
    sweeps the fixed-entanglement set.
    """
    a = np.asarray(angles, dtype=float).reshape(-1)
    if a.shape != (6,):
        raise ValueError(f"expected 6 angles, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("angles must be finite")
    lam1, lam2 = schmidt_lambdas_from_entanglement(entanglement)
    base = np.zeros(4, dtype=complex)
    base[0] = np.sqrt(lam1)
    base[3] = np.sqrt(lam2)
    return np.kron(single_qubit_unitary(*a[:3]), single_qubit_unitary(*a[3:])) @ base
