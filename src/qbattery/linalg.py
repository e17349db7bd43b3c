"""Dense complex linear algebra for small (dim <= 8) quantum systems."""

from __future__ import annotations

import numpy as np

# Default tolerances: structural checks (hermiticity) are tighter than
# physical-state checks (trace one, positivity).
STRUCT_TOL = 1e-10
STATE_TOL = 1e-8


class ContractViolation(ValueError):
    """An input failed one of the documented numerical contracts."""


def _as_square(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractViolation(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ContractViolation("matrix has non-finite entries")
    return m


def is_hermitian(a) -> bool:
    m = _as_square(a)
    return bool(np.abs(m - m.conj().T).max() <= STRUCT_TOL)


def is_density_matrix(a, tol: float = STATE_TOL) -> bool:
    """Hermitian, unit trace and positive semidefinite, all within tol."""
    m = _as_square(a)
    if np.abs(m - m.conj().T).max() > tol:
        return False
    if abs(m.trace() - 1.0) > tol:
        return False
    return bool(np.linalg.eigvalsh(m).min() >= -tol)


def unitary_from_hamiltonian(h, t) -> np.ndarray:
    """exp(-j*t*h) for Hermitian h, computed exactly via eigendecomposition;
    a 1-D array t gives the (len(t), d, d) stack from one eigendecomposition."""
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ContractViolation("time must be finite")
    m = _as_square(h)
    if not is_hermitian(m):
        raise ContractViolation("input is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    return (v * np.exp(-1j * t[..., None, None] * w)) @ v.conj().T
