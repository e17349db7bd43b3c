"""Numerical contracts for small quantum systems: tolerances and state checks."""

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
