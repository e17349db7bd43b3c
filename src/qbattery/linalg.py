"""Dense complex linear algebra for small (dim <= 8) quantum systems."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Default tolerances: structural checks (hermiticity, unitarity, reconstruction)
# are tighter than physical-state checks (trace one, positivity).
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


def is_unitary(a, tol: float = STRUCT_TOL) -> bool:
    m = _as_square(a)
    eye = np.eye(m.shape[0])
    return bool(np.abs(m.conj().T @ m - eye).max() <= tol)


def is_density_matrix(a, tol: float = STATE_TOL) -> bool:
    """Hermitian, unit trace and positive semidefinite, all within tol."""
    m = _as_square(a)
    if np.abs(m - m.conj().T).max() > tol:
        return False
    if abs(m.trace() - 1.0) > tol:
        return False
    return bool(np.linalg.eigvalsh(m).min() >= -tol)


def kron(a, b) -> np.ndarray:
    """Kronecker product; block (i, j) of the result is a[i, j] * b."""
    return np.kron(_as_square(a), _as_square(b))


def partial_trace(x, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    ``dims = (dA, dB)`` are the factor dimensions and ``keep`` selects the
    surviving subsystem, ``"A"`` or ``"B"``.
    """
    m = _as_square(x)
    da, db = int(dims[0]), int(dims[1])
    if da * db != m.shape[0]:
        raise ContractViolation(
            f"dimension mismatch: {da}*{db} != matrix dim {m.shape[0]}"
        )
    r = m.reshape(da, db, da, db)
    if keep == "A":
        return np.einsum("isjs->ij", r)
    if keep == "B":
        return np.einsum("sisj->ij", r)
    raise ContractViolation(f"keep must be 'A' or 'B', got {keep!r}")


class HermitianEigen(NamedTuple):
    """Eigenvalues in ascending order with matching orthonormal column vectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigendecompose(h) -> HermitianEigen:
    m = _as_square(h)
    if not is_hermitian(m):
        raise ContractViolation("input is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    return HermitianEigen(eigenvalues=w, eigenvectors=v)


def unitary_from_hamiltonian(h, t: float) -> np.ndarray:
    """exp(-j*t*h) for Hermitian h, computed exactly via eigendecomposition."""
    if not np.isfinite(t):
        raise ContractViolation("time must be finite")
    w, v = hermitian_eigendecompose(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def trace_distance(r1, r2) -> float:
    """Half the trace norm of r1 - r2 for two density matrices."""
    a = _as_square(r1)
    b = _as_square(r2)
    if a.shape != b.shape:
        raise ContractViolation("states must have equal dimensions")
    if not is_density_matrix(a) or not is_density_matrix(b):
        raise ContractViolation("trace_distance requires density matrices")
    w = np.linalg.eigvalsh(a - b)
    return float(0.5 * np.abs(w).sum())
