"""Battery and bath model: Hamiltonians and physical parameters.

Conventions, fixed across the whole package:

* sigma_z = diag(1, -1), so |0> is the *upper* energy level of a term with a
  positive coefficient.
* Tensor ordering is qubit1 (x) qubit2 (x) active bath spin.
* Energies are in units of a reference scale e, times in 1/e (hbar = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the battery/bath model.

    Defaults: e1=2, e2=1, k=1, delta_t=0.2 and beta*h = 10, split as h=1
    (bath splitting resonant with qubit 2) and beta=10.  The thermal spin
    populations depend only on the product beta*h; the collision dynamics
    depend on h alone.
    """

    e1: float = 2.0
    e2: float = 1.0
    h: float = 1.0
    k: float = 1.0
    beta: float = 10.0
    delta_t: float = 0.2

    def __post_init__(self) -> None:
        if not (self.e1 > self.e2 > 0.0):
            raise ValueError(f"require e1 > e2 > 0, got e1={self.e1}, e2={self.e2}")
        if not self.delta_t > 0.0:
            raise ValueError(f"require delta_t > 0, got {self.delta_t}")
        if self.k < 0.0:
            raise ValueError(f"require k >= 0, got {self.k}")
        if self.beta < 0.0:
            raise ValueError(f"require beta >= 0, got {self.beta}")
        for name in ("e1", "e2", "h", "k", "beta", "delta_t"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"parameter {name} must be finite")
        # e1 + e2 + |h| + 2k bounds the 8x8 spectrum, so this bounds every collision
        # phase; Python floats overflow to inf without a numpy warning.
        phase = float(self.delta_t) * (float(self.e1) + float(self.e2) + abs(float(self.h)) + 2.0 * float(self.k))
        if not np.isfinite(phase):
            raise ValueError(f"collision phases overflow: delta_t {self.delta_t!r} x (e1 + e2 + |h| + 2k)")

    @property
    def p0(self) -> float:
        """Population of the upper spin level |0> in the thermal bath state."""
        return float(expit(-2.0 * self.beta * self.h))

    @property
    def p1(self) -> float:
        """Population of the lower spin level |1> in the thermal bath state."""
        return float(expit(2.0 * self.beta * self.h))


def battery_hamiltonian(p: ModelParams) -> np.ndarray:
    """e1*sz (x) I + e2*I (x) sz; diag(e1+e2, e1-e2, -e1+e2, -e1-e2)."""
    return np.diag(np.array([p.e1 + p.e2, p.e1 - p.e2, -p.e1 + p.e2, -p.e1 - p.e2], dtype=complex))


def bath_spin_hamiltonian(p: ModelParams) -> np.ndarray:
    """h*sz for a single bath spin."""
    return p.h * SIGMA_Z


def interaction_hamiltonian(p: ModelParams) -> np.ndarray:
    """Exchange coupling k*(sx (x) sx + sy (x) sy) on qubit2 (x) spin.

    Equals 2k on the |01><10| + |10><01| block and zero elsewhere, so it
    conserves the total excitation of the qubit2/spin pair.
    """
    h = np.zeros((4, 4), dtype=complex)
    h[1, 2] = h[2, 1] = 2.0 * p.k
    return h


def total_collision_hamiltonian(p: ModelParams) -> np.ndarray:
    """8x8 generator of one collision in qubit1 (x) qubit2 (x) spin ordering."""
    return (
        np.kron(battery_hamiltonian(p), ID2)
        + np.kron(ID2, interaction_hamiltonian(p))
        + np.kron(np.eye(4), bath_spin_hamiltonian(p))
    )

