"""Battery and bath model: physical parameters and the battery Hamiltonian.

Conventions, fixed across the whole package:

* sigma_z = diag(1, -1), so |0> is the *upper* energy level of a term with a
  positive coefficient.
* Tensor ordering is qubit1 (x) qubit2 (x) active bath spin.
* Energies are in units of a reference scale e, times in 1/e (hbar = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import STATE_TOL

MAX_PHASE = STATE_TOL * 2.0**53  # the phase precision bound of ModelParams


def _expit(x: float) -> float:
    """1/(1 + exp(-x)) through libm's exp, as scipy.special.expit computes
    it, and equal to it bit for bit (numpy's exp differs in the last bit)."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # exp(-x) is past the float range, so scipy's inf gives 0.0
        return 0.0


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the battery/bath model.

    Defaults: e1=2, e2=1, k=1, delta_t=0.2 and beta*h = 10, split as h=1
    (bath splitting resonant with qubit 2) and beta=10.  The thermal spin
    populations depend only on the product beta*h; the collision dynamics
    depend on h alone.

    Phase precision policy: e1 + e2 + |h| + 2k bounds the spectrum of the
    collision Hamiltonian, so delta_t * (e1 + e2 + |h| + 2k) bounds every
    phase a collision puts on a state and W*delta_t inside lambda, which is
    all that command outputs read.  A float phase phi is rounded by up to
    phi * 2**-53, so a delta_t that takes it past MAX_PHASE = STATE_TOL * 2**53
    (about 9.0e7; delta_t <= 1.5e7 with the default energies) is rejected: its
    rounding alone could move lambda or a state by more than STATE_TOL.
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
        # Python floats overflow to inf without a numpy warning; NaN and inf fail the comparison
        phase = float(self.delta_t) * (float(self.e1) + float(self.e2) + abs(float(self.h)) + 2.0 * float(self.k))
        if not phase <= MAX_PHASE:
            raise ValueError(
                f"delta_t {self.delta_t!r} x (e1 + e2 + |h| + 2k) = {phase:.3g} is past the precision bound {MAX_PHASE:.3g}"
            )

    @property
    def p0(self) -> float:
        """Population of the upper spin level |0> in the thermal bath state."""
        return _expit(-2.0 * self.beta * self.h)

    @property
    def p1(self) -> float:
        """Population of the lower spin level |1> in the thermal bath state."""
        return _expit(2.0 * self.beta * self.h)


def battery_hamiltonian(p: ModelParams) -> np.ndarray:
    """e1*sz (x) I + e2*I (x) sz; diag(e1+e2, e1-e2, -e1+e2, -e1-e2)."""
    return np.diag(np.array([p.e1 + p.e2, p.e1 - p.e2, -p.e1 + p.e2, -p.e1 - p.e2], dtype=complex))
