"""Two-qubit quantum batteries under repeated-collision spin-bath noise.

Simulation and analysis toolkit: numerical contracts for small systems,
the battery/bath model, entanglement-constrained state families, the
closed-form collision channel, global and local work extraction, the BLP
non-Markovianity measure, and least-squares fitting of sweep results.
"""

__version__ = "0.1.0"

from .collision import Trajectory, collide_once, evolve, fine_trajectory
from .ergotropy import (
    WorkRecord,
    ergotropy_after_collisions,
    global_ergotropy,
    local_ergotropy,
    max_work_fixed_entanglement,
    trajectory_work,
)
from .fitting import MODELS, FitResult, fit_curve
from .linalg import ContractViolation, is_density_matrix, is_hermitian
from .model import ModelParams, battery_hamiltonian
from .nonmarkov import BLPResult, blp_measure
from .optimize import OptimizerReport, OptimizerSettings, multistart_maximize
from .states import (
    fixed_entanglement_state,
    locally_passive_state,
    schmidt_gap,
    schmidt_lambdas_from_entanglement,
)
