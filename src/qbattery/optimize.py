"""Seeded multi-start derivative-free maximization over angle vectors.

The objectives in this package (work yields over local-unitary angles,
information backflow over state-pair angles) are smooth, low-dimensional and
multimodal in the phases, so each start runs a Nelder-Mead simplex search
and the starts are drawn from a scrambled low-discrepancy sequence on the
torus.  The zero vector is always included as start 0 because the angle
charts put their canonical representative there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize
from scipy.stats import qmc

SPAN = 2.0 * np.pi  # starts lie on the angle torus [0, SPAN)^dim
F_TOL = 1e-9  # Nelder-Mead stops when the simplex values agree to this
AGREE_TOL = 1e-6  # a second start within this of the best marks convergence


@dataclass(frozen=True)
class OptimizerSettings:
    starts: int = 24
    seed: int = 0
    max_evals: int = 2000

    def for_grid_index(self, index: int) -> "OptimizerSettings":
        """Derived settings whose seed is a pure function of (seed, index), so
        each grid point's result depends only on the base seed and its place
        in the grid."""
        return replace(self, seed=self.seed * 1_000_003 + index)


@dataclass(frozen=True)
class OptimizerReport:
    best_start: int
    spread: float
    converged: bool
    evaluations: int


def start_points(dim: int, settings: OptimizerSettings) -> np.ndarray:
    """Zero vector plus scrambled Halton points on [0, SPAN)^dim."""
    if settings.starts < 1:
        raise ValueError("need at least one start")
    if settings.max_evals < 1:
        raise ValueError(f"max_evals must be >= 1, got {settings.max_evals}")
    pts = np.zeros((settings.starts, dim))
    if settings.starts > 1:
        rng = np.random.default_rng(np.random.SeedSequence(settings.seed))
        sampler = qmc.Halton(d=dim, scramble=True, seed=rng)
        pts[1:] = sampler.random(settings.starts - 1) * SPAN
    return pts


def multistart_maximize(
    objective,
    dim: int,
    settings: OptimizerSettings | None = None,
) -> tuple[np.ndarray, float, OptimizerReport]:
    """Maximize objective(x) for x in R^dim from multiple seeded starts.

    Returns (best_x, best_value, report); the report flags non-convergence
    (no second start agreeing with the best within AGREE_TOL) instead of
    raising.
    """
    settings = settings or OptimizerSettings()
    values = np.empty(settings.starts)
    solutions = np.empty((settings.starts, dim))
    evaluations = 0
    for i, x0 in enumerate(start_points(dim, settings)):
        res = minimize(
            lambda x: -objective(x),
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": settings.max_evals,
                "fatol": F_TOL,
                "xatol": 1e-6,
            },
        )
        values[i] = -res.fun
        solutions[i] = res.x
        evaluations += res.nfev
    best = int(np.argmax(values))
    agree = int(np.sum(values >= values[best] - AGREE_TOL))
    report = OptimizerReport(
        best_start=best,
        spread=float(values.max() - values.min()),
        converged=settings.starts == 1 or agree >= 2,
        evaluations=evaluations,
    )
    return solutions[best], float(values[best]), report
