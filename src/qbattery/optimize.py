"""Seeded multi-start derivative-free maximization over angle vectors.

The objectives in this package (work yields over local-unitary angles,
information backflow over state-pair angles) are smooth, low-dimensional and
multimodal in the phases, so each start runs a Nelder-Mead simplex search
and the starts are drawn from a scrambled low-discrepancy sequence on the
torus.  The zero vector is always included as start 0 because the angle
charts put their canonical representative there.

The sequence is Owen's randomized Halton sequence (A. B. Owen, "A randomized
Halton algorithm in R", arXiv:1706.02808, 2017, Algorithm 1): coordinate i
writes the point's index in the i-th prime base b and maps digit j through
its own random permutation of 0..b-1, for every digit whose weight b**-(j+1)
still registers in a double.  `_scrambled_halton` draws the permutations
and sums the digits in the order scipy.stats.qmc.Halton(scramble=True) does,
so it reproduces scipy's draw for the same seed bit for bit without
importing scipy.stats, which would add about 0.4 s to every command's start.

The simplex search is Nelder & Mead's (Comput. J. 7, 308, 1965), written out
in `_simplex_search` step for step as scipy 1.17's
minimize(method="Nelder-Mead") runs it with the options used here, so it
returns the same point, value and evaluation count bit for bit.  It keeps
the simplex as Python floats, which costs less per step than scipy's
wrapper and small arrays, and it keeps scipy.optimize (about 0.65 s) out
of every command's start.

The starts' searches run in lock-step rounds.  Each search is a generator
that yields the next point it wants evaluated and is sent its value back,
so in one round `_nelder_mead` sends the waiting point of every unfinished
search to the objective in a single call, as a (k, dim) array.  An
objective therefore broadcasts over leading axes: a (k, dim) batch gives k
values, a (dim,) point one value, and row i of a batch is bit for bit the
value of that point alone.  So every search takes the steps it would take
on its own, and only the number of objective calls, each with its fixed
numpy overhead, falls: from the sum of the searches' evaluations to the
largest of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import add

import numpy as np

SPAN = 2.0 * np.pi  # starts lie on the angle torus [0, SPAN)^dim
F_TOL = 1e-9  # Nelder-Mead stops when the simplex values agree to this
X_TOL = 1e-6  # ... and its vertices agree to this in every coordinate
AGREE_TOL = 1e-6  # a second start within this of the best marks convergence
MAX_STARTS = 100_000  # each start is a whole simplex search: this many take tens of minutes to hours per point


@dataclass(frozen=True)
class OptimizerSettings:
    starts: int = 24
    seed: int = 0
    max_evals: int = 2000

    def __post_init__(self):
        if not 1 <= self.starts <= MAX_STARTS:
            raise ValueError(f"starts must be in [1, {MAX_STARTS}], got {self.starts}")
        if self.max_evals < 1:
            raise ValueError(f"max_evals must be >= 1, got {self.max_evals}")

    def for_grid_index(self, index: int) -> "OptimizerSettings":
        """Derived settings whose seed is a pure function of (seed, index), so
        each grid point's result depends only on the base seed and its place
        in the grid."""
        return replace(self, seed=self.seed * 1_000_003 + index)


@dataclass(frozen=True)
class OptimizerReport:
    converged: bool
    evaluations: int


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def _scrambled_halton(n: int, dim: int, seed: int) -> np.ndarray:
    """The first n points of Owen's scrambled Halton sequence in [0, 1)^dim,
    equal bit for bit to scipy.stats.qmc.Halton(d=dim, scramble=True,
    seed=np.random.default_rng(np.random.SeedSequence(seed))).random(n)."""
    # scipy draws from a child of the generator it is given
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(1)[0]))
    out = np.empty((n, dim))
    for col, base in enumerate(_first_primes(dim)):
        count = math.ceil(54 / math.log2(base)) - 1  # digits with base**-(j+1) > 2**-54
        perms = rng.permuted(np.tile(np.arange(base), (count, 1)), axis=1)  # row by row, as shuffles
        weights = np.divide.accumulate(np.r_[1.0, np.full(count, float(base))])[1:]  # repeated division
        digits = np.arange(n) // base ** np.arange(count)[:, None] % base
        terms = np.take_along_axis(perms * weights[:, None], digits, axis=1)
        out[:, col] = np.cumsum(terms, axis=0)[-1]  # digit by digit, in order, unlike np.sum
    return out


def start_points(dim: int, settings: OptimizerSettings) -> np.ndarray:
    """Zero vector plus scrambled Halton points on [0, SPAN)^dim."""
    pts = np.zeros((settings.starts, dim))
    if settings.starts > 1:
        pts[1:] = _scrambled_halton(settings.starts - 1, dim, settings.seed) * SPAN
    return pts


class _OutOfEvaluations(Exception):
    pass


def _simplex_search(x0: np.ndarray, max_evals: int):
    """Minimize from x0, as a generator: it yields each point it wants
    evaluated, as a list of floats, is sent that point's value back, and
    returns (x, value at x, evaluations).

    The same steps, in the same float operations, as scipy 1.17's
    minimize(fun, x0, method="Nelder-Mead", options={"maxfev": max_evals,
    "xatol": X_TOL, "fatol": F_TOL}): the initial simplex steps each nonzero
    coordinate by 5% and each zero one to 0.00025; reflection, expansion,
    contraction and shrink take scipy's coefficients 1, 2, 0.5 and 0.5; and
    the vertices are ordered by np.argsort, which does not keep ties in
    place.  No point is yielded past max_evals, so a step cut off there
    keeps what it had done: a shrink has already moved its vertices.
    """
    n = len(x0)
    evals = 0

    def f(x):
        nonlocal evals
        if evals >= max_evals:
            raise _OutOfEvaluations
        evals += 1
        return (yield x)

    def ordered():
        order = np.array(fsim).argsort().tolist()
        return [sim[j] for j in order], [fsim[j] for j in order]

    sim = [x0.tolist()]
    for k in range(n):
        y = list(sim[0])
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = yield from f(sim[k])
    except _OutOfEvaluations:
        pass
    sim, fsim = ordered()
    sim, fsim = ordered()  # again, as scipy does: an unstable sort need not leave sorted ties in place
    while evals < max_evals:
        try:
            best = sim[0]
            if (all(abs(a - b) <= X_TOL for v in sim[1:] for a, b in zip(v, best))
                    and all(abs(fsim[0] - g) <= F_TOL for g in fsim[1:])):
                break
            xbar = [reduce(add, column, 0.0) / n for column in zip(*sim[:-1])]  # in order from +0.0, as np.add.reduce
            worst = sim[-1]
            xr = [2 * a - b for a, b in zip(xbar, worst)]  # reflection
            fxr = yield from f(xr)
            if fxr < fsim[0]:
                xe = [3 * a - 2 * b for a, b in zip(xbar, worst)]  # expansion
                fxe = yield from f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = [1.5 * a - 0.5 * b for a, b in zip(xbar, worst)]
                    fxc = yield from f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = [0.5 * a + 0.5 * b for a, b in zip(xbar, worst)]
                    fxc = yield from f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = [b + 0.5 * (a - b) for a, b in zip(sim[j], best)]
                        fsim[j] = yield from f(sim[j])
        except _OutOfEvaluations:
            pass
        sim, fsim = ordered()
    return np.array(sim[0]), float(np.min(fsim)), evals


def _nelder_mead(fun, x0: np.ndarray, max_evals: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimize fun from each start x0[..., :] by `_simplex_search`, every
    search in lock-step; returns (x, fun(x), evaluations) with x0's leading
    shape.

    Each round sends the next point of every unfinished search to fun in
    one call, as a (searches, dim) array, and fun returns one value per row.
    So each search makes the points, and reads the values, that it would
    make alone, and fun is called once per round: as many times as the
    longest search evaluates.
    """
    starts = np.asarray(x0, dtype=float)
    searches = [_simplex_search(x, max_evals) for x in starts.reshape(-1, starts.shape[-1])]
    results = [None] * len(searches)
    waiting = {}  # search index -> the point it waits on, in start order

    def advance(i, value):
        try:
            waiting[i] = searches[i].send(value)
        except StopIteration as stop:
            results[i] = stop.value
            waiting.pop(i, None)

    for i in range(len(searches)):
        advance(i, None)
    while waiting:
        rows = list(waiting)
        for i, value in zip(rows, fun(np.array([waiting[i] for i in rows])).tolist()):
            advance(i, value)
    x, values, evals = zip(*results)
    return np.reshape(x, starts.shape), np.reshape(values, starts.shape[:-1]), np.reshape(evals, starts.shape[:-1])


def multistart_maximize(
    objective,
    dim: int,
    settings: OptimizerSettings | None = None,
) -> tuple[np.ndarray, float, OptimizerReport]:
    """Maximize objective(x) for x in R^dim from multiple seeded starts.

    objective takes a (k, dim) batch of points and returns their k values;
    the starts' searches run in lock-step (`_nelder_mead`).  Returns
    (best_x, best_value, report); the report counts evaluations in points
    and flags non-convergence instead of raising.  A search is converged
    when its best start stopped on its tolerances, within max_evals
    evaluations (where scipy's Nelder-Mead reports success), and, with more
    than one start, a second start agrees with the best within AGREE_TOL.
    """
    settings = settings or OptimizerSettings()
    solutions, values, evaluations = _nelder_mead(
        lambda x: -objective(x), start_points(dim, settings), settings.max_evals
    )
    values = -values
    best = int(np.argmax(values))
    agree = int(np.sum(values >= values[best] - AGREE_TOL))
    report = OptimizerReport(
        converged=bool(evaluations[best] < settings.max_evals) and (settings.starts == 1 or agree >= 2),
        evaluations=int(evaluations.sum()),
    )
    return solutions[best], float(values[best]), report
