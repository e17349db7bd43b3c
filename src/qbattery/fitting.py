"""Least-squares fitting of work-versus-entanglement sweeps.

Four fit families are supported, all built on the entanglement gap
g(E) = sqrt(2**(E+1) - 2**(2E)):

    M1: 3*c*(a - g(E))                     params (c, a)
    M2: 3*c*(1 + g(E)) + b*exp(a*E)        params (a, b, c)
    M3: 3*p*(1 + g(E)) + q*exp(r*E**3)     params (p, q, r)
    M4: 6*c*g(E) + b*exp(a*E)              params (a, b, c)

Every family is separable, and variable projection (Golub & Pereyra, SIAM J.
Numer. Anal. 10, 413 (1973); O'Leary & Rust, Comput. Optim. Appl. 54, 579
(2013)) is the one solver, for a fit and every bootstrap draw.  M1 is linear
in (3*c*a, -3*c) and is solved in closed form.  M2, M3 and M4 are one form,
scale*u*shape(E) + v*exp(k*phi(E)), built by ``_separable``: the rate k is a
in M2 and M4 (phi(E) = E) and r in M3 (phi(E) = E**3), and u and v enter
linearly.  For a fixed k, u and v come from a linear least-squares solve,
which leaves a one-dimensional profile SSE(k), scanned on RATE_GRID: k in
[-8, 8] in steps of 0.01.  A fit and each bootstrap draw start from their
own best grid point, the global minimum over the scan.  A root search
(`_roots`, regula falsi with the Illinois modification) then finds the zero
of the profile's analytic slope dSSE/dk between that point's two
neighbours; the slope, unlike differences of SSE, is not lost in rounding,
so the rate is the stationary point to about 1e-12.  No rate outside
[-8, 8] is reached: a search that stops at the scan's edge is reported as
not converged, in a message that names the edge, and a flat profile (say
all-zero data) as an undetermined rate.

A solve takes all its rows at once, the fit's one row or every bootstrap
draw: one matrix product per chunk of rows gives their scans, and the root
search runs on all rows in lock-step, with one call of the slope kernel per
round for the rows still searching.  The kernel takes one BLAS dot per row,
and the search's steps are elementwise, so a row's rate does not depend on
the other rows and equals the one-row fit's bit for bit.  Nothing here
imports scipy.

The 95% confidence half-widths come from the linearized covariance at the
optimum, scaled by the residual variance and the two-sided 95% normal
quantile, or with ``bootstrap`` from the percentiles of residual-resampling
draws (seed BOOTSTRAP_SEED), each refitted as a fit of its own: the draw's
scan minimum is its start, so a draw may leave the fitted basin.  Draws whose
rate was not bracketed are counted in the message, and the fit reads not
converged.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .states import schmidt_gap

Z95 = 1.959963984540054  # two-sided 95% normal quantile
RATE_GRID = np.linspace(-8.0, 8.0, 1601)  # profile scan of a (M2, M4) or r (M3)
# rows x rates x points per scan product: OpenBLAS runs a gemm of up to 2**18
# multiply-adds on one thread, so the scan never wakes a second core
SCAN_SIZE = 2**18
ROOT_XTOL, ROOT_RTOL, ROOT_MAXITER = 2e-12, 4 * np.finfo(float).eps, 100  # the rate's root search
BOOTSTRAP_SEED = 0  # the residual draws' seed: a fit is a function of its data alone


@dataclass(frozen=True)
class FitModel:
    name: str
    param_names: tuple[str, ...]
    predict: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]  # d predict / d params
    # E -> a solve of values (rows, n) giving parameters (rows, n_par), and per
    # row the root search's rounds and a note that is empty where the rate was
    # bracketed
    solver: Callable[[np.ndarray], Callable[[np.ndarray], tuple[np.ndarray, Sequence[int], Sequence[str]]]]


def _over(num, den):
    """num / den, and 0 where den is 0 (a column that is all zeros)."""
    shape = np.broadcast(num, den).shape
    return np.divide(num, den, out=np.zeros(shape), where=den > 0)


def _perp(z, base, bb):
    """Each row of z with its component along base removed."""
    return z - np.outer(_over(z @ base, bb), base)


def _dots(a, b):
    """The dot product of each row of a with b's.  The stacked matmul runs
    one BLAS dot per row, so a row's value equals a[i] @ b[i] bit for bit
    and does not depend on the other rows."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _project(k, base, t, y_perp, bb):
    """exp(k*t) for each row's rate k (rows,), its part x_perp orthogonal to
    base, and y_perp's weight v on x_perp."""
    x = np.exp(k[:, None] * t)
    x_perp = x - _over(_dots(x, base), bb)[:, None] * base
    v = _over(_dots(x_perp, y_perp), _dots(x_perp, x_perp))
    return x, x_perp, v


def _slopes(k, base, t, y_perp, bb):
    """dSSE/dk = -2*v*r.(t*exp(k*t)) of each row: r is orthogonal to both columns."""
    x, x_perp, v = _project(k, base, t, y_perp, bb)
    return -2.0 * v * _dots(y_perp - v[:, None] * x_perp, t * x)


def _roots(f, lo, hi, f_lo, f_hi):
    """The root of f between each lane's ends lo and hi, where f_lo < 0 < f_hi,
    and its rounds: regula falsi with the Illinois modification (Dowell &
    Jarratt, BIT 11, 168 (1971)).  f maps (rates (m,), lane indices (m,)) to
    the m values, and each round calls it once for the lanes still open.  A
    lane ends when f is 0 or its bracket is narrower than ROOT_XTOL +
    ROOT_RTOL*|root|, or else at its last iterate after ROOT_MAXITER rounds."""
    a, b, fa, fb = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    roots, rounds, lane = b.copy(), np.full(len(b), ROOT_MAXITER), np.arange(len(b))
    for its in range(1, ROOT_MAXITER + 1):
        if not len(lane):
            break
        c = b - fb * (b - a) / (fb - fa)
        fc = f(c, lane)
        stale = np.signbit(fc) == np.signbit(fb)  # c is on b's side, so a stays: halve its value
        a, fa, b, fb = np.where(stale, a, b), np.where(stale, 0.5 * fa, fb), c, fc
        done = (fc == 0.0) | (np.abs(b - a) < ROOT_XTOL + ROOT_RTOL * np.abs(b))
        roots[lane], rounds[lane[done]] = b, its
        lane, a, b, fa, fb = (v[~done] for v in (lane, a, b, fa, fb))
    return roots, rounds


def _profile(base, t, order):
    """The rate's profile solver for one design: for rows y (rows, n), the
    (k, v, u) minimising |y - u*base - v*exp(k*t)| per row, reached from the
    row's scan minimum and given as the columns ``order`` of (k, v, u), with
    the root search's rounds and a note that is empty where it bracketed k.
    The scan's columns are orthogonalised here, once for a fit and all its
    bootstrap draws."""
    bb = base @ base
    grid_perp = _perp(np.exp(np.multiply.outer(RATE_GRID, t)), base, bb)
    grid_inv = _over(1.0, np.einsum("ij,ij->i", grid_perp, grid_perp))
    last, chunk = len(RATE_GRID) - 1, max(1, SCAN_SIZE // grid_perp.size)

    def solve(y):
        y_perp = _perp(y, base, bb)
        j, flat = np.empty(len(y), dtype=int), np.empty(len(y), dtype=bool)
        for at in range(0, len(y), chunk):  # a chunk of rows at a time: memory stays O(chunk*grid)
            rows = y_perp[at : at + chunk]
            s = rows @ grid_perp.T  # c, and SSE(k) = |y_perp|**2 - c**2/|x_perp|**2 on the scan
            s *= s
            s *= grid_inv
            s = np.subtract((rows * rows).sum(-1)[:, None], s, out=s)
            flat[at : at + len(s)] = s.max(-1) == s.min(-1)
            j[at : at + len(s)] = s.argmin(-1)
        lo, hi = RATE_GRID[np.maximum(j - 1, 0)], RATE_GRID[np.minimum(j + 1, last)]
        down, up = _slopes(lo, base, t, y_perp, bb), _slopes(hi, base, t, y_perp, bb)
        k, iterations = RATE_GRID[j], np.zeros(len(y), dtype=int)
        lanes = np.flatnonzero((down < 0.0) & (up > 0.0))
        k[lanes], iterations[lanes] = _roots(lambda rate, lane: _slopes(rate, base, t, y_perp[lanes[lane]], bb),
                                             lo[lanes], hi[lanes], down[lanes], up[lanes])
        notes = [
            f"the rate's root search did not converge in {ROOT_MAXITER} iterations" if its == ROOT_MAXITER
            else "" if d < 0.0 < u
            else "the rate is undetermined (flat profile)" if d == u == 0.0 or f
            else f"rate stopped at {r:g}, the edge of the scan [-8, 8]" if jj in (0, last)
            else f"the profile slope does not change sign about rate {r:g}"
            for d, u, f, r, jj, its in zip(down.tolist(), up.tolist(), flat.tolist(), k.tolist(), j.tolist(),
                                           iterations.tolist())
        ]
        x, _, v = _project(k, base, t, y_perp, bb)
        u = _over(_dots(y - v[:, None] * x, base), bb)
        return np.column_stack([k, v, u])[:, order], iterations.tolist(), notes

    return solve


def _m1(e, p):
    c, a = p
    return 3.0 * c * (a - schmidt_gap(e))


def _m1_jacobian(e, p):
    c, a = p
    return np.column_stack([3.0 * (a - schmidt_gap(e)), np.full(len(e), 3.0 * c)])


def _m1_solve(e, y):
    """Closed form: y = alpha + beta*g with alpha = 3*c*a and beta = -3*c."""
    basis = np.column_stack([np.ones_like(e), schmidt_gap(e)])
    (alpha, beta), *_ = np.linalg.lstsq(basis, y.T, rcond=None)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = -alpha / beta
    # c = 0 leaves a undetermined (the curve is 0 for every a); keep it finite.
    p = np.column_stack([-beta / 3.0, np.where(np.isfinite(a), a, 0.0)])
    return p, [0] * len(y), [""] * len(y)


def _separable(name, names, scale, shape, phi, order) -> FitModel:
    """Family scale*u*shape(E) + v*exp(k*phi(E)), linear in u and v.

    ``order`` gives, for each parameter in ``names``, its index in (k, v, u).
    """
    where = np.argsort(order)  # parameter-vector positions of k, v and u

    def predict(e, p):
        k, v, u = p[where]
        return scale * u * shape(e) + v * np.exp(k * phi(e))

    def jacobian(e, p):
        k, v, _ = p[where]
        t = phi(e)
        x = np.exp(k * t)
        return np.column_stack([v * t * x, x, scale * shape(e)])[:, order]

    return FitModel(name, names, predict, jacobian, lambda e: _profile(scale * shape(e), phi(e), order))


def _one_plus_gap(e):
    return 1.0 + schmidt_gap(e)


MODELS: dict[str, FitModel] = {
    "M1": FitModel("M1", ("c", "a"), _m1, _m1_jacobian, lambda e: partial(_m1_solve, e)),
    "M2": _separable("M2", ("a", "b", "c"), 3.0, _one_plus_gap, lambda e: e, [0, 1, 2]),
    "M3": _separable("M3", ("p", "q", "r"), 3.0, _one_plus_gap, lambda e: e**3, [2, 1, 0]),
    "M4": _separable("M4", ("a", "b", "c"), 6.0, schmidt_gap, lambda e: e, [0, 1, 2]),
}


@dataclass(frozen=True)
class FitResult:
    model: str
    params: dict[str, float]
    residual: float
    confidence95: dict[str, float]
    iterations: int
    converged: bool
    message: str = ""


def _resolve_model(model) -> FitModel:
    try:
        return MODELS[model]
    except KeyError:
        raise ValueError(f"unknown fit model {model!r}; choose from {sorted(MODELS)}")


def _split_data(data) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("data must be a sequence of (E, value) pairs")
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"data row {i + 1} of {len(arr)} is not finite: "
            f"E={arr[i, 0]:g}, value={arr[i, 1]:g}"
        )
    e, y = arr[:, 0], arr[:, 1]
    if np.any(e < -1e-12) or np.any(e > 1.0 + 1e-12):
        raise ValueError("abscissa values must lie in [0, 1]")
    return e, y


def fit_curve(model, data, bootstrap: int = 0) -> FitResult:
    """Least-squares fit of a model family to (E, value) pairs.

    The result is the global minimum over the rate scan.  Never raises on
    numerical trouble: a rate that the root search could not bracket (such
    as one at the scan's edge), in the fit or in any bootstrap draw, and
    singular normal equations are reported through ``converged`` and
    ``message``.  With ``bootstrap > 0`` the confidence half-widths come
    from the percentiles of that many residual-resampling draws, each fitted
    like the data from its own scan minimum, instead of the linearized
    covariance; a negative ``bootstrap`` raises ValueError.
    """
    mdl = _resolve_model(model)
    if bootstrap < 0:
        raise ValueError(f"bootstrap must be >= 0 refits, got {bootstrap}")
    e, y = _split_data(data)
    n_par = len(mdl.param_names)
    if len(e) < n_par + 1:
        raise ValueError(f"need at least {n_par + 1} data points, got {len(e)}")

    solve = mdl.solver(e)
    fitted, iterations, note = (out[0] for out in solve(y[None]))
    problems = [note] if note else []
    base = mdl.predict(e, fitted)
    sse = float((base - y) @ (base - y))
    dof = len(e) - n_par

    jac = mdl.jacobian(e, fitted)
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj) * (sse / dof)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj) * (sse / dof)
        problems.append("singular normal equations")
    half = Z95 * np.sqrt(np.clip(np.diag(cov), 0.0, None))

    if bootstrap > 0:  # every draw refitted by the same solve as the data
        gen = np.random.default_rng(BOOTSTRAP_SEED)
        y_star = base + gen.choice(y - base, size=(bootstrap, len(e)), replace=True)
        refits, _, notes = solve(y_star)
        lo, hi = np.percentile(refits, [2.5, 97.5], axis=0)
        half = 0.5 * (hi - lo)
        problems += [f"{count} of {bootstrap} bootstrap draws: {note}"
                     for note, count in Counter(filter(None, notes)).most_common()]

    return FitResult(
        model=mdl.name,
        params=dict(zip(mdl.param_names, (float(v) for v in fitted))),
        residual=sse,
        confidence95=dict(zip(mdl.param_names, (float(v) for v in half))),
        iterations=int(iterations),
        converged=not problems,
        message="; ".join(problems),
    )
