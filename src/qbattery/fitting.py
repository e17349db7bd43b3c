"""Least-squares fitting of work-versus-entanglement sweeps.

Four fit families are supported, all built on the entanglement gap
g(E) = sqrt(2**(E+1) - 2**(2E)):

    M1: 3*c*(a - g(E))                     params (c, a)
    M2: 3*c*(1 + g(E)) + b*exp(a*E)        params (a, b, c)
    M3: 3*p*(1 + g(E)) + q*exp(r*E**3)     params (p, q, r)
    M4: 6*c*g(E) + b*exp(a*E)              params (a, b, c)

Every family is separable, and variable projection (Golub & Pereyra, SIAM J.
Numer. Anal. 10, 413 (1973); O'Leary & Rust, Comput. Optim. Appl. 54, 579
(2013)) is the one solver, for a fit, a refit from ``init`` and every
bootstrap draw.  M1 is linear in (3*c*a, -3*c) and is solved in closed form;
it has one minimum, so ``init`` is only checked for its shape.  M2, M3 and
M4 are one form, scale*u*shape(E) + v*exp(k*phi(E)), built by
``_separable``: the rate k is a in M2 and M4 (phi(E) = E) and r in M3
(phi(E) = E**3), and u and v enter linearly.  For a fixed k, u and v come
from a linear least-squares solve, which leaves a one-dimensional profile
SSE(k), scanned on RATE_GRID: k in [-8, 8] in steps of 0.01.  The search
takes the best grid point, the global minimum over the scan, or with
``init`` the local minimum reached downhill from the grid point nearest
init's rate.  Brent's method then finds the root of the profile's analytic
slope dSSE/dk between that point's two neighbours; the slope, unlike
differences of SSE, is not lost in rounding, so the rate is the stationary
point to about 1e-12.  No rate outside [-8, 8] is reached: a search that
stops at the scan's edge is reported as not converged, in a message that
names the edge, and a flat profile (say all-zero data) as an undetermined rate.

The 95% confidence half-widths come from the linearized covariance at the
optimum, scaled by the residual variance and the two-sided 95% normal
quantile, or with ``bootstrap`` from the percentiles of seeded
residual-resampling draws, each refitted from the fitted rate.  Draws whose
rate was not bracketed are counted in the message, and the fit reads not
converged.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from .states import schmidt_gap

Z95 = 1.959963984540054  # two-sided 95% normal quantile
RATE_GRID = np.linspace(-8.0, 8.0, 1601)  # profile scan of a (M2, M4) or r (M3)


@dataclass(frozen=True)
class FitModel:
    name: str
    param_names: tuple[str, ...]
    predict: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]  # d predict / d params
    # (E, values (rows, n), init or None) -> parameters (rows, n_par), and per
    # row Brent's iterations and a note that is empty where the rate was bracketed
    solve: Callable[..., tuple[np.ndarray, Sequence[int], Sequence[str]]]

    def start(self, e, y) -> np.ndarray:
        """The global least-squares parameters: the best over the whole rate scan."""
        return self.solve(e, np.asarray(y)[None], None)[0][0]


def _over(num, den):
    """num / den, and 0 where den is 0 (a column that is all zeros)."""
    shape = np.broadcast(num, den).shape
    return np.divide(num, den, out=np.zeros(shape), where=den > 0)


def _perp(z, base, bb):
    """Each row of z with its component along base removed."""
    return z - np.outer(_over(z @ base, bb), base)


def _project(k, base, t, y_perp, bb):
    """exp(k*t), its part x_perp orthogonal to base, and y_perp's weight v on
    x_perp.  _perp and _over for one row, in scalar form for speed in Brent."""
    x = np.exp(k * t)
    x_perp = x - base * (x @ base / bb if bb > 0 else 0.0)
    xx = x_perp @ x_perp
    return x, x_perp, (x_perp @ y_perp / xx if xx > 0 else 0.0)


def _slope(k, base, t, y_perp, bb):
    """dSSE/dk = -2*v*r.(t*exp(k*t)) of one row: r is orthogonal to both columns."""
    x, x_perp, v = _project(k, base, t, y_perp, bb)
    return -2.0 * v * ((y_perp - v * x_perp) @ (t * x))


def _profile_solve(base, t, y, init_rate):
    """(k, v, u) minimising |y - u*base - v*exp(k*t)| for each row of y, with
    Brent's iterations and a note that is empty where it bracketed k."""
    bb = base @ base
    grid_perp = _perp(np.exp(np.multiply.outer(RATE_GRID, t)), base, bb)
    grid_inv = _over(1.0, np.einsum("ij,ij->i", grid_perp, grid_perp))
    near = None if init_rate is None else np.argmin(np.abs(RATE_GRID - init_rate))
    last = len(RATE_GRID) - 1
    solved = []
    for row, row_perp in zip(y, _perp(y, base, bb)):  # scan row by row: memory stays O(grid)
        c = grid_perp @ row_perp  # SSE(k) = |y_perp|**2 - c**2/|x_perp|**2 on the scan
        s = row_perp @ row_perp - c * c * grid_inv
        j = int(np.argmin(s) if near is None else near)
        while j < last and s[j + 1] < s[j]:  # downhill to a local minimum of the scan
            j += 1
        while j > 0 and s[j - 1] < s[j]:
            j -= 1
        args = (base, t, row_perp, bb)
        lo, hi = RATE_GRID[max(j - 1, 0)], RATE_GRID[min(j + 1, last)]
        down, up = _slope(lo, *args), _slope(hi, *args)
        k, its, note = RATE_GRID[j], 0, ""
        if down < 0.0 < up:
            k, info = brentq(_slope, lo, hi, args=args, full_output=True)
            its = info.iterations
        elif down == up == 0.0 or np.ptp(s) == 0.0:
            note = "the rate is undetermined (flat profile)"
        elif j in (0, last):
            note = f"rate stopped at {k:g}, the edge of the scan [-8, 8]"
        else:
            note = f"the profile slope does not change sign about rate {k:g}"
        x, _, v = _project(k, *args)
        solved.append(((k, v, (row - v * x) @ base / bb if bb > 0 else 0.0), its, note))
    kvu, iterations, notes = zip(*solved)
    return np.array(kvu), iterations, notes


def _m1(e, p):
    c, a = p
    return 3.0 * c * (a - schmidt_gap(e))


def _m1_jacobian(e, p):
    c, a = p
    return np.column_stack([3.0 * (a - schmidt_gap(e)), np.full(len(e), 3.0 * c)])


def _m1_solve(e, y, init=None):
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

    def solve(e, y, init=None):
        rate = None if init is None else init[where[0]]
        kvu, iterations, notes = _profile_solve(scale * shape(e), phi(e), y, rate)
        return kvu[:, order], iterations, notes

    return FitModel(name, names, predict, jacobian, solve)


def _one_plus_gap(e):
    return 1.0 + schmidt_gap(e)


MODELS: dict[str, FitModel] = {
    "M1": FitModel("M1", ("c", "a"), _m1, _m1_jacobian, _m1_solve),
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


def fit_curve(model, data, init=None, bootstrap: int = 0, bootstrap_seed: int = 0) -> FitResult:
    """Least-squares fit of a model family to (E, value) pairs.

    Without ``init`` the result is the global minimum over the rate scan;
    with it, the local minimum nearest init's rate.  Never raises on
    numerical trouble: a rate that Brent's method could not bracket (such
    as one at the scan's edge), in the fit or in any bootstrap draw, and
    singular normal equations are reported through ``converged`` and
    ``message``.  With ``bootstrap > 0`` the confidence half-widths come
    from that many seeded residual-resampling refits (percentile based)
    instead of the linearized covariance; a negative ``bootstrap`` raises
    ValueError.
    """
    mdl = _resolve_model(model)
    if bootstrap < 0:
        raise ValueError(f"bootstrap must be >= 0 refits, got {bootstrap}")
    e, y = _split_data(data)
    n_par = len(mdl.param_names)
    if len(e) < n_par + 1:
        raise ValueError(f"need at least {n_par + 1} data points, got {len(e)}")
    if init is not None:
        init = np.asarray(init, dtype=float)
        if init.shape != (n_par,):
            raise ValueError(f"init must have {n_par} entries, got {init.shape}")

    fitted, iterations, note = (out[0] for out in mdl.solve(e, y[None], init))
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

    if bootstrap > 0:  # every draw refitted by the same solve, from the fitted rate
        gen = np.random.default_rng(bootstrap_seed)
        y_star = base + gen.choice(y - base, size=(bootstrap, len(e)), replace=True)
        refits, _, notes = mdl.solve(e, y_star, fitted)
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
