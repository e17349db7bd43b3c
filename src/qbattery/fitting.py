"""Least-squares fitting of work-versus-entanglement sweeps.

Four fit families are supported, all built on the entanglement gap
g(E) = sqrt(2**(E+1) - 2**(2E)):

    M1: 3*c*(a - g(E))                     params (c, a)
    M2: 3*c*(1 + g(E)) + b*exp(a*E)        params (a, b, c)
    M3: 3*p*(1 + g(E)) + q*exp(r*E**3)     params (p, q, r)
    M4: 6*c*g(E) + b*exp(a*E)              params (a, b, c)

Every family is separable (variable projection: Golub & Pereyra, SIAM J.
Numer. Anal. 10, 413 (1973); O'Leary & Rust, Comput. Optim. Appl. 54, 579
(2013)), and the default start uses that.  M1 is linear in (3*c*a, -3*c)
and is solved in closed form.  M2, M3 and M4 are one form,
scale*u*shape(E) + v*exp(k*phi(E)), built by ``_separable``: the rate k is
a in M2 and M4 (phi(E) = E) and r in M3 (phi(E) = E**3), and u and v enter
linearly.  For a fixed k, u and v come from a linear least-squares solve,
which leaves a one-dimensional profile SSE(k).  The profile is scanned on
RATE_GRID, k in [-8, 8] in steps of 0.01 (1601 points), and the best grid
point is refined by a bracketed root search (Brent) of the profile's
analytic slope dSSE/dk between the point's two neighbours.  The slope,
unlike differences of SSE, is not lost in rounding near the minimum, so
the start is the stationary point to about 1e-12.  It is the global
least-squares minimum over the bracket and needs no initial guess; a rate
outside [-8, 8] is reached only by the polish below.

From that start (or from an explicit ``init``) damped Gauss-Newton
(Levenberg-Marquardt) iterations with each family's analytic Jacobian
polish all parameters together.  The reported 95% confidence half-widths
come from the linearized covariance at the optimum, scaled by the residual
variance and the two-sided 95% normal quantile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq, least_squares

from .states import schmidt_gap

Z95 = 1.959963984540054  # two-sided 95% normal quantile
RATE_GRID = np.linspace(-8.0, 8.0, 1601)  # profile scan of a (M2, M4) or r (M3)
MAX_NFEV = 500  # Levenberg-Marquardt evaluation budget per fit or refit
STEP_TOL = 1e-10  # relative step size that ends the iterations


@dataclass(frozen=True)
class FitModel:
    name: str
    param_names: tuple[str, ...]
    predict: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]  # d predict / d params
    start: Callable[[np.ndarray, np.ndarray], np.ndarray]  # global start from (E, value)


def _over(num, den):
    """num / den, and 0 where den is 0 (a column that is all zeros)."""
    shape = np.broadcast(num, den).shape
    return np.divide(num, den, out=np.zeros(shape), where=den > 0)


def _profile(base, t, y, rates):
    """Best u*base + v*exp(k*t) fit to y for each rate k.

    Returns the residual rows (len(rates), len(y)) and the coefficients u, v.
    The base column does not depend on k, so it is projected out once; a
    rate whose exponential column lies in the span of base gets v = 0.
    """
    bb = base @ base
    y_perp = y - base * _over(base @ y, bb)
    x = np.exp(np.multiply.outer(rates, t))
    x_perp = x - np.outer(_over(x @ base, bb), base)
    v = _over(x_perp @ y_perp, np.einsum("ij,ij->i", x_perp, x_perp))
    u = _over((y - v[:, None] * x) @ base, bb)
    return y_perp - v[:, None] * x_perp, u, v


def _profile_start(base, t, y) -> tuple[float, float, float]:
    """(k, v, u) minimising |y - u*base - v*exp(k*t)| over k in the grid bracket."""

    def slope(k):
        # dSSE/dk = -2*v*r.(t*exp(k*t)): r is orthogonal to both columns.
        r, _, v = _profile(base, t, y, np.array([k]))
        return -2.0 * v[0] * (r[0] @ (t * np.exp(k * t)))

    r = _profile(base, t, y, RATE_GRID)[0]
    i = int(np.argmin(np.einsum("ij,ij->i", r, r)))
    k = RATE_GRID[i]
    lo, hi = RATE_GRID[max(i - 1, 0)], RATE_GRID[min(i + 1, len(RATE_GRID) - 1)]
    if slope(lo) < 0.0 < slope(hi):
        k = brentq(slope, lo, hi)
    _, u, v = _profile(base, t, y, np.array([k]))
    return float(k), float(v[0]), float(u[0])


def _m1(e, p):
    c, a = p
    return 3.0 * c * (a - schmidt_gap(e))


def _m1_jacobian(e, p):
    c, a = p
    return np.column_stack([3.0 * (a - schmidt_gap(e)), np.full(len(e), 3.0 * c)])


def _m1_start(e, y):
    """Closed form: y = alpha + beta*g with alpha = 3*c*a and beta = -3*c."""
    basis = np.column_stack([np.ones_like(e), schmidt_gap(e)])
    (alpha, beta), *_ = np.linalg.lstsq(basis, y, rcond=None)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = -alpha / beta
    # c = 0 leaves a undetermined (the curve is 0 for every a); keep it finite.
    return np.array([-beta / 3.0, a if np.isfinite(a) else 0.0])


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

    def start(e, y):
        return np.array(_profile_start(scale * shape(e), phi(e), y))[order]

    return FitModel(name, names, predict, jacobian, start)


def _one_plus_gap(e):
    return 1.0 + schmidt_gap(e)


MODELS: dict[str, FitModel] = {
    "M1": FitModel("M1", ("c", "a"), _m1, _m1_jacobian, _m1_start),
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


def _bootstrap_half_widths(
    mdl: FitModel,
    e: np.ndarray,
    y: np.ndarray,
    fitted: np.ndarray,
    samples: int,
    seed: int,
) -> np.ndarray:
    """95% half-widths from seeded residual-resampling refits."""
    gen = np.random.default_rng(seed)
    base = mdl.predict(e, fitted)
    residuals = y - base
    draws = np.empty((samples, len(fitted)))
    for b in range(samples):
        y_star = base + gen.choice(residuals, size=len(e), replace=True)
        res = least_squares(
            lambda p: mdl.predict(e, p) - y_star,
            fitted,
            jac=lambda p: mdl.jacobian(e, p),
            method="lm",
            xtol=STEP_TOL,
            max_nfev=MAX_NFEV,
        )
        draws[b] = res.x
    lo, hi = np.percentile(draws, [2.5, 97.5], axis=0)
    return 0.5 * (hi - lo)


def fit_curve(
    model,
    data,
    init=None,
    bootstrap: int = 0,
    bootstrap_seed: int = 0,
) -> FitResult:
    """Least-squares fit of a model family to (E, value) pairs.

    Without ``init`` the iterations start from the family's ``start``, the
    global minimum over the rate bracket; with it they start from ``init`` and
    find the nearest local minimum.  Never raises on numerical trouble: a
    singular linearization or an exhausted iteration budget is reported
    through ``converged`` and ``message``.  With ``bootstrap > 0`` the
    confidence half-widths come from that many seeded residual-resampling
    refits (percentile based) instead of the linearized covariance; a
    negative ``bootstrap`` raises ValueError.
    """
    mdl = _resolve_model(model)
    if bootstrap < 0:
        raise ValueError(f"bootstrap must be >= 0 refits, got {bootstrap}")
    e, y = _split_data(data)
    n_par = len(mdl.param_names)
    if len(e) < n_par + 1:
        raise ValueError(f"need at least {n_par + 1} data points, got {len(e)}")
    x0 = np.asarray(init, dtype=float) if init is not None else mdl.start(e, y)
    if x0.shape != (n_par,):
        raise ValueError(f"init must have {n_par} entries, got {x0.shape}")

    res = least_squares(
        lambda p: mdl.predict(e, p) - y,
        x0,
        jac=lambda p: mdl.jacobian(e, p),
        method="lm",
        xtol=STEP_TOL,
        ftol=np.finfo(float).eps,
        gtol=np.finfo(float).eps,
        max_nfev=MAX_NFEV,
    )
    sse = float(2.0 * res.cost)
    dof = len(e) - n_par
    converged = bool(res.status > 0)
    message = res.message if not converged else ""

    jtj = res.jac.T @ res.jac
    try:
        cov = np.linalg.inv(jtj) * (sse / dof)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj) * (sse / dof)
        converged = False
        message = (message + "; " if message else "") + "singular normal equations"
    half = Z95 * np.sqrt(np.clip(np.diag(cov), 0.0, None))

    if bootstrap > 0:
        half = _bootstrap_half_widths(mdl, e, y, res.x, bootstrap, bootstrap_seed)

    return FitResult(
        model=mdl.name,
        params=dict(zip(mdl.param_names, (float(v) for v in res.x))),
        residual=sse,
        confidence95=dict(zip(mdl.param_names, (float(v) for v in half))),
        iterations=int(res.nfev),
        converged=converged,
        message=message,
    )
