"""The global start, the analytic Jacobians and the rate solver of the fit families."""

import tracemalloc
import warnings

import numpy as np
import pytest

from qbattery import fitting
from qbattery.fitting import MODELS, RATE_GRID, _perp, _roots, _slopes, fit_curve
from qbattery.states import schmidt_gap

from _oracles import scipy_brent_root
from qbhelpers import global_start

E_GRID = np.linspace(0.0, 1.0, 21)
TRUTHS = {
    "M1": (0.54, 1.0),
    "M2": (0.3, -1.2, 0.89),
    "M3": (0.91, -1.0, -0.5),
    "M4": (0.12, -0.10, 0.72),
}


def jittered(model, seed, noise=1e-3):
    """Truth jittered by up to +-20% per parameter, with Gaussian noise."""
    gen = np.random.default_rng(seed)
    truth = np.asarray(TRUTHS[model]) * gen.uniform(0.8, 1.2, size=len(TRUTHS[model]))
    y = MODELS[model].predict(E_GRID, truth) + gen.normal(scale=noise, size=E_GRID.shape)
    return truth, np.column_stack([E_GRID, y])


def vec(res):
    return np.array([res.params[n] for n in MODELS[res.model].param_names])


def test_m2_and_m3_match_written_out_formulas():
    e = np.array([0.0, 0.5, 1.0])
    g = schmidt_gap(e)
    assert np.allclose(
        MODELS["M2"].predict(e, np.array([0.3, -1.2, 0.89])),
        2.67 * (1.0 + g) - 1.2 * np.exp(0.3 * e),
    )
    assert np.allclose(
        MODELS["M3"].predict(e, np.array([0.91, -1.0, -0.5])),
        2.73 * (1.0 + g) - np.exp(-0.5 * e**3),
    )


@pytest.mark.parametrize("model", sorted(MODELS))
def test_jacobian_matches_central_differences(model):
    mdl = MODELS[model]
    gen = np.random.default_rng(5)
    e = np.linspace(0.0, 1.0, 11)
    for _ in range(20):
        p = gen.uniform(-3.0, 3.0, size=len(mdl.param_names))
        numeric = np.empty((len(e), len(p)))
        for j in range(len(p)):
            h = 1e-6 * max(1.0, abs(p[j]))
            step = np.zeros_like(p)
            step[j] = h
            numeric[:, j] = (mdl.predict(e, p + step) - mdl.predict(e, p - step)) / (2 * h)
        analytic = mdl.jacobian(e, p)
        assert analytic.shape == numeric.shape
        scale = np.max(np.abs(numeric), axis=0) + 1.0
        assert np.all(np.abs(analytic - numeric) <= 1e-7 * scale), (model, p)


def test_m2_start_is_the_global_minimum():
    # From the old endpoint start the iterations crossed into a wrong basin
    # near a = 2.37; the profile has further local minima near a = -1.89.
    truth = np.array(TRUTHS["M2"])
    data = np.column_stack([E_GRID, MODELS["M2"].predict(E_GRID, truth)])
    assert np.allclose(global_start("M2", *data.T), truth, atol=1e-8)
    assert fit_curve("M2", data).residual <= 1e-20


@pytest.mark.parametrize("model", ["M2", "M3", "M4"])
def test_start_beats_every_grid_point(model):
    _, data = jittered(model, seed=1)
    mdl = MODELS[model]
    x0 = global_start(model, *data.T)
    sse0 = np.sum((mdl.predict(E_GRID, x0) - data[:, 1]) ** 2)
    rate = {"M2": 0, "M3": 2, "M4": 0}[model]
    for k in RATE_GRID[::40]:
        # the best linear pair at this rate, by an independent lstsq solve
        p = x0.copy()
        p[rate] = k
        jac = mdl.jacobian(E_GRID, p)
        lin = [j for j in range(3) if j != rate]
        coef = np.linalg.lstsq(jac[:, lin], data[:, 1], rcond=None)[0]
        p[lin] = coef
        assert sse0 <= np.sum((mdl.predict(E_GRID, p) - data[:, 1]) ** 2) + 1e-15


@pytest.mark.parametrize("model", sorted(MODELS))
def test_jittered_recovery_and_fixed_point(model):
    names = MODELS[model].param_names
    for seed in range(100):
        truth, data = jittered(model, seed)
        first = fit_curve(model, data)
        assert first.converged, (model, seed)
        for name, value in zip(names, truth):
            assert abs(first.params[name] - value) <= 3 * first.confidence95[name], (model, seed)
        # the fitted curve, fitted again, gives back the same parameters
        second = fit_curve(model, np.column_stack([E_GRID, MODELS[model].predict(E_GRID, vec(first))]))
        assert np.max(np.abs(vec(second) - vec(first))) < 1e-8, (model, seed)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_zero_data_gives_finite_results(model):
    # M1's closed form a = -alpha/beta is 0/0 here (c = 0 leaves a free).
    res = fit_curve(model, np.column_stack([E_GRID, np.zeros_like(E_GRID)]))
    values = list(res.params.values()) + list(res.confidence95.values())
    assert np.all(np.isfinite(values))
    assert res.residual <= 1e-20


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("e0", [0.0, 1.0])
def test_single_abscissa_gives_finite_results(model, e0):
    # All columns are constant here; at E = 1 the gap column of M4 is zero.
    data = np.column_stack([np.full(5, e0), np.arange(5.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fit_curve(model, data)
    values = list(res.params.values()) + list(res.confidence95.values())
    assert np.all(np.isfinite(values))


def test_non_finite_row_is_named():
    data = np.column_stack([E_GRID, np.ones_like(E_GRID)])
    data[4, 1] = np.nan
    with pytest.raises(ValueError, match="row 5 of 21 is not finite"):
        fit_curve("M2", data)
    data[4, 1] = 1.0
    data[6, 0] = np.inf
    with pytest.raises(ValueError, match="row 7 of 21"):
        fit_curve("M1", data)


@pytest.mark.parametrize("model", ["M2", "M3", "M4"])
def test_bootstrap_refits_each_draw_as_a_fit(model):
    # each draw's parameters are those of a lone fit of the draw
    draws = 40
    for seed in range(6):
        _, data = jittered(model, seed, noise=1e-2)
        boot = fit_curve(model, data, bootstrap=draws)
        base = MODELS[model].predict(E_GRID, vec(boot))
        gen = np.random.default_rng(fitting.BOOTSTRAP_SEED)
        refits = []
        for _ in range(draws):
            y_star = base + gen.choice(data[:, 1] - base, size=len(E_GRID), replace=True)
            refits.append(vec(fit_curve(model, np.column_stack([E_GRID, y_star]))))
        lo, hi = np.percentile(refits, [2.5, 97.5], axis=0)
        half = np.array([boot.confidence95[n] for n in MODELS[model].param_names])
        assert np.allclose(0.5 * (hi - lo), half, rtol=1e-9, atol=0.0), (model, seed)


def test_rate_past_the_scan_is_reported():
    # The least-squares rate is 9, past RATE_GRID: the fit stops at its edge and says so.
    data = np.column_stack([E_GRID, MODELS["M2"].predict(E_GRID, np.array([9.0, -1.2, 0.89]))])
    res = fit_curve("M2", data)
    assert not res.converged
    assert res.params["a"] == RATE_GRID[-1]
    assert "edge of the scan [-8, 8]" in res.message


def test_bootstrap_draws_past_the_scan_are_reported():
    # Fitted a = 7.85; 21 of the draws' least-squares rates lie past RATE_GRID.
    _, data = jittered("M4", 17, noise=1e-2)
    assert fit_curve("M4", data).converged
    boot = fit_curve("M4", data, bootstrap=50)
    assert not boot.converged
    assert boot.message == "21 of 50 bootstrap draws: rate stopped at 8, the edge of the scan [-8, 8]"


def test_bootstrap_draws_leave_the_fitted_basin():
    # M4's rate is not identified at this noise: 14 of the 50 draws have their
    # least-squares rate above 1.5, in a second basin, and the interval says so.
    _, data = jittered("M4", 3, noise=1e-2)
    assert fit_curve("M4", data, bootstrap=50).confidence95["a"] >= 1.0


@pytest.mark.parametrize("model", ["M2", "M3", "M4"])
def test_flat_profile_is_reported_as_undetermined(model):
    res = fit_curve(model, np.column_stack([E_GRID, np.zeros_like(E_GRID)]))
    assert not res.converged
    assert "the rate is undetermined (flat profile)" in res.message
    assert "edge" not in res.message


def test_bootstrap_memory_does_not_scale_with_the_scan():
    # Each draw's scan over RATE_GRID is made and dropped in turn: a draw
    # costs its resample and its result, not 1,601 floats per array.
    _, data = jittered("M4", 3, noise=1e-2)
    tracemalloc.start()
    try:
        fit_curve("M4", data, bootstrap=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, peak


# (scale*shape(E), phi(E)) of M3 and M4, the two kinds of rate column
DESIGNS = {"M3": (3.0 * (1.0 + schmidt_gap(E_GRID)), E_GRID**3), "M4": (6.0 * schmidt_gap(E_GRID), E_GRID)}


def noisy_rows(model, gen, count):
    """Curves of truths scaled by -2 to 2, with noise of 1e-4 to 1e-1."""
    truths = np.asarray(TRUTHS[model]) * gen.uniform(-2.0, 2.0, size=(count, 3))
    y = np.array([MODELS[model].predict(E_GRID, p) for p in truths])
    return y + gen.normal(size=y.shape) * 10.0 ** gen.uniform(-4.0, -1.0, size=(count, 1))


@pytest.mark.parametrize("model", sorted(DESIGNS))
def test_slope_rows_equal_single_rows(model):
    base, t = DESIGNS[model]
    bb = base @ base
    gen = np.random.default_rng(4)
    y_perp = _perp(noisy_rows(model, gen, 50), base, bb)
    k = gen.uniform(-8.0, 8.0, size=50)
    alone = [_slopes(k[i : i + 1], base, t, y_perp[i : i + 1], bb)[0] for i in range(50)]
    assert np.array_equal(_slopes(k, base, t, y_perp, bb), alone)
    assert alone == [one_row_slope(k[i], base, t, y_perp[i], bb) for i in range(50)]


def one_row_slope(k, base, t, y_perp, bb):
    """dSSE/dk of one row written with 1-D ``@`` products."""
    x = np.exp(k * t)
    x_perp = x - base * (x @ base / bb)
    v = x_perp @ y_perp / (x_perp @ x_perp)
    return -2.0 * v * ((y_perp - v * x_perp) @ (t * x))


def slope_brackets(gen, count):
    """M4 slope lanes over brackets of 1 to 8 steps of 0.4 about a sign change
    of each row's slope, so that lanes finish in different rounds: the lane
    function f(rate, lane) and the ends lo, hi with f(lo) < 0 < f(hi), where
    lo > hi about a maximum of SSE."""
    base, t = DESIGNS["M4"]
    bb = base @ base
    y_perp = _perp(noisy_rows("M4", gen, count), base, bb)
    coarse = RATE_GRID[::40]
    negative = np.signbit([_slopes(np.full(count, k), base, t, y_perp, bb) for k in coarse])
    rows, lo, hi = [], [], []
    for i in range(count):
        changes = np.flatnonzero(negative[1:, i] != negative[:-1, i])
        if changes.size:
            c = gen.choice(changes)
            a, b = gen.integers(max(c - 3, 0), c + 1), gen.integers(c + 1, min(c + 5, len(coarse)))
            a, b = (a, b) if negative[a, i] != negative[b, i] else (c, c + 1)
            a, b = (a, b) if negative[a, i] else (b, a)  # f(lo) < 0 < f(hi)
            rows, lo, hi = rows + [i], lo + [coarse[a]], hi + [coarse[b]]
    rows = np.array(rows)

    def f(rate, lane):
        return _slopes(rate, base, t, y_perp[rows[lane]], bb)

    return f, np.array(lo), np.array(hi)


def test_root_search_agrees_with_scipy_brentq():
    f, lo, hi = slope_brackets(np.random.default_rng(2), 1200)
    lanes = np.arange(len(lo))
    assert len(lanes) >= 1000
    roots, rounds = _roots(f, lo, hi, f(lo, lanes), f(hi, lanes))
    ends = np.sort([lo, hi], axis=0)
    expected = [scipy_brent_root(lambda k: f(np.array([k]), lane[None])[0], *ends[:, lane])[0] for lane in lanes]
    assert np.max(np.abs(roots - expected)) <= 1e-11
    assert len(set(rounds.tolist())) >= 5 and rounds.max() < fitting.ROOT_MAXITER


def test_root_search_rows_equal_single_rows():
    f, lo, hi = slope_brackets(np.random.default_rng(3), 300)
    lanes = np.arange(len(lo))
    roots, rounds = _roots(f, lo, hi, f(lo, lanes), f(hi, lanes))
    alone = [_roots(lambda x, _: f(x, lane[None]), lo[lane : lane + 1], hi[lane : lane + 1],
                    f(lo[lane : lane + 1], lane[None]), f(hi[lane : lane + 1], lane[None])) for lane in lanes]
    assert roots.tolist() == [float(r[0]) for r, _ in alone]
    assert rounds.tolist() == [int(n[0]) for _, n in alone]


def test_root_search_lane_at_the_iteration_cap(monkeypatch):
    # Lane 0 is a step over [-1, 1e300], which takes 82 rounds; with a cap of
    # 20 it stops at its 20th iterate.  Lane 1 is linear and ends at its root.
    monkeypatch.setattr(fitting, "ROOT_MAXITER", 20)
    iterates = []

    def f(x, lane):
        iterates.append(x[lane == 0])
        return np.where(lane == 0, np.where(x < 0.1, -1.0, 1.0), x - 0.3)

    lo, hi = np.array([-1.0, 0.0]), np.array([1e300, 1.0])
    roots, rounds = _roots(f, lo, hi, f(lo, np.arange(2)), f(hi, np.arange(2)))
    assert rounds[0] == 20 and roots[0] == iterates[-1][0] != 0.1
    assert rounds[1] < 20 and abs(roots[1] - 0.3) < 1e-15


def test_unconverged_brent_is_reported(monkeypatch):
    # a cap of 2 rounds stops every lane of these fits early
    monkeypatch.setattr(fitting, "ROOT_MAXITER", 2)
    _, data = jittered("M4", 0)
    res = fit_curve("M4", data)
    assert (res.iterations, res.converged) == (2, False)
    assert res.message == "the rate's root search did not converge in 2 iterations"
    res = fit_curve("M4", data, bootstrap=5)
    assert not res.converged
    assert res.message.endswith("5 of 5 bootstrap draws: the rate's root search did not converge in 2 iterations")
