"""The global start and the analytic Jacobians of the fit families."""

import tracemalloc
import warnings

import numpy as np
import pytest

from qbattery.fitting import MODELS, RATE_GRID, fit_curve
from qbattery.states import schmidt_gap

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
    assert np.allclose(MODELS["M2"].start(*data.T), truth, atol=1e-8)
    wrong = fit_curve("M2", data, init=np.array([2.37, -0.09, 0.70]))
    assert wrong.residual > 1e-3
    assert fit_curve("M2", data).residual <= 1e-20


@pytest.mark.parametrize("model", ["M2", "M3", "M4"])
def test_start_beats_every_grid_point(model):
    _, data = jittered(model, seed=1)
    mdl = MODELS[model]
    x0 = mdl.start(*data.T)
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
        second = fit_curve(model, data, init=vec(first))
        assert np.max(np.abs(vec(second) - vec(first))) < 1e-10, (model, seed)


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
def test_bootstrap_refits_each_draw_as_a_fit_from_init(model):
    draws = 40
    for seed in range(3):
        _, data = jittered(model, seed, noise=1e-2)
        boot = fit_curve(model, data, bootstrap=draws, bootstrap_seed=seed)
        fitted = vec(boot)
        base = MODELS[model].predict(E_GRID, fitted)
        gen = np.random.default_rng(seed)
        refits = []
        for _ in range(draws):
            y_star = base + gen.choice(data[:, 1] - base, size=len(E_GRID), replace=True)
            refits.append(vec(fit_curve(model, np.column_stack([E_GRID, y_star]), init=fitted)))
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
    # Fitted a = 7.85; half the draws' least-squares rates lie past RATE_GRID.
    _, data = jittered("M4", 17, noise=1e-2)
    assert fit_curve("M4", data).converged
    boot = fit_curve("M4", data, bootstrap=50, bootstrap_seed=17)
    assert not boot.converged
    assert boot.message == "25 of 50 bootstrap draws: rate stopped at 8, the edge of the scan [-8, 8]"


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
