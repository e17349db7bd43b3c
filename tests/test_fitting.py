import numpy as np
import pytest

from qbattery.fitting import MODELS, fit_curve
from qbattery.states import schmidt_gap

E_GRID = np.linspace(0.0, 1.0, 21)


def synth(model, params, noise=0.0, seed=0):
    vec = np.asarray(params, dtype=float)
    y = MODELS[model].predict(E_GRID, vec)
    if noise:
        y = y + np.random.default_rng(seed).normal(scale=noise, size=y.shape)
    return np.column_stack([E_GRID, y])


class TestSyntheticRecovery:
    def test_m1_exact_recovery(self):
        data = synth("M1", [0.54, 1.0])
        res = fit_curve("M1", data)
        assert abs(res.params["c"] - 0.54) <= 1e-6
        assert abs(res.params["a"] - 1.0) <= 1e-6
        assert res.residual <= 1e-12
        assert res.converged

    def test_constant_zero_data(self):
        data = np.column_stack([E_GRID, np.zeros_like(E_GRID)])
        res = fit_curve("M1", data)
        assert abs(res.params["c"]) <= 1e-10
        assert res.residual <= 1e-20

    def test_m4_noisy_recovery_within_confidence(self):
        truth = {"a": 0.12, "b": -0.10, "c": 0.72}
        data = synth("M4", [truth["a"], truth["b"], truth["c"]], noise=1e-3, seed=42)
        res = fit_curve("M4", data)
        assert res.converged
        for name, value in truth.items():
            assert abs(res.params[name] - value) <= 3 * res.confidence95[name], name

    def test_m2_and_m3_recovery(self):
        res2 = fit_curve("M2", synth("M2", [0.3, -1.2, 0.89]))
        assert np.allclose(
            [res2.params["a"], res2.params["b"], res2.params["c"]],
            [0.3, -1.2, 0.89],
            atol=1e-5,
        )
        res3 = fit_curve("M3", synth("M3", [0.91, -1.0, -0.5]))
        assert np.allclose(
            [res3.params["p"], res3.params["q"], res3.params["r"]],
            [0.91, -1.0, -0.5],
            atol=1e-5,
        )


class TestFitProperties:
    def test_refit_is_fixed_point(self):
        # the fitted curve, fitted again, gives back the same parameters
        data = synth("M4", [0.12, -0.1, 0.72], noise=1e-3, seed=3)
        first = fit_curve("M4", data)
        second = fit_curve("M4", synth("M4", [first.params[n] for n in MODELS["M4"].param_names]))
        moved = max(
            abs(second.params[n] - first.params[n]) for n in MODELS["M4"].param_names
        )
        assert moved < 1e-8

    def test_confidence_scales_with_noise(self):
        res_hi = fit_curve("M1", synth("M1", [0.54, 1.0], noise=1e-2, seed=11))
        res_lo = fit_curve("M1", synth("M1", [0.54, 1.0], noise=1e-3, seed=11))
        for name in ("c", "a"):
            ratio = res_hi.confidence95[name] / res_lo.confidence95[name]
            assert 5.0 <= ratio <= 20.0, (name, ratio)

    def test_result_predict_round_trip(self):
        data = synth("M1", [0.54, 1.0])
        res = fit_curve("M1", data)
        vec = np.array([res.params[name] for name in MODELS["M1"].param_names])
        assert np.allclose(MODELS["M1"].predict(E_GRID, vec), data[:, 1], atol=1e-6)

    def test_confidence_nonnegative_residual_nonnegative(self):
        data = synth("M2", [0.029, -1.2, 0.89], noise=3e-3, seed=23)
        res = fit_curve("M2", data)
        assert res.residual >= 0
        assert all(v >= 0 for v in res.confidence95.values())

    def test_bootstrap_confidence_option(self):
        data = synth("M4", [0.12, -0.1, 0.72], noise=1e-3, seed=3)
        plain = fit_curve("M4", data)
        boot = fit_curve("M4", data, bootstrap=80)
        assert boot.params == plain.params
        for name in ("a", "b", "c"):
            assert boot.confidence95[name] > 0
            ratio = boot.confidence95[name] / plain.confidence95[name]
            assert 0.2 <= ratio <= 5.0, (name, ratio)


class TestFitErrors:
    def test_unknown_model(self):
        with pytest.raises(ValueError):
            fit_curve("M9", synth("M1", [0.5, 1.0]))

    def test_too_few_points(self):
        data = np.array([[0.0, 1.0], [0.5, 0.8]])
        with pytest.raises(ValueError):
            fit_curve("M1", data)

    def test_out_of_range_abscissa(self):
        data = np.array([[0.0, 1.0], [0.5, 0.8], [1.4, 0.2]])
        with pytest.raises(ValueError):
            fit_curve("M1", data)


def test_model_shapes_match_documentation():
    e = np.array([0.0, 0.5, 1.0])
    g = schmidt_gap(e)
    assert np.allclose(MODELS["M1"].predict(e, np.array([2.0, 0.7])), 6.0 * (0.7 - g))
    assert np.allclose(
        MODELS["M4"].predict(e, np.array([0.2, -0.3, 1.1])),
        6.6 * g - 0.3 * np.exp(0.2 * e),
    )
