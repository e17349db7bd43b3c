"""Start points, settings and simplex search of the multi-start search, and
the import cost the package no longer carries."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qbattery.ergotropy as ergotropy
import qbattery.nonmarkov as nonmarkov
from qbattery.model import ModelParams
from qbattery.optimize import MAX_STARTS, OptimizerSettings, _nelder_mead, multistart_maximize, start_points

from _oracles import scipy_nelder_mead, scipy_start_points

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qbattery"
COUNTS = (1, 2, 9, 24, 64)  # one start is the zero vector alone
# plain seeds, seeds past 2**32 and 2**64, and the per-point seeds commands derive
SEEDS = [
    *range(160), 2**32 + 1, 2**40 + 7, 2**63 - 1, 2**64 + 3,
    *(OptimizerSettings(seed=base).for_grid_index(idx).seed
      for base in (1, 7, 701, 20240901) for idx in (0, 1, 2, 5, 11, 29, 30, 269, 1000, 99_999)),
]


class TestStartPoints:
    @pytest.mark.parametrize("dim", range(1, 11))
    def test_equal_to_scipy_halton(self, dim):
        # every (seed, dim) pair is drawn once, each at one of the start counts in turn
        assert len(SEEDS) >= 200
        for i, seed in enumerate(SEEDS):
            settings = OptimizerSettings(starts=COUNTS[(i + dim) % len(COUNTS)], seed=seed)
            assert np.array_equal(start_points(dim, settings), scipy_start_points(dim, settings)), (seed, settings)

    # past scipy's table of the first 168 primes, and far along the sequence
    @pytest.mark.parametrize("dim, starts", [(200, 5), (10, 5000)])
    def test_equal_to_scipy_halton_at_scale(self, dim, starts):
        settings = OptimizerSettings(starts=starts, seed=3)
        assert np.array_equal(start_points(dim, settings), scipy_start_points(dim, settings))


class TestSettings:
    @pytest.mark.parametrize("field, value", [
        ("starts", 0), ("starts", -1), ("starts", MAX_STARTS + 1), ("starts", 100_000_000_000), ("max_evals", 0),
    ])
    def test_rejects_impossible_values(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            OptimizerSettings(**{field: value})

    def test_accepts_the_limit(self):
        assert OptimizerSettings(starts=MAX_STARTS).for_grid_index(3).starts == MAX_STARTS


def _objective(module, run):
    """The objective that `run` hands to module's multi-start search."""
    caught = []

    def search(objective, dim, settings=None):
        caught.append(objective)
        return np.zeros(dim), 0.0, None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "multistart_maximize", search)
        run()
    return lambda x: -caught[0](x)  # minimized, as the search minimizes it


OBJECTIVES = {  # name: (dimension, objective, evaluation cap of the seed sweep)
    # one angle: a search shrinks only where rounding near the peak defeats a contraction;
    # this flat peak (Lambda about 7e-3 after 3 collisions) does so within the cap test's seeds
    "G": (1, lambda: _objective(ergotropy, lambda: ergotropy.max_work_fixed_entanglement(
        0.6, 3, ModelParams(k=0.8, delta_t=0.7), "G")), 2000),
    # a binding cap, as in the benchmark's blp commands; 10 grid points keep it cheap
    "BLP": (10, lambda: _objective(nonmarkov, lambda: nonmarkov.blp_measure(
        ModelParams(delta_t=1.0), grid_points=10)), 100),
}


def _same(port, oracle):
    """Bitwise equal point and value, and equal evaluation counts."""
    (x, value, evals), (ox, ovalue, oevals) = port, oracle[:3]
    return x.tobytes() == ox.tobytes() and np.float64(value).tobytes() == np.float64(ovalue).tobytes() and evals == oevals


class TestNelderMead:
    @pytest.mark.parametrize("name", OBJECTIVES)
    def test_equal_to_scipy_over_seeds(self, name):
        dim, make, cap = OBJECTIVES[name]
        fun = make()
        for seed in range(200):
            x0 = start_points(dim, OptimizerSettings(starts=2, seed=seed))[1]
            assert _same(_nelder_mead(fun, x0, cap), scipy_nelder_mead(fun, x0, cap)), seed

    @pytest.mark.parametrize("name", OBJECTIVES)
    def test_equal_to_scipy_when_the_cap_cuts_a_step(self, name):
        dim, make, _ = OBJECTIVES[name]
        fun = make()
        for seed in range(40):  # the first start whose search both expands and shrinks
            x0 = start_points(dim, OptimizerSettings(starts=2, seed=seed))[1]
            steps = {kind: start for start, kind in reversed(scipy_nelder_mead(fun, x0, 400)[3])}  # first of each kind
            if {"expand", "shrink"} <= steps.keys():
                break
        else:
            pytest.fail("no start both expands and shrinks")
        # reflected then cut before expanding; reflected, contracted, one vertex shrunk then cut
        for cap in (1, dim, dim + 1, steps["expand"] + 1, steps["shrink"] + 3):
            assert _same(_nelder_mead(fun, x0, cap), scipy_nelder_mead(fun, x0, cap)), (seed, cap)

    def test_flat_blp_start_breaks_ties_as_scipy(self):
        """At delta_t = 1.0 the zero start's simplex holds equal values, which
        np.argsort orders differently from a stable sort."""
        fun = _objective(nonmarkov, lambda: nonmarkov.blp_measure(ModelParams(delta_t=1.0), grid_points=20))
        x0 = np.zeros(10)
        first = np.array([fun(x0), *(fun(0.00025 * e) for e in np.eye(10))])
        assert not np.array_equal(np.argsort(first), np.argsort(first, kind="stable"))
        for cap in (11, 12, 300, 2000):
            assert _same(_nelder_mead(fun, x0, cap), scipy_nelder_mead(fun, x0, cap)), cap


class TestConverged:
    @pytest.mark.parametrize("name", OBJECTIVES)
    def test_one_start_reads_scipys_success(self, name):
        """A one-start search is converged exactly when scipy's Nelder-Mead
        from the same start reports success: when it stopped on its
        tolerances before max_evals evaluations, not when the cap cut it off."""
        dim, make, cap = OBJECTIVES[name]
        fun = make()
        for seed in range(10):
            shift = start_points(dim, OptimizerSettings(starts=2, seed=seed))[1]
            shifted = lambda x: fun(x + shift)  # a one-start search starts at zero
            _, _, needed, _, stopped = scipy_nelder_mead(shifted, np.zeros(dim), cap)
            # a cap of exactly `needed` still ends the search before its tolerance check; needed + 1 does not
            edges = {needed - 1, needed, needed + 1} if stopped else set()
            for max_evals in sorted({1, dim + 1, cap, *edges}):
                success = scipy_nelder_mead(shifted, np.zeros(dim), max_evals)[4]
                settings = OptimizerSettings(starts=1, max_evals=max_evals)
                report = multistart_maximize(lambda x: -shifted(x), dim, settings)[2]
                assert report.converged is success, (seed, max_evals, needed)


class TestLockStep:
    """multistart_maximize runs every start's search in lock-step, one
    batched objective call per round (the optimize module docstring)."""

    @pytest.mark.parametrize("name", OBJECTIVES)
    def test_batch_rows_equal_single_points(self, name):
        dim, make, _ = OBJECTIVES[name]
        fun = make()
        gen = np.random.default_rng(17)
        assert np.ndim(fun(np.zeros(dim))) == 0  # one point, one value, as perfbench times it
        for size in [*range(1, 13), *gen.integers(1, 13, 28)]:
            points = gen.uniform(-2 * np.pi, 4 * np.pi, (size, dim))
            if size % 5 == 0:
                points[0] = 0.0  # the zero start
            batch = fun(points)
            assert batch.shape == (size,)
            for row, value in zip(points, batch):
                single = fun(row)
                assert np.ndim(single) == 0 and np.float64(single).tobytes() == value.tobytes(), (size, row)

    @pytest.mark.parametrize("name", OBJECTIVES)
    def test_equal_to_each_start_alone(self, name):
        """The same best point, value, best start and evaluation count as
        every start's own search run one after another, bit for bit, with
        one objective call per round: as many as the longest search takes."""
        dim, make, cap = OBJECTIVES[name]
        fun = make()
        for seed in range(50):
            settings = OptimizerSettings(starts=9, seed=seed, max_evals=(cap, 25, 60, 11 + 7 * seed)[seed % 4])
            alone = [_nelder_mead(fun, x0, settings.max_evals) for x0 in start_points(dim, settings)]
            values = np.array([-value for _, value, _ in alone])
            best = int(np.argmax(values))
            calls = []

            def objective(x):
                calls.append(len(x))
                return -fun(x)

            x, value, report = multistart_maximize(objective, dim, settings)
            assert x.tobytes() == alone[best][0].tobytes(), seed
            assert np.float64(value).tobytes() == values[best].tobytes(), seed
            assert report.evaluations == sum(int(evals) for *_, evals in alone) == sum(calls), seed
            assert len(calls) == max(int(evals) for *_, evals in alone), seed


class TestImportCost:
    ENV = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}

    def _child(self, code, cwd=None):
        # a child interpreter: this one already holds scipy through _oracles
        return subprocess.run([sys.executable, "-c", code], env=self.ENV, cwd=cwd,
                              capture_output=True, text=True, check=True).stdout.strip()

    def test_cli_import_leaves_scipy_unloaded(self):
        code = "import sys, qbattery.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        assert self._child(code) == "[]"

    def test_commands_run_without_scipy(self, tmp_path):
        """sweep, trajectory and blp exit 0 where importing scipy fails."""
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "from qbattery.cli import main\n"
            "print([main(argv.split()) for argv in [\n"
            "    'sweep --seed 1 --quantity G --entanglements 0.5 --collisions 0,2 --starts 2 --max-evals 30 --output s.csv',\n"
            "    'trajectory --seed 1 --collisions 2 --substeps 4 --output t.csv',\n"
            "    'blp --seed 1 --grid-points 10 --starts 2 --max-evals 30 --output b.csv',\n"
            "]])"
        )
        assert self._child(code, cwd=tmp_path) == "[0, 0, 0]"
        assert all((tmp_path / name).stat().st_size > 0 for name in ("s.csv", "t.csv", "b.csv"))

    def test_fit_runs_without_scipy(self, tmp_path):
        """fit, Brent's method included, needs no scipy either: it exits 0
        where importing scipy fails and writes its result and manifest."""
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "from qbattery.cli import main\n"
            "print([main(argv.split()) for argv in [\n"
            "    'sweep --seed 1 --quantity G_p --entanglements 0:1:0.25 --collisions 3 --output g.csv',\n"
            "    'fit --model M4 --input g.csv --n 3 --bootstrap 10 --output f.json',\n"
            "]])"
        )
        assert self._child(code, cwd=tmp_path) == "[0, 0]"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "f.json", "f.json.manifest.json", "g.csv", "g.csv.manifest.json"]
        assert set(json.loads((tmp_path / "f.json").read_text())["params"]) == {"a", "b", "c"}

    def test_package_source_imports_no_scipy(self):
        """No source file under src/ imports scipy, at module level or in a
        function body, so no command loads it."""
        found = []
        for path in sorted(PACKAGE.parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "scipy"]
        assert found == []
