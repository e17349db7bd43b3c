"""Start points and settings of the multi-start search, and the import cost
they no longer carry."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qbattery.optimize import MAX_STARTS, OptimizerSettings, start_points

from _oracles import scipy_start_points

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


class TestImportCost:
    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # a child interpreter: this one already holds scipy.stats through _oracles
        env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
        code = "import sys, qbattery.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_package_source_imports_no_scipy_stats(self):
        found = []
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}" for name in names
                          if name == "scipy.stats" or name.startswith("scipy.stats.")]
        assert found == []
