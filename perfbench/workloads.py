"""The benchmark's two workloads, built from four command groups.

Each group turns (seed, iteration) into the qbattery commands a user
would type, with every input drawn from that seed, and checks what the
commands wrote against references that do not come from the timed code
path: closed forms, the library's boundary values, and recorded bounds.
Why each workload exists, and what it should and should not move, is in
README.md next to this file.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

# Dense-sampling lower bounds for the pair-maximized backflow, copied from
# tests/test_acceptance.py, where they were recorded from tests/_oracles.py
# dense_backflow_lower_bound(delta_t, ModelParams()) with 100000 Halton
# pairs, 200 grid points, seed 20240901.
DENSE_BACKFLOW_BOUND = {1.0: 0.4060439725345834, 1.6: 0.9935525865435997}

# Fit truths used by tests/test_fitting.py and tests/test_acceptance.py; the
# workload jitters each parameter by up to +-20% around them.
FIT_TRUTHS = {
    "M1": (0.54, 1.0),
    "M2": (0.3, -1.2, 0.89),
    "M3": (0.91, -1.0, -0.5),
    "M4": (0.12, -0.10, 0.72),
}
FIT_GRID = np.linspace(0.0, 1.0, 21)
FIT_NOISE = 1e-3

# Reference misses that are known defects of the program, by fit family.
# From its default start, fit_curve takes every M2 set to a wrong local
# minimum (residual RMS about 25x the noise, a near 2 instead of 0.3); the
# failing tier-1 test test_m2_and_m3_recovery has the same cause.  Such a
# miss still counts against ok_frac and fitting.recovered, but not as a
# failed operation; every other check on an M2 result still applies.
KNOWN_MISSES = {"M2"}

# A least-squares estimate from data with Gaussian noise of known sigma has
# |f(fitted) - f(truth)|**2 / sigma**2 distributed about chi-squared with one
# degree per parameter; above 7 sigma that happens less than once in 1e9
# fits.  A fit within it whose truth still lies outside 3x its reported
# confidence95 is right, and only its 50-draw bootstrap interval is narrow
# (about once in 2,000 M1/M3/M4 fits): a miss, not a failure.
CURVE_SIGMAS = 7.0

TRAJECTORY_DELTA_TS = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8)


def gap(e):
    """Schmidt gap g(E) = sqrt(2**(E+1) - 2**(2E)), written out independently."""
    return np.sqrt(np.clip(2.0 ** (np.asarray(e) + 1.0) - 2.0 ** (2.0 * np.asarray(e)), 0.0, None))


FIT_FORMULAS = {
    "M1": lambda e, c, a: 3.0 * c * (a - gap(e)),
    "M2": lambda e, a, b, c: 3.0 * c * (1.0 + gap(e)) + b * np.exp(a * e),
    "M3": lambda e, p, q, r: 3.0 * p * (1.0 + gap(e)) + q * np.exp(r * e**3),
    "M4": lambda e, a, b, c: 6.0 * c * gap(e) + b * np.exp(a * e),
}


@dataclass
class Outcome:
    """Operations attempted in one iteration, how many failed a check, and
    how many missed a reference without failing (see KNOWN_MISSES and
    CURVE_SIGMAS)."""

    attempted: int = 0
    failed: int = 0
    missed: int = 0
    flagged: int = 0  # operations that report whether they converged
    unconverged: int = 0
    recovered: int = 0  # fits whose every parameter is within 3x confidence95 of its truth
    problems: list = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.missed += other.missed
        self.flagged += other.flagged
        self.unconverged += other.unconverged
        self.recovered += other.recovered
        self.problems = (self.problems + other.problems)[:5]

    def record(self, ok: bool, what: str, converged: bool | None = None, miss: bool = False) -> None:
        self.attempted += 1
        if converged is not None:
            self.flagged += 1
            self.unconverged += not converged
        if not ok:
            if miss:
                self.missed += 1
            else:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(what)


@dataclass
class Iteration:
    """One closed-loop step: the commands, their outputs and their checks."""

    commands: list  # argv lists for qbattery.cli.main, without --threads
    outputs: list  # main output path of each command
    check: Callable[[], Outcome]
    probe: tuple  # (rho, ModelParams) for the isolated layer timings
    fit_sample: tuple | None = None  # (model, data, bootstrap) for one isolated fit


def _cli_seed(rng) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


def _read_rows(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def sweep_deep(rng, out: str, tiny: bool) -> Iteration:
    from qbattery.ergotropy import max_work_fixed_entanglement
    from qbattery.model import ModelParams
    from qbattery.states import fixed_entanglement_state, projector

    es = [round(float(rng.uniform(0.1, 0.5)), 3), round(float(rng.uniform(0.5, 0.9)), 3)]
    ns = (0, 4) if tiny else (0, 30)
    path = os.path.join(out, "sweep.csv")
    # The evaluation cap binds on most starts, so every iteration does about
    # the same work whatever E the seed draws.
    argv = [
        "sweep", "--seed", _cli_seed(rng), "--quantity", "G",
        "--entanglements", ",".join(map(str, es)),
        "--collisions", ",".join(map(str, ns)),
        "--starts", "2", "--max-evals", "200", "--output", path,
    ]
    p = ModelParams()

    def check() -> Outcome:
        rows = {(float(r["E"]), int(r["n"])): r for r in _read_rows(path)}
        result = Outcome()
        for e in es:
            for n in ns:
                row = rows.get((e, n))
                if row is None:
                    result.record(False, f"missing row E={e} n={n}")
                    continue
                v = float(row["value"])
                if n == 0:
                    ok = abs(v - 3.0 * (1.0 + gap(e))) <= 1e-3
                else:
                    lo = max_work_fixed_entanglement(e, n, p, "G_p").value
                    ok = lo - 1e-9 <= v <= 6.0 + 1e-9
                result.record(ok, f"G(E={e}, n={n}) = {v!r}", row["converged"] == "true")
        return result

    return Iteration([argv], [path], check, (projector(fixed_entanglement_state(es[0], np.zeros(6))), p))


def blp_window(rng, out: str, tiny: bool) -> Iteration:
    from qbattery.model import ModelParams
    from qbattery.nonmarkov import pair_from_angles

    seed = _cli_seed(rng)
    # One command per optimization difficulty.  Q_N(0.6) is 0 for every
    # pair and start 0 already reaches the bound at 1.6, so one start
    # suffices there; at 1.0 start 0 lands in a basin near 0.17, and about
    # one capped Halton start in four stays below the bound (77 of 330 over
    # 30 seeds), so eight of them keep a miss rare (about 0.23**8 per
    # iteration).
    groups = [((0.6, 1.6), "1")] + ([] if tiny else [((1.0,), "9")])
    paths = [os.path.join(out, f"blp_{k}.csv") for k in range(len(groups))]
    commands = [
        [
            "blp", "--seed", seed, "--delta-ts", ",".join(map(str, dts)), "--grid-points", "200",
            "--starts", starts, "--max-evals", "300", "--output", path,
        ]
        for (dts, starts), path in zip(groups, paths)
    ]

    def check() -> Outcome:
        rows = {float(r["delta_t"]): r for path in paths for r in _read_rows(path)}
        result = Outcome()
        for dt in (dt for dts, _ in groups for dt in dts):
            row = rows.get(dt)
            if row is None:
                result.record(False, f"missing row delta_t={dt}")
                continue
            q = float(row["Q_N"])
            ok = q <= 1e-6 if dt == 0.6 else q >= DENSE_BACKFLOW_BOUND[dt] - 1e-4
            result.record(ok, f"Q_N({dt}) = {q!r}", row["converged"] == "true")
        return result

    s1, _ = pair_from_angles(np.zeros(10))
    return Iteration(commands, paths, check, (np.outer(s1, s1.conj()), ModelParams(delta_t=1.0)))


def trajectory_fine(rng, out: str, tiny: bool) -> Iteration:
    from qbattery.ergotropy import ergotropy_after_collisions
    from qbattery.model import ModelParams
    from qbattery.states import fixed_entanglement_state, locally_passive_state, projector

    e = round(float(rng.uniform(0.2, 0.8)), 3)
    dts = (0.2, 1.0) if tiny else TRAJECTORY_DELTA_TS
    n, substeps = (2, 4) if tiny else (10, 30)
    seed = _cli_seed(rng)
    starts = {
        "G_p": (projector(locally_passive_state(e)), "global"),
        "L": (projector(fixed_entanglement_state(e, np.zeros(6))), "local"),
    }
    paths = {q: os.path.join(out, f"trajectory_{q}.csv") for q in starts}
    commands = [
        [
            "trajectory", "--seed", seed, "--quantity", q, "--entanglement", str(e),
            "--delta-ts", ",".join(map(str, dts)), "--collisions", str(n),
            "--substeps", str(substeps), "--output", paths[q],
        ]
        for q in starts
    ]
    p = ModelParams()

    def check() -> Outcome:
        result = Outcome()
        for q, (rho0, mode) in starts.items():
            blocks: dict[float, list[float]] = {}
            for r in _read_rows(paths[q]):
                blocks.setdefault(float(r["delta_t"]), []).append(float(r["value"]))
            for dt in dts:
                values = blocks.get(dt, [])
                expected = n * substeps + 1
                for _ in range(expected - len(values)):
                    result.record(False, f"{q} delta_t={dt}: missing samples")
                p_dt = replace(p, delta_t=dt)
                for j, v in enumerate(values[:expected]):
                    ok = True
                    if j % substeps == 0:
                        ref = ergotropy_after_collisions(rho0, j // substeps, p_dt, mode)
                        ok = abs(v - ref) <= 1e-10
                    if dt <= 0.4 and j > 0:
                        ok = ok and v <= values[j - 1] + 1e-12
                    result.record(ok, f"{q} delta_t={dt} sample {j} = {v!r}")
        return result

    return Iteration(
        commands, list(paths.values()), check,
        (starts["G_p"][0], replace(p, delta_t=1.0)),
    )


def fit_families(rng, out: str, tiny: bool) -> Iteration:
    from qbattery.model import ModelParams
    from qbattery.states import locally_passive_state, projector

    per_family = 1 if tiny else 3
    commands, outputs, truths = [], [], []
    samples = []
    for model, base in FIT_TRUTHS.items():
        for k in range(per_family):
            truth = np.asarray(base) * rng.uniform(0.8, 1.2, size=len(base))
            y = FIT_FORMULAS[model](FIT_GRID, *truth) + rng.normal(scale=FIT_NOISE, size=FIT_GRID.shape)
            data = os.path.join(out, f"fit_{model}_{k}.csv")
            with open(data, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["E", "value"])
                writer.writerows(("%.17g" % a, "%.17g" % b) for a, b in zip(FIT_GRID, y))
            result = os.path.join(out, f"fit_{model}_{k}.json")
            commands.append(["fit", "--model", model, "--input", data, "--output", result, "--bootstrap", "50"])
            outputs.append(result)
            truths.append((model, truth))
            samples.append((model, np.column_stack([FIT_GRID, y]), 50))

    def check() -> Outcome:
        outcome = Outcome()
        for path, (model, truth) in zip(outputs, truths):
            try:
                with open(path) as fh:
                    fit = json.load(fh)
            except (OSError, ValueError):
                outcome.record(False, f"{model}: no result")
                continue
            what = f"{model}: truth {truth.tolist()} fitted {fit['params']} +- {fit['confidence95']}"
            names = list(fit["params"])
            half = [fit["confidence95"].get(name) for name in names]
            valid = (
                len(names) == len(truth)
                and all(np.isfinite(fit["params"][name]) for name in names)
                and all(h is not None and np.isfinite(h) and h >= 0.0 for h in half)
                and np.isfinite(fit["residual"])
            )
            if not valid:
                outcome.record(False, what + " is not a valid result")
                continue
            fitted = [fit["params"][name] for name in names]
            ok = all(abs(f - t) <= 3.0 * h for f, t, h in zip(fitted, truth, half))
            off = np.linalg.norm(FIT_FORMULAS[model](FIT_GRID, *fitted) - FIT_FORMULAS[model](FIT_GRID, *truth))
            narrow = off <= CURVE_SIGMAS * FIT_NOISE
            outcome.record(ok, what, fit["converged"], miss=model in KNOWN_MISSES or narrow)
            outcome.recovered += ok
        return outcome

    return Iteration(
        commands, outputs, check,
        (projector(locally_passive_state(0.5)), ModelParams()), samples[0],
    )


def combine(*parts):
    """One workload whose iteration runs the commands of every part in turn,
    each with its own inputs, and checks all of them."""

    def build(rng, out: str, tiny: bool) -> Iteration:
        its = [part(rng, out, tiny) for part in parts]

        def check() -> Outcome:
            total = Outcome()
            for it in its:
                total.add(it.check())
            return total

        return Iteration(
            [argv for it in its for argv in it.commands],
            [path for it in its for path in it.outputs],
            check,
            its[0].probe,
            next((it.fit_sample for it in its if it.fit_sample), None),
        )

    return build


# Two workloads, each a pair of the four commands, so that a run is long
# enough to outlast the minute-long slow spells of a shared host (README.md).
# A change to the collision layer runs in the first and is bypassed by the
# second; a change to nonmarkov or fitting the other way round.
WORKLOADS = {
    "sweep_trajectory": combine(sweep_deep, trajectory_fine),
    "blp_fit": combine(blp_window, fit_families),
}

# Commands that take --threads (fit has no thread pool), and those whose
# time goes to multi-start searches, which us_per_eval divides by.
POOLED = {"sweep", "blp", "trajectory"}
SEARCHING = {"sweep", "blp"}


def iteration(name: str, seed: int, index: int, out: str, tiny: bool) -> Iteration:
    """Inputs for step `index` of a run; the same (seed, index) gives the same inputs."""
    rng = np.random.default_rng([seed, index])
    os.makedirs(out, exist_ok=True)
    return WORKLOADS[name](rng, out, tiny)
