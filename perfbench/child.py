"""One benchmark run inside a fresh interpreter.

Imports qbattery.cli, then calls its main() in a closed loop (one client,
the next command only after the previous one returned) until the time
budget is spent, and writes what it measured to a JSON file.  run.py starts
this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

import calibrate
import qbattery.cli as cli
import tracing
import workloads

CALIBRATE_EVERY_S = 0.5
MODULES = {
    name: sys.modules[name]
    for name in ("qbattery.cli", "qbattery.collision", "qbattery.ergotropy", "qbattery.linalg", "qbattery.nonmarkov")
}
# lru caches whose statistics are per-layer metrics, looked up before any
# wrapping replaces the module attributes.
NAMED_CACHES = {
    "collision": getattr(MODULES["qbattery.collision"], "collision_propagator", None),
    "nonmarkov_grid": getattr(MODULES["qbattery.nonmarkov"], "_propagator_grid", None),
}
ALL_CACHES = [
    value
    for name, module in sys.modules.items()
    if name.startswith("qbattery")
    for value in vars(module).values()
    if callable(getattr(value, "cache_clear", None))
]


def cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


class Runner:
    """Runs iterations of one workload, untraced (search and fit spans only)
    or fully traced."""

    def __init__(self, workload: str, seed: int, work: str, tiny: bool) -> None:
        self.workload, self.seed, self.work, self.tiny = workload, seed, work, tiny
        self.tracer = tracing.Tracer()
        self.saved = tracing.install(self.tracer, MODULES, full=False)
        # Calibration samples of the host's speed (calibrate.py), taken
        # between commands at least CALIBRATE_EVERY_S apart; None when off.
        self.host: list | None = None
        self.calibrated_at = 0.0

    def calibrate(self, due: bool = True) -> None:
        if self.host is not None and (not due or time.perf_counter() - self.calibrated_at >= CALIBRATE_EVERY_S):
            self.host += calibrate.sample()
            self.calibrated_at = time.perf_counter()

    def iteration(self, index: int) -> workloads.Iteration:
        return workloads.iteration(self.workload, self.seed, index, self.work, self.tiny)

    def run(self, it: workloads.Iteration, threads: int | None = None, traced: bool = False) -> dict:
        if traced:
            tracing.uninstall(self.saved)
            self.saved = tracing.install(self.tracer, MODULES, full=True)
        main = self.tracer.wrap("cli.main", cli.main) if traced else cli.main
        first_span, first_objective = len(self.tracer.spans), len(self.tracer.objectives)
        record = {"wall": 0.0, "search_wall": 0.0, "cpu": 0.0, "codes": [], "bytes": 0, "threads": [],
                  "cache": {name: [0, 0] for name in NAMED_CACHES}}
        try:
            for argv, output in zip(it.commands, it.outputs):
                manifest = output + ".manifest.json"
                for path in (output, manifest):
                    if os.path.exists(path):
                        os.remove(path)
                if threads is not None and argv[0] in workloads.POOLED:
                    argv = argv + ["--threads", str(threads)]
                # Each command starts with cold caches, as in a new process.
                for cache in ALL_CACHES:
                    cache.cache_clear()
                self.calibrate()
                cpu0, t0 = cpu_seconds(), time.perf_counter()
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:
                    traceback.print_exc()
                    code = 1
                wall = time.perf_counter() - t0
                record["wall"] += wall
                if argv[0] in workloads.SEARCHING:
                    record["search_wall"] += wall
                record["cpu"] += cpu_seconds() - cpu0
                record["codes"].append(code)
                # Builds are the distinct keys the command cached: two pool
                # threads that miss on one key at once both build it, so
                # the miss count does not repeat from run to run.
                for name, cache in NAMED_CACHES.items():
                    if cache is not None:
                        info = cache.cache_info()
                        builds = info.currsize if info.currsize < info.maxsize else info.misses
                        record["cache"][name][0] += info.hits
                        record["cache"][name][1] += builds
                for path in (output, manifest):
                    if os.path.exists(path):
                        record["bytes"] += os.path.getsize(path)
                if os.path.exists(manifest):
                    with open(manifest) as fh:
                        record["threads"].append(json.load(fh).get("threads"))
        finally:
            if traced:
                tracing.uninstall(self.saved)
                self.saved = tracing.install(self.tracer, MODULES, full=False)
        spans = self.tracer.spans[first_span:]
        outcome = it.check()
        record.update(attempted=outcome.attempted, failed=outcome.failed, missed=outcome.missed,
                      flagged=outcome.flagged, unconverged=outcome.unconverged,
                      recovered=outcome.recovered, problems=outcome.problems)
        record["evals"] = sum(s.info["evals"] for s in spans if s.name == "optimize.search")
        if traced:
            record["spans"] = spans
            record["objectives"] = self.tracer.objectives[first_objective:]
        return record


def layer_metrics(record: dict) -> dict:
    """Per-layer values of one traced iteration."""
    spans = record["spans"]
    own = tracing.self_times(spans)
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def busy(*names, own_only=False):
        return sum(own[s.id] if own_only else s.duration for n in names for s in by[n])

    objectives = by["ergotropy.objective"] + by["nonmarkov.objective"]
    states = ("states.fixed_entanglement_state", "states.locally_passive_state", "states.projector")
    return {
        "collision.loop_s": busy("collision.loop", own_only=True),
        "collision.steps": sum(s.info["steps"] for s in by["collision.loop"]),
        "collision.propagator_hits": record["cache"]["collision"][0],
        "collision.propagator_builds": record["cache"]["collision"][1],
        "linalg.density_checks": len(by["linalg.is_density_matrix"]),
        "linalg.density_check_s": busy("linalg.is_density_matrix"),
        "ergotropy.calls": len(by["ergotropy.global"]) + len(by["ergotropy.local"]),
        "ergotropy.self_s": busy("ergotropy.global", "ergotropy.local", own_only=True),
        "states.calls": sum(len(by[n]) for n in states),
        "states.self_s": busy(*states, own_only=True),
        "optimize.searches": len(by["optimize.search"]),
        "optimize.evals": len(objectives),
        "optimize.evals_per_point": len(objectives) / len(by["optimize.search"]),
        "optimize.self_s": busy("optimize.search", own_only=True),
        "optimize.unconverged": sum(not s.info["converged"] for s in by["optimize.search"]),
        "nonmarkov.pairs": len(by["nonmarkov.pair_from_angles"]),
        "nonmarkov.distance_s": busy("nonmarkov.objective", own_only=True),
        "nonmarkov.grid_builds": record["cache"]["nonmarkov_grid"][1],
        "fitting.fits": len(by["fitting.fit"]),
        "fitting.iterations": sum(s.info["iterations"] for s in by["fitting.fit"]),
        "cli.command_s": busy("cli.main", own_only=True),
        "cli.write_s": busy("cli.write"),
        "cli.bytes_written": record["bytes"],
    }


def per_call_us(fn, batches: int = 5, batch_s: float = 0.005) -> float:
    """Median time of one call, from batches long enough to time reliably."""
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= batch_s:
            break
        n *= 2
    times = [elapsed / n]
    for _ in range(batches - 1):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times) * 1e6


def isolated_timings(it: workloads.Iteration, objectives: list) -> dict:
    """Layers timed alone on the workload's own inputs (ROADMAP aim 1's list).
    The objective time is the mean over the searches of one traced
    iteration, whichever thread ran them."""
    from qbattery.collision import collide_once, collision_propagator, evolve
    from qbattery.ergotropy import global_ergotropy, local_ergotropy
    from qbattery.fitting import fit_curve
    from qbattery.model import battery_hamiltonian

    rho, p = it.probe
    h = battery_hamiltonian(p)
    build = getattr(collision_propagator, "__wrapped__", collision_propagator)
    out = {
        "collision.propagator_build_us": per_call_us(lambda: build(p)),
        "collision.collide_us": per_call_us(lambda: collide_once(rho, p)),
        "collision.evolve30_us": per_call_us(lambda: evolve(rho, 30, p)),
        "ergotropy.global_us": per_call_us(lambda: global_ergotropy(rho, h)),
        "ergotropy.local_us": per_call_us(lambda: local_ergotropy(rho, p)),
        "optimize.objective_us": 0.0,
        "fitting.fit_ms": 0.0,
    }
    if objectives:
        out["optimize.objective_us"] = statistics.mean(
            per_call_us(lambda: objective(np.zeros(dim))) for objective, dim in objectives
        )
    if it.fit_sample:
        model, data, bootstrap = it.fit_sample
        out["fitting.fit_ms"] = per_call_us(lambda: fit_curve(model, data, bootstrap=bootstrap), batches=3) / 1e3
    return out


def measure(runner: Runner, seconds: float) -> dict:
    """Closed loop with tracing off and the host's speed sampled between
    commands, for the end-to-end metrics."""
    start = time.perf_counter()
    iterations, index, last = [], 0, 0.0
    runner.host = []
    while not iterations or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        record = runner.run(runner.iteration(index))
        last = time.perf_counter() - t0
        iterations.append(record)
        index += 1
    runner.calibrate(due=False)
    return {"iterations": iterations, "host": runner.host}


def trace(runner: Runner, seconds: float, spans_path: str) -> dict:
    """Rounds of (untraced, traced, --threads 1) on the same inputs, a replay
    of the first traced iteration to check that counts repeat, then the
    isolated layer timings."""
    start = time.perf_counter()
    untraced, traced, single, index, last = [], [], [], 0, 0.0
    while not traced or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        it = runner.iteration(index)
        untraced.append(runner.run(it))
        traced.append(runner.run(it, traced=True))
        single.append(runner.run(it, threads=1))
        last = time.perf_counter() - t0
        index += 1
    replay = runner.run(runner.iteration(0), traced=True)
    layers = [layer_metrics(r) for r in traced]
    repeat_keys = ("optimize.evals", "linalg.density_checks", "collision.propagator_builds", "fitting.iterations")
    replayed = layer_metrics(replay)
    mismatches = {k: [layers[0][k], replayed[k]] for k in repeat_keys if layers[0][k] != replayed[k]}

    spans = [s for r in traced for s in r["spans"]]
    objective_us = [s.duration * 1e6 for s in spans if s.name.endswith(".objective")]
    fit_ms = [s.duration * 1e3 for s in spans if s.name == "fitting.fit"]
    wall = statistics.median(r["wall"] for r in untraced)
    threads = [t for r in untraced for t in r["threads"] if t is not None]
    pooled_values = {
        "optimize.objective_us_p50": float(np.percentile(objective_us, 50)) if objective_us else 0.0,
        "optimize.objective_us_p99": float(np.percentile(objective_us, 99)) if objective_us else 0.0,
        "optimize.unconverged_frac": sum(r["unconverged"] for r in untraced) / sum(r["flagged"] for r in untraced),
        "fitting.fit_ms_p50": float(np.percentile(fit_ms, 50)) if fit_ms else 0.0,
        "fitting.recovered": traced[0]["recovered"],
        "cli.threads": max(threads, default=0),
        "cli.threads1_wall_s": statistics.median(r["wall"] for r in single),
        "cli.pool_speedup": statistics.median(r["wall"] for r in single) / wall,
        "trace.overhead": statistics.median(r["wall"] for r in traced) / wall - 1.0,
    }
    pooled_values.update(isolated_timings(runner.iteration(0), traced[0]["objectives"]))
    with open(spans_path, "w") as fh:
        for r in traced + [replay]:
            del r["objectives"]
            for s in r.pop("spans"):
                fh.write(json.dumps(s.__dict__) + "\n")
    return {
        "iterations": untraced + traced + single + [replay],
        "layers": layers,
        "pooled": pooled_values,
        "repeat_mismatches": mismatches,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    runner = Runner(args.workload, args.seed, args.work, args.tiny)
    if args.trace:
        spans_path = os.path.join(args.work, "spans.jsonl")
        result = trace(runner, args.seconds, spans_path)
    else:
        result = measure(runner, args.seconds)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
