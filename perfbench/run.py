"""The qbattery benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep_trajectory --seed 1 --seconds 45 --trace 0

Run it from the repository root; it imports the package from src/.  It
times a fresh interpreter importing qbattery.cli (set-up), then starts one
more fresh interpreter (perfbench/child.py) that calls qbattery.cli.main in
a closed loop for --seconds and checks every output.  End-to-end times are
scaled by the host's speed, sampled alongside (calibrate.py).  With --trace 0 it
reports the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones.  It prints a table, an environment record, and as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
Everything it writes goes to perfbench/_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 9
IMPORT_ONLY = "import time, qbattery.cli; print(time.monotonic())"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
    return env


def setup_seconds(count: int) -> tuple[list[float], list[list[float]]]:
    """Fresh interpreter start to `import qbattery.cli` returning, `count`
    times, and calibration samples taken around each (calibrate.py).  One
    run before them fills the bytecode cache, which users do not pay for
    on every run."""
    samples, host = [], calibrate.sample()
    for _ in range(count + 1):
        started = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_ONLY], env=child_env(),
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(out.stdout.split()[-1]) - started)
        host += calibrate.sample()
    return samples[1:], host


def git(*args: str) -> str | None:
    if shutil.which("git") is None:
        return None
    out = subprocess.run(["git", *args], capture_output=True, text=True, timeout=30)
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    revision = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if revision else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_revision": revision,
        "git_dirty": bool(status) if revision else None,
        "loadavg_start": os.getloadavg(),
    }


def tail(values: list[float]) -> float:
    """The highest sample with at least ten samples above it.  With fewer
    than eleven samples none has, and the lowest, which has the most, is
    taken: the rank stays n - 10 clipped at 1, so it does not jump when a
    run has one iteration more or less."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, 0)]


def end_to_end(result: dict, setup: list[float], setup_host: list[list[float]]) -> dict:
    """Times are scaled by the calibration samples taken during the same
    stretch (calibrate.py)."""
    its = result["iterations"]
    wall_k, cpu_k = calibrate.scales(result["host"])
    walls = [r["wall"] * wall_k for r in its]
    attempted = sum(r["attempted"] for r in its)
    not_ok = sum(r["failed"] + r["missed"] for r in its)
    return {
        "setup_s": statistics.median(setup) * calibrate.scales(setup_host)[0],
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail(walls),
        "cpu_s": statistics.median(r["cpu"] for r in its) * cpu_k,
        "points_per_s": attempted / sum(walls),
        "us_per_eval": 1e6 * wall_k * sum(r["search_wall"] for r in its) / sum(r["evals"] for r in its),
        "ok_frac": 1.0 - not_ok / attempted,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def per_layer(result: dict, units: dict) -> dict:
    """Counts from the first traced iteration (which is replayed to check
    that they repeat); times as the median over traced iterations."""
    layers = result["layers"]
    out = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        out[name] = values[0] if units.get(name) == "count" else statistics.median(values)
    out.update(result["pooled"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="minimal sizes, for the smoke test")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "qbattery", "cli.py")):
        print("error: run from the repository root; src/qbattery not found", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = environment()
    # Set-up is an end-to-end metric; a traced run does not time it.
    setup, setup_host = setup_seconds(SETUP_SAMPLES) if not args.trace else ([], [])
    result_path = os.path.join(work, "child.json")
    command = [
        sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", work, "--result", result_path,
    ] + (["--tiny"] if args.tiny else [])
    # The child's stdout goes to stderr, so that the result stays the last line here.
    subprocess.run(command, env=child_env(), stdout=sys.stderr, check=True, timeout=args.seconds + 90)
    with open(result_path) as fh:
        result = json.load(fh)

    metrics = per_layer(result, units) if args.trace else end_to_end(result, setup, setup_host)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    its = result["iterations"]
    attempted = sum(r["attempted"] for r in its)
    failed = sum(r["failed"] for r in its)
    missed = sum(r["missed"] for r in its)
    nonzero = sum(code != 0 for r in its for code in r["codes"])
    mismatches = result.get("repeat_mismatches", {})
    env["loadavg_end"] = os.getloadavg()
    env["threads_in_manifests"] = sorted({t for r in its for t in r["threads"] if t is not None})
    problems = [p for r in its for p in r["problems"]][:5]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  iterations {len(its)}"
          f"  operations {attempted}  failed {failed} ({failed / attempted:.4f})"
          f"  misses {missed}  nonzero exits {nonzero}")
    if not args.trace:
        pieces = [w for w, _ in result["host"]]
        print(f"  wall_s_tail is sample {max(len(its) - 10, 1)} of {len(its)} in ascending order;"
              f" unscaled wall_s {statistics.median(r['wall'] for r in its):.6g} s,"
              f" setup_s {statistics.median(setup):.6g} s; {len(pieces)} calibration pieces"
              f" in the loop,"
              f" mean {1e3 * statistics.mean(pieces):.4g} ms (nominal {1e3 * calibrate.NOMINAL_S:.4g} ms)")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    for problem in problems:
        print(f"  failed check: {problem}")
    for name, values in mismatches.items():
        print(f"  count did not repeat: {name} {values}")
    print("environment " + json.dumps(env))
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"metrics": metrics, "units": units, "environment": env,
                   "setup_samples": setup, "setup_host": setup_host, "host": result.get("host"),
                   "iterations": [{k: v for k, v in r.items() if k != "spans"} for r in its]}, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0 and nonzero == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
