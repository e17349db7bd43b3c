"""Command line front end: sweeps, trajectories, backflow scans, fits.

Commands
--------
sweep        work records over an (E, n, k) grid for one quantity
trajectory   intra-collision work values on a fine time grid, per delta_t
blp          non-Markovianity measure per delta_t (coupling forced to 1
             unless overridden)
fit          least-squares fit of a sweep CSV to one of the model families

Configuration comes from an INI file (sections [model], [optimizer],
[sweep], [trajectory], [blp]); command line flags override file values.
Every simulation command requires a seed; there is no entropy default.
Outputs are CSV/JSON with full double precision, and each run writes a
manifest recording the resolved configuration, so identical config + seed
reproduce byte-identical data files.  Grid points run one after another,
each with its own seed derived from the base seed and the point's index.

Exit codes: 0 success, 2 usage or configuration error (or out of memory),
3 numerical contract violation.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
import time
from dataclasses import asdict, replace
from decimal import Decimal

import numpy as np

from . import __version__
from .collision import fine_trajectory
from .ergotropy import MODES, QUANTITIES, max_work_fixed_entanglement, trajectory_work
from .ergotropy import global_ergotropy, local_ergotropy  # noqa: F401  unused; perfbench wraps them by this module's name
from .fitting import fit_curve
from .linalg import ContractViolation
from .model import ModelParams
from .nonmarkov import blp_measure
from .optimize import OptimizerSettings
from .states import fixed_entanglement_state, locally_passive_state, projector, schmidt_gap


class UsageError(ValueError):
    """Bad flags or configuration; maps to exit code 2 like any ValueError."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Exit 2 with one stderr line, like every other usage error."""
        self.exit(2, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# configuration


DEFAULTS = {
    "model": asdict(ModelParams()),
    "optimizer": {key: value for key, value in asdict(OptimizerSettings()).items() if key != "seed"},
    "sweep": {
        "entanglements": "0.0,0.2,0.4,0.6,0.8",
        "collisions": "0:30",
        "couplings": "",
        "quantity": "G_p",
    },
    "trajectory": {
        "entanglement": 0.6,
        "delta_ts": "0.4,1.2,1.4,1.6",
        "collisions": 5,
        "substeps": 200,
        "quantity": "G_p",
    },
    "blp": {"delta_ts": "0.2:1.8:0.2", "grid_points": 200, "k": 1.0, "collisions": 1},
}


# Ranges are counted before they are expanded, so a slip such as 0:1e12
# stops at once instead of filling memory.  A million items take about 0.5 s
# and 30 MB to expand, and are minutes of work even for the cheapest points
# (a G_p sweep point, about 0.2 ms on a 2-core VM).
MAX_LIST_ITEMS = 1_000_000


def parse_number_list(text: str, integer: bool = False) -> list:
    """Comma-separated numbers; an item 'lo:hi' or 'lo:hi:step' expands to an
    inclusive range (default step 1).  Ranges are stepped in decimal, so each
    item is the float of its decimal value (0:1:0.1 gives 0.3, not
    0.30000000000000004).  A list may hold at most MAX_LIST_ITEMS items."""
    out: list = []
    for item in (t.strip() for t in str(text).split(",")):
        if not item:
            continue
        try:
            if ":" in item:
                parts = item.split(":")
                if len(parts) not in (2, 3):
                    raise ValueError(item)
                lo, hi = Decimal(parts[0]), Decimal(parts[1])
                step = Decimal(parts[2]) if len(parts) == 3 else Decimal(1)
                if step <= 0 or hi < lo:
                    raise ValueError(item)
                # (hi - lo) // step raises past Decimal's 28 digits where / rounds, so count such a span as too long
                count = int((hi - lo) // step) + 1 if (hi - lo) / step <= MAX_LIST_ITEMS else MAX_LIST_ITEMS + 1
                values = (float(lo + i * step) for i in range(count))
            else:
                count, values = 1, [float(item)]
        except (ValueError, ArithmeticError):
            raise UsageError(f"cannot parse list item {item!r}")
        if len(out) + count > MAX_LIST_ITEMS:
            raise UsageError(f"list item {item!r} takes the list past {MAX_LIST_ITEMS} items")
        out.extend(values)
    if integer:
        if not all(np.isfinite(v) and abs(v - round(v)) <= 1e-9 for v in out):
            raise UsageError(f"expected integers in list {text!r}")
        return [int(round(v)) for v in out]
    return out


def _read_ini(path: str) -> configparser.ConfigParser:
    ini = configparser.ConfigParser(interpolation=None)  # a '%' is a plain character
    if not os.path.isfile(path):
        raise UsageError(f"config file not found or not a regular file: {path}")
    try:
        if ini.read(path) != [path]:
            raise UsageError(f"cannot read config file {path}")
    except configparser.Error as exc:
        raise UsageError(f"cannot parse config file {path}: {' '.join(str(exc).splitlines())}")
    return ini


def resolve_config(args) -> dict:
    """Merge defaults, INI file and command line flags (flags win).

    A flag's argparse dest is its "section.key"; an absent flag is None.
    """
    cfg = {section: dict(values) for section, values in DEFAULTS.items()}
    if args.config is not None:
        ini = _read_ini(args.config)
        for section in ini.sections():
            if section not in cfg:
                raise UsageError(f"unknown config section [{section}]")
            for key, raw in ini.items(section):
                if key not in cfg[section] and (section, key) != ("optimizer", "seed"):
                    raise UsageError(f"unknown config option [{section}] {key}")
                kind = type(cfg[section].get(key, 0))  # the seed is an int
                try:
                    cfg[section][key] = kind(raw)
                except ValueError:
                    raise UsageError(f"[{section}] {key} = {raw!r} is not a valid {kind.__name__}")

    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot and value is not None:
            cfg[section][key] = value

    try:
        cfg["params"] = ModelParams(**cfg["model"])
    except ValueError as exc:
        raise UsageError(f"invalid model parameters: {exc}")
    if "seed" not in cfg["optimizer"]:
        raise UsageError("a seed is required (flag --seed or [optimizer] seed)")
    if cfg["optimizer"]["seed"] < 0:
        raise UsageError(f"the seed must be >= 0, got {cfg['optimizer']['seed']}")
    return cfg


# ---------------------------------------------------------------------------
# output helpers


def _cell_format(value) -> str:
    if isinstance(value, bool):  # before int: bool is an int
        return "%s"
    if isinstance(value, (float, np.floating)):
        return "%.17g"
    if isinstance(value, (int, np.integer)):
        return "%d"
    return "%s"


def write_csv(path: str, header: list[str], rows) -> None:
    """Write header and rows as CSV with CRLF line ends, as csv.writer does.

    Each row goes through one %-format built from the first row's cell
    types: %.17g for floats, %d for ints, plain text for strings, true/false
    for booleans.  So every column must keep one type and no cell may need
    CSV quoting; the commands write only numbers, booleans and quantity
    names.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fmt = bools = None
        for row in rows:
            if fmt is None:
                fmt = ",".join(map(_cell_format, row)) + "\r\n"
                bools = [i for i, v in enumerate(row) if isinstance(v, bool)]
            if bools:
                row = list(row)
                for i in bools:
                    row[i] = "true" if row[i] else "false"
            fh.write(fmt % tuple(row))


def write_manifest(path: str, command: str, started: float, outputs: list[str], **fields) -> None:
    """Write the manifest at path: command, version, outputs and wall time,
    plus the command's own fields."""
    manifest = {
        "command": command,
        "version": __version__,
        "outputs": outputs,
        "wall_time_s": time.time() - started,
        **fields,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands: each writes its data files; fit returns its manifest fields


def cmd_sweep(args, cfg: dict) -> None:
    params: ModelParams = cfg["params"]
    quantity = cfg["sweep"]["quantity"]
    e_list = parse_number_list(cfg["sweep"]["entanglements"])
    n_list = parse_number_list(cfg["sweep"]["collisions"], integer=True)
    k_list = parse_number_list(cfg["sweep"]["couplings"]) or [params.k]
    if not e_list:
        raise UsageError("empty entanglement list")
    if not n_list:
        raise UsageError("empty collision list")
    if min(n_list) < 0:
        raise UsageError(f"collisions must be >= 0, got {min(n_list)}")
    schmidt_gap(e_list)  # every E in [0, 1] before any search
    base_settings = OptimizerSettings(**cfg["optimizer"])
    couplings = [replace(params, k=k) for k in k_list]
    grid = ((e, n, p) for e in e_list for n in n_list for p in couplings)
    rows = []
    for idx, (e, n, p) in enumerate(grid):
        record = max_work_fixed_entanglement(e, n, p, quantity, settings=base_settings.for_grid_index(idx))
        rep = record.report
        search = (base_settings.starts, rep.best_start, rep.converged) if rep else (0, 0, True)
        rows.append((quantity, e, n, p.k, p.delta_t, record.value, *search))
    header = ["quantity", "E", "n", "k", "delta_t", "value", "starts", "best_start", "converged"]
    write_csv(args.output, header, rows)


def _trajectory_initial_state(quantity: str, entanglement: float) -> np.ndarray:
    if quantity == "G_p":
        return locally_passive_state(entanglement)
    # For G and L the trajectory follows the noiseless maximizer of the
    # fixed-entanglement family (the Schmidt state with the larger weight on
    # the upper level, i.e. the zero-angle chart point).
    return fixed_entanglement_state(entanglement, np.zeros(6))


def _check_sample_times(dt_list: list[float], steps: int) -> None:
    """Reject, before any work, a delta_t list whose largest delta_t times
    steps is past the largest float: trajectory forms its sample times from
    (collisions x substeps) x delta_t, and blp's last sample time is
    collisions x delta_t.  The product is taken in decimal, which no step
    count overflows."""
    if Decimal(steps) * Decimal(max(dt_list)) > Decimal(sys.float_info.max):
        raise UsageError(f"sample times overflow: {steps} x delta_t {max(dt_list)!r}")


def cmd_trajectory(args, cfg: dict) -> None:
    params: ModelParams = cfg["params"]
    tcfg = cfg["trajectory"]
    quantity = tcfg["quantity"]
    if quantity not in QUANTITIES:
        raise UsageError(f"quantity must be one of {QUANTITIES}, got {quantity!r}")
    dt_list = parse_number_list(tcfg["delta_ts"])
    if not dt_list:
        raise UsageError("empty delta_t list")
    rho0 = projector(_trajectory_initial_state(quantity, tcfg["entanglement"]))
    points = [replace(params, delta_t=dt) for dt in dt_list]  # every delta_t checked before any work
    _check_sample_times(dt_list, tcfg["collisions"] * tcfg["substeps"])
    rows = []
    for p in points:
        traj = fine_trajectory(rho0, tcfg["collisions"], tcfg["substeps"], p)
        values = trajectory_work(traj, MODES[quantity])
        rows.extend((p.delta_t, t, int(ci), v) for t, ci, v in zip(traj.times, traj.collision_index, values))
    write_csv(args.output, ["delta_t", "t", "collision_index", "value"], rows)


def cmd_blp(args, cfg: dict) -> None:
    params: ModelParams = cfg["params"]
    bcfg = cfg["blp"]
    dt_list = parse_number_list(bcfg["delta_ts"])
    if not dt_list:
        raise UsageError("empty delta_t list")
    grid_points = bcfg["grid_points"]
    points = [replace(params, k=bcfg["k"], delta_t=dt) for dt in dt_list]  # checked before any work
    _check_sample_times(dt_list, bcfg["collisions"])
    base_settings = OptimizerSettings(**cfg["optimizer"])
    results = [
        blp_measure(p.delta_t, p, settings=base_settings.for_grid_index(idx),
                    grid_points=grid_points, collisions=bcfg["collisions"])
        for idx, p in enumerate(points)
    ]
    rows = [(p.delta_t, r.q_n, grid_points, base_settings.starts, r.report.converged) for p, r in zip(points, results)]
    write_csv(args.output, ["delta_t", "Q_N", "grid_points", "starts", "converged"], rows)
    if args.trace_output is not None:
        trace = ((p.delta_t, t, d) for p, r in zip(points, results) for t, d in r.lambda_trace)
        write_csv(args.trace_output, ["delta_t", "t", "D"], trace)


def _load_fit_data(path: str, n_filter, quantity_filter) -> list[tuple[float, float]]:
    if not os.path.exists(path):
        raise UsageError(f"input file not found: {path}")
    if os.path.isdir(path):
        raise UsageError(f"input is a directory: {path}")
    data = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            columns = set(reader.fieldnames or ())
            missing = {"E", "value"} - columns
            if missing:
                raise UsageError(f"input CSV lacks required columns: {sorted(missing)}")
            for column, value in (("n", n_filter), ("quantity", quantity_filter)):
                if value is not None and column not in columns:
                    raise UsageError(f"input CSV has no {column!r} column for --{column} to filter on")
            for row in reader:
                try:
                    if n_filter is not None and int(float(row["n"])) != n_filter:
                        continue
                    if quantity_filter is not None and row["quantity"] != quantity_filter:
                        continue
                    data.append((float(row["E"]), float(row["value"])))
                except (TypeError, ValueError):
                    raise UsageError(f"malformed CSV value near line {reader.line_num} of {path}")
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise UsageError(f"unreadable CSV {path}: {exc}")
    if not data:
        raise UsageError("no data rows left after filtering")
    return data


def cmd_fit(args, cfg: None) -> dict:
    data = _load_fit_data(args.input, args.n, args.quantity)
    result = fit_curve(args.model, data, bootstrap=args.bootstrap)
    payload = {key: getattr(result, key) for key in ("model", "params", "confidence95", "residual", "converged")}
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return {
        "model": args.model, "input": args.input, "filters": {"n": args.n, "quantity": args.quantity},
        "bootstrap": args.bootstrap, "message": result.message,
    }


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qbattery",
        description="Deterministic two-qubit battery simulator with collision noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_optimizer=True):
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--seed", dest="optimizer.seed", type=int, help="base RNG seed (required)")
        p.add_argument("--threads", type=int, default=1, help="accepted and checked (>= 1); has no effect")
        p.add_argument("--output", required=True, help="output CSV path")
        if with_optimizer:
            p.add_argument("--starts", dest="optimizer.starts", type=int, help="multi-start count")
            p.add_argument("--max-evals", dest="optimizer.max_evals", type=int)

    p_sweep = sub.add_parser("sweep", help="work records over an (E, n, k) grid")
    add_common(p_sweep)
    p_sweep.add_argument("--quantity", dest="sweep.quantity", choices=QUANTITIES)
    p_sweep.add_argument("--entanglements", dest="sweep.entanglements", help="E list, e.g. '0:1:0.1'")
    p_sweep.add_argument("--collisions", dest="sweep.collisions", help="n list, e.g. '0:30' or '0,2,4,7,30'")
    p_sweep.add_argument("--couplings", dest="sweep.couplings", help="k list; empty uses the model k")
    p_sweep.set_defaults(func=cmd_sweep)

    p_traj = sub.add_parser("trajectory", help="fine-grained work trajectory per delta_t")
    add_common(p_traj, with_optimizer=False)
    p_traj.add_argument("--quantity", dest="trajectory.quantity", choices=QUANTITIES)
    p_traj.add_argument("--entanglement", dest="trajectory.entanglement", type=float)
    p_traj.add_argument("--delta-ts", dest="trajectory.delta_ts", help="delta_t list")
    p_traj.add_argument("--collisions", dest="trajectory.collisions", type=int)
    p_traj.add_argument("--substeps", dest="trajectory.substeps", type=int)
    p_traj.set_defaults(func=cmd_trajectory)

    p_blp = sub.add_parser("blp", help="non-Markovianity per delta_t")
    add_common(p_blp)
    p_blp.add_argument("--delta-ts", dest="blp.delta_ts", help="delta_t list")
    p_blp.add_argument("--grid-points", dest="blp.grid_points", type=int)
    p_blp.add_argument("--k", dest="blp.k", type=float, help="coupling (default 1)")
    p_blp.add_argument(
        "--collisions", dest="blp.collisions", type=int,
        help="extension: scan backflow across this many collisions (default 1)",
    )
    p_blp.add_argument("--trace-output", dest="trace_output", help="delta_t,t,D CSV of the best pairs' trace distance")
    p_blp.set_defaults(func=cmd_blp)

    p_fit = sub.add_parser("fit", help="fit a sweep CSV to a model family")
    p_fit.add_argument("--model", required=True)
    p_fit.add_argument("--input", required=True, help="sweep CSV to fit")
    p_fit.add_argument("--output", required=True, help="result JSON path")
    p_fit.add_argument("--n", type=int, help="keep only rows with this collision count")
    p_fit.add_argument("--quantity", help="keep only rows with this quantity tag")
    p_fit.add_argument(
        "--bootstrap", type=int, default=0,
        help="confidence from this many residual-resampling refits instead of "
        "the linearized covariance",
    )
    p_fit.set_defaults(func=cmd_fit)
    return parser


# ---------------------------------------------------------------------------
# the run


def _file_key(path: str):
    """What identifies the file a path names: device and inode when it exists
    (so symlinks and hard links match), else the path with links resolved."""
    try:
        st = os.stat(path)
        return st.st_dev, st.st_ino
    except OSError:
        return os.path.realpath(path)


def _check_run(args, paths: list[str]) -> None:
    """Reject a thread count below 1 and any path the run would write that is
    a directory, sits in a missing or unwritable directory, names the run's
    input or config, or names another file of the run, before any work, so
    that a rejected run writes nothing."""
    threads = getattr(args, "threads", 1)
    if threads < 1:
        raise UsageError(f"--threads must be >= 1, got {threads}")
    given = (getattr(args, "input", None), getattr(args, "config", None))
    sources = {_file_key(path) for path in given if path}
    written: dict = {}
    for path in paths:
        key = _file_key(path)
        if not path:
            raise UsageError("cannot write an empty path")
        if os.path.isdir(path):
            raise UsageError(f"cannot write {path}: it is a directory")
        if key in sources:
            raise UsageError(f"cannot write {path}: it is the run's input or config file")
        if key in written:
            raise UsageError(f"cannot write {path}: the run already writes that file (as {written[key]})")
        written[key] = path
        folder = os.path.dirname(os.path.realpath(path))
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise UsageError(f"cannot write {path}: directory {folder} is missing or not writable")


def main(argv=None) -> int:
    """Resolve the configuration, plan and check every file the run writes,
    run the command, then record the run in its manifest."""
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        cfg = None if args.command == "fit" else resolve_config(args)
        outputs = [path for path in (args.output, getattr(args, "trace_output", None)) if path is not None]
        manifest = args.output + ".manifest.json"
        _check_run(args, [*outputs, manifest])
        fields = args.func(args, cfg)
        if cfg is not None:  # a simulation records its seed and resolved configuration
            config = {section: cfg[section] for section in DEFAULTS}
            fields = {"seed": cfg["optimizer"]["seed"], "config": config}
        write_manifest(manifest, args.command, started, outputs, **fields)
        return 0
    except ContractViolation as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory: the run is too large for the memory available", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
