"""Command line front end: sweeps, trajectories, backflow scans, fits.

Commands
--------
sweep        work records over an (E, n, k) grid for one quantity
trajectory   intra-collision work values on a fine time grid, per delta_t
blp          non-Markovianity measure per delta_t (coupling forced to 1
             unless overridden)
fit          least-squares fit of a sweep CSV to one of the model families

Settings come from DEFAULTS, then an INI file (sections [model],
[optimizer], [sweep], [trajectory], [blp]), then flags.  COMMANDS names the
sections besides [model] whose keys are a simulation command's flags, key
delta_ts as --delta-ts.  Every simulation command requires a seed; there is
no entropy default.  Outputs are CSV/JSON with full double precision, and
each run writes a manifest recording [model] without the keys the
command's own sections replace (REPLACED), those sections and, when a
search ran, the seed, so identical settings reproduce byte-identical data
files.  A sweep makes one call per entanglement for all its (n, k)
points (`ergotropy.max_work_at_lambdas`), and a G point's search takes its
own seed, derived from the base seed and the point's index in the
(E, n, k) grid.

Exit codes: 0 success, 2 usage or configuration error (or out of memory,
or a failed read or write), 3 numerical contract violation.  A failed run
removes the files it created.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
import time
from contextlib import suppress
from dataclasses import asdict, replace
from decimal import Decimal
from functools import cache
from itertools import chain

import numpy as np

from . import __version__
from .collision import DAMP_CHUNK, after_collisions, cutoff, fine_trajectory
from .ergotropy import MODES, QUANTITIES, damped_work, max_work_at_lambdas
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
    """The root parser and, as their class, every subparser: a flag is
    spelled in full, so --substep is no --substeps."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        """Exit 2 with one stderr line, like every other usage error."""
        self.exit(2, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# configuration


DEFAULTS = {
    "model": asdict(ModelParams()),
    "optimizer": {key: value for key, value in asdict(OptimizerSettings()).items() if key != "seed"},
    "sweep": {
        "quantity": "G_p",
        "entanglements": "0.0,0.2,0.4,0.6,0.8",
        "collisions": "0:30",
        "couplings": "",
    },
    "trajectory": {
        "quantity": "G_p",
        "entanglement": 0.6,
        "delta_ts": "0.4,1.2,1.4,1.6",
        "collisions": 5,
        "substeps": 200,
    },
    "blp": {"delta_ts": "0.2:1.8:0.2", "grid_points": 200, "k": 1.0, "collisions": 1},
}


# Ranges are counted before they are expanded, so a slip such as 0:1e12
# stops at once instead of filling memory.  A million items take about 0.5 s
# and 30 MB to expand.  The cheapest points, of a G_p or L sweep, take about
# 5 us each on a 2-core VM, and a G point at 24 starts about 5 ms.
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
    """The %-format of a cell; write_csv turns booleans into text first."""
    if isinstance(value, (float, np.floating)):
        return "%.17g"
    if isinstance(value, (int, np.integer)):
        return "%d"
    return "%s"


def _text(value) -> str:
    """One cell as write_csv writes it."""
    return ("true" if value else "false") if isinstance(value, bool) else _cell_format(value) % value


def _cells(values) -> list:
    """A column's cells as plain Python values, booleans as true/false."""
    cells = values.tolist() if isinstance(values, np.ndarray) else list(values)
    return list(map(_text, cells)) if isinstance(cells[0], bool) else cells


def write_csv(path: str, header: list[str], blocks) -> None:
    """Write header and blocks as CSV with CRLF line ends, as csv.writer does.

    A block is (prefix, columns): constant leading cells and equal-length
    columns (arrays or sequences), whose i-th row is prefix + the i-th cell
    of each column.  The prefix is formatted once per block, and the rows go
    out DAMP_CHUNK to one write and one %-operation, on the row format built
    from the first of them repeated for each row: %.17g for floats, %d for
    ints, plain text for strings, true/false for booleans.  So every column
    must keep one type and no cell may need CSV quoting; the commands write
    only numbers, booleans and quantity names.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for prefix, columns in blocks:
            lead = "".join(_text(v) + "," for v in prefix).replace("%", "%%")
            for c in range(0, len(columns[0]), DAMP_CHUNK):
                cols = [_cells(col[c : c + DAMP_CHUNK]) for col in columns]
                fmt = lead + ",".join(_cell_format(col[0]) for col in cols) + "\r\n"
                fh.write((fmt * len(cols[0])) % tuple(chain.from_iterable(zip(*cols))))


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
# commands: each writes its data files and returns its own manifest fields,
# among them the seed when it ran a search


def cmd_sweep(args, cfg: dict) -> dict:
    params: ModelParams = cfg["params"]
    quantity = cfg["sweep"]["quantity"]
    e_list = parse_number_list(cfg["sweep"]["entanglements"])
    n_list = parse_number_list(cfg["sweep"]["collisions"], integer=True)
    couplings = [replace(params, k=k) for k in parse_number_list(cfg["sweep"]["couplings"])] or [params]
    for name, values in (("entanglement", e_list), ("collision", n_list)):
        if not values:
            raise UsageError(f"empty {name} list")
    schmidt_gap(e_list)  # every E in [0, 1] before any search
    base_settings = OptimizerSettings(**cfg["optimizer"])
    lam = np.stack([after_collisions(p, n_list) for p in couplings], axis=1).ravel()  # in (n, k) order
    size = len(lam)
    n_k = [n for n in n_list for _ in couplings], [p.k for p in couplings] * len(n_list)  # n may pass int64
    starts = [base_settings.starts if quantity == "G" else 0] * size  # G alone searches
    blocks = []
    for i, e in enumerate(e_list):  # one call per E; a G point's seed is that of its (E, n, k) index
        seeds = map(base_settings.for_grid_index, range(i * size, (i + 1) * size))
        values, reports = max_work_at_lambdas(e, lam, params, quantity, seeds)
        converged = [r.converged for r in reports] if reports else [True] * size
        blocks.append(((quantity, e), (*n_k, [params.delta_t] * size, values, starts, converged)))
    write_csv(args.output, ["quantity", "E", "n", "k", "delta_t", "value", "starts", "converged"], blocks)
    return {"seed": cfg["optimizer"]["seed"]} if quantity == "G" else {}


def _trajectory_initial_state(quantity: str, entanglement: float) -> np.ndarray:
    if quantity == "G_p":
        return locally_passive_state(entanglement)
    # For G and L the trajectory follows the noiseless maximizer of the
    # fixed-entanglement family (the Schmidt state with the larger weight on
    # the upper level, i.e. the zero-angle chart point).
    return fixed_entanglement_state(entanglement, np.zeros(6))


def _delta_t_models(cfg: dict, section: str, steps: int, **overrides) -> list[ModelParams]:
    """One checked model per delta_t of [section] delta_ts, [model] with the
    command's overrides, before any work.  The list must not be empty, and
    no sample time may pass the largest float: both commands form theirs as
    j x delta_t / per for j up to steps = collisions x per
    (`collision.sample_times`), per being trajectory's substeps and blp's
    grid points, so steps x delta_t is taken in decimal, which no step count
    overflows."""
    dt_list = parse_number_list(cfg[section]["delta_ts"])
    if not dt_list:
        raise UsageError("empty delta_t list")
    models = [replace(cfg["params"], delta_t=dt, **overrides) for dt in dt_list]
    if Decimal(steps) * Decimal(max(dt_list)) > Decimal(sys.float_info.max):
        raise UsageError(f"sample times overflow: {steps} x delta_t {max(dt_list)!r}")
    return models


def cmd_trajectory(args, cfg: dict) -> dict:
    tcfg = cfg["trajectory"]
    quantity = tcfg["quantity"]
    if quantity not in QUANTITIES:
        raise UsageError(f"quantity must be one of {QUANTITIES}, got {quantity!r}")
    points = _delta_t_models(cfg, "trajectory", tcfg["collisions"] * tcfg["substeps"])
    state = _trajectory_initial_state(quantity, tcfg["entanglement"])
    rho0 = projector(state)
    lam = np.empty((len(points), tcfg["collisions"] * tcfg["substeps"] + 1))  # a row per delta_t
    blocks = []
    for p, row in zip(points, lam):
        traj = fine_trajectory(rho0, tcfg["collisions"], tcfg["substeps"], p)
        row[:], rho0 = traj.lam, traj.rho0  # the checked state
        blocks.append((p.delta_t, traj.times, traj.collision_index))
    del traj  # so no Lambda is held twice
    # one yield call for every delta_t's samples, before the output is opened: the yield reads the
    # bath and the battery, which no delta_t changes, and a sample's value does not depend on its call
    values = damped_work(rho0, lam.ravel(), points[0], MODES[quantity]).reshape(lam.shape)
    blocks = [((dt,), (times, index, v)) for (dt, times, index), v in zip(blocks, values)]
    write_csv(args.output, ["delta_t", "t", "collision_index", "value"], blocks)
    return {"initial_state": state.real.tolist(), **cutoff(points[0])}  # both states are real


def cmd_blp(args, cfg: dict) -> dict:
    bcfg = cfg["blp"]
    grid_points = bcfg["grid_points"]
    points = _delta_t_models(cfg, "blp", bcfg["collisions"] * grid_points, k=bcfg["k"])
    base_settings = OptimizerSettings(**cfg["optimizer"])
    results = [
        blp_measure(p, settings=base_settings.for_grid_index(idx), grid_points=grid_points,
                    collisions=bcfg["collisions"])
        for idx, p in enumerate(points)
    ]
    rows = [(p.delta_t, r.q_n, grid_points, base_settings.starts, r.report.converged) for p, r in zip(points, results)]
    write_csv(args.output, ["delta_t", "Q_N", "grid_points", "starts", "converged"], [((), list(zip(*rows)))])
    if args.trace_output is not None:
        trace = [((p.delta_t,), tuple(r.lambda_trace.T)) for p, r in zip(points, results)]
        write_csv(args.trace_output, ["delta_t", "t", "D"], trace)
    return {"seed": cfg["optimizer"]["seed"], **cutoff(points[0])}


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
                    if n_filter is not None and (n := float(row["n"])) != n_filter:
                        if not n.is_integer():  # inf, nan or a fraction is no collision count
                            raise ValueError(n)
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


# Each simulation command: its function, its help line, and the DEFAULTS
# sections besides [model] whose keys are its flags.  A manifest records
# [model] and these sections, [optimizer] and the seed only when a search ran.
COMMANDS = {
    "sweep": (cmd_sweep, "work records over an (E, n, k) grid", ("optimizer", "sweep")),
    "trajectory": (cmd_trajectory, "fine-grained work trajectory per delta_t", ("trajectory",)),
    "blp": (cmd_blp, "non-Markovianity per delta_t", ("optimizer", "blp")),
}
# The [model] key that each setting of a command's own sections replaces, and
# which its manifest leaves out of [model] unless the setting is an empty list:
# delta_ts gives every delta_t, blp's k its coupling and sweep's couplings every k.
REPLACED = {"delta_ts": "delta_t", "k": "k", "couplings": "k"}


@cache  # one tree per process and command: argparse takes about 1 ms to build the whole tree
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or, given one, of that command alone,
    which parses its command lines as the whole tree does."""
    parser = _Parser(prog="qbattery", description="Deterministic two-qubit battery simulator with collision noise.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, sections) in COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--seed", dest="optimizer.seed", type=int, help="base RNG seed (required)")
        p.add_argument("--threads", type=int, default=1, help="accepted and checked (>= 1); has no effect")
        p.add_argument("--output", required=True, help="output CSV path")
        for section in sections:
            for key, default in DEFAULTS[section].items():
                p.add_argument("--" + key.replace("_", "-"), dest=f"{section}.{key}", type=type(default),
                               choices=QUANTITIES if key == "quantity" else None,
                               help=f"[{section}] {key}, default {default!r}")
    if "blp" in sub.choices:
        sub.choices["blp"].add_argument("--trace-output", help="delta_t,t,D CSV of the best pairs' trace distance")
    if command not in (None, "fit"):
        return parser

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
    run the command, then record the run in its manifest.  A failed run
    removes the regular files it created."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in (*COMMANDS, "fit") else None).parse_args(argv)
    started = time.time()
    created: list[str] = []
    try:
        cfg = None if args.command == "fit" else resolve_config(args)
        outputs = [path for path in (args.output, getattr(args, "trace_output", None)) if path is not None]
        manifest = args.output + ".manifest.json"
        _check_run(args, [*outputs, manifest])
        created = [path for path in (*outputs, manifest) if not os.path.lexists(path)]
        fields = args.func(args, cfg)
        if cfg is not None:  # a simulation records the settings that shaped its data
            sections = {s: cfg[s] for s in COMMANDS[args.command][2] if s != "optimizer" or "seed" in fields}
            replaced = {REPLACED[key] for section in sections.values() for key, v in section.items()
                        if key in REPLACED and str(v).replace(",", " ").strip()}
            model = {key: v for key, v in cfg["model"].items() if key not in replaced}
            fields["config"] = {"model": model, **sections}
        write_manifest(manifest, args.command, started, outputs, **fields)
        return 0
    except ContractViolation as exc:
        code, message = 3, f"numerical contract violation: {exc}"
    except MemoryError:
        code, message = 2, "error: out of memory: the run is too large for the memory available"
    except (ValueError, OSError) as exc:  # OSError: a file read or write failed, such as on a full disk
        code, message = 2, f"error: {exc}"
    print(message, file=sys.stderr)
    for path in created:  # what existed before the run stays
        if os.path.isfile(path) and not os.path.islink(path):
            with suppress(OSError):
                os.remove(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
