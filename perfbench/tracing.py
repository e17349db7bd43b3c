"""Spans recorded from outside the package.

The benchmark replaces module attributes of qbattery with wrappers before
it calls the CLI; nothing under src/ knows about tracing.  Each span keeps
its name, start, end, parent span and thread, plus a few values read from
the call's arguments or result.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    info: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


def search_report(args, result) -> dict:
    report = result[2]
    return {"evals": int(report.evaluations), "converged": bool(report.converged)}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.objectives: list = []  # (objective, dimension) of each traced search
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, info=None):
        """`fn` recording a span per call; `info(args, result)` adds values."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = info(args, result) if info else {}
            self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), extra))
            return result

        return traced

    def wrap_search(self, objective_name: str, fn):
        """A multi-start search whose objective is traced as well."""

        @functools.wraps(fn)
        def search(objective, dim, *args, **kwargs):
            self.objectives.append((objective, dim))
            return fn(self.wrap(objective_name, objective), dim, *args, **kwargs)

        return self.wrap("optimize.search", search, search_report)


# (module, attribute, span name) of every plain wrapped function.  The same
# function is wrapped under each module name that calls it.
PLAIN = [
    ("qbattery.ergotropy", "global_ergotropy", "ergotropy.global"),
    ("qbattery.cli", "global_ergotropy", "ergotropy.global"),
    ("qbattery.ergotropy", "local_ergotropy", "ergotropy.local"),
    ("qbattery.cli", "local_ergotropy", "ergotropy.local"),
    ("qbattery.ergotropy", "collision_propagator", "collision.propagator"),
    ("qbattery.collision", "collision_propagator", "collision.propagator"),
    ("qbattery.collision", "is_density_matrix", "linalg.is_density_matrix"),
    ("qbattery.ergotropy", "is_density_matrix", "linalg.is_density_matrix"),
    ("qbattery.linalg", "is_density_matrix", "linalg.is_density_matrix"),
    ("qbattery.ergotropy", "fixed_entanglement_state", "states.fixed_entanglement_state"),
    ("qbattery.cli", "fixed_entanglement_state", "states.fixed_entanglement_state"),
    ("qbattery.ergotropy", "locally_passive_state", "states.locally_passive_state"),
    ("qbattery.cli", "locally_passive_state", "states.locally_passive_state"),
    ("qbattery.ergotropy", "projector", "states.projector"),
    ("qbattery.cli", "projector", "states.projector"),
    ("qbattery.nonmarkov", "pair_from_angles", "nonmarkov.pair_from_angles"),
    ("qbattery.cli", "write_csv", "cli.write"),
    ("qbattery.cli", "write_manifest", "cli.write"),
]

# Wrapped functions whose spans carry values read from the call.
WITH_INFO = [
    ("qbattery.ergotropy", "ergotropy_after_collisions", "collision.loop",
     lambda args, result: {"steps": int(args[1])}),
    ("qbattery.cli", "fine_trajectory", "collision.loop",
     lambda args, result: {"steps": int(args[1]) * int(args[2])}),
    ("qbattery.cli", "fit_curve", "fitting.fit",
     lambda args, result: {"iterations": int(result.iterations)}),
]

SEARCHES = [
    ("qbattery.ergotropy", "ergotropy.objective"),
    ("qbattery.nonmarkov", "nonmarkov.objective"),
]


def install(tracer: Tracer, modules: dict, full: bool) -> list:
    """Replace the attributes; returns what `uninstall` needs to undo it.

    Without `full`, only searches and fits are wrapped: a few spans per
    command, which the end-to-end timings can afford.
    """
    saved = []

    def put(module, attr, wrapper):
        mod = modules[module]
        saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    for module, objective_name in SEARCHES:
        search = modules[module].multistart_maximize
        if full:
            put(module, "multistart_maximize", tracer.wrap_search(objective_name, search))
        else:
            put(module, "multistart_maximize", tracer.wrap("optimize.search", search, search_report))
    for module, attr, name, info in WITH_INFO:
        if full or name == "fitting.fit":
            put(module, attr, tracer.wrap(name, getattr(modules[module], attr), info))
    if full:
        for module, attr, name in PLAIN:
            put(module, attr, tracer.wrap(name, getattr(modules[module], attr)))
    return saved


def uninstall(saved: list) -> None:
    for mod, attr, original in reversed(saved):
        setattr(mod, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own
