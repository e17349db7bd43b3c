"""Every package name the benchmark wraps or imports still exists, and the
CLI still parses every command the benchmark runs.

perfbench/tracing.py replaces module attributes of qbattery by name before
it runs the CLI, and the other perfbench files import package names, so
deleting or renaming one of them crashes the benchmark.  This checks the
names, and the commands' flags, in a second, without running the benchmark.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from qbattery import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(name: str):
    """perfbench/<name>.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _wrapped_names():
    tracing = _perfbench("tracing")
    names = [(module, attr) for module, attr, _ in tracing.PLAIN]
    names += [(module, attr) for module, attr, _, _ in tracing.WITH_INFO]
    names += [(module, "multistart_maximize") for module, _ in tracing.SEARCHES]
    return names


def _imported_names():
    """(module, name) of every `from qbattery... import name` in perfbench/*.py."""
    names = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qbattery"):
                names.update((node.module, alias.name) for alias in node.names)
    return sorted(names)


@pytest.mark.parametrize("module, attr", _wrapped_names())
def test_wrapped_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("module, name", _imported_names())
def test_imported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def _named_caches():
    """(module, name) of every `getattr(MODULES["module"], "name", None)` in
    perfbench/child.py's NAMED_CACHES."""
    for node in ast.walk(ast.parse((PERFBENCH / "child.py").read_text())):
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["NAMED_CACHES"]:
            return [(call.args[0].slice.value, call.args[1].value) for call in node.value.values]
    raise AssertionError("perfbench/child.py defines no NAMED_CACHES")


def test_named_cache_reports_statistics():
    # child.py reads cache_info() of each named cache that exists and skips a None
    pairs = _named_caches()
    assert pairs
    for module, name in pairs:
        cache = getattr(importlib.import_module(module), name, None)
        assert cache is None or callable(getattr(cache, "cache_info", None)), (module, name)


@pytest.mark.parametrize("tiny", [True, False], ids=["tiny", "full"])
def test_workload_commands_parse(tmp_path, tiny):
    """Every argv of both workloads, tiny and full, parses with the CLI's
    parser, which takes flags only as spelled in full."""
    workloads = _perfbench("workloads")
    commands = [argv for name in workloads.WORKLOADS
                for argv in workloads.iteration(name, 1, 0, str(tmp_path / name), tiny).commands]
    parsed = [cli.build_parser().parse_args(argv).command for argv in commands]
    assert sorted(set(parsed)) == ["blp", "fit", "sweep", "trajectory"]
