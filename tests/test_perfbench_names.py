"""Every package attribute the traced benchmark wraps by name still exists.

perfbench/tracing.py replaces module attributes of qbattery by name before
it runs the CLI, so deleting or renaming one of them crashes the traced
run.  This checks the names in a second, without running the benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _wrapped_names():
    tracing = _tracing()
    names = [(module, attr) for module, attr, _ in tracing.PLAIN]
    names += [(module, attr) for module, attr, _, _ in tracing.WITH_INFO]
    names += [(module, "multistart_maximize") for module, _ in tracing.SEARCHES]
    return names


@pytest.mark.parametrize("module, attr", _wrapped_names())
def test_wrapped_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
