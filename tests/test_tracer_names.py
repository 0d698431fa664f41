"""Every name that perfbench/tracer.py needs for a per-layer metric exists.

The tracer wraps names where invopt's modules import or look them up
(``cli.simulate_once``, ``simengine.RngStream``, ...).  A name that is gone
makes the metrics that need it absent from the benchmark without failing
anything, so the check lives here.  The tracer source is read, never
imported, so nothing is written under perfbench/.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    tracer = types.ModuleType("perfbench_tracer")
    code = compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec")
    exec(code, tracer.__dict__)
    return tracer


def _needed_names() -> list[str]:
    tracer = _load_tracer()
    engine = [name for entries in tracer.ENGINE_ENTRIES.values() for name in entries]
    return sorted({name for _, needs in tracer.METRICS.values() for need in needs
                   for name in (engine if need == "engine" else (need,))})


@pytest.mark.parametrize("name", _needed_names())
def test_traced_name_exists(name):
    module, attr = name.split(".")
    assert hasattr(importlib.import_module(f"invopt.{module}"), attr), (
        f"perfbench/tracer.py needs invopt.{name}; without it the per-layer "
        f"metrics that use it are reported absent")
