"""Every library name that the benchmark's tracer wraps still exists.

bench/tracer.py lists, per layer, the ratmaps functions it wraps, as
"module:attr" or "module:Class.method".  The tracer skips a name it cannot
find and bench/selftest.py fails on it; this test fails on it without
running the benchmark.  It only reads bench/tracer.py.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [name for names in module.LAYERS.values() for name in names]


def _resolves(name) -> bool:
    module, attr = name.split(":")
    obj = importlib.import_module(f"ratmaps.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return callable(obj)


def test_every_traced_name_resolves():
    names = _traced_names()
    assert names
    assert [name for name in names if not _resolves(name)] == []
