"""The benchmark tracer's patch table names functions that exist.

`perfbench/tracer.py` replaces each (module, attribute) of its PATCHES at run
time; a refactor that renames or drops one of them would otherwise surface
only in a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no bytecode cache in the benchmark's directory
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_function_resolves():
    patches = _load_tracer().PATCHES
    assert patches
    missing = [
        (module, attr)
        for module, attr, _, _ in patches
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
