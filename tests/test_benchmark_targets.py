"""The benchmark's tracer rebinds errdiff functions by name; keep them resolvable."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = _load_tracing()
    for name, _keep in tracing.TARGETS:
        module_name, attr = name.split(".", 1)
        owner = importlib.import_module(f"errdiff.{module_name}")
        if "." in attr:
            # methods are rebound on the class that defines them
            cls_name, method = attr.split(".")
            assert callable(vars(getattr(owner, cls_name)).get(method)), name
        else:
            assert callable(getattr(owner, attr, None)), name
