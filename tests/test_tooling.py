"""The benchmark's span recorders must find every function they trace."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_resolves():
    traced = load_traced()
    assert traced
    for module_name, attr, kind in traced:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(target, part), f"{module_name}.{attr} is gone"
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{attr} is not callable"
        assert kind in ("span", "leaf")
