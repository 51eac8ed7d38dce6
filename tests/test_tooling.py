"""Repository checks: the benchmark's span recorders find every function
they trace, and the package's soundness checks survive python -O."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_package_has_no_assert_statements():
    # python -O strips assert statements, and with them any certificate
    # check written as one; the package raises AssertionError explicitly.
    sources = sorted((ROOT / "src" / "fatpoints").glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
