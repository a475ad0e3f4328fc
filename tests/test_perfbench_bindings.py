"""Every library binding the benchmark's tracer wraps still exists.

``perfbench/layers.py`` lists (module, attribute) pairs and skips an
absent one, so a refactor that renames a bound function would turn its
layer into an untraced span without a word.  The list is read from the
file's source, without running the benchmark's code.
"""

import ast
import importlib
import pathlib

LAYERS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _bindings():
    for stmt in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BINDINGS" for t in stmt.targets
        ):
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"no BINDINGS list in {LAYERS}")


def test_every_traced_binding_resolves():
    bindings = _bindings()
    assert bindings
    absent = [
        f"{module}.{attr}"
        for module, attr, _layer, _span in bindings
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not absent, f"bindings the tracer would skip: {absent}"
