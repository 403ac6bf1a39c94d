"""The benchmark tracer in bench/spans.py wraps the package's layer entry
points by name; every name it lists must still resolve."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets():
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS in bench/spans.py")


def test_every_traced_entry_point_resolves():
    targets = _targets()
    assert "tableaux" in targets
    for layer, names in targets.items():
        module = importlib.import_module(f"schurkron.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"schurkron.{layer}.{name}"
