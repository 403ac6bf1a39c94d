"""Deep shapes must not meet Python's recursion limit, so the package keeps
recursion to one place: the fill engine's ``rec`` inside ``tableaux._fill``.
Every other function that calls itself by name is reported here."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schurkron"


def _self_calls(source: str):
    """Names of the functions in source that call themselves by name."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == node.name
            for call in ast.walk(node)
        ):
            yield node.name


def test_only_the_fill_engine_recurses():
    found = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _self_calls(path.read_text(encoding="utf-8"))
    ]
    assert found == ["tableaux.rec"]
