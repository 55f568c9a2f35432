"""Only ``rmlist.scan`` converts between truth-table ints, uint64 word rows and point bits."""

from __future__ import annotations

import ast
from pathlib import Path

import rmlist

SRC = Path(rmlist.__file__).resolve().parent
CONVERTERS = {"to_bytes", "from_bytes", "frombuffer", "packbits", "unpackbits"}
# Unpacks random-number words into directions, not a truth table.
EXCEPTIONS = {("derivatives.draw_directions", "frombuffer"),
              ("derivatives.draw_directions", "to_bytes")}


def converter_calls() -> set[tuple[str, str]]:
    """(qualified name of the calling function, converter) for every converter call in ``src``."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in CONVERTERS:
                    found.add((scope, name))
            visit(child, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_only_scan_converts_truth_tables():
    calls = converter_calls()
    outside = {(scope, name) for scope, name in calls if scope.split(".")[0] != "scan"}
    assert outside == EXCEPTIONS
    # The guard sees the calls it polices: scan makes all five.
    assert {name for scope, name in calls if scope.startswith("scan.")} == CONVERTERS
