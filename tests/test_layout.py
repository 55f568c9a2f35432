"""Only ``rmlist.scan`` reads the truth-table word layout: it converts between
truth-table ints, uint64 word rows and point bits, and it alone holds the
kernels that depend on 64-point words (in-word masks, 64-bit shifts, row
popcounts and row deduplication)."""

from __future__ import annotations

import ast
from pathlib import Path

import rmlist

SRC = Path(rmlist.__file__).resolve().parent
CONVERTERS = {"to_bytes", "from_bytes", "frombuffer", "packbits", "unpackbits"}
# Unpacks random-number words into directions, not a truth table.
EXCEPTIONS = {("derivatives.draw_directions", "frombuffer"),
              ("derivatives.draw_directions", "to_bytes")}
# 6 = log2 of the points in a word, 63 = the in-word point mask.
WORD_SHIFTS = {(ast.RShift, 6), (ast.LShift, 6), (ast.BitAnd, 63)}


def scoped_nodes() -> list[tuple[str, ast.AST]]:
    """(qualified name of the enclosing function, node) for every AST node in ``src``."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            found.append((scope, child))
            visit(child, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def called(node: ast.AST) -> str | None:
    """The name a call node calls, without its module: ``np.x(...)`` gives ``x``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def module(scope: str) -> str:
    return scope.split(".")[0]


def test_only_scan_converts_truth_tables():
    calls = {(scope, called(node)) for scope, node in scoped_nodes()
             if called(node) in CONVERTERS}
    outside = {(scope, name) for scope, name in calls if module(scope) != "scan"}
    assert outside == EXCEPTIONS
    # The guard sees the calls it polices: scan makes all five.
    assert {name for scope, name in calls if scope.startswith("scan.")} == CONVERTERS


def test_only_boolfunc_and_scan_load_the_block_mask():
    # scan builds its in-word masks from it; no other module may build its own.
    loads = {module(scope) for scope, node in scoped_nodes()
             if isinstance(node, ast.Name) and node.id == "_low_block_mask"
             or isinstance(node, ast.alias) and node.name == "_low_block_mask"}
    assert loads == {"boolfunc", "scan"}


def test_only_scan_shifts_by_a_word():
    shifts = {(module(scope), type(node.op), operand.value)
              for scope, node in scoped_nodes() if isinstance(node, (ast.BinOp, ast.AugAssign))
              for operand in ((node.left, node.right) if isinstance(node, ast.BinOp)
                              else (node.value,))
              if isinstance(operand, ast.Constant) and type(operand.value) is int
              and (type(node.op), operand.value) in WORD_SHIFTS}
    assert {shift for shift in shifts if shift[0] != "scan"} == set()
    assert ("scan", ast.RShift, 6) in shifts  # the guard sees the shift it polices


def test_only_scan_popcounts_word_rows():
    # ``listdecode.ball`` popcounts coefficient ranks, not tables.
    calls = {scope for scope, node in scoped_nodes() if called(node) == "bitwise_count"}
    assert {scope for scope in calls if module(scope) != "scan"} == {"listdecode.ball"}
    assert {"scan.weights", "scan.weight_blocks"} <= calls
