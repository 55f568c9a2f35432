"""Each cap in ``rmlist.caps`` is read by one function: the one its comment names last."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import rmlist

SRC = Path(rmlist.__file__).resolve().parent


def cap_readers() -> dict[str, str]:
    """Cap name -> the last ``module.function`` named in the comment above it."""
    lines = (SRC / "caps.py").read_text().splitlines()
    readers = {}
    for node in ast.parse("\n".join(lines)).body:
        if isinstance(node, ast.Assign):
            start = node.lineno - 1
            while start and lines[start - 1].startswith("#"):
                start -= 1
            names = re.findall(r"``(\w+(?:\.\w+)+)``", " ".join(lines[start:node.lineno - 1]))
            readers[node.targets[0].id] = names[-1]
    return readers


def loading_functions(caps: set[str]) -> dict[str, set[str]]:
    """Cap name -> qualified names of the functions in ``src`` that load it by name."""
    found: dict[str, set[str]] = {cap: set() for cap in caps}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if (isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
                    and child.id in caps):
                found[child.id].add(scope)
            visit(child, inner)

    for path in sorted(SRC.glob("*.py")):
        if path.name != "caps.py":
            visit(ast.parse(path.read_text()), path.stem)
    return found


def test_every_cap_has_one_reader_the_one_its_comment_names():
    readers = cap_readers()
    assert len(readers) == 13 and "BALL_MEMBER_CAP" in readers
    for cap, scopes in loading_functions(set(readers)).items():
        named = readers[cap]
        assert len(scopes) == 1, (cap, scopes)
        (scope,) = scopes
        # A class named as the reader reads the cap in one of its methods.
        assert scope == named or scope.startswith(named + "."), (cap, scope, named)
