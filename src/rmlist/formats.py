"""Text file formats and CSV emitters of the CLI.

Function file: two fields, ``n`` in decimal and ``bits`` as a hex string of
the packed table (least significant hex digit = points 0-3). F_q table
file: ``q``, ``n`` and ``values``, a base-q digit string. Both are read.
Polynomial record: a header line with n, then one monomial per line as
sorted 1-based variable indices; an empty line is the constant-1 monomial.
A family file holds several polynomial records separated by ``---`` lines;
``construct`` writes it and no command reads it.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .boolfunc import AnfPolynomial, FunctionTable
from .enumeration import LowerBoundFamily, WeightEnumerator
from .errors import InputError
from .grm import GrmTable
from .listdecode import Ball


def parse_fraction(text: str) -> Fraction:
    """Parse 'a/b' or an integer, exactly; floats are rejected."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(
            f"expected an exact fraction 'a/b' or integer, got {text!r}"
        ) from exc


def function_from_text(text: str) -> FunctionTable:
    fields = _parse_fields(text, {"n", "bits"})
    try:
        n = int(fields["n"])
        bits = int(fields["bits"], 16)
    except ValueError as exc:
        raise InputError(f"malformed function record: {exc}") from exc
    return FunctionTable(n, bits)


def _parse_fields(text: str, expected: set[str]) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2 or parts[0] not in expected:
            raise InputError(f"unexpected line in record: {line!r}")
        fields[parts[0]] = parts[1]
    missing = expected - fields.keys()
    if missing:
        raise InputError(f"record missing fields: {sorted(missing)}")
    return fields


def polynomial_to_text(p: AnfPolynomial) -> str:
    lines = [f"n {p.n}"]
    for mask in sorted(p.monomials):
        indices = [str(i + 1) for i in range(p.n) if (mask >> i) & 1]
        lines.append(" ".join(indices))
    return "\n".join(lines) + "\n"


def family_to_text(family: LowerBoundFamily) -> str:
    records = [polynomial_to_text(p).rstrip("\n") for p in family.members]
    return "\n---\n".join(records) + "\n"


def grm_table_from_text(text: str) -> GrmTable:
    fields = _parse_fields(text, {"q", "n", "values"})
    try:
        q = int(fields["q"])
        n = int(fields["n"])
        # A byte view of the digit string, not of a truth table: ``scan`` owns
        # truth-table conversions, and ``tests/test_layout.py`` keeps
        # ``np.frombuffer`` to it, so this view goes through ``memoryview``.
        digits = np.asarray(memoryview(fields["values"].encode("ascii"))) - ord("0")
    except ValueError as exc:  # a non-ASCII character fails the encode
        raise InputError(f"malformed table record: {exc}") from exc
    if (digits > 9).any():  # a byte below '0' wraps past 9 too
        raise InputError("malformed table record: values must be decimal digits")
    return GrmTable(q, n, digits)


def enumerator_csv(enum: WeightEnumerator) -> str:
    params = enum.params
    if hasattr(params, "q"):
        header = f"# q={params.q},n={params.n},d={params.d},dimension={params.dimension}"
    else:
        header = f"# n={params.n},d={params.d},dimension={params.dimension}"
    lines = [header, "weight_count,relative_weight,multiplicity"]
    for w in sorted(enum.counts):
        rel = Fraction(w, enum.block_length)
        lines.append(f"{w},{rel},{enum.counts[w]}")
    return "\n".join(lines) + "\n"


# A ball CSV names the same monomials on many rows; each name is built once.
@lru_cache(maxsize=4096)
def _monomial_name(n: int, mask: int) -> str:
    return "".join(f"x{i + 1}" for i in range(n) if (mask >> i) & 1) or "1"


@lru_cache(maxsize=8)
def _name_chunks(n: int, order: tuple[int, ...]) -> tuple[tuple[int, np.ndarray], ...]:
    """Names by byte of a ``Ball.ranked`` value, top byte first: each byte's shift and
    the object array of what its 256 values select, every name followed by '+'."""
    top = len(order) - 1
    chunks = []
    for shift in reversed(range(0, len(order), 8)):
        # Ranks ascend as bits descend, so a byte's names run from its high bit.
        bits = [(t, _monomial_name(n, order[top - shift - t]) + "+")
                for t in reversed(range(min(8, len(order) - shift)))]
        names = ["".join(name for t, name in bits if value >> t & 1) for value in range(256)]
        chunks.append((shift, np.array(names, dtype=object)))
    return tuple(chunks)


def ball_csv(b: Ball) -> str:
    size = b.center.size
    text = [
        f"# n={b.center.n},radius={b.radius},members={b.size}",
        "distance_count,relative_distance,monomials",
    ]
    names = _name_chunks(b.center.n, b.order)
    last, prefix = None, ""
    block = 1 << 16  # members rendered at a time: only the text outlives a block's rows
    for start in range(0, b.size, block):
        ranked = b.ranked[start:start + block]
        # A row's monomials are its bytes' names joined, less the last '+'.
        rows = reduce(operator.add, [table[ranked >> shift & 255] for shift, table in names])
        lines = []
        for dist, row in zip(b.flips[start:start + block].tolist(), rows.tolist()):
            if dist != last:  # sorted by distance: one prefix per run of ties
                last, prefix = dist, f"{dist},{Fraction(dist, size)},"
            lines.append(prefix + (row[:-1] or "0"))
        text.append("\n".join(lines))
    return "\n".join(text) + "\n"
