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

from fractions import Fraction
from pathlib import Path

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


def function_to_text(f: FunctionTable) -> str:
    digits = max(1, f.size // 4)
    return f"n {f.n}\nbits {f.bits:0{digits}x}\n"


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


def write_function_file(path: Path | str, f: FunctionTable) -> None:
    Path(path).write_text(function_to_text(f))


def read_function_file(path: Path | str) -> FunctionTable:
    return function_from_text(Path(path).read_text())


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
        values = tuple(int(c) for c in fields["values"])
    except ValueError as exc:
        raise InputError(f"malformed table record: {exc}") from exc
    return GrmTable(q, n, values)


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


def anf_to_string(p: AnfPolynomial) -> str:
    if not p.monomials:
        return "0"
    parts = []
    for mask in sorted(p.monomials):
        if mask == 0:
            parts.append("1")
        else:
            parts.append("".join(f"x{i + 1}" for i in range(p.n) if (mask >> i) & 1))
    return "+".join(parts)


def ball_csv(b: Ball) -> str:
    size = b.center.size
    lines = [
        f"# n={b.center.n},radius={b.radius},members={b.size}",
        "distance_count,relative_distance,monomials",
    ]
    for p, dist in b.members:
        count = int(dist * size)
        lines.append(f"{count},{dist},{anf_to_string(p)}")
    return "\n".join(lines) + "\n"
