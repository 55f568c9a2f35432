"""Test-only helpers and slow reference paths shared by several test modules.

Conversions between 0/1 value lists, packed truth tables and F_2 value
tables, the XOR of two tables, a function file's text and its writer, an
enumerator's minimum positive weight, the F_q distance, the bigint iterated
derivative that checks the batched derivative kernel, and the ``Fraction``
coefficient walk that checks the approximator's integer coefficients. The
library itself needs none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from rmlist import (
    DegenerateBiasError,
    FunctionTable,
    GrmTable,
    InputError,
    WeightEnumerator,
    bias,
    derive,
)
from rmlist.derivatives import require_low_weight


def table_from_values(values) -> FunctionTable:
    """A truth table from its 0/1 values, indexed by point."""
    values = list(values)
    n = (len(values) - 1).bit_length()
    if len(values) != 1 << n:
        raise InputError("value list length must be a power of two")
    bits = 0
    for v, b in enumerate(values):
        if b not in (0, 1):
            raise InputError("table values must be bits")
        bits |= b << v
    return FunctionTable(n, bits)


def table_values(f: FunctionTable) -> list[int]:
    return [(f.bits >> v) & 1 for v in range(f.size)]


def xor_tables(f: FunctionTable, g: FunctionTable) -> FunctionTable:
    if f.n != g.n:
        raise InputError(f"mismatched variable counts {f.n} != {g.n}")
    return FunctionTable(f.n, f.bits ^ g.bits)


def function_to_text(f: FunctionTable) -> str:
    """A function file's text: ``n`` in decimal, ``bits`` in hex, 2^n / 4 digits."""
    digits = max(1, f.size // 4)
    return f"n {f.n}\nbits {f.bits:0{digits}x}\n"


def write_function_file(path: Path | str, f: FunctionTable) -> None:
    """A function file that the CLI's ``--center`` and ``--function`` read."""
    Path(path).write_text(function_to_text(f))


def min_positive_weight(enum: WeightEnumerator) -> int | None:
    """The smallest nonzero weight of an enumerated code (its minimum distance)."""
    positive = [w for w in enum.counts if w > 0]
    return min(positive) if positive else None


def grm_table_of(f: FunctionTable) -> GrmTable:
    """A Boolean truth table as an F_2 value table."""
    return GrmTable(2, f.n, tuple(table_values(f)))


def boolean_table_of(t: GrmTable) -> FunctionTable:
    """An F_2 value table as a packed Boolean truth table."""
    assert t.q == 2
    return table_from_values(t.values)


def grm_distance(f: GrmTable, g: GrmTable) -> Fraction:
    """Fraction of points where two value tables over the same F_q^n disagree."""
    if (f.q, f.n) != (g.q, g.n):
        raise InputError("mismatched field or variable count")
    return Fraction(sum(1 for a, b in zip(f.values, g.values) if a != b), f.size)


def derive_iterated(f: FunctionTable, directions: Sequence[int]) -> FunctionTable:
    """Iterated discrete derivative, one bigint ``derive`` per direction.

    Agrees with the 2^k subset-sum formula and is invariant under permuting
    the directions (both are property-tested).
    """
    for a in directions:
        f = derive(f, a)
    return f


@dataclass(frozen=True)
class RepresentationCoefficient:
    """Coefficient of one direction tuple: product of inverse prefix biases."""

    value: Fraction
    prefix_biases: tuple[Fraction, ...]


def representation_coefficient(
    f: FunctionTable, directions: Sequence[int], eps: Fraction
) -> RepresentationCoefficient:
    """Oracle of ``approximator._rounded_coefficient`` before rounding: the
    coefficient of one order-k derivative in the representation identity.

    A ``Fraction`` walk over bigint ``derive``: the product runs over the k
    prefixes f, f_{a_1}, ..., f_{a_1..a_{k-1}}; under the low-weight
    precondition every prefix bias is strictly positive and the product is at
    most 10/eps.
    """
    k = len(directions)
    require_low_weight(f, k, eps)
    biases = []
    cur = f
    for a in directions:
        b = bias(cur)
        if b == 0:
            raise DegenerateBiasError(
                "zero prefix bias under the low-weight precondition"
            )
        biases.append(b)
        cur = derive(cur, a)
    value = Fraction(1)
    for b in biases:
        value /= b
    return RepresentationCoefficient(value, tuple(biases))
