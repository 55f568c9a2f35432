"""Discrete derivatives and exact verification of the derivative-representation identities.

The central objects:

* ``derive`` - f_a(x) = f(x+a) + f(x) on one bigint truth table.
* ``derivative_chunks`` - the batched kernel: order-k derivatives of one function
  along many direction tuples at once, as uint64 tables with their prefix weights.
* ``_level`` - the same kernel one level at a time: every table of a batch derived
  along all 2^n directions, as per-point counts of ones and, if asked, the children.
* ``verify_derivative_representation`` - checks exactly, over all 2^(nk) direction
  tuples and all 2^n points, that a low-weight function is the expectation of its
  order-k derivatives, each weighted by the product of its inverse prefix biases.
  It needs only integers: the identity follows, by induction on the depth, from the
  integer single-derivative identity sum_a (-1)^{g_a(x)} = (2^n - 2 wt(g)) (-1)^{g(x)}
  at every distinct prefix derivative g of depth below k. The walk takes one
  ``_level`` per depth and keeps only the distinct children for the next.
* ``check_bias_bounds`` - the prefix-bias lower bounds that make the coefficients finite.
* ``single_derivative_identity`` - the order-1 identity for any non-balanced function,
  one ``_level`` of its one table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import scan
from .boolfunc import FunctionTable, _low_block_mask, require_all_functions, translate, weight
from .caps import DERIVED_TABLE_BITS_CAP, EXHAUSTIVE_TUPLE_BITS
from .errors import (
    DegenerateBiasError,
    InputError,
    InvariantFailure,
    ScaleError,
    WeightTooLargeError,
    ZeroBiasError,
)

CHUNK_BITS = 1 << 22  # most table bits in one chunk of ``derivative_chunks`` or ``_level``
# Levels 0..5 of a translation move points inside one uint64 word: each swaps
# the blocks of 2^i points selected by this mask with their upper neighbours.
_WORD_MASKS = tuple(np.uint64(_low_block_mask(6, i)) for i in range(6))


def derive(f: FunctionTable, a: int) -> FunctionTable:
    """Discrete derivative in direction a: x -> f(x + a) + f(x)."""
    return FunctionTable(f.n, f.bits ^ translate(f, a).bits)


def _translate_rows(tables: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """Row r of ``(rows, words)`` uint64 tables translated by its own direction a[r]."""
    tables = tables.copy()
    moved = np.empty_like(tables)
    for i in range(min(n, 6)):
        # A masked delta swap, in place: in the rows whose direction has bit
        # i, the blocks of 2^i points the mask selects trade places with the
        # blocks above them.
        shift = np.uint64(1 << i)
        np.right_shift(tables, shift, out=moved)
        moved ^= tables
        moved &= _WORD_MASKS[i]
        moved &= np.where((a >> i) & 1, ~np.uint64(0), np.uint64(0))[:, None]
        tables ^= moved
        moved <<= shift
        tables ^= moved
    if n > 6:  # the higher levels permute whole words
        index = np.arange(tables.shape[1]) ^ (a >> 6)[:, None]
        tables = np.take_along_axis(tables, index, axis=1)
    return tables


def derivative_chunks(
    f: FunctionTable, directions: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Order-k derivatives of f along each row of a ``(rows, k)`` direction array, chunk by chunk.

    Yields ``(tables, weights)`` for consecutive chunks of the rows, each of
    at most ``CHUNK_BITS`` table bits: ``tables[i]`` is the derivative along
    the chunk's i-th direction tuple as little-endian uint64 words
    (``scan.to_words`` layout), and ``weights[i, j]`` is the number of ones
    of its j-th prefix f, f_{a_1}, ..., f_{a_1..a_{k-1}}. Every count is an
    integer popcount.
    """
    directions = np.asarray(directions, dtype=np.int64)
    outside = (directions < 0) | (directions >= f.size)
    if outside.any():
        raise InputError(f"direction {directions[outside][0]} out of range for n={f.n}")
    words = scan.word_count(f.n)
    base = scan.to_words(f.bits, words)
    rows = max(1, CHUNK_BITS >> f.n)
    for start in range(0, len(directions), rows):
        chunk = directions[start:start + rows]
        tables = np.broadcast_to(base, (len(chunk), words))
        weights = np.empty(chunk.shape, dtype=np.int64)
        for j in range(chunk.shape[1]):
            weights[:, j] = np.bitwise_count(tables).sum(axis=1, dtype=np.int64)
            tables = tables ^ _translate_rows(tables, chunk[:, j], f.n)
        yield np.ascontiguousarray(tables), weights


def _point_bits(tables: np.ndarray, n: int) -> np.ndarray:
    """``(rows, 2^n)`` uint8 values of ``(rows, words)`` uint64 tables, point by point."""
    raw = tables.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw, axis=1, count=1 << n, bitorder="little")


def _block_counts(tables: np.ndarray, n: int, blocks: int) -> np.ndarray:
    """``(blocks, 2^n)`` int64: per point, how many rows of each of ``blocks`` equal
    consecutive blocks of ``(rows, words)`` uint64 tables are 1 there."""
    bits = _point_bits(tables, n).reshape(blocks, -1, 1 << n)
    # The smallest unsigned type that holds a block's row count sums fastest and exactly.
    return bits.sum(axis=1, dtype=np.min_scalar_type(bits.shape[1])).astype(np.int64)


def point_counts(tables: np.ndarray, n: int) -> np.ndarray:
    """Per point x, how many rows of ``(rows, words)`` uint64 tables are 1 at x (int64)."""
    return _block_counts(tables, n, 1)[0]


def _level(tables: np.ndarray, n: int, keep: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Derive every row g of ``(rows, words)`` uint64 tables along all 2^n directions.

    Returns ``ones[r, x]``, how many a in [0, 2^n) have (g_r)_a(x) = 1, and,
    if ``keep``, the children g_r ^ g_r(. + a) themselves, row-major in (r, a).
    A chunk holds a power of two of children and at most ``CHUNK_BITS`` table
    bits, so it holds the children of whole rows or part of one row's.
    """
    size = 1 << n
    total = len(tables) << n
    per = 1 << max(0, (CHUNK_BITS >> n).bit_length() - 1)
    ones = np.zeros((len(tables), size), dtype=np.int64)
    children = []
    for start in range(0, total, per):
        index = np.arange(start, min(start + per, total))
        parents = tables[index >> n]
        kids = parents ^ _translate_rows(parents, index & (size - 1), n)
        rows = max(1, len(index) >> n)
        ones[start >> n:(start >> n) + rows] += _block_counts(kids, n, rows)
        if keep:
            children.append(kids)
    return ones, np.concatenate(children) if keep else None


def low_weight_threshold(k: int, eps: Fraction) -> Fraction:
    return Fraction(1, 1 << k) * (1 - eps)


def require_low_weight(f: FunctionTable, k: int, eps: Fraction) -> None:
    """Gate for every operation that needs wt(f) < 2^-k (1 - eps)."""
    if k < 1:
        raise InputError(f"derivative order k must be >= 1, got {k}")
    if not 0 < eps < 1:
        raise InputError(f"eps must be in (0, 1), got {eps}")
    w = weight(f)
    bound = low_weight_threshold(k, eps)
    if w >= bound:
        raise WeightTooLargeError(
            f"weight {w} must be below 2^-{k}*(1-{eps}) = {bound}"
        )


@dataclass(frozen=True)
class IdentityReport:
    max_deviation: Fraction
    max_abs_coefficient: Fraction
    tuples_checked: int
    points_checked: int

    def as_dict(self) -> dict:
        return {
            "max_deviation": str(self.max_deviation),
            "max_abs_coefficient": str(self.max_abs_coefficient),
            "tuples_checked": self.tuples_checked,
            "points_checked": self.points_checked,
        }


def require_derived_bits(bits: int, what: str) -> None:
    """``ScaleError`` before a check or an approximator derives more than
    ``DERIVED_TABLE_BITS_CAP`` derivative-table bits."""
    if bits > DERIVED_TABLE_BITS_CAP:
        raise ScaleError(
            f"{what} capped at 2^{DERIVED_TABLE_BITS_CAP.bit_length() - 1} "
            f"derived table bits (needs 2^{bits.bit_length() - 1})"
        )


def _max_over_parents(scales: list[Fraction], inverse: np.ndarray, size: int) -> list[Fraction]:
    """Per distinct child, the largest scale of a parent whose extension derives it."""
    values = sorted(set(scales))
    rank = {v: i for i, v in enumerate(values)}
    best = np.full(int(inverse.max()) + 1, -1, dtype=np.int64)
    np.maximum.at(best, inverse, np.repeat([rank[s] for s in scales], size))
    return [values[r] for r in best.tolist()]


def verify_derivative_representation(
    f: FunctionTable, k: int, eps: Fraction
) -> IdentityReport:
    """Check (-1)^f(x) == E over all order-k tuples of [coeff * (-1)^derivative(x)].

    The check is exact and uses only integers. At a prefix g with bias
    numerator B(g) = 2^n - 2 wt(g) != 0, the single-derivative identity
    sum_a (-1)^{g_a(x)} = B(g) (-1)^{g(x)} is an equality of integers. By
    induction on the depth, the average over the tuples below g of
    coeff * (-1)^derivative equals (-1)^g whenever that equality holds at g
    and at every distinct prefix below it, so ``max_deviation`` is 0 once every
    level of distinct prefixes, depth 0 to k-1, passes. A level that fails
    can only be a kernel bug and raises ``InvariantFailure``; a zero B raises
    ``DegenerateBiasError``.

    ``max_abs_coefficient`` is the largest product of 2^n/|B| along a path
    of prefixes, carried as one ``Fraction`` per distinct prefix.
    """
    require_low_weight(f, k, eps)
    n, size = f.n, f.size
    require_derived_bits(size ** (k + 1), f"representation check at n={n}, k={k}")
    tables = scan.to_words(f.bits, scan.word_count(n))[None, :]
    scales = [Fraction(1)]
    for depth in range(k):
        # ``tables`` holds the distinct depth-``depth`` prefixes and ``scales``
        # the largest coefficient of a path down to each.
        biases = size - 2 * np.bitwise_count(tables).sum(axis=1, dtype=np.int64)
        if not biases.all():
            raise DegenerateBiasError(
                "zero prefix bias under the low-weight precondition"
            )
        scales = [s * Fraction(size, abs(b)) for s, b in zip(scales, biases.tolist())]
        ones, children = _level(tables, n, keep=depth + 1 < k)
        signs = 1 - 2 * _point_bits(tables, n).astype(np.int64)
        if not np.array_equal(size - 2 * ones, biases[:, None] * signs):
            raise InvariantFailure(
                f"single-derivative identity failed at a depth-{depth} prefix"
            )
        if children is not None:
            tables, inverse = np.unique(children, axis=0, return_inverse=True)
            scales = _max_over_parents(scales, inverse.reshape(-1), size)
    return IdentityReport(
        max_deviation=Fraction(0),
        max_abs_coefficient=max(scales),
        tuples_checked=size**k,
        points_checked=size,
    )


def single_derivative_identity(g: FunctionTable) -> IdentityReport:
    """Check (-1)^g(x) == (1/bias(g)) * E_a[(-1)^{g_a(x)}] at every point.

    The direction average is accumulated honestly, so the check is not
    circular: ``_level`` builds one derivative table per direction a in
    [0, 2^n), and at each point x the sum over a of (-1)^{g_a(x)} is 2^n
    minus twice the number of those tables that are 1 at x. Those tables
    total 4^n bits, under ``DERIVED_TABLE_BITS_CAP``.
    """
    size = g.size
    bias_num = size - 2 * g.bits.bit_count()
    if bias_num == 0:
        raise ZeroBiasError("balanced function: identity undefined")
    require_derived_bits(size * size, f"single-derivative identity at n={g.n}")
    table = scan.to_words(g.bits, scan.word_count(g.n))[None, :]
    ones = _level(table, g.n, keep=False)[0][0]
    signs = 1 - 2 * point_counts(table, g.n)
    # (acc/size) / bias - sign = (acc - sign*bias_num) / bias_num, acc = size - 2*ones
    max_num = int(np.abs(size - 2 * ones - signs * bias_num).max())
    return IdentityReport(
        max_deviation=Fraction(max_num, abs(bias_num)),
        max_abs_coefficient=Fraction(size, abs(bias_num)),
        tuples_checked=size,
        points_checked=size,
    )


@dataclass(frozen=True)
class SweepReport:
    n: int
    functions_checked: int
    zero_bias_skipped: int
    max_deviation: Fraction
    points_checked: int

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "functions_checked": self.functions_checked,
            "zero_bias_skipped": self.zero_bias_skipped,
            "max_deviation": str(self.max_deviation),
            "points_checked": self.points_checked,
        }


def verify_single_derivative_exhaustive(n: int) -> SweepReport:
    """Run the single-derivative identity over every function on n variables.

    Vectorized over the 2^(2^n) functions at once. For every direction a,
    the derivative tables at all points are added into per-point counts of
    ones; all arithmetic is integer-exact in small dtypes (tables and counts
    in uint8, at most 2^n = 16 per point, signed values in int16), so the
    reported deviation is exact. Capped at ``ALL_FUNCTIONS_VARS`` variables.
    """
    require_all_functions(n, "exhaustive function sweep")
    size = 1 << n
    count = 1 << size
    funcs = np.arange(count, dtype=np.uint32)
    table_bits = ((funcs[:, None] >> np.arange(size)[None, :]) & 1).astype(np.uint8)
    ones = np.zeros((count, size), dtype=np.uint8)
    points = np.arange(size)
    for a in range(size):
        ones += table_bits[:, points ^ a] ^ table_bits
    acc = size - 2 * ones.astype(np.int16)
    bias_num = size - 2 * table_bits.sum(axis=1, dtype=np.int16)
    signs = 1 - 2 * table_bits.astype(np.int16)
    dev_num = np.abs(acc - signs * bias_num[:, None])
    nonzero = bias_num != 0
    max_dev = Fraction(0)
    row_max = dev_num[nonzero].max(axis=1)
    if row_max.any():
        denom = np.abs(bias_num[nonzero])
        fracs = [Fraction(int(a), int(b)) for a, b in zip(row_max, denom) if a]
        max_dev = max(fracs)
    return SweepReport(
        n=n,
        functions_checked=int(nonzero.sum()),
        zero_bias_skipped=int(count - nonzero.sum()),
        max_deviation=max_dev,
        points_checked=size,
    )


@dataclass(frozen=True)
class BiasBoundCheck:
    prefix_length: int
    bound: Fraction
    min_bias: Fraction
    tuples_checked: int
    violations: tuple = ()


@dataclass(frozen=True)
class BiasBoundReport:
    k: int
    eps: Fraction
    exhaustive: bool
    checks: tuple[BiasBoundCheck, ...] = field(default_factory=tuple)

    @property
    def violation_count(self) -> int:
        return sum(len(c.violations) for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "eps": str(self.eps),
            "exhaustive": self.exhaustive,
            "violations": self.violation_count,
            "checks": [
                {
                    "prefix_length": c.prefix_length,
                    "bound": str(c.bound),
                    "min_bias": str(c.min_bias),
                    "tuples_checked": c.tuples_checked,
                    "violations": [list(v[0]) for v in c.violations],
                }
                for c in self.checks
            ],
        }


def check_bias_bounds(
    f: FunctionTable,
    k: int,
    eps: Fraction,
    samples: int = 2000,
    seed: int = 0,
) -> BiasBoundReport:
    """Check bias(f_{a_1..a_s}) >= 1 - 2^(s+1-k) (1 - eps) for every prefix length s < k.

    Exhaustive over all tuples when n*(k-1) <= ``EXHAUSTIVE_TUPLE_BITS``;
    otherwise, for each s >= 1, ``samples`` (at least 1) seeded random tuples
    with the same assertions, their biases read from ``derivative_chunks``
    popcounts. The exhaustive walk derives at most 2^(nk) table bits, the
    sampled check (k-1) * samples * 2^n; either raises ``ScaleError`` before
    its first derivative past ``DERIVED_TABLE_BITS_CAP``.
    Violations are reported, not raised: a non-empty list would falsify the
    underlying math and is treated as a test failure by callers.
    """
    require_low_weight(f, k, eps)
    if samples < 1:
        raise InputError(f"samples must be >= 1, got {samples}")
    n = f.n
    size = f.size
    exhaustive = n * (k - 1) <= EXHAUSTIVE_TUPLE_BITS
    if exhaustive:
        require_derived_bits(size**k, f"exhaustive bias-bounds walk at n={n}, k={k}")
    else:
        require_derived_bits((k - 1) * samples * size,
                             f"sampled bias-bounds check at n={n}, k={k}")
    rng = random.Random(seed)
    checks = []
    for s in range(k):
        bound = 1 - Fraction(1 - eps) / (1 << (k - 1 - s))
        if s and exhaustive:
            # Walk distinct derivative functions level by level, keeping one
            # representative tuple per function for reporting.
            checked = size**s
            layer = {f.bits: ()}
            for _ in range(s):
                nxt = {}
                for bits, rep in layer.items():
                    g = FunctionTable(n, bits)
                    for a in range(size):
                        nxt.setdefault(derive(g, a).bits, rep + (a,))
                layer = nxt
            biases = [(rep, Fraction(size - 2 * bits.bit_count(), size))
                      for bits, rep in layer.items()]
        else:
            tuples = [tuple(rng.getrandbits(n) for _ in range(s))
                      for _ in range(samples if s else 1)]
            checked = len(tuples)
            weights = np.concatenate([
                np.bitwise_count(tables).sum(axis=1, dtype=np.int64)
                for tables, _ in derivative_chunks(f, np.array(tuples, dtype=np.int64))
            ])
            biases = [(t, Fraction(size - 2 * w, size)) for t, w in zip(tuples, weights.tolist())]
        checks.append(
            BiasBoundCheck(
                prefix_length=s,
                bound=bound,
                min_bias=min((b for _, b in biases), default=Fraction(1)),
                tuples_checked=checked,
                violations=tuple((t, b) for t, b in biases if b < bound),
            )
        )
    return BiasBoundReport(k=k, eps=eps, exhaustive=exhaustive, checks=tuple(checks))

