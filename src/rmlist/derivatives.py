"""Discrete derivatives and exact verification of the derivative-representation identities.

The central objects, whose uint64 word-row kernels all come from ``scan``:

* ``derive`` - f_a(x) = f(x+a) + f(x) on one bigint truth table.
* ``derivative_chunks`` - the batched kernel: order-k derivatives of one function
  along many direction tuples at once, as uint64 tables with their prefix weights.
* ``_level`` - the same kernel one level at a time: every table of a batch derived
  along all 2^n directions, as per-point counts of ones and, if asked, the children.
* ``_require_identity`` - the integer single-derivative identity, the one comparison
  of the three checks below, each of which raises on a miss.
* ``verify_derivative_representation`` - checks exactly, over all 2^(nk) direction
  tuples and all 2^n points, that a low-weight function is the expectation of its
  order-k derivatives, each weighted by the product of its inverse prefix biases: by
  induction on the depth, ``_require_identity`` at every distinct prefix derivative
  of depth below k implies it. One ``_level`` per depth keeps the distinct children.
* ``check_bias_bounds`` - the prefix-bias lower bounds that make the coefficients finite.
* ``single_derivative_identity`` - ``_require_identity`` for any non-balanced
  function, one ``_level`` of its one table.
* ``verify_single_derivative_exhaustive`` - ``_require_identity`` for every function on
  n <= 4 variables at once, point-major: each direction XORs and adds contiguous rows.
* ``unit_derivative_counts`` - the derivatives of one table along every set of
  ``order`` unit vectors, counted on one point per coset: the subcube parities that
  majority-logic decoding votes with, walked level by level with shared prefixes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import scan
from .boolfunc import FunctionTable, require_all_functions, translate, weight
from .caps import DERIVED_TABLE_BITS_CAP
from .errors import (
    DegenerateBiasError,
    InputError,
    InvariantFailure,
    ScaleError,
    WeightTooLargeError,
    ZeroBiasError,
)

CHUNK_BITS = 1 << 22  # most table bits in one chunk of ``derivative_chunks`` or ``_level``


def derive(f: FunctionTable, a: int) -> FunctionTable:
    """Discrete derivative in direction a: x -> f(x + a) + f(x)."""
    return FunctionTable(f.n, f.bits ^ translate(f, a).bits)


def draw_directions(rng: random.Random, rows: int, k: int, n: int) -> np.ndarray:
    """``(rows, k)`` int64: what ``rows * k`` calls to ``rng.getrandbits(n)`` return,
    row by row, from one call, leaving ``rng`` in the same state.

    For 1 <= n <= 32, ``getrandbits(n)`` is the top n bits of one 32-bit
    Mersenne Twister output, and ``getrandbits(32 * c)`` lays c outputs out
    little-endian, the first in the lowest word.
    """
    if not 1 <= n <= 32:
        raise InputError(f"directions are drawn for 1 <= n <= 32, got n={n}")
    count = rows * k
    words = np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), dtype="<u4")
    return (words >> (32 - n)).astype(np.int64).reshape(rows, k)


def direction_array(directions, n: int) -> np.ndarray:
    """``directions`` as int64, or ``InputError`` if one is outside [0, 2^n)."""
    directions = np.asarray(directions, dtype=np.int64)
    outside = (directions < 0) | (directions >= 1 << n)
    if outside.any():
        raise InputError(f"direction {directions[outside][0]} out of range for n={n}")
    return directions


def derivative_chunks(
    f: FunctionTable, directions: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Order-k derivatives of f along each row of a ``(rows, k)`` direction array, chunk by chunk.

    Yields ``(tables, weights)`` for consecutive chunks of the rows, each of
    at most ``CHUNK_BITS`` table bits: ``tables[i]`` is the derivative along
    the chunk's i-th direction tuple as little-endian uint64 words
    (``scan.to_words`` rows), and ``weights[i, j]`` is the number of ones
    of its j-th prefix f, f_{a_1}, ..., f_{a_1..a_{k-1}}. Every count is an
    integer popcount.
    """
    directions = direction_array(directions, f.n)
    base = scan.to_words([f.bits], f.n)
    rows = max(1, CHUNK_BITS >> f.n)
    for start in range(0, len(directions), rows):
        chunk = directions[start:start + rows]
        tables = np.broadcast_to(base, (len(chunk), base.shape[1]))
        weights = np.empty(chunk.shape, dtype=np.int64)
        for j in range(chunk.shape[1]):
            weights[:, j] = scan.weights(tables)
            tables = tables ^ scan.translate(tables, chunk[:, j], f.n)
        yield np.ascontiguousarray(tables), weights


def _block_counts(tables: np.ndarray, n: int, blocks: int) -> np.ndarray:
    """``(blocks, 2^n)`` int64: per point, how many rows of each of ``blocks`` equal
    consecutive blocks of ``(rows, words)`` uint64 tables are 1 there."""
    bits = scan.point_bits(tables, n).reshape(blocks, -1, 1 << n)
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
        kids = parents ^ scan.translate(parents, index & (size - 1), n)
        rows = max(1, len(index) >> n)
        ones[start >> n:(start >> n) + rows] += _block_counts(kids, n, rows)
        if keep:
            children.append(kids)
    return ones, np.concatenate(children) if keep else None


def unit_derivative_counts(table: np.ndarray, n: int,
                           order: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For every set S of ``order`` variables, the ones of the derivative of a
    ``(1, words)`` uint64 table along the unit vectors e_i, i in S, counted on
    the points with x_i = 0 for every i in S.

    That derivative is constant on each coset of the subcube spanned by
    S, where it is the coset's parity, so the count is the number of cosets
    of odd parity, its weight / 2^order. Yields ``(masks, counts)`` batch by
    batch, the variable sets S as int64 masks; each S comes once.

    S is built from its highest variable down and its prefixes are shared: a
    level derives each table of the level above along every e_j below its
    lowest variable, keeping x_j = 0 and zeroing x_j = 1, and passes its
    tables down in batches of at most ``CHUNK_BITS`` bits (or one table).
    """
    yield from _unit_levels(table, np.zeros(1, dtype=np.int64), np.array([n]), n, order)


def _unit_levels(tables: np.ndarray, masks: np.ndarray, lowest: np.ndarray, n: int,
                 depth: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``unit_derivative_counts`` ``depth`` variables below the rows of ``tables``:
    their variable sets are ``masks`` and their lowest variables ``lowest``, which
    ascend, so the rows that e_j extends are a suffix of them."""
    if not depth:
        yield masks, scan.weights(tables)
        return
    rows = max(1, CHUNK_BITS >> n)
    firsts = np.searchsorted(lowest, np.arange(n), side="right").tolist()
    pieces = [(j, start, min(start + rows, len(tables)))
              for j, first in enumerate(firsts) for start in range(first, len(tables), rows)]
    batch, held = [], 0
    for j, start, stop in pieces:
        if held + stop - start > rows:
            yield from _unit_levels(*_unit_children(tables, masks, batch, held), n, depth - 1)
            batch, held = [], 0
        batch.append((j, start, stop))
        held += stop - start
    if batch:
        yield from _unit_levels(*_unit_children(tables, masks, batch, held), n, depth - 1)


def _unit_children(tables: np.ndarray, masks: np.ndarray, batch: list[tuple[int, int, int]],
                   held: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(children, masks, lowest)``: for each ``(j, start, stop)`` of the batch, the
    ``scan.unit_delta`` of the rows ``start:stop`` of ``(rows, words)`` uint64 tables
    along e_j; ``held`` rows in all."""
    kids = np.empty((held, tables.shape[1]), dtype=np.uint64)
    kid_masks = np.empty(held, dtype=np.int64)
    lowest = np.empty(held, dtype=np.int64)
    at = 0
    for j, start, stop in batch:
        scan.unit_delta(tables[start:stop], j, kids[at:at + stop - start])
        np.bitwise_or(masks[start:stop], 1 << j, out=kid_masks[at:at + stop - start])
        lowest[at:at + stop - start] = j
        at += stop - start
    return kids, kid_masks, lowest


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
    max_abs_coefficient: Fraction
    tuples_checked: int
    points_checked: int
    max_deviation = Fraction(0)  # a report exists only once ``_require_identity`` passed

    def as_dict(self) -> dict:
        return {
            "max_deviation": str(self.max_deviation),
            "max_abs_coefficient": str(self.max_abs_coefficient),
            "tuples_checked": self.tuples_checked,
            "points_checked": self.points_checked,
        }


def derived_bits_refusal(bits: int) -> str | None:
    """The refusal of ``bits`` derived table bits past ``DERIVED_TABLE_BITS_CAP``, or None."""
    if bits > DERIVED_TABLE_BITS_CAP:  # the need rounded up to a power of 2
        return (f"capped at 2^{DERIVED_TABLE_BITS_CAP.bit_length() - 1} "
                f"derived table bits (needs 2^{(bits - 1).bit_length()})")


def require_derived_bits(bits: int, what: str) -> None:
    """``ScaleError`` with the ``derived_bits_refusal`` before ``what`` derives ``bits``."""
    if reason := derived_bits_refusal(bits):
        raise ScaleError(f"{what} {reason}")


def _require_identity(ones: np.ndarray, bits: np.ndarray, biases: np.ndarray, size: int,
                      where: str) -> None:
    """sum_a (-1)^{g_a(x)} = B(g) (-1)^{g(x)}, B(g) = 2^n - 2 wt(g), at every point x of
    every g, or ``InvariantFailure`` naming ``where``.

    With ``ones`` the directions a that have g_a(x) = 1 and ``bits`` g(x), it reads
    size - 2 ones == B (1 - 2 bits). It holds for every g, balanced or not, so a miss
    is a kernel bug. ``biases`` broadcasts B against both, in the signed dtype of the
    in-place comparison.
    """
    acc = ones.astype(biases.dtype)
    acc *= -2
    acc += size
    signs = bits.astype(biases.dtype)
    signs *= -2
    signs += 1
    signs *= biases
    acc -= signs
    if acc.any():
        raise InvariantFailure(f"single-derivative identity failed {where}")


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

    Exact and in integers: by induction on the depth, it holds once
    ``_require_identity`` passes on each level of distinct prefixes, depth 0 to
    k-1. A zero prefix bias raises ``DegenerateBiasError``.

    ``max_abs_coefficient`` is the largest product of 2^n/|B| along a path
    of prefixes, carried as one ``Fraction`` per distinct prefix.
    """
    require_low_weight(f, k, eps)
    n, size = f.n, f.size
    require_derived_bits(size ** (k + 1), f"representation check at n={n}, k={k}")
    tables = scan.to_words([f.bits], n)
    scales = [Fraction(1)]
    for depth in range(k):
        # ``tables`` holds the distinct depth-``depth`` prefixes and ``scales``
        # the largest coefficient of a path down to each.
        biases = size - 2 * scan.weights(tables)
        if not biases.all():
            raise DegenerateBiasError(
                "zero prefix bias under the low-weight precondition"
            )
        scales = [s * Fraction(size, abs(b)) for s, b in zip(scales, biases.tolist())]
        ones, children = _level(tables, n, keep=depth + 1 < k)
        _require_identity(ones, scan.point_bits(tables, n), biases[:, None], size,
                          f"at a depth-{depth} prefix")
        if children is not None:
            tables, inverse = scan.unique_rows(children)
            scales = _max_over_parents(scales, inverse, size)
    return IdentityReport(
        max_abs_coefficient=max(scales),
        tuples_checked=size**k,
        points_checked=size,
    )


def single_derivative_identity(g: FunctionTable) -> IdentityReport:
    """``_require_identity`` for one g, derived by ``_level`` along every direction
    (4^n table bits, under ``DERIVED_TABLE_BITS_CAP``). A balanced g raises
    ``ZeroBiasError`` first: the normalized identity divides by its bias."""
    size = g.size
    bias_num = size - 2 * g.bits.bit_count()
    if bias_num == 0:
        raise ZeroBiasError("balanced function: identity undefined")
    require_derived_bits(size * size, f"single-derivative identity at n={g.n}")
    table = scan.to_words([g.bits], g.n)
    _require_identity(_level(table, g.n, keep=False)[0], scan.point_bits(table, g.n),
                      np.int64(bias_num), size, f"at n={g.n}")
    return IdentityReport(
        max_abs_coefficient=Fraction(size, abs(bias_num)),
        tuples_checked=size,
        points_checked=size,
    )


@dataclass(frozen=True)
class SweepReport:
    n: int
    functions_checked: int
    zero_bias_skipped: int
    points_checked: int
    max_deviation = Fraction(0)  # a report exists only once ``_require_identity`` passed

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "functions_checked": self.functions_checked,
            "zero_bias_skipped": self.zero_bias_skipped,
            "max_deviation": str(self.max_deviation),
            "points_checked": self.points_checked,
        }


def _sweep_counts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Point-major ``(2^n, 2^(2^n))`` uint8 arrays over every function g on n
    variables, in table order: g(x), and how many directions a have g_a(x) = 1.

    Viewed as a ``(2,) * n + (functions,)`` cube, with variable i on axis
    n-1-i, the translate x -> x + a is the cube with the axes of a's bits
    reversed, a view; so each direction costs one XOR of contiguous rows
    into a buffer and one add of it into the counts.
    """
    size = 1 << n
    count = 1 << size
    words = scan.to_words(range(count), n)
    table_bits = np.stack([scan.point_bit(words, x) for x in range(size)])
    cube = table_bits.reshape((2,) * n + (count,))
    ones = np.zeros_like(table_bits)
    derivative = np.empty_like(cube)
    for a in range(size):
        moved = cube[tuple(slice(None, None, -1 if (a >> (n - 1 - axis)) & 1 else 1)
                           for axis in range(n))]
        np.bitwise_xor(moved, cube, out=derivative)
        ones += derivative.reshape(size, count)
    return table_bits, ones


def verify_single_derivative_exhaustive(n: int) -> SweepReport:
    """``_require_identity`` for all 2^(2^n) functions on n <= ``ALL_FUNCTIONS_VARS``
    variables at once, point-major from ``_sweep_counts``, in int16. The balanced ones
    count as ``zero_bias_skipped``: the normalized identity divides by their bias."""
    require_all_functions(n, "exhaustive function sweep")
    size = 1 << n
    table_bits, ones = _sweep_counts(n)
    bias_num = size - 2 * table_bits.sum(axis=0, dtype=np.int16)
    _require_identity(ones, table_bits, bias_num, size, f"among the functions on n={n}")
    balanced = int(np.count_nonzero(bias_num == 0))
    return SweepReport(
        n=n,
        functions_checked=(1 << size) - balanced,
        zero_bias_skipped=balanced,
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

    Exhaustive over all tuples when the walk's 2^(nk) derived table bits fit
    ``DERIVED_TABLE_BITS_CAP``: the walk carries each level's distinct
    derivatives into the next and keeps none of the last. Otherwise, for each
    s >= 1, ``samples`` (at least 1) seeded random tuples with the same
    assertions, their biases read from ``derivative_chunks`` popcounts; their
    (k-1) * samples * 2^n bits past the cap raise ``ScaleError`` before the
    first derivative.
    Violations are reported, not raised: a non-empty list would falsify the
    underlying math and is treated as a test failure by callers.
    """
    require_low_weight(f, k, eps)
    if samples < 1:
        raise InputError(f"samples must be >= 1, got {samples}")
    n, size = f.n, f.size
    exhaustive = derived_bits_refusal(size**k) is None
    if not exhaustive:
        require_derived_bits((k - 1) * samples * size,
                             f"sampled bias-bounds check at n={n}, k={k}")
    rng = random.Random(seed)
    checks = []
    layer = {f.bits: ()}  # the distinct derivatives of the last level, first tuple to each
    for s in range(k):
        bound = 1 - Fraction(1 - eps) / (1 << (k - 1 - s))
        limit = math.floor((1 - bound) * size / 2)  # bias < bound iff weight > limit
        if s and exhaustive:
            # One level of the walk over distinct derivatives, each reported by
            # the first tuple that reaches it. The last level keeps no table,
            # only the heaviest weight and the distinct violators.
            checked = size**s
            heaviest, heavy, nxt = 0, {}, {}
            for bits, rep in layer.items():
                g = FunctionTable(n, bits)
                for a in range(size):
                    child = derive(g, a).bits
                    w = child.bit_count()
                    heaviest = max(heaviest, w)
                    if w > limit:
                        heavy.setdefault(child, rep + (a,))
                    if s < k - 1:
                        nxt.setdefault(child, rep + (a,))
            layer = nxt
            violators = [(rep, bits.bit_count()) for bits, rep in heavy.items()]
        else:
            tuples = draw_directions(rng, samples if s else 1, s, n)
            checked = len(tuples)
            weights = np.concatenate([scan.weights(tables)
                                      for tables, _ in derivative_chunks(f, tuples)]).tolist()
            heaviest = max(weights)
            violators = [(tuple(t), w) for t, w in zip(tuples.tolist(), weights) if w > limit]
        checks.append(
            BiasBoundCheck(
                prefix_length=s,
                bound=bound,
                min_bias=Fraction(size - 2 * heaviest, size),
                tuples_checked=checked,
                violations=tuple((t, Fraction(size - 2 * w, size)) for t, w in violators),
            )
        )
    return BiasBoundReport(k=k, eps=eps, exhaustive=exhaustive, checks=tuple(checks))

