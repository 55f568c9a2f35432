"""List-decoding balls and list-size estimation over center strategies.

``ball`` is exact: the scan kernel (``scan``) XORs the center into half the
codewords of the code, a tile of low coefficient combinations at a time, and
keeps the words within the radius, walked rows and their complements alike,
as arrays of coefficient vectors and distances. It sorts them by distance,
then canonical ANF order, with one integer key per member, and refuses a ball
past ``caps.BALL_MEMBER_CAP`` members before any row is built. The true list
size maximizes the ball over every possible center, which is only feasible
exhaustively at n <= 4; other strategies are labeled lower estimates.

A ball's size depends only on the center's coset f + RM(n, d). So
``estimate_list_size``, whatever its strategy, reduces each chunk of centers
to their coset minima, one vectorized XOR per pivot of the row-reduced code,
and counts every distinct coset once with the batched kernel
(``scan.count_within``). The exhaustive strategy runs one ball per coset,
around its smallest member: 2^(2^n - dimension) balls, which with the
2^dimension codewords of each coset cover all 2^(2^n) functions. Every
estimate is checked against the binary Johnson bound; the paper's explicit
list bound, ``list_size_bound``, is built in ``enumeration`` beside the
accumulative one.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boolfunc import (
    AnfPolynomial,
    CodeParams,
    FunctionTable,
    anf_to_table,
    complement,
    flip_budget,
    monomial_table,
    require_all_functions,
)
from . import scan
from .caps import BALL_MEMBER_CAP
from .enumeration import construct_low_weight_family
from .errors import InputError, InvariantFailure, ScaleError


@dataclass(frozen=True, eq=False)
class Ball:
    """Every codeword within ``radius`` of ``center``, by distance, then canonical ANF order.

    Member i is ``flips[i]`` points from the center, and ``ranked[i]`` holds
    its monomials: with D the code's dimension, bit D-1-r stands for
    ``order[r]``, the r-th smallest monomial mask, so the bits read from the
    top in canonical ANF order.
    ``members`` builds the ``(AnfPolynomial, Fraction)`` pairs from them on
    demand; ``formats.ball_csv`` renders the rows without them.
    """

    center: FunctionTable
    radius: Fraction
    order: tuple[int, ...]  # the code's monomial masks, ascending
    flips: np.ndarray
    ranked: np.ndarray

    @property
    def size(self) -> int:
        return len(self.flips)

    @property
    def members(self) -> tuple[tuple[AnfPolynomial, Fraction], ...]:
        top, flips = len(self.order) - 1, self.flips.tolist()
        distance = {w: Fraction(w, self.center.size) for w in set(flips)}
        return tuple(
            (AnfPolynomial(self.center.n, frozenset(
                self.order[top - j] for j in range(top + 1) if r >> j & 1)), distance[w])
            for w, r in zip(flips, self.ranked.tolist()))


@functools.lru_cache(maxsize=8)
def _mask_ranks(params: CodeParams) -> tuple[tuple[int, ...], np.ndarray]:
    """The code's monomial masks, ascending, and ``(bytes, 256)`` tables that map each
    byte of a coefficient vector to its ``Ball.ranked`` bits; a vector's ranked bits
    are the OR of its bytes' entries."""
    masks = scan.code_scan(params).masks
    order = tuple(sorted(masks))
    top = len(masks) - 1
    bit = np.array([1 << (top - order.index(m)) for m in masks]
                   + [0] * (-len(masks) % 8), dtype=np.int64).reshape(-1, 8)
    selects = np.arange(256)[:, None] >> np.arange(8) & 1
    tables = (selects @ bit.T).T
    tables.flags.writeable = False
    return order, tables


def ball(center: FunctionTable, alpha: Fraction, params: CodeParams) -> Ball:
    """All degree-<= d codewords within relative distance alpha of the center,
    sorted by distance, then canonical ANF order; ``ScaleError`` past
    ``BALL_MEMBER_CAP`` members."""
    alpha = Fraction(alpha)
    if center.n != params.n:
        raise InputError(f"mismatched variable counts {center.n} != {params.n}")
    max_flips = flip_budget(alpha, center.size)
    kernel = scan.code_scan(params)
    codes, flips, found = [], [], 0
    for block_codes, block_flips in scan.within(
            kernel, scan.to_words([center.bits], params.n), max_flips):
        found += len(block_codes)
        if found > BALL_MEMBER_CAP:
            raise ScaleError(f"ball holds more than {BALL_MEMBER_CAP} members")
        codes.append(block_codes)
        flips.append(block_flips)
    order, tables = _mask_ranks(params)
    codes, flips = (np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.intp)
                    for blocks in (codes, flips))
    ranked = tables[0][codes & 255]
    for i in range(1, len(tables)):
        ranked |= tables[i][codes >> 8 * i & 255]
    if len(codes) > 1:  # one member is sorted already; most unique-decoding balls hold one
        # A member's key is the rank of its ascending mask tuple among all 2^D
        # such tuples, so integer order is tuple order. Below a nonempty tuple S
        # of k masks, whose ranked bits are R, come each proper prefix of S and,
        # for each mask of S, every tuple that agrees with S before it and then
        # takes a smaller mask: 2^D + k - R - lowbit(R) tuples. Taken mod 2^D,
        # the same formula gives the zero word its rank 0.
        key = (np.bitwise_count(ranked) - ranked - (ranked & -ranked)) & ((1 << len(order)) - 1)
        by_key = np.lexsort((key, flips))
        flips, ranked = flips[by_key], ranked[by_key]
    return Ball(center=center, radius=alpha, order=order, flips=flips, ranked=ranked)


def ball_size(center_bits: int, alpha: Fraction, params: CodeParams) -> int:
    """Ball cardinality only, by the scan of ``ball``; the center must fit in 2^n bits."""
    if center_bits < 0 or center_bits.bit_length() > params.block_length:
        raise InputError(f"center is not a word of {params.block_length} bits")
    max_flips = flip_budget(alpha, params.block_length)
    kernel = scan.code_scan(params)
    return int(scan.count_within(kernel, scan.to_words([center_bits], params.n), max_flips)[0])


@dataclass(frozen=True)
class ListSizeEstimate:
    radius: Fraction
    strategy: str
    centers_tried: int
    best_center: str
    best_center_bits: int
    best_size: int

    @property
    def exhaustive(self) -> bool:
        return self.strategy == "exhaustive"


def estimate_list_size(
    alpha: Fraction,
    params: CodeParams,
    strategy: str = "zero",
    count: int = 64,
    seed: int = 0,
) -> ListSizeEstimate:
    """Maximize |ball| over a chosen center set.

    Strategies: ``zero`` (the zero word only), ``random`` (seeded uniform
    centers), ``family`` (low-weight family members, their complements, and
    half-mixtures of consecutive members - adversarial centers), and
    ``exhaustive`` (every function; n <= 4 only, the only strategy whose
    result equals the true maximum). The zero center is always included, so
    every estimate is at least the accumulative count at alpha. ``exhaustive``
    runs one ball per coset but reports every function as tried, and names
    the smallest function whose ball is maximal. Centers are taken lazily, a
    chunk at a time, and each chunk's distinct cosets are counted once; a best
    center that is not its coset's minimum has its own ball counted again, as
    a check.
    """
    alpha = Fraction(alpha)
    max_flips = flip_budget(alpha, params.block_length)
    if count < 0:
        raise InputError(f"count must be >= 0, got {count}")
    kernel = scan.code_scan(params)  # past a scan cap, raise before any center is made
    size = params.block_length
    covered = None  # centers the loop stands for, when not the ones it runs
    if strategy == "zero":
        others, name_of = (), None
    elif strategy == "random":
        rng = random.Random(seed)
        others = (rng.getrandbits(size) for _ in range(count))
        name_of = lambda i, bits: f"random[{i}]"
    elif strategy == "family":
        family = _family_centers(params, count)
        others = [bits for _, bits in family]
        name_of = lambda i, bits: family[i][0]
    elif strategy == "exhaustive":
        require_all_functions(params.n, "exhaustive centers")
        # One center per coset; the minima ascend, so the first maximal one is
        # the first maximal function.
        others = _coset_minima(params)[1:]
        covered = 1 << size
        name_of = lambda i, bits: f"exhaustive[{bits}]"
    else:
        raise InputError(f"unknown strategy {strategy!r}")
    # Only the best center is named; the first maximum wins. A chunk's centers
    # take at most ``scan.TILE_BYTES``.
    centers = itertools.chain([0], others)
    chunk_size = scan.TILE_BYTES // (8 * kernel.words)
    tried, best_index, best_bits, best = 0, 0, 0, -1
    while chunk := list(itertools.islice(centers, chunk_size)):
        sizes = _coset_ball_sizes(chunk, alpha, params)
        i = int(np.argmax(sizes))
        if sizes[i] > best:
            best_index, best_bits, best = tried + i, chunk[i], int(sizes[i])
        tried += len(chunk)
    # A best center off its coset's minimum was counted through the minimum; a
    # ball's size is constant on a coset, so its own ball must hold as many.
    if (any(best_bits >> p & 1 for p in _pivot_rows(params)[0])
            and ball_size(best_bits, alpha, params) != best):
        raise InvariantFailure(
            f"ball around center {best_bits} differs in size from its coset minimum's {best}")
    _check_johnson_bound(best, max_flips, params)
    return ListSizeEstimate(
        radius=alpha,
        strategy=strategy,
        centers_tried=covered or tried,
        best_center="zero" if best_index == 0 else name_of(best_index - 1, best_bits),
        best_center_bits=best_bits,
        best_size=best,
    )


def _coset_ball_sizes(centers: list[int], alpha: Fraction, params: CodeParams) -> np.ndarray:
    """Ball size around each center, counted once per distinct coset by the batched kernel."""
    if len(centers) == 1:  # a lone center shares its count with no other
        return np.array([ball_size(centers[0], alpha, params)])
    kernel = scan.code_scan(params)
    max_flips = flip_budget(alpha, params.block_length)
    cosets, inverse = scan.unique_rows(_coset_reduce(centers, params))
    return scan.count_within(kernel, cosets, max_flips)[inverse]


def _coset_reduce(centers: list[int], params: CodeParams) -> np.ndarray:
    """The coset minimum of each center, as a ``(C, words)`` uint64 array."""
    reduced = scan.to_words(centers, params.n)
    pivots, rows = _pivot_rows(params)
    for p, row in zip(pivots, rows):  # highest pivot first: a row never sets a higher one
        reduced ^= scan.point_bit(reduced, p)[:, None] * row
    return reduced


@functools.lru_cache(maxsize=8)
def _pivot_rows(params: CodeParams) -> tuple[tuple[int, ...], np.ndarray]:
    """The code's monomial tables, row-reduced: ``rows[i]`` (uint64 words) has its
    highest set bit at ``pivots[i]``, the highest bit of no other row; pivots descend.

    Every nonzero codeword then has a pivot as its highest bit, so XORing out
    ``rows[i]`` wherever bit ``pivots[i]`` is set, highest pivot first, takes a
    word to the one member of its coset that is 0 at every pivot.
    """
    reduced: dict[int, int] = {}
    for mask in params.monomial_masks():
        row = monomial_table(params.n, mask)
        while row and row.bit_length() - 1 in reduced:
            row ^= reduced[row.bit_length() - 1]
        if row:
            reduced[row.bit_length() - 1] = row
    if len(reduced) != params.dimension:
        raise InvariantFailure(
            f"monomial tables of RM({params.n},{params.d}) have rank {len(reduced)}, "
            f"not {params.dimension}")
    pivots = tuple(sorted(reduced, reverse=True))
    rows = scan.to_words((reduced[p] for p in pivots), params.n)
    rows.flags.writeable = False
    return pivots, rows


def _coset_minima(params: CodeParams) -> list[int]:
    """The smallest word of every coset f + RM(n, d), in increasing order.

    The words that are 0 at every pivot of ``_pivot_rows`` are exactly the
    coset minima: 2^(2^n - dimension) of them.
    """
    pivots = set(_pivot_rows(params)[0])
    minima = [0]
    for p in range(params.block_length):
        if p not in pivots:
            minima += [c | 1 << p for c in minima]
    return minima


def _check_johnson_bound(list_size: int, max_flips: int, params: CodeParams) -> None:
    """``InvariantFailure`` when a ball exceeds the binary Johnson bound.

    With delta the relative minimum distance and rho = max_flips / 2^n < 1/2,
    wherever 2 rho (1 - rho) < delta no ball of radius rho holds more than
    delta / (delta - 2 rho (1 - rho)) codewords (Cauchy-Schwarz on the +-1
    codewords). The test runs in integers, times N^2 with N = 2^n: delta N^2 is
    2^(n-d) N, and 2 rho (1 - rho) N^2 is 2 max_flips (N - max_flips).
    """
    size = params.block_length
    delta = (size >> params.d) * size
    spread = 2 * max_flips * (size - max_flips)
    if 2 * max_flips < size and spread < delta and list_size * (delta - spread) > delta:
        raise InvariantFailure(
            f"list size {list_size} of RM({params.n},{params.d}) at {max_flips} flips "
            f"exceeds the Johnson bound {Fraction(delta, delta - spread)}")


def _family_centers(params: CodeParams, count: int) -> list[tuple[str, int]]:
    centers = []
    size = params.block_length
    half_mask = ((1 << (size // 2)) - 1) << (size // 2)
    for k in range(1, params.d + 1):
        per_k = max(2, count // (3 * params.d))
        family = construct_low_weight_family(params.n, params.d, k, limit=per_k)
        tabs = [anf_to_table(p) for p in family.members]
        for i, t in enumerate(tabs):
            centers.append((f"family[k={k},{i}]", t.bits))
            centers.append((f"complement[k={k},{i}]", complement(t).bits))
        for i in range(len(tabs) - 1):
            mixed = (tabs[i].bits & ~half_mask) | (tabs[i + 1].bits & half_mask)
            centers.append((f"mixture[k={k},{i}]", mixed))
    return centers[: 3 * count]

