"""List-decoding balls and list-size estimation over center strategies.

``ball`` is exact: the scan kernel (``scan``) XORs the center into every
codeword of the code, a tile of low coefficient combinations at a time, and
keeps the rows within the radius. ``estimate_list_size`` generates its
centers lazily and counts each one's ball with ``ball_size``; the kernel
builds its tables and tile once per code for all of them. The true list size
maximizes the ball over every possible center, which is only feasible
exhaustively at n <= 4; other strategies are labeled lower estimates.

A ball's size depends only on the center's coset f + RM(n, d), so the
exhaustive strategy runs one ball per coset, around its smallest member:
2^(2^n - dimension) balls, which with the 2^dimension codewords of each coset
cover all 2^(2^n) functions. Every estimate is checked against the binary
Johnson bound; the paper's explicit list bound, ``list_size_bound``, is
built in ``enumeration`` beside the accumulative one.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

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
from .enumeration import construct_low_weight_family
from .errors import InputError, InvariantFailure


@dataclass(frozen=True)
class Ball:
    center: FunctionTable
    radius: Fraction
    members: tuple[tuple[AnfPolynomial, Fraction], ...]

    @property
    def size(self) -> int:
        return len(self.members)


def ball(center: FunctionTable, alpha: Fraction, params: CodeParams) -> Ball:
    """All degree-<= d codewords within relative distance alpha of the center,
    sorted by distance, then canonical ANF order."""
    alpha = Fraction(alpha)
    if center.n != params.n:
        raise InputError(f"mismatched variable counts {center.n} != {params.n}")
    size = center.size
    max_flips = flip_budget(alpha, size)
    kernel = scan.code_scan(params)
    # Each member is keyed by its weight and its masks in ascending order (its
    # ``sort_key``), and every member at one distance shares one Fraction.
    by_mask = sorted(range(params.dimension), key=kernel.masks.__getitem__)
    found = sorted((w, tuple(kernel.masks[j] for j in by_mask if code >> j & 1))
                   for code, w in scan.within(kernel, scan.to_words(center.bits, kernel.words),
                                              max_flips))
    distances = {w: Fraction(w, size) for w in {w for w, _ in found}}
    members = tuple((AnfPolynomial(params.n, frozenset(masks)), distances[w])
                    for w, masks in found)
    return Ball(center=center, radius=alpha, members=members)


def ball_size(center_bits: int, alpha: Fraction, params: CodeParams) -> int:
    """Ball cardinality only, by the scan of ``ball``; the center must fit in 2^n bits."""
    if center_bits < 0 or center_bits.bit_length() > params.block_length:
        raise InputError(f"center is not a word of {params.block_length} bits")
    max_flips = flip_budget(alpha, params.block_length)
    kernel = scan.code_scan(params)
    return scan.count_within(kernel, scan.to_words(center_bits, kernel.words), max_flips)


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
    the smallest function whose ball is maximal.
    """
    alpha = Fraction(alpha)
    max_flips = flip_budget(alpha, params.block_length)
    if count < 0:
        raise InputError(f"count must be >= 0, got {count}")
    scan.code_scan(params)  # past a scan cap, raise before any center is made
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
    # Centers are generated lazily and only the best one is named; the
    # first maximum wins.
    best_index, best_bits, best = 0, 0, -1
    for index, bits in enumerate(itertools.chain([0], others)):
        s = ball_size(bits, alpha, params)
        if s > best:
            best_index, best_bits, best = index, bits, s
    _check_johnson_bound(best, max_flips, params)
    return ListSizeEstimate(
        radius=alpha,
        strategy=strategy,
        centers_tried=covered or index + 1,
        best_center="zero" if best_index == 0 else name_of(best_index - 1, best_bits),
        best_center_bits=best_bits,
        best_size=best,
    )


def _coset_minima(params: CodeParams) -> list[int]:
    """The smallest word of every coset f + RM(n, d), in increasing order.

    The code's monomial tables are row-reduced so that each row's highest set
    bit, its pivot, is no other row's highest bit. Every nonzero codeword then
    has a pivot as its highest bit, so the words that are 0 at every pivot are
    exactly the coset minima: 2^(2^n - dimension) of them.
    """
    pivots: dict[int, int] = {}
    for mask in params.monomial_masks():
        row = monomial_table(params.n, mask)
        while row and row.bit_length() - 1 in pivots:
            row ^= pivots[row.bit_length() - 1]
        if row:
            pivots[row.bit_length() - 1] = row
    if len(pivots) != params.dimension:
        raise InvariantFailure(
            f"monomial tables of RM({params.n},{params.d}) have rank {len(pivots)}, "
            f"not {params.dimension}")
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
    codewords).
    """
    delta = params.min_distance
    rho = Fraction(max_flips, params.block_length)
    spread = 2 * rho * (1 - rho)
    if rho < Fraction(1, 2) and spread < delta and list_size > delta / (delta - spread):
        raise InvariantFailure(
            f"list size {list_size} of RM({params.n},{params.d}) at {max_flips} flips "
            f"exceeds the Johnson bound {delta / (delta - spread)}")


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

