"""Exact Boolean-function kernels: packed truth tables, ANF, weight, bias.

Conventions used across the whole package:

* A point of F_2^n is an integer v in [0, 2^n); variable x_i sits at bit
  position i-1 (x_1 is the least significant bit).
* A truth table is a single Python int with bit v equal to f(v).
* All statistics (weight, distance, bias) are exact ``fractions.Fraction``
  values with denominator 2^n; no floating point enters this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .caps import ALL_FUNCTIONS_VARS, DIMENSION_CAP, MAX_VARIABLES
from .errors import InputError, ScaleError


def _require_variables(n: int) -> None:
    if not 1 <= n <= MAX_VARIABLES:
        raise InputError(f"n must be in [1, {MAX_VARIABLES}], got {n}")


def require_all_functions(n: int, what: str) -> None:
    """``InputError`` for a variable count outside [1, ``MAX_VARIABLES``], else
    ``ScaleError`` unless every function on n variables may be walked."""
    _require_variables(n)
    if n > ALL_FUNCTIONS_VARS:
        raise ScaleError(f"{what} capped at n <= {ALL_FUNCTIONS_VARS}")


@dataclass(frozen=True)
class CodeParams:
    """Parameters (n, d) of the code of degree-<= d polynomials on n variables."""

    n: int
    d: int

    def __post_init__(self) -> None:
        _require_variables(self.n)
        if not 1 <= self.d <= self.n:
            raise InputError(f"d must be in [1, n={self.n}], got {self.d}")

    @property
    def dimension(self) -> int:
        return sum(math.comb(self.n, i) for i in range(self.d + 1))

    @property
    def block_length(self) -> int:
        return 1 << self.n

    @property
    def min_distance(self) -> Fraction:
        return Fraction(1, 1 << self.d)

    def dimension_refusal(self) -> str | None:
        """Why the code is too large to scan or to enumerate past d = 2, or None:
        more than 2^``DIMENSION_CAP`` codewords."""
        if self.dimension > DIMENSION_CAP:
            return f"dimension {self.dimension} exceeds the cap {DIMENSION_CAP}"
        return None

    def monomial_masks(self) -> list[int]:
        """The code's monomial basis, in coefficient-vector order (see ``monomial_masks``)."""
        return monomial_masks(self.n, self.d)


def monomial_masks(n: int, d: int) -> list[int]:
    """Masks of the monomials of degree <= d on n >= 0 variables, low degree first,
    ascending within a degree; built degree by degree in O(number of masks)."""
    masks = []
    for r in range(min(n, d) + 1):
        masks += sorted(sum(1 << i for i in c) for c in itertools.combinations(range(n), r))
    return masks


@dataclass(frozen=True)
class FunctionTable:
    """Bit-packed truth table of f: F_2^n -> F_2."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        _require_variables(self.n)
        if self.bits < 0 or self.bits.bit_length() > (1 << self.n):
            raise InputError("table bits out of range for n")

    @property
    def size(self) -> int:
        return 1 << self.n

    @classmethod
    def zero(cls, n: int) -> "FunctionTable":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "FunctionTable":
        return cls(n, (1 << (1 << n)) - 1)


@dataclass(frozen=True)
class AnfPolynomial:
    """Algebraic normal form: a set of monomial masks (XOR of AND-monomials)."""

    n: int
    monomials: frozenset[int]

    def __post_init__(self) -> None:
        _require_variables(self.n)
        object.__setattr__(self, "monomials", frozenset(self.monomials))
        for m in self.monomials:
            if not 0 <= m < (1 << self.n):
                raise InputError(f"monomial mask {m} out of range for n={self.n}")

    @property
    def degree(self) -> int:
        return max((m.bit_count() for m in self.monomials), default=0)

    @classmethod
    def from_variable_lists(cls, n: int, monomials) -> "AnfPolynomial":
        """Build from monomials given as lists of 1-based variable indices."""
        masks = set()
        for mono in monomials:
            mask = 0
            for i in mono:
                if not 1 <= i <= n:
                    raise InputError(f"variable index {i} out of range for n={n}")
                mask |= 1 << (i - 1)
            masks.add(mask)
        return cls(n, frozenset(masks))

    def sort_key(self) -> tuple:
        return tuple(sorted(self.monomials))


@lru_cache(maxsize=256)
def _low_block_mask_cached(n: int, i: int) -> int:
    mask, length = (1 << (1 << i)) - 1, 1 << (i + 1)
    while length < 1 << n:  # double the pattern: linear in 2^n, no bigint division
        mask |= mask << length
        length <<= 1
    return mask


def _low_block_mask(n: int, i: int) -> int:
    """Mask selecting the points of [0, 2^n) whose bit i is 0.

    Periodic pattern of 2^i ones then 2^i zeros, over 2^n bits, built by
    doubling one period. Masks are cached only while they stay small; near
    the n cap a full level set would pin gigabytes.
    """
    return (_low_block_mask_cached if n <= 20 else _low_block_mask_cached.__wrapped__)(n, i)


def _binary_moebius(bits: int, n: int) -> int:
    # In-place butterfly; over F_2 the subset-sum (zeta) transform is an
    # involution, so the same pass maps ANF -> table and table -> ANF.
    for i in range(n):
        bits ^= (bits & _low_block_mask(n, i)) << (1 << i)
    return bits


def anf_to_table(p: AnfPolynomial) -> FunctionTable:
    """Evaluate an ANF at every point: table[v] = XOR of monomials m with m subset of v."""
    coeff_bits = 0
    for m in p.monomials:
        coeff_bits |= 1 << m
    return FunctionTable(p.n, _binary_moebius(coeff_bits, p.n))


def table_to_anf(f: FunctionTable) -> AnfPolynomial:
    """Exact inverse of anf_to_table."""
    bits = _binary_moebius(f.bits, f.n)
    masks = frozenset(m for m in range(f.size) if (bits >> m) & 1)
    return AnfPolynomial(f.n, masks)


def weight(f: FunctionTable) -> Fraction:
    """Relative weight: fraction of points where f is 1."""
    return Fraction(f.bits.bit_count(), f.size)


def distance(f: FunctionTable, g: FunctionTable) -> Fraction:
    """Relative Hamming distance between two functions on the same cube."""
    if f.n != g.n:
        raise InputError(f"mismatched variable counts {f.n} != {g.n}")
    return Fraction((f.bits ^ g.bits).bit_count(), f.size)


def flip_budget(alpha, size: int) -> int:
    """floor(alpha * size): the most of ``size`` points a word within relative
    distance alpha may differ in. ``InputError`` unless 0 <= alpha <= 1."""
    if not isinstance(alpha, Fraction):  # Fraction() of a Fraction costs about 1 us
        alpha = Fraction(alpha)
    num, den = alpha.numerator, alpha.denominator
    if num < 0 or num > den:
        raise InputError(f"alpha must be in [0, 1], got {alpha}")
    return num * size // den


def bias(f: FunctionTable) -> Fraction:
    """Signed bias 1 - 2 wt(f), in [-1, 1]."""
    return Fraction(f.size - 2 * f.bits.bit_count(), f.size)


def translate(f: FunctionTable, a: int) -> FunctionTable:
    """Point translation: result(v) = f(v XOR a).

    Done per set bit of a as a block swap at that butterfly level, never as a
    per-point scatter.
    """
    if not 0 <= a < f.size:
        raise InputError(f"direction {a} out of range for n={f.n}")
    bits = f.bits
    for i in range(f.n):
        if (a >> i) & 1:
            low = _low_block_mask(f.n, i)
            shift = 1 << i
            bits = ((bits & low) << shift) | ((bits >> shift) & low)
    return FunctionTable(f.n, bits)


def complement(f: FunctionTable) -> FunctionTable:
    return FunctionTable(f.n, f.bits ^ ((1 << f.size) - 1))


def degree(f: FunctionTable) -> int:
    """Algebraic degree; 0 for the zero function (membership test for degree-<= d codes)."""
    bits = _binary_moebius(f.bits, f.n)
    deg = 0
    while bits:
        m = bits & -bits
        deg = max(deg, (m.bit_length() - 1).bit_count())
        bits ^= m
    return deg


def monomial_table(n: int, mask: int) -> int:
    """Truth-table bits of a single AND-monomial given by a variable-set mask."""
    if not 0 <= mask < (1 << n):
        raise InputError(f"monomial mask {mask} out of range for n={n}")
    bits = (1 << (1 << n)) - 1
    for i in range(n):
        if (mask >> i) & 1:
            bits &= _low_block_mask(n, i) << (1 << i)
    return bits
