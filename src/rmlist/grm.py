"""Generalized analogue over small prime fields F_q: weights, bias, thresholds,
low-weight constructions, the bias-averaging identities, and exact weight
enumeration up to the ``caps`` limits.

Bias values are kept as exact residue counts (how often the function hits
each value of F_q); every asserted identity is linear in those counts, so no
irrational arithmetic enters any check. The complex value sum(count_j w^j)/q^n
with w = exp(2 pi i / q) is derived on demand for display.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import scan
from .boolfunc import CodeParams
from .caps import ENUM_CAP_BITS, ENUM_VALUE_BITS, GRM_POINT_BITS, MAX_FIELD, grm_max_degree
from .enumeration import WeightEnumerator, enumerate_weights
from .errors import InputError, InvariantFailure, ScaleError


def _is_prime(q: int) -> bool:
    return q >= 2 and all(q % p for p in range(2, int(math.isqrt(q)) + 1))


def _require_field(q: int) -> None:
    if not (2 <= q <= MAX_FIELD and _is_prime(q)):
        raise InputError(f"q must be a prime in [2, {MAX_FIELD}], got {q}")


def _exceeds(q: int, e: int, bits: int) -> bool:
    """q^e > 2^bits; q >= 2, so an exponent past ``bits`` decides it without forming q^e."""
    return e > bits or q**e > 1 << bits


@dataclass(frozen=True)
class GrmParams:
    q: int
    n: int
    d: int

    def __post_init__(self) -> None:
        _require_field(self.q)
        if self.n < 1:
            raise InputError(f"n must be >= 1, got {self.n}")
        if _exceeds(self.q, self.n, GRM_POINT_BITS):
            raise InputError(f"q^n = {self.q}^{self.n} points exceed 2^{GRM_POINT_BITS}")
        if not 1 <= self.d <= self.n * (self.q - 1):
            raise InputError(
                f"d must be in [1, n(q-1)={self.n * (self.q - 1)}], got {self.d}"
            )

    @property
    def block_length(self) -> int:
        return self.q**self.n

    def monomial_exponents(self) -> list[tuple[int, ...]]:
        """The code's monomial basis in coefficient-vector order: exponent vectors with
        entries below q and sum <= d, by ``(sum(e), e)``, built degree by degree in O(dimension)."""
        def vectors(total: int, length: int) -> list[tuple[int, ...]]:
            # Entries in [0, q-1] summing to ``total``, in lexicographic order;
            # the first entry's lower bound leaves the rest reachable.
            low = max(0, total - (self.q - 1) * (length - 1))
            return [(first,) + rest for first in range(low, min(total, self.q - 1) + 1)
                    for rest in vectors(total - first, length - 1)] if length else [()]

        return [e for total in range(self.d + 1) for e in vectors(total, self.n)]

    @property
    def dimension(self) -> int:
        """Number of basis monomials, by inclusion-exclusion over entries >= q."""
        q, n, d = self.q, self.n, self.d
        return sum((-1) ** j * math.comb(n, j) * math.comb(n + d - j * q, n)
                   for j in range(d // q + 1))


@dataclass(frozen=True, eq=False)
class GrmTable:
    """Value table of f: F_q^n -> F_q; index = base-q encoding, x_1 least significant.

    ``values`` is a read-only ``(q^n,)`` uint8 copy of the integers given, which
    are range-checked as they stand, so that -1 or 256 cannot wrap into [0, q).
    Equality is by value.
    """

    q: int
    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.dtype.kind not in "iu":
            raise InputError(f"table values must be integers, got {values.dtype}")
        if values.shape != (self.q**self.n,):
            raise InputError("value table length must be q^n")
        if values.min() < 0 or values.max() >= self.q:
            raise InputError("table values must lie in [0, q)")
        values = values.astype(np.uint8)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrmTable):
            return NotImplemented
        return (self.q, self.n) == (other.q, other.n) and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.q, self.n, self.values.tobytes()))

    @property
    def size(self) -> int:
        return self.q**self.n


def monomial_tables(q: int, n: int, exponents: Sequence[tuple[int, ...]],
                    width: int | None = None) -> np.ndarray:
    """``(len(exponents), width)`` uint8: row j is the value table of x^e_j over all
    q^n points, then zeros up to ``width`` (default q^n).

    Point v's coordinates are its base-q digits, x_1 least significant, so on the
    C-order grid ``(q,) * n`` x_i runs along axis n - i: a broadcast product of powers.
    """
    size = q**n
    out = np.zeros((len(exponents), width or size), dtype=np.uint8)
    grids = out[:, :size].reshape((len(exponents),) + (q,) * n)
    powers = np.array([[pow(x, k, q) for x in range(q)] for k in range(q)], dtype=np.uint8)
    for grid, e in zip(grids, exponents):
        table = np.ones((1,) * n, dtype=np.uint8)
        for i, k in enumerate(e):
            if k:
                table = table * powers[k].reshape((q,) + (1,) * i) % q
        grid[...] = table
    return out


def grm_weight(f: GrmTable) -> Fraction:
    return Fraction(int(np.count_nonzero(f.values)), f.size)


@dataclass(frozen=True)
class BiasValue:
    """Exact residue counts of a function's values, with the complex bias derived."""

    q: int
    size: int
    residue_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if sum(self.residue_counts) != self.size:
            raise InvariantFailure("residue counts must sum to q^n")

    @property
    def complex_value(self) -> complex:
        w = cmath.exp(2j * cmath.pi / self.q)
        return sum(c * w**j for j, c in enumerate(self.residue_counts)) / self.size

    def real_part(self) -> Fraction | float:
        """Real part of the bias; exact for q in {2, 3} where cos is rational."""
        if self.q == 2:
            return Fraction(self.residue_counts[0] - self.residue_counts[1], self.size)
        if self.q == 3:
            c0, c1, c2 = self.residue_counts
            return Fraction(2 * c0 - c1 - c2, 2 * self.size)
        return self.complex_value.real


def grm_bias(f: GrmTable) -> BiasValue:
    counts = tuple(np.bincount(f.values, minlength=f.q).tolist())
    return BiasValue(q=f.q, size=f.size, residue_counts=counts)


@dataclass(frozen=True)
class Threshold:
    k: int
    a: int | None
    b: int | None
    value: Fraction


def _split_degree(q: int, d: int) -> tuple[int, int]:
    # d = (q-1) a + b with 1 <= b <= q-1
    a = (d - 1) // (q - 1)
    return a, d - (q - 1) * a


def weight_thresholds(q: int, d: int) -> list[Threshold]:
    """Distance cut-offs r_1..r_d at which the counting exponent is expected to jump."""
    _require_field(q)
    if d < 1:
        raise InputError(f"d must be >= 1, got {d}")
    if d > grm_max_degree(q):
        raise ScaleError(f"d = {d} exceeds {grm_max_degree(q)}, the largest degree "
                         f"of any admitted code over F_{q}")
    out = []
    a, b = _split_degree(q, d)
    out.append(Threshold(1, a, b, Fraction(1, q**a) * (1 - Fraction(b, q))))
    for k in range(2, d):
        a, b = _split_degree(q, d - k)
        out.append(
            Threshold(
                k, a, b,
                Fraction(1, q**a) * (1 - Fraction(b, q)) * (1 - Fraction(1, q)),
            )
        )
    if d >= 2:
        out.append(Threshold(d, None, None, 1 - Fraction(1, q)))
    return out


class GrmPolynomial:
    """Sparse polynomial over F_q with per-variable exponents reduced by x^q = x."""

    def __init__(self, q: int, n: int, coeffs: dict[tuple[int, ...], int] | None = None):
        self.q = q
        self.n = n
        self.coeffs: dict[tuple[int, ...], int] = {}
        for e, c in (coeffs or {}).items():
            self._add_term(e, c)

    def _add_term(self, e: tuple[int, ...], c: int) -> None:
        e = tuple(self._reduce_exp(x) for x in e)
        c %= self.q
        if not c:
            return
        cur = (self.coeffs.get(e, 0) + c) % self.q
        if cur:
            self.coeffs[e] = cur
        else:
            self.coeffs.pop(e, None)

    def _reduce_exp(self, e: int) -> int:
        while e >= self.q:
            e -= self.q - 1
        return e

    @classmethod
    def constant(cls, q: int, n: int, c: int) -> "GrmPolynomial":
        return cls(q, n, {tuple([0] * n): c % q})

    @classmethod
    def variable(cls, q: int, n: int, index: int) -> "GrmPolynomial":
        """x_index, 1-based."""
        e = [0] * n
        e[index - 1] = 1
        return cls(q, n, {tuple(e): 1})

    def __add__(self, other: "GrmPolynomial") -> "GrmPolynomial":
        out = GrmPolynomial(self.q, self.n, dict(self.coeffs))
        for e, c in other.coeffs.items():
            out._add_term(e, c)
        return out

    def __sub__(self, other: "GrmPolynomial") -> "GrmPolynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "GrmPolynomial") -> "GrmPolynomial":
        out = GrmPolynomial(self.q, self.n)
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out._add_term(tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return out

    def scale(self, c: int) -> "GrmPolynomial":
        out = GrmPolynomial(self.q, self.n)
        for e, c0 in self.coeffs.items():
            out._add_term(e, c0 * c)
        return out

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def sort_key(self) -> tuple:
        return tuple(sorted(self.coeffs.items()))

    def evaluate_table(self, monomials: Mapping[tuple[int, ...], np.ndarray] | None = None,
                       ) -> GrmTable:
        """Coefficients times the value tables of the terms, summed in uint8, mod q.

        ``monomials`` maps each exponent to its table, as ``evaluate_polynomials``
        shares each block of a ``monomial_tables`` matrix among many polynomials;
        without it the polynomial is evaluated alone, ``scan.TILE_BYTES`` of its
        tables at a time. A term adds at most c(q-1) <= 36, so the sum is reduced
        mod q only before it could pass 255.
        """
        q = self.q
        if monomials is None:
            rows = max(1, scan.TILE_BYTES // q**self.n)
            return evaluate_polynomials(q, self.n, [self], rows)[0]
        values = np.zeros(q**self.n, dtype=np.uint8)
        bound = 0  # the largest value an entry of ``values`` may hold
        for e, c in self.coeffs.items():
            if bound + c * (q - 1) > 255:
                values %= q
                bound = q - 1
            values += monomials[e] if c == 1 else monomials[e] * c
            bound += c * (q - 1)
        values %= q
        return GrmTable(q, self.n, values)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items(), key=lambda item: (sum(item[0]), item[0])):
            vars_part = "".join(
                f"x{i + 1}" + (f"^{ei}" if ei > 1 else "")
                for i, ei in enumerate(e) if ei
            )
            if not vars_part:
                parts.append(str(c))
            else:
                parts.append(vars_part if c == 1 else f"{c}*{vars_part}")
        return " + ".join(parts)


@dataclass(frozen=True)
class GrmFamily:
    q: int
    n: int
    d: int
    k: int
    claimed_weight: Fraction
    members: tuple[tuple[GrmPolynomial, GrmTable], ...]

    @property
    def distinct_count(self) -> int:
        return len(self.members)


def _iter_polynomials(q: int, n: int, d: int, offset: int) -> Iterator[GrmPolynomial]:
    """All degree-<= d polynomials on variables x_{offset+1}..x_n, coefficients odometer."""
    free = n - offset
    if free <= 0 or d <= 0:
        for c in range(q):
            yield GrmPolynomial.constant(q, n, c)
        return
    exps = GrmParams(q, free, min(d, free * (q - 1))).monomial_exponents()
    for coeffs in itertools.product(range(q), repeat=len(exps)):
        full = {}
        for e, c in zip(exps, coeffs):
            if c:
                full[tuple([0] * offset) + e] = c
        yield GrmPolynomial(q, n, full)


def _coordinate_product(q: int, n: int, a: int, b: int) -> GrmPolynomial:
    """prod_{i <= a, 1 <= j < q} (x_i - j) * prod_{1 <= j <= b} (x_{a+1} - j)."""
    factors = [(i, j) for i in range(1, a + 1) for j in range(1, q)]
    factors += [(a + 1, j) for j in range(1, b + 1)]
    p = GrmPolynomial.constant(q, n, 1)
    for i, j in factors:
        p = p * (GrmPolynomial.variable(q, n, i) - GrmPolynomial.constant(q, n, j))
    return p


def evaluate_polynomials(q: int, n: int, polynomials: Sequence[GrmPolynomial],
                         rows: int) -> list[GrmTable]:
    """The value tables of ``polynomials``, from blocks of at most ``rows`` of the
    monomial tables they use: each block is built once, every polynomial evaluates
    its terms there, and a polynomial spread over several blocks sums its parts."""
    exponents = sorted({e for p in polynomials for e in p.coeffs})
    index = {e: i for i, e in enumerate(exponents)}
    # Each polynomial's exponents in block order, and how many are evaluated.
    orders = [sorted(p.coeffs, key=index.__getitem__) for p in polynomials]
    done = [0] * len(polynomials)
    tables: list[GrmTable | None] = [None] * len(polynomials)
    for start in range(0, len(exponents), rows):
        block = exponents[start:start + rows]
        monomials = dict(zip(block, monomial_tables(q, n, block)))
        for i, (order, p) in enumerate(zip(orders, polynomials)):
            stop = bisect.bisect_left(order, start + rows, lo=done[i], key=index.__getitem__)
            if stop == done[i]:
                continue
            part = p
            if stop - done[i] < len(order):
                part = GrmPolynomial(q, n)  # p's terms are reduced already
                part.coeffs = {e: p.coeffs[e] for e in order[done[i]:stop]}
            done[i] = stop
            table, previous = part.evaluate_table(monomials), tables[i]
            tables[i] = table if previous is None else GrmTable(
                q, n, (previous.values + table.values) % q)
    zero = np.zeros(q**n, dtype=np.uint8)
    return [GrmTable(q, n, zero) if t is None else t for t in tables]


def construct_grm_family(
    q: int, n: int, d: int, k: int, limit: int = 64
) -> GrmFamily:
    """Low-weight constructions hitting each threshold weight r_k exactly.

    k=1: a product of (form - j) factors over independent linear forms; the
    canonical member uses coordinates, further members vary the last form by
    adding multiples of unused variables. 2 <= k <= d-1: coordinate products
    times (x_{a+2} + g) for g of degree <= k on the remaining variables.
    k=d: x_1 + g for g of degree <= d on the rest. Every member's weight and
    degree are verified exactly.
    """
    params = GrmParams(q, n, d)
    if not 1 <= k <= d:
        raise InputError(f"k must be in [1, d={d}], got {k}")
    if limit < 1:
        raise InputError(f"limit must be >= 1, got {limit}")
    target = {t.k: t.value for t in weight_thresholds(q, d)}[k]
    chosen: dict[tuple, GrmPolynomial] = {}  # by sort key, first kept

    def emit(p: GrmPolynomial) -> bool:
        if p.degree > d:
            raise InvariantFailure(f"family member degree {p.degree} exceeds {d}")
        chosen.setdefault(p.sort_key(), p)
        return len(chosen) < limit

    if k == 1:
        a, b = _split_degree(q, d)
        if a + 1 > n:
            raise InputError(f"k=1 construction needs {a + 1} variables, have {n}")
        base = _coordinate_product(q, n, a, 0)
        free = list(range(a + 2, n + 1))
        for combo in itertools.product(range(q), repeat=len(free)):
            form = GrmPolynomial.variable(q, n, a + 1)
            for c, t in zip(combo, free):
                form = form + GrmPolynomial.variable(q, n, t).scale(c)
            p = base
            for j in range(1, b + 1):
                p = p * (form - GrmPolynomial.constant(q, n, j))
            if not emit(p):
                break
    elif k < d:
        a, b = _split_degree(q, d - k)
        if a + 2 > n:
            raise InputError(f"construction needs {a + 2} variables, have {n}")
        base = _coordinate_product(q, n, a, b)
        x_next = GrmPolynomial.variable(q, n, a + 2)
        for g in _iter_polynomials(q, n, k, offset=a + 2):
            if not emit(base * (x_next + g)):
                break
    else:
        x1 = GrmPolynomial.variable(q, n, 1)
        for g in _iter_polynomials(q, n, d, offset=1):
            if not emit(x1 + g):
                break
    # The members share the monomial tables they use, held in blocks no larger
    # than the members' own tables (or one scan tile).
    size = q**n
    rows = max(len(chosen) * size, scan.TILE_BYTES) // size
    members = []
    for p, table in zip(chosen.values(), evaluate_polynomials(q, n, list(chosen.values()), rows)):
        w = grm_weight(table)
        if w != target:
            raise InvariantFailure(f"family member weight {w} != claimed {target}")
        members.append((p, table))
    return GrmFamily(q=q, n=n, d=d, k=k, claimed_weight=target, members=tuple(members))


@dataclass(frozen=True)
class BiasScalingReport:
    """Per-multiplier bias scan with the two exact averaging identities checked."""

    weight: Fraction
    biases: tuple[BiasValue, ...]
    mean_all_equals_one_minus_weight: bool
    mean_nonzero_equals_scaled: bool
    eps: Fraction | None
    witness_multiplier: int | None
    witness_real: Fraction | float | None
    witness_meets_eps: bool | None
    flagged: bool


def bias_scaling_scan(p: GrmTable, eps: Fraction | None = None) -> BiasScalingReport:
    """Scan bias(c*p) for every multiplier c in F_q.

    Asserts exactly (on residue counts): the average over all c equals
    1 - wt(p), and the average over c != 0 equals 1 - q/(q-1) wt(p). When eps
    is given and wt(p) <= 1 - 1/q - eps, reports the best nonzero multiplier
    by real part as the decomposition witness, flagging (not failing) if none
    reaches eps.
    """
    q, size = p.q, p.size
    base = grm_bias(p)
    counts = base.residue_counts
    per_alpha = []
    agg = [0] * q
    for c in range(q):
        scaled = [0] * q
        for j, cnt in enumerate(counts):
            scaled[(c * j) % q] += cnt
        per_alpha.append(BiasValue(q=q, size=size, residue_counts=tuple(scaled)))
        for j in range(q):
            agg[j] += scaled[j]
    w = grm_weight(p)
    # sum over c of bias(c p) = (agg0 - common)/q^n given equal nonzero residues;
    # exactness relies on 1 + w + ... + w^{q-1} = 0 being the only rational relation.
    nonzero_equal = all(agg[j] == agg[1] for j in range(1, q))
    mean_all_ok = nonzero_equal and Fraction(agg[0] - agg[1], q * size) == 1 - w
    agg0_nz = agg[0] - size  # drop c=0, whose residues all sit at 0
    mean_nz_ok = nonzero_equal and Fraction(agg0_nz - agg[1], (q - 1) * size) == (
        1 - Fraction(q, q - 1) * w
    )
    if not (mean_all_ok and mean_nz_ok):
        raise InvariantFailure("bias averaging identity violated")
    witness_c = witness_real = witness_ok = None
    flagged = False
    if eps is not None:
        if not 0 < eps < 1:
            raise InputError(f"eps must be in (0, 1), got {eps}")
        if w <= 1 - Fraction(1, q) - eps:
            reals = [(per_alpha[c].real_part(), c) for c in range(1, q)]
            witness_real, witness_c = max(reals, key=lambda rc: (rc[0], -rc[1]))
            witness_ok = bool(witness_real >= eps)
            flagged = not witness_ok
    return BiasScalingReport(
        weight=w,
        biases=tuple(per_alpha),
        mean_all_equals_one_minus_weight=mean_all_ok,
        mean_nonzero_equals_scaled=mean_nz_ok,
        eps=eps,
        witness_multiplier=witness_c,
        witness_real=witness_real,
        witness_meets_eps=witness_ok,
        flagged=flagged,
    )


def tile_digits(q: int, width: int, dimension: int) -> int:
    """Largest L <= dimension whose (q^L, width) uint8 tile fits ``scan.TILE_BYTES`` (at least 0)."""
    low = 0
    while low < dimension and q ** (low + 1) * width <= scan.TILE_BYTES:
        low += 1
    return low


def _class_bases(high: np.ndarray, q: int) -> Iterator[np.ndarray]:
    """Every combination of the ``high`` tables, mod q, whose last nonzero digit is 1.

    For each top digit t the walk starts at high[t] and runs the modular q-ary
    Gray order over the digits below t, an odometer in which every step bumps
    one digit by one and so adds one table: q^t steps, (q^h - 1)/(q - 1) in all.
    """
    wrap = np.uint8(q)
    for top, base in enumerate(high):
        yield base
        for step in range(1, q**top):
            digit, rest = 0, step  # the digit a step bumps: q-adic valuation of the step
            while rest % q == 0:
                rest //= q
                digit += 1
            # mod q without a division: a sum below q wraps past 255 when q
            # is subtracted, so the minimum keeps it; one of q..2q-2 drops by q.
            total = base + high[digit]
            base = np.minimum(total, total - wrap)
            yield base


def grm_enumerate_weights(params: GrmParams) -> WeightEnumerator:
    """Exact enumerator over all q^dimension codewords, as a walk over one codeword
    per scalar class.

    For q = 2, GRM(2,n,d) is RM(n,d), and every such code inside the caps
    (d <= 2 or d >= n-2) takes its closed form from ``enumerate_weights``.

    Otherwise a codeword is sum_j c_j T_j mod q over the monomial tables T_j.
    The first L coefficient digits (``tile_digits``) are precomputed once as a
    (q^L, width) uint8 tile of all their combinations, width being q^n rounded
    up to whole uint64 words. Row r of a step with base b stands for the
    codeword tile[r] - b: its weight is q^n minus the points where tile[r]
    equals b, so no row is reduced mod q. The matches of a step are one
    ``scan.weights`` of the bytes of ``tile == b``, held in a bool buffer of the
    tile's shape; the tile's pads hold q and the base's 0, so no pad ever matches.

    The code is linear, so wt(lambda c) = wt(c) for every lambda != 0. One step
    at b = 0 counts the q^L codewords with no high digit. The other steps run
    over the high combinations whose last nonzero digit is 1 (``_class_bases``),
    so their rows hit exactly one of the q - 1 nonzero multiples of every other
    codeword, and their counts are taken q - 1 times: 1 + (q^h - 1)/(q - 1)
    steps for the h high digits, not q^h. On a 2-core VM (3,4,2), 14.3 million
    codewords, takes 0.35-0.37 s, and near the value cap (7,5,1) and (5,3,2)
    take 0.19-0.21 and 0.25 s: 0.1 to 0.3 ns per codeword value covered (0.6 ns
    per value compared), 0.2 to 3.4 ns on small codes.
    """
    q, n, dim, size = params.q, params.n, params.dimension, params.block_length
    if _exceeds(q, dim, ENUM_CAP_BITS):
        raise ScaleError(f"q^dimension = {q}^{dim} exceeds the enumeration cap 2^{ENUM_CAP_BITS}")
    if _exceeds(q, dim + n, ENUM_VALUE_BITS):
        raise ScaleError(f"q^(dimension + n) = {q}^{dim + n} scanned values exceed "
                         f"the enumeration cap 2^{ENUM_VALUE_BITS}")
    if q == 2:
        return WeightEnumerator(params, enumerate_weights(CodeParams(n, params.d)).counts)
    width = -(-size // 8) * 8
    tables = monomial_tables(q, n, params.monomial_exponents(), width)
    low = tile_digits(q, width, dim)
    tile = np.zeros((1, width), dtype=np.uint8)
    for table in tables[:low]:
        tile = np.concatenate([(tile + c * table) % q for c in range(q)])
    tile[:, size:] = q
    equal = np.empty(tile.shape, dtype=bool)
    matched = equal.view(np.uint64)  # eight points' 0/1 matches per word

    def weights(base: np.ndarray) -> np.ndarray:
        """The weights of the codewords tile[r] - base, one per row."""
        np.equal(tile, base, out=equal)
        return size - scan.weights(matched)

    counts = np.bincount(weights(np.zeros(width, dtype=np.uint8)), minlength=size + 1)
    # A bincount costs size + 1 however few rows it counts, so the weights of
    # ``batch`` steps are counted together (long tables make small tiles).
    batch, bases = size // len(tile) + 1, _class_bases(tables[low:], q)
    while steps := [weights(base) for base in itertools.islice(bases, batch)]:
        counts += (q - 1) * np.bincount(np.concatenate(steps), minlength=size + 1)
    return WeightEnumerator(params, {w: c for w, c in enumerate(counts.tolist()) if c})
