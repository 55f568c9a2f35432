"""Generalized analogue over small prime fields F_q: weights, bias, thresholds,
low-weight constructions, the bias-averaging identities, and exact weight
enumeration up to the ``caps`` limits.

Bias values are kept as exact residue counts (how often the function hits
each value of F_q); every asserted identity is linear in those counts, so no
irrational arithmetic enters any check. The complex value sum(count_j w^j)/q^n
with w = exp(2 pi i / q) is derived on demand for display.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from . import scan
from .caps import ENUM_CAP_BITS, ENUM_VALUE_BITS, GRM_POINT_BITS, MAX_FIELD
from .enumeration import WeightEnumerator
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


@dataclass(frozen=True)
class GrmTable:
    """Value table of f: F_q^n -> F_q; index = base-q encoding, x_1 least significant."""

    q: int
    n: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.q**self.n:
            raise InputError("value table length must be q^n")
        if not set(self.values) <= set(range(self.q)):
            raise InputError("table values must lie in [0, q)")

    @property
    def size(self) -> int:
        return self.q**self.n


def monomial_tables(q: int, n: int,
                    exponents: Iterable[tuple[int, ...]]) -> Iterator[np.ndarray]:
    """The uint8 value table, over all q^n points, of each monomial x^e in ``exponents``.

    Point v's coordinates are its base-q digits, x_1 least significant, so on the
    C-order grid ``(q,) * n`` x_i runs along axis n - i: a broadcast product of powers.
    """
    powers = np.array([[pow(x, k, q) for x in range(q)] for k in range(q)], dtype=np.uint8)
    for e in exponents:
        table = np.ones((1,) * n, dtype=np.uint8)
        for i, k in enumerate(e):
            if k:
                table = table * powers[k].reshape((q,) + (1,) * i) % q
        yield np.broadcast_to(table, (q,) * n).reshape(-1)


def grm_weight(f: GrmTable) -> Fraction:
    return Fraction(f.size - f.values.count(0), f.size)


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
    values = bytes(f.values)  # every value is below q <= 7, one byte each
    counts = tuple(values.count(j) for j in range(f.q))
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

    def evaluate_table(self) -> GrmTable:
        """Coefficients times the value tables of the terms, summed term by term, mod q."""
        values = np.zeros(self.q**self.n, dtype=np.int64)
        for c, table in zip(self.coeffs.values(),
                            monomial_tables(self.q, self.n, self.coeffs)):
            values += c * table
        return GrmTable(self.q, self.n, tuple((values % self.q).tolist()))

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
    distinct_count: int


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
    thresholds = {t.k: t.value for t in weight_thresholds(q, d)}
    target = thresholds[k] if k in thresholds else thresholds[1]
    members: list[tuple[GrmPolynomial, GrmTable]] = []
    seen = set()

    def emit(p: GrmPolynomial) -> bool:
        if len(members) >= limit:
            return False
        if p.degree > d:
            raise InvariantFailure(f"family member degree {p.degree} exceeds {d}")
        table = p.evaluate_table()
        w = grm_weight(table)
        if w != target:
            raise InvariantFailure(f"family member weight {w} != claimed {target}")
        key = p.sort_key()
        if key not in seen:
            seen.add(key)
            members.append((p, table))
        return len(members) < limit

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
    return GrmFamily(
        q=q, n=n, d=d, k=k,
        claimed_weight=target,
        members=tuple(members),
        distinct_count=len(seen),
    )


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


def tile_digits(q: int, size: int, dimension: int) -> int:
    """Largest L <= dimension whose (q^L, size) uint8 tile fits ``scan.TILE_BYTES`` (at least 0)."""
    low = 0
    while low < dimension and q ** (low + 1) * size <= scan.TILE_BYTES:
        low += 1
    return low


def grm_enumerate_weights(params: GrmParams) -> WeightEnumerator:
    """Exact enumerator over all q^dimension codewords, as a walk over a tile of low digits.

    A codeword is sum_j c_j T_j mod q over the monomial tables T_j. The first L
    coefficient digits (``tile_digits``) are precomputed once as a (q^L, q^n)
    uint8 tile of all their combinations. The other digits run in the modular
    q-ary Gray order, an odometer in which every step bumps one digit by one and
    so adds one table, mod q, into a running base. Row r of a step stands for the
    codeword tile[r] - base: its weight is q^n minus the points where tile[r]
    equals base, so no row is reduced mod q, and as base runs over every high
    combination so does -base. On a 2-core VM (3,4,2), 14.3 million codewords,
    takes 1.2 s, and near the value cap (7,5,1) and (2,15,1) take 2.5 and 1.8 s:
    0.8 to 1.3 ns per scanned value there, 2.5 to 4 ns on small codes.
    """
    q, n, dim, size = params.q, params.n, params.dimension, params.block_length
    if _exceeds(q, dim, ENUM_CAP_BITS):
        raise ScaleError(f"q^dimension = {q}^{dim} exceeds the enumeration cap 2^{ENUM_CAP_BITS}")
    if _exceeds(q, dim + n, ENUM_VALUE_BITS):
        raise ScaleError(f"q^(dimension + n) = {q}^{dim + n} scanned values exceed "
                         f"the enumeration cap 2^{ENUM_VALUE_BITS}")
    tables = np.array(list(monomial_tables(q, n, params.monomial_exponents())), dtype=np.uint8)
    low = tile_digits(q, size, dim)
    tile = np.zeros((1, size), dtype=np.uint8)
    for table in tables[:low]:
        tile = np.concatenate([(tile + c * table) % q for c in range(q)])
    high = tables[low:]
    wrap = np.uint8(q)

    def blocks() -> Iterator[np.ndarray]:
        base = np.zeros(size, dtype=np.uint8)
        for step in range(q ** len(high)):
            if step:
                digit, rest = 0, step  # the digit a step bumps: q-adic valuation of the step
                while rest % q == 0:
                    rest //= q
                    digit += 1
                # mod q without a division: a sum below q wraps past 255 when q
                # is subtracted, so the minimum keeps it; one of q..2q-2 drops by q.
                total = base + high[digit]
                base = np.minimum(total, total - wrap)
            yield size - np.count_nonzero(tile == base, axis=1)

    counts = scan.histogram(blocks(), size)
    return WeightEnumerator(params=params, block_length=size,
                            counts={w: c for w, c in enumerate(counts.tolist()) if c})
