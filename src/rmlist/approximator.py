"""Sampled weighted-majority approximators for low-weight functions, plus unique decoding.

A function of weight below 2^-k (1 - eps) equals an expectation of its
order-k derivatives with bounded coefficients; sampling m of those
derivatives and taking an integer-weighted majority yields a function within
distance delta of the original. Because distinct degree-<= d codewords are
at least 2^-d apart, a delta <= 2^-(d+2) approximation pins the codeword
down uniquely, which ``unique_decode_within`` then recovers.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boolfunc import (
    AnfPolynomial,
    CodeParams,
    FunctionTable,
    anf_to_table,
    distance,
    monomial_table,
)
from . import scan
from .caps import EXHAUSTIVE_DECODE_DIMENSION
from .derivatives import derivative_chunks, point_counts, require_derived_bits, require_low_weight
from .errors import (
    ApproximationFailure,
    DegenerateBiasError,
    InputError,
    InvariantFailure,
    RadiusError,
)

COEFFICIENT_BOUND_NUMERATOR = 10  # coefficient bound is 10/eps


def _atanh_bounds(z: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= atanh(z) <= hi for 0 <= z < 1, from the first ``terms`` series terms.

    The tail of sum_j z^(2j+1) / (2j+1) past ``terms`` terms is at most the
    first omitted power over (2 terms + 1), times the geometric factor 1/(1 - z^2).
    """
    total, power = Fraction(0), z
    for j in range(terms):
        total += power / (2 * j + 1)
        power *= z * z
    return total, total + power / ((2 * terms + 1) * (1 - z * z))


def _ln_bounds(q: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= ln(q) <= hi for rational q >= 1.

    q = 2^e r with 1 <= r < 2, and ln(q) = e ln(2) + ln(r), where
    ln(2) = 2 atanh(1/3) and ln(r) = 2 atanh((r-1)/(r+1)), both with z <= 1/3.
    """
    e = q.numerator.bit_length() - q.denominator.bit_length()
    if q < 2**e:
        e -= 1
    r = q / 2**e
    two_lo, two_hi = _atanh_bounds(Fraction(1, 3), terms)
    r_lo, r_hi = _atanh_bounds((r - 1) / (r + 1), terms)
    return 2 * (e * two_lo + r_lo), 2 * (e * two_hi + r_hi)


def sample_count(eps: Fraction, delta: Fraction) -> int:
    """Smallest sample count the Chernoff argument needs: ceil(32 C^2 ln(1/delta)).

    Exact: ln(1/delta) is bracketed between rationals, with twice as many
    series terms each round, until both ends give the same ceiling. The
    loop ends because 32 C^2 ln(1/delta) is irrational (ln of a rational
    other than 1 is transcendental), so it is never an integer.
    """
    if not 0 < eps < 1:
        raise InputError(f"eps must be in (0, 1), got {eps}")
    if not 0 < delta < 1:
        raise InputError(f"delta must be in (0, 1), got {delta}")
    c = Fraction(COEFFICIENT_BOUND_NUMERATOR) / eps
    scale = 32 * c * c
    terms = 8
    while True:
        lo, hi = _ln_bounds(1 / delta, terms)
        if math.ceil(scale * lo) == math.ceil(scale * hi):
            return math.ceil(scale * lo)
        terms *= 2


@dataclass(frozen=True)
class ApproximatorParams:
    k: int
    eps: Fraction
    delta: Fraction
    seed: int
    m: int | None = None
    retry_budget: int = 10

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        if not 0 < self.eps < 1:
            raise InputError(f"eps must be in (0, 1), got {self.eps}")
        if not 0 < self.delta < 1:
            raise InputError(f"delta must be in (0, 1), got {self.delta}")
        if self.retry_budget < 1:
            raise InputError("retry_budget must be >= 1")
        if self.m is not None and self.m < sample_count(self.eps, self.delta):
            raise InputError(
                f"m={self.m} below the required sample count "
                f"{sample_count(self.eps, self.delta)}"
            )

    @property
    def coefficient_bound(self) -> Fraction:
        return Fraction(COEFFICIENT_BOUND_NUMERATOR) / self.eps

    @property
    def samples(self) -> int:
        return self.m if self.m is not None else sample_count(self.eps, self.delta)

    @classmethod
    def for_code(cls, code: CodeParams, k: int, eps: Fraction, seed: int,
                 retry_budget: int = 10) -> "ApproximatorParams":
        """Default target distance 2^-(d+2): half of half the minimum distance."""
        return cls(k=k, eps=eps, delta=Fraction(1, 1 << (code.d + 2)), seed=seed,
                   retry_budget=retry_budget)


@dataclass(frozen=True)
class SampledApproximator:
    """Weighted majority over m sampled order-k derivatives of a base function.

    Only the base, the m direction tuples and their rounded coefficients are
    kept. The derivative tables are not: ``approximator_table`` re-derives
    them from ``directions`` a kernel chunk at a time whenever the majority
    is evaluated.
    """

    n: int
    k: int
    seed: int
    base: FunctionTable
    directions: tuple[tuple[int, ...], ...]
    coefficients: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True)
class ApproxResult:
    approximator: SampledApproximator
    achieved_distance: Fraction
    retries_used: int


def _round_half_away(x: Fraction) -> int:
    num, den = abs(x.numerator), x.denominator
    mag = (2 * num + den) // (2 * den)
    return mag if x >= 0 else -mag


def _retry_seed(seed: int, retry: int) -> int:
    return (seed << 32) | retry


def _rounded_coefficient(prefix_weights: tuple[int, ...], size: int, int_bound: int) -> int:
    """Product of the inverse prefix biases, rounded half away from zero and bounds-checked."""
    coeff = Fraction(1)
    for w in prefix_weights:
        if 2 * w == size:
            raise DegenerateBiasError(
                "zero prefix bias under the low-weight precondition"
            )
        coeff /= Fraction(size - 2 * w, size)
    s = _round_half_away(coeff)
    if abs(s) > int_bound:
        raise InvariantFailure(
            f"rounded coefficient {s} exceeds bound {int_bound}"
        )
    return s


def _prefix_weights(f: FunctionTable, directions: np.ndarray) -> np.ndarray:
    """``(m, k)`` int64: the weights of the k prefixes f, f_{a_1}, ..., f_{a_1..a_{k-1}}
    of each direction tuple, derived only to depth k-1 (at k=1, not at all)."""
    m, k = directions.shape
    if k == 1:
        return np.full((m, 1), f.bits.bit_count(), dtype=np.int64)
    parts = [np.column_stack([weights, np.bitwise_count(tables).sum(axis=1, dtype=np.int64)])
             for tables, weights in derivative_chunks(f, directions[:, :-1])]
    return np.concatenate(parts)


def build_approximator(f: FunctionTable, params: ApproximatorParams) -> ApproxResult:
    """Sample direction tuples, round the exact coefficients, retry until within delta.

    Deterministic for a given (f, params): retry t draws its m direction
    tuples up front from its own derived seed, so samples could also be
    generated independently per index. A sample's coefficient, the product
    of its inverse prefix biases rounded half away from zero, depends only
    on its prefix weights, which ``derivative_chunks`` gives by deriving to
    depth k-1; it is computed exactly once per distinct weight tuple, in
    order of first occurrence, so a zero prefix bias or a coefficient past
    the bound raises at the first sample that has it. No derivative table is
    kept: ``approximator_table`` re-derives them for the achieved distance.
    Builds whose m tables of 2^n bits pass ``DERIVED_TABLE_BITS_CAP`` raise
    ``ScaleError`` before any table is derived.
    """
    require_low_weight(f, params.k, params.eps)
    m, n, k = params.samples, f.n, params.k
    require_derived_bits(m << n, f"approximator at m={m}, n={n}")
    int_bound = int(params.coefficient_bound) + 1
    rounded: dict[tuple[int, ...], int] = {}
    best: tuple[Fraction, SampledApproximator] | None = None
    for retry in range(params.retry_budget):
        rng = random.Random(_retry_seed(params.seed, retry))
        flat = [rng.getrandbits(n) for _ in range(m * k)]
        weights = _prefix_weights(f, np.array(flat, dtype=np.int64).reshape(m, k))
        keys, first, inverse = np.unique(weights, axis=0, return_index=True,
                                         return_inverse=True)
        values = [0] * len(keys)
        for i in np.argsort(first).tolist():
            key = tuple(keys[i].tolist())
            if key not in rounded:
                rounded[key] = _rounded_coefficient(key, f.size, int_bound)
            values[i] = rounded[key]
        approx = SampledApproximator(
            n=n,
            k=k,
            seed=params.seed,
            base=f,
            directions=tuple(zip(*[iter(flat)] * k)),
            coefficients=tuple(values[i] for i in inverse.ravel().tolist()),
        )
        achieved = distance(f, approximator_table(approx))
        if best is None or achieved < best[0]:
            best = (achieved, approx)
        if achieved <= params.delta:
            return ApproxResult(approx, achieved, retry + 1)
    raise ApproximationFailure(
        f"no sample batch reached distance {params.delta} within "
        f"{params.retry_budget} retries (best: {best[0]})",
        best_distance=best[0],
        retries_used=params.retry_budget,
    )


def _signed_accumulation(approx: SampledApproximator) -> np.ndarray:
    """Per-point integer sums of s_i * (-1)^{h_i(x)}, exact in int64.

    ``derivative_chunks`` re-derives the sample tables h_i from the base and
    the directions, and each chunk is folded into the sums as it comes:
    within a chunk, the n_c samples of one coefficient c add
    c * (n_c - 2 * ones_c(x)), where ones_c(x) counts their tables that are 1
    at x, an integer column count.
    """
    acc = np.zeros(1 << approx.n, dtype=np.int64)
    coeffs = np.array(approx.coefficients, dtype=np.int64)
    directions = np.fromiter(itertools.chain.from_iterable(approx.directions), dtype=np.int64,
                             count=approx.m * approx.k).reshape(approx.m, approx.k)
    start = 0
    for tables, _ in derivative_chunks(approx.base, directions):
        s = coeffs[start:start + len(tables)]
        start += len(tables)
        for c in np.unique(s).tolist():
            chosen = tables[s == c]
            acc += c * (len(chosen) - 2 * point_counts(chosen, approx.n))
    return acc


def approximator_table(approx: SampledApproximator) -> FunctionTable:
    """Materialize the weighted majority at every point."""
    acc = _signed_accumulation(approx)
    packed = np.packbits((acc < 0).astype(np.uint8), bitorder="little")
    return FunctionTable(approx.n, int.from_bytes(packed.tobytes(), "little"))


def unique_decode_within(
    g: FunctionTable, params: CodeParams, radius: Fraction, backend: str = "auto"
) -> AnfPolynomial | None:
    """Return the unique degree-<= d codeword within radius of g, or None.

    Radius must be below half the minimum distance, which is what makes the
    answer unique. Backends: ``exhaustive`` runs the scan kernel over the
    whole code and returns its first codeword within the radius (``auto``
    picks it up to dimension ``EXHAUSTIVE_DECODE_DIMENSION``);
    ``majority`` recovers coefficients by majority votes, top degree first,
    peeling each recovered layer.
    """
    if g.n != params.n:
        raise InputError(f"mismatched variable counts {g.n} != {params.n}")
    if radius >= Fraction(1, 1 << (params.d + 1)):
        raise RadiusError(
            f"radius {radius} must be below half the minimum distance "
            f"{Fraction(1, 1 << params.d)}"
        )
    if backend == "auto":
        backend = (
            "exhaustive" if params.dimension <= EXHAUSTIVE_DECODE_DIMENSION
            else "majority"
        )
    if backend == "exhaustive":
        return _decode_exhaustive(g, params, radius)
    if backend == "majority":
        return _decode_majority(g, params, radius)
    raise InputError(f"unknown backend {backend!r}")


def _decode_exhaustive(
    g: FunctionTable, params: CodeParams, radius: Fraction
) -> AnfPolynomial | None:
    kernel = scan.code_scan(params)
    max_flips = (radius.numerator * g.size) // radius.denominator
    hits = scan.within(kernel, scan.to_words(g.bits, kernel.words), max_flips)
    code, _ = next(hits, (None, None))
    return None if code is None else kernel.polynomial(code)


def _decode_majority(
    g: FunctionTable, params: CodeParams, radius: Fraction
) -> AnfPolynomial | None:
    """Classical majority-logic decoding, top degree first.

    Once the layers above degree deg are peeled off the residual, each coset
    of the subcube spanned by a degree-deg monomial's variables votes with
    the parity of the residual over it, and the coefficient is 1 when more
    than half of the 2^(n-deg) cosets vote 1. With the residual unpacked once
    per degree into a ``(2,)*n`` uint8 cube, variable i on axis n-1-i, every
    coset's parity is one XOR reduction over the monomial's axes. Recovered
    layers are XORed out before moving down a degree; the constant is 1 when
    the final residual has more ones than zeros, and the result stands only
    if it lies within the radius of g.
    """
    n, size = params.n, g.size
    masks = params.monomial_masks()
    residual = g.bits
    recovered: set[int] = set()
    for deg in range(params.d, 0, -1):
        raw = np.frombuffer(residual.to_bytes(max(1, size // 8), "little"), dtype=np.uint8)
        cube = np.unpackbits(raw, count=size, bitorder="little").reshape((2,) * n)
        layer: list[int] = []
        for mask in (m for m in masks if m.bit_count() == deg):
            axes = tuple(n - 1 - i for i in range(n) if (mask >> i) & 1)
            votes = int(np.bitwise_xor.reduce(cube, axis=axes).sum())
            if 2 * votes > 1 << (n - deg):
                layer.append(mask)
        for mask in layer:
            residual ^= monomial_table(n, mask)
            recovered.add(mask)
    if residual.bit_count() > size // 2:
        recovered.add(0)
    p = AnfPolynomial(n, frozenset(recovered))
    if distance(g, anf_to_table(p)) <= radius:
        return p
    return None


def approximator_json(approx: SampledApproximator, achieved: Fraction,
                      retries_used: int) -> str:
    """The approximator's JSON record: n, k, m, seed, the achieved distance, the
    retries used and each sample's directions and coefficient, but no derivative
    table. Byte for byte as ``json.dumps(record, sort_keys=True, indent=2) + "\\n"``
    writes it.

    Only the header goes through ``json.dumps``; the samples, the bulk of the
    record, are written from one fixed per-sample template.
    """
    header = {"n": approx.n, "k": approx.k, "m": approx.m, "seed": approx.seed,
              "achieved_distance": str(achieved), "retries_used": retries_used,
              "samples": []}
    text = json.dumps(header, sort_keys=True, indent=2)
    if not approx.m:
        return text + "\n"
    directions = ("[\n" + ",\n".join(["        %d"] * approx.k) + "\n      ]"
                  if approx.k else "[]")
    template = '    {\n      "coefficient": %d,\n      "directions": ' + directions + "\n    }"
    block = ",\n".join(template % (s, *t)
                       for s, t in zip(approx.coefficients, approx.directions))
    return text.replace('"samples": []', '"samples": [\n' + block + "\n  ]", 1) + "\n"
