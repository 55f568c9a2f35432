"""Exact weight enumerators, low-weight codeword families, and explicit counting bounds.

The enumerator is the performance core. It hands the walk to the scan kernel
(``scan``), which admits it, XORs a running base of high monomial tables into
a precomputed tile of all low combinations and histograms the popcounts. It
walks the half of the code whose constant coefficient is 0 and counts each
weight w at w and at 2^n - w, for the word's complement. Only
a pool shards the walk: each shard fixes the high-order coefficient bits, and
the shards' histogram sum is exact for any shard count or worker schedule. A
pool starts only when ``scan.scan_words`` passes ``scan.POOL_MIN_WORDS``;
otherwise the code is walked once, in-process.

The paper's two counting bounds share one argument and one builder: a
codeword of weight <= 2^-k (1-eps), or a list member at that radius, is
pinned by m sampled order-k derivatives, each one degree-<= (d-k) polynomial
and one coefficient within 10/eps, plus, for the list bound, one of 2^(kn)
direction tuples. A ``BoundEstimate`` keeps m and the per-sample choice
counts as ``terms``; ``value`` multiplies them out, up to ``BOUND_VALUE_BITS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import scan
from .approximator import COEFFICIENT_BOUND_NUMERATOR, sample_count
from .boolfunc import AnfPolynomial, CodeParams, anf_to_table, flip_budget, monomial_masks
from .caps import BOUND_VALUE_BITS
from .errors import InputError, InvariantFailure, ScaleError


@dataclass(frozen=True)
class WeightEnumerator:
    """Exact multiset of codeword weights: weight count -> multiplicity."""

    params: object  # ``CodeParams`` or ``grm.GrmParams``
    counts: dict[int, int]

    @classmethod
    def from_histogram(cls, params, histogram: np.ndarray) -> "WeightEnumerator":
        """The enumerator of a scan's histogram over weights 0..block_length."""
        return cls(params, {w: c for w, c in enumerate(histogram.tolist()) if c})

    @property
    def block_length(self) -> int:
        return self.params.block_length

    def total(self) -> int:
        return sum(self.counts.values())

    def multiplicity(self, w: int) -> int:
        return self.counts.get(w, 0)


def accumulative(enumerator: WeightEnumerator, alpha: Fraction) -> int:
    """Number of codewords of relative weight <= alpha."""
    threshold = flip_budget(alpha, enumerator.block_length)
    return sum(c for w, c in enumerator.counts.items() if w <= threshold)


def _shard_job(args: tuple[int, int, int, int]) -> np.ndarray:
    """Weight histogram of one shard: the codewords whose top ``shard_bits``
    coefficient bits spell ``shard_index`` (the whole code at ``shard_bits`` 0)."""
    n, d, shard_bits, shard_index = args
    params = CodeParams(n, d)
    kernel = scan.code_scan(params)
    free = len(kernel.tables) - shard_bits
    base = np.zeros(kernel.words, dtype=np.uint64)
    for j in range(shard_bits):
        if (shard_index >> j) & 1:
            base ^= kernel.tables[free + j]
    return scan.weight_histogram(kernel, base, free, params.block_length)


def enumerate_weights(
    params: CodeParams, shards: int = 1, workers: int = 1
) -> WeightEnumerator:
    """Exact weight enumerator of the degree-<= d code on n variables.

    ``shards`` must be a power of two no larger than 2^dimension; each shard of
    a pooled walk fixes that many high-order coefficient bits. Results are
    identical for every shard/worker count.
    """
    scan.code_scan(params)  # past a scan cap, ScaleError before the shards are checked
    if shards < 1 or shards & (shards - 1):
        raise InputError(f"shards must be a power of two, got {shards}")
    shard_bits = shards.bit_length() - 1
    if shard_bits > params.dimension:
        raise InputError(f"{shards} shards exceed 2^dimension")
    if workers > 1 and shards > 1 and scan.scan_words(params) > scan.POOL_MIN_WORDS:
        # Imported here: most runs start no pool, and the module costs about
        # 0.8 MiB of resident memory.
        import multiprocessing

        jobs = [(params.n, params.d, shard_bits, s) for s in range(shards)]
        with multiprocessing.Pool(processes=min(workers, shards)) as pool:
            total = sum(pool.imap(_shard_job, jobs))
    else:
        total = _shard_job((params.n, params.d, 0, 0))
    return WeightEnumerator.from_histogram(params, total)


@dataclass(frozen=True)
class LowerBoundFamily:
    n: int
    d: int
    k: int
    members: tuple[AnfPolynomial, ...]

    @property
    def distinct_count(self) -> int:
        return len(self.members)

    @property
    def target_weight(self) -> Fraction:
        return Fraction(1, 1 << self.k)


def iter_low_weight_family(n: int, d: int, k: int) -> Iterator[AnfPolynomial]:
    """Stream degree-<= d polynomials of relative weight exactly 2^-k.

    Shape: (product of the first k-1 variables) * (x_k + q), with q running
    over degree-<= (d-k+1) polynomials on the remaining n-k variables. The
    top-degree coefficient patterns of q vary first so a prefix of the stream
    already realizes every top pattern.
    """
    params = CodeParams(n, d)
    if not 1 <= k <= d:
        raise InputError(f"k must be in [1, d={d}], got {k}")
    qdeg = d - k + 1
    rest = [m << k for m in monomial_masks(n - k, qdeg)]  # monomials in x_{k+1}..x_n
    top = [m for m in rest if m.bit_count() == qdeg]
    low = [m for m in rest if m.bit_count() < qdeg]
    prefix_full = (1 << k) - 1
    prefix_part = (1 << (k - 1)) - 1
    for low_sel in range(1 << len(low)):
        low_masks = [m for j, m in enumerate(low) if (low_sel >> j) & 1]
        for top_sel in range(1 << len(top)):
            q_masks = [m for j, m in enumerate(top) if (top_sel >> j) & 1]
            q_masks += low_masks
            monos = {prefix_full}
            monos.update(prefix_part | m for m in q_masks)
            yield AnfPolynomial(params.n, frozenset(monos))


def construct_low_weight_family(
    n: int, d: int, k: int, limit: int | None = None
) -> LowerBoundFamily:
    """Materialize the low-weight family, verifying weight and degree per member."""
    if limit is None:
        limit = min(1 << math.comb(n - k, d - k + 1), 1 << 16)
    elif limit < 1:
        raise InputError(f"limit must be >= 1, got {limit}")
    members: dict[tuple, AnfPolynomial] = {}  # by sort key, first kept
    target = Fraction(1, 1 << k)
    for p in iter_low_weight_family(n, d, k):
        if len(members) >= limit:
            break
        if p.degree > d:
            raise InvariantFailure(f"family member degree {p.degree} exceeds {d}")
        table = anf_to_table(p)
        w = Fraction(table.bits.bit_count(), table.size)
        if w != target:
            raise InvariantFailure(f"family member weight {w} != {target}")
        members.setdefault(p.sort_key(), p)
    return LowerBoundFamily(n=n, d=d, k=k, members=tuple(members.values()))


def binomial_le(n: int, r: int) -> int:
    return sum(math.comb(n, i) for i in range(r + 1))


def coefficient_choices(eps: Fraction) -> int:
    """Number of admissible integer coefficients: all integers within the rounded bound."""
    return 2 * (int(Fraction(COEFFICIENT_BOUND_NUMERATOR) / eps) + 1) + 1


@dataclass(frozen=True)
class BoundEstimate:
    """Explicit counting bound: the product of the per-sample ``terms``, raised to ``samples``."""

    formula: str
    n: int
    d: int
    k: int
    eps: Fraction
    terms: dict[str, int]
    near_minimum_bound: Fraction | None = None

    def _per_sample(self) -> int:
        return math.prod(v for key, v in self.terms.items() if key != "samples")

    def require_value_bits(self) -> None:
        """``ScaleError`` when ``value`` may pass ``BOUND_VALUE_BITS`` bits."""
        bits = self.terms["samples"] * self._per_sample().bit_length()
        if bits > BOUND_VALUE_BITS:
            raise ScaleError(
                f"{self.formula} bound at n={self.n}, d={self.d}, k={self.k}, eps={self.eps} "
                f"may take {bits} bits, past the {BOUND_VALUE_BITS}-bit cap")

    @property
    def value(self) -> int:
        """The bound as an integer, built on each call; ``ScaleError`` past the cap."""
        self.require_value_bits()
        return self._per_sample() ** self.terms["samples"]

    def log2_value(self) -> float:
        # value = (product of the choices) ^ samples, and the derivative and
        # direction terms are powers of two, so this avoids huge-int floats.
        m = self.terms["samples"]
        deriv_log2 = self.terms.get("derivative_choices", 1).bit_length() - 1
        extra = self.terms.get("direction_choices", 1).bit_length() - 1
        return m * (deriv_log2 + extra + math.log2(self.terms["coefficient_choices"]))


def _counting_bound(formula: str, n: int, d: int, k: int, eps: Fraction) -> BoundEstimate:
    """Either bound, ``formula`` "accumulative-weight" or "list-size", from the
    counting argument of the module docstring. At k = d-1 the accumulative
    bound carries the near-minimum companion (1/eps)^(2(n+1))."""
    CodeParams(n, d)
    if not 1 <= k <= d - 1:
        raise InputError(f"k must be in [1, d-1={d - 1}], got {k}")
    terms = {"samples": sample_count(eps, Fraction(1, 1 << (d + 2))),
             "derivative_choices": 1 << binomial_le(n, d - k)}
    near = None
    if formula == "list-size":
        terms["direction_choices"] = 1 << (k * n)
    elif k == d - 1:
        near = (1 / Fraction(eps)) ** (2 * (n + 1))
    terms["coefficient_choices"] = coefficient_choices(eps)
    return BoundEstimate(formula=formula, n=n, d=d, k=k, eps=eps, terms=terms,
                         near_minimum_bound=near)


def accumulative_weight_bound(n: int, d: int, k: int, eps: Fraction) -> BoundEstimate:
    """Explicit count dominating the number of codewords of weight <= 2^-k (1-eps).

    Every such codeword is pinned uniquely by a weighted majority of m sampled
    order-k derivatives, so (choices per sample)^m bounds the count.
    """
    return _counting_bound("accumulative-weight", n, d, k, eps)


def list_size_bound(n: int, d: int, k: int, eps: Fraction) -> BoundEstimate:
    """Explicit count dominating the list size at radius 2^-k (1-eps).

    Same shape as the accumulative bound, with 2^(kn) direction choices more
    per sample.
    """
    return _counting_bound("list-size", n, d, k, eps)


@dataclass(frozen=True)
class GrowthRow:
    n: int
    alpha: Fraction
    count: int
    family_lower: int | None
    upper_log2: float | None

    @property
    def log2_count(self) -> float:
        return math.log2(self.count) if self.count else 0.0


def growth_probe(d: int, k: int, eps: Fraction, n_values) -> list[GrowthRow]:
    """Emit accumulative counts across n for inspection of the growth exponent.

    Rows cover the band around 2^-k: its lower edge 2^-(k+1), the probe radius
    2^-k (1-eps), and 2^-k itself. No assertion is made beyond what the
    sandwich (family lower bound, explicit upper bound) supplies.
    """
    if not 0 < eps < 1:
        raise InputError(f"eps must be in (0, 1), got {eps}")
    if not 1 <= k <= d:
        raise InputError(f"k must be in [1, d={d}], got {k}")
    probe = Fraction(1, 1 << k) * (1 - eps)
    # Each radius once, in order: at eps = 1/2 the probe is the lower edge.
    alphas = dict.fromkeys((Fraction(1, 1 << (k + 1)), probe, Fraction(1, 1 << k)))
    rows = []
    for n in n_values:
        enum = enumerate_weights(CodeParams(n, d))
        upper = accumulative_weight_bound(n, d, k, eps).log2_value() if k < d else None
        for alpha in alphas:
            # strongest family whose exact weight 2^-j fits under alpha
            lower = next((1 << math.comb(n - j, d - j + 1) for j in range(1, d + 1)
                          if Fraction(1, 1 << j) <= alpha), None)
            rows.append(GrowthRow(n=n, alpha=alpha, count=accumulative(enum, alpha),
                                  family_lower=lower,
                                  upper_log2=upper if alpha == probe else None))
    return rows
