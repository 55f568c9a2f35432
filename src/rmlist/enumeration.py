"""Exact weight enumerators, low-weight codeword families, and explicit counting bounds.

The enumerator is the performance core. It hands every shard to the scan
kernel (``scan``), which XORs a running base of high monomial tables into a
precomputed tile of all low combinations and histograms the popcounts.
Sharding fixes the high-order coefficient bits, which splits the walk into
independent sub-walks whose histogram sum is exact and identical for any
shard count or worker schedule. Shards run in worker processes only when the
scan XORs more than ``scan.POOL_MIN_WORDS`` uint64 words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import scan
from .approximator import sample_count
from .boolfunc import AnfPolynomial, CodeParams, anf_to_table, monomial_masks
from .errors import InputError, InvariantFailure


@dataclass(frozen=True)
class WeightEnumerator:
    """Exact multiset of codeword weights: weight count -> multiplicity."""

    params: object
    block_length: int
    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def multiplicity(self, w: int) -> int:
        return self.counts.get(w, 0)

    def min_positive_weight(self) -> int | None:
        positive = [w for w in self.counts if w > 0]
        return min(positive) if positive else None


def accumulative(enumerator: WeightEnumerator, alpha: Fraction) -> int:
    """Number of codewords of relative weight <= alpha."""
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise InputError(f"alpha must be in [0, 1], got {alpha}")
    threshold = (alpha.numerator * enumerator.block_length) // alpha.denominator
    return sum(c for w, c in enumerator.counts.items() if w <= threshold)


def _shard_counts(kernel: scan.CodeScan, shard_bits: int, shard_index: int,
                  block_length: int) -> np.ndarray:
    free = len(kernel.tables) - shard_bits
    base = np.zeros(kernel.words, dtype=np.uint64)
    for j in range(shard_bits):
        if (shard_index >> j) & 1:
            base ^= kernel.tables[free + j]
    return scan.weight_histogram(kernel, base, free, block_length)


def _shard_job(args: tuple[int, int, int, int]) -> np.ndarray:
    n, d, shard_bits, shard_index = args
    params = CodeParams(n, d)
    return _shard_counts(scan.code_scan(params), shard_bits, shard_index,
                         params.block_length)


def enumerate_weights(
    params: CodeParams, shards: int = 1, workers: int = 1
) -> WeightEnumerator:
    """Exact weight enumerator of the degree-<= d code on n variables.

    ``shards`` must be a power of two; each shard fixes that many high-order
    coefficient bits. Results are identical for every shard/worker count.
    """
    scan.require_dimension(params)
    if shards < 1 or shards & (shards - 1):
        raise InputError(f"shards must be a power of two, got {shards}")
    shard_bits = shards.bit_length() - 1
    if shard_bits > params.dimension:
        raise InputError(f"{shards} shards exceed 2^dimension")
    # A pool costs more to start than a small scan takes, so small scans run
    # their shards in-process, in the same order.
    total = np.zeros(params.block_length + 1, dtype=np.int64)
    scanned = (1 << params.dimension) * scan.word_count(params.n)
    if workers > 1 and shards > 1 and scanned > scan.POOL_MIN_WORDS:
        # Imported here: most runs start no pool, and the module costs about
        # 0.8 MiB of resident memory.
        import multiprocessing

        jobs = [(params.n, params.d, shard_bits, s) for s in range(shards)]
        with multiprocessing.Pool(processes=min(workers, shards)) as pool:
            for part in pool.imap(_shard_job, jobs):
                total += part
    else:
        kernel = scan.code_scan(params)
        for s in range(shards):
            total += _shard_counts(kernel, shard_bits, s, params.block_length)
    counts = {w: c for w, c in enumerate(total.tolist()) if c}
    return WeightEnumerator(params=params, block_length=params.block_length,
                            counts=counts)


@dataclass(frozen=True)
class LowerBoundFamily:
    n: int
    d: int
    k: int
    members: tuple[AnfPolynomial, ...]
    distinct_count: int

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
    members = []
    seen = set()
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
        key = p.sort_key()
        if key not in seen:
            seen.add(key)
            members.append(p)
    return LowerBoundFamily(n=n, d=d, k=k, members=tuple(members),
                            distinct_count=len(seen))


def binomial_le(n: int, r: int) -> int:
    return sum(math.comb(n, i) for i in range(r + 1))


def coefficient_choices(eps: Fraction) -> int:
    """Number of admissible integer coefficients: all integers within the rounded bound."""
    c = Fraction(10) / eps
    return 2 * (int(c) + 1) + 1


@dataclass(frozen=True)
class BoundEstimate:
    """Explicit counting bound with its constituents, reproducible from ``terms``."""

    formula: str
    n: int
    d: int
    k: int
    eps: Fraction
    value: int
    terms: dict[str, int]
    near_minimum_bound: Fraction | None = None

    def log2_value(self) -> float:
        # value = (derivative_choices * coefficient_choices) ^ samples, and the
        # derivative term is a power of two, so this avoids huge-int floats.
        m = self.terms["samples"]
        deriv_log2 = self.terms.get("derivative_choices", 1).bit_length() - 1
        extra = self.terms.get("direction_choices", 1).bit_length() - 1
        return m * (deriv_log2 + extra + math.log2(self.terms["coefficient_choices"]))


def _validate_bound_params(n: int, d: int, k: int, eps: Fraction) -> None:
    CodeParams(n, d)
    if not 1 <= k <= d - 1:
        raise InputError(f"k must be in [1, d-1={d - 1}], got {k}")
    if not 0 < eps < 1:
        raise InputError(f"eps must be in (0, 1), got {eps}")


def bound_log2(n: int, d: int, k: int, eps: Fraction, with_directions: bool = False) -> float:
    """log2 of the explicit bound, computed from the constituents only.

    Avoids materializing the bound integer, whose bit length is
    samples * (derivative bits + coefficient bits) and can reach megabits for
    small eps.
    """
    _validate_bound_params(n, d, k, eps)
    m = sample_count(eps, Fraction(1, 1 << (d + 2)))
    per_sample = binomial_le(n, d - k) + math.log2(coefficient_choices(eps))
    if with_directions:
        per_sample += k * n
    return m * per_sample


def accumulative_weight_bound(n: int, d: int, k: int, eps: Fraction) -> BoundEstimate:
    """Explicit count dominating the number of codewords of weight <= 2^-k (1-eps).

    Every such codeword is pinned uniquely by a weighted majority of m sampled
    order-k derivatives; each sample is one degree-<= (d-k) polynomial plus one
    bounded integer coefficient, so (choices per sample)^m bounds the count.
    """
    _validate_bound_params(n, d, k, eps)
    delta = Fraction(1, 1 << (d + 2))
    m = sample_count(eps, delta)
    deriv = 1 << binomial_le(n, d - k)
    s_count = coefficient_choices(eps)
    value = (deriv * s_count) ** m
    near = (1 / Fraction(eps)) ** (2 * (n + 1)) if k == d - 1 else None
    return BoundEstimate(
        formula="accumulative-weight",
        n=n, d=d, k=k, eps=eps,
        value=value,
        terms={
            "samples": m,
            "derivative_choices": deriv,
            "coefficient_choices": s_count,
        },
        near_minimum_bound=near,
    )


@dataclass(frozen=True)
class GrowthRow:
    n: int
    alpha: Fraction
    count: int
    log2_count: float
    family_lower: int | None
    upper_log2: float | None


def growth_probe(d: int, k: int, eps: Fraction, n_values) -> list[GrowthRow]:
    """Emit accumulative counts across n for inspection of the growth exponent.

    Rows cover the band around 2^-k: its lower edge 2^-(k+1), the probe radius
    2^-k (1-eps), and 2^-k itself. No assertion is made beyond what the
    sandwich (family lower bound, explicit upper bound) supplies.
    """
    if not 0 < eps < 1:
        raise InputError(f"eps must be in (0, 1), got {eps}")
    rows = []
    for n in n_values:
        params = CodeParams(n, d)
        if not 1 <= k <= d:
            raise InputError(f"k must be in [1, d={d}], got {k}")
        enum = enumerate_weights(params)
        alphas = []
        for alpha in (
            Fraction(1, 1 << (k + 1)),
            Fraction(1, 1 << k) * (1 - eps),
            Fraction(1, 1 << k),
        ):
            if alpha not in alphas:
                alphas.append(alpha)
        for alpha in alphas:
            count = accumulative(enum, alpha)
            # strongest family whose exact weight 2^-j fits under alpha
            lower = None
            for j in range(1, d + 1):
                if Fraction(1, 1 << j) <= alpha:
                    lower = 1 << math.comb(n - j, d - j + 1)
                    break
            upper = None
            if alpha == Fraction(1, 1 << k) * (1 - eps) and 1 <= k <= d - 1:
                upper = bound_log2(n, d, k, eps)
            rows.append(
                GrowthRow(
                    n=n,
                    alpha=alpha,
                    count=count,
                    log2_count=math.log2(count) if count else 0.0,
                    family_lower=lower,
                    upper_log2=upper,
                )
            )
    return rows
