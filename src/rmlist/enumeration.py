"""Exact weight enumerators, low-weight codeword families, and explicit counting bounds.

Every code ``enumerate_weights`` admits has a closed-form weight
distribution, so no codeword is walked. With N = 2^n:

- RM(n,1): A_0 = A_N = 1 and A_{N/2} = 2^(n+1) - 2.
- RM(n,2): for 1 <= h <= n/2, the weights N/2 +- 2^(n-1-h) each count
  2^(h(h+1)) prod_{i=n-2h+1..n} (2^i - 1) / prod_{i=1..h} (4^i - 1)
  (Sloane & Berlekamp, IEEE Trans. IT 1970); A_{N/2} takes the rest.
- RM(n,n): the binomials C(N, w).
- RM(n,n-1) and RM(n,n-2): the MacWilliams images of their duals, the
  repetition code and RM(n,1) (``transforms.macwilliams``).

The first two hold at every n, with at most n + 3 weights; the last three
only up to 2^``DIMENSION_CAP`` codewords, since their enumerators have up to
N + 1 weights. No other code is enumerated: every RM(n,d) with 3 <= d <= n-3
has dimension past the cap. Each enumerator passes three checks before it
is returned, and a miss is an ``InvariantFailure``: every count is a
positive int, the counts sum to 2^dimension, and Pless's second power
moment sum_w A_w (N - 2w)^2 = N 2^dimension holds (the dual's distance is
at least 3), which catches a wrong Sloane-Berlekamp term.

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

from .approximator import COEFFICIENT_BOUND_NUMERATOR, sample_count
from .boolfunc import AnfPolynomial, CodeParams, anf_to_table, flip_budget, monomial_masks
from .caps import BOUND_VALUE_BITS
from .errors import InputError, InvariantFailure, ScaleError
from .transforms import macwilliams


@dataclass(frozen=True)
class WeightEnumerator:
    """Exact multiset of codeword weights: weight count -> multiplicity."""

    params: object  # ``CodeParams`` or ``grm.GrmParams``
    counts: dict[int, int]

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


def _first_order_counts(n: int) -> dict[int, int]:
    return {0: 1, 1 << (n - 1): (2 << n) - 2, 1 << n: 1}


def _quadric_count(n: int, h: int) -> int:
    """Codewords of RM(n,2) at each of the weights 2^(n-1) +- 2^(n-1-h), 1 <= h <= n/2."""
    numerator = math.prod((1 << i) - 1 for i in range(n - 2 * h + 1, n + 1)) << (h * (h + 1))
    return numerator // math.prod((1 << 2 * i) - 1 for i in range(1, h + 1))


def _second_order_counts(n: int, dimension: int) -> dict[int, int]:
    half = 1 << (n - 1)
    counts = {0: 1, 2 * half: 1}
    for h in range(1, n // 2 + 1):
        counts[half - (half >> h)] = counts[half + (half >> h)] = _quadric_count(n, h)
    counts[half] = (1 << dimension) - sum(counts.values())
    return dict(sorted(counts.items()))


def _weight_counts(params: CodeParams) -> dict[int, int]:
    """The one route to the code's weight distribution (see the module docstring), or
    ``ScaleError`` for a code without one."""
    n, d, size = params.n, params.d, params.block_length
    if d == 1:
        return _first_order_counts(n)
    if d == 2:
        return _second_order_counts(n, params.dimension)
    reason = params.dimension_refusal()
    if reason is not None:
        raise ScaleError(f"{reason}, past which only d <= 2 is enumerated")
    if d == n:
        return {w: math.comb(size, w) for w in range(size + 1)}
    if d == n - 1:
        return macwilliams({0: 1, size: 1}, 2, size)
    if d == n - 2:
        return macwilliams(_first_order_counts(n), 2 << n, size)
    raise ScaleError(f"RM({n},{d}) has no weight enumerator route: 3 <= d <= n-3")


def _check_counts(params: CodeParams, counts: dict[int, int]) -> None:
    """``InvariantFailure`` unless every count is a positive int, the counts sum to
    2^dimension and Pless's second power moment holds."""
    size, codewords = params.block_length, 1 << params.dimension
    code = f"RM({params.n},{params.d})"
    if not all(type(c) is int and c > 0 for c in counts.values()):
        raise InvariantFailure(f"{code} enumerator has a count that is not a positive int")
    if sum(counts.values()) != codewords:
        raise InvariantFailure(f"{code} enumerator counts {sum(counts.values())} "
                               f"codewords, not 2^{params.dimension}")
    moment = sum(c * (size - 2 * w) ** 2 for w, c in counts.items())
    if moment != size * codewords:
        raise InvariantFailure(f"{code} enumerator's second power moment {moment} "
                               f"!= N 2^dimension = {size * codewords}")


def enumerate_weights(
    params: CodeParams, shards: int = 1, workers: int = 1
) -> WeightEnumerator:
    """Exact weight enumerator of the degree-<= d code on n variables, by its closed form.

    ``shards`` must be a power of two no larger than 2^dimension. ``shards`` and
    ``workers`` are kept for the CLI and its manifests; neither changes the work.
    """
    counts = _weight_counts(params)  # past the cap, ScaleError before the shards are checked
    if shards < 1 or shards & (shards - 1):
        raise InputError(f"shards must be a power of two, got {shards}")
    if shards.bit_length() - 1 > params.dimension:
        raise InputError(f"{shards} shards exceed 2^dimension")
    _check_counts(params, counts)
    return WeightEnumerator(params, counts)


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
