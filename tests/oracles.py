"""Test-only helpers and slow reference paths shared by several test modules.

Conversions between 0/1 value lists, packed truth tables and F_2 value
tables, a table's value at one point, the XOR of two tables, a function
file's text and its writer, an enumerator's minimum positive weight, the F_q
distance, the bigint iterated derivative that checks the batched derivative
kernel, a derivative count off by one that the identity checks must catch,
the ``Fraction`` coefficient walk that checks the approximator's integer
coefficients, the default approximator parameters of a code, the dict walk
that checks the exhaustive bias-bounds check, and the codeword scan, sharded
and pooled, that checks the closed-form weight enumerators. The library
itself needs none of them.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from rmlist import (
    ApproximatorParams,
    CodeParams,
    DegenerateBiasError,
    FunctionTable,
    GrmTable,
    InputError,
    WeightEnumerator,
    bias,
    derive,
    scan,
)
from rmlist.derivatives import BiasBoundCheck, BiasBoundReport, require_low_weight


def table_from_values(values) -> FunctionTable:
    """A truth table from its 0/1 values, indexed by point."""
    values = list(values)
    n = (len(values) - 1).bit_length()
    if len(values) != 1 << n:
        raise InputError("value list length must be a power of two")
    bits = 0
    for v, b in enumerate(values):
        if b not in (0, 1):
            raise InputError("table values must be bits")
        bits |= b << v
    return FunctionTable(n, bits)


def evaluate(f: FunctionTable, x: int) -> int:
    """f(x), or ``InputError`` for a point outside [0, 2^n)."""
    if not 0 <= x < f.size:
        raise InputError(f"point {x} out of range for n={f.n}")
    return (f.bits >> x) & 1


def table_values(f: FunctionTable) -> list[int]:
    return [(f.bits >> v) & 1 for v in range(f.size)]


def xor_tables(f: FunctionTable, g: FunctionTable) -> FunctionTable:
    if f.n != g.n:
        raise InputError(f"mismatched variable counts {f.n} != {g.n}")
    return FunctionTable(f.n, f.bits ^ g.bits)


def function_to_text(f: FunctionTable) -> str:
    """A function file's text: ``n`` in decimal, ``bits`` in hex, 2^n / 4 digits."""
    digits = max(1, f.size // 4)
    return f"n {f.n}\nbits {f.bits:0{digits}x}\n"


def write_function_file(path: Path | str, f: FunctionTable) -> None:
    """A function file that the CLI's ``--center`` and ``--function`` read."""
    Path(path).write_text(function_to_text(f))


def min_positive_weight(enum: WeightEnumerator) -> int | None:
    """The smallest nonzero weight of an enumerated code (its minimum distance)."""
    positive = [w for w in enum.counts if w > 0]
    return min(positive) if positive else None


def grm_table_of(f: FunctionTable) -> GrmTable:
    """A Boolean truth table as an F_2 value table."""
    return GrmTable(2, f.n, tuple(table_values(f)))


def boolean_table_of(t: GrmTable) -> FunctionTable:
    """An F_2 value table as a packed Boolean truth table."""
    assert t.q == 2
    return table_from_values(t.values.tolist())


def grm_distance(f: GrmTable, g: GrmTable) -> Fraction:
    """Fraction of points where two value tables over the same F_q^n disagree."""
    if (f.q, f.n) != (g.q, g.n):
        raise InputError("mismatched field or variable count")
    return Fraction(int(np.count_nonzero(f.values != g.values)), f.size)


def derive_iterated(f: FunctionTable, directions: Sequence[int]) -> FunctionTable:
    """Iterated discrete derivative, one bigint ``derive`` per direction.

    Agrees with the 2^k subset-sum formula and is invariant under permuting
    the directions (both are property-tested).
    """
    for a in directions:
        f = derive(f, a)
    return f


@dataclass(frozen=True)
class RepresentationCoefficient:
    """Coefficient of one direction tuple: product of inverse prefix biases."""

    value: Fraction
    prefix_biases: tuple[Fraction, ...]


def miscounted(counts, index: int, at: tuple[int, int]):
    """``counts``, ``derivatives._level`` or ``_sweep_counts``, with one more one at
    ``at`` in the counts it returns as item ``index``: a kernel bug that every
    single-derivative check must catch."""

    def wrapped(*args, **kwargs):
        result = counts(*args, **kwargs)
        result[index][at] += 1
        return result

    return wrapped


def representation_coefficient(
    f: FunctionTable, directions: Sequence[int], eps: Fraction
) -> RepresentationCoefficient:
    """Oracle of ``approximator._rounded_coefficient`` before rounding: the
    coefficient of one order-k derivative in the representation identity.

    A ``Fraction`` walk over bigint ``derive``: the product runs over the k
    prefixes f, f_{a_1}, ..., f_{a_1..a_{k-1}}; under the low-weight
    precondition every prefix bias is strictly positive and the product is at
    most 10/eps.
    """
    k = len(directions)
    require_low_weight(f, k, eps)
    biases = []
    cur = f
    for a in directions:
        b = bias(cur)
        if b == 0:
            raise DegenerateBiasError(
                "zero prefix bias under the low-weight precondition"
            )
        biases.append(b)
        cur = derive(cur, a)
    value = Fraction(1)
    for b in biases:
        value /= b
    return RepresentationCoefficient(value, tuple(biases))


def approximator_params_for_code(code: CodeParams, k: int, eps: Fraction, seed: int,
                                 retry_budget: int = 10) -> ApproximatorParams:
    """Default target distance 2^-(d+2): half of half the minimum distance."""
    return ApproximatorParams(k=k, eps=eps, delta=Fraction(1, 1 << (code.d + 2)), seed=seed,
                              retry_budget=retry_budget)


def exhaustive_bias_bounds(f: FunctionTable, k: int, eps: Fraction) -> BiasBoundReport:
    """Oracle of the exhaustive ``check_bias_bounds`` walk, with no weight gate.

    For each prefix length s, levels 1..s are derived afresh into a dict of the
    distinct bigint derivatives, each keyed to the first direction tuple that
    reaches it; every distinct derivative's bias is then compared with the bound.
    """
    size, checks = f.size, []
    for s in range(k):
        bound = 1 - Fraction(1 - eps) / (1 << (k - 1 - s))
        layer = {f.bits: ()}
        for _ in range(s):
            nxt: dict[int, tuple[int, ...]] = {}
            for bits, rep in layer.items():
                g = FunctionTable(f.n, bits)
                for a in range(size):
                    nxt.setdefault(derive(g, a).bits, rep + (a,))
            layer = nxt
        biases = [(rep, bias(FunctionTable(f.n, bits))) for bits, rep in layer.items()]
        checks.append(BiasBoundCheck(
            prefix_length=s,
            bound=bound,
            min_bias=min(b for _, b in biases),
            tuples_checked=size**s,
            violations=tuple((t, b) for t, b in biases if b < bound),
        ))
    return BiasBoundReport(k=k, eps=eps, exhaustive=True, checks=tuple(checks))


# A sharded scan enumeration starts worker processes only when its
# ``scan_words`` pass this: the crossover of a two-worker pool (4 shards) and one
# in-process walk on a 2-core VM (medians of 5-9 runs). RM(14,1), 2^23 words,
# takes 15-17 ms in-process and 29-48 ms pooled; RM(15,1), 2^25, 51-64 ms either
# way; RM(5,3), 2^26, 156-169 ms in-process and 110-115 ms pooled.
POOL_MIN_WORDS = 1 << 25


def weight_histogram(kernel: scan.CodeScan, base: np.ndarray, free: int,
                     block_length: int) -> np.ndarray:
    """Number of codewords of each weight 0..block_length among ``base`` XOR every
    codeword spanned by the first ``free`` tables: each walked weight w counts at w
    and, for its complement, at block_length - w."""
    if free == 0:  # every coefficient is fixed, the constant too: one word, no pair
        return np.bincount([int(np.bitwise_count(base).sum())], minlength=block_length + 1)
    spanned = dataclasses.replace(kernel, tables=kernel.tables[:free])
    counts = sum(np.bincount(weights, minlength=block_length + 1)
                 for _, weights in scan.weight_blocks(spanned, base))
    return counts + counts[::-1]


def _shard_job(args: tuple[int, int, int, int]) -> np.ndarray:
    """Weight histogram of one shard: the codewords whose top ``shard_bits``
    coefficient bits spell ``shard_index`` (the whole code at ``shard_bits`` 0)."""
    n, d, shard_bits, shard_index = args
    params = CodeParams(n, d)
    kernel = scan.code_scan(params)
    free = len(kernel.tables) - shard_bits
    base = np.zeros((1, kernel.words), dtype=np.uint64)
    for j in range(shard_bits):
        if (shard_index >> j) & 1:
            base ^= kernel.tables[free + j]
    return weight_histogram(kernel, base, free, params.block_length)


def scan_enumerator(params: CodeParams, shards: int = 1, workers: int = 1) -> WeightEnumerator:
    """Oracle of ``enumerate_weights``: the weight enumerator by walking the code.

    Past a scan cap, ``ScaleError``. A pool of ``min(workers, shards)`` processes
    sums the power-of-two shards' histograms when ``scan_words`` pass
    ``POOL_MIN_WORDS``; otherwise the code is walked once, in-process, whatever
    the shard count.
    """
    scan.code_scan(params)
    if workers > 1 and shards > 1 and scan.scan_words(params) > POOL_MIN_WORDS:
        jobs = [(params.n, params.d, shards.bit_length() - 1, s) for s in range(shards)]
        with multiprocessing.Pool(processes=min(workers, shards)) as pool:
            total = sum(pool.imap(_shard_job, jobs))
    else:
        total = _shard_job((params.n, params.d, 0, 0))
    return WeightEnumerator(params, {w: c for w, c in enumerate(total.tolist()) if c})
