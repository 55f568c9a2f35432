"""Independent reference computations the exactness gate compares rmlist against.

Nothing here imports rmlist. Codeword tables come from direct evaluation of
AND-monomials (not from the Moebius butterfly the library uses), code balls
from a brute-force numpy scan of every codeword, and the k=1 weighted
majority from a Walsh-Hadamard XOR convolution. Point encoding follows the
library's documented convention: x_i is bit i-1 of the point index.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

BRUTE_FORCE_DIMENSION = 16  # codeword arrays of at most 2^16 entries


def dimension(n: int, d: int) -> int:
    return sum(math.comb(n, i) for i in range(d + 1))


def monomial_masks(n: int, d: int) -> list[int]:
    """Degree-<= d monomials as variable-set masks, low degree first (the scan order)."""
    return sorted((m for m in range(1 << n) if m.bit_count() <= d),
                  key=lambda m: (m.bit_count(), m))


@lru_cache(maxsize=None)
def variable_table(n: int, i: int) -> int:
    """Truth table of x_{i+1}: bit v is set when bit i of v is set."""
    return sum(1 << v for v in range(1 << n) if (v >> i) & 1)


def monomial_table(n: int, mask: int) -> int:
    bits = (1 << (1 << n)) - 1
    for i in range(n):
        if (mask >> i) & 1:
            bits &= variable_table(n, i)
    return bits


def codeword_table(n: int, masks) -> int:
    bits = 0
    for m in masks:
        bits ^= monomial_table(n, m)
    return bits


def limit_for(alpha: Fraction, n: int) -> int:
    """Largest Hamming distance within relative radius alpha on 2^n points."""
    return (alpha.numerator << n) // alpha.denominator


def accumulative(distribution: dict[int, int], alpha: Fraction, n: int) -> int:
    limit = limit_for(alpha, n)
    return sum(c for w, c in distribution.items() if w <= limit)


@lru_cache(maxsize=8)
def all_codewords(n: int, d: int) -> np.ndarray:
    """Every codeword table of the degree-<= d code as uint64 (n <= 6, dim <= 16)."""
    if n > 6 or dimension(n, d) > BRUTE_FORCE_DIMENSION:
        raise ValueError(f"brute force covers n <= 6 and dim <= 16, not ({n}, {d})")
    words = np.zeros(1, dtype=np.uint64)
    for m in monomial_masks(n, d):
        words = np.concatenate([words, words ^ np.uint64(monomial_table(n, m))])
    return words


def ball_size(n: int, d: int, center: int, alpha: Fraction) -> int:
    dist = np.bitwise_count(all_codewords(n, d) ^ np.uint64(center))
    return int(np.count_nonzero(dist <= limit_for(alpha, n)))


@lru_cache(maxsize=8)
def max_list_size(n: int, d: int, alpha: Fraction) -> int:
    """Largest ball over every center on n <= 4 variables."""
    if n > 4:
        raise ValueError("exhaustive centers cover n <= 4")
    words = all_codewords(n, d)
    limit = limit_for(alpha, n)
    best = 0
    chunk = max(1, (1 << 16) // len(words))
    for start in range(0, 1 << (1 << n), chunk):
        centers = np.arange(start, min(start + chunk, 1 << (1 << n)), dtype=np.uint64)
        dist = np.bitwise_count(centers[:, None] ^ words[None, :])
        best = max(best, int((dist <= limit).sum(axis=1).max()))
    return best


def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    out = values.astype(np.int64)
    h = 1
    while h < len(out):
        pairs = out.reshape(-1, 2, h)
        out = np.stack([pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]],
                       axis=1).reshape(-1)
        h *= 2
    return out


def order1_majority(n: int, f_bits: int, directions: list[int], coefficient: int) -> int:
    """Table of sign(sum_i s (-1)^(f(x) + f(x + a_i))) with one shared coefficient s.

    The count of directions a_i with f(x + a_i) = 1 is the XOR convolution of
    the direction histogram with f, computed exactly in integers by two
    Walsh-Hadamard transforms. A sum of zero encodes bit 0.
    """
    size = 1 << n
    f = np.array([(f_bits >> v) & 1 for v in range(size)], dtype=np.int64)
    hist = np.bincount(np.array(directions, dtype=np.int64), minlength=size)
    ones = walsh_hadamard(walsh_hadamard(hist) * walsh_hadamard(f)) // size
    m = len(directions)
    mismatches = np.where(f == 1, m - ones, ones)
    negative = coefficient * (m - 2 * mismatches) < 0
    return sum(1 << int(v) for v in np.flatnonzero(negative))


def parse_anf(text: str, n: int) -> frozenset[int]:
    """Monomial masks of an ANF string as the ball CSV writes it: 'x1x3+x2+1' or '0'."""
    if text == "0":
        return frozenset()
    masks = set()
    for term in text.split("+"):
        mask = 0
        if term != "1":
            for index in term.split("x")[1:]:
                i = int(index)
                if not 1 <= i <= n:
                    raise ValueError(f"variable x{i} out of range for n={n}")
                mask |= 1 << (i - 1)
        masks.add(mask)
    return frozenset(masks)


def grm_dimension(q: int, n: int, d: int) -> int:
    """Number of exponent vectors in [0, q)^n with total degree <= d."""
    counts = [1] + [0] * d
    for _ in range(n):
        counts = [sum(counts[t - e] for e in range(q) if t - e >= 0)
                  for t in range(d + 1)]
    return sum(counts)
