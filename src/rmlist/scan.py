"""The codeword-scan kernel behind list-decoding balls and exhaustive decoding.

A codeword of the degree-<= d code is the XOR of the monomial tables its
coefficient vector selects. Bit 0 selects the constant monomial, whose table
is the all-ones word, and a word XOR all-ones has weight block_length - w. So
the kernel walks only the half of the code whose constant coefficient is 0,
and every weight w it finds stands for a complement pair: the word at w and
its partner at block_length - w, whose vector also sets bit 0.

The kernel splits the rest of the coefficient vector into its L low bits
above bit 0 and the remaining high bits. It precomputes all 2^L low
combinations once per code, as a ``(2^L, words)`` uint64 tile whose size
``TILE_BYTES`` bounds, and walks only the high bits in Gray-code order: each
step XORs one high table into a running base, XORs the base into the whole
tile and takes every row's popcount, kept as uint8 for a one-word code (n <=
6, weights up to 64) and widened only where it is counted. Callers read each
weight as its pair and reduce each block their own way: a count of words
within a radius, or the words themselves. Weight enumerators walk no code:
``enumeration`` has a closed form for every code it admits, and the F_q walk
in ``grm`` reads only ``TILE_BYTES`` and ``weights`` from here: it counts the
matching points of its byte rows, padded to whole words, as ones.

This module alone converts a truth table, a Python int whose bit x is point
x, to and from numpy: ``to_words`` packs tables into rows of little-endian
uint64 words, ``point_bits`` unpacks rows to one uint8 per point,
``point_bit`` reads one point of every row and ``from_point_bits`` packs
one row of point values back into an int. Only it reads the rows' word layout:
``translate`` moves each row by its own direction, ``unit_delta`` derives rows
along a unit vector, ``weights`` counts ones (exact while every kernel here keeps
the padding bits past 2^n < 64 points 0) and ``unique_rows`` deduplicates rows.

The walk also takes a batch of bases as a leading axis, ``(C, 1, words)``,
broadcast against the tile: every step then XORs C running bases and yields C
rows of weights. ``count_within`` counts a batch of centers this way, in
chunks whose ``(chunk, 2^L, words)`` XOR stays within 4 x ``TILE_BYTES``.

A scan's work measure is ``scan_words``: 2^dimension x ``word_count(n)``
uint64 words, twice what the half walk XORs. ``code_scan`` is the one
admission point: it asks ``refusal`` before it builds anything, so every scan
stops there past 2^``caps.DIMENSION_CAP`` codewords or
2^``caps.SCAN_WORD_BITS`` words.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .boolfunc import AnfPolynomial, CodeParams, _low_block_mask, monomial_table
from .caps import SCAN_WORD_BITS
from .errors import ScaleError

# Bound on the tile of low combinations; ``grm``'s F_q walk keeps a bool
# buffer of its tile's shape beside it, so holds up to twice this.
TILE_BYTES = 1 << 16
# Inside a uint64 word x + e_i is 2^i points up, for i < 6; masks of the points with x_i = 0.
_WORD_MASKS = tuple(np.uint64(_low_block_mask(6, i)) for i in range(6))


def word_count(n: int) -> int:
    """uint64 words per truth table on n variables (one word holds 2^n < 64 bits too)."""
    return max(1, (1 << n) // 64)


def tile_bits(words: int) -> int:
    """Largest L whose (2^L, words) uint64 tile fits ``TILE_BYTES`` (at least 0)."""
    return max(0, (TILE_BYTES // (8 * words)).bit_length() - 1)


def to_words(tables: Iterable[int], n: int) -> np.ndarray:
    """``(C, word_count(n))`` uint64: the C truth tables on n variables as word rows."""
    words = word_count(n)
    if words == 1:  # a one-word table is its own int, which ``fromiter`` takes 4x faster
        if isinstance(tables, range):  # and a range of them needs no int at all
            return np.arange(tables.start, tables.stop, tables.step, dtype=np.uint64).reshape(-1, 1)
        return np.fromiter(tables, dtype=np.uint64).reshape(-1, 1)
    raw = b"".join(t.to_bytes(8 * words, "little") for t in tables)
    return np.frombuffer(raw, dtype="<u8").reshape(-1, words).astype(np.uint64)


def point_bits(rows: np.ndarray, n: int) -> np.ndarray:
    """``(C, 2^n)`` uint8: the value at each point of ``(C, words)`` uint64 word rows."""
    raw = rows.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=1 << n, bitorder="little")


def point_bit(rows: np.ndarray, p: int) -> np.ndarray:
    """``(C,)`` uint8: the value at point p of each of ``(C, words)`` uint64 word rows."""
    raw = rows.astype("<u8", copy=False).view(np.uint8)
    return raw[:, p >> 3] >> (p & 7) & 1


def from_point_bits(bits: np.ndarray) -> int:
    """The truth table, as an int, of one row of 0/1 (or bool) values, point by point."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def weights(rows: np.ndarray) -> np.ndarray:
    """``(C,)`` int64: the ones in each of ``(C, words)`` uint64 word rows."""
    return np.bitwise_count(rows).sum(axis=1, dtype=np.int64)


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``(C, words)`` uint64 rows, in byte order, and each row's index among them."""
    # Each row as one opaque item: a 1-D ``unique``, about 3x faster than ``axis=0``.
    items = rows.view(f"V{8 * rows.shape[1]}").ravel()
    distinct, inverse = np.unique(items, return_inverse=True)
    return distinct.view(np.uint64).reshape(-1, rows.shape[1]), inverse


def unit_delta(rows: np.ndarray, i: int, out: np.ndarray) -> None:
    """Into ``out``, f(x) + f(x + e_i) of each row f at the points with x_i = 0, 0 where x_i = 1."""
    if i < 6:
        np.right_shift(rows, np.uint64(1 << i), out=out)
        out ^= rows
        out &= _WORD_MASKS[i]
    else:  # e_i XORs the upper half of each block of 2^(i-5) words into the lower half
        rows, out = rows.reshape(-1, 2, 1 << (i - 6)), out.reshape(-1, 2, 1 << (i - 6))
        np.bitwise_xor(rows[:, 0], rows[:, 1], out=out[:, 0])
        out[:, 1] = 0


def translate(rows: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """Row r of ``(C, words)`` uint64 rows on n variables translated by its own direction a[r]."""
    rows = rows.copy()
    moved = np.empty_like(rows)
    for i in range(min(n, 6)):
        # A masked delta swap, in place: in the rows whose direction has bit i,
        # the blocks of 2^i points with x_i = 0 trade places with those above.
        unit_delta(rows, i, moved)
        moved &= np.where((a >> i) & 1, ~np.uint64(0), np.uint64(0))[:, None]
        rows ^= moved
        moved <<= np.uint64(1 << i)
        rows ^= moved
    if n > 6:  # the higher levels permute whole words
        rows = np.take_along_axis(rows, np.arange(rows.shape[1]) ^ (a >> 6)[:, None], axis=1)
    return rows


@dataclass(frozen=True, eq=False)
class CodeScan:
    """A code's monomial basis, its tables and the tile of their low combinations.

    Bit j of a coefficient vector selects ``masks[j]``, whose table is ``tables[j]``.
    """

    n: int
    masks: tuple[int, ...]  # ``CodeParams.monomial_masks``
    tables: np.ndarray  # (dimension, words); ``tables[0]`` is the all-ones word
    tile: np.ndarray  # (2^L, words): row i XORs the tables ``1 + j`` for the bits j of i

    @property
    def words(self) -> int:
        return self.tables.shape[1]

    def polynomial(self, code: int) -> AnfPolynomial:
        """The polynomial of a scanned coefficient vector."""
        return AnfPolynomial(self.n, frozenset(m for j, m in enumerate(self.masks)
                                               if (code >> j) & 1))


def scan_words(params: CodeParams) -> int:
    """uint64 words a scan of the whole code XORs: 2^dimension x ``word_count(n)``."""
    return word_count(params.n) << params.dimension


def refusal(params: CodeParams) -> str | None:
    """Why no scan of the code is admitted, or None: more than 2^``DIMENSION_CAP``
    codewords, or more than 2^``SCAN_WORD_BITS`` words to XOR."""
    reason = params.dimension_refusal()
    if reason is None and scan_words(params) > 1 << SCAN_WORD_BITS:
        words = scan_words(params).bit_length() - 1  # a power of two
        return f"2^{words} scanned words exceed the scan cap 2^{SCAN_WORD_BITS}"
    return reason


@functools.lru_cache(maxsize=4)
def code_scan(params: CodeParams) -> CodeScan:
    """The kernel's read-only set-up for one code, built once and reused by every scan
    of it; ``ScaleError`` with the ``refusal`` before anything is built."""
    reason = refusal(params)
    if reason is not None:
        raise ScaleError(reason)
    masks = tuple(params.monomial_masks())
    tables = to_words((monomial_table(params.n, m) for m in masks), params.n)
    tile = np.zeros((1, tables.shape[1]), dtype=np.uint64)
    for table in tables[1:1 + tile_bits(tables.shape[1])]:
        tile = np.concatenate([tile, tile ^ table])
    tables.flags.writeable = tile.flags.writeable = False
    return CodeScan(params.n, masks, tables, tile)


def weight_blocks(kernel: CodeScan, base: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Weights of ``base`` XOR half the codewords spanned by ``kernel.tables``: those
    whose constant coefficient, bit 0, is 0.

    Each step yields ``(first, weights)``: ``weights[..., i]`` belongs to the
    coefficient vector ``first | i << 1``, and its partner ``first | i << 1 | 1``
    has weight block_length - ``weights[..., i]``. The high part of ``first``
    runs in Gray-code order. ``base`` is one word row, ``(1, words)`` as
    ``to_words`` returns it, or a batch of C rows, ``(C, 1, words)``, whose
    weights come as C rows: uint8 for a one-word code, intp otherwise.
    """
    tables = kernel.tables[1:]
    low = min(len(tables), len(kernel.tile).bit_length() - 1)
    tile = kernel.tile[:1 << low]
    high = tables[low:]
    one_word = kernel.words == 1
    for t in range(1 << len(high)):
        if t:
            base = base ^ high[(t & -t).bit_length() - 1]
        counts = np.bitwise_count(base ^ tile)
        yield ((t ^ (t >> 1)) << (low + 1),
               counts[..., 0] if one_word else counts.sum(axis=-1, dtype=np.intp))


def within(kernel: CodeScan, base: np.ndarray,
           max_flips: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(coefficient vectors, weights)`` of the scanned words of weight <= max_flips,
    one block of the walk at a time, lazily; blocks without such a word are skipped.
    A block yields its walked words first, then the complements within the radius."""
    size = 1 << kernel.n
    for first, weights in weight_blocks(kernel, base):
        near = np.flatnonzero(weights <= max_flips)
        far = np.flatnonzero(weights >= size - max_flips)  # complements within the radius
        if len(near) or len(far):
            yield (np.concatenate([near << 1 | first, far << 1 | (first | 1)]),
                   np.concatenate([weights[near], size - weights[far]]).astype(np.intp))


def count_within(kernel: CodeScan, centers: np.ndarray, max_flips: int) -> np.ndarray:
    """Number of codewords within max_flips of each row of a ``(C, words)`` batch of
    centers: one walk per chunk of centers, whose XOR of the chunk against the tile
    stays within 4 x ``TILE_BYTES``."""
    far = (1 << kernel.n) - max_flips  # a walked weight >= far puts the complement within
    counts = np.zeros(len(centers), dtype=np.int64)
    step = max(1, 4 * TILE_BYTES // kernel.tile.nbytes)
    for start in range(0, len(centers), step):
        chunk = counts[start:start + step]  # a view: the walk adds into ``counts``
        for _, weights in weight_blocks(kernel, centers[start:start + step, None]):
            # Members per walked word, 0 to 2: two comparisons, several times
            # faster than a lookup table. A row has at most TILE_BYTES / 8
            # weights, so a uint16 sum is exact, and faster than an intp one.
            members = (weights <= max_flips).view(np.uint8)
            members += weights >= far
            chunk += members.sum(axis=-1, dtype=np.uint16)
    return counts
