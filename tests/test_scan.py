"""The scan kernel against the pure-Python Gray-code walk it replaced.

The oracle walks every coefficient vector in Gray-code order, XORs one
monomial table (a Python int) into the running word per step and takes one
popcount per codeword. The kernel walks only the codewords whose constant
coefficient is 0 and reads each weight w as a complement pair, w and
block_length - w; the oracle walks both halves. Codes are chosen around the
kernel's tile: walked tables (dimension - 1) below and above its L low bits,
blocks shorter than one uint64 word (n <= 5) and tables spanning several
words (n >= 7).
"""

from __future__ import annotations

import multiprocessing
import random
from fractions import Fraction
from typing import Iterator

import numpy as np
import pytest

from rmlist import (
    AnfPolynomial,
    CodeParams,
    FunctionTable,
    ScaleError,
    anf_to_table,
    ball,
    ball_size,
    enumerate_weights,
    estimate_list_size,
    evaluate,
    monomial_table,
    scan,
    translate,
    unique_decode_within,
)
from rmlist.derivatives import _level, derivative_chunks
from rmlist.listdecode import _family_centers

from oracles import _shard_job, scan_enumerator

SMALL_CODES = [
    (n, d) for n in range(1, 16) for d in range(1, n + 1)
    if CodeParams(n, d).dimension <= 16
]
# Short blocks (n <= 5), multi-word tables (n = 7..11), and walked tables
# below (RM(7,1), RM(8,1), RM(9,1)) and above (RM(10,1), RM(11,1), RM(5,2))
# the tile's L.
BALL_CODES = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 2), (4, 3), (5, 1), (5, 2),
              (7, 1), (8, 1), (9, 1), (10, 1), (11, 1)]


def gray_walk(params: CodeParams, base: int, free: int | None = None
              ) -> Iterator[tuple[int, int]]:
    """(coefficient vector, weight) of base XOR each codeword over the first ``free`` tables."""
    tables = [monomial_table(params.n, m) for m in params.monomial_masks()][:free]
    word = base
    yield 0, word.bit_count()
    for t in range(1, 1 << len(tables)):
        word ^= tables[(t & -t).bit_length() - 1]
        yield t ^ (t >> 1), word.bit_count()


def oracle_shard(params: CodeParams, shard_bits: int, shard_index: int) -> dict[int, int]:
    tables = [monomial_table(params.n, m) for m in params.monomial_masks()]
    free = len(tables) - shard_bits
    base = 0
    for j in range(shard_bits):
        if (shard_index >> j) & 1:
            base ^= tables[free + j]
    counts: dict[int, int] = {}
    for _, w in gray_walk(params, base, free):
        counts[w] = counts.get(w, 0) + 1
    return counts


def oracle_ball(center: FunctionTable, alpha: Fraction, params: CodeParams):
    masks = params.monomial_masks()
    max_flips = (alpha.numerator * center.size) // alpha.denominator
    members = []
    for code, w in gray_walk(params, center.bits):
        if w <= max_flips:
            sel = frozenset(m for j, m in enumerate(masks) if (code >> j) & 1)
            members.append((AnfPolynomial(params.n, sel), Fraction(w, center.size)))
    members.sort(key=lambda item: (item[1], item[0].sort_key()))
    return tuple(members)


def oracle_decode(g: FunctionTable, params: CodeParams, radius: Fraction):
    masks = params.monomial_masks()
    max_flips = (radius.numerator * g.size) // radius.denominator
    for code, w in gray_walk(params, g.bits):
        if w <= max_flips:
            return AnfPolynomial(params.n, frozenset(m for j, m in enumerate(masks)
                                                     if (code >> j) & 1))
    return None


def noisy_codeword(params: CodeParams, flips: int, rng: random.Random) -> FunctionTable:
    masks = params.monomial_masks()
    word = anf_to_table(AnfPolynomial(params.n, frozenset(
        m for m in masks if rng.getrandbits(1)))).bits
    for v in rng.sample(range(params.block_length), flips):
        word ^= 1 << v
    return FunctionTable(params.n, word)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("rows", [0, 1, 5])
def test_point_bits_of_word_rows_are_the_table_values(n, rows):
    # One-word tables up to n = 6, two and four words at n = 7, 8.
    rng = random.Random(n * 10 + rows)
    tables = [FunctionTable(n, rng.getrandbits(1 << n)) for _ in range(rows)]
    words = scan.to_words((f.bits for f in tables), n)
    assert words.dtype == np.uint64 and words.shape == (rows, scan.word_count(n))
    bits = scan.point_bits(words, n)
    assert bits.dtype == np.uint8 and bits.shape == (rows, 1 << n)
    assert bits.tolist() == [[evaluate(f, v) for v in range(1 << n)] for f in tables]


@pytest.mark.parametrize("n", range(1, 9))
def test_point_bit_reads_one_column_of_point_bits(n):
    rng = random.Random(n)
    tables = [0, (1 << (1 << n)) - 1] + [rng.getrandbits(1 << n) for _ in range(6)]
    words = scan.to_words(tables, n)
    bits = scan.point_bits(words, n)
    for p in range(1 << n):
        column = scan.point_bit(words, p)
        assert column.dtype == np.uint8 and np.array_equal(column, bits[:, p])


@pytest.mark.parametrize("n", [2, 4])
def test_a_range_of_tables_packs_like_its_list(n):
    for tables in (range(1 << (1 << n)), range(3, 1 << (1 << n), 5)):
        assert np.array_equal(scan.to_words(tables, n), scan.to_words(list(tables), n))


@pytest.mark.parametrize("n", range(0, 11))
def test_point_bits_round_trip_to_the_table(n):
    rng = random.Random(n)
    tables = [0, (1 << (1 << n)) - 1] + [rng.getrandbits(1 << n) for _ in range(6)]
    bits = scan.point_bits(scan.to_words(tables, n), n)
    assert [scan.from_point_bits(row) for row in bits] == tables
    assert [scan.from_point_bits(row.astype(bool)) for row in bits] == tables


def some_tables(n: int, rng: random.Random) -> list[int]:
    """The all-zero and all-one tables on n variables and six random ones."""
    return [0, (1 << (1 << n)) - 1] + [rng.getrandbits(1 << n) for _ in range(6)]


def some_directions(n: int, rng: random.Random, count: int) -> np.ndarray:
    """``count`` random directions on n variables, with 0 and 2^n - 1 among them."""
    return np.array([0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(count - 2)])


@pytest.mark.parametrize("n", range(1, 11))
def test_translate_moves_each_row_like_the_bigint_translate(n):
    # Directions 0 and 2^n - 1 land on random tables, the fixed tables get random ones.
    rng = random.Random(n)
    tables = some_tables(n, rng)
    directions = np.roll(some_directions(n, rng, len(tables)), 2)
    moved = scan.translate(scan.to_words(tables, n), directions, n)
    expected = [translate(FunctionTable(n, t), a).bits for t, a in zip(tables, directions.tolist())]
    assert np.array_equal(moved, scan.to_words(expected, n))


@pytest.mark.parametrize("n", range(1, 11))
def test_unit_delta_derives_on_the_points_with_the_variable_zero(n):
    # Variables below 6 move points inside a word, those from 6 on whole words.
    tables = some_tables(n, random.Random(n))
    rows = scan.to_words(tables, n)
    for i in range(n):
        out = np.full_like(rows, ~np.uint64(0))  # every bit is written
        scan.unit_delta(rows, i, out)
        expected = [sum(((t >> x ^ t >> (x | 1 << i)) & 1) << x
                        for x in range(1 << n) if not x >> i & 1) for t in tables]
        assert np.array_equal(out, scan.to_words(expected, n))


@pytest.mark.parametrize("n", range(1, 6))
def test_word_kernels_keep_the_padding_of_a_short_table_zero(n):
    # The bits past 2^n < 64 points must stay 0, or ``scan.weights`` miscounts.
    rng = random.Random(n)
    tables = some_tables(n, rng)
    rows = scan.to_words(tables, n)
    outputs = [scan.translate(rows, some_directions(n, rng, len(tables)), n),
               _level(rows, n, keep=True)[1]]
    for i in range(n):
        outputs.append(np.full_like(rows, ~np.uint64(0)))
        scan.unit_delta(rows, i, outputs[-1])
    directions = np.array([[rng.randrange(1 << n) for _ in range(3)] for _ in range(20)])
    outputs += [t for t, _ in derivative_chunks(FunctionTable(n, tables[-1]), directions)]
    padding = ~np.uint64((1 << (1 << n)) - 1)
    assert not any((out & padding).any() for out in outputs)


@pytest.mark.parametrize("n", range(0, 11))
def test_weights_count_the_ones_of_each_table(n):
    tables = some_tables(n, random.Random(n))
    weights = scan.weights(scan.to_words(tables, n))
    assert weights.dtype == np.int64 and weights.tolist() == [t.bit_count() for t in tables]


@pytest.mark.parametrize("words", [1, 2, 16])
@pytest.mark.parametrize("batch", ["repeats", "one row", "all equal"])
def test_unique_rows_lists_each_row_once_and_maps_back(words, batch):
    rng = np.random.default_rng(words)
    pool = rng.integers(0, 1 << 64, size=(5, words), dtype=np.uint64)
    picks = {"repeats": rng.integers(0, 5, size=40), "one row": [3], "all equal": [2] * 7}
    rows = pool[picks[batch]]
    distinct, inverse = scan.unique_rows(rows)
    assert distinct.dtype == np.uint64 and np.array_equal(distinct[inverse], rows)
    as_tuples = [tuple(row) for row in distinct.tolist()]
    assert len(set(as_tuples)) == len(as_tuples) == len({tuple(row) for row in rows.tolist()})


@pytest.mark.parametrize("n,d", [(1, 1), (3, 2), (5, 2), (7, 1)])
def test_kernel_polynomial_selects_the_kernel_tables(n, d):
    params = CodeParams(n, d)
    kernel = scan.code_scan(params)
    assert list(kernel.masks) == params.monomial_masks()
    rng = random.Random(n * 31 + d)
    for code in [0, (1 << params.dimension) - 1] + [rng.getrandbits(params.dimension)
                                                    for _ in range(20)]:
        word = np.zeros((1, kernel.words), dtype=np.uint64)
        for j in range(params.dimension):
            if (code >> j) & 1:
                word ^= kernel.tables[j]
        table = anf_to_table(kernel.polynomial(code))
        assert np.array_equal(scan.to_words([table.bits], n), word)


def test_codes_straddle_the_tile():
    # The walk spans every table but the constant one: dimension - 1 of them.
    assert scan.tile_bits(scan.word_count(5)) == 13  # one word, 8192-row tile
    for n, relation in [(7, -1), (8, -1), (9, -1), (10, 1), (11, 1)]:
        walked = CodeParams(n, 1).dimension - 1
        low = scan.tile_bits(scan.word_count(n))
        assert (walked > low) - (walked < low) == relation
    assert CodeParams(5, 2).dimension - 1 > scan.tile_bits(1)


@pytest.mark.parametrize("n,d", SMALL_CODES)
def test_histograms_match_gray_walk_for_every_shard(n, d):
    params = CodeParams(n, d)
    total = oracle_shard(params, 0, 0)
    for shard_bits in range(params.dimension + 1):
        if shard_bits <= 4:  # each shard fixes the high coefficient bits
            for index in range(1 << shard_bits):
                got = _shard_job((n, d, shard_bits, index)).tolist()
                assert {w: c for w, c in enumerate(got) if c} == oracle_shard(
                    params, shard_bits, index)
        if shard_bits <= 4 or params.dimension <= 8:
            assert enumerate_weights(params, shards=1 << shard_bits).counts == total


@pytest.mark.parametrize("n,d", BALL_CODES)
def test_balls_match_gray_walk(n, d):
    params = CodeParams(n, d)
    rng = random.Random(n * 31 + d)
    alphas = [Fraction(0), Fraction(1, 8), Fraction(1, 4)]
    if params.dimension <= 12:  # balls holding most of the code
        alphas += [Fraction(1, 2), Fraction(1)]
    for flips in (0, 1, params.block_length // 8, params.block_length // 2):
        center = noisy_codeword(params, flips, rng)
        for alpha in alphas:
            expected = oracle_ball(center, alpha, params)
            assert ball(center, alpha, params).members == expected
            assert ball_size(center.bits, alpha, params) == len(expected)


@pytest.mark.parametrize("n,d", BALL_CODES)
def test_exhaustive_decode_matches_gray_walk(n, d):
    params = CodeParams(n, d)
    rng = random.Random(n * 17 + d)
    # The largest radius below half the minimum distance.
    max_flips = -(-params.block_length // (1 << (d + 1))) - 1
    radius = Fraction(max_flips, params.block_length)
    for flips in (0, max_flips, max_flips + 1, params.block_length // 2):
        g = noisy_codeword(params, flips, rng)
        assert unique_decode_within(g, params, radius, "exhaustive") == oracle_decode(
            g, params, radius)


def test_shards_that_fix_every_coefficient_match_gray_walk():
    # At shards = 2^dimension a shard fixes the constant coefficient too, so it
    # has no complement to fold: it counts its one base word.
    for n, d in [(1, 1), (3, 1), (4, 1), (3, 2), (7, 1)]:
        params = CodeParams(n, d)
        for index in range(1 << params.dimension):
            got = _shard_job((n, d, params.dimension, index)).tolist()
            assert {w: c for w, c in enumerate(got) if c} == oracle_shard(
                params, params.dimension, index)


@pytest.mark.parametrize("n,d", [(1, 1), (3, 1), (4, 2), (5, 1), (5, 2), (7, 1), (9, 1),
                                 (10, 1)])
def test_radii_past_half_the_block_count_both_members_of_a_pair(n, d):
    # At or past block_length / 2 a walked word and its complement can both lie
    # in the ball: ball, ball_size, a batched count_within and the estimates
    # must count each of them once.
    params = CodeParams(n, d)
    rng = random.Random(n * 7 + d)
    centers = [noisy_codeword(params, flips, rng)
               for flips in (0, 1, params.block_length // 4, params.block_length // 2)]
    centers.append(FunctionTable(n, rng.getrandbits(params.block_length)))
    kernel = scan.code_scan(params)
    batch = scan.to_words((c.bits for c in centers), n)
    walks = [[w for _, w in gray_walk(params, c.bits)] for c in centers]
    for alpha in (Fraction(1, 2), Fraction(5, 8), Fraction(1)):
        max_flips = alpha.numerator * params.block_length // alpha.denominator
        expected = [sum(w <= max_flips for w in walk) for walk in walks]
        for center, size in zip(centers, expected):
            if params.dimension <= 12:
                assert ball(center, alpha, params).members == oracle_ball(center, alpha, params)
            assert ball_size(center.bits, alpha, params) == size
        assert scan.count_within(kernel, batch, max_flips).tolist() == expected
        if alpha == 1:
            assert expected == [1 << params.dimension] * len(centers)
        if params.dimension <= 11:
            got = estimate_list_size(alpha, params, "random", count=6, seed=3)
            assert (got.centers_tried, got.best_center, got.best_center_bits,
                    got.best_size) == oracle_estimate(alpha, params, "random", 6, 3)


@pytest.mark.parametrize("n,d", [(2, 1), (4, 1), (4, 2), (5, 2), (7, 1), (10, 1)])
def test_exhaustive_decode_finds_planted_words_of_either_constant(n, d):
    # A planted codeword with constant coefficient 0 is a walked word; with 1
    # it is the complement of one, found through its pair.
    params = CodeParams(n, d)
    rng = random.Random(n * 13 + d)
    max_flips = -(-params.block_length // (1 << (d + 1))) - 1
    radius = Fraction(max_flips, params.block_length)
    masks = params.monomial_masks()
    for constant in (0, 1):
        for flips in sorted({0, max_flips // 2, max_flips}):
            chosen = {m for m in masks[1:] if rng.getrandbits(1)} | ({0} if constant else set())
            planted = AnfPolynomial(n, frozenset(chosen))
            word = anf_to_table(planted).bits
            for v in rng.sample(range(params.block_length), flips):
                word ^= 1 << v
            g = FunctionTable(n, word)
            assert unique_decode_within(g, params, radius, "exhaustive") == planted
            assert oracle_decode(g, params, radius) == planted


def oracle_estimate(alpha: Fraction, params: CodeParams, strategy: str, count: int,
                    seed: int) -> tuple:
    size = params.block_length
    centers = [("zero", 0)]
    if strategy == "random":
        rng = random.Random(seed)
        centers += [(f"random[{i}]", rng.getrandbits(size)) for i in range(count)]
    elif strategy == "family":
        centers += _family_centers(params, count)
    elif strategy == "exhaustive":
        centers += [(f"exhaustive[{bits}]", bits) for bits in range(1, 1 << size)]
    max_flips = (alpha.numerator * size) // alpha.denominator
    best = ("zero", 0, -1)
    for name, bits in centers:
        s = sum(1 for _, w in gray_walk(params, bits) if w <= max_flips)
        if s > best[2]:
            best = (name, bits, s)
    return (len(centers), *best)


@pytest.mark.parametrize("n,d,strategy,count", [
    (3, 1, "exhaustive", 0),  # ties everywhere: the first maximum must win
    (3, 2, "exhaustive", 0),
    (3, 2, "random", 200),
    (4, 2, "random", 40),
    (5, 2, "random", 3),  # dimension above L
    (4, 1, "family", 6),
    (8, 1, "family", 4),  # multi-word centers
    (4, 3, "zero", 0),
    (3, 1, "random", 8195),  # 8,196 centers: one past a chunk of 2^16 bytes of one-word centers
    (7, 1, "random", 6),  # two-word centers
    (8, 1, "random", 4),  # four-word centers
    (4, 2, "random", 0),
    (4, 1, "family", 0),
    (2, 2, "random", 30),  # the whole space is the code: every ball ties
    (2, 2, "exhaustive", 0),
])
def test_estimates_match_center_by_center_scan(n, d, strategy, count):
    params = CodeParams(n, d)
    for alpha in (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)):
        got = estimate_list_size(alpha, params, strategy, count=count, seed=5)
        assert (got.centers_tried, got.best_center, got.best_center_bits,
                got.best_size) == oracle_estimate(alpha, params, strategy, count, 5)


def test_estimates_match_across_many_chunks(monkeypatch):
    # With 64-byte chunks of eight one-word centers, the best center at 1/4
    # (random[42]) lies six chunks in, and the counts run one center per walk.
    params = CodeParams(4, 1)
    scan.code_scan(params)  # built before the patch: the kernel keeps its tile
    monkeypatch.setattr(scan, "TILE_BYTES", 64)
    for alpha in (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)):
        got = estimate_list_size(alpha, params, "random", count=60, seed=8)
        assert (got.centers_tried, got.best_center, got.best_center_bits,
                got.best_size) == oracle_estimate(alpha, params, "random", 60, 8)


def test_pool_starts_only_above_threshold(monkeypatch):
    started = []
    start_pool = multiprocessing.Pool

    def spy(*args, **kwargs):
        started.append(kwargs["processes"])
        return start_pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", spy)
    # 2^22 one-word codewords, and 2^16 codewords of 512 words each (2^25
    # words, at the threshold): scanned in-process.
    assert scan_enumerator(CodeParams(6, 2), shards=4, workers=2).total() == 1 << 22
    assert scan_enumerator(CodeParams(15, 1), shards=4, workers=2).total() == 1 << 16
    assert started == []
    # 2^26 one-word codewords, and 2^17 codewords of 1024 words each: pooled.
    for n, d in [(5, 3), (16, 1)]:
        params = CodeParams(n, d)
        pooled = scan_enumerator(params, shards=4, workers=2)
        assert pooled.counts == scan_enumerator(params, shards=4).counts
        assert pooled.total() == 1 << params.dimension
    assert started == [2, 2]


def test_weight_blocks_cover_every_coefficient_vector_once():
    # The walk yields one vector v of each pair (v, v | 1), and the pairs cover
    # every coefficient vector once. RM(10,1): a tile of 2^9 rows and one high
    # bit; RM(5,2): a one-word tile and two high bits; RM(3,1): three walked
    # tables, all in a sliced tile.
    for n, d in [(10, 1), (5, 2), (3, 1)]:
        params = CodeParams(n, d)
        kernel = scan.code_scan(params)
        walked = {}
        for first, weights in scan.weight_blocks(kernel, scan.to_words([0], n)):
            for i, w in enumerate(weights.tolist()):
                walked[first | i << 1] = w
        assert len(walked) == 1 << (params.dimension - 1)
        seen = sorted(v for code in walked for v in (code, code | 1))
        assert seen == list(range(1 << params.dimension))
        # A pair is a word and its complement, of weights w and block_length - w.
        weights = dict(gray_walk(params, 0))
        for code, w in walked.items():
            assert (weights[code], weights[code | 1]) == (w, params.block_length - w)


def test_one_walk_in_process_whatever_the_shard_count(monkeypatch):
    walks = []
    walk = scan.weight_blocks

    def spy(kernel, base):
        walks.append(len(kernel.tables))  # the number of tables a walk spans
        return walk(kernel, base)

    monkeypatch.setattr(scan, "weight_blocks", spy)
    params = CodeParams(4, 2)  # 2^11 words: no pool
    assert scan_enumerator(params, shards=32, workers=2).counts == oracle_shard(params, 0, 0)
    assert walks == [params.dimension]


def test_every_scan_walks_half_the_code(monkeypatch):
    # Each scan walks the 2^(dimension - 1) codewords whose constant
    # coefficient is 0 and reads their complements from the same weights.
    rows = []
    walk = scan.weight_blocks

    def spy(kernel, base):
        rows.append(0)
        for first, weights in walk(kernel, base):
            rows[-1] += weights.shape[-1]
            yield first, weights

    monkeypatch.setattr(scan, "weight_blocks", spy)
    for n, d in [(3, 1), (5, 2), (10, 1)]:
        params = CodeParams(n, d)
        half = 1 << (params.dimension - 1)
        rng = random.Random(n + d)
        center = FunctionTable(n, rng.getrandbits(params.block_length))
        radius = Fraction(-(-params.block_length // (1 << (d + 1))) - 1, params.block_length)
        while oracle_decode(center, params, radius) is not None:  # decoding walks it all
            center = FunctionTable(n, rng.getrandbits(params.block_length))
        for run in [lambda: scan_enumerator(params),
                    lambda: ball(center, Fraction(1, 4), params),
                    lambda: ball_size(center.bits, Fraction(1, 4), params),
                    lambda: unique_decode_within(center, params, radius, "exhaustive")]:
            rows.clear()
            run()
            assert rows == [half]


def test_every_scan_stops_just_past_the_dimension_cap(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned past a scan cap")

    monkeypatch.setattr(scan, "weight_blocks", no_scan)
    monkeypatch.setattr(scan, "monomial_table", no_scan)
    monkeypatch.setattr(multiprocessing, "Pool", no_scan)
    # RM(30,1) has 2^31 codewords; RM(20,1) has 2^21 of 2^14 words each, 2^35 words.
    for n, cap in [(30, "dimension 31"), (20, "2\\^35 scanned words")]:
        params = CodeParams(n, 1)
        center = FunctionTable.zero(n)
        for run in [lambda: ball(center, Fraction(1, 4), params),
                    lambda: ball_size(0, Fraction(1, 4), params),
                    lambda: estimate_list_size(Fraction(1, 4), params, strategy="family"),
                    lambda: unique_decode_within(center, params, Fraction(1, 8), "exhaustive")]:
            with pytest.raises(ScaleError, match=cap):
                run()
