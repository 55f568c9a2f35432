from __future__ import annotations

import functools
import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rmlist import (
    BiasValue,
    CodeParams,
    GrmParams,
    GrmPolynomial,
    GrmTable,
    InputError,
    ScaleError,
    anf_to_table,
    bias,
    bias_scaling_scan,
    construct_grm_family,
    construct_low_weight_family,
    distance,
    enumerate_weights,
    grm,
    grm_bias,
    grm_enumerate_weights,
    grm_weight,
    scan,
    translate,
    weight,
    weight_thresholds,
)

from conftest import random_table
from oracles import boolean_table_of, grm_distance, grm_table_of, min_positive_weight


def point_coordinates(q: int, n: int, index: int) -> tuple[int, ...]:
    coords = []
    for _ in range(n):
        coords.append(index % q)
        index //= q
    return tuple(coords)


def evaluate_per_point(p: GrmPolynomial) -> GrmTable:
    """Oracle: evaluate every term at every point in pure Python."""
    values = []
    for v in range(p.q**p.n):
        x = point_coordinates(p.q, p.n, v)
        total = 0
        for e, c in p.coeffs.items():
            term = c
            for xi, ei in zip(x, e):
                term = term * pow(xi, ei, p.q) if ei else term
            total += term
        values.append(total % p.q)
    return GrmTable(p.q, p.n, tuple(values))


def old_monomial_exponents(q: int, n: int, d: int) -> list[tuple[int, ...]]:
    """Oracle: filter all q^n exponent vectors, then sort by (degree, vector)."""
    out = [e for e in itertools.product(range(q), repeat=n) if sum(e) <= d]
    out.sort(key=lambda e: (sum(e), e))
    return out


def brute_force_enumerator(params: GrmParams) -> dict[int, int]:
    """Oracle: evaluate every codeword per point and count its nonzero values."""
    exps = params.monomial_exponents()
    counts: dict[int, int] = {}
    for coeffs in itertools.product(range(params.q), repeat=len(exps)):
        p = GrmPolynomial(params.q, params.n, dict(zip(exps, coeffs)))
        w = sum(1 for v in evaluate_per_point(p).values if v)
        counts[w] = counts.get(w, 0) + 1
    return counts


@functools.cache
def odometer_enumerator(q: int, n: int, d: int) -> dict[int, int]:
    """Oracle: a base-q odometer over every codeword, one numpy table update per digit change."""
    params = GrmParams(q, n, d)
    dim, size = params.dimension, params.block_length
    mono_tables = [t.astype(np.int64)
                   for t in grm.monomial_tables(q, n, params.monomial_exponents())]
    counts: dict[int, int] = {}
    values = np.zeros(size, dtype=np.int64)
    digits = [0] * dim
    for _ in range(q**dim):
        w = int(np.count_nonzero(values))
        counts[w] = counts.get(w, 0) + 1
        pos = 0
        while pos < dim and digits[pos] == q - 1:
            digits[pos] = 0
            values += mono_tables[pos]
            values %= q
            pos += 1
        if pos == dim:
            break
        digits[pos] += 1
        values += mono_tables[pos]
        values %= q
    return counts


def binary_brute_force(n: int, d: int) -> dict[int, int]:
    """Oracle: every codeword of RM(n,d), n <= 6, listed as one uint64 word of its
    2^n values (the list doubles by XOR with each monomial table), then popcounted."""
    words = np.zeros(1, dtype=np.uint64)
    for row in grm.monomial_tables(2, n, GrmParams(2, n, d).monomial_exponents()):
        table = np.uint64(sum(int(v) << i for i, v in enumerate(row)))
        words = np.concatenate([words, words ^ table])
    counts = np.bincount(np.bitwise_count(words))
    return {w: int(c) for w, c in enumerate(counts) if c}


def count_calls(monkeypatch, module, name: str) -> list:
    """Patch ``module.name`` to append to the returned list on every call."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def x1_over_f3() -> GrmTable:
    return GrmPolynomial.variable(3, 1, 1).evaluate_table()


class TestWeightDistance:
    def test_linear_over_f3(self):
        assert grm_weight(x1_over_f3()) == Fraction(2, 3)

    def test_distance_to_self(self):
        f = x1_over_f3()
        assert grm_distance(f, f) == 0

    def test_distance_counts_disagreements(self):
        f = GrmTable(3, 1, (0, 1, 2))
        g = GrmTable(3, 1, (0, 2, 2))
        assert grm_distance(f, g) == Fraction(1, 3)

    def test_mismatch_rejected(self):
        with pytest.raises(InputError):
            grm_distance(GrmTable(3, 1, (0, 1, 2)), GrmTable(3, 2, (0,) * 9))

    def test_q2_matches_boolean_ops(self, rng: random.Random):
        for _ in range(10):
            f = random_table(3, rng)
            g = random_table(3, rng)
            gf = grm_table_of(f)
            gg = grm_table_of(g)
            assert grm_weight(gf) == weight(f)
            assert grm_distance(gf, gg) == distance(f, g)
            assert boolean_table_of(gf) == f


    def test_counts_match_per_value_loops(self, rng: random.Random):
        for q, n in ((2, 5), (3, 3), (5, 2), (7, 2)):
            for _ in range(5):
                t = GrmTable(q, n, tuple(rng.randrange(q) for _ in range(q**n)))
                assert grm_weight(t) == Fraction(sum(1 for v in t.values if v), t.size)
                counts = [0] * q
                for v in t.values:
                    counts[v] += 1
                assert grm_bias(t).residue_counts == tuple(counts)


class TestBias:
    def test_zero_function(self):
        b = grm_bias(GrmTable(3, 1, (0, 0, 0)))
        assert b.residue_counts == (3, 0, 0)
        assert b.complex_value == pytest.approx(1)

    def test_balanced_linear(self):
        b = grm_bias(x1_over_f3())
        assert b.residue_counts == (1, 1, 1)
        assert abs(b.complex_value) == pytest.approx(0)

    def test_q2_equals_binary_bias(self, rng: random.Random):
        for _ in range(10):
            f = random_table(4, rng)
            b = grm_bias(grm_table_of(f))
            assert b.real_part() == bias(f)

    def test_exact_real_part_q3(self):
        b = BiasValue(q=3, size=9, residue_counts=(5, 3, 1))
        assert b.real_part() == Fraction(2 * 5 - 3 - 1, 18)
        assert float(b.real_part()) == pytest.approx(b.complex_value.real)


class TestThresholds:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_binary_band_edges(self, d):
        rows = {t.k: t.value for t in weight_thresholds(2, d)}
        assert rows[1] == Fraction(1, 2**d)
        for k in range(2, d):
            assert rows[k] == Fraction(1, 2 ** (d + 1 - k))
        assert rows[d] == Fraction(1, 2)

    def test_ternary_degree_two(self):
        rows = [t.value for t in weight_thresholds(3, 2)]
        assert rows == [Fraction(1, 3), Fraction(2, 3)]

    def test_last_threshold_always_field_fraction(self):
        for q in (2, 3, 5, 7):
            for d in range(2, 5):
                assert weight_thresholds(q, d)[-1].value == 1 - Fraction(1, q)

    def test_nondecreasing(self):
        for q in (2, 3, 5):
            for d in range(1, 7):
                vals = [t.value for t in weight_thresholds(q, d)]
                assert vals == sorted(vals)

    @pytest.mark.parametrize("q,bound", [(2, 20), (3, 24), (5, 32), (7, 42)])
    def test_degree_cap_is_the_largest_admitted_degree(self, q, bound):
        n = bound // (q - 1)
        GrmParams(q, n, bound)  # admitted: the largest degree on the most points
        with pytest.raises(InputError, match="points exceed"):
            GrmParams(q, n + 1, 1)
        assert [t.k for t in weight_thresholds(q, bound)] == list(range(1, bound + 1))
        with pytest.raises(ScaleError, match=f"d = {bound + 1} exceeds {bound}"):
            weight_thresholds(q, bound + 1)

    def test_rejects_bad_field(self):
        with pytest.raises(InputError):
            weight_thresholds(4, 2)
        with pytest.raises(InputError):
            weight_thresholds(11, 2)
        for q in (4, 11):
            with pytest.raises(InputError):
                GrmParams(q, 1, 1)


class TestPolynomial:
    def test_frobenius_reduction(self):
        x1 = GrmPolynomial.variable(2, 2, 1)
        assert (x1 * x1).coeffs == x1.coeffs

    def test_cube_reduction_over_f3(self):
        x1 = GrmPolynomial.variable(3, 1, 1)
        cube = x1 * x1 * x1
        assert cube.coeffs == x1.coeffs

    def test_evaluate_product(self):
        p = (GrmPolynomial.variable(3, 2, 1) - GrmPolynomial.constant(3, 2, 1)) * (
            GrmPolynomial.variable(3, 2, 2) - GrmPolynomial.constant(3, 2, 2)
        )
        t = p.evaluate_table()
        for v in range(9):
            x1, x2 = v % 3, v // 3
            assert t.values[v] == ((x1 - 1) * (x2 - 2)) % 3

    def test_degree(self):
        p = GrmPolynomial(3, 2, {(2, 1): 1, (1, 0): 2})
        assert p.degree == 3

    def test_sub_is_add_of_negation(self, rng: random.Random):
        for _ in range(20):
            p, r = (GrmPolynomial(5, 2, {e: rng.randrange(5)
                                         for e in itertools.product(range(5), repeat=2)})
                    for _ in range(2))
            assert (p - r).coeffs == (p + r.scale(4)).coeffs
            assert (p - p).coeffs == {}


class TestEvaluateAgainstPerPointOracle:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_seeded_random_polynomials(self, q, n, rng: random.Random):
        # Every exponent vector with entries up to q-1, alone and in random sums.
        exps = list(itertools.product(range(q), repeat=n))
        polys = [GrmPolynomial(q, n, {e: rng.randrange(1, q)}) for e in exps]
        polys += [GrmPolynomial(q, n, {e: rng.randrange(q) for e in exps}) for _ in range(8)]
        polys.append(GrmPolynomial(q, n))
        for p in polys:
            table = p.evaluate_table()
            assert table == evaluate_per_point(p)
            assert table.values.dtype == np.uint8 and not table.values.flags.writeable

    def test_zero_polynomial(self):
        for q in (2, 3, 5, 7):
            assert GrmPolynomial(q, 2).evaluate_table() == GrmTable(q, 2, (0,) * q**2)

    @pytest.mark.parametrize("tile_bytes", [None, 1])
    @pytest.mark.parametrize("q,n", [(2, 8), (3, 4), (7, 2)])
    def test_dense_sums_reduce_before_the_byte_wraps(self, q, n, tile_bytes, monkeypatch):
        # Every exponent at coefficient q-1: 256, 81 and 49 terms of up to (q-1)^2,
        # far more than one uint8 sum holds between reductions. With
        # ``scan.TILE_BYTES`` at 1 each term is a block of its own, and the
        # table is the sum of those parts.
        if tile_bytes is not None:
            monkeypatch.setattr(scan, "TILE_BYTES", tile_bytes)
        p = GrmPolynomial(q, n, {e: q - 1 for e in itertools.product(range(q), repeat=n)})
        assert p.evaluate_table() == evaluate_per_point(p)


class TestMonomialBasis:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_exponents_match_product_filter_sort(self, q):
        n = 1
        while q**n <= 1 << 12:
            for d in range(1, n * (q - 1) + 1):
                params = GrmParams(q, n, d)
                exps = params.monomial_exponents()
                assert exps == old_monomial_exponents(q, n, d)
                assert params.dimension == len(exps)
            n += 1

    def test_tables_match_per_point_values(self):
        for q, n in [(2, 3), (3, 2), (5, 2), (7, 2)]:
            exps = list(itertools.product(range(q), repeat=n))
            for e, table in zip(exps, grm.monomial_tables(q, n, exps)):
                expected = evaluate_per_point(GrmPolynomial(q, n, {e: 1})).values
                assert table.tolist() == list(expected)


# Every code with q >= 3 whose per-point brute force takes under 0.5 s on a
# 2-core VM; the next ones, (3, 2, 4), (3, 5, 1) and (7, 1, 5), take 0.8 to 4 s.
BRUTE_FORCE_CODES = [(3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 2, 2), (3, 2, 3), (3, 3, 1),
                     (3, 4, 1), (5, 1, 1), (5, 1, 2), (5, 1, 3), (5, 1, 4), (5, 2, 1),
                     (5, 3, 1), (7, 1, 1), (7, 1, 2), (7, 1, 3), (7, 1, 4), (7, 2, 1)]


class TestGrmEnumerateAgainstBruteForce:
    @pytest.mark.parametrize("q,n,d", BRUTE_FORCE_CODES)
    def test_matches_brute_force(self, q, n, d):
        params = GrmParams(q, n, d)
        assert grm_enumerate_weights(params).counts == brute_force_enumerator(params)


class TestTileWalkAgainstOdometer:
    """The tile walk equals the per-codeword odometer at every split of the digits,
    in one step for base 0 and one per scalar class of the high digits."""

    @pytest.mark.parametrize("split", ["all high", "half", "all low"])
    @pytest.mark.parametrize("q,n,d", BRUTE_FORCE_CODES + [(2, 3, 2), (2, 4, 2), (2, 4, 3),
                                                           (2, 5, 1), (2, 6, 1)])
    def test_every_split_matches_odometer(self, q, n, d, split, monkeypatch):
        params = GrmParams(q, n, d)
        dim, width = params.dimension, -(-params.block_length // 8) * 8
        low = {"all high": 0, "half": dim // 2, "all low": dim}[split]
        monkeypatch.setattr(scan, "TILE_BYTES", q**low * width)
        assert grm.tile_digits(q, width, dim) == low
        steps = count_calls(monkeypatch, scan, "weights")
        counts = grm_enumerate_weights(params).counts
        assert counts == odometer_enumerator(q, n, d)
        assert all(type(w) is int and type(c) is int for w, c in counts.items())
        # Many rows have 3 to 7 high digits. A q = 2 code takes the binary closed
        # form (``TestBinaryRoute``), so its rows assert that no split reaches the walk.
        high = dim - low
        assert len(steps) == (0 if q == 2 else 1 + (q**high - 1) // (q - 1))


# Every GRM(2,n,d) with n <= 6 inside the enumeration caps.
ADMITTED_BINARY_CODES = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2),
                         (4, 3), (4, 4), (5, 1), (5, 2), (6, 1), (6, 2)]


class TestBinaryRoute:
    """GRM(2,n,d) is RM(n,d): its enumerator is the binary closed form, and no F_q
    walk step runs."""

    def test_admitted_codes_are_listed(self):
        admitted = []
        for n in range(1, 7):
            for d in range(1, n + 1):
                try:
                    grm_enumerate_weights(GrmParams(2, n, d))
                    admitted.append((n, d))
                except ScaleError:
                    pass
        assert admitted == ADMITTED_BINARY_CODES

    @pytest.mark.parametrize("n,d", ADMITTED_BINARY_CODES)
    def test_matches_odometer_and_brute_force(self, n, d, monkeypatch):
        params = GrmParams(2, n, d)
        steps = count_calls(monkeypatch, scan, "weights")
        enum = grm_enumerate_weights(params)
        assert steps == []
        assert enum.params == params
        assert enum.counts == binary_brute_force(n, d)
        if params.dimension <= 16:  # the odometer takes a numpy step per codeword
            assert enum.counts == odometer_enumerator(2, n, d)


class TestOneRowTile:
    """The walk with no low digit, one padded row per step, on block lengths 9, 25 and 49."""

    @pytest.mark.parametrize("q,n,d", [(3, 2, 1), (3, 2, 2), (5, 2, 1), (7, 2, 1)])
    def test_matches_brute_force(self, q, n, d, monkeypatch):
        params = GrmParams(q, n, d)
        monkeypatch.setattr(scan, "TILE_BYTES", 1)
        assert grm.tile_digits(q, params.block_length, params.dimension) == 0
        assert grm_enumerate_weights(params).counts == brute_force_enumerator(params)


# ``grm construct``'s specs in the benchmark, then the q = 2 middle case.
CONSTRUCT_SPECS = [(3, 3, 2, 1), (3, 3, 2, 2), (3, 4, 3, 2), (5, 2, 3, 3), (5, 3, 2, 1),
                   (7, 2, 3, 3), (2, 4, 3, 2)]


class TestConstructions:
    # With ``scan.TILE_BYTES`` at 1 the monomial blocks hold ``limit`` tables,
    # so members span several blocks.
    @pytest.mark.parametrize("limit,tile_bytes", [(64, None), (1, None), (3, 1), (1, 1)])
    @pytest.mark.parametrize("q,n,d,k", CONSTRUCT_SPECS)
    def test_members_match_per_point_evaluation(self, q, n, d, k, limit, tile_bytes,
                                                monkeypatch):
        if tile_bytes is not None:
            monkeypatch.setattr(scan, "TILE_BYTES", tile_bytes)
        fam = construct_grm_family(q, n, d, k, limit=limit)
        assert 1 <= fam.distinct_count <= limit
        assert len({p.sort_key() for p, _ in fam.members}) == fam.distinct_count
        for p, t in fam.members:
            assert t == evaluate_per_point(p)
            assert t.values.dtype == np.uint8 and not t.values.flags.writeable

    def test_high_degree_evaluation_stays_within_the_members_tables(self, monkeypatch):
        # (2,14,10,1): 16 members of 2,048 terms over 3,072 exponents, whose
        # tables as one matrix would take 48 MiB. Blocks of at most the members'
        # own 16 x 2^14 bytes keep the evaluation under 4 x limit x q^n = 4 MiB.
        q, n, d, k = 2, 14, 10, 1
        evaluate, peaks = grm.evaluate_polynomials, []

        def traced(*args):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tables = evaluate(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return tables

        monkeypatch.setattr(grm, "evaluate_polynomials", traced)
        tracemalloc.start()
        try:
            fam = construct_grm_family(q, n, d, k)
        finally:
            tracemalloc.stop()
        exponents = {e for p, _ in fam.members for e in p.coeffs}
        assert (fam.distinct_count, len(exponents)) == (16, 3072)
        assert len(peaks) == 1 and peaks[0] < 4 * 64 * q**n

    def test_ternary_k1(self):
        fam = construct_grm_family(3, 3, 2, 1)
        assert fam.claimed_weight == Fraction(1, 3)
        for p, t in fam.members:
            assert grm_weight(t) == Fraction(1, 3)
            assert p.degree <= 2

    def test_ternary_k_equals_d(self):
        fam = construct_grm_family(3, 3, 2, 2, limit=20)
        assert fam.claimed_weight == Fraction(2, 3)
        for p, t in fam.members:
            assert grm_weight(t) == Fraction(2, 3)

    def test_middle_case_ternary(self):
        # q=3, d=3, k=2: d-k = 1 = 2a+b forces a=0, b=1, weight (1-1/3)(1-1/3)
        fam = construct_grm_family(3, 4, 3, 2, limit=10)
        assert fam.claimed_weight == Fraction(4, 9)
        for p, t in fam.members:
            assert grm_weight(t) == Fraction(4, 9)
            assert p.degree <= 3

    def test_binary_middle_case_matches_translated_family(self):
        # q=2 middle construction equals the binary family shifted by e1
        fam2 = construct_grm_family(2, 4, 3, 2, limit=64)
        grm_tables = {boolean_table_of(f).bits for _, f in fam2.members}
        boolean = construct_low_weight_family(4, 3, 2, limit=64)
        translated = {translate(anf_to_table(p), 1).bits for p in boolean.members}
        assert grm_tables == translated
        assert len(grm_tables) == 16

    def test_distinct_count_and_limit(self):
        fam = construct_grm_family(3, 3, 2, 2, limit=5)
        assert fam.distinct_count == 5
        assert len(fam.members) == 5

    def test_rejects_bad_k(self):
        with pytest.raises(InputError):
            construct_grm_family(3, 3, 2, 3)


class TestBiasScaling:
    def test_zero_polynomial(self):
        report = bias_scaling_scan(GrmTable(3, 1, (0, 0, 0)))
        assert report.mean_all_equals_one_minus_weight
        assert report.mean_nonzero_equals_scaled
        assert all(b.residue_counts == (3, 0, 0) for b in report.biases)

    def test_balanced_linear_over_f3(self):
        report = bias_scaling_scan(x1_over_f3())
        assert report.weight == Fraction(2, 3)
        assert report.biases[0].residue_counts == (3, 0, 0)
        # scaling a balanced linear function keeps residues uniform
        assert report.biases[1].residue_counts == (1, 1, 1)
        assert report.biases[2].residue_counts == (1, 1, 1)

    def test_witness_for_low_weight(self):
        fam = construct_grm_family(3, 2, 2, 1, limit=1)
        table = fam.members[0][1]
        report = bias_scaling_scan(table, eps=Fraction(1, 6))
        assert report.witness_multiplier in (1, 2)
        assert report.witness_real >= Fraction(1, 6)
        assert report.witness_meets_eps
        assert not report.flagged

    def test_no_witness_needed_for_heavy_words(self):
        report = bias_scaling_scan(x1_over_f3(), eps=Fraction(1, 6))
        assert report.witness_multiplier is None  # weight above 1 - 1/q - eps

    def test_exhaustive_identities_small_code(self):
        params = GrmParams(3, 2, 2)
        exps = params.monomial_exponents()
        import itertools

        count = 0
        for coeffs in itertools.product(range(3), repeat=len(exps)):
            p = GrmPolynomial(3, 2, {e: c for e, c in zip(exps, coeffs) if c})
            report = bias_scaling_scan(p.evaluate_table())
            assert report.mean_all_equals_one_minus_weight
            assert report.mean_nonzero_equals_scaled
            count += 1
        assert count == 729

    def test_every_low_weight_codeword_has_bias_witness(self):
        # decomposition hypothesis: wt(p) <= 1 - 1/q - eps forces some nonzero
        # multiplier with real bias >= eps; exhaustive over the 729 codewords
        params = GrmParams(3, 2, 2)
        exps = params.monomial_exponents()
        import itertools

        eps = Fraction(1, 9)
        low = found = 0
        for coeffs in itertools.product(range(3), repeat=len(exps)):
            p = GrmPolynomial(3, 2, {e: c for e, c in zip(exps, coeffs) if c})
            report = bias_scaling_scan(p.evaluate_table(), eps=eps)
            if report.witness_multiplier is not None:
                low += 1
                if report.witness_meets_eps and not report.flagged:
                    found += 1
        assert low == 241
        assert found == low


class TestGrmEnumerate:
    def test_ternary_two_vars_degree_two(self):
        enum = grm_enumerate_weights(GrmParams(3, 2, 2))
        assert enum.total() == 729
        assert enum.counts == {
            0: 1, 3: 24, 4: 108, 5: 108, 6: 192, 7: 216, 8: 54, 9: 26
        }
        assert min_positive_weight(enum) == 3  # relative 1/3 = r_1

    def test_min_weight_hits_first_threshold(self):
        enum = grm_enumerate_weights(GrmParams(3, 2, 2))
        r1 = weight_thresholds(3, 2)[0].value
        assert Fraction(min_positive_weight(enum), enum.block_length) == r1

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (3, 3)])
    def test_q2_matches_binary_enumerator(self, n, d):
        grm = grm_enumerate_weights(GrmParams(2, n, d))
        binary = enumerate_weights(CodeParams(n, d))
        assert grm.counts == binary.counts

    def test_accumulative_below_min_distance(self):
        from rmlist import accumulative

        enum = grm_enumerate_weights(GrmParams(3, 2, 2))
        assert accumulative(enum, Fraction(1, 3) - Fraction(1, 100)) == 1

    def test_scale_cap(self):
        with pytest.raises(ScaleError):
            grm_enumerate_weights(GrmParams(5, 3, 4))
        # The smallest codes past 2^24 codewords: 2^26 and 3^17.
        for q, n, d in [(2, 5, 3), (3, 3, 3)]:
            with pytest.raises(ScaleError):
                grm_enumerate_weights(GrmParams(q, n, d))

    @pytest.mark.parametrize(
        "q,n,d,cap",
        [
            # Just past 2^32 scanned values: 2^(17+16), 3^(11+10), 5^(8+7), 7^(7+6).
            (2, 16, 1, "values"), (3, 10, 1, "values"), (5, 7, 1, "values"),
            (7, 6, 1, "values"), (3, 12, 1, "values"), (7, 7, 1, "values"),
            # Past 2^24 codewords by far, at the block-length cap.
            (2, 20, 20, "codewords"), (7, 7, 42, "codewords"),
        ],
    )
    def test_caps_raise_before_any_table(self, q, n, d, cap, monkeypatch):
        def no_tables(*args):
            raise AssertionError("monomial tables built past a cap")

        monkeypatch.setattr(grm, "monomial_tables", no_tables)
        start = time.perf_counter()
        message = "scanned values" if cap == "values" else "codewords|q\\^dimension ="
        with pytest.raises(ScaleError, match=message):
            grm_enumerate_weights(GrmParams(q, n, d))
        assert time.perf_counter() - start < 0.5


class TestGrmParams:
    def test_dimension_counts_reduced_monomials(self):
        assert GrmParams(3, 2, 2).dimension == 6
        assert GrmParams(2, 4, 2).dimension == CodeParams(4, 2).dimension

    @pytest.mark.parametrize("q,inside", [(2, 20), (3, 12), (5, 8), (7, 7)])
    def test_block_length_cap(self, q, inside):
        assert GrmParams(q, inside, 1).block_length <= 1 << 20
        for n in (inside + 1, 12, 1000):
            if n > inside:
                with pytest.raises(InputError):
                    GrmParams(q, n, 1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InputError):
            GrmParams(4, 2, 2)
        with pytest.raises(InputError):
            GrmParams(3, 2, 5)
        with pytest.raises(InputError):
            GrmTable(3, 1, (0, 1))
        for bad in ((0, 1, 3), (0, -1, 2)):
            with pytest.raises(InputError):
                GrmTable(3, 1, bad)


class TestGrmTableValues:
    @pytest.mark.parametrize("bad", [
        (0, 1, 3), (0, 256, 2), (0, -1, 2),
        # 257 and -255 are 1 mod 256: a cast before the check would let them in.
        (0, 257, 2), (0, -255, 2), np.array([0, 257, 2]), np.array([0, 3, 2], dtype=np.uint8),
        (0, 1.0, 2), (0, "1", 2), (0, 2**70, 2), (False, True, False)])
    def test_rejects_values_before_the_uint8_cast(self, bad):
        with pytest.raises(InputError):
            GrmTable(3, 1, bad)

    def test_values_are_a_read_only_uint8_copy(self):
        source = np.array([0, 1, 2], dtype=np.int64)
        t = GrmTable(3, 1, source)
        source[0] = 2
        assert t.values.dtype == np.uint8 and not t.values.flags.writeable
        assert t.values.tolist() == [0, 1, 2]
        with pytest.raises(ValueError):
            t.values[0] = 1

    def test_equality_and_hash_are_by_value(self):
        t = GrmTable(3, 2, (0, 1, 2, 2, 1, 0, 0, 0, 1))
        same = GrmTable(3, 2, np.array(t.values.tolist()))
        assert t == same and hash(t) == hash(same)
        assert t != GrmTable(3, 2, (0, 1, 2, 2, 1, 0, 0, 0, 2))
        # Tables over another field or variable count differ, whatever their values.
        assert GrmTable(3, 1, (0, 0, 0)) != GrmTable(5, 1, (0,) * 5)
        assert GrmTable(2, 3, (0,) * 8) != GrmTable(2, 2, (0,) * 4)
