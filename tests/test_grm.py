from __future__ import annotations

import functools
import itertools
import random
import time
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
from oracles import boolean_table_of, grm_distance, grm_table_of


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
            assert all(type(v) is int for v in table.values)

    def test_zero_polynomial(self):
        for q in (2, 3, 5, 7):
            assert GrmPolynomial(q, 2).evaluate_table() == GrmTable(q, 2, (0,) * q**2)


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
    """The tile walk equals the per-codeword odometer at every split of the digits."""

    @pytest.mark.parametrize("split", ["all high", "half", "all low"])
    @pytest.mark.parametrize("q,n,d", BRUTE_FORCE_CODES + [(2, 3, 2), (2, 4, 2), (2, 4, 3),
                                                           (2, 5, 1), (2, 6, 1)])
    def test_every_split_matches_odometer(self, q, n, d, split, monkeypatch):
        params = GrmParams(q, n, d)
        dim, size = params.dimension, params.block_length
        low = {"all high": 0, "half": dim // 2, "all low": dim}[split]
        monkeypatch.setattr(scan, "TILE_BYTES", q**low * size)
        assert grm.tile_digits(q, size, dim) == low
        counts = grm_enumerate_weights(params).counts
        assert counts == odometer_enumerator(q, n, d)
        assert all(type(w) is int and type(c) is int for w, c in counts.items())


class TestConstructions:
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
        assert enum.min_positive_weight() == 3  # relative 1/3 = r_1

    def test_min_weight_hits_first_threshold(self):
        enum = grm_enumerate_weights(GrmParams(3, 2, 2))
        r1 = weight_thresholds(3, 2)[0].value
        assert Fraction(enum.min_positive_weight(), enum.block_length) == r1

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
