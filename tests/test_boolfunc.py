from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rmlist import (
    AnfPolynomial,
    CodeParams,
    FunctionTable,
    InputError,
    anf_to_table,
    bias,
    complement,
    degree,
    distance,
    evaluate,
    monomial_table,
    table_to_anf,
    translate,
    weight,
    xor_tables,
)

from rmlist.boolfunc import monomial_masks

from conftest import random_table, table_of
from oracles import table_from_values, table_values


def tables(max_n: int = 8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(FunctionTable, st.just(n), st.integers(0, (1 << (1 << n)) - 1))
    )


class TestCodeParams:
    def test_dimension(self):
        assert CodeParams(4, 2).dimension == 11
        assert CodeParams(6, 2).dimension == 22
        assert CodeParams(3, 3).dimension == 8

    def test_min_distance(self):
        assert CodeParams(5, 2).min_distance == Fraction(1, 4)

    @pytest.mark.parametrize("n,d", [(0, 1), (31, 2), (3, 0), (3, 4)])
    def test_rejects_bad_params(self, n, d):
        with pytest.raises(InputError):
            CodeParams(n, d)

    def test_variable_cap_on_every_representation(self):
        for make in (lambda n: CodeParams(n, 1), FunctionTable.zero,
                     lambda n: AnfPolynomial(n, frozenset())):
            assert make(30).n == 30
            with pytest.raises(InputError):
                make(31)

    def test_monomial_masks_sorted_low_degree_first(self):
        masks = CodeParams(3, 2).monomial_masks()
        assert masks == [0, 1, 2, 4, 3, 5, 6]

    def test_monomial_masks_match_full_mask_walk(self):
        # Oracle: walk all 2^n masks, keep degree <= d, sort by (degree, mask).
        for n in range(13):
            for d in range(n + 2):
                walk = sorted((m for m in range(1 << n) if m.bit_count() <= d),
                              key=lambda m: (m.bit_count(), m))
                assert monomial_masks(n, d) == walk
                if 1 <= d <= n:
                    assert CodeParams(n, d).monomial_masks() == walk
                    assert len(walk) == CodeParams(n, d).dimension

    def test_monomial_masks_at_the_variable_cap(self):
        masks = CodeParams(30, 1).monomial_masks()
        assert masks == [0] + [1 << i for i in range(30)]
        assert len(CodeParams(24, 2).monomial_masks()) == CodeParams(24, 2).dimension


class TestEvaluate:
    def test_and_gate(self):
        f = table_of(2, [1, 2])
        assert f.bits == 0b1000
        assert evaluate(f, 3) == 1
        assert evaluate(f, 0) == 0

    def test_zero_function(self):
        f = FunctionTable.zero(3)
        assert all(evaluate(f, x) == 0 for x in range(8))

    def test_out_of_range(self):
        with pytest.raises(InputError):
            evaluate(FunctionTable.zero(2), 4)


class TestAnfTransform:
    def test_single_monomial(self):
        assert anf_to_table(AnfPolynomial.from_variable_lists(2, [[1, 2]])).bits == 0b1000

    def test_empty_polynomial(self):
        assert anf_to_table(AnfPolynomial(2, frozenset())).bits == 0

    def test_one_plus_x1(self):
        # direct evaluation: p(0)=1, p(1)=0
        assert anf_to_table(AnfPolynomial.from_variable_lists(1, [[], [1]])).bits == 0b01

    def test_inverse_of_and(self):
        assert table_to_anf(FunctionTable(2, 0b1000)) == AnfPolynomial(2, frozenset({3}))

    def test_inverse_of_zero(self):
        assert table_to_anf(FunctionTable.zero(2)).monomials == frozenset()

    def test_xor_table(self):
        # brute-force ANF of XOR: x1 + x2
        assert table_to_anf(FunctionTable(2, 0b0110)).monomials == frozenset({1, 2})

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip_exhaustive(self, n):
        for bits in range(1 << (1 << n)):
            f = FunctionTable(n, bits)
            assert anf_to_table(table_to_anf(f)) == f

    @given(tables(max_n=12))
    def test_round_trip_random(self, f):
        assert anf_to_table(table_to_anf(f)) == f

    @given(tables(max_n=6))
    def test_transform_matches_pointwise_subset_sum(self, f):
        p = table_to_anf(f)
        for x in range(f.size):
            expected = 0
            for m in p.monomials:
                expected ^= int(m & x == m)
            assert evaluate(f, x) == expected


class TestStatistics:
    def test_weight_of_monomial_product(self):
        for n in range(2, 6):
            for d in range(1, n + 1):
                f = table_of(n, list(range(1, d + 1)))
                assert weight(f) == Fraction(1, 2**d)

    def test_weight_all_ones(self):
        assert weight(FunctionTable.ones(3)) == 1

    def test_xor_with_free_variable_is_balanced(self):
        # x1 + q(x2..xn) has weight 1/2 for every q; enumerate all q at n=3
        for qbits in range(1 << 4):
            q = FunctionTable(2, qbits)
            lifted = 0
            for v in range(8):
                qv = (qbits >> (v >> 1)) & 1
                lifted |= ((v & 1) ^ qv) << v
            assert weight(FunctionTable(3, lifted)) == Fraction(1, 2)

    def test_distance_examples(self):
        f = table_of(3, [1, 2])
        assert distance(f, f) == 0
        assert distance(f, complement(f)) == 1
        assert distance(table_of(2, [1]), table_of(2, [2])) == Fraction(1, 2)

    def test_distance_rejects_mismatched_n(self):
        with pytest.raises(InputError):
            distance(FunctionTable.zero(2), FunctionTable.zero(3))

    def test_bias_examples(self):
        assert bias(FunctionTable.zero(3)) == 1
        assert bias(table_of(2, [1])) == 0
        assert bias(table_of(2, [1, 2])) == Fraction(1, 2)

    @given(tables())
    def test_bias_is_one_minus_twice_weight(self, f):
        assert bias(f) == 1 - 2 * weight(f)

    @given(tables(max_n=6), tables(max_n=6))
    def test_distance_is_weight_of_xor(self, f, g):
        if f.n != g.n:
            g = FunctionTable(f.n, g.bits & ((1 << f.size) - 1))
        assert distance(f, g) == weight(xor_tables(f, g))

    @given(tables(max_n=6), tables(max_n=6), tables(max_n=6))
    def test_triangle_inequality(self, f, g, h):
        mask = (1 << (1 << min(f.n, g.n, h.n))) - 1
        n = min(f.n, g.n, h.n)
        f, g, h = (FunctionTable(n, t.bits & mask) for t in (f, g, h))
        assert distance(f, h) <= distance(f, g) + distance(g, h)


class TestTranslate:
    def test_zero_direction_is_identity(self):
        f = table_of(3, [1, 3], [2])
        assert translate(f, 0) == f

    def test_and_by_e1(self):
        assert translate(table_of(2, [1, 2]), 1).bits == 0b0100

    @given(tables(), st.integers(0, 255))
    def test_involution(self, f, a):
        a %= f.size
        assert translate(translate(f, a), a) == f

    @given(tables(), st.integers(0, 255))
    def test_preserves_weight(self, f, a):
        a %= f.size
        assert weight(translate(f, a)) == weight(f)

    @given(tables(max_n=5), st.integers(0, 31))
    def test_matches_pointwise_definition(self, f, a):
        a %= f.size
        g = translate(f, a)
        for v in range(f.size):
            assert evaluate(g, v) == evaluate(f, v ^ a)

    def test_is_bijection_on_small_tables(self):
        seen = {translate(FunctionTable(2, bits), 3).bits for bits in range(16)}
        assert seen == set(range(16))


class TestDegree:
    def test_zero_function(self):
        assert degree(FunctionTable.zero(4)) == 0

    def test_xor_of_all_variables(self):
        assert degree(table_of(4, [1], [2], [3], [4])) == 1

    def test_and_of_all_variables(self):
        for n in range(1, 6):
            assert degree(table_of(n, list(range(1, n + 1)))) == n

    def test_membership_threshold(self):
        f = table_of(4, [1, 2], [3, 4], [2])
        assert degree(f) == 2


class TestMonomialTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_anf_transform(self, n):
        for mask in range(1 << n):
            p = AnfPolynomial(n, frozenset({mask}))
            assert monomial_table(n, mask) == anf_to_table(p).bits


def test_from_values_round_trip(rng: random.Random):
    # The tests' value-list helpers agree with the packed table point by point.
    for _ in range(20):
        f = random_table(4, rng)
        assert table_values(f) == [evaluate(f, x) for x in range(f.size)]
        assert table_from_values(table_values(f)) == f
