from __future__ import annotations

import random
from fractions import Fraction

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
    grm_bias,
    grm_distance,
    grm_enumerate_weights,
    grm_weight,
    translate,
    weight,
    weight_thresholds,
)

from conftest import random_table


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
            gf = GrmTable.from_function_table(f)
            gg = GrmTable.from_function_table(g)
            assert grm_weight(gf) == weight(f)
            assert grm_distance(gf, gg) == distance(f, g)
            assert gf.to_function_table() == f


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
            b = grm_bias(GrmTable.from_function_table(f))
            assert b.as_binary_bias() == bias(f)

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
        grm_tables = {f.to_function_table().bits for _, f in fam2.members}
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


class TestGrmParams:
    def test_dimension_counts_reduced_monomials(self):
        assert GrmParams(3, 2, 2).dimension == 6
        assert GrmParams(2, 4, 2).dimension == CodeParams(4, 2).dimension

    def test_rejects_bad_parameters(self):
        with pytest.raises(InputError):
            GrmParams(4, 2, 2)
        with pytest.raises(InputError):
            GrmParams(3, 2, 5)
        with pytest.raises(InputError):
            GrmTable(3, 1, (0, 1))
        with pytest.raises(InputError):
            GrmTable(3, 1, (0, 1, 3))
