from __future__ import annotations

import math
import multiprocessing
from fractions import Fraction

import pytest

from rmlist import (
    ApproximatorParams,
    CodeParams,
    InputError,
    InvariantFailure,
    ScaleError,
    accumulative,
    accumulative_weight_bound,
    anf_to_table,
    construct_low_weight_family,
    degree,
    enumerate_weights,
    enumeration,
    growth_probe,
    iter_low_weight_family,
    monomial_table,
    scan,
    weight,
)
from rmlist.caps import DIMENSION_CAP, MAX_VARIABLES
from rmlist.enumeration import binomial_le, coefficient_choices

from oracles import _shard_job, min_positive_weight, scan_enumerator

ALL_CODES = [(n, d) for n in range(1, MAX_VARIABLES + 1) for d in range(1, n + 1)]


def admitted(n: int, d: int) -> bool:
    try:
        enumerate_weights(CodeParams(n, d))
    except ScaleError:
        return False
    return True


ADMITTED = [code for code in ALL_CODES if admitted(*code)]


def gaussian_binomial(n: int, k: int) -> int:
    """[n, k]_2: the number of k-dimensional subspaces of F_2^n."""
    num = math.prod((1 << (n - i)) - 1 for i in range(k))
    return num // math.prod((1 << (i + 1)) - 1 for i in range(k))


def naive_enumerator_counts(params: CodeParams) -> dict[int, int]:
    """Independent oracle: build every codeword table from scratch."""
    masks = params.monomial_masks()
    tables = [monomial_table(params.n, m) for m in masks]
    counts: dict[int, int] = {}
    for sel in range(1 << len(masks)):
        bits = 0
        for j in range(len(masks)):
            if (sel >> j) & 1:
                bits ^= tables[j]
        w = bits.bit_count()
        counts[w] = counts.get(w, 0) + 1
    return counts


class TestEnumerator:
    def test_two_vars_degree_one(self):
        assert enumerate_weights(CodeParams(2, 1)).counts == {0: 1, 2: 6, 4: 1}

    def test_one_var_degree_one(self):
        assert enumerate_weights(CodeParams(1, 1)).counts == {0: 1, 1: 2, 2: 1}

    def test_full_degree_is_binomial(self):
        counts = enumerate_weights(CodeParams(2, 2)).counts
        assert counts == {w: math.comb(4, w) for w in range(5)}

    @pytest.mark.parametrize("n,d", [(4, 2), (3, 3)])
    def test_matches_naive_oracle(self, n, d):
        params = CodeParams(n, d)
        assert enumerate_weights(params).counts == naive_enumerator_counts(params)

    @pytest.mark.parametrize("n,d", [(4, 2), (4, 3), (5, 2)])
    def test_structural_invariants(self, n, d):
        params = CodeParams(n, d)
        enum = enumerate_weights(params)
        assert enum.total() == 1 << params.dimension
        assert enum.multiplicity(0) == 1
        # complement symmetry: 1 is a codeword
        for w, c in enum.counts.items():
            assert enum.multiplicity(params.block_length - w) == c
        assert min_positive_weight(enum) == 1 << (n - d)

    @pytest.mark.parametrize("n,d", [(4, 2), (4, 3)])
    def test_no_codeword_below_min_distance(self, n, d):
        enum = enumerate_weights(CodeParams(n, d))
        alpha = Fraction(1, 1 << d) - Fraction(1, 1000)
        assert accumulative(enum, alpha) == 1

    def test_sharding_invariance(self):
        params = CodeParams(4, 2)
        base = enumerate_weights(params)
        for shards in (2, 4, 8):
            assert enumerate_weights(params, shards=shards).counts == base.counts

    def test_workers_invariance(self):
        params = CodeParams(4, 2)
        base = enumerate_weights(params)
        assert enumerate_weights(params, shards=4, workers=2).counts == base.counts

    def test_rejects_non_power_of_two_shards(self):
        with pytest.raises(InputError):
            enumerate_weights(CodeParams(3, 2), shards=3)

    def test_rejects_too_many_shards(self):
        with pytest.raises(InputError):
            enumerate_weights(CodeParams(2, 1), shards=16)

    def test_dimension_cap(self):
        with pytest.raises(ScaleError):
            enumerate_weights(CodeParams(6, 3))  # dimension 42


class TestClosedForms:
    def test_admits_every_low_order_code_and_the_high_order_codes_under_the_cap(self):
        assert ADMITTED == [(n, d) for n, d in ALL_CODES if d <= 2 or (
            d >= n - 2 and CodeParams(n, d).dimension <= DIMENSION_CAP)]
        # Past d = 2 that is exactly the set the codeword scan admits.
        for n, d in ALL_CODES:
            if d >= 3:
                assert admitted(n, d) == (scan.refusal(CodeParams(n, d)) is None)

    @pytest.mark.parametrize("n,d", [code for code in ADMITTED
                                     if scan.scan_words(CodeParams(*code)) <= 1 << 26])
    def test_formulas_match_the_scan_oracle(self, n, d):
        params = CodeParams(n, d)
        walked = scan_enumerator(params).counts
        assert enumerate_weights(params).counts == walked
        # Four serial shards, each fixing the top two coefficient bits.
        shards = sum(_shard_job((n, d, 2, s)) for s in range(4))
        assert enumerate_weights(params, shards=4).counts == {
            w: c for w, c in enumerate(shards.tolist()) if c} == walked

    @pytest.mark.parametrize("n,d", ADMITTED)
    def test_minimum_weight_words_are_the_flats(self, n, d):
        # A_{2^(n-d)} = 2^d [n, d]_2, the number of (n-d)-flats, and no lighter word.
        enum = enumerate_weights(CodeParams(n, d))
        assert enum.multiplicity(1 << (n - d)) == gaussian_binomial(n, d) << d
        assert min_positive_weight(enum) == 1 << (n - d)

    def test_no_scan_and_no_pool_past_the_scan_caps(self, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("scanned")

        monkeypatch.setattr(scan, "weight_blocks", no_scan)
        monkeypatch.setattr(scan, "monomial_table", no_scan)
        monkeypatch.setattr(multiprocessing, "Pool", no_scan)
        for params, shards, workers in [(CodeParams(30, 1), 1, 1), (CodeParams(20, 1), 4, 2),
                                        (CodeParams(30, 2), 1, 1)]:
            enum = enumerate_weights(params, shards=shards, workers=workers)
            assert enum.total() == 1 << params.dimension
        with pytest.raises(InputError):
            enumerate_weights(CodeParams(30, 1), shards=3)
        rows = growth_probe(2, 1, Fraction(1, 10), [30])
        dimension = CodeParams(30, 2).dimension
        quarter, probe, half = (r.count for r in rows)
        assert quarter == 1 + (gaussian_binomial(30, 2) << 2)  # 0 and the minimum weight
        assert quarter <= probe <= half < 1 << dimension

    def test_an_off_by_one_quadric_count_trips_the_moment_check(self, monkeypatch):
        # A_{N/2} takes the remainder, so the sum still holds; the moment does not.
        count = enumeration._quadric_count
        monkeypatch.setattr(enumeration, "_quadric_count",
                            lambda n, h: count(n, h) + (h == 2))
        with pytest.raises(InvariantFailure, match="moment"):
            enumerate_weights(CodeParams(6, 2))

    @pytest.mark.parametrize("counts,message", [
        ({0: 1, 2: 6, 4: 1, 3: 0}, "positive int"),
        ({0: 1, 2: 6.0, 4: 1}, "positive int"),
        ({0: 1, 2: 5, 4: 1}, "not 2\\^3"),
        ({0: 1, 1: 2, 3: 4, 4: 1}, "moment"),  # 8 codewords, moment 56, not 32
    ])
    def test_invariants_raise(self, counts, message):
        with pytest.raises(InvariantFailure, match=message):
            enumeration._check_counts(CodeParams(2, 1), counts)


class TestAccumulative:
    def test_zero_radius_counts_zero_codeword(self):
        enum = enumerate_weights(CodeParams(3, 2))
        assert accumulative(enum, Fraction(0)) == 1

    def test_two_vars_degree_one_profile(self):
        enum = enumerate_weights(CodeParams(2, 1))
        assert accumulative(enum, Fraction(49, 100)) == 1
        assert accumulative(enum, Fraction(1, 2)) == 7
        assert accumulative(enum, Fraction(1)) == 8

    def test_monotone(self):
        enum = enumerate_weights(CodeParams(4, 2))
        values = [
            accumulative(enum, Fraction(i, 16)) for i in range(17)
        ]
        assert values == sorted(values)
        assert values[-1] == enum.total()

    def test_rejects_out_of_range(self):
        enum = enumerate_weights(CodeParams(2, 1))
        with pytest.raises(InputError):
            accumulative(enum, Fraction(3, 2))


class TestLowWeightFamily:
    def test_small_family_weights(self):
        fam = construct_low_weight_family(3, 2, 2, limit=4)
        assert fam.distinct_count == 4
        for p in fam.members:
            assert weight(anf_to_table(p)) == Fraction(1, 4)
            assert p.degree <= 2

    def test_k_equals_d_min_weight_shape(self):
        fam = construct_low_weight_family(4, 3, 3, limit=8)
        for p in fam.members:
            assert weight(anf_to_table(p)) == Fraction(1, 8)

    def test_family_past_the_mask_cache(self):
        # n = 21 builds its block masks uncached, on every call.
        fam = construct_low_weight_family(21, 2, 1, limit=4)
        assert fam.distinct_count == 4
        assert all(p.degree <= 2 for p in fam.members)

    def test_k_one_balanced(self):
        fam = construct_low_weight_family(5, 2, 1, limit=32)
        for p in fam.members:
            assert weight(anf_to_table(p)) == Fraction(1, 2)

    def test_top_patterns_streamed_first(self):
        # the first 2^C(n-k, d-k+1) members carry no lower-order q terms
        members = []
        for p in iter_low_weight_family(6, 2, 1):
            members.append(p)
            if len(members) == 1 << math.comb(5, 2):
                break
        assert len({p.sort_key() for p in members}) == 1 << math.comb(5, 2)

    def test_distinct_count_meets_guarantee(self):
        fam = construct_low_weight_family(6, 2, 1)
        assert fam.distinct_count >= 1 << math.comb(5, 2)

    def test_members_in_code(self):
        fam = construct_low_weight_family(5, 3, 2, limit=16)
        for p in fam.members:
            assert degree(anf_to_table(p)) <= 3

    def test_rejects_bad_k(self):
        with pytest.raises(InputError):
            construct_low_weight_family(4, 2, 3)

    def test_count_dominated_by_accumulative(self):
        fam = construct_low_weight_family(5, 2, 2, limit=16)
        enum = enumerate_weights(CodeParams(5, 2))
        assert accumulative(enum, Fraction(1, 4)) >= fam.distinct_count


class TestBounds:
    def test_value_reproducible_from_terms(self):
        b = accumulative_weight_bound(5, 2, 1, Fraction(1, 2))
        assert b.value == (
            b.terms["derivative_choices"] * b.terms["coefficient_choices"]
        ) ** b.terms["samples"]
        assert b.terms["derivative_choices"] == 1 << binomial_le(5, 1)

    def test_coefficient_choices(self):
        assert coefficient_choices(Fraction(1, 2)) == 2 * 21 + 1

    @pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(3, 4), Fraction(1, 3),
                                     Fraction(2, 5), Fraction(1, 50), Fraction(7, 9)])
    def test_coefficient_choices_cover_approximator_range(self, eps):
        # Every integer the approximator's rounded coefficients may take.
        bound = ApproximatorParams(k=1, eps=eps, delta=Fraction(1, 4), seed=0).coefficient_bound
        assert coefficient_choices(eps) == 2 * (int(bound) + 1) + 1

    def test_monotone_in_eps(self):
        lo = accumulative_weight_bound(5, 2, 1, Fraction(1, 2))
        hi = accumulative_weight_bound(5, 2, 1, Fraction(3, 4))
        assert hi.value < lo.value

    def test_dominates_enumerated_count(self):
        for n, d, k in [(5, 2, 1), (4, 3, 1), (4, 3, 2)]:
            eps = Fraction(1, 2)
            enum = enumerate_weights(CodeParams(n, d))
            alpha = Fraction(1, 1 << k) * (1 - eps)
            assert accumulative(enum, alpha) <= accumulative_weight_bound(
                n, d, k, eps
            ).value

    def test_near_minimum_companion_only_at_top_k(self):
        assert accumulative_weight_bound(4, 3, 2, Fraction(1, 2)).near_minimum_bound \
            == Fraction(2) ** 10
        assert accumulative_weight_bound(4, 3, 1, Fraction(1, 2)).near_minimum_bound \
            is None

    def test_rejects_bad_params(self):
        with pytest.raises(InputError):
            accumulative_weight_bound(4, 2, 2, Fraction(1, 2))
        with pytest.raises(InputError):
            accumulative_weight_bound(4, 2, 1, Fraction(2))

    def test_value_cap(self):
        # 3.5 million samples of 15 bits each: the terms and log2 are kept,
        # the integer is not built.
        b = accumulative_weight_bound(5, 2, 1, Fraction(1, 20))
        assert b.log2_value() > 1 << 24
        with pytest.raises(ScaleError):
            b.require_value_bits()
        with pytest.raises(ScaleError):
            b.value


class TestGrowthProbe:
    def test_quarter_weight_band_for_degree_two(self):
        rows = growth_probe(2, 2, Fraction(1, 2), range(4, 7))
        by_n_alpha = {(r.n, r.alpha): r for r in rows}
        for n in range(4, 7):
            r = by_n_alpha[(n, Fraction(1, 4))]
            assert r.count >= 1 << (n - 2)
            assert r.family_lower == 1 << (n - 2)

    def test_monotone_between_alphas(self):
        rows = growth_probe(2, 1, Fraction(1, 50), range(4, 6))
        for n in (4, 5):
            per_n = sorted(
                (r for r in rows if r.n == n), key=lambda r: r.alpha
            )
            counts = [r.count for r in per_n]
            assert counts == sorted(counts)

    def test_half_weight_holds_most_of_the_code(self):
        rows = growth_probe(2, 1, Fraction(1, 2), [5])
        full = 1 << CodeParams(5, 2).dimension
        at_half = next(r for r in rows if r.alpha == Fraction(1, 2))
        assert at_half.count > full // 4

    def test_scale_cap(self):
        with pytest.raises(ScaleError):
            growth_probe(3, 1, Fraction(1, 2), [7])

    @pytest.mark.parametrize("k", [0, 3])
    def test_rejects_k_without_any_n(self, k):
        with pytest.raises(InputError):
            growth_probe(2, k, Fraction(1, 2), [])

    def test_upper_log2_pinned(self):
        # Pinned to the float the separate log2 formula gave for RM(5,3) at alpha = 1/6.
        rows = growth_probe(3, 2, Fraction(1, 3), [5])
        at_probe = next(r for r in rows if r.alpha == Fraction(1, 6))
        assert at_probe.upper_log2 == 1195500.2182842207
        assert at_probe.log2_count == math.log2(1241)
        assert [r.upper_log2 for r in rows if r is not at_probe] == [None, None]
