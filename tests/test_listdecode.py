from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from rmlist import (
    AnfPolynomial,
    CodeParams,
    FunctionTable,
    InputError,
    InvariantFailure,
    ScaleError,
    accumulative,
    accumulative_weight_bound,
    anf_to_table,
    ball,
    ball_size,
    enumerate_weights,
    estimate_list_size,
    list_size_bound,
    monomial_table,
)

from rmlist import listdecode

from conftest import random_table, table_of
from oracles import xor_tables


def naive_ball_members(center: FunctionTable, alpha: Fraction, params: CodeParams):
    """Independent oracle: check every codeword by direct distance evaluation."""
    masks = params.monomial_masks()
    tables = [monomial_table(params.n, m) for m in masks]
    members = set()
    for sel in range(1 << len(masks)):
        bits = 0
        chosen = []
        for j in range(len(masks)):
            if (sel >> j) & 1:
                bits ^= tables[j]
                chosen.append(masks[j])
        if Fraction((bits ^ center.bits).bit_count(), center.size) <= alpha:
            members.add(frozenset(chosen))
    return members


class TestBall:
    def test_matches_naive_oracle(self, rng: random.Random):
        params = CodeParams(4, 2)
        for _ in range(3):
            center = random_table(4, rng)
            alpha = Fraction(rng.randrange(1, 9), 16)
            got = {p.monomials for p, _ in ball(center, alpha, params).members}
            assert got == naive_ball_members(center, alpha, params)

    def test_zero_center_at_min_distance(self):
        params = CodeParams(4, 2)
        enum = enumerate_weights(params)
        b = ball(FunctionTable.zero(4), Fraction(1, 4), params)
        assert b.size == 1 + enum.multiplicity(4) == 141

    def test_zero_radius_on_codeword(self):
        params = CodeParams(3, 2)
        p = AnfPolynomial.from_variable_lists(3, [[1, 2], [3]])
        b = ball(anf_to_table(p), Fraction(0), params)
        assert [m for m, _ in b.members] == [p]

    def test_zero_radius_on_non_codeword(self):
        params = CodeParams(3, 1)
        b = ball(table_of(3, [1, 2]), Fraction(0), params)
        assert b.size == 0

    def test_full_radius_is_whole_code(self):
        params = CodeParams(3, 2)
        b = ball(FunctionTable.zero(3), Fraction(1), params)
        assert b.size == 1 << params.dimension

    def test_monotone_in_radius(self, rng: random.Random):
        params = CodeParams(4, 2)
        for _ in range(5):
            center = random_table(4, rng)
            small = {p.monomials for p, _ in ball(center, Fraction(1, 8), params).members}
            large = {p.monomials for p, _ in ball(center, Fraction(3, 8), params).members}
            assert small <= large

    def test_linearity_symmetry(self, rng: random.Random):
        params = CodeParams(4, 2)
        codeword = anf_to_table(AnfPolynomial.from_variable_lists(4, [[1, 3], [2]]))
        for _ in range(5):
            center = random_table(4, rng)
            shifted = xor_tables(center, codeword)
            assert ball_size(center.bits, Fraction(1, 4), params) == ball_size(
                shifted.bits, Fraction(1, 4), params
            )

    def test_rejects_mismatch_and_range(self):
        with pytest.raises(InputError):
            ball(FunctionTable.zero(3), Fraction(1, 2), CodeParams(4, 2))
        with pytest.raises(InputError):
            ball(FunctionTable.zero(4), Fraction(3, 2), CodeParams(4, 2))

    def test_dimension_cap(self):
        with pytest.raises(ScaleError):
            ball(FunctionTable.zero(6), Fraction(1, 2), CodeParams(6, 3))


class TestBallSizeInputs:
    def test_rejects_center_past_the_block(self):
        # Bit 16 of an RM(4,2) center would land in the unused part of a word.
        with pytest.raises(InputError):
            ball_size(1 << 16, Fraction(1, 4), CodeParams(4, 2))
        with pytest.raises(InputError):
            ball_size(-1, Fraction(1, 4), CodeParams(4, 2))
        assert ball_size((1 << 16) - 1, Fraction(1, 4), CodeParams(4, 2)) == 141

    @pytest.mark.parametrize("alpha", [Fraction(3, 2), Fraction(-1, 16), 1.5])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(InputError):
            ball_size(0, alpha, CodeParams(4, 2))

    def test_float_alpha_is_its_exact_value(self):
        params = CodeParams(4, 2)
        assert ball_size(0, 0.25, params) == ball_size(0, Fraction(1, 4), params) == 141
        assert ball(FunctionTable.zero(4), 0.25, params).size == 141


class TestListDecode:
    def test_unique_regime_lists_single_codeword(self):
        params = CodeParams(4, 2)
        p = AnfPolynomial.from_variable_lists(4, [[1, 2], [4]])
        received = FunctionTable(4, anf_to_table(p).bits ^ 0b1)
        result = ball(received, Fraction(1, 8), params)
        assert [m for m, _ in result.members] == [p]
        assert result.members[0][1] == Fraction(1, 16)

    def test_sorted_by_distance_then_anf(self, rng: random.Random):
        params = CodeParams(4, 2)
        result = ball(random_table(4, rng), Fraction(3, 8), params)
        keys = [(d, p.sort_key()) for p, d in result.members]
        assert keys == sorted(keys)

    def test_small_radius_may_be_empty(self):
        params = CodeParams(4, 2)
        # word at >= 2 flips from every codeword (found by exhaustive search)
        received = FunctionTable(4, 0x2265)
        assert ball(received, Fraction(1, 10), params).size == 0


class TestEstimate:
    def test_zero_strategy_equals_accumulative(self):
        params = CodeParams(4, 2)
        enum = enumerate_weights(params)
        for alpha in (Fraction(1, 4), Fraction(3, 8), Fraction(1, 2)):
            est = estimate_list_size(alpha, params, strategy="zero")
            assert est.best_size == accumulative(enum, alpha)

    def test_exhaustive_tiny_code(self):
        est = estimate_list_size(Fraction(1, 2), CodeParams(1, 1),
                                 strategy="exhaustive")
        assert est.exhaustive
        assert est.centers_tried == 4
        assert est.best_size == 3  # independent oracle value; complement is at 1

    def test_exhaustive_matches_direct_maximum(self):
        params = CodeParams(2, 1)
        est = estimate_list_size(Fraction(1, 4), params, strategy="exhaustive")
        masks = params.monomial_masks()
        tables = [monomial_table(2, m) for m in masks]
        best = 0
        for bits in range(16):
            cnt = 0
            for sel in range(8):
                cw = 0
                for j in range(3):
                    if (sel >> j) & 1:
                        cw ^= tables[j]
                if (cw ^ bits).bit_count() <= 1:
                    cnt += 1
            best = max(best, cnt)
        assert est.best_size == best

    def test_full_radius_returns_whole_code(self):
        params = CodeParams(3, 2)
        est = estimate_list_size(Fraction(1), params, strategy="zero")
        assert est.best_size == 1 << params.dimension

    def test_strategies_at_least_accumulative(self):
        params = CodeParams(4, 2)
        enum = enumerate_weights(params)
        alpha = Fraction(1, 4)
        base = accumulative(enum, alpha)
        for strategy in ("random", "family"):
            est = estimate_list_size(alpha, params, strategy=strategy, count=8, seed=2)
            assert est.best_size >= base

    def test_exhaustive_cap(self):
        with pytest.raises(ScaleError):
            estimate_list_size(Fraction(1, 4), CodeParams(5, 2),
                               strategy="exhaustive")

    def test_unknown_strategy(self):
        with pytest.raises(InputError):
            estimate_list_size(Fraction(1, 4), CodeParams(4, 2), strategy="best")

    @pytest.mark.parametrize("strategy", ["zero", "random", "family", "exhaustive"])
    def test_rejects_negative_count(self, monkeypatch, strategy):
        # A negative count once sliced family centers from the end and made
        # random try only the zero center.
        def no_ball(*args):
            raise AssertionError("tried a center before the count check")

        monkeypatch.setattr(listdecode, "ball_size", no_ball)
        monkeypatch.setattr(listdecode, "construct_low_weight_family", no_ball)
        with pytest.raises(InputError, match="count"):
            estimate_list_size(Fraction(1, 4), CodeParams(4, 2), strategy=strategy, count=-1)


def all_center_ball_sizes(params: CodeParams, radii) -> np.ndarray:
    """Oracle of the exhaustive strategy: ``sizes[i, f]`` is the ball size
    around every function f at ``radii[i]`` flips, from a table of the
    distance between each center and each codeword (n <= 4)."""
    codewords = np.zeros(1, dtype=np.uint16)
    for m in params.monomial_masks():
        codewords = np.concatenate([codewords, codewords ^ np.uint16(monomial_table(params.n, m))])
    centers = np.arange(1 << params.block_length, dtype=np.uint16)
    sizes = np.zeros((len(radii), len(centers)), dtype=np.int64)
    chunk = max(1, (1 << 22) // len(codewords))
    for start in range(0, len(centers), chunk):
        dist = np.bitwise_count(centers[start:start + chunk, None] ^ codewords)
        for i, r in enumerate(radii):
            sizes[i, start:start + chunk] = np.count_nonzero(dist <= r, axis=1)
    return sizes


class TestExhaustiveCosets:
    """The exhaustive strategy runs one ball per coset of RM(n, d) and must
    report what the center-by-center maximum over all 2^(2^n) functions does."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_every_center_at_n4(self, d):
        params = CodeParams(4, d)
        radii = (4, 5, 6)
        for r, sizes in zip(radii, all_center_ball_sizes(params, radii)):
            bits = int(np.argmax(sizes))  # the first maximum, as the old loop kept
            est = estimate_list_size(Fraction(r, 16), params, strategy="exhaustive")
            assert (est.centers_tried, est.best_center, est.best_center_bits,
                    est.best_size) == (1 << 16, f"exhaustive[{bits}]" if bits else "zero",
                                       bits, int(sizes[bits]))

    @pytest.mark.parametrize("d,r", [(3, 3), (3, 4), (3, 5), (4, 4), (4, 5)])
    def test_no_smaller_center_reaches_the_maximum(self, d, r):
        params = CodeParams(4, d)
        alpha = Fraction(r, 16)
        est = estimate_list_size(alpha, params, strategy="exhaustive")
        assert est.centers_tried == 1 << 16
        assert est.best_size == ball_size(est.best_center_bits, alpha, params)
        assert all(ball_size(bits, alpha, params) < est.best_size
                   for bits in range(est.best_center_bits))

    @pytest.mark.parametrize("n,d", [(n, d) for n in (1, 2, 3) for d in range(1, n + 1)]
                             + [(4, 2), (4, 3)])
    def test_coset_minima_are_the_smallest_coset_members(self, n, d):
        params = CodeParams(n, d)
        minima = listdecode._coset_minima(params)
        assert len(minima) == 1 << (params.block_length - params.dimension)
        assert minima == sorted(set(minima))
        codewords = [0]
        for m in params.monomial_masks():
            codewords += [c ^ monomial_table(n, m) for c in codewords]
        if n <= 3:
            assert {min(f ^ c for c in codewords) for f in range(1 << params.block_length)} \
                == set(minima)
        else:  # each minimum is below the rest of its coset
            assert all(f < f ^ c for f in minima for c in codewords[1:])

    def test_rank_deficient_tables_raise(self, monkeypatch):
        monkeypatch.setattr(listdecode, "monomial_table", lambda n, mask: 1)
        with pytest.raises(InvariantFailure):
            listdecode._coset_minima(CodeParams(3, 1))


class TestJohnsonBound:
    @pytest.mark.parametrize("d,r,size", [(1, 4, 4), (1, 6, 16), (2, 2, 8)])
    def test_exhaustive_meets_it_with_equality(self, d, r, size):
        params = CodeParams(4, d)
        est = estimate_list_size(Fraction(r, 16), params, strategy="exhaustive")
        assert est.best_size == size
        listdecode._check_johnson_bound(size, r, params)
        with pytest.raises(InvariantFailure):
            listdecode._check_johnson_bound(size + 1, r, params)

    def test_applies_only_below_half_the_block(self):
        # At 15 flips of 16, 2 rho (1 - rho) = 15/128 is below delta = 1/4, but
        # rho > 1/2: the ball around 0 holds every codeword except the all-ones word.
        est = estimate_list_size(Fraction(15, 16), CodeParams(4, 2), strategy="zero")
        assert est.best_size == (1 << 11) - 1

    def test_every_strategy_is_checked(self, monkeypatch):
        monkeypatch.setattr(listdecode, "ball_size", lambda bits, alpha, params: 5)
        for strategy in ("zero", "random", "family", "exhaustive"):
            with pytest.raises(InvariantFailure):
                estimate_list_size(Fraction(1, 4), CodeParams(4, 1), strategy, count=2)


class TestListBound:
    def test_value_reproducible_from_terms(self):
        b = list_size_bound(4, 2, 1, Fraction(1, 2))
        assert b.value == (
            b.terms["derivative_choices"]
            * b.terms["direction_choices"]
            * b.terms["coefficient_choices"]
        ) ** b.terms["samples"]
        assert b.terms["direction_choices"] == 1 << 4

    def test_dominates_accumulative_bound(self):
        a = accumulative_weight_bound(5, 2, 1, Fraction(1, 2))
        l = list_size_bound(5, 2, 1, Fraction(1, 2))
        assert l.value >= a.value

    def test_dominates_estimates(self):
        for n in (4, 5):
            params = CodeParams(n, 2)
            est = estimate_list_size(Fraction(1, 4), params, strategy="family",
                                     count=6, seed=1)
            assert est.best_size <= list_size_bound(n, 2, 1, Fraction(1, 2)).value

    def test_rejects_bad_params(self):
        with pytest.raises(InputError):
            list_size_bound(4, 2, 2, Fraction(1, 2))
