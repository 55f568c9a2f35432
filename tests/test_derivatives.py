from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rmlist import (
    DegenerateBiasError,
    FunctionTable,
    InvariantFailure,
    ScaleError,
    WeightTooLargeError,
    ZeroBiasError,
    bias,
    check_bias_bounds,
    degree,
    derive,
    single_derivative_identity,
    verify_derivative_representation,
    verify_single_derivative_exhaustive,
    weight,
)

from rmlist import derivatives, scan
from rmlist.derivatives import (
    BiasBoundCheck,
    BiasBoundReport,
    IdentityReport,
    SweepReport,
    derivative_chunks,
    draw_directions,
    point_counts,
)
from rmlist.errors import InputError, RmlistError
from rmlist.scan import from_point_bits, point_bits, to_words, word_count

from conftest import random_table, random_table_below_weight, table_of
from oracles import (
    derive_iterated,
    evaluate,
    exhaustive_bias_bounds,
    miscounted,
    representation_coefficient,
    table_from_values,
)


def iterated_by_subset_sums(f: FunctionTable, directions) -> FunctionTable:
    """Independent oracle: sum over S subset of [k] of f(x + sum_{i in S} a_i)."""
    k = len(directions)
    values = []
    for x in range(f.size):
        acc = 0
        for subset in range(1 << k):
            shift = 0
            for i in range(k):
                if (subset >> i) & 1:
                    shift ^= directions[i]
            acc ^= evaluate(f, x ^ shift)
        values.append(acc)
    return table_from_values(values)


class TestDerive:
    def test_product_by_e1_drops_variable(self):
        assert derive(table_of(2, [1, 2]), 1) == table_of(2, [2])

    def test_zero_direction_gives_zero(self):
        f = table_of(3, [1, 2], [3])
        assert derive(f, 0) == FunctionTable.zero(3)

    def test_single_variable(self):
        assert derive(table_of(1, [1]), 1) == FunctionTable.ones(1)

    def test_matches_pointwise_definition(self, rng: random.Random):
        for _ in range(30):
            f = FunctionTable(4, rng.getrandbits(16))
            a = rng.randrange(16)
            g = derive(f, a)
            for x in range(16):
                assert evaluate(g, x) == evaluate(f, x ^ a) ^ evaluate(f, x)


class TestDeriveIterated:
    def test_triple_product_two_steps(self):
        assert derive_iterated(table_of(3, [1, 2, 3]), (1, 2)) == table_of(3, [3])

    def test_repeated_direction_vanishes(self, rng: random.Random):
        for _ in range(10):
            f = FunctionTable(3, rng.getrandbits(8))
            a = rng.randrange(1, 8)
            assert derive_iterated(f, (a, a)) == FunctionTable.zero(3)

    def test_order_one_reduces_to_derive(self, rng: random.Random):
        f = FunctionTable(4, rng.getrandbits(16))
        for a in range(16):
            assert derive_iterated(f, (a,)) == derive(f, a)

    @given(
        st.integers(0, (1 << 16) - 1),
        st.lists(st.integers(0, 15), min_size=1, max_size=3),
    )
    def test_agrees_with_subset_sum_formula(self, bits, directions):
        f = FunctionTable(4, bits)
        assert derive_iterated(f, directions) == iterated_by_subset_sums(f, directions)

    @given(
        st.integers(0, (1 << 16) - 1),
        st.permutations([3, 7, 12]),
    )
    def test_direction_permutation_invariance(self, bits, perm):
        f = FunctionTable(4, bits)
        assert derive_iterated(f, tuple(perm)) == derive_iterated(f, (3, 7, 12))

    def test_degree_drop_exhaustive_n3(self):
        for bits in range(256):
            f = FunctionTable(3, bits)
            d = degree(f)
            for a in range(8):
                assert degree(derive(f, a)) <= max(d - 1, 0)

    def test_degree_drop_sampled_n4(self, rng: random.Random):
        for _ in range(200):
            f = FunctionTable(4, rng.getrandbits(16))
            d = degree(f)
            a = rng.randrange(16)
            assert degree(derive(f, a)) <= max(d - 1, 0)


class TestRepresentationCoefficient:
    def test_order_one_inverse_bias(self):
        c = representation_coefficient(table_of(2, [1, 2]), (1,), Fraction(1, 4))
        assert c.value == 2
        assert c.prefix_biases == (Fraction(1, 2),)

    def test_zero_function_all_prefixes_one(self):
        c = representation_coefficient(FunctionTable.zero(3), (5, 2), Fraction(1, 2))
        assert c.value == 1
        assert c.prefix_biases == (Fraction(1), Fraction(1))

    def test_triple_product_order_two(self):
        f = table_of(3, [1, 2, 3])
        c = representation_coefficient(f, (1, 2), Fraction(1, 4))
        assert c.value == Fraction(8, 3)
        assert c.prefix_biases == (Fraction(3, 4), Fraction(1, 2))

    def test_rejects_overweight(self):
        with pytest.raises(WeightTooLargeError):
            representation_coefficient(FunctionTable.ones(3), (1,), Fraction(1, 2))

    def test_bound_on_random_low_weight_inputs(self, rng: random.Random):
        eps = Fraction(3, 10)
        for k in (1, 2):
            cap = (1 << 6) * (1 - eps) / 2**k
            for _ in range(25):
                f = random_table_below_weight(6, int(cap) + 1, rng)
                if weight(f) >= Fraction(1, 2**k) * (1 - eps):
                    continue
                dirs = tuple(rng.randrange(64) for _ in range(k))
                c = representation_coefficient(f, dirs, eps)
                assert abs(c.value) <= Fraction(10) / eps


def int64_sweep(n: int) -> tuple[SweepReport, Fraction]:
    """Oracle: the exhaustive single-derivative sweep as sums of +-1 in int64, and
    its own largest deviation from the identity over the non-balanced functions."""
    size = 1 << n
    count = 1 << size
    funcs = np.arange(count, dtype=np.uint32)
    table_bits = ((funcs[:, None] >> np.arange(size)[None, :]) & 1).astype(np.int64)
    acc = np.zeros((count, size), dtype=np.int64)
    points = np.arange(size)
    for a in range(size):
        acc += 1 - 2 * (table_bits[:, points ^ a] ^ table_bits)
    bias_num = size - 2 * table_bits.sum(axis=1)
    dev_num = np.abs(acc - (1 - 2 * table_bits) * bias_num[:, None])
    nonzero = bias_num != 0
    max_dev = Fraction(0)
    row_max = dev_num[nonzero].max(axis=1)
    if row_max.any():
        max_dev = max(Fraction(int(a), int(b))
                      for a, b in zip(row_max, np.abs(bias_num[nonzero])) if a)
    return SweepReport(n=n, functions_checked=int(nonzero.sum()),
                       zero_bias_skipped=int(count - nonzero.sum()),
                       points_checked=size), max_dev


class TestSingleDerivativeIdentity:
    def test_and_gate_inner_expectation(self):
        # at x = 3: E_a[(-1)^{g_a(3)}] = -1/2, scaled by 1/bias = 2 gives -1
        g = table_of(2, [1, 2])
        total = sum(1 - 2 * evaluate(derive(g, a), 3) for a in range(4))
        assert Fraction(total, 4) == Fraction(-1, 2)
        report = single_derivative_identity(g)
        assert report.max_deviation == 0

    def test_constant_zero(self):
        report = single_derivative_identity(FunctionTable.zero(2))
        assert report.max_deviation == 0
        assert report.max_abs_coefficient == 1

    def test_balanced_function_rejected(self):
        with pytest.raises(ZeroBiasError):
            single_derivative_identity(table_of(1, [1]))

    def test_exhaustive_n3(self):
        for bits in range(256):
            g = FunctionTable(3, bits)
            if bias(g) == 0:
                continue
            assert single_derivative_identity(g).max_deviation == 0

    def test_numpy_path_matches_loop_path(self, rng: random.Random):
        # n=9: derivative tables of eight words each
        g = FunctionTable(9, rng.getrandbits(512) | 1)
        if bias(g) != 0:
            assert single_derivative_identity(g).max_deviation == 0

    def test_sweep_matches_int64_sweep(self):
        for n in range(1, 5):
            report, deviation = int64_sweep(n)
            assert deviation == 0
            assert verify_single_derivative_exhaustive(n) == report

    def test_sweep_counts_match_the_level_kernel(self):
        # Every function at n = 4: the sweep's point-major counts of ones per
        # point equal those of ``_level``, an independent word kernel, so a wrong
        # accumulation that still reads deviation 0 is caught.
        tables = to_words(list(range(1 << 16)), 4)
        table_bits, ones = derivatives._sweep_counts(4)
        assert table_bits.shape == ones.shape == (16, 1 << 16)
        assert np.array_equal(table_bits.T, point_bits(tables, 4))
        assert np.array_equal(ones.T, derivatives._level(tables, 4, keep=False)[0])

    def test_sweep_small(self):
        report = verify_single_derivative_exhaustive(3)
        assert report.max_deviation == 0
        assert report.functions_checked + report.zero_bias_skipped == 256

    def test_sweep_rejects_large_n(self):
        with pytest.raises(ScaleError):
            verify_single_derivative_exhaustive(5)


class TestIdentityMisses:
    """One count off in the derivative kernels fails every check of the identity."""

    def test_one_function(self, monkeypatch):
        monkeypatch.setattr(derivatives, "_level", miscounted(derivatives._level, 0, (0, 5)))
        with pytest.raises(InvariantFailure, match="single-derivative identity failed"):
            single_derivative_identity(table_of(3, [1, 2]))

    def test_representation_walk(self, monkeypatch):
        monkeypatch.setattr(derivatives, "_level", miscounted(derivatives._level, 0, (0, 0)))
        with pytest.raises(InvariantFailure, match="at a depth-0 prefix"):
            verify_derivative_representation(FunctionTable.zero(3), 2, Fraction(1, 2))

    @pytest.mark.parametrize("n,column", [(2, 0b0011), (4, 0b1111_0000_1111_0000), (3, 1)])
    def test_sweep(self, monkeypatch, n, column):
        # 0b0011 and the n = 4 column are balanced functions: the sweep checks them too.
        counts = miscounted(derivatives._sweep_counts, 1, (1, column))
        monkeypatch.setattr(derivatives, "_sweep_counts", counts)
        with pytest.raises(InvariantFailure, match=f"functions on n={n}"):
            verify_single_derivative_exhaustive(n)


def kernel_rows(f: FunctionTable, directions) -> tuple[list[int], list[list[int]]]:
    """All chunks of the batched kernel, as table bits and prefix weights per row."""
    tables, weights = [], []
    for chunk, chunk_weights in derivative_chunks(f, np.array(directions)):
        assert chunk.dtype == np.uint64 and chunk.shape[1] == word_count(f.n)
        tables += [from_point_bits(row) for row in point_bits(chunk, f.n)]
        weights += chunk_weights.tolist()
    return tables, weights


def per_direction_rows(f: FunctionTable, directions) -> tuple[list[int], list[list[int]]]:
    """Oracle: derive_iterated one tuple at a time, prefix weights from its prefixes."""
    tables = [derive_iterated(f, tup).bits for tup in directions]
    weights = [[derive_iterated(f, tup[:j]).bits.bit_count() for j in range(len(tup))]
               for tup in directions]
    return tables, weights


class TestDrawDirections:
    def test_matches_one_call_per_direction(self):
        # One getrandbits(32 * rows * k) call gives the directions of rows * k
        # getrandbits(n) calls and leaves the generator where they leave it.
        for n in range(1, 33):
            for k in (1, 2, 3):
                for rows in (0, 1, 7):
                    seed = (n << 8) | (k << 4) | rows
                    ours, oracle = random.Random(seed), random.Random(seed)
                    drawn = draw_directions(ours, rows, k, n)
                    assert drawn.dtype == np.int64 and drawn.shape == (rows, k)
                    assert drawn.tolist() == [[oracle.getrandbits(n) for _ in range(k)]
                                              for _ in range(rows)]
                    assert ours.getrandbits(32) == oracle.getrandbits(32)

    @pytest.mark.parametrize("n", [0, 33])
    def test_rejects_widths_past_one_output(self, n):
        with pytest.raises(InputError, match="1 <= n <= 32"):
            draw_directions(random.Random(0), 2, 1, n)


class TestDerivativeKernel:
    def test_matches_derive_iterated(self):
        rng = random.Random(20)
        for n in range(1, 11):
            size = 1 << n
            for k in range(1, 4):
                f = random_table(n, rng)
                directions = [(0,) * k, (size - 1,) * k]
                directions += [tuple(rng.randrange(size) for _ in range(k)) for _ in range(12)]
                assert kernel_rows(f, directions) == per_direction_rows(f, directions)

    def test_chunks_split_at_the_table_bit_bound(self, monkeypatch):
        monkeypatch.setattr(derivatives, "CHUNK_BITS", 3 * 64)  # three one-word tables
        rng = random.Random(21)
        f = random_table(6, rng)
        directions = [(rng.randrange(64), rng.randrange(64)) for _ in range(10)]
        sizes = [len(chunk) for chunk, _ in derivative_chunks(f, np.array(directions))]
        assert sizes == [3, 3, 3, 1]
        assert kernel_rows(f, directions) == per_direction_rows(f, directions)

    @given(
        st.integers(1, 10).flatmap(lambda n: st.tuples(
            st.just(n),
            st.integers(0, (1 << (1 << n)) - 1),
            st.lists(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3)
                     .map(tuple), min_size=1, max_size=6),
        ))
    )
    def test_property_matches_derive_iterated(self, case):
        n, bits, directions = case
        k = len(directions[0])
        directions = [(tup * 3)[:k] for tup in directions]  # one order k per call
        f = FunctionTable(n, bits)
        assert kernel_rows(f, directions) == per_direction_rows(f, directions)

    def test_rejects_out_of_range_direction(self):
        f = FunctionTable(3, 0b1011)
        for bad in (8, -1):
            with pytest.raises(InputError, match="out of range"):
                next(derivative_chunks(f, np.array([[1, 2], [3, bad]])))

    @pytest.mark.parametrize("chunk_bits", [None, 64, 640])
    def test_unit_derivative_counts_match_derivative_chunks(self, monkeypatch, chunk_bits):
        # Each set S of ``order`` variables comes once, with the weight of f's
        # derivative along the unit vectors of S over 2^order: the order-``order``
        # derivative along them is constant on the cosets of their subcube.
        if chunk_bits is not None:  # at most 64 or 640 table bits per batch
            monkeypatch.setattr(derivatives, "CHUNK_BITS", chunk_bits)
        rng = random.Random(22)
        for n in range(1, 10):
            for order in range(1, min(n, 3) + 1):
                f = random_table(n, rng)
                found = {}
                for masks, counts in derivatives.unit_derivative_counts(
                        to_words([f.bits], n), n, order):
                    for mask, count in zip(masks.tolist(), counts.tolist()):
                        assert mask not in found
                        found[mask] = count
                sets = list(itertools.combinations(range(n), order))
                assert sorted(found) == sorted(sum(1 << i for i in c) for c in sets)
                units = np.array([[1 << i for i in c] for c in sets])
                weights = np.concatenate([np.bitwise_count(tables).sum(axis=1)
                                          for tables, _ in derivative_chunks(f, units)])
                assert [found[sum(1 << i for i in c)] << order for c in sets] == \
                    weights.tolist()

    def test_point_counts(self):
        rows = [FunctionTable(7, bits) for bits in (0, (1 << 128) - 1, 0b1010 << 64)]
        words = to_words((t.bits for t in rows), 7)
        expected = [sum((t.bits >> x) & 1 for t in rows) for x in range(128)]
        assert point_counts(words, 7).tolist() == expected


def naive_representation_check(f: FunctionTable, k: int, eps: Fraction):
    """Independent oracle: flat sum over all 2^(nk) tuples, pure Fractions."""
    size = f.size
    max_dev = Fraction(0)
    max_abs = Fraction(0)
    for x in range(size):
        total = Fraction(0)
        for tup in itertools.product(range(size), repeat=k):
            cur = f
            coeff = Fraction(1)
            for a in tup:
                coeff /= bias(cur)
                cur = derive(cur, a)
            if abs(coeff) > max_abs:
                max_abs = abs(coeff)
            total += coeff * (1 - 2 * evaluate(cur, x))
        dev = abs(total / size**k - (1 - 2 * evaluate(f, x)))
        max_dev = max(max_dev, dev)
    return max_dev, max_abs


def fraction_representation(f: FunctionTable, k: int,
                            eps: Fraction) -> tuple[IdentityReport, Fraction]:
    """Oracle: the identity averaged prefix by prefix in ``Fraction`` arithmetic, memoised
    by table, and its own largest deviation from (-1)^f over the points."""
    derivatives.require_low_weight(f, k, eps)
    n = f.n
    if n * k > 24 or n > 12:  # the guard of the implementation this oracle froze
        raise ScaleError(
            f"exhaustive verification capped at n*k <= 24 and n <= 12 (got n={n}, k={k})"
        )
    size = f.size
    memo: dict[tuple[int, int], tuple[list, Fraction]] = {}

    def signs(bits: int) -> list[int]:
        return [1 - 2 * ((bits >> x) & 1) for x in range(size)]

    def level(bits: int, j: int) -> tuple[list, Fraction]:
        """Values of the depth-j averaged representation of g, plus max coefficient."""
        key = (bits, j)
        if key in memo:
            return memo[key]
        if j == 0:
            result = (signs(bits), Fraction(1))
        else:
            b = Fraction(size - 2 * bits.bit_count(), size)
            if b == 0:
                raise DegenerateBiasError(
                    "zero prefix bias under the low-weight precondition"
                )
            g = FunctionTable(n, bits)
            sums = [0] * size
            max_child = Fraction(0)
            for a in range(size):
                child_vals, child_max = level(derive(g, a).bits, j - 1)
                if child_max > max_child:
                    max_child = child_max
                for x in range(size):
                    sums[x] += child_vals[x]
            scale = size * b
            result = ([Fraction(s) / scale for s in sums], max_child / abs(b))
        memo[key] = result
        return result

    values, max_coeff = level(f.bits, k)
    expected = signs(f.bits)
    report = IdentityReport(max_abs_coefficient=max_coeff, tuples_checked=size**k,
                            points_checked=size)
    return report, max(abs(values[x] - expected[x]) for x in range(size))


def fraction_report(f: FunctionTable, k: int, eps: Fraction) -> IdentityReport:
    """``fraction_representation``'s report, once its own deviation reads 0."""
    report, deviation = fraction_representation(f, k, eps)
    assert deviation == 0
    return report


def outcome(check, *args):
    """A check's report, or the class and message of the error it raised."""
    try:
        return check(*args)
    except RmlistError as exc:
        return type(exc), str(exc)


def low_weight_corpus(seed: int, per_case: dict[tuple[int, int], int]):
    """Seeded ``(f, k, eps)`` with wt(f) < 2^-k (1 - eps), ``per_case[(n, k)]`` of each.

    Each f has the most ones the gate allows, or one fewer.
    """
    rng = random.Random(seed)
    for (n, k), count in per_case.items():
        for _ in range(count):
            eps = Fraction(rng.randrange(1, 10), 10)
            most = math.ceil((1 << n) * (1 - eps) / (1 << k)) - 1
            ones = rng.sample(range(1 << n), max(0, most - rng.randrange(2)))
            yield FunctionTable(n, sum(1 << x for x in ones)), k, eps


# Every (n, k) with n = 1..6 and k = 1..3; the oracle takes about 1.5 s at n=6, k=3.
CORPUS = {(n, k): 1 if (n, k) == (6, 3) else 3 if n == 6 else 5
          for n in range(1, 7) for k in range(1, 4)}


class TestVerifyRepresentation:
    def test_zero_function(self):
        report = verify_derivative_representation(FunctionTable.zero(3), 2, Fraction(1, 2))
        assert report.max_deviation == 0
        assert report.max_abs_coefficient == 1

    def test_and_gate_order_one(self):
        report = verify_derivative_representation(table_of(2, [1, 2]), 1, Fraction(1, 4))
        assert report.max_deviation == 0
        assert report.tuples_checked == 4
        oracle_dev, oracle_max = naive_representation_check(
            table_of(2, [1, 2]), 1, Fraction(1, 4)
        )
        assert oracle_dev == 0
        assert report.max_abs_coefficient == oracle_max == 2

    def test_triple_product_order_two(self):
        f = table_of(3, [1, 2, 3])
        report = verify_derivative_representation(f, 2, Fraction(1, 4))
        assert report.max_deviation == 0
        assert report.max_abs_coefficient <= 40
        assert report.tuples_checked == 64
        oracle_dev, oracle_max = naive_representation_check(f, 2, Fraction(1, 4))
        assert oracle_dev == 0
        assert report.max_abs_coefficient == oracle_max == Fraction(8, 3)

    def test_random_low_weight_against_oracle(self, rng: random.Random):
        eps = Fraction(1, 3)
        for _ in range(5):
            f = random_table_below_weight(4, int(16 * (1 - eps) / 2) + 1, rng)
            if weight(f) >= Fraction(1, 2) * (1 - eps):
                continue
            report = verify_derivative_representation(f, 1, eps)
            dev, mx = naive_representation_check(f, 1, eps)
            assert (report.max_deviation, report.max_abs_coefficient) == (dev, mx)

    def test_rejects_overweight(self):
        with pytest.raises(WeightTooLargeError):
            verify_derivative_representation(table_of(2, [1]), 1, Fraction(1, 2))

    def test_scale_cap(self):
        with pytest.raises(ScaleError):
            verify_derivative_representation(FunctionTable.zero(9), 3, Fraction(1, 2))

    def test_matches_fraction_oracle(self):
        checked = 0
        for f, k, eps in low_weight_corpus(70, CORPUS):
            report = verify_derivative_representation(f, k, eps)
            assert report == fraction_report(f, k, eps)
            checked += f.bits != 0
        assert checked >= 25  # small n at larger k admits only f = 0

    def test_matches_oracle_across_chunk_boundaries(self, monkeypatch):
        # At 3 * 64 bits a chunk holds part of one prefix's 2^n children, which
        # span several chunks; at 2^12 bits the n <= 5 chunks hold the children
        # of several whole prefixes.
        kernel, layouts = scan.translate, set()

        def spy(tables, a, n):
            layouts.add("rows" if len(a) > 1 << n else "part")
            return kernel(tables, a, n)

        monkeypatch.setattr(scan, "translate", spy)
        for chunk_bits, expected in [(3 * 64, {"part"}), (1 << 12, {"part", "rows"})]:
            monkeypatch.setattr(derivatives, "CHUNK_BITS", chunk_bits)
            layouts.clear()
            for f, k, eps in low_weight_corpus(71, {(5, 2): 4, (7, 1): 3, (4, 3): 3}):
                report = verify_derivative_representation(f, k, eps)
                assert report == fraction_report(f, k, eps)
            assert layouts == expected

    def test_zero_bias_raises_like_oracle(self, monkeypatch):
        # Unreachable under the weight gate; lift it for both checks.
        monkeypatch.setattr(derivatives, "require_low_weight", lambda *args: None)
        rng = random.Random(72)
        kinds = set()
        for n in range(1, 6):
            for k in range(1, 4):
                for _ in range(6):
                    f = random_table(n, rng)
                    new = outcome(verify_derivative_representation, f, k, Fraction(1, 2))
                    assert new == outcome(fraction_report, f, k, Fraction(1, 2))
                    kinds.add(new[0] if isinstance(new, tuple) else IdentityReport)
        assert kinds == {DegenerateBiasError, IdentityReport}

    def test_coefficient_takes_the_largest_parent(self):
        # No corpus input tried so far reaches a maximal path through a child
        # whose first or last parent is not its largest, so check it directly:
        # parents of scale 1, 3, 2 with two extensions each.
        scales = [Fraction(1), Fraction(3), Fraction(2)]
        inverse = np.array([0, 1, 1, 2, 2, 0])
        assert derivatives._max_over_parents(scales, inverse, 2) == [2, 3, 3]

    def test_corrupted_kernel_bit_is_an_invariant_failure(self, monkeypatch):
        kernel, calls = scan.translate, []

        def corrupted(tables, a, n):
            moved = kernel(tables, a, n)
            calls.append(len(a))
            if len(calls) == 1:  # one bit of the first chunk only
                moved[-1, 0] ^= np.uint64(1 << 3)
            return moved

        monkeypatch.setattr(scan, "translate", corrupted)
        f = FunctionTable(6, 6758152515158529)
        with pytest.raises(InvariantFailure, match="single-derivative identity failed"):
            verify_derivative_representation(f, 2, Fraction(1, 4))

    def test_derives_each_distinct_prefix_extension_once(self, monkeypatch):
        kernel = scan.translate
        derived = []

        def counting(tables, a, n):
            derived.append(len(a))
            return kernel(tables, a, n)

        monkeypatch.setattr(scan, "translate", counting)
        f, k = FunctionTable(6, sum(1 << x for x in (0, 5, 17, 40, 63))), 3
        verify_derivative_representation(f, k, Fraction(1, 8))
        # Distinct prefixes at depths 0..k-1, each extended by all 2^n directions.
        level, distinct = {f.bits}, 1
        for _ in range(k - 1):
            level = {derive(FunctionTable(6, bits), a).bits for bits in level for a in range(64)}
            distinct += len(level)
        assert sum(derived) == distinct * 64

    def test_derived_table_cap(self, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("derived a table past the cap")

        for seam in ("_level", "derivative_chunks"):
            monkeypatch.setattr(derivatives, seam, no_kernel)
        monkeypatch.setattr(scan, "translate", no_kernel)
        # Each is just past the 2^32 derived table bits: 2^(n(k+1)), then 4^n.
        with pytest.raises(ScaleError, match="needs 2\\^36"):
            verify_derivative_representation(FunctionTable(12, 1), 2, Fraction(1, 2))
        with pytest.raises(ScaleError, match="needs 2\\^34"):
            verify_derivative_representation(FunctionTable(17, 1), 1, Fraction(1, 2))
        with pytest.raises(ScaleError, match="needs 2\\^34"):
            single_derivative_identity(FunctionTable(17, 1))

    def test_runs_past_the_old_point_cap(self):
        # n = 13 was capped by n <= 12 (the Fraction oracle keeps that guard);
        # its 2^26 derived table bits are under the cap. At k = 1 the largest
        # coefficient is 2^n / |2^n - 2 wt(f)|.
        f = FunctionTable(13, sum(1 << x for x in random.Random(74).sample(range(8192), 2047)))
        report = verify_derivative_representation(f, 1, Fraction(1, 2))
        assert report == IdentityReport(
            max_abs_coefficient=Fraction(8192, 8192 - 2 * 2047),
            tuples_checked=8192,
            points_checked=8192,
        )
        assert report.max_abs_coefficient == single_derivative_identity(f).max_abs_coefficient


def sampled_bias_bounds(f: FunctionTable, k: int, eps: Fraction, samples: int,
                        seed: int) -> BiasBoundReport:
    """Oracle: the sampled bias-bounds check, one bigint ``derive_iterated`` per tuple,
    drawing the same seeded tuples in the same order."""
    rng = random.Random(seed)
    checks = []
    for s in range(k):
        bound = 1 - Fraction(1 - eps) / (1 << (k - 1 - s))
        tuples = [tuple(rng.getrandbits(f.n) for _ in range(s))
                  for _ in range(samples if s else 1)]
        biases = [(t, bias(derive_iterated(f, t))) for t in tuples]
        checks.append(BiasBoundCheck(
            prefix_length=s,
            bound=bound,
            min_bias=min(b for _, b in biases),
            tuples_checked=len(tuples),
            violations=tuple((t, b) for t, b in biases if b < bound),
        ))
    return BiasBoundReport(k=k, eps=eps, exhaustive=False, checks=tuple(checks))


class TestBiasBounds:
    def test_triple_product(self):
        f = table_of(3, [1, 2, 3])
        report = check_bias_bounds(f, 2, Fraction(1, 4))
        assert report.exhaustive
        assert report.violation_count == 0
        by_len = {c.prefix_length: c for c in report.checks}
        assert by_len[0].bound == 1 - Fraction(1, 2) * Fraction(3, 4)
        # all single derivatives of x1x2x3 have bias >= 1/4 (min is 1/2)
        assert by_len[1].min_bias == Fraction(1, 2)
        assert by_len[1].bound == Fraction(1, 4)

    def test_zero_function(self):
        report = check_bias_bounds(FunctionTable.zero(4), 3, Fraction(1, 2))
        assert report.violation_count == 0
        assert all(c.min_bias == 1 for c in report.checks)

    def test_prefix_zero_bound_matches_weight_gate(self):
        f = table_of(3, [1, 2, 3])
        report = check_bias_bounds(f, 1, Fraction(1, 2))
        assert report.checks[0].bound == Fraction(1, 2)
        assert report.checks[0].min_bias == bias(f) == Fraction(3, 4)

    def test_sampled_mode(self):
        # 2^(nk) = 2^39 walk bits past the cap select seeded samples.
        f = table_of(13, [1, 2, 3, 4])
        report = check_bias_bounds(f, 3, Fraction(1, 4), samples=50, seed=11)
        assert not report.exhaustive
        assert report.violation_count == 0
        assert report.checks[1].tuples_checked == 50

    @pytest.mark.parametrize("samples", [0, -5])
    def test_rejects_samples_below_one(self, monkeypatch, samples):
        def no_derive(*args):
            raise AssertionError("derived before the samples check")

        for seam in ("derive", "derivative_chunks"):
            monkeypatch.setattr(derivatives, seam, no_derive)
        with pytest.raises(InputError, match="samples"):
            check_bias_bounds(table_of(13, [1, 2, 3, 4]), 3, Fraction(1, 4),
                              samples=samples)

    def test_random_corpus_no_violations(self, rng: random.Random):
        eps = Fraction(3, 10)
        for k in (1, 2):
            cap = int((1 << 6) * (1 - eps)) >> k
            for _ in range(20):
                f = random_table_below_weight(6, cap + 1, rng)
                if weight(f) >= Fraction(1, 2**k) * (1 - eps):
                    continue
                assert check_bias_bounds(f, k, eps).violation_count == 0

    def test_rejects_overweight(self):
        with pytest.raises(WeightTooLargeError):
            check_bias_bounds(FunctionTable.ones(3), 1, Fraction(1, 2))

    def test_exhaustive_walk_cap(self, monkeypatch):
        # The walk runs exactly where its 2^(nk) derived table bits fit 2^32. At
        # n <= 5, k >= 6 the weight gate admits only f = 0, walked at any k.
        for n, k in [(8, 4), (4, 8), (5, 6), (1, 32)]:
            f = FunctionTable.zero(n)
            report = check_bias_bounds(f, k, Fraction(1, 2))
            assert report.exhaustive
            assert report == exhaustive_bias_bounds(f, k, Fraction(1, 2))

        def no_derive(*args):
            raise AssertionError("derived past the cap")

        monkeypatch.setattr(derivatives, "derive", no_derive)
        # Past it the check samples: at 2^34, 2^33 and 2^36 bits, where a walk chosen
        # by n*(k-1) <= 24 was once refused, and for f = 0 at 2^35.
        for n, k in [(17, 2), (11, 3), (12, 3), (5, 7)]:
            f = FunctionTable(n, 1) if n > 5 else FunctionTable.zero(n)
            report = check_bias_bounds(f, k, Fraction(1, 2), samples=30, seed=n)
            assert not report.exhaustive
            assert [c.tuples_checked for c in report.checks] == [1] + [30] * (k - 1)
            assert report == sampled_bias_bounds(f, k, Fraction(1, 2), 30, n)

    def test_samples_past_the_tuple_bits(self):
        # 2^(nk) = 2^39 walk bits past the cap: seeded samples, not the walk.
        report = check_bias_bounds(FunctionTable(13, 1), 3, Fraction(1, 2), samples=20)
        assert not report.exhaustive
        assert [c.tuples_checked for c in report.checks] == [1, 20, 20]
        assert report.violation_count == 0

    def test_samples_match_the_bigint_oracle(self, monkeypatch):
        rng = random.Random(75)
        for n, k, samples in [(13, 3, 50), (9, 4, 30), (14, 3, 7)]:
            f = FunctionTable(n, sum(1 << x for x in rng.sample(range(1 << n), 5)))
            for eps in (Fraction(1, 4), Fraction(1, 100)):
                report = check_bias_bounds(f, k, eps, samples=samples, seed=n)
                assert report == sampled_bias_bounds(f, k, eps, samples, n)
        # With the weight gate lifted, heavy functions violate the bounds; the
        # violations, tuples and all, match the oracle's.
        monkeypatch.setattr(derivatives, "require_low_weight", lambda *args: None)
        f = random_table(13, rng)
        report = check_bias_bounds(f, 3, Fraction(1, 2), samples=40, seed=3)
        assert report.violation_count > 0
        assert report == sampled_bias_bounds(f, 3, Fraction(1, 2), 40, 3)

    def test_sampled_draws_match_the_oracle_over_seeds(self, monkeypatch):
        # nk > 32 on every case. The tuples come from one draw per prefix
        # length; the report, violation tuples as Python ints included, is the
        # oracle's on every seed.
        rng = random.Random(76)
        for n, k, samples in [(13, 3, 40), (9, 4, 25), (7, 5, 20)]:
            f = FunctionTable(n, sum(1 << x for x in rng.sample(range(1 << n), 2)))
            for seed in (101, 202, 303):
                report = check_bias_bounds(f, k, Fraction(1, 4), samples=samples, seed=seed)
                assert report == sampled_bias_bounds(f, k, Fraction(1, 4), samples, seed)
        monkeypatch.setattr(derivatives, "require_low_weight", lambda *args: None)
        f = random_table(13, rng)
        for seed in (4, 5, 6):
            report = check_bias_bounds(f, 3, Fraction(1, 2), samples=30, seed=seed)
            assert report.violation_count > 0
            assert report == sampled_bias_bounds(f, 3, Fraction(1, 2), 30, seed)
            assert {type(a) for c in report.checks for t, _ in c.violations for a in t} == {int}

    def test_samples_run_past_the_bigint_cliff(self):
        # At n = 21 block masks are built on every call, for the oracle's bigint
        # ``translate``; the library's sampled check takes well under a second.
        f = FunctionTable(21, (1 << 5) | (1 << 70000) | (1 << 1999999))
        report = check_bias_bounds(f, 3, Fraction(1, 2), samples=20, seed=21)
        assert not report.exhaustive
        assert [c.tuples_checked for c in report.checks] == [1, 20, 20]
        assert report == sampled_bias_bounds(f, 3, Fraction(1, 2), 20, 21)

    def test_exhaustive_walk_matches_the_dict_walk(self, monkeypatch):
        # The walk carries each level into the next and keeps no table at the
        # last; the oracle re-derives every level into a dict. Low-weight
        # functions have no violations; with the weight gate lifted, random
        # functions have many, and they must come in the same order.
        rng = random.Random(77)
        cases = [(n, k, eps) for n in range(4, 8) for k in (2, 3)
                 for eps in (Fraction(1, 4), Fraction(1, 2))]
        for n, k, eps in cases:
            f = random_table_below_weight(n, int((1 << n) * (1 - eps)) >> k, rng)
            assert check_bias_bounds(f, k, eps) == exhaustive_bias_bounds(f, k, eps)
        monkeypatch.setattr(derivatives, "require_low_weight", lambda *args: None)
        violations = 0
        for n, k, eps in cases:
            f = random_table(n, rng)
            report = check_bias_bounds(f, k, eps)
            assert report.exhaustive
            assert report == exhaustive_bias_bounds(f, k, eps)
            violations += report.violation_count
        assert violations > 0

    def test_sampled_derived_table_cap(self, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("derived a table past the cap")

        for seam in ("derive", "derivative_chunks"):
            monkeypatch.setattr(derivatives, seam, no_kernel)
        # (k-1) * samples * 2^n derived table bits: 2 * 2000 * 2^21 passes 2^32,
        # and so do 2000 * 2^25 and 2000 * 2^22 at k = 2, which samples from n = 17.
        with pytest.raises(ScaleError, match="sampled bias-bounds check at n=21, k=3"):
            check_bias_bounds(FunctionTable(21, 1), 3, Fraction(1, 2))
        # 2000 * 2^25 is 2^35.97 and 2000 * 2^22 is 2^32.97 bits, reported rounded up.
        with pytest.raises(ScaleError, match="needs 2\\^36"):
            check_bias_bounds(FunctionTable(25, 1), 2, Fraction(1, 2))
        with pytest.raises(ScaleError, match=r"^sampled bias-bounds check at n=22, k=2 capped "
                                             r"at 2\^32 derived table bits \(needs 2\^33\)$"):
            check_bias_bounds(FunctionTable(22, 1), 2, Fraction(1, 2))
