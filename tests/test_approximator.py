from __future__ import annotations

import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rmlist import (
    AnfPolynomial,
    ApproximationFailure,
    ApproximatorParams,
    ApproxResult,
    CodeParams,
    DegenerateBiasError,
    FunctionTable,
    InputError,
    RadiusError,
    SampledApproximator,
    WeightTooLargeError,
    anf_to_table,
    approximator_table,
    bias,
    build_approximator,
    distance,
    monomial_table,
    sample_count,
    table_to_anf,
    unique_decode_within,
)
from rmlist import approximator, derivatives, scan, transforms
from rmlist.approximator import _derived_accumulation, _signed_accumulation, approximator_json
from rmlist.derivatives import derive
from rmlist.errors import InvariantFailure, ScaleError

from conftest import random_table, random_table_below_weight, table_of
from oracles import (
    approximator_params_for_code,
    derive_iterated,
    evaluate,
    representation_coefficient,
    xor_tables,
)


def serialize_approximator(approx: SampledApproximator) -> dict:
    """Oracle of ``approximator_json``: the record as a dict, for ``json.dumps``."""
    return {
        "n": approx.n, "k": approx.k, "m": approx.m, "seed": approx.seed,
        "samples": [
            {"directions": list(t), "coefficient": s}
            for t, s in zip(approx.directions.tolist(), approx.coefficients.tolist())
        ],
    }


def candidate_from_received(
    approx: SampledApproximator, received: FunctionTable
) -> FunctionTable:
    """Shift the approximator by the received word; lands within delta of the codeword."""
    return xor_tables(approximator_table(approx), received)


def sample_tables(approx: SampledApproximator) -> list[FunctionTable]:
    """Oracle: each sample's derivative table, one bigint ``derive_iterated`` at a time."""
    return [derive_iterated(approx.base, t) for t in approx.directions]


def eval_approximator(approx: SampledApproximator, x: int) -> int:
    """Oracle: the weighted-majority bit at one point; a tied sum (>= 0) encodes bit 0."""
    total = 0
    for s, h in zip(approx.coefficients, sample_tables(approx)):
        total += s * (1 - 2 * evaluate(h, x))
    return 0 if total >= 0 else 1


def direct_accumulation(approx: SampledApproximator) -> list[int]:
    """Oracle: sum over samples of s_i * (1 - 2 h_i(x)), point by point."""
    tables = sample_tables(approx)
    return [sum(s * (1 - 2 * ((h.bits >> x) & 1))
                for s, h in zip(approx.coefficients, tables))
            for x in range(1 << approx.n)]


def dense_table(approx: SampledApproximator) -> FunctionTable:
    """Oracle weighted majority from a dense (m, 2^n) sign matrix."""
    size = 1 << approx.n
    byte_len = max(1, size // 8)
    raw = b"".join(h.bits.to_bytes(byte_len, "little") for h in sample_tables(approx))
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(-1, byte_len),
                         axis=1, count=size, bitorder="little")
    acc = np.array(approx.coefficients, dtype=np.int64) @ (1 - 2 * bits.astype(np.int64))
    return FunctionTable(approx.n, sum(1 << x for x in range(size) if acc[x] < 0))


def per_sample_build(f: FunctionTable, params: ApproximatorParams, table=dense_table,
                     check_weight: bool = True) -> ApproxResult:
    """Oracle: the per-sample build loop, one bigint derivative and one bias at a time."""
    if check_weight:
        approximator.require_low_weight(f, params.k, params.eps)
    m = params.samples
    n = f.n
    int_bound = int(params.coefficient_bound) + 1
    best = None
    for retry in range(params.retry_budget):
        rng = random.Random((params.seed << 32) | retry)
        directions, coeffs = [], []
        for _ in range(m):
            tup = tuple(rng.getrandbits(n) for _ in range(params.k))
            cur = f
            coeff = Fraction(1)
            for a in tup:
                b = bias(cur)
                if b == 0:
                    raise DegenerateBiasError(
                        "zero prefix bias under the low-weight precondition"
                    )
                coeff /= b
                cur = derive(cur, a)
            s = approximator._round_half_away(coeff)
            if abs(s) > int_bound:
                raise InvariantFailure(
                    f"rounded coefficient {s} exceeds bound {int_bound}"
                )
            directions.append(tup)
            coeffs.append(s)
        approx = SampledApproximator(n=n, k=params.k, seed=params.seed, base=f,
                                     directions=tuple(directions),
                                     coefficients=tuple(coeffs))
        achieved = distance(f, table(approx))
        if best is None or achieved < best[0]:
            best = (achieved, approx)
        if achieved <= params.delta:
            return ApproxResult(approx, achieved, retry + 1)
    raise ApproximationFailure(
        f"no sample batch reached distance {params.delta} within "
        f"{params.retry_budget} retries (best: {best[0]})",
        best_distance=best[0],
        retries_used=params.retry_budget,
    )


def outcome(build, f, params, **kw):
    """A build's result, or the class, message and diagnostics of what it raised."""
    try:
        return build(f, params, **kw)
    except ApproximationFailure as exc:
        return type(exc), str(exc), exc.best_distance, exc.retries_used
    except (InputError, InvariantFailure) as exc:
        return type(exc), str(exc)


class TestParams:
    def test_sample_count_formula(self):
        c = 20.0  # eps = 1/2
        expected = math.ceil(32 * c * c * math.log(32))
        assert sample_count(Fraction(1, 2), Fraction(1, 32)) == expected == 44362

    def test_sample_count_matches_float_formula(self):
        # Every (eps, delta) the tests and the benchmark use lies in the first
        # grid. At eps = 1/100 and 1/1000, most deltas need more series terms
        # than the first bracket holds.
        grid = sorted({Fraction(a, b) for b in range(2, 11) for a in range(1, b)})
        halvings = [Fraction(1, 1 << j) for j in range(1, 41)]
        cases = [(eps, delta) for eps in grid for delta in grid + halvings[3:]]
        cases += [(eps, delta) for eps in (Fraction(1, 100), Fraction(1, 1000))
                  for delta in halvings + [2 / (1 + 1 / h) for h in halvings]]
        for eps, delta in cases:
            c = 10 / eps
            expected = math.ceil(32 * float(c * c) * math.log(1 / float(delta)))
            assert sample_count(eps, delta) == expected, (eps, delta)

    def test_sample_count_uses_no_float_log(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("float logarithm called")

        monkeypatch.setattr(math, "log", forbidden)
        assert sample_count(Fraction(1, 2), Fraction(1, 32)) == 44362
        assert sample_count(Fraction(9, 10), Fraction(2, 7)) == 4950

    def test_ln_bounds_bracket_and_tighten(self):
        assert approximator._ln_bounds(Fraction(1), 3) == (0, 0)
        for q in (Fraction(2), Fraction(3), Fraction(32), Fraction(10, 7), Fraction(1 << 40, 3)):
            widths = []
            for terms in (1, 2, 4, 8, 16):
                lo, hi = approximator._ln_bounds(q, terms)
                assert lo - 1e-9 <= math.log(q) <= hi + 1e-9
                widths.append(hi - lo)
            assert all(a > b > 0 for a, b in zip(widths, widths[1:]))
            assert widths[-1] < Fraction(1, 10**12)

    def test_for_code_sets_quarter_min_distance(self):
        p = approximator_params_for_code(CodeParams(8, 3), k=1, eps=Fraction(1, 2), seed=1)
        assert p.delta == Fraction(1, 32)

    def test_coefficient_bound(self):
        p = ApproximatorParams(k=1, eps=Fraction(1, 4), delta=Fraction(1, 8), seed=0)
        assert p.coefficient_bound == 40

    def test_rejects_small_m(self):
        with pytest.raises(InputError):
            ApproximatorParams(k=1, eps=Fraction(1, 2), delta=Fraction(1, 32),
                               seed=0, m=100)

    def test_rejects_bad_ranges(self):
        with pytest.raises(InputError):
            ApproximatorParams(k=0, eps=Fraction(1, 2), delta=Fraction(1, 4), seed=0)
        with pytest.raises(InputError):
            ApproximatorParams(k=1, eps=Fraction(3, 2), delta=Fraction(1, 4), seed=0)
        with pytest.raises(InputError):
            ApproximatorParams(k=1, eps=Fraction(1, 2), delta=Fraction(1, 4),
                               seed=0, retry_budget=0)


def small_params(seed=0, k=1, eps=Fraction(1, 2), delta=Fraction(1, 4), **kw):
    return ApproximatorParams(k=k, eps=eps, delta=delta, seed=seed, **kw)


class TestBuild:
    def test_zero_function(self):
        result = build_approximator(FunctionTable.zero(3), small_params())
        assert result.achieved_distance == 0
        assert result.retries_used == 1
        assert set(result.approximator.coefficients) == {1}
        assert approximator_table(result.approximator) == FunctionTable.zero(3)

    def test_rejects_overweight(self):
        with pytest.raises(WeightTooLargeError):
            build_approximator(FunctionTable.ones(3), small_params())

    def test_deterministic_for_seed(self):
        f = table_of(4, [1, 2, 3])
        a = build_approximator(f, small_params(seed=5)).approximator
        b = build_approximator(f, small_params(seed=5)).approximator
        assert a.directions.tolist() == b.directions.tolist()
        assert a.coefficients.tolist() == b.coefficients.tolist()
        c = build_approximator(f, small_params(seed=6)).approximator
        assert c.directions.tolist() != a.directions.tolist()

    def test_coefficients_within_bound(self):
        f = table_of(4, [1, 2, 3])
        params = small_params(k=2, eps=Fraction(1, 4), delta=Fraction(1, 4))
        result = build_approximator(f, params)
        cap = int(params.coefficient_bound) + 1
        assert all(abs(s) <= cap for s in result.approximator.coefficients)

    def test_rounded_coefficient_matches_fraction_walk(self, rng: random.Random):
        # The kernel's prefix weights and the integer rounding against the
        # bigint Fraction walk over the prefixes, rounded half away from zero.
        for n, k, eps in ((4, 1, Fraction(1, 2)), (5, 2, Fraction(1, 4)),
                          (6, 3, Fraction(1, 10))):
            below = math.ceil((1 << n) * (1 - eps) / (1 << k))
            bound = int(Fraction(10) / eps) + 1
            for _ in range(5):
                f = random_table_below_weight(n, below, rng)
                directions = np.array([[rng.randrange(1 << n) for _ in range(k)]
                                       for _ in range(40)], dtype=np.int64)
                weights = approximator._prefix_weights(f, directions)
                for row, tup in zip(weights.tolist(), directions.tolist()):
                    exact = representation_coefficient(f, tup, eps).value
                    assert approximator._rounded_coefficient(tuple(row), f.size, bound) == (
                        approximator._round_half_away(exact))

    def test_achieved_distance_is_definitional(self):
        f = table_of(5, [1, 2, 3])
        result = build_approximator(f, small_params(delta=Fraction(1, 8)))
        assert distance(f, approximator_table(result.approximator)) == (
            result.achieved_distance
        )

    def test_failure_error_carries_diagnostics(self):
        err = ApproximationFailure("no luck", best_distance=Fraction(1, 8),
                                   retries_used=10)
        assert err.exit_code == 4
        assert err.best_distance == Fraction(1, 8)
        assert err.retries_used == 10

    def test_rounding_shifts_average_by_at_most_half(self):
        # instrumented run: per point, the exact-coefficient average and the
        # rounded-integer average differ by at most 1/2, and any point whose
        # exact average is within 1/4 of the target sign stays correct
        f = table_of(4, [1, 2, 3])
        params = small_params(k=1, eps=Fraction(1, 2), delta=Fraction(1, 4), seed=2)
        approx = build_approximator(f, params).approximator
        m = approx.m
        exact = [
            representation_coefficient(f, tup, params.eps).value
            for tup in approx.directions
        ]
        tables = sample_tables(approx)
        for x in range(f.size):
            signs = [1 - 2 * evaluate(h, x) for h in tables]
            pre = sum(a * s for a, s in zip(exact, signs)) / m
            post = Fraction(sum(c * s for c, s in zip(approx.coefficients, signs)), m)
            assert abs(pre - post) <= Fraction(1, 2)
            target = 1 - 2 * evaluate(f, x)
            if abs(pre - target) < Fraction(1, 4):
                assert (post >= 0) == (target == 1)


def test_build_keeps_no_tables():
    # m * 2^n / 8 bytes is the packed size of the m derivative tables alone,
    # so a build that kept them could not stay below it.
    n, m = 12, 32768
    f = FunctionTable(n, sum(1 << x for x in range(1 << n) if x & 7 == 7))
    params = ApproximatorParams(k=1, eps=Fraction(1, 2), delta=Fraction(1, 2), seed=1, m=m)
    tracemalloc.start()
    try:
        result = build_approximator(f, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.approximator.m == m
    assert peak < m * (1 << n) // 8


def low_weight_corpus(seed: int):
    """Seeded (f, params) over n = 1..9 and k = 1..3, each f just below the weight gate."""
    rng = random.Random(seed)
    for n in range(1, 10):
        for k in range(1, 4):
            eps = rng.choice([Fraction(3, 4), Fraction(9, 10)])
            limit = Fraction(1 << n, 1 << k) * (1 - eps)  # f needs fewer ones than this
            ones = rng.randrange(math.ceil(limit))
            f = FunctionTable(n, sum(1 << x for x in rng.sample(range(1 << n), ones)))
            delta = rng.choice([Fraction(1, 2), Fraction(1, 4)])
            params = ApproximatorParams(k=k, eps=eps, delta=delta, seed=rng.getrandbits(16),
                                        retry_budget=3)
            yield f, params


class TestBuildAgainstPerSampleLoop:
    def test_low_weight_corpus(self):
        for f, params in low_weight_corpus(31):
            expected = outcome(per_sample_build, f, params)
            assert outcome(build_approximator, f, params) == expected

    def test_errors_raise_at_the_same_sample(self, monkeypatch):
        # Lifting the weight gate lets zero prefix biases and oversized
        # coefficients occur; both builds must stop at the same first sample.
        monkeypatch.setattr(approximator, "require_low_weight", lambda *args: None)
        rng = random.Random(32)
        seen = set()
        for n in range(2, 10):
            for k in range(1, 4):
                f = random_table(n, rng)
                params = ApproximatorParams(k=k, eps=Fraction(9, 10), delta=Fraction(1, 2),
                                            seed=rng.getrandbits(16), retry_budget=1)
                new = outcome(build_approximator, f, params)
                assert new == outcome(per_sample_build, f, params, check_weight=False)
                seen.add(new[0] if isinstance(new, tuple) else ApproxResult)
        assert {DegenerateBiasError, InvariantFailure, ApproxResult} <= seen

    def test_one_draw_per_retry(self, monkeypatch):
        # The m directions of a retry come from one getrandbits call, never
        # from one call per sample.
        draws = []

        class CountingRandom(random.Random):
            def getrandbits(self, k):
                draws.append(k)
                return super().getrandbits(k)

        monkeypatch.setattr(approximator.random, "Random", CountingRandom)
        monkeypatch.setattr(approximator, "approximator_table",
                            lambda approx: FunctionTable.ones(approx.n))
        params = ApproximatorParams(k=1, eps=Fraction(1, 2), delta=Fraction(1, 4), seed=1,
                                    retry_budget=3)
        with pytest.raises(ApproximationFailure):
            build_approximator(table_of(12, [1, 2, 3]), params)
        assert draws == [32 * params.samples] * 3

    def test_retries_and_failure(self, monkeypatch):
        # With m >= sample_count the majority was exact on every input tried,
        # so no delta forces a retry; a table that misses 0, 5/8 or 3/4 of the
        # points, as the drawn directions decide, drives both paths instead.
        def drifting_table(approx: SampledApproximator) -> FunctionTable:
            misses = (0, 5, 6)[sum(map(sum, approx.directions)) % 3] * approx.base.size // 8
            return FunctionTable(approx.n, approx.base.bits ^ ((1 << misses) - 1))

        monkeypatch.setattr(approximator, "approximator_table", drifting_table)
        outcomes = []
        for f, params in low_weight_corpus(33):
            if f.n < 3:
                continue
            params = ApproximatorParams(k=params.k, eps=params.eps, delta=Fraction(1, 2),
                                        seed=params.seed, retry_budget=2)
            new = outcome(build_approximator, f, params)
            assert new == outcome(per_sample_build, f, params, table=drifting_table)
            outcomes.append(new)
        assert any(isinstance(o, ApproxResult) and o.retries_used > 1 for o in outcomes)
        assert any(isinstance(o, tuple) and o[0] is ApproximationFailure for o in outcomes)


class TestEval:
    def manual(self, base, coeffs, directions):
        """An approximator from a base function, coefficients and direction tuples."""
        return SampledApproximator(
            n=base.n, k=len(directions[0]), seed=0, base=base,
            directions=tuple(tuple(t) for t in directions),
            coefficients=tuple(coeffs),
        )

    def test_all_positive_at_zero_values(self):
        # Any derivative along a = 0 is the zero table.
        approx = self.manual(table_of(2, [1]), [1, 1], [(0,), (0,)])
        assert eval_approximator(approx, 0) == 0

    def test_single_negative_sample(self):
        # x1 along e1 is the ones table.
        approx = self.manual(table_of(2, [1]), [1], [(1,)])
        assert sample_tables(approx) == [FunctionTable.ones(2)]
        assert eval_approximator(approx, 1) == 1

    def test_tie_maps_to_zero_bit(self):
        approx = self.manual(table_of(2, [1, 2]), [1, -1], [(0,), (0,)])
        assert eval_approximator(approx, 0) == 0
        assert approximator_table(approx) == FunctionTable.zero(2)

    def test_single_sample_copies_table(self):
        # x1x2 along e2 is x1.
        x1 = table_of(3, [1])
        approx = self.manual(table_of(3, [1, 2]), [1], [(2,)])
        assert sample_tables(approx) == [x1]
        assert approximator_table(approx) == x1
        for x in range(8):
            assert eval_approximator(approx, x) == (x & 1)

    def test_table_matches_pointwise_eval(self):
        rng = random.Random(3)
        for k in (1, 2):
            approx = self.manual(random_table(3, rng), [2, -1, 1, 1, -3],
                                 [[rng.randrange(8) for _ in range(k)] for _ in range(5)])
            t = approximator_table(approx)
            for x in range(8):
                assert (t.bits >> x) & 1 == eval_approximator(approx, x)

    def test_accumulation_matches_direct_sum(self, monkeypatch):
        rng = random.Random(4)
        shapes = [
            self.manual(table_of(2, [1]), [1, 1], [(0,), (0,)]),
            self.manual(table_of(2, [1]), [1], [(1,)]),
            self.manual(table_of(2, [1, 2]), [1, -1], [(0,), (0,)]),  # a tie everywhere
            self.manual(table_of(3, [1, 2]), [1], [(2,)]),
            self.manual(random_table(3, rng), [2, -1, 1, 1, -3],
                        [(rng.randrange(8),) for _ in range(5)]),
            self.manual(random_table(7, rng), [3, -3, 1, 2, -1, 3, -2],
                        [(rng.randrange(128), rng.randrange(128)) for _ in range(7)]),
        ]
        order_two = shapes[-1]
        for n in (8, 10):  # order 1, mixed signs, some directions drawn twice
            size = 1 << n
            coeffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(20)]
            shapes.append(self.manual(random_table(n, rng), coeffs,
                                      [(rng.randrange(size // 8),) for _ in range(20)]))
        shapes += [
            self.manual(table_of(1, [1]), [2, -1], [(1,), (0,)]),  # n=1
            self.manual(table_of(1, []), [1, 1, 1], [(1,), (1,), (0,)]),  # all-ones base
            self.manual(table_of(4, [1], [2]), [3, 1], [(0,), (0,)]),  # direction 0 only
            self.manual(table_of(4, [1, 2], [3]), [2, -2, 5, -5, 1],  # cancelling repeats
                        [(6,), (6,), (9,), (9,), (9,)]),
            self.manual(FunctionTable.ones(5), [1, -2, 3], [(7,), (30,), (0,)]),
            self.manual(FunctionTable.ones(3), [1, -1], [(5,), (5,)]),  # cancel to 0
        ]
        for approx in shapes:
            expected = direct_accumulation(approx)
            assert _signed_accumulation(approx).tolist() == expected
            assert _derived_accumulation(approx).tolist() == expected
        monkeypatch.setattr(derivatives, "CHUNK_BITS", 2 * 128)  # two tables per chunk
        assert _signed_accumulation(order_two).tolist() == direct_accumulation(order_two)

    def test_order_one_build_matches_the_derived_tables(self):
        # The benchmark's shape: x1 x2 (x3 + x5) at n=12, m = 44,362 samples.
        n = 12
        f = anf_to_table(AnfPolynomial.from_variable_lists(n, [[1, 2, 3], [1, 2, 5]]))
        params = ApproximatorParams(k=1, eps=Fraction(1, 2), delta=Fraction(1, 32), seed=7)
        approx = build_approximator(f, params).approximator
        assert approx.m == 44362
        assert np.array_equal(_signed_accumulation(approx), _derived_accumulation(approx))

    def test_walsh_hadamard_matches_its_definition(self):
        rng = random.Random(8)
        for n in range(0, 6):
            values = [rng.randint(-9, 9) for _ in range(1 << n)]
            spectrum = transforms.walsh_hadamard(np.array(values, dtype=np.int64), n)
            assert spectrum.tolist() == [
                sum(v * (-1) ** (u & x).bit_count() for x, v in enumerate(values))
                for u in range(1 << n)]

    def test_accumulation_refuses_int64_overflow(self):
        # 2^62 + 2^62 would wrap to -2^63 and give the all-ones table; the bound
        # is 2^n * sum |s_i| at k=1 and sum |s_i| at k >= 2, checked before any sum.
        base = table_of(2, [1])
        for coeffs, k in (((2**62, 2**62), 1), ((2**60, 2**60), 1), ((2**62, -2**62), 2)):
            approx = self.manual(base, coeffs, [(0,) * k, (0,) * k])
            with pytest.raises(InputError, match="int64"):
                approximator_table(approx)
        for coeffs, k in (((2**60, -(2**60 - 1)), 1), ((2**62, 2**62 - 1), 2)):
            approx = self.manual(base, coeffs, [(1,) * k, (2,) * k])
            assert _signed_accumulation(approx).tolist() == direct_accumulation(approx)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("coeffs", [(-2**63, 1), (2**63 - 1, 1)])
    def test_accumulation_bound_is_exact_at_the_int64_ends(self, k, coeffs):
        # np.abs(-2^63) wraps to -2^63 and an int64 sum of these wraps; the
        # bound, sum |s_i| = 2^63 + 1 or 2^63, must still reach 2^63.
        approx = self.manual(table_of(2, [1]), coeffs, [(0,) * k, (1,) * k])
        with pytest.raises(InputError, match="int64"):
            approximator_table(approx)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("bad", [-1, 8])
    def test_accumulation_rejects_out_of_range_directions(self, k, bad):
        approx = self.manual(table_of(3, [1]), [1, 1], [(1,) * k, (bad,) * k])
        with pytest.raises(InputError, match="out of range"):
            approximator_table(approx)


class TestCandidate:
    def test_zero_received_gives_table(self):
        f = table_of(3, [1, 2, 3])
        result = build_approximator(f, small_params())
        assert candidate_from_received(
            result.approximator, FunctionTable.zero(3)
        ) == approximator_table(result.approximator)

    def test_zero_approximator_gives_received(self):
        result = build_approximator(FunctionTable.zero(3), small_params())
        received = table_of(3, [1], [2, 3])
        assert candidate_from_received(result.approximator, received) == received

    def test_rejects_mismatched_n(self):
        result = build_approximator(FunctionTable.zero(3), small_params())
        with pytest.raises(InputError):
            candidate_from_received(result.approximator, FunctionTable.zero(4))


class TestUniqueDecode:
    def test_codeword_decodes_to_itself(self):
        code = CodeParams(4, 2)
        p = AnfPolynomial.from_variable_lists(4, [[1, 2], [3]])
        g = anf_to_table(p)
        for backend in ("exhaustive", "majority"):
            assert unique_decode_within(g, code, Fraction(1, 16), backend=backend) == p

    def test_flips_below_radius_recovered(self):
        code = CodeParams(5, 2)
        p = AnfPolynomial.from_variable_lists(5, [[1, 3], [2]])
        bits = anf_to_table(p).bits ^ 0b1001  # two flipped points, 2/32 < 1/8
        g = FunctionTable(5, bits)
        radius = Fraction(1, 8) - Fraction(1, 32)
        for backend in ("exhaustive", "majority"):
            assert unique_decode_within(g, code, radius, backend=backend) == p

    def test_far_word_returns_none(self):
        # weight-3 word at n=4, d=1: nearest affine functions are the zero
        # function at 3/16 and weight-8 functions at >= 5/16, both over 1/8
        code = CodeParams(4, 1)
        g = FunctionTable(4, 0b111)
        assert unique_decode_within(g, code, Fraction(1, 8)) is None

    def test_radius_gate(self):
        with pytest.raises(RadiusError):
            unique_decode_within(FunctionTable.zero(4), CodeParams(4, 2),
                                 Fraction(1, 8))

    def test_rejects_mismatched_n(self):
        with pytest.raises(InputError):
            unique_decode_within(FunctionTable.zero(3), CodeParams(4, 2),
                                 Fraction(1, 32))

    def test_backends_agree_on_corpus(self, rng: random.Random):
        for n, d in [(4, 2), (5, 2), (6, 1), (6, 2)]:
            code = CodeParams(n, d)
            masks = code.monomial_masks()
            radius = Fraction(1, 1 << (d + 2))
            for trial in range(3):
                sel = [m for m in masks if rng.random() < 0.4]
                p = AnfPolynomial(n, frozenset(sel))
                bits = anf_to_table(p).bits
                flips = rng.sample(range(1 << n),
                                   (radius.numerator * (1 << n))
                                   // radius.denominator)
                for v in flips:
                    bits ^= 1 << v
                g = FunctionTable(n, bits)
                exh = unique_decode_within(g, code, radius, backend="exhaustive")
                maj = unique_decode_within(g, code, radius, backend="majority")
                assert exh == maj == p

    def test_float_radius(self):
        code = CodeParams(5, 2)
        p = AnfPolynomial.from_variable_lists(5, [[1, 3], [2]])
        g = FunctionTable(5, anf_to_table(p).bits ^ 0b1)  # 1/32 < 0.05
        for backend in ("exhaustive", "majority"):
            assert unique_decode_within(g, code, 0.05, backend=backend) == p

    def test_negative_radius_rejected_by_both_backends(self):
        for backend in ("exhaustive", "majority"):
            with pytest.raises(InputError):
                unique_decode_within(FunctionTable.zero(4), CodeParams(4, 2),
                                     Fraction(-1, 16), backend=backend)

    def test_backends_agree_on_float_radius(self):
        # 0.0625 = 1/16 admits one flip of 16; 0.06 admits none.
        code = CodeParams(4, 1)
        p = AnfPolynomial.from_variable_lists(4, [[1], [3]])
        g = FunctionTable(4, anf_to_table(p).bits ^ 0b100)
        for radius, expected in [(0.0625, p), (0.06, None)]:
            results = {unique_decode_within(g, code, radius, backend=backend)
                       for backend in ("exhaustive", "majority")}
            assert results == {expected}

    def test_unknown_backend(self):
        with pytest.raises(InputError):
            unique_decode_within(FunctionTable.zero(4), CodeParams(4, 2),
                                 Fraction(1, 32), backend="nope")

    def test_exhaustive_dimension_cap(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("scanned past the dimension cap")

        monkeypatch.setattr(scan, "weight_blocks", no_scan)
        with pytest.raises(ScaleError):  # 2^42 codewords
            unique_decode_within(FunctionTable.zero(6), CodeParams(6, 3), Fraction(1, 32),
                                 backend="exhaustive")

    def test_auto_backend_switches_past_the_decode_dimension(self, monkeypatch):
        chosen = []
        monkeypatch.setattr(approximator, "_decode_exhaustive",
                            lambda *args: chosen.append("exhaustive"))
        monkeypatch.setattr(approximator, "_decode_majority",
                            lambda *args: chosen.append("majority"))
        # Dimension 11, then 12.
        for n, d in [(10, 1), (11, 1)]:
            unique_decode_within(FunctionTable.zero(n), CodeParams(n, d), Fraction(1, 1 << (d + 2)))
        assert chosen == ["exhaustive", "majority"]

    def test_auto_backend_decodes_past_the_scan_word_cap(self):
        # Dimension 21, but a scan of 2^35 words: auto must not pick the scan.
        code = CodeParams(20, 1)
        rng = random.Random(20)
        planted = AnfPolynomial(20, frozenset(m for m in code.monomial_masks()
                                              if rng.getrandbits(1)))
        received = anf_to_table(planted).bits
        for v in rng.sample(range(code.block_length), 5):
            received ^= 1 << v
        assert unique_decode_within(FunctionTable(20, received), code,
                                    Fraction(1, 8)) == planted


def loop_decode_majority(g: FunctionTable, params: CodeParams, radius: Fraction,
                         ties: list[int]) -> AnfPolynomial | None:
    """Oracle: majority-logic decoding with one Python loop over the points per
    monomial; appends every monomial whose vote is tied to ``ties``."""
    n, size = params.n, g.size
    residual = g.bits
    recovered: set[int] = set()
    for deg in range(params.d, 0, -1):
        layer: list[int] = []
        for mask in (m for m in range(size) if m.bit_count() == deg):
            comp = (size - 1) ^ mask
            par = bytearray(size)
            for v in range(size):
                par[v & comp] ^= (residual >> v) & 1
            votes = total = 0
            sub = comp
            while True:
                votes += par[sub]
                total += 1
                if sub == 0:
                    break
                sub = (sub - 1) & comp
            if 2 * votes > total:
                layer.append(mask)
            elif 2 * votes == total:
                ties.append(mask)
        for mask in layer:
            residual ^= monomial_table(n, mask)
            recovered.add(mask)
    if residual.bit_count() > size // 2:
        recovered.add(0)
    p = AnfPolynomial(n, frozenset(recovered))
    if distance(g, anf_to_table(p)) <= radius:
        return p
    return None


class TestMajorityAgainstLoop:
    def test_seeded_corpus(self):
        # Noise up to the radius, up to twice it, and up to a quarter of the points.
        rng = random.Random(41)
        ties: list[int] = []
        results = []
        for n in range(1, 11):
            for d in range(1, n):
                code = CodeParams(n, d)
                masks = code.monomial_masks()
                radius = Fraction(1, 1 << (d + 1)) - Fraction(1, 1 << n)
                limit = (radius.numerator << n) // radius.denominator
                for flips in (limit, min(2 * limit + 1, 1 << (n - 1)), 1 << max(0, n - 2)):
                    for _ in range(1 if n >= 9 else 3):
                        p = AnfPolynomial(n, frozenset(m for m in masks if rng.random() < 0.5))
                        bits = anf_to_table(p).bits
                        for v in rng.sample(range(1 << n), rng.randint(0, flips)):
                            bits ^= 1 << v
                        g = FunctionTable(n, bits)
                        # Radius 1 (a budget of every point) keeps every decoded word,
                        # ties included.
                        decoded = loop_decode_majority(g, code, Fraction(1), ties)
                        assert approximator._decode_majority(g, code, g.size) == decoded
                        new = unique_decode_within(g, code, radius, backend="majority")
                        assert new == (decoded if distance(g, anf_to_table(decoded)) <= radius
                                       else None)
                        results.append(new)
        assert ties
        assert None in results
        assert any(r is not None for r in results)

    def test_seeded_corpus_across_chunk_boundaries(self, monkeypatch):
        # Batches of at most three tables: every degree's monomials span several
        # chunks.
        rng = random.Random(43)
        for n in range(1, 11):
            for d in range(1, n):
                code = CodeParams(n, d)
                masks = code.monomial_masks()
                radius = Fraction(1, 1 << (d + 1)) - Fraction(1, 1 << n)
                limit = (radius.numerator << n) // radius.denominator
                for flips in (limit, min(2 * limit + 1, 1 << (n - 1))):
                    p = AnfPolynomial(n, frozenset(m for m in masks if rng.random() < 0.5))
                    bits = anf_to_table(p).bits
                    for v in rng.sample(range(1 << n), flips):
                        bits ^= 1 << v
                    g = FunctionTable(n, bits)
                    decoded = loop_decode_majority(g, code, Fraction(1), [])
                    if flips <= limit:
                        assert decoded == p
                    monkeypatch.setattr(derivatives, "CHUNK_BITS", 3 << n)
                    assert approximator._decode_majority(g, code, g.size) == decoded

    @pytest.mark.parametrize("n", [16, 20])
    def test_planted_second_order_words(self, n):
        # As many random flips as the radius 1/8 - 2^-n admits, 2^(n-3) - 1:
        # the planted RM(n, 2) word comes back.
        rng = random.Random(n)
        code = CodeParams(n, 2)
        p = AnfPolynomial(n, frozenset(m for m in code.monomial_masks() if rng.getrandbits(1)))
        noise = np.zeros(1 << n, dtype=np.uint8)
        noise[rng.sample(range(1 << n), (1 << (n - 3)) - 1)] = 1
        g = FunctionTable(n, anf_to_table(p).bits ^ scan.from_point_bits(noise))
        radius = Fraction(1, 8) - Fraction(1, 1 << n)
        assert unique_decode_within(g, code, radius, backend="majority") == p


class TestSerialization:
    def test_round_trip(self):
        # The written record holds everything the majority needs: an
        # approximator rebuilt from it and the base has the same table.
        f = table_of(4, [1, 2, 3])
        result = build_approximator(f, small_params(seed=9))
        approx = result.approximator
        record = json.loads(approximator_json(approx, result.achieved_distance,
                                              result.retries_used))
        assert "tables" not in record
        rebuilt = SampledApproximator(
            n=record["n"], k=record["k"], seed=record["seed"], base=f,
            directions=tuple(tuple(s["directions"]) for s in record["samples"]),
            coefficients=tuple(s["coefficient"] for s in record["samples"]),
        )
        assert rebuilt == approx
        assert approximator_table(rebuilt) == approximator_table(approx)

    def test_round_trip_order_two(self):
        rng = random.Random(6)
        approx = SampledApproximator(
            n=4, k=2, seed=1, base=table_of(4, [1, 2, 3]),
            directions=tuple((rng.randrange(16), rng.randrange(16)) for _ in range(9)),
            coefficients=tuple(rng.randint(-3, 3) for _ in range(9)),
        )
        assert approximator_table(approx) == dense_table(approx)

    def test_table_bits_cap(self):
        # m = 17745 tables of 2^20 bits pass the 2^32-bit cap; nothing is built.
        # The need, 2^34.1 bits, is reported rounded up.
        params = ApproximatorParams(k=1, eps=Fraction(1, 2), delta=Fraction(1, 4), seed=0)
        with pytest.raises(ScaleError, match=r"^approximator at m=17745, n=20 capped at "
                                             r"2\^32 derived table bits \(needs 2\^35\)$"):
            build_approximator(FunctionTable.zero(20), params)

    def test_json_matches_json_dumps(self):
        def expected_json(approx, achieved, retries):
            record = serialize_approximator(approx)
            record["achieved_distance"] = str(achieved)
            record["retries_used"] = retries
            return json.dumps(record, sort_keys=True, indent=2) + "\n"

        def direction(n):
            # Every length below 2^n: 1 to 10 decimal digits at n = 30.
            digits = rng.randint(1, len(str((1 << n) - 1)))
            return rng.randrange(10 ** (digits - 1) if digits > 1 else 0,
                                 min(10 ** digits, 1 << n))

        def coefficient():
            return rng.choice((0, 1, -1, 10**6, -(10**6), rng.randint(-40, 40)))

        rng = random.Random(5)
        for n in (5, 30):
            for k in range(0, 4):
                for m in (0, 1, 2, 6, 1000):
                    approx = SampledApproximator(
                        n=n, k=k, seed=rng.getrandbits(20), base=FunctionTable.zero(n),
                        directions=tuple(tuple(direction(n) for _ in range(k))
                                         for _ in range(m)),
                        coefficients=tuple(coefficient() for _ in range(m)),
                    )
                    achieved, retries = Fraction(rng.randrange(32), 32), rng.randint(1, 10)
                    assert (approximator_json(approx, achieved, retries)
                            == expected_json(approx, achieved, retries))
        # The benchmark's size: n=12, k=1, m=44,362.
        params = ApproximatorParams(k=1, eps=Fraction(1, 2), delta=Fraction(1, 32), seed=71)
        result = build_approximator(table_of(12, [1, 2, 3], [1, 2, 7]), params)
        assert result.approximator.m == 44362
        assert (approximator_json(result.approximator, result.achieved_distance,
                                  result.retries_used)
                == expected_json(result.approximator, result.achieved_distance,
                                 result.retries_used))


def test_end_to_end_small_pipeline():
    # build on p itself, decode the approximator table back to p's ANF
    n, d = 6, 3
    code = CodeParams(n, d)
    p = AnfPolynomial.from_variable_lists(n, [[1, 2, 3]])
    f = anf_to_table(p)
    params = ApproximatorParams(k=1, eps=Fraction(1, 2), delta=Fraction(1, 32), seed=3)
    result = build_approximator(f, params)
    assert result.achieved_distance <= Fraction(1, 32)
    g = approximator_table(result.approximator)
    assert unique_decode_within(g, code, Fraction(1, 32)) == p


def test_end_to_end_received_word():
    # p plus sparse noise; approximate g = p - received, then shift back
    n, d = 6, 3
    code = CodeParams(n, d)
    p = AnfPolynomial.from_variable_lists(n, [[1, 2, 3]])
    ptab = anf_to_table(p)
    noise = 0b1000000010  # 2 of 64 points
    received = FunctionTable(n, ptab.bits ^ noise)
    diff = xor_tables(ptab, received)
    params = ApproximatorParams(k=1, eps=Fraction(1, 2), delta=Fraction(1, 32), seed=4)
    result = build_approximator(diff, params)
    candidate = candidate_from_received(result.approximator, received)
    assert distance(candidate, ptab) <= Fraction(1, 32)
    decoded = unique_decode_within(candidate, code, Fraction(1, 32))
    assert decoded == p
    assert table_to_anf(ptab) == decoded
