"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Expected values marked as
derived were computed with the independent oracles that appear inline (or in
the module test files) rather than taken on faith.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from rmlist import (
    AnfPolynomial,
    ApproximatorParams,
    CodeParams,
    FunctionTable,
    GrmParams,
    GrmPolynomial,
    accumulative,
    accumulative_weight_bound,
    anf_to_table,
    ball,
    ball_size,
    bias,
    bias_scaling_scan,
    build_approximator,
    check_bias_bounds,
    construct_grm_family,
    construct_low_weight_family,
    degree,
    distance,
    enumerate_weights,
    estimate_list_size,
    grm_bias,
    grm_enumerate_weights,
    grm_weight,
    list_size_bound,
    monomial_table,
    unique_decode_within,
    verify_derivative_representation,
    verify_single_derivative_exhaustive,
    weight,
    weight_thresholds,
    xor_tables,
)
from rmlist.approximator import approximator_table
from rmlist.cli import main
from rmlist.formats import enumerator_csv, write_function_file

from conftest import random_table, random_table_below_weight
from oracles import grm_distance, grm_table_of


def report(num: int, description: str, checks: dict[str, bool]) -> None:
    ok = all(checks.values())
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status} - {description}")
    failed = [name for name, good in checks.items() if not good]
    assert ok, f"criterion {num}: failed checks: {failed}"


def test_criterion_01_single_derivative_identity_exhaustive():
    start = time.perf_counter()
    sweep = verify_single_derivative_exhaustive(4)
    elapsed = time.perf_counter() - start
    checks = {
        "deviation_zero": sweep.max_deviation == 0,
        "all_functions_covered": sweep.functions_checked + sweep.zero_bias_skipped
        == 1 << 16,
        "nonzero_bias_count": sweep.functions_checked == 52666,
        "runtime_under_30s": elapsed < 30,
    }
    report(1, f"single-derivative identity, all 2^16 functions at n=4 "
              f"({elapsed:.1f}s)", checks)


def _low_weight_corpus(n: int, k: int, eps: Fraction, count: int, seed: int):
    rng = random.Random(seed)
    cap = int((1 << n) * (1 - eps)) >> k
    corpus = []
    while len(corpus) < count:
        f = random_table_below_weight(n, cap + 1, rng)
        if weight(f) < Fraction(1, 1 << k) * (1 - eps):
            corpus.append(f)
    return corpus


def test_criterion_02_derivative_representation_random_corpus():
    start = time.perf_counter()
    eps = Fraction(3, 10)
    bound = Fraction(10) / eps
    checked = 0
    all_zero = True
    all_bounded = True
    for k in (1, 2):
        for f in _low_weight_corpus(6, k, eps, 100, seed=1000 + k):
            r = verify_derivative_representation(f, k, eps)
            all_zero &= r.max_deviation == 0
            all_bounded &= r.max_abs_coefficient <= bound
            checked += 1
    hand = verify_derivative_representation(
        anf_to_table(AnfPolynomial.from_variable_lists(3, [[1, 2, 3]])),
        2, Fraction(1, 4),
    )
    elapsed = time.perf_counter() - start
    checks = {
        "at_least_200_functions": checked >= 200,
        "all_deviations_zero": all_zero,
        "all_coefficients_bounded": all_bounded,
        "hand_instance_zero": hand.max_deviation == 0,
        "runtime_under_2min": elapsed < 120,
    }
    report(2, f"derivative representation on {checked} random n=6 functions "
              f"({elapsed:.1f}s)", checks)


def test_criterion_03_bias_lower_bounds_on_corpus():
    eps = Fraction(3, 10)
    violations = 0
    exhaustive = True
    eps_floor_ok = True
    for k in (1, 2):
        for f in _low_weight_corpus(6, k, eps, 100, seed=1000 + k):
            r = check_bias_bounds(f, k, eps)
            violations += r.violation_count
            exhaustive &= r.exhaustive
            last = r.checks[k - 1]
            eps_floor_ok &= last.bound >= eps and last.min_bias >= eps
    checks = {
        "zero_violations": violations == 0,
        "exhaustive_prefixes": exhaustive,
        "final_prefix_reaches_eps": eps_floor_ok,
    }
    report(3, "prefix bias lower bounds on the same corpus", checks)


def _naive_counts(params: CodeParams) -> dict[int, int]:
    tables = [monomial_table(params.n, m) for m in params.monomial_masks()]
    counts: dict[int, int] = {}
    for sel in range(1 << len(tables)):
        bits = 0
        for j, t in enumerate(tables):
            if (sel >> j) & 1:
                bits ^= t
        w = bits.bit_count()
        counts[w] = counts.get(w, 0) + 1
    return counts


def test_criterion_04_enumerator_correctness():
    checks = {}
    for n, d in ((4, 2), (3, 3)):
        params = CodeParams(n, d)
        enum = enumerate_weights(params)
        tag = f"rm({n},{d})"
        checks[f"{tag}_matches_naive_oracle"] = enum.counts == _naive_counts(params)
        checks[f"{tag}_total"] = enum.total() == 1 << params.dimension
        checks[f"{tag}_complement_symmetry"] = all(
            enum.multiplicity(params.block_length - w) == c
            for w, c in enum.counts.items()
        )
        checks[f"{tag}_min_weight"] = enum.min_positive_weight() == 1 << (n - d)
        checks[f"{tag}_unique_below_min_distance"] = (
            accumulative(enum, Fraction(1, 1 << d) - Fraction(1, 10**6)) == 1
        )
    report(4, "exact enumerators vs naive oracle on RM(4,2), RM(3,3)", checks)


def test_criterion_05_low_weight_family():
    fam = construct_low_weight_family(6, 2, 1)
    weights_ok = degrees_ok = True
    for p in fam.members:
        t = anf_to_table(p)
        weights_ok &= weight(t) == Fraction(1, 2)
        degrees_ok &= degree(t) <= 2
    fam52 = construct_low_weight_family(5, 2, 2, limit=16)
    w52 = all(weight(anf_to_table(p)) == Fraction(1, 4) for p in fam52.members)
    a_quarter = accumulative(enumerate_weights(CodeParams(5, 2)), Fraction(1, 4))
    checks = {
        "weights_exactly_half": weights_ok,
        "degrees_within_two": degrees_ok,
        "distinct_count_at_least_1024": fam.distinct_count >= 1 << 10,
        "weights_quarter_at_5_2_2": w52,
        "accumulative_dominates_family": a_quarter >= fam52.distinct_count,
    }
    report(5, "low-weight family constructions at (6,2,1) and (5,2,2)", checks)


def test_criterion_06_bound_sandwich_and_sharding():
    eps = Fraction(1, 2)
    alpha = Fraction(1, 2) * (1 - eps)
    checks = {}
    start = time.perf_counter()
    enum6 = enumerate_weights(CodeParams(6, 2))
    single_shard = time.perf_counter() - start
    checks["rm62_single_shard_under_10s"] = single_shard < 10
    for n, enum in ((5, enumerate_weights(CodeParams(5, 2))), (6, enum6)):
        a_count = accumulative(enum, alpha)
        a_bound = accumulative_weight_bound(n, 2, 1, eps)
        l_bound = list_size_bound(n, 2, 1, eps)
        strategy = "family" if n == 5 else "random"
        est = estimate_list_size(alpha, CodeParams(n, 2), strategy=strategy,
                                 count=2, seed=6)
        checks[f"n{n}_accumulative_below_bound"] = a_count <= a_bound.value
        checks[f"n{n}_estimate_below_list_bound"] = est.best_size <= l_bound.value
        checks[f"n{n}_estimate_at_least_accumulative"] = est.best_size >= a_count
    base_csv = enumerator_csv(enum6)
    for workers in (2, 4, 8):
        sharded = enumerate_weights(CodeParams(6, 2), shards=8, workers=workers)
        checks[f"sharded_{workers}_workers_byte_identical"] = (
            enumerator_csv(sharded) == base_csv
        )
    report(6, f"desk-scale bound sandwich, RM(6,2) enumeration "
              f"{single_shard:.1f}s single-shard", checks)


def test_criterion_07_approximator_end_to_end():
    start = time.perf_counter()
    n, d = 8, 3
    code = CodeParams(n, d)
    p = AnfPolynomial.from_variable_lists(n, [[1, 2, 3]])
    f = anf_to_table(p)
    params = ApproximatorParams(k=1, eps=Fraction(1, 2), delta=Fraction(1, 32),
                                seed=20260810, retry_budget=10)
    result = build_approximator(f, params)
    table = approximator_table(result.approximator)
    decoded = unique_decode_within(table, code, Fraction(1, 32))
    elapsed = time.perf_counter() - start
    checks = {
        "build_within_budget": result.retries_used <= 10,
        "achieved_within_delta": result.achieved_distance <= Fraction(1, 32),
        "distance_definitional": distance(f, table) == result.achieved_distance,
        "majority_decode_recovers_anf": decoded == p,
        "runtime_under_2min": elapsed < 120,
    }
    report(7, f"approximator end-to-end at n=8, d=3 ({elapsed:.1f}s, "
              f"m={result.approximator.m})", checks)


def test_criterion_08_list_decoding_exactness():
    params = CodeParams(4, 2)
    enum = enumerate_weights(params)
    zero_ball = ball(FunctionTable.zero(4), Fraction(1, 4), params)

    # independent oracle for the tiny exhaustive list size: all centers, all
    # codewords, direct distance evaluation
    code11 = [(0, 0), (1, 1), (0, 1), (1, 0)]
    oracle_best = 0
    for c0, c1 in itertools.product((0, 1), repeat=2):
        size = sum(
            1
            for w in code11
            if Fraction((w[0] != c0) + (w[1] != c1), 2) <= Fraction(1, 2)
        )
        oracle_best = max(oracle_best, size)
    est = estimate_list_size(Fraction(1, 2), CodeParams(1, 1), strategy="exhaustive")

    rng = random.Random(88)
    monotone = symmetric = True
    codeword = anf_to_table(AnfPolynomial.from_variable_lists(4, [[1, 2], [3]]))
    for _ in range(50):
        center = random_table(4, rng)
        small = {p.monomials for p, _ in ball(center, Fraction(3, 16), params).members}
        large = {p.monomials for p, _ in ball(center, Fraction(5, 16), params).members}
        monotone &= small <= large
        shifted = xor_tables(center, codeword)
        symmetric &= ball_size(center.bits, Fraction(1, 4), params) == ball_size(
            shifted.bits, Fraction(1, 4), params
        )
    checks = {
        "min_distance_ball_size": zero_ball.size == 1 + enum.multiplicity(4),
        "exhaustive_equals_oracle": est.best_size == oracle_best,
        "oracle_value_is_three": oracle_best == 3,
        "monotone_in_radius": monotone,
        "linearity_symmetry": symmetric,
    }
    report(8, "list-decoding balls: exactness, monotonicity, symmetry", checks)


def test_criterion_09_grm_suite():
    checks = {}
    for d in range(2, 6):
        rows = {t.k: t.value for t in weight_thresholds(2, d)}
        edges_ok = rows[1] == Fraction(1, 2**d) and rows[d] == Fraction(1, 2)
        for k in range(2, d):
            edges_ok &= rows[k] == Fraction(1, 2 ** (d + 1 - k))
        checks[f"binary_thresholds_d{d}"] = edges_ok

    params = GrmParams(3, 2, 2)
    enum = grm_enumerate_weights(params)
    checks["ternary_code_size"] = enum.total() == 729
    checks["ternary_min_weight_is_r1"] = (
        Fraction(enum.min_positive_weight(), enum.block_length) == Fraction(1, 3)
    )
    identities = True
    exps = params.monomial_exponents()
    for coeffs in itertools.product(range(3), repeat=len(exps)):
        poly = GrmPolynomial(3, 2, {e: c for e, c in zip(exps, coeffs) if c})
        r = bias_scaling_scan(poly.evaluate_table())
        identities &= (r.mean_all_equals_one_minus_weight
                       and r.mean_nonzero_equals_scaled)
    checks["ternary_mean_bias_identities_all_729"] = identities

    for k in (1, 2):
        fam = construct_grm_family(3, 3, 2, k, limit=10)
        checks[f"ternary_construction_k{k}"] = all(
            grm_weight(t) == fam.claimed_weight for _, t in fam.members
        )

    rng = random.Random(9)
    consistent = True
    for _ in range(20):
        f = random_table(3, rng)
        g = random_table(3, rng)
        gf, gg = grm_table_of(f), grm_table_of(g)
        consistent &= grm_weight(gf) == weight(f)
        consistent &= grm_distance(gf, gg) == distance(f, g)
        consistent &= grm_bias(gf).real_part() == bias(f)
    consistent &= (
        grm_enumerate_weights(GrmParams(2, 4, 2)).counts
        == enumerate_weights(CodeParams(4, 2)).counts
    )
    checks["binary_consistency_suite"] = consistent
    report(9, "prime-field suite: thresholds, 729-codeword scan, constructions",
           checks)


def test_criterion_10_manifest_replay(tmp_path, monkeypatch):
    monkeypatch.delenv("RMLIST_OUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    write_function_file("center.txt", FunctionTable.zero(4))
    p = AnfPolynomial.from_variable_lists(4, [[1, 2, 3]])
    write_function_file("func.txt", anf_to_table(p))
    commands = {
        "enum.csv": ("enum", "--n", "5", "--d", "2", "--shards", "4",
                     "--out", "enum.csv"),
        "ball.csv": ("listdecode", "--center", "center.txt", "--alpha", "1/4",
                     "--n", "4", "--d", "2", "--out", "ball.csv"),
        "family.txt": ("construct", "--n", "6", "--d", "2", "--k", "1",
                       "--out", "family.txt"),
        "approx.json": ("approx", "--function", "func.txt", "--k", "1",
                        "--eps", "1/2", "--delta", "1/4", "--seed", "17",
                        "--out", "approx.json"),
        "grm_enum.csv": ("grm", "enum", "--q", "3", "--n", "2", "--d", "2",
                         "--out", "grm_enum.csv"),
    }
    checks = {}
    for name, argv in commands.items():
        assert main(list(argv)) == 0
        assert main(["replay", f"{name}.manifest.json", "--out-dir", "again"]) == 0
        checks[f"replay_{name}"] = (
            Path(name).read_bytes() == (Path("again") / name).read_bytes()
        )
        manifest = json.loads(Path(f"{name}.manifest.json").read_text())
        checks[f"manifest_fields_{name}"] = all(
            key in manifest
            for key in ("command", "params", "version", "started_utc",
                        "finished_utc", "outputs")
        )
    report(10, "manifests replay to byte-identical outputs", checks)
