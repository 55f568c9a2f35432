"""Tests of the benchmark itself: tiny workloads pass the gate, the gate catches
faults, and the traced run reports consistent spans.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import harness

harness.import_rmlist()

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_the_gate(name, tmp_path):
    outcome = harness.run_pass(workloads.build(name, 7, "tiny", tmp_path))
    assert outcome.samples
    assert [(s.label, s.error) for s in outcome.samples if s.error] == []


def test_corrupted_reference_digest_fails_its_job(tmp_path):
    reference = workloads.load_reference()
    reference["digests"]["grm-enum q=3 n=2 d=2"] = "0" * 64
    outcome = harness.run_pass(workloads.build("grm-enum", 7, "tiny", tmp_path, reference))
    assert [s.label for s in outcome.samples if s.error] == ["grm enum q=3 n=2 d=2"]


def test_wrong_planted_codeword_fails_its_job():
    n, d, radius = 4, 2, Fraction(1, 16)
    planted = frozenset({0b0011, 0b0100})
    received = oracle.codeword_table(n, planted) ^ 1
    jobs = [
        workloads.decode_job("right", received, n, d, radius, "exhaustive", planted),
        workloads.decode_job("wrong", received, n, d, radius, "exhaustive", planted | {0}),
    ]
    outcome = harness.run_pass(jobs)
    assert [s.error is None for s in outcome.samples] == [True, False]


def test_raising_job_counts_as_failed():
    def boom():
        raise RuntimeError("boom")

    outcome = harness.run_pass([harness.Job("boom", boom, lambda result: None)])
    assert "boom" in outcome.samples[0].error


def test_traced_pass_reports_every_layer_with_consistent_self_times(tmp_path):
    jobs = [job for name in workloads.WORKLOADS
            for job in workloads.build(name, 3, "tiny", tmp_path / name)]
    from rmlist import cli, listdecode

    original = listdecode.ball_size
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert listdecode.ball_size is not original
        outcome = harness.run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    assert listdecode.ball_size is original and not hasattr(cli.main, "__wrapped__")
    assert all(s.error is None for s in outcome.samples)
    assert tracer.self_time_violations() == 0
    metrics = tracer.metrics(1)
    assert set(metrics) | {"trace.overhead_s"} == set(tracing.PER_LAYER)
    for name in ["enumeration.codewords", "listdecode.ball_size_calls", "listdecode.members",
                 "boolfunc.translate_calls", "derivatives.tuples_checked",
                 "approximator.samples_attempted", "approximator.decode_exhaustive_s",
                 "approximator.decode_majority_s", "grm.codewords", "grm.evaluate_table_s",
                 "cli.self_s", "formats.render_s", "manifest.bytes_hashed"]:
        assert metrics[name] > 0, name
    assert metrics["approximator.useful_ratio"] == 1
    assert 0 < metrics["enumeration.pool_efficiency"]
    assert 0 < metrics["listdecode.hit_ratio"] <= 1
    path = tmp_path / "spans.npz"
    tracer.write(path)
    spans = np.load(path)
    assert len(spans["name"]) == len(tracer.span_name)
    assert (spans["end"] >= spans["start"]).all()


def test_tail_percentile_leaves_ten_jobs_of_one_pass_beyond_it():
    assert harness.tail_percentile(105) == 90.0
    assert harness.tail_percentile(99) == 75.0
    assert harness.tail_percentile(1000) == 99.0
    assert harness.tail_percentile(12) == 50.0
    assert harness.nearest_rank([float(v) for v in range(1, 101)], 90.0) == 90.0


def test_speed_factor_is_one_at_reference_speed_and_takes_the_square_root():
    assert harness.speed_factor(harness.CALIBRATION_REFERENCE_S) == 1
    assert harness.speed_factor(4 * harness.CALIBRATION_REFERENCE_S) == pytest.approx(0.5)
    assert 0 < harness.calibration_sample() < 1


def test_oracle_ball_counts_match_known_weight_distributions():
    # RM(4,1): one zero word, 30 of weight 8, the all-ones word.
    assert oracle.ball_size(4, 1, 0, Fraction(1, 2)) == 31
    # RM(6,2) has 2604 words of weight 16 (its minimum distance).
    reference = workloads.load_reference()["distributions"]["6,2"]
    assert oracle.accumulative({int(w): c for w, c in reference.items()}, Fraction(1, 4), 6) == 2605
    assert sum(reference.values()) == 1 << oracle.dimension(6, 2)
    for n, d in [(3, 1), (4, 2), (5, 2)]:
        words = oracle.all_codewords(n, d)
        assert len(set(words.tolist())) == 1 << oracle.dimension(n, d)


def test_order1_majority_matches_the_direct_sum():
    n, f_bits = 5, 0b1000_0000_0100_0000_0000_0001_0000_0110
    directions = [3, 7, 7, 19, 30, 0, 12]
    expected = 0
    for x in range(1 << n):
        fx = (f_bits >> x) & 1
        total = sum(1 - 2 * (fx ^ ((f_bits >> (x ^ a)) & 1)) for a in directions)
        expected |= (total < 0) << x
    assert oracle.order1_majority(n, f_bits, directions, 1) == expected


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(harness.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grm-enum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
