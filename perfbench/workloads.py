"""The four benchmark workloads: seeded inputs, fixed job lists, exactness checks.

``build(name, seed, size, work)`` writes the workload's input files into
``work`` and returns its jobs. Size ``full`` is what a run measures; ``tiny``
is the warm-up pass and what the benchmark's own tests run. rmlist receives
only the generated files (CLI jobs) or values (library jobs). Every job has
a check, and a failed check fails the job:

* fixed-input jobs compare the output's sha256 with ``reference.json``,
  recorded from the seed commit, and their totals with 2^dim or q^dim;
* seeded jobs check invariants that hold for any seed against ``oracle``,
  which shares no code with rmlist.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from rmlist import approximator, cli, listdecode
from rmlist.boolfunc import CodeParams, FunctionTable

import oracle
from harness import Job, Mismatch

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Job lists are sized and mixed for steady percentiles. A full list has 100 to
# 105 jobs, so the tail is p90 (ten jobs of one pass beyond it). The jobs
# around rank 50% and around rank 90% each form a block of similar cost, with
# the percentile near the block's middle, so neither sits on a jump between
# two kinds of job.

# enum-scan: RM(6,2) (2^22 codewords) pooled at three shard counts and serial
# at two, twelve dimension-16 codes (the p90 block), and small codes at every
# shard count up to 32 (the p50 block). RM(5,3) (2^26) would be nearer the cap,
# but one 6-10 s call per pass leaves three samples in a run, too few for a
# steady median on a noisy 2-core machine.
ENUM_LARGE = {
    "full": [(6, 2, 4, 2), (6, 2, 8, 2), (6, 2, 16, 2), (6, 2, 1, 1), (6, 2, 2, 1)],
    "tiny": [(4, 2, 2, 2), (4, 3, 1, 1)],
}
ENUM_SMALL = {
    "full": [(4, 4), (5, 2), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2),
             (4, 3), (5, 1), (6, 1), (7, 1), (8, 1), (9, 1), (10, 1), (11, 1)],
    "tiny": [(2, 1), (3, 1), (3, 2)],
}
ENUM_SHARDS = {"full": (1, 2, 4, 8, 16, 32), "tiny": (1, 2, 4)}

# grm-enum: five codes of 2^14..2^17 codewords, twelve of 5^6 (the p90 block),
# then small enumerations, constructions, thresholds and seeded bias scans.
GRM_ENUM = {
    "full": [(7, 2, 2), (2, 5, 2), (3, 3, 2), (2, 4, 3), (3, 2, 4)] + [(5, 2, 2)] * 12
    + [(3, 2, 2), (2, 3, 2), (2, 4, 2), (3, 3, 1), (5, 3, 1), (7, 3, 1), (2, 6, 1),
       (3, 4, 1), (7, 2, 1), (2, 3, 3), (3, 2, 3), (5, 2, 1)],
    "tiny": [(3, 2, 2), (2, 3, 2)],
}
GRM_CONSTRUCT = {
    "full": [(3, 3, 2, 1), (3, 3, 2, 2), (3, 4, 3, 2), (5, 2, 3, 3), (5, 3, 2, 1),
             (7, 2, 3, 3)],
    "tiny": [(3, 3, 2, 1)],
}
GRM_THRESHOLDS = {"full": [(q, d) for q in (2, 3, 5, 7) for d in range(1, 6)],
                  "tiny": [(3, 2)]}
GRM_BIAS_SCANS = {"full": 50, "tiny": 1}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str
    out: Path

    def results(self) -> dict[str, str]:
        """The ``key: value`` lines the CLI prints."""
        return dict(line.split(": ", 1) for line in self.stdout.splitlines())


def call_cli(argv: list[str], out: Path) -> CliRun:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.main([*argv, "--out", str(out)])
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return CliRun(code, stdout.getvalue(), stderr.getvalue(), out)


def fail_unless(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def csv_rows(path: Path) -> list[list[str]]:
    """Data rows of a CSV with ``#`` metadata lines and one header line."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


class JobFactory:
    """Seeded input generation and job construction for one workload."""

    def __init__(self, seed: int, size: str, work: Path, reference: dict):
        self.rng = random.Random(seed)
        self.size = size
        self.work = work
        self.reference = reference
        work.mkdir(parents=True, exist_ok=True)

    def function_file(self, name: str, n: int, bits: int) -> Path:
        path = self.work / name
        path.write_text(f"n {n}\nbits {bits:0{max(1, (1 << n) // 4)}x}\n")
        return path

    def random_codeword(self, n: int, d: int) -> frozenset[int]:
        return frozenset(m for m in oracle.monomial_masks(n, d) if self.rng.getrandbits(1))

    def noise(self, n: int, flips: int) -> int:
        return sum(1 << v for v in self.rng.sample(range(1 << n), flips))

    def radius(self, n: int, choices) -> Fraction:
        return Fraction(self.rng.choice(choices), 1 << n)

    def cli_job(self, label: str, argv: list[str], out_name: str, check,
                digest_key: str | None = None) -> Job:
        out = self.work / out_name

        def checked(run: CliRun) -> None:
            fail_unless(run.code == 0, f"exit code {run.code}: {run.stderr.strip()[:300]}")
            digest = sha256(out)
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            fail_unless(manifest["outputs"] == {out.name: digest},
                        "manifest digest differs from the output's sha256")
            if digest_key is not None:
                expected = self.reference["digests"].get(digest_key)
                fail_unless(digest == expected,
                            f"sha256 {digest} differs from the reference {expected}")
            check(run)

        return Job(label, lambda: call_cli(argv, out), checked, digest_key)

    def accumulative(self, n: int, d: int, alpha: Fraction) -> int:
        """Codewords of weight <= alpha: brute force when small, else the reference enumerator."""
        if n <= 6 and oracle.dimension(n, d) <= oracle.BRUTE_FORCE_DIMENSION:
            return oracle.ball_size(n, d, 0, alpha)
        distribution = self.reference["distributions"][f"{n},{d}"]
        return oracle.accumulative({int(w): c for w, c in distribution.items()}, alpha, n)


# --------------------------------------------------------------------------- enum-scan

def enum_job(b: JobFactory, n: int, d: int, shards: int, workers: int) -> Job:
    alphas = [str(b.radius(n, range((1 << n) + 1))) for _ in range(2)]
    argv = ["enum", "--n", str(n), "--d", str(d), "--shards", str(shards),
            "--workers", str(workers)]
    for a in alphas:
        argv += ["--alpha", a]
    dim = oracle.dimension(n, d)

    def check(run: CliRun) -> None:
        rows = csv_rows(run.out)
        distribution = {int(w): int(c) for w, _, c in rows}
        fail_unless(sum(distribution.values()) == 1 << dim,
                    f"enumerator total differs from 2^{dim}")
        printed = run.results()
        for a in alphas:
            expected = oracle.accumulative(distribution, Fraction(a), n)
            fail_unless(printed.get(f"A({a})") == str(expected), f"A({a}) != {expected}")

    return b.cli_job(f"enum n={n} d={d} shards={shards} workers={workers}", argv,
                     f"enum-{n}-{d}-{shards}.csv", check, digest_key=f"enum n={n} d={d}")


def enum_scan(b: JobFactory) -> list[Job]:
    jobs = [enum_job(b, *spec) for spec in ENUM_LARGE[b.size]]
    for n, d in ENUM_SMALL[b.size]:
        for shards in ENUM_SHARDS[b.size]:
            if shards <= 1 << oracle.dimension(n, d):
                jobs.append(enum_job(b, n, d, shards, 1))
    return jobs


# --------------------------------------------------------------------------- list-size

def estimate_job(b: JobFactory, n: int, d: int, strategy: str, alpha: Fraction,
                 count: int = 64) -> Job:
    seed = b.rng.getrandbits(32)
    code = CodeParams(n, d)

    def run():
        return listdecode.estimate_list_size(alpha, code, strategy, count=count, seed=seed)

    def check(r) -> None:
        fail_unless(r.strategy == strategy and r.radius == alpha, "echoed parameters differ")
        floor = b.accumulative(n, d, alpha)
        if strategy == "zero":
            fail_unless(r.best_size == floor and r.centers_tried == 1,
                        f"zero-center list size {r.best_size} != A(alpha) = {floor}")
        else:
            fail_unless(r.best_size >= floor, f"list size {r.best_size} below A(alpha) = {floor}")
        actual = oracle.ball_size(n, d, r.best_center_bits, alpha)
        fail_unless(r.best_size == actual,
                    f"best center's ball has {actual} codewords, reported {r.best_size}")
        if strategy == "exhaustive":
            fail_unless(r.centers_tried == 1 << (1 << n), "exhaustive skipped centers")
            best = oracle.max_list_size(n, d, alpha)
            fail_unless(r.best_size == best, f"exhaustive maximum {r.best_size} != {best}")
        if strategy == "random":
            fail_unless(r.centers_tried == count + 1, "random strategy center count differs")

    return Job(f"estimate {strategy} n={n} d={d} alpha={alpha}", run, check)


def listdecode_job(b: JobFactory, n: int, d: int, alpha: Fraction, flips: int,
                   index: int = 0) -> Job:
    """Ball around a seeded codeword plus ``flips`` seeded errors."""
    center = oracle.codeword_table(n, b.random_codeword(n, d)) ^ b.noise(n, flips)
    center_file = b.function_file(f"center-{n}-{d}-{flips}-{index}.txt", n, center)
    argv = ["listdecode", "--center", str(center_file), "--alpha", str(alpha),
            "--n", str(n), "--d", str(d)]
    limit = oracle.limit_for(alpha, n)

    def check(run: CliRun) -> None:
        if flips == 0:  # a ball around a codeword is a translate of the ball around 0
            expected = b.accumulative(n, d, alpha)
        else:
            expected = oracle.ball_size(n, d, center, alpha)
        header = run.out.read_text().split("\n", 1)[0]
        fail_unless(header == f"# n={n},radius={alpha},members={expected}",
                    f"header {header!r}, expected {expected} members")
        seen = set()
        last = -1
        for count, rel, anf in csv_rows(run.out):
            masks = oracle.parse_anf(anf, n)
            fail_unless(all(m.bit_count() <= d for m in masks), f"member {anf} above degree {d}")
            dist = (oracle.codeword_table(n, masks) ^ center).bit_count()
            fail_unless(int(count) == dist and rel == str(Fraction(dist, 1 << n)),
                        f"member {anf} is at distance {dist}, listed {count}")
            fail_unless(last <= dist <= limit, f"member {anf} out of order or beyond radius")
            seen.add(masks)
            last = dist
        fail_unless(len(seen) == expected, f"{len(seen)} distinct members, expected {expected}")
        fail_unless(run.results().get("members") == str(expected), "printed member count")

    return b.cli_job(f"listdecode n={n} d={d} alpha={alpha} flips={flips} #{index}", argv,
                     f"ball-{n}-{d}-{flips}-{index}.csv", check)


def list_size(b: JobFactory) -> list[Job]:
    quarter, eighth = Fraction(1, 4), Fraction(1, 8)
    if b.size == "tiny":
        return [
            estimate_job(b, 3, 1, "exhaustive", b.radius(3, [2, 3])),
            estimate_job(b, 3, 2, "random", b.radius(3, [1, 2]), count=20),
            estimate_job(b, 4, 1, "family", b.radius(4, [4, 5]), count=4),
            estimate_job(b, 3, 1, "zero", b.radius(3, [1, 2, 3])),
            listdecode_job(b, 4, 2, quarter, 0),
            listdecode_job(b, 3, 1, quarter, 1),
        ]
    jobs = [
        estimate_job(b, 4, 1, "exhaustive", b.radius(4, [4, 5, 6])),
        estimate_job(b, 4, 2, "random", b.radius(4, [2, 3, 4]), count=2000),
        listdecode_job(b, 6, 2, quarter, 0),
    ]
    # p90 block: adversarial centers at radii around 1/4.
    jobs += [estimate_job(b, 5, 2, "family", b.radius(5, [7, 8, 9]), count=8)
             for _ in range(12)]
    # p50 block: balls around seeded RM(4,2) codewords, where the per-call set-up
    # (monomial tables, CLI, manifest) is most of the cost. Every such ball is a
    # translate of the ball around 0, so the seed moves the center, not the cost.
    jobs += [listdecode_job(b, 4, 2, quarter, 0, index) for index in range(58)]
    for n, d in [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (5, 1),
                 (6, 1)]:
        jobs.append(estimate_job(b, n, d, "zero", b.radius(n, range(1, 1 << (n - 1)))))
    for index, (n, d, flips, alpha) in enumerate(
            [(3, 1, 1, quarter), (3, 2, 1, quarter), (4, 1, 2, quarter), (4, 2, 1, quarter),
             (4, 3, 1, eighth), (5, 1, 3, quarter), (6, 1, 6, quarter),
             (6, 1, 10, Fraction(3, 8))] * 2 + [(4, 2, 2, quarter)]):
        jobs.append(listdecode_job(b, n, d, alpha, flips, index))
    return jobs


# --------------------------------------------------------------------------- derive-approx

def planted_low_weight(b: JobFactory, n: int) -> tuple[frozenset[int], int]:
    """x_i x_j (x_k + L): degree 3 and weight exactly 1/8 for any affine L off i, j, k."""
    i, j, k = b.rng.sample(range(n), 3)
    prefix = (1 << i) | (1 << j)
    rest = [v for v in range(n) if v not in (i, j, k)]
    masks = {prefix | (1 << k)}
    masks.update(prefix | (1 << v) for v in rest if b.rng.getrandbits(1))
    if b.rng.getrandbits(1):
        masks.add(prefix)
    return frozenset(masks), oracle.codeword_table(n, masks)


def approx_job(b: JobFactory, n: int, eps: Fraction, delta: Fraction) -> Job:
    masks, f_bits = planted_low_weight(b, n)
    f_file = b.function_file(f"approx-{n}.txt", n, f_bits)
    seed = b.rng.getrandbits(16)
    argv = ["approx", "--function", str(f_file), "--k", "1", "--eps", str(eps),
            "--delta", str(delta), "--seed", str(seed)]
    m = math.ceil(32 * float((10 / eps) ** 2) * math.log(1 / float(delta)))
    inverse_bias = 1 / (1 - 2 * Fraction(f_bits.bit_count(), 1 << n))
    coefficient = math.floor(inverse_bias + Fraction(1, 2))

    def check(run: CliRun) -> None:
        record = json.loads(run.out.read_text())
        samples = record["samples"]
        fail_unless(record["n"] == n and record["k"] == 1 and record["m"] == m == len(samples),
                    f"expected {m} order-1 samples on n={n}")
        fail_unless(record["retries_used"] >= 1, "retries_used below 1")
        fail_unless(all(s["coefficient"] == coefficient for s in samples),
                    f"order-1 coefficients must all round 1/bias to {coefficient}")
        directions = [s["directions"][0] for s in samples]
        fail_unless(all(len(s["directions"]) == 1 for s in samples)
                    and all(0 <= a < 1 << n for a in directions), "malformed directions")
        table = oracle.order1_majority(n, f_bits, directions, coefficient)
        achieved = Fraction((table ^ f_bits).bit_count(), 1 << n)
        fail_unless(Fraction(record["achieved_distance"]) == achieved <= delta,
                    f"achieved distance {record['achieved_distance']}, recomputed {achieved}")
        fail_unless(run.results().get("samples") == str(m), "printed sample count")

    return b.cli_job(f"approx n={n} eps={eps} delta={delta}", argv, f"approx-{n}.json", check)


def decode_job(label: str, received: int, n: int, d: int, radius: Fraction, backend: str,
               planted: frozenset[int]) -> Job:
    g = FunctionTable(n, received)
    code = CodeParams(n, d)

    def check(result) -> None:
        fail_unless(result is not None and set(result.monomials) == planted,
                    "decoded polynomial differs from the planted codeword")

    return Job(label, lambda: approximator.unique_decode_within(g, code, radius, backend),
               check)


def seeded_decode_job(b: JobFactory, n: int, d: int, radius: Fraction, backend: str,
                      flips: int) -> Job:
    masks = oracle.monomial_masks(n, d)
    if backend == "exhaustive" and len(masks) > 4:
        # The scan stops at the planted word's Gray rank. Fixing the top four rank
        # bits keeps the share of the code scanned in [11/16, 12/16) for every seed.
        rank = (0b1011 << (len(masks) - 4)) | b.rng.getrandbits(len(masks) - 4)
        coefficients = rank ^ (rank >> 1)
        planted = frozenset(m for j, m in enumerate(masks) if (coefficients >> j) & 1)
    else:
        planted = b.random_codeword(n, d)
    received = oracle.codeword_table(n, planted) ^ b.noise(n, flips)
    return decode_job(f"decode {backend} n={n} d={d} flips={flips}", received, n, d,
                      radius, backend, planted)


def verify_jobs(b: JobFactory, n: int, k: int, eps: Fraction, ones: int, index: int) -> list[Job]:
    """``verify representation`` and ``verify bias-bounds`` on a seeded function with ``ones`` ones."""
    f_file = b.function_file(f"corpus-{n}-{index}.txt", n, b.noise(n, ones))
    common = ["--function", str(f_file), "--k", str(k), "--eps", str(eps)]

    def check_representation(run: CliRun) -> None:
        report = json.loads(run.out.read_text())
        fail_unless(report["max_deviation"] == "0", f"deviation {report['max_deviation']}")
        fail_unless(report["tuples_checked"] == (1 << n) ** k, "tuples checked")

    def check_bias(run: CliRun) -> None:
        report = json.loads(run.out.read_text())
        fail_unless(report["violations"] == 0 and len(report["checks"]) == k,
                    f"{report['violations']} bias-bound violations")

    return [
        b.cli_job(f"verify representation n={n} k={k} #{index}",
                  ["verify", "representation", *common], f"rep-{index}.json",
                  check_representation),
        b.cli_job(f"verify bias-bounds n={n} k={k} #{index}",
                  ["verify", "bias-bounds", *common], f"bias-{index}.json", check_bias),
    ]


def sweep_job(b: JobFactory, n: int) -> Job:
    size = 1 << n
    balanced = math.comb(size, size // 2)

    def check(run: CliRun) -> None:
        report = json.loads(run.out.read_text())
        fail_unless(report["max_deviation"] == "0", f"deviation {report['max_deviation']}")
        fail_unless(report["zero_bias_skipped"] == balanced
                    and report["functions_checked"] == (1 << size) - balanced,
                    "sweep did not cover every function")

    return b.cli_job(f"verify single-der exhaustive n={n}",
                     ["verify", "single-der", "--exhaustive", "--n", str(n)],
                     f"sweep-{n}.json", check)


def single_der_job(b: JobFactory, n: int, index: int) -> Job:
    size = 1 << n
    bits = b.noise(n, b.rng.choice([w for w in range(1, size) if 2 * w != size]))
    f_file = b.function_file(f"single-{n}-{index}.txt", n, bits)

    def check(run: CliRun) -> None:
        report = json.loads(run.out.read_text())
        fail_unless(report["max_deviation"] == "0", f"deviation {report['max_deviation']}")
        fail_unless(report["tuples_checked"] == size, "directions checked")

    return b.cli_job(f"verify single-der n={n} #{index}",
                     ["verify", "single-der", "--function", str(f_file)],
                     f"single-{n}-{index}.json", check)


def derive_approx(b: JobFactory) -> list[Job]:
    if b.size == "tiny":
        return [
            approx_job(b, 5, Fraction(1, 2), Fraction(1, 2)),
            seeded_decode_job(b, 6, 2, Fraction(1, 16), "majority", 4),
            seeded_decode_job(b, 4, 2, Fraction(1, 16), "exhaustive", 1),
            sweep_job(b, 2),
            *verify_jobs(b, 4, 2, Fraction(1, 4), 2, 0),
            single_der_job(b, 4, 0),
        ]
    jobs = [
        approx_job(b, 12, Fraction(1, 2), Fraction(1, 32)),
        seeded_decode_job(b, 12, 3, Fraction(1, 32), "majority", 100),
        seeded_decode_job(b, 6, 2, Fraction(1, 16), "exhaustive", 3),
        sweep_job(b, 4),
    ]
    # p90 block: the representation identity (and the cheap bias bounds) on twelve
    # seeded low-weight functions; p50 block: the single-derivative identity at n=8.
    for index in range(12):
        jobs += verify_jobs(b, 6, 2, Fraction(1, 4), 8, index)
    jobs += [single_der_job(b, 8, index) for index in range(60)]
    for _ in range(4):
        jobs += [
            seeded_decode_job(b, 4, 2, Fraction(1, 16), "exhaustive", 1),
            seeded_decode_job(b, 5, 1, Fraction(1, 8), "exhaustive", 3),
            seeded_decode_job(b, 6, 2, Fraction(1, 16), "majority", 4),
        ]
    return jobs


# --------------------------------------------------------------------------- grm-enum

def grm_enum_job(b: JobFactory, q: int, n: int, d: int) -> Job:
    total = q ** oracle.grm_dimension(q, n, d)

    def check(run: CliRun) -> None:
        fail_unless(sum(int(c) for _, _, c in csv_rows(run.out)) == total,
                    f"enumerator total differs from {q}^dim = {total}")
        fail_unless(run.results().get("codewords") == str(total), "printed codeword count")

    return b.cli_job(f"grm enum q={q} n={n} d={d}",
                     ["grm", "enum", "--q", str(q), "--n", str(n), "--d", str(d)],
                     f"grm-enum-{q}-{n}-{d}.csv", check, digest_key=f"grm-enum q={q} n={n} d={d}")


def grm_construct_job(b: JobFactory, q: int, n: int, d: int, k: int) -> Job:
    return b.cli_job(f"grm construct q={q} n={n} d={d} k={k}",
                     ["grm", "construct", "--q", str(q), "--n", str(n), "--d", str(d),
                      "--k", str(k)],
                     f"grm-construct-{q}-{n}-{d}-{k}.csv", lambda run: None,
                     digest_key=f"grm-construct q={q} n={n} d={d} k={k}")


def grm_thresholds_job(b: JobFactory, q: int, d: int) -> Job:
    return b.cli_job(f"grm thresholds q={q} d={d}",
                     ["grm", "thresholds", "--q", str(q), "--d", str(d)],
                     f"grm-thresholds-{q}-{d}.csv", lambda run: None,
                     digest_key=f"grm-thresholds q={q} d={d}")


def grm_bias_scan_job(b: JobFactory, index: int) -> Job:
    q = b.rng.choice([3, 5, 7])
    n = b.rng.choice([2, 3])
    size = q ** n
    values = [b.rng.randrange(1, q) if b.rng.random() < 0.3 else 0 for _ in range(size)]
    table = b.work / f"grm-table-{index}.txt"
    table.write_text(f"q {q}\nn {n}\nvalues {''.join(map(str, values))}\n")
    argv = ["grm", "bias-scan", "--table", str(table)]
    if index % 2:
        argv += ["--eps", "1/6"]
    counts = [values.count(j) for j in range(q)]

    def check(run: CliRun) -> None:
        report = json.loads(run.out.read_text())
        fail_unless(report["weight"] == str(Fraction(size - counts[0], size)), "weight")
        expected = []
        for c in range(q):
            scaled = [0] * q
            for j, count in enumerate(counts):
                scaled[(c * j) % q] += count
            expected.append(scaled)
        fail_unless(report["residue_counts"] == expected, "residue counts of c * table")
        fail_unless(report["mean_all_equals_one_minus_weight"]
                    and report["mean_nonzero_equals_scaled"], "averaging identities")

    return b.cli_job(f"grm bias-scan q={q} n={n} #{index}", argv, f"bias-scan-{index}.json",
                     check)


def grm_enum(b: JobFactory) -> list[Job]:
    jobs = [grm_enum_job(b, *spec) for spec in GRM_ENUM[b.size]]
    jobs += [grm_construct_job(b, *spec) for spec in GRM_CONSTRUCT[b.size]]
    jobs += [grm_thresholds_job(b, *spec) for spec in GRM_THRESHOLDS[b.size]]
    jobs += [grm_bias_scan_job(b, i) for i in range(GRM_BIAS_SCANS[b.size])]
    return jobs


WORKLOADS = {
    "enum-scan": enum_scan,
    "list-size": list_size,
    "derive-approx": derive_approx,
    "grm-enum": grm_enum,
}


def build(name: str, seed: int, size: str, work: Path, reference: dict | None = None) -> list[Job]:
    factory = JobFactory(seed, size, work, load_reference() if reference is None else reference)
    return WORKLOADS[name](factory)
