"""Timed passes over a workload's job list, the exactness gate, and the metrics.

A job is one ``rmlist.cli.main([...])`` call or one public library call. Its
wall time covers only that call; its output is checked afterwards, outside
the timed region. A pass runs the workload's fixed job list once, and its
time to solution (``wall_s``) is the sum of its job times. Passes repeat
until the next one would overrun the run length, and every reported time
is a median or a percentile over them, multiplied by ``speed_factor`` to
take out the drift in machine speed; the record keeps the raw times too.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 5
# The calibration kernel's median on the reference machine (2-core Intel Xeon
# VM, Python 3.11.7, uncontended). On that shared machine the kernel ran up to 1.9x
# slower for minutes at a time, and rmlist's jobs slowed by roughly the square
# root of the kernel's slowdown (fitted exponents 0.4 to 0.9 per metric).
CALIBRATION_REFERENCE_S = 0.55e-3
TIMES = ("setup_s", "wall_s", "job_p50_s", "job_tail_s")  # reported speed-corrected
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10  # jobs that must lie above the tail percentile


class Mismatch(Exception):
    """A job's output failed its exactness check."""


class SetupError(Exception):
    """The run cannot start: no rmlist sources in the checkout, or no such workload."""


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    digest_key: str | None = None  # fixed-input job whose output digest is recorded


@dataclass
class Sample:
    label: str
    seconds: float
    error: str | None = None


@dataclass
class Outcome:
    samples: list[Sample] = field(default_factory=list)
    calibration: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(s.seconds for s in self.samples)


def import_rmlist():
    """Import rmlist from this checkout's ``src`` and nowhere else."""
    if not (SRC / "rmlist" / "__init__.py").is_file():
        raise SetupError(f"no rmlist package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    rmlist = importlib.import_module("rmlist")
    if Path(rmlist.__file__).resolve().parent != SRC / "rmlist":
        raise SetupError(f"rmlist imported from {rmlist.__file__}, not {SRC}")
    return rmlist


_CALIBRATION_TABLES = [random.Random(0).getrandbits(64) for _ in range(12)]


def calibration_sample() -> float:
    """Seconds for a fixed pure-Python kernel that shares no code with rmlist.

    It is timed before every job, so its median tracks the machine's speed
    over the whole run.
    """
    tables = _CALIBRATION_TABLES
    counts = [0] * 65
    x = 0
    start = time.perf_counter()
    for t in range(1, 1 << 12):
        x ^= tables[(t & -t).bit_length() - 1]
        counts[x.bit_count()] += 1
    return time.perf_counter() - start


def run_pass(jobs: list[Job], tracer=None) -> Outcome:
    outcome = Outcome()
    for job in jobs:
        outcome.calibration.append(calibration_sample())
        start = time.perf_counter()
        try:
            if tracer is None:
                result = job.run()
            else:
                with tracer.job(job.label):
                    result = job.run()
        except Exception as exc:  # a raising job is a failed job; keep measuring
            outcome.samples.append(
                Sample(job.label, time.perf_counter() - start, f"raised {exc!r}"))
            continue
        elapsed = time.perf_counter() - start
        try:
            job.check(result)
        except Exception as exc:  # malformed output fails the gate like a mismatch
            outcome.samples.append(Sample(job.label, elapsed, f"check: {exc}"))
            continue
        outcome.samples.append(Sample(job.label, elapsed))
    return outcome


def run_passes(jobs: list[Job], seconds: float, tracer=None) -> list[tuple[Outcome, bool]]:
    """Passes until the next one is expected to end after ``seconds``; at least one.

    With a tracer, passes alternate untraced and traced (at least one of
    each), so drift in machine speed falls on both sides alike. Each outcome
    comes with whether its pass was traced.
    """
    start = time.perf_counter()
    outcomes: list[tuple[Outcome, bool]] = []
    while True:
        traced = tracer is not None and len(outcomes) % 2 == 1
        # Each pass runs the jobs in its own fixed order (the same in every run), so
        # a block of similar jobs samples machine speed over the whole run, not over
        # one short stretch of it.
        order = list(jobs)
        random.Random(len(outcomes)).shuffle(order)
        gc.collect()  # start every pass from the same heap state
        pass_start = time.perf_counter()
        if traced:
            tracer.install()
            try:
                outcome = run_pass(order, tracer)
            finally:
                tracer.uninstall()
        else:
            outcome = run_pass(order)
        outcomes.append((outcome, traced))
        now = time.perf_counter()
        enough = tracer is None or len(outcomes) >= 2
        if enough and now - start + (now - pass_start) > seconds:
            return outcomes


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(1, math.ceil(pct / 100 * len(sorted_values))) - 1]


def tail_percentile(jobs_per_pass: int) -> float:
    """Highest ladder percentile that leaves ten jobs of a single pass beyond it.

    It depends on the job list alone, so every run has at least ten samples
    beyond it, and it does not move when a faster program fits more passes
    into the run.
    """
    for pct in TAIL_LADDER:
        if jobs_per_pass - math.ceil(pct / 100 * jobs_per_pass) >= TAIL_BEYOND:
            return pct
    return 50.0


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    numpy = importlib.import_module("numpy")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout's git metadata, read without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux; pool workers are other processes and not included.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def speed_factor(calibration_s: float) -> float:
    """Multiplier that brings a run's times to the reference machine speed."""
    return math.sqrt(CALIBRATION_REFERENCE_S / calibration_s)


def job_stats(outcomes: list[Outcome]) -> dict:
    times = [s.seconds for o in outcomes for s in o.samples]
    per_job: dict[str, list[float]] = {}
    for o in outcomes:
        for s in o.samples:
            per_job.setdefault(s.label, []).append(s.seconds)
    pct = tail_percentile(len(outcomes[0].samples))
    return {
        "job_seconds": per_job,
        "wall_s": statistics.median(o.wall_s for o in outcomes),
        "job_p50_s": statistics.median(times),
        "job_tail_s": nearest_rank(sorted(times), pct),
        "tail_percentile": pct,
        "jobs_timed": len(times),
        "passes": len(outcomes),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            out_dir: Path = OUT_DIR) -> dict:
    """Set up, run the workload for ``seconds`` and return its full record."""
    start = time.perf_counter()
    import_rmlist()
    workloads = importlib.import_module("workloads")
    import_s = time.perf_counter() - start
    if workload not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    work = out_dir / f"work-{os.getpid()}"
    warm_ups: list[Outcome] = []
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            begin = time.perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            jobs = workloads.build(workload, seed, "full", work)
            warm_ups.append(run_pass(workloads.build(workload, seed, "tiny", work / "tiny")))
            setups.append(time.perf_counter() - begin)
        setup_s = import_s + statistics.median(setups)

        tracer = importlib.import_module("tracing").Tracer() if trace else None
        passes = run_passes(jobs, seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = [outcome for outcome, _ in passes]
    failures = [(s.label, s.error) for o in warm_ups + measured for s in o.samples if s.error]
    attempted = sum(len(o.samples) for o in warm_ups + measured)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "setup_s": setup_s,
        "import_s": import_s,
        "setup_repeats_s": setups,
        "peak_rss_mib": peak_rss_mib(),
    }
    if trace:
        untraced = [o for o, traced in passes if not traced]
        traced = [o for o, traced in passes if traced]
        record["untraced"] = job_stats(untraced)
        record["traced"] = job_stats(traced)
        layers = tracer.metrics(len(traced))
        layers["trace.overhead_s"] = record["traced"]["wall_s"] - record["untraced"]["wall_s"]
        record["per_layer"] = layers
        record["trace_violations"] = tracer.self_time_violations()
        if record["trace_violations"]:
            failures.append(("trace", f"{record['trace_violations']} spans with self time "
                                      "outside [0, duration]"))
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"spans-{workload}-seed{seed}.npz")
    else:
        stats = job_stats(measured)
        calibration = statistics.median(c for o in measured for c in o.calibration)
        factor = speed_factor(calibration)
        record["raw"] = {"setup_s": setup_s, **{k: stats[k] for k in TIMES[1:]}}
        record.update(stats, calibration_ms=calibration * 1e3, speed_factor=factor)
        for k in TIMES:
            record[k] = record["raw"][k] * factor
    record.update(attempted=attempted, failed=len(failures),
                  failed_ratio=len(failures) / attempted, failures=failures[:20])
    return record


def write_record(record: dict, out_dir: Path = OUT_DIR) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / (f"{record['workload']}-seed{record['seed']}"
                      f"-trace{int(record['trace'])}.json")
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path
