"""Traced run: spans around calls into rmlist's public functions, taken from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``rmlist`` module namespace that holds it (``from .x import f`` copies the
reference, so patching the defining module alone would miss callers), and
``uninstall`` puts the originals back. A span records its name, start, end,
parent span and job; a few wrappers also count work from the call's
arguments and result. Spans stay in memory and are written out at the end.

Only the calling process is traced: ``enumerate_weights`` pool workers run
in forked processes whose spans are discarded, so a pooled scan shows as one
span in the parent.

Every ``*_s`` metric is inclusive time unless its name says ``self``: a
span's self time is its duration minus the durations of its direct children.
Metrics are per traced pass.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

TRACED = {
    "rmlist.boolfunc": ["monomial_table", "translate", "anf_to_table", "table_to_anf"],
    "rmlist.derivatives": ["derive", "verify_derivative_representation",
                           "verify_single_derivative_exhaustive",
                           "single_derivative_identity", "check_bias_bounds"],
    "rmlist.approximator": ["build_approximator", "approximator_table",
                            "unique_decode_within"],
    "rmlist.enumeration": ["enumerate_weights"],
    "rmlist.listdecode": ["ball", "ball_size", "estimate_list_size"],
    "rmlist.grm": ["grm_enumerate_weights", "construct_grm_family", "bias_scaling_scan",
                   "GrmPolynomial.evaluate_table"],
    "rmlist.formats": ["enumerator_csv", "ball_csv", "family_to_text"],
    "rmlist.manifest": ["sha256_file", "write_manifest"],
    "rmlist.cli": ["main", "execute"],
}
VERIFY = ("derivatives.verify_derivative_representation",
          "derivatives.verify_single_derivative_exhaustive",
          "derivatives.single_derivative_identity", "derivatives.check_bias_bounds")
RENDER = ("formats.enumerator_csv", "formats.ball_csv", "formats.family_to_text")

PER_LAYER = [
    "enumeration.scan_s", "enumeration.codewords", "enumeration.ns_per_codeword",
    "enumeration.pool_efficiency",
    "listdecode.ball_size_calls", "listdecode.ball_size_s", "listdecode.codewords",
    "listdecode.ns_per_codeword", "listdecode.ball_s", "listdecode.members",
    "listdecode.hit_ratio",
    "boolfunc.monomial_table_calls", "boolfunc.monomial_table_s",
    "boolfunc.translate_calls", "boolfunc.translate_s", "boolfunc.anf_s",
    "derivatives.derive_calls", "derivatives.derive_s", "derivatives.verify_s",
    "derivatives.tuples_checked",
    "approximator.build_self_s", "approximator.samples_attempted",
    "approximator.useful_ratio", "approximator.table_s",
    "approximator.decode_exhaustive_s", "approximator.decode_majority_s",
    "grm.enum_s", "grm.codewords", "grm.ns_per_codeword", "grm.evaluate_table_s",
    "cli.self_s", "formats.render_s", "formats.bytes_written", "manifest.sha256_s",
    "manifest.bytes_hashed",
    "trace.overhead_s",
]


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.jobs: list[str] = []
        # Compact columns: a traced pass of list-size opens about 400,000 spans.
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._job = -1
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ recording

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_job.append(self._job)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> float:
        end = time.perf_counter()
        self._stack.pop()
        self.span_end[index] = end
        return end - self.span_start[index]

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextmanager
    def job(self, label: str):
        self._job = len(self.jobs)
        self.jobs.append(label)
        index = self._open(self._name_id("job"))
        try:
            yield
        finally:
            self._close(index)
            self._job = -1

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        observe = self._observers().get(name)

        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                seconds = self._close(index)
                if observe is not None:
                    observe(args, kwargs, None, seconds, exc)
                raise
            seconds = self._close(index)
            if observe is not None:
                observe(args, kwargs, result, seconds, None)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------ observers

    def _observers(self) -> dict:
        """Span name -> hook called with (args, kwargs, result, seconds, exception)."""
        hooks = {
            "enumeration.enumerate_weights": self._observe_enumerate,
            "listdecode.ball_size": self._observe_ball_size,
            "listdecode.ball": self._observe_ball,
            "approximator.build_approximator": self._observe_build,
            "approximator.unique_decode_within": self._observe_decode,
            "grm.grm_enumerate_weights": self._observe_grm_enumerate,
            "manifest.sha256_file": self._observe_sha256,
            "cli.execute": self._observe_execute,
        }
        hooks.update((name, self._observe_verify) for name in VERIFY)
        return hooks

    def _observe_enumerate(self, args, kwargs, result, seconds, exc):
        if exc is not None:
            return
        params = _arg(args, kwargs, 0, "params")
        shards = _arg(args, kwargs, 1, "shards", 1)
        workers = min(_arg(args, kwargs, 2, "workers", 1), shards)
        codewords = 1 << params.dimension
        self.count("enumeration.codewords", codewords)
        side = "pooled" if workers > 1 else "serial"
        self.count(f"enumeration.{side}_s", seconds)
        self.count(f"enumeration.{side}_codewords", codewords)
        self.count(f"enumeration.{side}_worker_codewords", codewords * workers)

    def _observe_ball_size(self, args, kwargs, result, seconds, exc):
        if exc is None:
            self.count("listdecode.codewords", 1 << _arg(args, kwargs, 2, "params").dimension)
            self.count("listdecode.hits", result)

    def _observe_ball(self, args, kwargs, result, seconds, exc):
        if exc is None:
            self.count("listdecode.codewords", 1 << _arg(args, kwargs, 2, "params").dimension)
            self.count("listdecode.members", result.size)
            self.count("listdecode.hits", result.size)

    def _observe_build(self, args, kwargs, result, seconds, exc):
        params = _arg(args, kwargs, 1, "params")
        batches = getattr(exc, "retries_used", 0) if exc is not None else result.retries_used
        self.count("approximator.batches_drawn", batches)
        self.count("approximator.samples_attempted", batches * params.samples)
        if exc is None:
            self.count("approximator.batches_accepted")

    def _observe_decode(self, args, kwargs, result, seconds, exc):
        params = _arg(args, kwargs, 1, "params")
        backend = _arg(args, kwargs, 3, "backend", "auto")
        if backend == "auto":  # the library's own rule for choosing a backend
            cap = sys.modules["rmlist.approximator"].EXHAUSTIVE_DECODE_DIMENSION
            backend = "exhaustive" if params.dimension <= cap else "majority"
        self.count(f"approximator.decode_{backend}_s", seconds)

    def _observe_verify(self, args, kwargs, result, seconds, exc):
        if exc is not None:
            return
        if hasattr(result, "checks"):  # BiasBoundReport
            tuples = sum(c.tuples_checked for c in result.checks)
        elif hasattr(result, "functions_checked"):  # SweepReport: every direction per function
            tuples = result.functions_checked * result.points_checked
        else:
            tuples = result.tuples_checked
        self.count("derivatives.tuples_checked", tuples)

    def _observe_grm_enumerate(self, args, kwargs, result, seconds, exc):
        if exc is None:
            params = _arg(args, kwargs, 0, "params")
            self.count("grm.codewords", params.q ** params.dimension)

    def _observe_sha256(self, args, kwargs, result, seconds, exc):
        if exc is None:
            self.count("manifest.bytes_hashed", Path(_arg(args, kwargs, 0, "path")).stat().st_size)

    def _observe_execute(self, args, kwargs, result, seconds, exc):
        out = Path(_arg(args, kwargs, 2, "out"))
        for path in (out, Path(f"{out}.manifest.json")):
            if path.exists():
                self.count("formats.bytes_written", path.stat().st_size)

    # ------------------------------------------------------------------ patching

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "rmlist" or key.startswith("rmlist.")]
        for module_name, attrs in TRACED.items():
            module = sys.modules[module_name]
            short = module_name.split(".", 1)[1]
            for attr in attrs:
                if "." in attr:  # a method: patch the class attribute
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    self._restore.append((cls, method, original))
                    setattr(cls, method, self._wrap(f"{short}.{attr}", original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(f"{short}.{attr}", original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, key, original))
                            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # ------------------------------------------------------------------ results

    def _arrays(self):
        name = np.array(self.span_name, dtype=np.int32)
        parent = np.array(self.span_parent, dtype=np.int64)
        duration = np.array(self.span_end) - np.array(self.span_start)
        child = parent >= 0
        children = np.bincount(parent[child], weights=duration[child], minlength=len(name))
        return name, duration, duration - children

    def self_time_violations(self) -> int:
        """Spans whose children together outlast them (self time below zero)."""
        if not self.span_name:
            return 0
        _, duration, self_time = self._arrays()
        return int(np.count_nonzero(self_time < -1e-9) + np.count_nonzero(self_time > duration))

    def metrics(self, passes: int) -> dict[str, float]:
        """Every per-layer metric, per traced pass; zero where the workload skips a layer."""
        total = {n: 0.0 for n in self.names}
        own = {n: 0.0 for n in self.names}
        calls = {n: 0 for n in self.names}
        if self.span_name:
            name, duration, self_time = self._arrays()
            sums = np.bincount(name, weights=duration, minlength=len(self.names))
            self_sums = np.bincount(name, weights=self_time, minlength=len(self.names))
            counts = np.bincount(name, minlength=len(self.names))
            for i, n in enumerate(self.names):
                total[n], own[n], calls[n] = float(sums[i]), float(self_sums[i]), int(counts[i])
        c = lambda key: self.counts.get(key, 0.0)  # noqa: E731
        # Pool efficiency: serial ns/codeword over (workers x pooled wall ns/codeword),
        # workers weighted by codewords when pooled scans differ in worker count.
        serial_ns = _ratio(c("enumeration.serial_s"), c("enumeration.serial_codewords"))
        pooled_ns = _ratio(c("enumeration.pooled_s"), c("enumeration.pooled_codewords"))
        workers = _ratio(c("enumeration.pooled_worker_codewords"),
                         c("enumeration.pooled_codewords"))
        scan_s = total.get("enumeration.enumerate_weights", 0.0)
        ball_size_s = total.get("listdecode.ball_size", 0.0)
        ball_s = total.get("listdecode.ball", 0.0)
        grm_s = total.get("grm.grm_enumerate_weights", 0.0)
        values = {
            "enumeration.scan_s": scan_s,
            "enumeration.codewords": c("enumeration.codewords"),
            "enumeration.ns_per_codeword": 1e9 * _ratio(scan_s, c("enumeration.codewords")),
            "enumeration.pool_efficiency": _ratio(serial_ns, workers * pooled_ns),
            "listdecode.ball_size_calls": calls.get("listdecode.ball_size", 0),
            "listdecode.ball_size_s": ball_size_s,
            "listdecode.codewords": c("listdecode.codewords"),
            "listdecode.ns_per_codeword":
                1e9 * _ratio(ball_size_s + ball_s, c("listdecode.codewords")),
            "listdecode.ball_s": ball_s,
            "listdecode.members": c("listdecode.members"),
            "listdecode.hit_ratio": _ratio(c("listdecode.hits"), c("listdecode.codewords")),
            "boolfunc.monomial_table_calls": calls.get("boolfunc.monomial_table", 0),
            "boolfunc.monomial_table_s": total.get("boolfunc.monomial_table", 0.0),
            "boolfunc.translate_calls": calls.get("boolfunc.translate", 0),
            "boolfunc.translate_s": total.get("boolfunc.translate", 0.0),
            "boolfunc.anf_s": total.get("boolfunc.anf_to_table", 0.0)
            + total.get("boolfunc.table_to_anf", 0.0),
            "derivatives.derive_calls": calls.get("derivatives.derive", 0),
            "derivatives.derive_s": total.get("derivatives.derive", 0.0),
            "derivatives.verify_s": sum(total.get(n, 0.0) for n in VERIFY),
            "derivatives.tuples_checked": c("derivatives.tuples_checked"),
            "approximator.build_self_s": own.get("approximator.build_approximator", 0.0),
            "approximator.samples_attempted": c("approximator.samples_attempted"),
            "approximator.useful_ratio": _ratio(c("approximator.batches_accepted"),
                                                c("approximator.batches_drawn")),
            "approximator.table_s": total.get("approximator.approximator_table", 0.0),
            "approximator.decode_exhaustive_s": c("approximator.decode_exhaustive_s"),
            "approximator.decode_majority_s": c("approximator.decode_majority_s"),
            "grm.enum_s": grm_s,
            "grm.codewords": c("grm.codewords"),
            "grm.ns_per_codeword": 1e9 * _ratio(grm_s, c("grm.codewords")),
            "grm.evaluate_table_s": total.get("grm.GrmPolynomial.evaluate_table", 0.0),
            "cli.self_s": own.get("cli.main", 0.0) + own.get("cli.execute", 0.0),
            "formats.render_s": sum(total.get(n, 0.0) for n in RENDER),
            "formats.bytes_written": c("formats.bytes_written"),
            "manifest.sha256_s": total.get("manifest.sha256_file", 0.0),
            "manifest.bytes_hashed": c("manifest.bytes_hashed"),
        }
        # Ratios are per call already; totals and counts are divided by the pass count.
        ratios = {"enumeration.ns_per_codeword", "enumeration.pool_efficiency",
                  "listdecode.ns_per_codeword", "listdecode.hit_ratio",
                  "approximator.useful_ratio", "grm.ns_per_codeword"}
        return {k: v if k in ratios else v / passes for k, v in values.items()}

    def write(self, path: Path) -> None:
        """All spans as columns; ``name`` and ``job`` index the ``names`` and ``jobs`` lists."""
        start = np.array(self.span_start)
        origin = start.min() if len(start) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            jobs=np.array(self.jobs),
            name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int64),
            job=np.array(self.span_job, dtype=np.int32),
            start=start - origin,
            end=np.array(self.span_end) - origin,
        )
