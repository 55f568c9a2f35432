"""Command-line front door.

Every command writes one machine-readable output file plus a sidecar
``<output>.manifest.json`` recording the command, full parameter set, seed,
version, timestamps, and output digests. ``rmlist replay`` re-runs a
manifest and verifies the outputs are byte-identical. All fraction-valued
flags take exact ``a/b`` strings; floats are rejected.

``main(argv)`` may be called any number of times in one process: the
argparse tree is built once, on the first call, and carries no state
between calls.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import re
import sys
import types
from pathlib import Path

from . import __version__
from .approximator import (
    ApproximatorParams,
    approximator_json,
    build_approximator,
)
from .boolfunc import CodeParams, FunctionTable, flip_budget
from .derivatives import (
    check_bias_bounds,
    single_derivative_identity,
    verify_derivative_representation,
    verify_single_derivative_exhaustive,
)
from .enumeration import (
    accumulative,
    accumulative_weight_bound,
    construct_low_weight_family,
    enumerate_weights,
    list_size_bound,
)
from .errors import InputError, InvariantFailure, RmlistError
from .formats import (
    ball_csv,
    enumerator_csv,
    family_to_text,
    function_from_text,
    grm_table_from_text,
    parse_fraction,
)
from .grm import (
    GrmParams,
    bias_scaling_scan,
    construct_grm_family,
    grm_enumerate_weights,
    weight_thresholds,
)
from .listdecode import ball
from .manifest import (
    RunManifest,
    load_manifest,
    sha256_file,
    utc_now,
    write_manifest,
)

OUT_DIR_ENV = "RMLIST_OUT_DIR"


class HexBits(str):
    """Annotates a param that holds a truth table's bits as hex digits, as
    ``f"{bits:x}"`` writes them; the value itself is a plain str."""


def _resolve_out(out: str) -> Path:
    path = Path(out)
    if not path.is_absolute():
        base = os.environ.get(OUT_DIR_ENV)
        if base:
            path = Path(base) / path
    return path


def _run_enum(out: Path, *, n: int, d: int, shards: int = 1, workers: int = 1,
              alphas: list[str] = []) -> dict:  # the default list is never mutated
    code = CodeParams(n, d)
    queries = {f"A({text})": parse_fraction(text) for text in alphas}
    for alpha in queries.values():  # every alpha is range-checked before the CSV is written
        flip_budget(alpha, code.block_length)
    enum = enumerate_weights(code, shards=shards, workers=workers)
    out.write_text(enumerator_csv(enum))
    return {key: accumulative(enum, alpha) for key, alpha in queries.items()}


def _run_listdecode(out: Path, *, n: int, d: int, alpha: str, center_bits_hex: HexBits,
                    allow_full: bool = False) -> dict:
    code = CodeParams(n, d)
    center = FunctionTable(n, int(center_bits_hex, 16))
    radius = parse_fraction(alpha)
    if radius >= 1 and not allow_full:
        raise InputError(
            "alpha >= 1 lists the entire code; pass --allow-full to confirm"
        )
    result = ball(center, radius, code)
    out.write_text(ball_csv(result))
    return {"members": result.size}


def _run_approx(out: Path, *, n: int, function_bits_hex: HexBits, k: int, eps: str,
                delta: str, seed: int = 0, retries: int = 10,
                m: int | None = None) -> dict:
    f = FunctionTable(n, int(function_bits_hex, 16))
    ap = ApproximatorParams(k=k, eps=parse_fraction(eps), delta=parse_fraction(delta),
                            seed=seed, m=m, retry_budget=retries)
    result = build_approximator(f, ap)
    out.write_text(
        approximator_json(result.approximator, result.achieved_distance,
                          result.retries_used)
    )
    return {
        "achieved_distance": str(result.achieved_distance),
        "retries_used": result.retries_used,
        "samples": result.approximator.m,
    }


def _run_verify(out: Path, *, identity: str, n: int, exhaustive: bool = False,
                function_bits_hex: HexBits | None = None, k: int | None = None,
                eps: str | None = None, samples: int = 2000, seed: int = 0) -> dict:
    f = None if function_bits_hex is None else FunctionTable(n, int(function_bits_hex, 16))
    violations = 0
    if identity == "single-der" and exhaustive:
        report = verify_single_derivative_exhaustive(n).as_dict()
    elif identity not in ("single-der", "representation", "bias-bounds"):
        raise InputError(f"unknown identity {identity!r}")
    elif f is None:
        raise InputError(f"verify {identity} needs --function")
    elif identity == "single-der":
        report = single_derivative_identity(f).as_dict()
    elif k is None or eps is None:
        raise InputError(f"verify {identity} needs --k and --eps")
    elif identity == "representation":
        report = verify_derivative_representation(f, k, parse_fraction(eps)).as_dict()
    else:
        result = check_bias_bounds(f, k, parse_fraction(eps), samples=samples, seed=seed)
        report, violations = result.as_dict(), result.violation_count
    out.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    if violations:  # the report and its manifest stay for inspection
        raise InvariantFailure(f"{violations} bias lower-bound violations")
    return report


def _run_bounds(out: Path, *, n: int, d: int, k: int, eps: str) -> dict:
    fraction = parse_fraction(eps)
    a_bound, l_bound = (accumulative_weight_bound(n, d, k, fraction),
                        list_size_bound(n, d, k, fraction))
    for b in (a_bound, l_bound):  # both caps before either value is built
        b.require_value_bits()
    lines = ["formula,n,d,k,eps,log2_value,terms,value_hex"]
    for b in (a_bound, l_bound):
        terms = ";".join(f"{key}={value:#x}" for key, value in sorted(b.terms.items()))
        lines.append(
            f"{b.formula},{b.n},{b.d},{b.k},{b.eps},{b.log2_value():.3f},"
            f"{terms},{b.value:#x}"
        )
    if a_bound.near_minimum_bound is not None:
        lines.append(f"# near_minimum_bound,{a_bound.near_minimum_bound}")
    out.write_text("\n".join(lines) + "\n")
    return {
        "accumulative_log2": a_bound.log2_value(),
        "list_log2": l_bound.log2_value(),
    }


def _run_construct(out: Path, *, n: int, d: int, k: int, limit: int | None = None) -> dict:
    family = construct_low_weight_family(n, d, k, limit=limit)
    out.write_text(family_to_text(family))
    return {
        "distinct": family.distinct_count,
        "weight": str(family.target_weight),
    }


def _run_grm_thresholds(out: Path, *, q: int, d: int) -> dict:
    rows = weight_thresholds(q, d)
    lines = ["k,a,b,threshold"]
    for t in rows:
        lines.append(f"{t.k},{'' if t.a is None else t.a},"
                     f"{'' if t.b is None else t.b},{t.value}")
    out.write_text("\n".join(lines) + "\n")
    return {f"r_{t.k}": str(t.value) for t in rows}


def _run_grm_enum(out: Path, *, q: int, n: int, d: int) -> dict:
    enum = grm_enumerate_weights(GrmParams(q, n, d))
    out.write_text(enumerator_csv(enum))
    return {"codewords": enum.total()}


def _run_grm_construct(out: Path, *, q: int, n: int, d: int, k: int,
                       limit: int = 64) -> dict:
    family = construct_grm_family(q, n, d, k, limit=limit)
    with out.open("w") as csv:  # one line per member: the digits alone are q^n bytes
        csv.write("index,weight,degree,values,polynomial\n")
        for i, (p, table) in enumerate(family.members):
            digits = (table.values + ord("0")).tobytes().decode("ascii")
            csv.write(f"{i},{family.claimed_weight},{p.degree},{digits},{p}\n")
    return {
        "distinct": family.distinct_count,
        "claimed_weight": str(family.claimed_weight),
    }


def _run_grm_bias_scan(out: Path, *, table_text: str, eps: str | None = None) -> dict:
    table = grm_table_from_text(table_text)
    report = bias_scaling_scan(table, eps=parse_fraction(eps) if eps else None)
    payload = {
        "weight": str(report.weight),
        "residue_counts": [list(b.residue_counts) for b in report.biases],
        "mean_all_equals_one_minus_weight": report.mean_all_equals_one_minus_weight,
        "mean_nonzero_equals_scaled": report.mean_nonzero_equals_scaled,
        "eps": str(report.eps) if report.eps is not None else None,
        "witness_multiplier": report.witness_multiplier,
        "witness_real": str(report.witness_real)
        if report.witness_real is not None else None,
        "witness_meets_eps": report.witness_meets_eps,
        "flagged": report.flagged,
    }
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return payload


RUNNERS = {
    "enum": _run_enum,
    "listdecode": _run_listdecode,
    "approx": _run_approx,
    "verify": _run_verify,
    "bounds": _run_bounds,
    "construct": _run_construct,
    "grm-thresholds": _run_grm_thresholds,
    "grm-enum": _run_grm_enum,
    "grm-construct": _run_grm_construct,
    "grm-bias-scan": _run_grm_bias_scan,
}


@functools.cache
def _declared(command: str) -> dict[str, inspect.Parameter]:
    """The runner's keyword-only parameters: the one declaration of a command's
    params, with their types and defaults."""
    signature = inspect.signature(RUNNERS[command], eval_str=True)
    return {name: p for name, p in signature.parameters.items() if p.kind is p.KEYWORD_ONLY}


def _conforms(value, kind) -> bool:
    """Exact types, as JSON gives them back: a bool is no int, a list of ints no
    ``list[str]``."""
    if isinstance(kind, types.UnionType):
        return any(_conforms(value, k) for k in kind.__args__)
    if isinstance(kind, types.GenericAlias):
        return type(value) is kind.__origin__ and all(_conforms(v, *kind.__args__)
                                                       for v in value)
    if kind is HexBits:  # ``int(value, 16)`` would also take "0x", "_" and spaces
        return type(value) is str and re.fullmatch("[0-9a-fA-F]+", value) is not None
    return type(value) is kind


def _describe(kind) -> str:
    if isinstance(kind, types.UnionType):
        return " | ".join(_describe(k) for k in kind.__args__)
    if isinstance(kind, types.GenericAlias):
        return f"a {kind.__origin__.__name__} of {kind.__args__[0].__name__}"
    return {HexBits: "hex digits", type(None): "None"}.get(kind, kind.__name__)


def _full_params(command: str, params: dict) -> dict:
    """``params`` with every declared default filled in, or ``InputError`` naming
    the first param the runner does not declare, lacks, or gets with a wrong type."""
    declared = _declared(command)
    for key in params:
        if key not in declared:
            raise InputError(f"{command} has no param {key!r}")
    full = {}
    for key, p in declared.items():
        value = params.get(key, p.default)
        if value is p.empty:
            raise InputError(f"{command} params have no {key!r}")
        if not _conforms(value, p.annotation):
            raise InputError(f"{command} param {key!r} must be "
                             f"{_describe(p.annotation)}, got {value!r}")
        full[key] = value
    return full


def execute(command: str, params: dict, out: Path) -> dict:
    """Run a command, write its output and manifest, return stdout-able results.

    ``params`` are checked against the runner's declaration and completed with
    its defaults before any file is touched, so the manifest records the full
    set. An earlier output and manifest at ``out`` are then removed, so a
    manifest always describes an output this run wrote; a run that fails
    before it writes leaves neither.
    """
    params = _full_params(command, params)
    out.parent.mkdir(parents=True, exist_ok=True)
    manifest_path = Path(f"{out}.manifest.json")
    for stale in (out, manifest_path):
        stale.unlink(missing_ok=True)
    manifest = RunManifest(
        command=command,
        params=params,
        seed=params.get("seed"),
        version=__version__,
        started_utc=utc_now(),
    )
    try:
        results = RUNNERS[command](out, **params)
    finally:
        manifest.finished_utc = utc_now()
        if out.exists():
            manifest.outputs = {out.name: sha256_file(out)}
            write_manifest(manifest_path, manifest)
    return results


def replay(manifest_path: Path, out_dir: Path) -> dict:
    manifest = load_manifest(manifest_path)
    if manifest.command not in RUNNERS:
        raise InputError(f"manifest names unknown command {manifest.command!r}")
    if len(manifest.outputs) != 1:
        raise InputError("manifest must record exactly one output")
    name, recorded = next(iter(manifest.outputs.items()))
    # A plain file name, so the run deletes and writes only inside ``out_dir``.
    if name in ("", "..") or "\0" in name or Path(name).name != name:
        raise InputError(f"manifest output {name!r} is not a plain file name")
    out = out_dir / name
    execute(manifest.command, manifest.params, out)
    actual = sha256_file(out)
    if actual != recorded:
        raise InvariantFailure(
            f"replay digest mismatch for {name}: {actual} != {recorded}"
        )
    return {"output": str(out), "digest": actual, "identical": True}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Flags only: a flag left out is absent from the namespace, so the runner's
    declared default applies. ``--out`` and ``--out-dir`` name files, not params."""
    parser = argparse.ArgumentParser(
        prog="rmlist",
        description="Exact analysis of degree-bounded binary codes: weight "
        "distributions, list-decoding balls, derivative approximators, bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name: str, help: str) -> argparse.ArgumentParser:
        return subparsers.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    p = command(sub, "enum", "weight enumerator CSV and A(alpha) queries")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--shards", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--alpha", dest="alphas", action="append", metavar="ALPHA",
                   help="exact fraction a/b; may repeat")
    p.add_argument("--out", default="enum.csv")

    p = command(sub, "listdecode", "list all codewords within alpha of a word")
    p.add_argument("--center", required=True, help="function file")
    p.add_argument("--alpha", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--allow-full", action="store_true")
    p.add_argument("--out", default="ball.csv")

    p = command(sub, "approx", "build a sampled weighted-majority approximator")
    p.add_argument("--function", required=True, help="function file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--retries", type=int)
    p.add_argument("--m", type=int, help="override sample count (must meet the minimum)")
    p.add_argument("--out", default="approximator.json")

    p = command(sub, "verify", "check a derivative identity exactly")
    p.add_argument("identity", choices=["single-der", "representation", "bias-bounds"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--eps")
    p.add_argument("--function", help="function file")
    p.add_argument("--exhaustive", action="store_true",
                   help="single-der: sweep every function on n variables")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="verify.json")

    p = command(sub, "bounds", "explicit counting bounds with constituents")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--out", default="bounds.csv")

    p = command(sub, "construct", "stream low-weight codeword families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--limit", type=int)
    p.add_argument("--out", default="family.txt")

    pg = sub.add_parser("grm", help="prime-field analogues")
    gsub = pg.add_subparsers(dest="grm_command", required=True)

    p = command(gsub, "thresholds", "distance cut-offs r_1..r_d")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", default="thresholds.csv")

    p = command(gsub, "enum", "exhaustive weight enumerator over F_q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", default="grm_enum.csv")

    p = command(gsub, "construct", "threshold-weight constructions over F_q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--limit", type=int)
    p.add_argument("--out", default="grm_family.csv")

    p = command(gsub, "bias-scan", "bias of every scalar multiple of a table")
    p.add_argument("--table", required=True, help="value-table file")
    p.add_argument("--eps")
    p.add_argument("--out", default="bias_scan.json")

    p = sub.add_parser("replay", help="re-run a manifest and verify outputs")
    p.add_argument("manifest")
    p.add_argument("--out-dir", default="replay")

    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, ValueError) as exc:  # absent, unreadable, or not text
        raise InputError(f"cannot read {path}: {exc}") from None


def _params_from_args(args: argparse.Namespace) -> tuple[str, dict]:
    """The command and the params its flags give, with each input file read into
    the params it stands for."""
    params = dict(vars(args))
    command = params.pop("command")
    if command == "grm":
        command = f"grm-{params.pop('grm_command')}"
    del params["out"]
    for flag in ("center", "function"):  # a function file gives n and its bits
        if flag in params:
            f = function_from_text(_read(params.pop(flag)))
            if params.setdefault("n", f.n) != f.n:
                raise InputError(
                    f"{flag} file has n={f.n}, command asked for n={params['n']}"
                )
            params[f"{flag}_bits_hex"] = f"{f.bits:x}"
    if "table" in params:
        params["table_text"] = _read(params.pop("table"))
        grm_table_from_text(params["table_text"])  # a bad table touches no file
    return command, params


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            results = replay(Path(args.manifest), _resolve_out(args.out_dir))
        else:
            command, params = _params_from_args(args)
            out = _resolve_out(args.out)
            results = execute(command, params, out)
            results = {"out": str(out), **results}
        for key, value in results.items():
            print(f"{key}: {value}")
        return 0
    except RmlistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
