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
import json
import os
import sys
from pathlib import Path

from . import __version__
from .approximator import (
    ApproximatorParams,
    approximator_json,
    build_approximator,
)
from .boolfunc import CodeParams, FunctionTable
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
    grm_table_from_text,
    parse_fraction,
    read_function_file,
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


def _resolve_out(out: str) -> Path:
    path = Path(out)
    if not path.is_absolute():
        base = os.environ.get(OUT_DIR_ENV)
        if base:
            path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _run_enum(params: dict, out: Path) -> dict:
    code = CodeParams(params["n"], params["d"])
    enum = enumerate_weights(
        code, shards=params.get("shards", 1), workers=params.get("workers", 1)
    )
    out.write_text(enumerator_csv(enum))
    results = {}
    for text in params.get("alphas", []):
        alpha = parse_fraction(text)
        results[f"A({text})"] = accumulative(enum, alpha)
    return results


def _run_listdecode(params: dict, out: Path) -> dict:
    code = CodeParams(params["n"], params["d"])
    center = FunctionTable(params["n"], int(params["center_bits_hex"], 16))
    alpha = parse_fraction(params["alpha"])
    if alpha >= 1 and not params.get("allow_full", False):
        raise InputError(
            "alpha >= 1 lists the entire code; pass --allow-full to confirm"
        )
    result = ball(center, alpha, code)
    out.write_text(ball_csv(result))
    return {"members": result.size}


def _run_approx(params: dict, out: Path) -> dict:
    f = FunctionTable(params["n"], int(params["function_bits_hex"], 16))
    ap = ApproximatorParams(
        k=params["k"],
        eps=parse_fraction(params["eps"]),
        delta=parse_fraction(params["delta"]),
        seed=params["seed"],
        m=params.get("m"),
        retry_budget=params.get("retries", 10),
    )
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


def _run_verify(params: dict, out: Path) -> dict:
    identity = params["identity"]
    if identity == "single-der":
        if params.get("exhaustive"):
            report = verify_single_derivative_exhaustive(params["n"]).as_dict()
        else:
            g = FunctionTable(params["n"], int(params["function_bits_hex"], 16))
            report = single_derivative_identity(g).as_dict()
    elif identity == "representation":
        f = FunctionTable(params["n"], int(params["function_bits_hex"], 16))
        report = verify_derivative_representation(
            f, params["k"], parse_fraction(params["eps"])
        ).as_dict()
    elif identity == "bias-bounds":
        f = FunctionTable(params["n"], int(params["function_bits_hex"], 16))
        result = check_bias_bounds(
            f,
            params["k"],
            parse_fraction(params["eps"]),
            samples=params.get("samples", 2000),
            seed=params.get("seed", 0),
        )
        report = result.as_dict()
        if result.violation_count:
            out.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
            raise InvariantFailure(
                f"{result.violation_count} bias lower-bound violations"
            )
    else:
        raise InputError(f"unknown identity {identity!r}")
    out.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return report


def _run_bounds(params: dict, out: Path) -> dict:
    n, d, k = params["n"], params["d"], params["k"]
    eps = parse_fraction(params["eps"])
    a_bound, l_bound = accumulative_weight_bound(n, d, k, eps), list_size_bound(n, d, k, eps)
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


def _run_construct(params: dict, out: Path) -> dict:
    family = construct_low_weight_family(
        params["n"], params["d"], params["k"], limit=params.get("limit")
    )
    out.write_text(family_to_text(family))
    return {
        "distinct": family.distinct_count,
        "weight": str(family.target_weight),
    }


def _run_grm_thresholds(params: dict, out: Path) -> dict:
    rows = weight_thresholds(params["q"], params["d"])
    lines = ["k,a,b,threshold"]
    for t in rows:
        lines.append(f"{t.k},{'' if t.a is None else t.a},"
                     f"{'' if t.b is None else t.b},{t.value}")
    out.write_text("\n".join(lines) + "\n")
    return {f"r_{t.k}": str(t.value) for t in rows}


def _run_grm_enum(params: dict, out: Path) -> dict:
    gp = GrmParams(params["q"], params["n"], params["d"])
    enum = grm_enumerate_weights(gp)
    out.write_text(enumerator_csv(enum))
    return {"codewords": enum.total()}


def _run_grm_construct(params: dict, out: Path) -> dict:
    family = construct_grm_family(
        params["q"], params["n"], params["d"], params["k"],
        limit=params.get("limit", 64),
    )
    lines = ["index,weight,degree,values,polynomial"]
    for i, (p, table) in enumerate(family.members):
        digits = "".join(str(v) for v in table.values)
        lines.append(f"{i},{family.claimed_weight},{p.degree},{digits},{p}")
    out.write_text("\n".join(lines) + "\n")
    return {
        "distinct": family.distinct_count,
        "claimed_weight": str(family.claimed_weight),
    }


def _run_grm_bias_scan(params: dict, out: Path) -> dict:
    table = grm_table_from_text(params["table_text"])
    eps = parse_fraction(params["eps"]) if params.get("eps") else None
    report = bias_scaling_scan(table, eps=eps)
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


def execute(command: str, params: dict, out: Path) -> dict:
    """Run a command, write its output and manifest, return stdout-able results.

    An earlier output and manifest at ``out`` are removed first, so a manifest
    always describes an output this run wrote; a run that fails before it
    writes leaves neither.
    """
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
    runner = RUNNERS[command]
    try:
        results = runner(params, out)
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
    out_dir.mkdir(parents=True, exist_ok=True)
    if len(manifest.outputs) != 1:
        raise InputError("manifest must record exactly one output")
    name, recorded = next(iter(manifest.outputs.items()))
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
    parser = argparse.ArgumentParser(
        prog="rmlist",
        description="Exact analysis of degree-bounded binary codes: weight "
        "distributions, list-decoding balls, derivative approximators, bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="weight enumerator CSV and A(alpha) queries")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--alpha", action="append", default=[],
                   help="exact fraction a/b; may repeat")
    p.add_argument("--out", default="enum.csv")

    p = sub.add_parser("listdecode", help="list all codewords within alpha of a word")
    p.add_argument("--center", required=True, help="function file")
    p.add_argument("--alpha", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--allow-full", action="store_true")
    p.add_argument("--out", default="ball.csv")

    p = sub.add_parser("approx", help="build a sampled weighted-majority approximator")
    p.add_argument("--function", required=True, help="function file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--retries", type=int, default=10)
    p.add_argument("--m", type=int, default=None,
                   help="override sample count (must meet the minimum)")
    p.add_argument("--out", default="approximator.json")

    p = sub.add_parser("verify", help="check a derivative identity exactly")
    p.add_argument("identity", choices=["single-der", "representation", "bias-bounds"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--eps")
    p.add_argument("--function", help="function file")
    p.add_argument("--exhaustive", action="store_true",
                   help="single-der: sweep every function on n variables")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="verify.json")

    p = sub.add_parser("bounds", help="explicit counting bounds with constituents")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--out", default="bounds.csv")

    p = sub.add_parser("construct", help="stream low-weight codeword families")
    p.add_argument("--family", choices=["lower-bound"], default="lower-bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--out", default="family.txt")

    pg = sub.add_parser("grm", help="prime-field analogues")
    gsub = pg.add_subparsers(dest="grm_command", required=True)

    p = gsub.add_parser("thresholds", help="distance cut-offs r_1..r_d")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", default="thresholds.csv")

    p = gsub.add_parser("enum", help="exhaustive weight enumerator over F_q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", default="grm_enum.csv")

    p = gsub.add_parser("construct", help="threshold-weight constructions over F_q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--limit", type=int, default=64)
    p.add_argument("--out", default="grm_family.csv")

    p = gsub.add_parser("bias-scan", help="bias of every scalar multiple of a table")
    p.add_argument("--table", required=True, help="value-table file")
    p.add_argument("--eps", default=None)
    p.add_argument("--out", default="bias_scan.json")

    p = sub.add_parser("replay", help="re-run a manifest and verify outputs")
    p.add_argument("manifest")
    p.add_argument("--out-dir", default="replay")

    return parser


def _params_from_args(args: argparse.Namespace) -> tuple[str, dict]:
    cmd = args.command
    if cmd == "enum":
        return cmd, {
            "n": args.n, "d": args.d, "shards": args.shards,
            "workers": args.workers, "alphas": list(args.alpha),
        }
    if cmd == "listdecode":
        center = read_function_file(args.center)
        if center.n != args.n:
            raise InputError(
                f"center file has n={center.n}, command asked for n={args.n}"
            )
        return cmd, {
            "n": args.n, "d": args.d, "alpha": args.alpha,
            "allow_full": args.allow_full,
            "center_bits_hex": f"{center.bits:x}",
        }
    if cmd == "approx":
        f = read_function_file(args.function)
        params = {
            "n": f.n, "k": args.k, "eps": args.eps, "delta": args.delta,
            "seed": args.seed, "retries": args.retries,
            "function_bits_hex": f"{f.bits:x}",
        }
        if args.m is not None:
            params["m"] = args.m
        return cmd, params
    if cmd == "verify":
        params = {
            "identity": args.identity,
            "exhaustive": args.exhaustive,
            "samples": args.samples,
            "seed": args.seed,
        }
        if args.identity == "single-der" and args.exhaustive:
            if args.n is None:
                raise InputError("verify single-der --exhaustive needs --n")
            params["n"] = args.n
        else:
            if not args.function:
                raise InputError(f"verify {args.identity} needs --function")
            f = read_function_file(args.function)
            params["n"] = f.n
            params["function_bits_hex"] = f"{f.bits:x}"
            if args.identity in ("representation", "bias-bounds"):
                if args.k is None or args.eps is None:
                    raise InputError(f"verify {args.identity} needs --k and --eps")
                params["k"] = args.k
                params["eps"] = args.eps
        return cmd, params
    if cmd == "bounds":
        return cmd, {"n": args.n, "d": args.d, "k": args.k, "eps": args.eps}
    if cmd == "construct":
        return cmd, {"n": args.n, "d": args.d, "k": args.k, "limit": args.limit}
    if cmd == "grm":
        gcmd = f"grm-{args.grm_command}"
        if args.grm_command == "thresholds":
            return gcmd, {"q": args.q, "d": args.d}
        if args.grm_command == "enum":
            return gcmd, {"q": args.q, "n": args.n, "d": args.d}
        if args.grm_command == "construct":
            return gcmd, {"q": args.q, "n": args.n, "d": args.d, "k": args.k,
                          "limit": args.limit}
        if args.grm_command == "bias-scan":
            table_text = Path(args.table).read_text()
            grm_table_from_text(table_text)  # validate early
            return gcmd, {"table_text": table_text, "eps": args.eps}
    raise InputError(f"unknown command {cmd!r}")


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
