"""Run one rmlist benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload enum-scan --seed 1 --seconds 30 --trace 0

The run imports rmlist from ``src/`` of the same checkout, sets up (import,
seeded inputs, a warm-up pass; repeated and the median taken), then runs
timed passes of the workload's fixed job list for ``--seconds`` and checks
every job's output exactly. ``--trace 0`` reports the end-to-end metrics,
with times corrected for machine speed (``harness.speed_factor``);
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics plus the tracing overhead. Human-readable lines come
first; the last line of stdout is the JSON result. The full record, with
the seed and the environment, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("peak_rss_mib", "MiB")]


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_codeword"):
        return "ns"
    if name.endswith(("_ratio", "_efficiency")):
        return "ratio"
    if name.startswith(("formats.bytes", "manifest.bytes")):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        record = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = harness.write_record(record)

    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {args.trace}  "
          f"record {path}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"failed_ratio {record['failed_ratio']:.6g}  "
          f"({record['failed']} of {record['attempted']} jobs)")
    for label, error in record["failures"]:
        print(f"FAILED {label}: {error}")
    if args.trace:
        print(f"untraced wall_s {record['untraced']['wall_s']:.6g} s over "
              f"{record['untraced']['passes']} passes; traced wall_s "
              f"{record['traced']['wall_s']:.6g} s over {record['traced']['passes']} passes")
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in record["per_layer"].items()}
    else:
        metrics = {name: {"value": record[name], "unit": unit} for name, unit in END_TO_END}
        print(f"passes {record['passes']}  jobs timed {record['jobs_timed']}  "
              f"job_tail_s is p{record['tail_percentile']:g} of {record['jobs_timed']} jobs")
        print(f"speed factor {record['speed_factor']:.4f} (calibration kernel "
              f"{record['calibration_ms']:.4f} ms); raw "
              + "  ".join(f"{k} {v:.6g} s" for k, v in record["raw"].items()))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
