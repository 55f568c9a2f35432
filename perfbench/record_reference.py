"""Write ``reference.json``: output digests of the fixed-input jobs, and weight
distributions the checks need beyond the brute-force oracle's reach.

Run from the repository root at the commit the reference should describe:

    python3 perfbench/record_reference.py

Fixed-input jobs do not depend on the seed, so seed 0 records them all.
Commit the result only when an output format change is intended.
"""

from __future__ import annotations

import json
import shutil

import harness

# Codes whose accumulative counts the checks take from the reference enumerator.
DISTRIBUTIONS = [(6, 2)]


def main() -> None:
    harness.import_rmlist()
    import workloads
    from rmlist import CodeParams, enumerate_weights

    work = harness.OUT_DIR / "reference-work"
    digests = {}
    try:
        for name in workloads.WORKLOADS:
            for size in ("tiny", "full"):
                for job in workloads.build(name, 0, size, work / size, reference={}):
                    if job.digest_key is None or job.digest_key in digests:
                        continue
                    run = job.run()
                    if run.code != 0:
                        raise SystemExit(f"{job.label} exited {run.code}: {run.stderr}")
                    digests[job.digest_key] = workloads.sha256(run.out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    distributions = {
        f"{n},{d}": {str(w): c for w, c in sorted(enumerate_weights(CodeParams(n, d)).counts.items())}
        for n, d in DISTRIBUTIONS
    }
    reference = {"digests": dict(sorted(digests.items())), "distributions": distributions}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"{len(digests)} digests, {len(distributions)} distributions -> "
          f"{workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
