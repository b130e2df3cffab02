"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sv-compare --seed 0 --seconds 30 --trace 0

Every job's answer is checked against the frozen fingerprint in
``expected.json``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics from a traced run.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gradedlie" / "__init__.py").is_file():
        print(f"error: the gradedlie sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # needs the library on the path

    workload = harness.workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = harness.measure(workload, args.seed, args.seconds, bool(args.trace))
    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    print(harness.report(result, units))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
