"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root:

    python3 bench/run.py --workload schedule-homology --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced, prints the per-layer metrics and writes the
spans to ``bench/.trace/``.  Every reported time is adjusted for the
host's speed, gauged while the run goes on (``harness.HostSpeed``).  The
workloads, their catalogs and known answers are in ``bench/catalog.json``.
The library under test is the one in ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(harness.SRC, "precubical", "__init__.py")):
        print(f"error: no library to benchmark under {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC)
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
