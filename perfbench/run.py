"""Benchmark entry point for darkgallery.

    python3 perfbench/run.py --workload convex-verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
of the checkout that holds this file.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; with ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones.  Failure reasons and the input
shape go to standard error.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    sys.path.insert(0, ROOT)
    from perfbench.scenes import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "darkgallery", "cli.py")):
        sys.stderr.write("perfbench: no darkgallery sources under %s\n" % src)
        return 2
    sys.path.insert(0, src)
    from perfbench.harness import BenchError, run_workload

    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
