"""Record the reference digests of every op's output on the default seed.

    python3 perfbench/record_digests.py

Runs each scene of each workload once, checks its output, and rewrites
perfbench/digests.json with [label, sha256] per scene in pass order.
Run it only on a commit whose outputs are the reference: a run of the
benchmark on the default seed fails every op whose output differs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    import darkgallery.cli as cli
    from perfbench import checks, harness
    from perfbench.scenes import WORKLOADS, scenes_for

    table = {}
    failed = False
    for workload in WORKLOADS:
        workdir = os.path.join(ROOT, "perfbench", "_work", "record-%d" % os.getpid())
        try:
            prepared = harness.prepare(scenes_for(workload, harness.DEFAULT_SEED), workdir)
            rows = []
            for i, prep in enumerate(prepared):
                rec = harness.run_op(cli, prep, i)
                problems = [rec.error] if rec.error else checks.check_output(
                    prep.scene, rec.rc, rec.text)
                for p in problems:
                    sys.stderr.write("%s %s: %s\n" % (workload, prep.scene.label, p))
                failed = failed or bool(problems)
                rows.append([prep.scene.label, checks.digest(rec.text)])
            table[workload] = rows
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if failed:
        return 1
    with open(harness.DIGESTS_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
