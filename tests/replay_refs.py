#!/usr/bin/env python3
"""Replay every recorded benchmark reference and compare the outputs.

    python3 tests/replay_refs.py [analyze ideals book]

For each request in `perfbench/refs/<workload>.json`, run it once through
`natint.cli.main` (the benchmark's own `run.execute`) and compare its exit
code and stdout sha256 with the reference.  Nothing is written.  Exits 0
when every request matches, 1 when any differs or is missing.  Under each
workload's line come its three slowest requests with their wall times, so
that a change's cost shows where it lies.

The file's name keeps it out of pytest's collection: it takes about 10 s
and belongs in CI as its own step.
"""

import heapq
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

SLOWEST = 3


def replay(natint, workload):
    """Mismatch descriptions for one workload, its request count and its
    slowest requests as (wall seconds, key), slowest first."""
    with open(os.path.join(run.REFS, f"{workload}.json"),
              encoding="utf-8") as fh:
        refs = json.load(fh)
    requests = workloads.all_requests(workload, natint.verify.claim_ids())
    bad = [f"{key!r}: no reference"
           for key in sorted({r.key for r in requests} - refs.keys())]
    walls = []
    for req in requests:
        ref = refs.get(req.key)
        if ref is None:
            continue
        out = run.execute(natint, req, 1)
        walls.append((out.wall, req.key))
        if (out.code, out.digest) != (ref["exit"], ref["sha256"]):
            bad.append(f"{req.key!r}: exit {out.code} sha256 {out.digest}, "
                       f"expected exit {ref['exit']} sha256 {ref['sha256']}"
                       + (f" ({out.error})" if out.error else ""))
    return bad, len(requests), heapq.nlargest(SLOWEST, walls)


def main(argv):
    run.check_source_tree()
    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    import natint
    import natint.verify
    failed = 0
    for workload in argv or ("analyze", "ideals", "book"):
        t0 = time.perf_counter()
        bad, total, slowest = replay(natint, workload)
        print(f"{workload}: {total} requests, {len(bad)} mismatches in "
              f"{time.perf_counter() - t0:.1f} s")
        for wall, key in slowest:
            print(f"  slow {wall:.3f} s {key.replace(chr(31), ' ')}")
        for line in bad:
            print("  MISMATCH", line)
        failed += len(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
