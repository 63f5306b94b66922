#!/usr/bin/env python3
"""Replay the benchmark references on two natint source trees, interleaved.

    python3 tests/ab_replay.py PARENT_SRC CHANGE_SRC [ideals analyze book]

PARENT_SRC and CHANGE_SRC are `src` directories, each holding a `natint`
package.  Each package is copied into a temporary directory under its
own name (natint_parent, natint_change); natint imports itself only
relatively, so both copies load side by side in one process.  Every
request of each workload's references (`perfbench/refs`) runs BEST
times on each copy, the copies alternating and the one that goes first
alternating from request to request, with gc.collect() before every
run; a request's time on a side is its best of BEST.

Both sides' exit codes and stdout sha256 are checked against the
references.  Per workload it prints the sum over slots of each slot's
median request time, for each side, the change in throughput that the
two sums imply, the LARGEST slots of the parent with each side's median
as a share of the parent's sum, and the MOVED slots whose medians moved
most.
Exits 1 when either side mismatches a reference.

One process sees both sides through the same slow spells of a noisy
host, so a change of a few percent shows here when whole benchmark runs
spread too widely to tell it.  The file's name keeps it out of pytest's
collection.
"""

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

SIDES = ("parent", "change")
BEST = 5   # runs per request and side; a side's time is the best of them
LARGEST = 3  # slots printed per workload, the parent's largest
MOVED = 5  # slots printed per workload, those whose medians moved most


def load(src, name, into):
    """The natint package under src, copied into `into` as `name`."""
    shutil.copytree(os.path.join(src, "natint"), os.path.join(into, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    pkg = importlib.import_module(name)
    for module in ("cli", "suites", "verify"):
        importlib.import_module(f"{name}.{module}")
    return pkg


def replay(packages, workload, refs):
    """({side: {slot: [best time of each request]}}, mismatches)."""
    claim_ids = packages[0].verify.claim_ids()
    times = {side: {} for side in SIDES}
    bad = []
    for k, req in enumerate(workloads.all_requests(workload, claim_ids)):
        ref = refs.get(req.key)
        order = (0, 1) if k % 2 == 0 else (1, 0)
        walls = {side: [] for side in SIDES}
        for _ in range(BEST):
            for j in order:
                gc.collect()
                out = run.execute(packages[j], req, 1)
                walls[SIDES[j]].append(out.wall)
                if ref is not None and (out.code, out.digest) != (
                        ref["exit"], ref["sha256"]):
                    bad.append(f"{SIDES[j]} {req.key!r}: exit {out.code}")
        for side in SIDES:
            times[side].setdefault(req.slot, []).append(min(walls[side]))
    return times, sorted(set(bad))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("workloads", nargs="*",
                    default=["ideals", "analyze", "book"])
    args = ap.parse_args(argv)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        packages = [load(os.path.abspath(src), f"natint_{side}", tmp)
                    for src, side in zip((args.parent_src, args.change_src),
                                         SIDES)]
        for workload in args.workloads:
            with open(os.path.join(run.REFS, f"{workload}.json"),
                      encoding="utf-8") as fh:
                refs = json.load(fh)
            times, bad = replay(packages, workload, refs)
            medians = {side: {slot: statistics.median(ts)
                              for slot, ts in times[side].items()}
                       for side in SIDES}
            total = {side: sum(medians[side].values()) for side in SIDES}
            print(f"{workload}: parent {total['parent'] * 1e3:.1f} ms, "
                  f"change {total['change'] * 1e3:.1f} ms summed slot "
                  f"medians, {total['parent'] / total['change'] - 1:+.1%} "
                  f"req/s; {len(bad)} mismatches")
            largest = sorted(medians["parent"],
                             key=lambda slot: -medians["parent"][slot])
            for slot in largest[:LARGEST]:
                a, b = medians["parent"][slot], medians["change"][slot]
                print(f"  largest {slot}: {a * 1e3:.2f} ms "
                      f"({a / total['parent']:.1%} of the parent's sum) -> "
                      f"{b * 1e3:.2f} ms ({b / total['parent']:.1%})")
            moved = sorted(medians["parent"], key=lambda slot: -abs(
                medians["change"][slot] - medians["parent"][slot]))
            for slot in moved[:MOVED]:
                a, b = medians["parent"][slot], medians["change"][slot]
                print(f"  {slot}: {a * 1e3:.2f} -> {b * 1e3:.2f} ms")
            for line in bad:
                print("  MISMATCH", line)
            failed += len(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
