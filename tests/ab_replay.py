#!/usr/bin/env python3
"""Replay the benchmark references on two natint source trees, interleaved.

    python3 tests/ab_replay.py PARENT_SRC CHANGE_SRC [WORKLOAD ...]

PARENT_SRC and CHANGE_SRC are `src` directories, each holding a `natint`
package.  Each package is copied into a temporary directory under its
own name (natint_parent, natint_change); natint imports itself only
relatively, so both copies load side by side in one process.  Every
request of each workload's references (`perfbench/refs`) runs BEST
times on each copy, the copies alternating and the one that goes first
alternating from request to request, with gc.collect() before every
run; a request's time on a side is its best of BEST.  The oracle
workload has no references: its requests are every suite call of the
oracle pool (`perfbench/workloads.py`), each at seed SUITE_SEED.

Both sides' exit codes and stdout sha256 are checked against the
references; a suite call's reports must be equal on both sides, ok,
with no failure.  WORKLOAD is ideals, analyze, book or oracle; by
default the first three run.  Per workload it prints the sum over slots
of each slot's median request time, for each side, the change in
throughput that the two sums imply, the LARGEST slots of the parent
with each side's median as a share of the parent's sum, and the MOVED
slots whose medians moved most.  Exits 1 on any mismatch.

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
SUITE_SEED = 1  # the seed of every oracle suite call


def load(src, name, into):
    """The natint package under src, copied into `into` as `name`."""
    shutil.copytree(os.path.join(src, "natint"), os.path.join(into, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    pkg = importlib.import_module(name)
    for module in ("cli", "suites", "verify"):
        importlib.import_module(f"{name}.{module}")
    return pkg


def requests(workload, claim_ids):
    """Every request of the workload: each CLI variant of its pool, or
    for the oracle each suite call of its pool, at SUITE_SEED."""
    if workload != "oracle":
        return workloads.all_requests(workload, claim_ids)
    return [workloads.Request(slot, suite=fn,
                              kwargs=dict(kw, seed=SUITE_SEED))
            for slot in workloads.pool(workload)
            for fn, kw in slot.variants]


def replay(packages, workload, refs):
    """({side: {slot: [best time of each request]}}, mismatches)."""
    claim_ids = packages[0].verify.claim_ids()
    times = {side: {} for side in SIDES}
    bad = []
    for k, req in enumerate(requests(workload, claim_ids)):
        ref = refs.get(req.key)
        order = (0, 1) if k % 2 == 0 else (1, 0)
        walls = {side: [] for side in SIDES}
        reports = set()
        for _ in range(BEST):
            for j in order:
                gc.collect()
                out = run.execute(packages[j], req, 1)
                walls[SIDES[j]].append(out.wall)
                if ref is not None and (out.code, out.digest) != (
                        ref["exit"], ref["sha256"]):
                    bad.append(f"{SIDES[j]} {req.key!r}: exit {out.code}")
                if req.suite is not None:
                    # None when the report is ok, with no failure
                    if out.error is not None:
                        bad.append(f"{SIDES[j]} {req.key!r}: {out.error}")
                    reports.add(out.text)
        if len(reports) > 1:
            bad.append(f"{req.key!r}: the reports differ")
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
            refs = {}
            if workload != "oracle":
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
