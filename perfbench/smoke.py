#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. Runs every workload at a tiny size (the first three requests of one
   round), untraced and traced, and requires a correct result with no
   failed request.
2. Copies the references to a temporary directory inside perfbench/out/,
   corrupts the digest of one request that the tiny analyze run sends,
   and requires the gate to count exactly that request as failed.  This
   shows the gate can fail.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

import run
import workloads

SEED = 1
TINY = 3


def bench(workload, trace, refs=run.REFS):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "120",
         "--trace", str(trace), "--max-requests", str(TINY),
         "--refs", refs],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    run.check_source_tree()
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            res = bench(workload, trace)
            ok = res["correct"] and res["failed"] == 0 \
                and res["attempted"] == TINY
            print(f"{workload:8s} trace={trace} attempted={res['attempted']} "
                  f"failed={res['failed']} correct={res['correct']}")
            if not ok:
                problems.append(f"{workload} trace={trace}: {res}")

    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    import natint.verify
    first = workloads.stream("analyze", SEED,
                             natint.verify.claim_ids())[0][0]
    tmp_refs = os.path.join(run.OUT, f"smoke-refs-{os.getpid()}")
    shutil.copytree(run.REFS, tmp_refs)
    try:
        path = os.path.join(tmp_refs, "analyze.json")
        with open(path, encoding="utf-8") as fh:
            refs = json.load(fh)
        digest = refs[first.key]["sha256"]
        refs[first.key]["sha256"] = digest[::-1]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(refs, fh)
        res = bench("analyze", 0, refs=tmp_refs)
    finally:
        shutil.rmtree(tmp_refs)
    caught = not res["correct"] and res["failed"] == 1
    print(f"corrupted digest of one {first.slot!r} request: "
          f"failed={res['failed']} "
          f"correct={res['correct']}")
    if not caught:
        problems.append(f"corrupted reference not caught: {res}")

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
