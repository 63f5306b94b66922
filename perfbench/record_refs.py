#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_refs.py [analyze ideals book]

For every request a run of the workload can draw, run it once through
`natint.cli.main` and store its exit code and the sha256 of its stdout
in `perfbench/refs/<workload>.json`.  `analyze` entries also keep the
carrier order and whether a proper subfield (S-ring witness) was found;
`book` entries keep the claim status.  A request that exits with
anything but 0 or 4 (a verdict) aborts the recording: the pools must
hold only requests the engine answers.

Re-record only when the engine's output is meant to change.
"""

import json
import os
import sys
import time

import run
import workloads

BOOK_COUNTS = {"pass": 70, "fail": 0, "erratum": 5, "skipped": 3}


def record(workload):
    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    import natint
    import natint.verify
    requests = workloads.all_requests(workload, natint.verify.claim_ids())
    refs = {}
    statuses = {}
    t0 = time.perf_counter()
    for req in requests:
        out = run.execute(natint, req, os.cpu_count() or 1)
        if out.code not in (0, 4):
            raise SystemExit(f"{req.key!r} exited {out.code}: {out.error}")
        entry = {"exit": out.code, "sha256": out.digest}
        if workload == "analyze":
            report = json.loads(out.text)
            entry["order"] = report["order"]
            if req.argv[0] == "analyze":
                entry["s_ring"] = report["substructures"].get("s_ring")
        if workload == "book":
            entry["status"] = json.loads(out.text)["claims"][0]["status"]
            seed = req.argv[-1]
            counts = statuses.setdefault(seed, dict.fromkeys(BOOK_COUNTS, 0))
            counts[entry["status"]] += 1
        refs[req.key] = entry
    for seed, counts in statuses.items():
        if counts != BOOK_COUNTS:
            raise SystemExit(f"verify-book --seed {seed} gives {counts}, "
                             f"expected {BOOK_COUNTS}")
    path = os.path.join(run.REFS, f"{workload}.json")
    os.makedirs(run.REFS, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{workload}: {len(refs)} references in "
          f"{time.perf_counter() - t0:.1f} s -> {os.path.relpath(path)}")


def main(argv):
    run.check_source_tree()
    for workload in argv or ("analyze", "ideals", "book"):
        record(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
