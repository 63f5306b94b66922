#!/usr/bin/env python3
"""Run every small carrier spec through the CLI, on the engine and on the
engine without shortcuts, and compare the outputs.

    python3 tests/sweep_small.py

Every spec the grammar admits with at most SIZE_BOUND elements is swept:
N(D) and N(D)\\0 for every finite domain D (Zn:k, ZnI:k, Zn+I:k) in each
flavor, Mat(r,c,N(D)) and Poly(N(D),cyc=k) in each flavor of N(D), and
the fuzzy grids.  For each carrier it runs analyze and the table of each
op; for a carrier with both ops, ideal (the whole enumeration), and
col-zero, row-zero and diag-multiples:k for every scalar k, where the
carrier's kind defines them, each as an ideal and as a Rees and a
standard quotient; and gen{x} as an ideal for every element x of a
carrier of at most GEN_BOUND elements.

Each request runs through cli.main three times: on the engine with bands
of one entry, so that every block is read row by row and every view of
more than one entry reads its ambient; on the engine at the default
band; and with build_carrier and FiniteStructure.restrict patched to
return built twins (conftest.on_twins), which have no product form and
no ambient, so every fact is scanned off tables built one pair at a
time.  Exit code, stdout and stderr must match across the three.  Unlike
tests/test_differential.py, which draws its requests, the sweep covers
the same specs on every run.

Prints the number of requests, the mismatches and the time; exits 1 on
a mismatch.  The file's name keeps it out of pytest's collection: it
takes about a minute and belongs in CI as its own step.
"""

import contextlib
import io
import os
import sys
import time
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from natint import cli, structures  # noqa: E402
from natint.carriers import build_carrier  # noqa: E402
from natint.errors import ParseError, TooLarge  # noqa: E402
from conftest import on_twins  # noqa: E402

SIZE_BOUND = 64
# Largest carrier whose every element is a gen{x} request.
GEN_BOUND = 16
DOMAINS = ("Zn", "ZnI", "Zn+I")
FLAVORS = ("", ",c", ",o", ",oc", ",co")
SHAPES = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1))
FUZZY_OPS = ("min", "max", "prod")


def small(spec):
    """The carrier of spec, or None when the grammar refuses it or it has
    more than SIZE_BOUND elements."""
    try:
        return build_carrier(spec, size_bound=SIZE_BOUND)
    except (ParseError, TooLarge):
        return None


def carriers():
    """(spec, carrier) for every small spec, in a fixed order."""
    domains = []
    for head in DOMAINS:
        k = 2
        while small(f"N({head}:{k})") is not None:
            domains.append(f"{head}:{k}")
            k += 1
    specs = []
    for d in domains:
        for flavor in FLAVORS:
            n = f"N({d}{flavor})"
            specs += [n, n + "\\0"]
            specs += [f"Mat({r},{c},{n})" for r, c in SHAPES]
            specs += [f"Poly({n},cyc={k})" for k in (1, 2, 3)]
    for op in FUZZY_OPS:
        step = 1
        while small(f"Fuzzy({op},step=1/{step})") is not None:
            specs.append(f"Fuzzy({op},step=1/{step})")
            step += 1
    for spec in specs:
        s = small(spec)
        if s is not None:
            yield spec, s


def requests(spec, s):
    """argv of every request the sweep makes of the carrier s."""
    out = [["analyze", spec]]
    out += [["table", spec, op] for op in ("add", "mul") if s.has_op(op)]
    if not (s.has_op("add") and s.has_op("mul")):
        return out
    ideals = []
    if s.kind in ("interval", "matrix"):
        ideals += ["col-zero", "row-zero"]
    if s.kind == "interval":
        ideals += [f"diag-multiples:{k}" for k in s.domain.elements()]
    out.append(["ideal", spec])
    for ideal in ideals:
        out.append(["ideal", spec, ideal])
        out += [["quotient", "--kind", kind, spec, ideal]
                for kind in ("rees", "standard")]
    if s.n <= GEN_BOUND:
        out += [["ideal", spec, "gen{%s}" % label] for label in s.labels(
            range(s.n))]
    return out


def run(argv):
    """(exit code, stdout, stderr) of argv through cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def sweep(argv):
    """The mismatch descriptions of one request's three runs."""
    # a bound of SIZE_BOUND ** 2 lets every carrier print its table
    command, *rest = argv
    argv = [command, "--size-bound", str(SIZE_BOUND ** 2), *rest]
    with mock.patch.object(structures, "_BAND_ENTRIES", 1):
        rows = run(argv)
    banded = run(argv)
    with on_twins():
        twin = run(argv)
    return [f"{argv}: {name} differs from the twin"
            for name, got in (("bands of 1", rows), ("default bands", banded))
            if got != twin]


def main():
    start = time.perf_counter()
    count, specs, bad = 0, 0, []
    for spec, s in carriers():
        specs += 1
        for argv in requests(spec, s):
            count += 1
            bad += sweep(argv)
    for line in bad:
        print(line)
    print(f"{count} requests on {specs} carriers of at most {SIZE_BOUND} "
          f"elements, {len(bad)} mismatches in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
