#!/usr/bin/env python3
"""Run the catalogue of mutants that the fast paths' tests must kill.

    python3 tests/mutants.py [mutant ids]

Each mutant is one exact edit of one source file: a fault that a fast
path could acquire in a later change, which a named selection of tests
must catch.  For each mutant, src/ and tests/ are copied to a temporary
directory, the edit is applied there, and the selection is run with
`pytest -x -q`.  The mutant is killed when the selection fails.  The
run fails when a mutant survives, when its old text does not occur
exactly once in its file ("target moved": a refactor re-targets the
mutant or retires it, and says so in CHANGES.md), or when the selections
do not pass on the unedited tree, which is checked first.  Nothing in
the repository is written.  Exits 0 when every mutant is killed, else 1.

The file's name keeps it out of pytest's collection: it runs a pytest
per mutant, about two minutes in all, and belongs in CI as its own step.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    id: str
    listed: str  # the CHANGES.md entry whose mutation checks named it
    file: str  # a module of src/natint
    old: str  # must occur exactly once in file
    new: str
    tests: tuple  # the pytest selection that must kill it


# The CHANGES.md entries that listed the mutants, by their titles.
REES_LEMMAS = "Rees quotients read their ideal"
CODED_PARTS = "Part tables from the domain's arithmetic"
FACTORS = "One factor structure per side"
CARRIER_COST = "Per-element work at carrier cost"
SIDES = "A product carrier is its sides"
FIRST_HITS = "One scan for every first witness"

PART_TWIN = "tests/test_part_tables.py::test_coded_part_tables_match_the_twin"
REES_TWIN = "tests/test_factored_quotients.py::test_rees_lemmas_match_the_twin"
RECORDS = ("tests/test_render.py", "-k", "record or payloads")

MUTANTS = (
    Mutant("mat-mul-column-by-row", CODED_PARTS, "carriers.py",
           "b = b.reshape(1, len(b), r, r)\n",
           "b = b.reshape(1, len(b), r, r).swapaxes(-1, -2)\n",
           (PART_TWIN + "[Mat(2,2,N(Zn:2))]",)),
    Mutant("poly-mul-without-cycle", CODED_PARTS, "carriers.py",
           "np.roll(terms, i, axis=-1)",
           "np.concatenate([np.full_like(terms[..., :i], tables['zero']),"
           " terms[..., :cyclic - i]], axis=-1)",
           (PART_TWIN + "[Poly(N(Zn:2),cyc=3)]",)),
    Mutant("mixed-neutro-mul-without-bd", CODED_PARTS, "scalars.py",
           "tail = plus[plus[times[a, d], times[p, c]], times[p, d]]",
           "tail = plus[times[a, d], times[p, c]]",
           (PART_TWIN + "[N(Zn+I:2)]",)),
    Mutant("parts-coded-in-sorted-order", CODED_PARTS, "structures.py",
           "for x in lower.entries(p)] for p in parts]",
           "for x in lower.entries(p)] for p in sorted(parts)]",
           ("tests/test_part_tables.py", "-k",
            "seeded_subsets or first_appearance")),
    Mutant("two-sided-reads-lo-twice", FACTORS, "structures.py",
           "for f in (factors[0], factors[-1]))",
           "for f in (factors[0], factors[0]))",
           ("tests/test_factored.py::test_factored_verdicts_match_the_scan"
            "[Sub{[0,0],[0,1],[0,2]} of N(Zn:3)]",)),
    Mutant("sides-without-the-carriers-name", FACTORS, "structures.py",
           "_Side(len(parts), self.name,", "_Side(len(parts), '',",
           ("tests/test_cli.py::test_table_missing_op_is_an_input_error",)),
    Mutant("sides-not-memoized", FACTORS, "structures.py",
           "    @_once\n    def _sides(self):", "    def _sides(self):",
           ("tests/test_part_tables.py", "-k", "built_once")),
    Mutant("hi-read-as-lo-in-of-codes", CARRIER_COST, "structures.py",
           "digits[:, 1::2] @ weights", "digits[:, 0::2] @ weights",
           ("tests/test_coords.py", "-k", "coords_from_codes")),
    Mutant("punctured-counted-with-zero", CARRIER_COST, "carriers.py",
           "return _structure(elements, ctx, name, codes)",
           "return _structure(elements, ctx, name, range(len(scalars)))",
           ("tests/test_coords.py", "-k", "without_zero")),
    Mutant("additive-orders-without-wrap", CARRIER_COST, "structures.py",
           'add = _walk(s.table("add"), wrap=True)',
           'add = _walk(s.table("add"))',
           ("tests/test_orbits.py",)),
    Mutant("trimmed-keeps-a-zero", CARRIER_COST, "polys.py",
           "return tuple(scalars[:k])", "return tuple(scalars[:k + 1])",
           ("tests/test_coords.py", "-k", "coords_from_codes")),
    Mutant("record-heads-sorted", CARRIER_COST, "cli.py",
           '_json_key(key) + ": " for key in keys]',
           '_json_key(key) + ": " for key in sorted(keys)]',
           RECORDS),
    Mutant("record-nested-value-as-scalar", CARRIER_COST, "cli.py",
           "head + _SCALARS[type(value)](value)",
           "head + _SCALARS.get(type(value), str)(value)",
           RECORDS),
    Mutant("record-later-keys-unchecked", CARRIER_COST, "cli.py",
           "if type(record) is not dict or tuple(record) != keys:",
           "if type(record) is not dict:",
           RECORDS),
    Mutant("parted-modulus-not-run-again", CARRIER_COST, "suites.py",
           "for j in parted:", "for j in ():",
           ("tests/test_suites.py", "-k", "modulus")),
    Mutant("rees-p-and-q-swapped", REES_LEMMAS, "quotients.py",
           "((factors[0], p), (factors[-1], q))",
           "((factors[0], q), (factors[-1], p))",
           (REES_TWIN,)),
    Mutant("rees-partner-read-lo-major", REES_LEMMAS, "quotients.py",
           "partners = c.grid[np.ix_(",
           "partners = np.arange(c.grid.size).reshape(c.grid.shape)[np.ix_(",
           (REES_TWIN, "-k", "Mat or Poly")),
    Mutant("rees-partner-count-at-least", REES_LEMMAS, "quotients.py",
           "(pairs > inner)", "(pairs >= inner)",
           (REES_TWIN,)),
    Mutant("sides-build-every-op-at-once", SIDES, "structures.py",
           "t = self._tables[op] = self._builds[op]()",
           "self._tables.update({o: b() for o, b in self._builds.items()"
           " if o not in self._tables}); t = self._tables[op]",
           ("tests/test_part_tables.py", "-k", "only_its_ops")),
    Mutant("minus-one-clipped-in-bands", SIDES, "structures.py",
           "where.take(codes, out=dest)",
           "where.take(codes, out=dest, mode='clip')",
           ("tests/test_part_tables.py", "-k", "minus_one")),
    Mutant("minus-one-clipped-in-pairs", SIDES, "structures.py",
           "return c.where[code]", "return c.where.take(code, mode='clip')",
           ("tests/test_part_tables.py", "-k", "minus_one")),
    Mutant("first-hit-without-offset", FIRST_HITS, "structures.py",
           "return (lo + hit[0],) + hit[1:]", "return (hit[0],) + hit[1:]",
           ("tests/test_kernels.py", "-k", "first_true")),
    Mutant("first-hit-drops-a-coordinate", FIRST_HITS, "structures.py",
           "return (lo + hit[0],) + hit[1:]", "return (lo + hit[0], hit[1])",
           ("tests/test_kernels.py", "-k", "first_true")),
    Mutant("zero-mask-keeps-row-z", FIRST_HITS, "structures.py",
           "if lo <= z < lo + len(m):", "if lo < z < lo + len(m):",
           ("tests/test_orbits.py", "-k", "zero")),
    Mutant("left-absorption-reads-add", FIRST_HITS, "quotients.py",
           '("not absorbing on the left", "mul",',
           '("not absorbing on the left", "add",',
           ("tests/test_ideal_scan.py",)),
)


def copy_tree(dest):
    """src/ and tests/ of the repository, copied under dest."""
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(dest, part),
                        ignore=skip)


def run_selection(tree, args):
    """The exit code of pytest -x -q on args, run in the copy tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *args], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def mutate(tree, m):
    """Apply m's edit in the copy tree; an error message, or None."""
    path = os.path.join(tree, "src", "natint", m.file)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    found = text.count(m.old)
    if found != 1:
        return f"target moved: {m.old!r} occurs {found} times in {m.file}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(m.old, m.new))
    return None


def baseline(mutants):
    """The selections that fail on the unedited tree, each run once on
    its own, so a -k expression applies only to its own files."""
    with tempfile.TemporaryDirectory(prefix="natint-mutants-") as tree:
        copy_tree(tree)
        return [tests for tests in dict.fromkeys(m.tests for m in mutants)
                if run_selection(tree, tests) != 0]


def main(argv):
    mutants = [m for m in MUTANTS if not argv or m.id in argv]
    unknown = set(argv) - {m.id for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 1
    failed = [f"{' '.join(tests)}: fails on the unedited tree"
              for tests in baseline(mutants)]
    killed = 0
    for m in mutants:
        with tempfile.TemporaryDirectory(prefix="natint-mutant-") as tree:
            copy_tree(tree)
            error = mutate(tree, m)
            start = time.perf_counter()
            code = None if error else run_selection(tree, m.tests)
        wall = time.perf_counter() - start
        if error is None and code != 1:
            error = ("survived" if code == 0
                     else f"pytest exited {code}, not a test failure")
        print(f"{'killed' if error is None else 'FAILED'} {wall:5.1f} s "
              f"{m.id} ({m.listed})" + (f": {error}" if error else ""))
        if error:
            failed.append(f"{m.id}: {error}")
        else:
            killed += 1
    for line in failed:
        print(line)
    print(f"{killed} of {len(mutants)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
