#!/usr/bin/env python3
"""Run the catalogue of mutants that the fast paths' tests must kill.

    python3 tests/mutants.py [mutant ids]

Each mutant is one exact edit of one source file: a fault that a fast
path could acquire in a later change, which a named selection of tests
must catch.  For each mutant, src/ and tests/ are copied to a temporary
directory, the edit is applied there, and the selection is run with
`pytest -x -q`.  The mutant is killed when the selection fails, or when
it runs past TIMEOUT (60 s; the slowest selection takes about 12 s on a
2-core VM), so a fault that makes a loop endless is caught and costs
one worker a minute.  The run fails when a mutant survives, when its
old text does not occur exactly once in its file ("target moved": a
refactor re-targets the mutant or retires it, and says so in
CHANGES.md), or when a selection fails or times out on the unedited
tree, which is checked first.  Nothing in the repository is written.
Exits 0 when every mutant is killed, else 1.

Equivalent mutants (EQUIVALENT) change no verdict the program can
print, each for the reason it gives.  They run only when named, and then
the run fails unless each survives its selection.

The file's name keeps it out of pytest's collection: it runs a pytest
per mutant, WORKERS at a time, under three minutes in all, and belongs
in CI as its own step.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# pytest runs at a time: each run is mostly its own start-up, so two
# halve the step's time on two cores
WORKERS = 2
# seconds a selection may run; past it the pytest is killed
TIMEOUT = 60
TIMED_OUT = "timed out"


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
BATCHED_SZD = "S-zero-divisors in one batched pass"
DRAWS = "The book at the cost of its draws"
BANDED_READER = "One banded reader for every block of a table"
VIEWS = "Subsets are views like quotients"
NO_CLASS_TABLE = "Large quotients with no class table"
FACTOR_S_RING = ("S-ring verdicts and maximal subgroups of a full product "
                 "read off its factor")
PRIME_FIELDS = "The S-ring search ends at the prime fields"
BLOCK_READER = "Ideals read the carrier through its block reader"
CLAIMS = "The claim catalogue asks the engine"
MODMAP_PAIRS = "The mod-n map once per operand pair"
ONE_WAY = "The randomized suites check each law one way"
FAMILIES = "The claim catalogue by families"
ONE_READER = "One spec reader"
ONE_RULE = "The arithmetic layer states each rule once"
REQUEST_LAYER = "The request layer states each rule once"

PART_TWIN = "tests/test_part_tables.py::test_coded_part_tables_match_the_twin"
REES_TWIN = "tests/test_factored_quotients.py::test_rees_lemmas_match_the_twin"
RECORDS = ("tests/test_render.py", "-k", "record or payloads")
SZD_TWIN = ("tests/test_orbits.py", "-k", "s_zero_divisors_of_random")
SZD_DEEP = ("tests/test_orbits.py", "-k", "s_zero_divisors_of_deep")
VIEW_TWIN = ("tests/test_subset_views.py",)
S_RING_TWIN = ("tests/test_s_ring_exhaustive.py",)
FACTOR_S_RING_TWIN = ("tests/test_factored_substructures.py",)
QUOTIENT_TWIN = ("tests/test_factored_quotients.py", "-k",
                 "quotient_verdicts")
LEAK_TWIN = ("tests/test_ideal_scan.py", "-k", "first_leak")
MODMAP_TWIN = "tests/test_suites.py::test_batched_modmap_matches_the_case_loop"
# the op checks and the kernel draw of a case of suites._modmap_cases
MODMAP_OP_CHECKS = (
    "        for op, f in _MODMAP_OPS:\n"
    "            z = f(x, y)\n"
    "            amb = NaturalInterval(dn, z.lo % n, z.hi % n)\n"
    "            img = f(px, py)\n"
    "            if amb != img:\n"
    '                return {"op": op, "x": str(x), "y": str(y), "case": k,\n'
    '                        "phi(x op y)": str(amb), "phi(x) op phi(y)": '
    'str(img)}\n')
KERNEL_DRAW = (
    "        kern = NaturalInterval(Z, n * (_rand_below(rng, 61) - 30),\n"
    "                               n * (_rand_below(rng, 61) - 30))\n")

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
           "codes = [c for c in codes if scalars[c] != domain.zero]",
           "codes = list(codes)",
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
    Mutant("szd-keeps-x-in-b", BATCHED_SZD, "structures.py",
           "        b[np.arange(len(x)), x >> 6] &= clear[x]\n", "",
           SZD_TWIN),
    Mutant("szd-keeps-y-in-b", BATCHED_SZD, "structures.py",
           "    zero_rows[np.arange(n), np.arange(n) >> 6] &= clear\n", "",
           SZD_TWIN),
    Mutant("szd-candidate-a-is-x", BATCHED_SZD, "structures.py",
           "        rows[a == x] = 0\n", "",
           SZD_TWIN),
    Mutant("szd-b-from-row-x", BATCHED_SZD, "structures.py",
           "b = zero_rows.take(y, axis=0)",
           "b = zero_rows.take(x, axis=0)",
           SZD_TWIN),
    Mutant("szd-packs-m-not-its-complement", BATCHED_SZD, "structures.py",
           "notm = ~zero_rows", "notm = zero_rows.copy()",
           SZD_TWIN),
    Mutant("szd-first-a-without-offset", BATCHED_SZD, "structures.py",
           "xs.searchsorted(x)", "np.zeros_like(x)",
           SZD_TWIN),
    Mutant("szd-round-allows-a-is-x", BATCHED_SZD, "structures.py",
           "found = (cand != x[todo]) & (", "found = (",
           SZD_TWIN),
    Mutant("szd-split-x-keeps-its-last-chunk", BATCHED_SZD, "structures.py",
           "union[x[heads]] |= ", "union[x[heads]] = ",
           SZD_TWIN),
    Mutant("szd-round-skips-a-candidate", BATCHED_SZD, "structures.py",
           "at[~found] + 1", "at[~found] + 2",
           SZD_DEEP),
    Mutant("szd-without-x-equal-y", BATCHED_SZD, "structures.py",
           "pairs = np.flatnonzero(cols >= xs)",
           "pairs = np.flatnonzero(cols > xs)",
           SZD_DEEP),
    Mutant("draw-width-of-n-minus-one", DRAWS, "scalars.py",
           "k = n.bit_length()", "k = (n - 1).bit_length()",
           ("tests/test_scalars.py", "-k", "rand_below")),
    Mutant("domains-equal-only-to-themselves", DRAWS, "scalars.py",
           "return self is other or (isinstance(other, Domain)",
           "return self is other or (False and isinstance(other, Domain)",
           ("tests/test_intervals.py", "-k", "distinct_objects")),
    Mutant("rand-below-without-its-guard", DRAWS, "scalars.py",
           "if n < 1:", "if False:",
           ("tests/test_scalars.py::test_rand_below_refuses_an_empty_range",)),
    Mutant("integer-draw-offset-49", DRAWS, "scalars.py",
           "return _rand_below(rng, 101) - 50",
           "return _rand_below(rng, 101) - 49",
           ("tests/test_scalars.py", "-k", "randranges_stream")),
    Mutant("table-bands-drop-the-last-band", BANDED_READER, "structures.py",
           "    for start in range(0, len(t if rows is None else rows), "
           "band):",
           "    for start in range(0, len(t if rows is None else rows) "
           "- band + 1, band):",
           VIEW_TWIN),
    Mutant("table-bands-not-relabeled", BANDED_READER, "structures.py",
           "block = _relabel(block, relabel, dest)", "block = block",
           QUOTIENT_TWIN),
    Mutant("view-rows-not-read-through-reps", BANDED_READER,
           "structures.py",
           "op, reps if rows is None else reps[rows],",
           "op, reps if rows is None else rows,",
           VIEW_TWIN),
    Mutant("absorbing-candidates-as-an-identity", VIEWS, "structures.py",
           "edge = ar if absorbing else 0", "edge = 0",
           VIEW_TWIN),
    Mutant("identity-candidates-as-absorbing", VIEWS, "structures.py",
           "edge = ar if absorbing else 0", "edge = ar",
           VIEW_TWIN),
    Mutant("commutativity-asks-the-congruence", VIEWS, "structures.py",
           'and (law == "commutative"\n', 'and (False\n',
           (VIEW_TWIN[0], "-k", "congruence")),
    Mutant("known-ignores-the-congruence", VIEWS, "structures.py",
           "or all(self._congruent(op) for op in ops)))",
           "or True))",
           (VIEW_TWIN[0], "-k", "congruence")),
    Mutant("restrict-relabels-in-reverse", VIEWS, "structures.py",
           "relabel[rows] = np.arange(len(rows))",
           "relabel[rows] = np.arange(len(rows))[::-1]",
           VIEW_TWIN),
    Mutant("closure-ignores-minus-one-in-class-of", NO_CLASS_TABLE,
           "structures.py",
           "self.view is not None and (self.view[2] >= 0).all()",
           "self.view is not None",
           VIEW_TWIN),
    Mutant("zero-pair-row-z-without-offset", NO_CLASS_TABLE,
           "structures.py",
           "_zero_products(band, z, lo))", "_zero_products(band, z))",
           ("tests/test_factored_quotients.py", "-k",
            "first_zero_pair_matches")),
    Mutant("compared-rows-without-offset", NO_CLASS_TABLE, "quotients.py",
           "self._block(op, cls[lo:lo + len(actual)], cls)",
           "self._block(op, cls[:len(actual)], cls)",
           QUOTIENT_TWIN),
    Mutant("compared-columns-without-classes", NO_CLASS_TABLE,
           "quotients.py",
           "self._block(op, cls[lo:lo + len(actual)], cls)",
           "self._block(op, cls[lo:lo + len(actual)], "
           "np.arange(len(cls)) % self.n)",
           QUOTIENT_TWIN),
    Mutant("subgroups-of-the-sides-swapped", FACTOR_S_RING, "structures.py",
           "lo, hi = _subgroups(factors[0]), _subgroups(factors[-1])",
           "hi, lo = _subgroups(factors[0]), _subgroups(factors[-1])",
           FACTOR_S_RING_TWIN),
    Mutant("diagonal-order-gate-dropped", FACTOR_S_RING, "structures.py",
           'if not ((np.diff(diagonal) > 0).all() and is_group(f, "add")):',
           'if not is_group(f, "add"):',
           FACTOR_S_RING_TWIN),
    Mutant("additive-group-gate-dropped", FACTOR_S_RING, "structures.py",
           'if not ((np.diff(diagonal) > 0).all() and is_group(f, "add")):',
           "if not (np.diff(diagonal) > 0).all():",
           FACTOR_S_RING_TWIN),
    Mutant("phase-two-diagonal-idempotents-only", PRIME_FIELDS,
           "structures.py",
           "    phases.append((idem, range(n)))",
           "    phases.append(([e for e in idem if diag(e)], range(n)))",
           S_RING_TWIN),
    Mutant("phase-two-skipped-after-phase-one", PRIME_FIELDS,
           "structures.py",
           "    phases.append((idem, range(n)))",
           "    phases.append((idem, range(n) if not phases else ()))",
           S_RING_TWIN),
    Mutant("spans-without-the-zero", PRIME_FIELDS, "structures.py",
           "frozenset(powers) | {z}", "frozenset(powers) - {z}",
           S_RING_TWIN),
    Mutant("negation-check-skipped", BLOCK_READER, "quotients.py",
           "hit = _first_hit((lo, ~mask[(band == z).argmax(axis=1)])",
           "hit = _first_hit((lo, mask[:0])",
           ("tests/test_ideal_scan.py",)),
    Mutant("group-check-asks-commutativity", BLOCK_READER, "quotients.py",
           '    if not s.inverses("add")[0]:\n'
           '        return False, {"reason": "ambient addition',
           '    if not s.commutative("add")[0]:\n'
           '        return False, {"reason": "ambient addition',
           ("tests/test_ideal_scan.py",)),
    Mutant("first-leak-pair-swapped", CLAIMS, "structures.py",
           "(int(rows[hit[0]]), int(cols[hit[1]]))",
           "(int(cols[hit[1]]), int(rows[hit[0]]))",
           LEAK_TWIN),
    Mutant("first-leak-keeps-minus-one-inside", CLAIMS, "structures.py",
           "hit = _first_hit((lo, band != 0)",
           "hit = _first_hit((lo, band > 0)",
           LEAK_TWIN),
    Mutant("grid-identity-reads-max-for-min", CLAIMS, "verify.py",
           '{"min": iv_min, "max": iv_max}', '{"min": iv_max, "max": iv_max}',
           ("tests/test_verify.py", "-k", "errata")),
    Mutant("record-keeps-an-empty-note", CLAIMS, "verify.py",
           "        if note:\n", "        if note is not None:\n",
           ("tests/test_verify.py", "-k", "raises")),
    Mutant("modmap-image-keyed-on-x-only", MODMAP_PAIRS, "suites.py",
           "np.unique(codes[:, 0] * n * n + codes[:, 1],",
           "np.unique(codes[:, 0] * n * n,",
           (MODMAP_TWIN + "[no-fault-0]",)),
    Mutant("modmap-hi-not-compared", MODMAP_PAIRS, "suites.py",
           "(images[inv] == codes[:, 2:5]).all()",
           "(images[inv] // n == codes[:, 2:5] // n).all()",
           (MODMAP_TWIN + "[mod-fault-0]",)),
    Mutant("modmap-batched-case-skips-the-kernel-draw", MODMAP_PAIRS,
           "suites.py",
           "kernel = (_rand_below(rng, 61) - 30, _rand_below(rng, 61) - 30)",
           "kernel = (0, 0)",
           ("tests/test_suites.py", "-k", "draws_what")),
    Mutant("modmap-cases-draw-the-kernel-first", ONE_WAY, "suites.py",
           MODMAP_OP_CHECKS + KERNEL_DRAW, KERNEL_DRAW + MODMAP_OP_CHECKS,
           ("tests/test_golden.py", "-k", "faulted and modmap")),
    Mutant("one-sided-overflow-passes", ONE_WAY, "suites.py",
           "if (None if got is None else (got.lo, got.hi)) != want:",
           "if got is not None and want is not None "
           "and (got.lo, got.hi) != want:",
           ("tests/test_suites.py", "-k", "one_sided")),
    Mutant("by-domain-runs-the-last-domain", ONE_WAY, "suites.py",
           "run_chunked(cases, check(d), seed=seed)",
           "run_chunked(cases, check(parse_domain(domains[-1])), seed=seed)",
           ("tests/test_golden.py", "-k", "faulted and decomposition")),
    Mutant("collapse-cache-keyed-on-n", FAMILIES, "verify.py",
           "key = (n, flavor)", "key = n",
           ("tests/test_verify.py", "-k", "alone or once")),
    Mutant("collapse-check-keys-swapped", FAMILIES, "verify.py",
           '("(5,0)(2,0)", "zero class", "product_collapses", zd, zd)',
           '("product_collapses", "zero class", "(5,0)(2,0)", zd, zd)',
           ("tests/test_golden.py", "-k", "verify")),
    Mutant("collapse-verdict-forgets-a-failed-check", FAMILIES, "verify.py",
           "        exp[want_key], got[got_key] = want, value\n"
           "        agree = agree and ok\n",
           "        exp[want_key], got[got_key] = want, value\n"
           "        agree = ok\n",
           ("tests/test_verify.py", "-k", "collapse_verdict")),
    Mutant("each-forgets-a-failed-case", FAMILIES, "verify.py",
           "        out[key] = record\n        agree = agree and ok\n",
           "        out[key] = record\n        agree = ok\n",
           ("tests/test_verify.py", "-k", "earlier_failed_case")),
    Mutant("price-refuses-the-bound-itself", ONE_READER, "carriers.py",
           "if count > size_bound:", "if count >= size_bound:",
           ("tests/test_carriers.py", "-k", "exactly_the_bound")),
    Mutant("cyclic-modulus-unchecked", ONE_READER, "carriers.py",
           "        if cyclic < 1:\n"
           '            raise ParseError(f"cyclic modulus must be >= 1, '
           'got {cyclic}")\n', "",
           ("tests/test_cli.py", "-k", "huge_size")),
    Mutant("coerce-keeps-the-parsed-flavor", ONE_READER, "carriers.py",
           "[x.with_flavor(flavor) for x in entries]", "list(entries)",
           ("tests/test_carriers.py", "-k", "ambient_flavor")),
    Mutant("views-hash-their-elements", ONE_READER, "structures.py",
           "scalar_codes is None and view is None\n",
           "scalar_codes is None\n",
           ("tests/test_coords.py", "-k", "view_builds_no_index")),
    Mutant("number-sub-reversed", ONE_RULE, "scalars.py",
           "        return x - y\n", "        return y - x\n",
           ("tests/test_scalars.py", "-k", "sub_is_add_of_negation_on")),
    Mutant("coefficient-minus-read-as-one", ONE_RULE, "scalars.py",
           '{"": "1", "+": "1", "-": "-1"}', '{"": "1", "+": "1", "-": "1"}',
           ("tests/test_scalars.py", "-k", "format_parse_roundtrip")),
    Mutant("i-term-without-minus-i", ONE_RULE, "scalars.py",
           "        if base.is_ring and b == base.neg(base.one):\n"
           '            return "-I"\n', "",
           ("tests/test_scalars.py", "-k", "format_parse_roundtrip")),
    Mutant("entry-check-skips-flavor", ONE_RULE, "intervals.py",
           "        if e.flavor is not flavor:\n", "        if False:\n",
           ("tests/test_matrices.py", "-k", "foreign_entry")),
    Mutant("rank-scales-by-the-pivot", ONE_RULE, "matrices.py",
           "inv = field.inv(rows[rank][col])", "inv = rows[rank][col]",
           ("tests/test_matrices.py", "-k", "brute_force_rank")),
    Mutant("exit-table-base-before-too-large", REQUEST_LAYER, "cli.py",
           "    ((TooLarge, InfiniteDomain), EXIT_TOO_LARGE),\n"
           "    (NotAnIdeal, EXIT_VERIFY),\n"
           "    (NatIntError, EXIT_PARSE),\n",
           "    (NatIntError, EXIT_PARSE),\n"
           "    ((TooLarge, InfiniteDomain), EXIT_TOO_LARGE),\n"
           "    (NotAnIdeal, EXIT_VERIFY),\n",
           ("tests/test_cli.py", "-k", "each_error")),
    Mutant("chain-minus-adds", REQUEST_LAYER, "cli.py",
           '"-": operator.sub', '"-": operator.add',
           ("tests/test_cli.py", "-k", "left_to_right")),
    Mutant("closing-bracket-ignores-depth", REQUEST_LAYER, "intervals.py",
           "            if depth == 0:\n                return i\n",
           "            return i\n",
           ("tests/test_cli.py", "-k", "expression_api or unclosed")),
    Mutant("minimal-ideals-by-subset-or-equal", REQUEST_LAYER, "quotients.py",
           "not any(g < f for _, g in nontrivial)",
           "not any(g <= f for _, g in nontrivial)",
           ("tests/test_quotients.py", "-k", "by_definition")),
    Mutant("kernel-reduces-to-one", REQUEST_LAYER, "scalars.py",
           "return _index(self, value) % self.n\n",
           "return _index(self, value) % self.n or int(value != 0)\n",
           ("tests/test_suites.py", "-k", "modmap_kernel")),
)

# Mutants that no selection kills, run only when named, each with the
# reason it changes no verdict.
EQUIVALENT = (
    (Mutant("span-without-its-zero-added", PRIME_FIELDS, "structures.py",
            "frozenset(powers) | {z}", "frozenset(powers)",
            S_RING_TWIN),
     "on an additive group an orbit always reaches zero, and no carrier "
     "the program builds has a field on an orbit that misses it"),
    (Mutant("s-ring-span-of-g", FACTOR_S_RING, "structures.py",
            "yield _additive_span(s, prod)", "yield _additive_span(s, g)",
            S_RING_TWIN + FACTOR_S_RING_TWIN),
     "every e*g is itself some g, so the spans of every g hold each "
     "prime field the search needs and every verdict stays; a witness "
     "could move only where an idempotent other than 0 and 1 comes "
     "first in carrier order and spans a field sooner, which no test "
     "carrier and none of the benchmark refs shows"),
    (Mutant("two-sided-reads-swapped", VIEWS, "structures.py",
            "row = self._pairs(op, cand[:, None], ar)\n"
            "        col = self._pairs(op, ar, cand[:, None])",
            "col = self._pairs(op, cand[:, None], ar)\n"
            "        row = self._pairs(op, ar, cand[:, None])",
            VIEW_TWIN),
     "the row and the column of a candidate are compared with the same "
     "target and the verdict needs both, so swapping them changes no "
     "comparison"),
    (Mutant("szd-padding-of-not-m-cleared", BATCHED_SZD, "structures.py",
            "notm = ~zero_rows",
            "notm = ~zero_rows\n"
            "    notm[:, -1] &= ~np.uint64(0) >> np.uint64(-n % 64)",
            ("tests/test_orbits.py", "-k", "s_zero_divisors")),
     "every row of ~m is read through an AND with a B_y, whose padding "
     "bits are clear, as _packed_rows pads m with zeros"),
)


def copy_tree(dest):
    """src/ and tests/ of the repository, copied under dest."""
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(dest, part),
                        ignore=skip)


def run_selection(tree, args):
    """The exit code of pytest -x -q on args, run in the copy tree, or
    TIMED_OUT when it runs past TIMEOUT seconds."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *args], cwd=tree, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return TIMED_OUT


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


def baseline(mutants, pool):
    """(selection, exit code) of the selections that fail or time out on
    the unedited tree, each run once on its own, so a -k expression
    applies only to its own files."""
    with tempfile.TemporaryDirectory(prefix="natint-mutants-") as tree:
        copy_tree(tree)
        selections = list(dict.fromkeys(m.tests for m in mutants))
        codes = pool.map(lambda tests: run_selection(tree, tests),
                         selections)
        return [(tests, code) for tests, code in zip(selections, codes)
                if code]


def run_mutant(m):
    """(error, exit code, seconds) of m's selection on a copy of the tree
    with m's edit; the error when the edit cannot be applied."""
    with tempfile.TemporaryDirectory(prefix="natint-mutant-") as tree:
        copy_tree(tree)
        error = mutate(tree, m)
        start = time.perf_counter()
        code = None if error else run_selection(tree, m.tests)
    return error, code, time.perf_counter() - start


def main(argv):
    equivalent = {m.id: reason for m, reason in EQUIVALENT}
    catalogue = MUTANTS + tuple(m for m, _ in EQUIVALENT)
    mutants = [m for m in catalogue
               if m.id in argv or not argv and m.id not in equivalent]
    unknown = set(argv) - {m.id for m in catalogue}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 1
    with ThreadPoolExecutor(WORKERS) as pool:
        failed = [f"{' '.join(tests)}: "
                  f"{TIMED_OUT if code == TIMED_OUT else 'fails'} on the "
                  f"unedited tree" for tests, code in baseline(mutants, pool)]
        killed = 0
        for m, (error, code, wall) in zip(mutants,
                                          pool.map(run_mutant, mutants)):
            if m.id in equivalent and error is None:
                # an equivalent mutant must survive its selection
                error = None if code == 0 else (
                    code if code == TIMED_OUT else f"pytest exited {code}")
                print(f"{'survived' if error is None else 'FAILED'} "
                      f"{wall:5.1f} s {m.id} (equivalent: "
                      f"{equivalent[m.id]})" + (f": {error}" if error
                                                else ""))
                if error:
                    failed.append(f"{m.id}: {error}")
                continue
            if error is None and code not in (1, TIMED_OUT):
                error = ("survived" if code == 0
                         else f"pytest exited {code}, not a test failure")
            print(f"{'killed' if error is None else 'FAILED'} {wall:5.1f} s "
                  f"{m.id} ({m.listed})" + (f": {error}" if error else "")
                  + (f" ({TIMED_OUT})" if code == TIMED_OUT else ""))
            if error:
                failed.append(f"{m.id}: {error}")
            else:
                killed += 1
    for line in failed:
        print(line)
    live = sum(m.id not in equivalent for m in mutants)
    print(f"{killed} of {live} mutants killed"
          + (f", {len(mutants) - live} equivalent" if live < len(mutants)
             else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
