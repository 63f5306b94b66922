"""The facts of product carriers, read off their factors, against the
scans of the carrier's own tables.

A full product carrier passes a law when its lo and hi part tables pass;
when a factor fails, the carrier scan gives the first witness in carrier
order.  Its identity and absorbing element are the pairs of its
factors', and its negation map is searched as its unit map is.  Each check
compares every fact, with its witness, with a twin that holds the same
tables but no product form, so every fact of the twin comes from the
carrier scan.
"""

import random
from operator import add, sub

import pytest

from natint import cli, quotients, structures
from natint.carriers import build_carrier, interval_elements
from natint.errors import TooLarge
from natint.intervals import Flavor, NaturalInterval
from natint.scalars import Mod
from natint.structures import FiniteStructure, analyze_structure
from conftest import built_twin

FLAVORS = ("c", "o", "oc", "co")
FULL_PRODUCTS = (
    [f"N(Zn:{k},{f})" for k in range(2, 17) for f in FLAVORS]
    + [f"N(Zn:{p})\\0" for p in (2, 3, 5, 7, 11, 13, 17)]
    + [f"N(ZnI:{k})" for k in (2, 3, 4, 8)]
    + [f"N(Zn+I:{k})" for k in (2, 3, 4)]
    + [f"Mat({r},{c},N(Zn:2))" for r, c in ((1, 2), (2, 1), (2, 2))]
    + [f"Poly(N(Zn:{k}),cyc={c})" for k in (2, 3) for c in (2, 3)]
    + ["Fuzzy(min,step=1/5)", "Fuzzy(max,step=1/5)", "Fuzzy(min,step=1/15)",
       "Fuzzy(max,step=1/15)",
       "Sub{[0,0],[0,3],[3,0],[3,3]} of N(Zn:6)",
       "Sub{[0,0],[0,1],[0,2]} of N(Zn:3)"])
NOT_PRODUCTS = ("Sub{[0,0],[1,1],[2,2]} of N(Zn:3)",
                "Sub{[0,0],[0,3],[3,0]} of N(Zn:6)")


def _ops(s):
    return [op for op in ("add", "mul") if s.has_op(op)]


def _verdict(decide):
    try:
        return decide()
    except TooLarge:
        return "refused"


FACTS = ("closed", "commutative", "identity_index", "absorbing_index",
         "inverses")


def verdicts(s, ops):
    """Every fact of s that a product reads off its factors: associative
    under the op's own key, the other facts under (fact, op)."""
    out = {op: _verdict(lambda: s.associative(op)) for op in ops}
    out.update({(fact, op): getattr(s, fact)(op)
                for fact in FACTS for op in ops})
    if "add" in ops:
        neg = s.neg_index()
        out["neg_index"] = None if neg is None else (neg.tolist(),
                                                     neg.dtype)
    if len(ops) == 2:
        out["distributive"] = _verdict(s.distributive)
    return out


def assert_same_as_scan(s):
    ops = _ops(s)
    for op in ops:  # the twin holds s's tables, gathered from its parts
        s.table(op)
    twin = built_twin(s)
    scanned = verdicts(twin, ops)
    assert verdicts(s, ops) == scanned
    assert twin._factors() is None
    # With one row per block, the first block with a hit must still hold
    # the first witness in C order.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structures, "_BLOCK_ENTRIES", 1)
        assert verdicts(built_twin(twin), ops) == scanned


@pytest.mark.parametrize("spec", FULL_PRODUCTS)
def test_factored_verdicts_match_the_scan(spec):
    s = build_carrier(spec)
    assert_same_as_scan(s)
    factors = s._factors()
    assert factors and all(set(f._tables) == set(_ops(s)) for f in factors)


@pytest.mark.parametrize("spec", FULL_PRODUCTS)
def test_a_full_products_factors_are_its_sides(spec):
    s = build_carrier(spec)
    factors, sides = s._factors(), s._sides()
    assert factors is sides and s._factors() is sides
    # one side per distinct part list, as decomposing the elements finds
    parts = structures._Coords(s.elements).parts
    assert [f.n for f in sides] == list(map(len, parts))
    assert all(f.name == s.name for f in sides)


@pytest.mark.parametrize("spec", NOT_PRODUCTS)
def test_non_products_are_scanned(spec):
    s = build_carrier(spec)
    assert_same_as_scan(s)
    assert s._factors() is None


def _z3(keep=lambda e: True):
    d = Mod(3)
    elements = [e for e in interval_elements(d, Flavor.CLOSED) if keep(e)]
    return elements, lambda p: NaturalInterval(d, p, p, Flavor.CLOSED)


# Caller-built componentwise operations whose factors fail: on all of
# N(Zn:3) both factors fail, on {0} x Z3 only the hi factor does and on
# Z3 x {0} only the lo factor does.
CALLER_BUILT = {
    "N(Zn:3) x-y": (_z3(), {"mul": sub}, "mul", [False]),
    "0xZ3 x-y": (_z3(lambda e: e.lo == 0), {"mul": sub}, "mul",
                 [True, False]),
    "Z3x0 x-y": (_z3(lambda e: e.hi == 0), {"mul": sub}, "mul",
                 [False, True]),
    "N(Zn:3) x+y over x+y": (_z3(), {"add": add, "mul": add},
                             "distributive", [False]),
    "0xZ3 x+y over x+y": (_z3(lambda e: e.lo == 0),
                          {"add": add, "mul": add}, "distributive",
                          [True, False]),
}


@pytest.mark.parametrize("case", list(CALLER_BUILT))
def test_failing_factor_gives_the_scan_witness(case):
    (elements, diag), ops, law, factor_verdicts = CALLER_BUILT[case]
    s = FiniteStructure(elements, diag=diag, **ops)
    assert_same_as_scan(s)
    ok, witness = verdicts(s, list(ops))[law]
    assert ok is False and witness is not None
    decide = {"mul": lambda f: f.associative("mul"),
              "distributive": FiniteStructure.distributive}[law]
    assert [decide(f)[0] for f in s._factors()] == factor_verdicts


# An addition on Z3 with identity 0 in which 1 has two inverses, 1 and 2.
# The carrier lists N(Zn:3) shuffled, so its first inverse in carrier
# order is not the pair of its factors' first inverses.
TWO_INVERSES = ((0, 1, 2), (1, 0, 0), (2, 0, 2))


def test_inverses_that_are_not_unique_are_scanned():
    elements, diag = _z3()
    random.Random(0).shuffle(elements)

    def plus(x, y):
        return NaturalInterval(x.domain, TWO_INVERSES[x.lo][y.lo],
                               TWO_INVERSES[x.hi][y.hi], Flavor.CLOSED)

    s = FiniteStructure(elements, add=plus, diag=diag)
    assert_same_as_scan(s)
    factors = s._factors()
    assert not any(map(quotients._unique_negatives, factors))
    c = s._coords()
    paired = c.grid[factors[0].neg_index()[c.lo],
                    factors[-1].neg_index()[c.hi]]
    assert (s.neg_index() != paired).any()


def test_a_factor_too_large_to_scan_proves_nothing(monkeypatch, capsys):
    # {0} x Z_6 is a full product whose hi factor is above the cubic scan
    # cap, so its associativity is unknown rather than refused: the
    # one-class standard quotient by the whole carrier still scans its own
    # class table and gets its report.
    monkeypatch.setattr(structures, "CUBIC_SCAN_CAP", 5)
    spec = "Sub{[0,0],[0,1],[0,2],[0,3],[0,4],[0,5]} of N(Zn:6)"
    s = build_carrier(spec)
    assert structures._proven(s, "associative", "add") is False
    assert cli.main(["quotient", spec, "col-zero", "--kind", "standard"]) == 0
    assert '"associative_add": true' in capsys.readouterr().out


# One spec-built product carrier of each kind.
PRODUCT_KINDS = (
    "N(Zn:5)", "N(Zn:6,o)", "N(Zn:7)\\0", "N(ZnI:4)", "N(Zn+I:2)",
    "Mat(1,2,N(Zn:3))", "Mat(2,1,N(Zn:2))", "Mat(2,2,N(Zn:2))",
    "Poly(N(Zn:2),cyc=3)", "Fuzzy(min,step=1/5)", "Fuzzy(max,step=1/5)",
    "Fuzzy(prod,step=1/6)", "Sub{[0,0],[0,3],[3,0],[3,3]} of N(Zn:6)")


@pytest.mark.parametrize("spec", PRODUCT_KINDS)
def test_product_carriers_skip_the_cubic_scan(monkeypatch, spec):
    s = build_carrier(spec)

    def refuse_carrier_scan(scan):
        def guarded(table, *args):
            if len(table) == s.n:
                raise AssertionError(f"cubic scan over {spec}")
            return scan(table, *args)
        return guarded

    for name in ("_assoc_witness", "_left_distrib_witness"):
        monkeypatch.setattr(structures, name,
                            refuse_carrier_scan(getattr(structures, name)))
    report = analyze_structure(s)
    for op in _ops(s):
        assert report["axioms"][op]["associative"] in (True, None)


FACTOR_FACTS = ("closed", "associative", "identity_index", "inverses",
                "commutative", "idempotents")


@pytest.mark.parametrize("argv, held", [
    (["analyze", "N(Zn:24)"], {"add", "mul"}),
    (["analyze", "Mat(1,2,N(Zn:4))"], {"add", "mul"}),
    (["analyze", "Fuzzy(min,step=1/15)"], {"mul"}),
    (["ideal", "Mat(2,2,N(Zn:3))"], {"add", "mul"})])
def test_each_factor_fact_is_computed_once(monkeypatch, capsys, argv, held):
    # Every reader of a carrier's factors gets the same structures, which
    # hold the part table of every op the carrier has.  So each fact of a
    # factor, named by its carrier and its side, is computed at most once
    # per op: a call that finds no memo entry is a computation.
    carriers, side, computed = {}, {}, []
    factors = FiniteStructure._factors

    def kept(self):
        found = factors(self)
        carriers[id(self)] = self
        for k, f in enumerate(found or ()):
            side[id(f)] = (id(self), k)
        return found

    monkeypatch.setattr(FiniteStructure, "_factors", kept)
    for fact in FACTOR_FACTS:
        def counted(self, *args, fact=fact,
                    decide=getattr(FiniteStructure, fact)):
            if id(self) in side and (fact,) + args not in self._memo:
                computed.append((side[id(self)], fact) + args)
            return decide(self, *args)

        monkeypatch.setattr(FiniteStructure, fact, counted)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert computed and len(computed) == len(set(computed))
    assert {fact for _, fact, *_ in computed} >= {"closed", "identity_index"}
    for s in carriers.values():
        assert [key for key in s._memo if key[0] == "_sides"] == (
            [] if s._factors() is None else [("_sides",)])
    assert {frozenset(f._tables) for s in carriers.values()
            for f in s._factors() or ()} == {frozenset(held)}
