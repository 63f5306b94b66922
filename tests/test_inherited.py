"""Associativity, commutativity and distributivity inherited by quotients
and subsets, and well-definedness decided by the congruence lemma, against
the scans they replace.

A closed subset, or a quotient by a congruence, passes a law its ambient
is proven to pass.  A quotient by an ideal is a congruence for rees mul,
and for standard add (mul) when the ambient's addition is associative and
commutative (and the ambient distributive).  Each check compares the full
(verdict, witness) with a twin that holds the same tables but no ambient
and no product form, so every verdict of the twin comes from a scan; each
well_defined verdict is compared with a quotient built without is_ideal,
to which the lemma does not apply.
"""

import itertools
import operator

import pytest

from natint import structures
from natint.carriers import build_carrier, interval_elements
from natint.errors import ParseError, TooLarge
from natint.intervals import Flavor, NaturalInterval
from natint.quotients import (
    Ideal,
    QuotientStructure,
    enumerate_ideals,
    parse_ideal_spec,
    rees_quotient,
    standard_quotient,
)
from natint.scalars import Mod
from natint.structures import FiniteStructure, analyze_structure, axiom_report
from conftest import built_twin

FLAVORS = ("c", "o", "oc", "co")
QUOTIENT_AMBIENTS = (
    [f"N(Zn:{k},{f})" for k in range(2, 13) for f in FLAVORS]
    + ["N(ZnI:4)", "N(Zn+I:2)", "Mat(1,2,N(Zn:2))", "Poly(N(Zn:2),cyc=2)"])
S_RING_AMBIENTS = ("N(Zn:8)", "N(Zn:9)", "N(Zn:16)", "N(ZnI:8)")
KINDS = {"rees": rees_quotient, "standard": standard_quotient}


def _ops(s):
    return [op for op in ("add", "mul") if s.has_op(op)]


def _verdict(decide):
    try:
        return decide()
    except TooLarge:
        return "refused"


def verdicts(s):
    ops = _ops(s)
    out = {op: _verdict(lambda: s.associative(op)) for op in ops}
    out.update({("commutative", op): s.commutative(op) for op in ops})
    if len(ops) == 2:
        out["distributive"] = _verdict(s.distributive)
    return out


def assert_quotients_match_the_scan(s):
    for ideal in enumerate_ideals(s):
        # The default class label "I" is also an element of N(ZnI:k),
        # and a rees quotient keeping that element refuses the name.
        ideal = Ideal(s, ideal.indices, name="J")
        for kind, make in KINDS.items():
            q = make(s, ideal)
            unchecked = QuotientStructure(s, ideal, kind)
            for op in _ops(s):
                assert q.well_defined(op) == unchecked.well_defined(op), (
                    kind, ideal.indices, op)
            assert verdicts(q) == verdicts(built_twin(q)), (
                kind, ideal.indices)


@pytest.mark.parametrize("spec", QUOTIENT_AMBIENTS)
def test_quotient_verdicts_match_the_scan(spec):
    assert_quotients_match_the_scan(build_carrier(spec))


@pytest.mark.parametrize("spec", S_RING_AMBIENTS)
def test_s_ring_spans_match_the_scan(monkeypatch, spec):
    spans = []
    restrict = FiniteStructure.restrict

    def recorded(self, indices):
        spans.append(restrict(self, indices))
        return spans[-1]

    monkeypatch.setattr(FiniteStructure, "restrict", recorded)
    analyze_structure(build_carrier(spec))
    # On N(D) the S-ring search tries only the diagonal spans, read off D;
    # the search over the whole carrier, which every other carrier runs,
    # restricts it to many more spans.
    monkeypatch.setattr(structures, "_diagonal_factor", lambda s: None)
    structures.is_s_ring(build_carrier(spec))
    assert len(spans) > 10
    for sub in spans:
        assert verdicts(sub) == verdicts(built_twin(sub)), sub.elements


@pytest.mark.parametrize("spec", QUOTIENT_AMBIENTS)
def test_rees_add_commutativity_needs_no_scan(monkeypatch, spec):
    """A class table is read from the ambient's representatives, so the
    rees classes' addition is commutative when the ambient's is proven
    to be, though it is no congruence."""
    s = build_carrier(spec)
    assert structures._proven(s, "commutative", "add")
    first_true = structures._first_true
    congruent = set()

    def refuse(mask):
        raise AssertionError("the classes' add table was scanned")

    for ideal in enumerate_ideals(s):
        q = rees_quotient(s, Ideal(s, ideal.indices, name="J"))
        want = built_twin(q).commutative("add")
        monkeypatch.setattr(structures, "_first_true", refuse)
        assert q.commutative("add") == want == (True, None)
        monkeypatch.setattr(structures, "_first_true", first_true)
        congruent.add(q.well_defined("add")[0])
    assert False in congruent


# S3 under composition as the addition, with every product the identity
# (0, 1, 2): each subgroup is an ideal, and the addition of the rees
# quotient by {(0, 1, 2)} is S3's again, not commutative.
PERMUTATIONS = sorted(itertools.permutations(range(3)))
SUBGROUPS = ([0], [0, 1], [0, 3, 4], list(range(6)))


def _s3():
    return FiniteStructure(
        PERMUTATIONS, mul=lambda x, y: PERMUTATIONS[0],
        add=lambda x, y: tuple(x[i] for i in y))


def test_a_non_commutative_ambient_is_scanned():
    s = _s3()
    for _ in range(2):  # the ambient's memo empty, then holding a failure
        got = []
        for indices in SUBGROUPS:
            cls = rees_quotient(s, Ideal(s, indices, name="J"))
            got.append(cls.commutative("add"))
            assert got[-1] == built_twin(cls).commutative("add"), indices
        assert got[0] == s.commutative("add") == (False, (1, 2))
        assert (True, None) in got


# Caller-built multiplications on Z12.  x*y*h with h = 2 on the upper
# half of the representatives is neither associative nor distributive,
# and its standard mul is not well defined modulo 2 or 4; x*x*y is
# associative modulo 12 but not right distributive; x*y is the ring Z12.
def _z12(mul):
    return FiniteStructure(range(12), mul=mul, add=lambda x, y: (x + y) % 12)


CALLER_BUILT = {
    "x*y*h": lambda x, y: x * y * (1 + (x >= 6)) % 12,
    "x*x*y": lambda x, y: x * x * y % 12,
    "x*y": lambda x, y: x * y % 12,
}


@pytest.mark.parametrize("name", list(CALLER_BUILT))
def test_failing_ambients_give_the_scan_verdicts(name):
    s = _z12(CALLER_BUILT[name])
    ambient = verdicts(s)  # the memo now holds every ambient verdict
    assert ambient == verdicts(built_twin(s))
    with pytest.MonkeyPatch.context() as mp:  # one row per block
        mp.setattr(structures, "_BLOCK_ENTRIES", 1)
        assert verdicts(built_twin(s)) == ambient
    assert_quotients_match_the_scan(s)
    for ideal in enumerate_ideals(s):
        sub = s.restrict(ideal.indices)
        assert verdicts(sub) == verdicts(built_twin(sub)), ideal.indices


def test_failing_ambient_is_scanned_not_inherited():
    s = _z12(CALLER_BUILT["x*y*h"])
    assert s.associative("mul")[0] is False
    assert s.distributive()[0] is False
    ideals = {i.order: i for i in enumerate_ideals(s)}
    copy = rees_quotient(s, ideals[1])  # by the zero ideal
    assert copy.associative("mul")[0] is False
    assert copy.distributive()[0] is False
    evens = standard_quotient(s, ideals[6])
    assert evens.well_defined("add") == (True, None)
    assert evens.well_defined("mul")[0] is False


# x-y over x+y on products whose factors fail: on all of N(Zn:3) both
# factors fail, on {0} x Z3 only the hi factor does and on Z3 x {0} only
# the lo one does.
def _z3_product(keep):
    d = Mod(3)
    return FiniteStructure(
        [e for e in interval_elements(d, Flavor.CLOSED) if keep(e)],
        mul=operator.sub, add=operator.add,
        diag=lambda p: NaturalInterval(d, p, p, Flavor.CLOSED))


FAILING_PRODUCTS = {
    "N(Zn:3)": lambda e: True,
    "0xZ3": lambda e: e.lo == 0,
    "Z3x0": lambda e: e.hi == 0,
}


@pytest.mark.parametrize("name", list(FAILING_PRODUCTS))
def test_failing_factors_are_not_inherited(name):
    s = _z3_product(FAILING_PRODUCTS[name])
    for rows in (range(s.n), range(s.n - 1, -1, -1)):
        sub = s.restrict(list(rows))  # before any verdict of s is memoized
        assert verdicts(sub) == verdicts(built_twin(sub))
        assert sub.associative("mul")[0] is False
        assert sub.distributive()[0] is False


def test_rees_mul_verdicts_need_no_scan(monkeypatch):
    s = build_carrier("N(Zn:12)")
    q = rees_quotient(s, parse_ideal_spec(s, "col-zero"))
    expected = axiom_report(built_twin(q), "mul")
    assoc_witness = structures._assoc_witness

    def refuse_class_scan(table, *args):
        # the ambient's 12-element factors may be scanned, the classes not
        if len(table) > 12:
            raise AssertionError("associativity scan over the classes")
        return assoc_witness(table, *args)

    def refuse_comparison(self, op):
        raise AssertionError(f"{op} products compared")

    monkeypatch.setattr(structures, "_assoc_witness", refuse_class_scan)
    monkeypatch.setattr(QuotientStructure, "_compare_products",
                        refuse_comparison)
    assert q.well_defined("mul") == (True, None)
    assert axiom_report(q, "mul") == expected
    assert expected["associative"] is True


def test_first_hit_starts_no_block_after_a_hit(monkeypatch):
    # x-y on Z12 fails associativity at (0, 0, 1) and left distributivity
    # at (1, 0, 0); with one row per block, the rows of x up to the
    # witness's are scanned and no row after it.
    s = FiniteStructure(range(12), mul=lambda x, y: (x - y) % 12,
                        add=lambda x, y: (x + y) % 12)
    mul, add = s.table("mul"), s.table("add")
    blocks = []
    first_true = structures._first_true

    def counted(mask):
        blocks.append(mask.shape)
        return first_true(mask)

    monkeypatch.setattr(structures, "_BLOCK_ENTRIES", 1)
    monkeypatch.setattr(structures, "_first_true", counted)
    assert structures._assoc_witness(mul) == (0, 0, 1)
    assert blocks == [(1, 12, 12)]
    blocks.clear()
    assert structures._left_distrib_witness(mul, add) == (1, 0, 0)
    assert blocks == [(1, 12, 12)] * 2


def test_rees_quotient_refuses_a_name_it_keeps_as_a_label():
    s = build_carrier("N(ZnI:4)")
    clashes = 0
    for ideal in enumerate_ideals(s):
        outside = [i for i in range(s.n) if i not in ideal.indices]
        kept = rees_quotient(s, Ideal(s, ideal.indices, name="J"))
        assert kept.elements == ["J"] + s.labels(outside)
        if "I" in s.labels(outside):
            clashes += 1
            with pytest.raises(ParseError, match="'I'.*name="):
                rees_quotient(s, ideal)
        else:
            assert rees_quotient(s, ideal).elements == (
                ["I"] + s.labels(outside))
        # standard cosets are labelled "<rep>+I", never "I"
        assert standard_quotient(s, ideal).elements[0] == "I"
    assert clashes == 8


@pytest.mark.parametrize("spec,ideal", [("N(Zn:6)", "col-zero"),
                                        ("N(Zn:12,o)", "diag-multiples:2")])
def test_an_ideal_named_as_a_kept_class_is_refused_with_its_message(spec,
                                                                     ideal):
    """name= equal to any kept class label, first or last, is refused with
    the same message; the ideal's own name is no clash."""
    s = build_carrier(spec)
    idx = parse_ideal_spec(s, ideal).indices
    kept = rees_quotient(s, Ideal(s, idx, name="J")).elements[1:]
    assert kept == s.labels(sorted(set(range(s.n)) - set(idx)))
    for name in (kept[0], kept[-1]):
        with pytest.raises(ParseError) as err:
            rees_quotient(s, Ideal(s, idx, name=name))
        assert str(err.value) == (
            f"ideal name {name!r} is also the label of a class the quotient "
            f"keeps; give the ideal another name=")
    assert rees_quotient(s, Ideal(s, idx, name=ideal)).elements[0] == (
        ideal)
