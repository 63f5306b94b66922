from itertools import permutations
from operator import add, mul, xor

import pytest

from natint import structures
from natint.carriers import build_carrier
from natint.quotients import parse_ideal_spec, rees_quotient
from natint import (
    FiniteStructure,
    Flavor,
    Mod,
    Z,
    analyze_structure,
    axiom_report,
    check_subset_field,
    check_subset_group,
    classify,
    enumerate_ideals,
    find_special_elements,
    inherited_substructure,
    interval,
    interval_structure,
    is_group,
    is_s_ring,
    is_s_semigroup,
    is_strict_semiring,
    maximal_subgroups,
    thm_unit_square_witness,
)
from conftest import built_twin


def miv(n, lo, hi, flavor=Flavor.CLOSED):
    d = Mod(n)
    return interval(d, lo % n, hi % n, flavor)


def klein_structure():
    elems = [0, 1, 2, 3]
    table = {(a, b): a ^ b for a in elems for b in elems}
    return FiniteStructure(elems, mul=lambda a, b: table[(a, b)],
                           name="klein")


def test_group_detection():
    assert is_group(klein_structure(), "mul")


def test_axiom_report_on_a_group():
    rep = axiom_report(klein_structure(), "mul")
    assert rep["closed"]
    assert rep["associative"]
    assert rep["commutative"]
    assert rep["identity"] == "0"
    assert rep["inverses_all"]


def test_axiom_report_counterexamples():
    # subtraction over Z5: closed but not associative, not commutative
    d = Mod(5)
    s = FiniteStructure(list(range(5)), mul=lambda a, b: (a - b) % 5)
    rep = axiom_report(s, "mul")
    assert rep["closed"]
    assert not rep["associative"]
    assert not rep["commutative"]
    assert rep["associative_counterexample"]


def test_mod_interval_monoid_is_not_group():
    s = interval_structure(Mod(5))
    assert s.n == 25
    rep = axiom_report(s, "mul")
    assert rep["closed"] and rep["associative"] and rep["commutative"]
    assert rep["identity"] == "1"
    assert not rep["inverses_all"]


def test_punctured_prime_carrier_is_group():
    s = interval_structure(Mod(7), remove_zero=True)
    assert s.n == 36
    assert is_group(s, "mul")


def test_punctured_composite_carrier_not_closed():
    s = interval_structure(Mod(6), remove_zero=True)
    rep = axiom_report(s, "mul")
    assert not rep["closed"]


def test_additive_group_of_interval_ring():
    s = interval_structure(Mod(12))
    assert is_group(s, "add")
    rep = axiom_report(s, "add")
    assert rep["identity"] == "0"


def test_classify_tags():
    tags = classify(interval_structure(Mod(3)))
    assert "additive abelian group" in tags
    assert "commutative ring with unity" in tags
    assert "field" not in tags


def test_special_elements_over_z12():
    s = interval_structure(Mod(12))
    sp = find_special_elements(s, with_orders=False)
    assert sp["zero"] == "0"
    assert sp["one"] == "1"
    assert "[0,4]" in sp["idempotents"]
    nil = {e["x"]: e["index"] for e in sp["nilpotents"]}
    assert nil["[0,6]"] == 2
    units = {u["x"] for u in sp["units"]}
    assert "[1,11]" in units
    zd = {e["x"] for e in sp["zero_divisors"]}
    assert "[3,4]" in zd


def test_element_orders_in_klein():
    sp = find_special_elements(klein_structure(), with_orders=True)
    orders = {e["x"]: e["identity_order"] for e in sp["element_orders"]}
    assert orders == {"0": 1, "1": 2, "2": 2, "3": 2}


def test_characteristic_of_interval_ring():
    assert interval_structure(Mod(7)).characteristic() == 7
    assert interval_structure(Mod(6)).characteristic() == 6


def test_subset_group_checker():
    d = Mod(12)
    elems = [interval(d, a, b) for a, b in
             ((1, 1), (1, 11), (11, 1), (11, 11))]
    ok, info = check_subset_group(elems, lambda x, y: x * y)
    assert ok
    assert info["identity"] == "1"


# A commutative loop on {0, 1, 2}: identity 0, every element its own
# inverse, closed, but (1*1)*2 = 2 while 1*(1*2) = 0.
_LOOP = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (1, 1): 0, (1, 2): 1,
         (2, 0): 2, (2, 1): 1, (2, 2): 0}


def _mod(n, op):
    return lambda x, y: op(x, y) % n


@pytest.mark.parametrize("elems, op, info", [
    ([], mul, {"reason": "empty"}),
    ([1, 1], mul, {"reason": "duplicate elements"}),
    ([1, 2], _mod(5, mul),
     {"reason": "not closed", "witness": ("2", "2", "4")}),
    ([interval(Mod(12), 2, 2), interval(Mod(12), 4, 4)], mul,
     {"reason": "not closed", "witness": ("2", "4", "8")}),
    ([0, 1, 2], lambda x, y: _LOOP[x, y],
     {"reason": "not associative", "witness": ("1", "1", "2")}),
    ([0, 1], lambda x, y: x, {"reason": "no identity"}),
    ([0, 1], mul, {"reason": "missing inverse", "witness": "0"}),
], ids=["empty", "duplicate", "not-closed", "not-closed-interval",
        "not-associative", "no-identity", "missing-inverse"])
def test_subset_group_rejections(elems, op, info):
    assert check_subset_group(elems, op) == (False, info)


_Z12 = [interval(Mod(12), a, a) for a in (0, 4, 8)]


@pytest.mark.parametrize("elems, plus, times, ok, info", [
    # 4*4 = 16 = 4 acts as unity
    (_Z12, add, mul, True, {"zero": "0", "identity": "4"}),
    ([1, 2], _mod(3, add), _mod(3, mul), False,
     {"reason": "additive: not closed", "witness": ("1", "2", "0")}),
    ([0], _mod(3, add), _mod(3, mul), False,
     {"reason": "needs at least two elements"}),
    ([0, 1], xor, lambda x, y: 2 * x * y, False,
     {"reason": "product leaves the subset", "witness": ("1", "1")}),
    # x*y = 1 iff x == y: associative and commutative with unity 1, but
    # 0*(0+0) = 1 while 0*0 + 0*0 = 0
    ([0, 1], xor, lambda x, y: int(x == y), False,
     {"reason": "not distributive", "witness": ("0", "0", "0")}),
    ([0, 2], _mod(4, add), _mod(4, mul), False,
     {"reason": "no multiplicative identity"}),
    ([0, 1, 2, 3], _mod(4, add), _mod(4, mul), False,
     {"reason": "missing multiplicative inverse", "witness": "2"}),
    ([0, 1, 0], _mod(2, add), _mod(2, mul), False,
     {"reason": "additive: duplicate elements"}),
], ids=["field", "additive", "too-small", "product-leaves",
        "not-distributive", "no-identity", "missing-inverse", "duplicate"])
def test_subset_field_checker(elems, plus, times, ok, info):
    assert check_subset_field(elems, plus, times) == (ok, info)


def test_s_semigroup_witness_is_a_group():
    s = interval_structure(Mod(4))
    found, wit = is_s_semigroup(s)
    assert found
    members = [s.elements[s.index[s.parse_element(m)]]
               for m in wit["members"]]
    ok, _ = check_subset_group(members, lambda x, y: x * y)
    assert ok


def test_unit_square_witness_without_tables():
    for n in (4, 6, 12, 40):
        wit = thm_unit_square_witness(interval_structure(Mod(n)))
        assert wit is not None
        assert len(wit["members"]) == 4
        assert wit["identity"] == "1"


def test_s_ring_witness_over_z12():
    s = interval_structure(Mod(12))
    found, wit = is_s_ring(s)
    assert found
    assert set(wit["members"]) == {"0", "4", "8"}


def test_inherited_substructure_is_diagonal():
    s = interval_structure(Mod(5))
    inh = inherited_substructure(s)
    assert inh.n == 5
    assert all(e.is_degenerate for e in inh.elements)


def test_maximal_subgroups_of_mod_monoid():
    s = interval_structure(Mod(4))
    groups = maximal_subgroups(s)
    assert groups  # at least the unit group around 1
    for g in groups:
        members = [s.parse_element(m) for m in g["members"]]
        ok, _ = check_subset_group(members, lambda x, y: x * y)
        assert ok


def test_strict_addition_fails_over_mod():
    # 1 + 4 = 0 over Z5, so the interval semiring there is not strict
    strict, witness = is_strict_semiring(interval_structure(Mod(5)))
    assert strict is False
    assert witness


def test_analyze_structure_report_shape():
    rep = analyze_structure(interval_structure(Mod(3)))
    assert rep["schema"] == "natint/1"
    assert rep["order"] == 9
    assert rep["axioms"]["mul"]["associative"]
    assert rep["axioms"]["add"]["inverses_all"]
    assert rep["axioms"]["distributive"]
    assert rep["substructures"]["inherited"]["order"] == 3
    assert isinstance(rep["classification"], list)


def test_each_fact_is_computed_once(monkeypatch):
    s = interval_structure(Mod(6))
    axiom_report(s, "add")
    axiom_report(s, "mul")
    s.distributive()
    scans = []
    for name in ("_assoc_witness", "_left_distrib_witness"):
        def counted(*args, scan=getattr(structures, name)):
            scans.append(args)
            return scan(*args)

        monkeypatch.setattr(structures, name, counted)
    classify(s)
    assert structures.is_field(s) is False
    assert scans == []

    # the negation map is scanned once: every later call, such as each
    # principal closure of an ideal enumeration, returns the same array.
    # N(Zn:6) enumerates its ideals on its factors, so the closures run
    # on a twin with the same tables and no product form.
    s = FiniteStructure(s.elements, tables={
        op: s.table(op) for op in ("add", "mul")})
    negs = []
    neg_index = FiniteStructure.neg_index

    def counted_neg(self):
        negs.append(neg_index(self))
        return negs[-1]

    monkeypatch.setattr(FiniteStructure, "neg_index", counted_neg)
    assert len(enumerate_ideals(s)) > 2
    assert len(negs) == s.n
    assert len({id(neg) for neg in negs}) == 1
    with pytest.raises(ValueError):
        negs[0][0] = 0

    # analyze_structure scans for maximal subgroups once, though both
    # is_s_semigroup and the report read them, and walks the orbits of
    # each op at most once, every element's in one walk.  On N(Zn:6)
    # itself the unit-square
    # witness answers is_s_semigroup first, so this runs on a twin that is
    # no interval carrier.  A call that finds no memo entry is a scan.
    n6 = interval_structure(Mod(6))
    s = FiniteStructure(n6.elements, mul=n6.mul_fn, add=n6.add_fn)
    subgroup_scans, walks = [], []
    subgroups = structures.maximal_subgroups
    walk = structures._walk

    def counted_subgroups(s):
        subgroup_scans.append(("maximal_subgroups",) not in s._memo)
        return subgroups(s)

    def counted_walk(t, wrap=False):
        walks.append(t)
        return walk(t, wrap)

    monkeypatch.setattr(structures, "maximal_subgroups", counted_subgroups)
    monkeypatch.setattr(structures, "_walk", counted_walk)
    report = analyze_structure(s)
    assert report["substructures"]["s_semigroup"] is True
    assert subgroup_scans == [True, False]
    assert sorted(map(id, walks)) == sorted(
        id(s.table(op)) for op in ("add", "mul"))


# the pairs [x,y] of N(Zn:6) with x = y mod 3, which split into no product
CONGRUENT_PAIRS = "Sub{%s} of N(Zn:6)" % ",".join(
    f"[{x},{y}]" for x in range(6) for y in range(6) if (x - y) % 3 == 0)


@pytest.mark.parametrize("spec, op, ask", [
    # enumerate_ideals asks inverses("add"), then every principal closure
    # reads neg_index
    (CONGRUENT_PAIRS, "add", enumerate_ideals),
    # N(Zn:3)\0 is a group under mul: units() follows inverses("mul")
    ("N(Zn:3)\\0", "mul", lambda s: (s.inverses("mul"), s.units())),
    # [0,0] of N(Zn:4) has no inverse, so inverses("mul") stops early and
    # keeps nothing: units() searches once more, for the full map
    ("N(Zn:4)", "mul", lambda s: (s.inverses("mul"), s.units())),
])
def test_one_inverse_search_per_structure_and_op(monkeypatch, spec, op,
                                                 ask):
    # inverses(op) keeps the map it built when it reads every band without
    # a miss, and neg_index and units return it; every twin is no
    # product, so no verdict comes from factors
    twin = built_twin(build_carrier(spec))
    full = structures._inverse_map(twin, op, twin.identity_index(op))
    searches = []
    search = structures._inverse_bands

    def counted(s, op, e):
        searches.append(op)
        return search(s, op, e)

    s = built_twin(build_carrier(spec))
    monkeypatch.setattr(structures, "_inverse_bands", counted)
    ask(s)
    runs = 1 if (full >= 0).all() else 2
    assert searches == [op] * runs
    kept = s.neg_index() if op == "add" else s.units()
    assert searches == [op] * runs
    assert kept.tolist() == full.tolist()


def _ladder_tags(s):
    """classify's tags as each op's own walk up closed, associative,
    identity and inverses gives them."""
    tags = []
    for op, noun in (("add", "additive"), ("mul", "multiplicative")):
        if not s.has_op(op):
            continue
        closed, _ = s.closed(op)
        if not closed:
            tags.append(f"{noun} operation not closed")
            continue
        assoc, _ = s.associative(op)
        if not assoc:
            tags.append(f"{noun} operation not associative")
            continue
        word = "semigroup"
        if s.identity_index(op) is not None:
            word = "monoid"
            inv, _ = s.inverses(op)
            if inv:
                word = "group"
        comm, _ = s.commutative(op)
        if comm:
            word = ("abelian " if word == "group" else "commutative ") + word
        tags.append(f"{noun} {word}")
    if s.has_op("add") and s.has_op("mul") and structures.is_ring(s):
        name = "ring"
        comm, _ = s.commutative("mul")
        if comm:
            name = "commutative " + name
        if s.identity_index("mul") is not None:
            name += " with unity"
        tags.append(name)
        if structures.is_field(s):
            tags.append("field")
    return tags


def _ladder_carriers():
    """(name, builder) for every small sweep carrier, an unclosed subset,
    a Rees quotient whose add is not associative, carriers that stop at
    each rung (a semigroup, a monoid, a group, an abelian group) and a
    field."""
    from sweep_small import carriers

    out = [(spec, lambda spec=spec: build_carrier(spec))
           for spec, s in carriers() if s.n <= 16]

    def rees():
        s = build_carrier("N(Zn:3)")
        return rees_quotient(s, parse_ideal_spec(s, "col-zero"))

    perms = list(permutations(range(3)))
    return out + [
        ("unclosed", lambda: build_carrier("Sub{[0,1],[1,1]} of N(Zn:3)")),
        ("rees", rees),
        ("left zeros", lambda: FiniteStructure([0, 1, 2],
                                               mul=lambda a, b: a)),
        ("N(Zn:4)", lambda: build_carrier("N(Zn:4)")),
        ("S3", lambda: FiniteStructure(perms, mul=lambda a, b: tuple(
            a[i] for i in b))),
        ("klein", klein_structure),
        ("field", lambda: build_carrier("Sub{[0,0],[1,1],[2,2]} of N(Zn:3)")),
    ]


def test_classify_matches_the_law_ladder():
    # classify reads each op's rung off _group_verdict; its twin walks
    # the ladder itself, on a fresh carrier, so no verdict is shared
    seen = set()
    for name, build in _ladder_carriers():
        got = classify(build())
        assert got == _ladder_tags(build()), name
        seen.update(got)
    assert {"additive operation not closed",
            "additive operation not associative", "multiplicative semigroup",
            "multiplicative commutative monoid", "multiplicative group",
            "multiplicative abelian group", "field"} <= seen


def test_duplicate_elements_rejected():
    with pytest.raises(ValueError):
        FiniteStructure([1, 1], mul=lambda a, b: a)
