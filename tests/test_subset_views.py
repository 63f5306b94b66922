"""Subsets as views of their ambient, against twins that hold their own
tables.

FiniteStructure.restrict returns a view, as a quotient's classes are:
its reps are the given carrier indices and its class_of relabels them,
with -1 for a product off the subset.  Its tables are gathered only
when a fact needs one, and until then a view larger than one band reads
its identity, absorbing element, inverses and units off the ambient.
Each check compares every fact, with its witness, with a twin built
from the same elements and ops but with no ambient, so each fact of the
twin is scanned off a table built one element pair at a time.
"""

import random

import pytest

from natint import structures
from natint.carriers import build_carrier
from natint.quotients import parse_ideal_spec, rees_quotient
from natint.structures import inherited_substructure
from conftest import built_twin

OPS = ("add", "mul")


def facts(s):
    """The element facts first, which a view reads off its ambient, then
    the laws, which read its tables."""
    units = s.units()
    out = {(fact, op): getattr(s, fact)(op) for op in OPS
           for fact in ("identity_index", "absorbing_index", "inverses")}
    out["units"] = None if units is None else units.tolist()
    out.update({(law, op): getattr(s, law)(op) for op in OPS
                for law in ("closed", "commutative", "associative")})
    out["distributive"] = s.distributive()
    return out


def first_two_sided(s, op, absorbing):
    """The first element e with e∘x = x∘e = x (the identity) or = e (the
    absorbing element) for every x, found from the ops element by
    element."""
    for i, e in enumerate(s.elements):
        if all(s.apply(op, e, x) == s.apply(op, x, e)
               == (e if absorbing else x) for x in s.elements):
            return i
    return None


def test_a_subset_builds_no_table_until_asked():
    s = build_carrier("N(Zn:6)")
    sub = s.restrict([7, 0, 14, 21])
    assert sub.view[0] is s and sub.view[1].tolist() == [7, 0, 14, 21]
    assert not sub._tables
    sub.closed("mul")
    assert list(sub._tables) == ["mul"]
    # the subset's table is gathered from the ambient's part tables
    assert not s._tables


def random_subsets(s, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng.sample(range(s.n), rng.randint(1, s.n))


@pytest.mark.parametrize("band_entries", (1, structures._BAND_ENTRIES))
@pytest.mark.parametrize("spec", ("N(Zn:6)", "Mat(1,2,N(Zn:2))"))
def test_subset_views_match_a_built_twin(monkeypatch, spec, band_entries):
    monkeypatch.setattr(structures, "_BAND_ENTRIES", band_entries)
    s = build_carrier(spec)
    subsets = [[0], list(range(s.n))] + list(random_subsets(s, 40, 1))
    for rows in subsets:
        twin = built_twin(s.restrict(rows))  # built from the ops
        sub = s.restrict(rows)
        assert facts(sub) == facts(twin), rows
        # the twin runs the same searches, so they are checked by brute force
        for op in OPS:
            assert [sub.identity_index(op), sub.absorbing_index(op)] == [
                first_two_sided(sub, op, absorbing)
                for absorbing in (False, True)], (op, rows)
    # a subset of a subset reads off the subset, which reads off s
    rows = subsets[-1]
    sub = s.restrict(rows).restrict(range(len(rows) - 1, -1, -2))
    assert facts(sub) == facts(built_twin(sub))


def test_element_facts_of_a_view_read_no_table(monkeypatch):
    monkeypatch.setattr(structures, "_BAND_ENTRIES", 1)
    s = build_carrier("N(Zn:6)")
    for rows in random_subsets(s, 20, 2):
        sub = s.restrict(rows)
        for op in OPS:
            for fact in ("identity_index", "absorbing_index", "inverses"):
                getattr(sub, fact)(op)
        sub.units()
        assert len(rows) == 1 or not sub._tables, rows


def test_a_rees_view_finds_its_absorbing_element_without_a_table():
    s = build_carrier("N(Zn:53)")
    q = rees_quotient(s, parse_ideal_spec(s, "col-zero"))
    assert q.n == 2757
    assert q.absorbing_index("mul") == 0
    assert not q._tables and not s._tables


def test_commutativity_needs_no_congruence_and_associativity_does():
    s = build_carrier("N(Zn:6)")
    assert s.associative("add") == s.commutative("add") == (True, None)
    q = rees_quotient(s, parse_ideal_spec(s, "col-zero"))
    assert q.well_defined("add")[0] is False
    assert q._known("commutative", "add")
    assert not q._known("associative", "add")
    twin = built_twin(q)
    assert q.commutative("add") == twin.commutative("add") == (True, None)
    assert q.associative("add") == twin.associative("add")


def test_the_inherited_substructure_is_a_named_view():
    s = build_carrier("N(Zn:5)")
    inh = inherited_substructure(s)
    assert inh.view[0] is s
    assert inh.name == f"inherited({s.name})"
    assert inh.parse_element is s.parse_element
    assert [e.is_degenerate for e in inh.elements] == [True] * 5
