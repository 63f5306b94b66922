"""is_ideal's verdicts against a check written element by element.

The carrier and its built twin share is_ideal's scan, so comparing them
cannot catch a fault in it.  Here each verdict, with its reason and
first witness, is compared with a plain Python check that applies the
operations to the elements one pair at a time, on random subsets of
small carriers: two products, whose ideals is_ideal may read off the
factors, and five subsets of N(Zn:4) and N(Zn:6), one with no additive
group, some with an addition that leaves the carrier.
"""

import functools
import itertools
import random

import pytest

from natint import structures
from natint.carriers import build_carrier
from natint.quotients import is_ideal
from natint.structures import FiniteStructure
from conftest import built_twin

H = ("Sub{[0,0],[0,3],[1,1],[1,4],[2,2],[2,5],[3,0],[3,3],[4,1],[4,4],"
     "[5,2],[5,5]} of N(Zn:6)")
CARRIERS = ("N(Zn:2)", "N(Zn:3,o)", "Mat(1,2,N(Zn:2))",
            "Sub{[0,0],[1,1],[2,2],[3,3]} of N(Zn:4)",
            "Sub{[0,0],[2,0],[2,2]} of N(Zn:4)",
            "Sub{[0,0],[1,1],[3,3],[1,2],[2,0]} of N(Zn:4)", H)
DRAWS = 150


def plain_check(s, indices):
    """(ok, reason, witness) of is_ideal, found one element pair at a
    time from the operations."""
    n, members = s.n, sorted(set(indices))
    inside = set(members)

    def op(name, i, j):
        return s.index.get(s.apply(name, s.elements[i], s.elements[j]), -1)

    zeros = [e for e in range(n)
             if all(op("add", e, x) == x == op("add", x, e)
                    for x in range(n))]
    if not zeros:
        return False, "ambient has no additive identity", None
    z = zeros[0]
    if z not in inside:
        return False, "does not contain zero", None
    negs = [[j for j in range(n) if op("add", i, j) == z] for i in range(n)]
    if not all(negs):
        return False, "ambient addition is not a group", None
    for i in members:
        if negs[i][0] not in inside:
            return False, "not closed under negation", s.label(i)
    for i in members:
        for j in members:
            if op("add", i, j) not in inside:
                return False, "not closed under addition", s.labels([i, j])
    for x in range(n):
        for j in members:
            if op("mul", x, j) not in inside:
                return False, "not absorbing on the left", s.labels([x, j])
    for i in members:
        for y in range(n):
            if op("mul", i, y) not in inside:
                return False, "not absorbing on the right", s.labels([i, y])
    return True, None, None


def draws(spec, n):
    """DRAWS nonempty subsets of range(n), drawn with a generator seeded by
    spec.  Every other one holds element 0, the additive zero of each
    carrier here, so that more of them reach the later checks."""
    rng = random.Random(spec)
    for k in range(DRAWS):
        subset = set(rng.sample(range(n), rng.randint(1, n)))
        if k % 2:
            subset.add(0)
        yield sorted(subset)


def verdict(s, indices):
    ok, info = is_ideal(s, indices)
    return ok, info.get("reason"), info.get("witness")


@pytest.mark.parametrize("spec", CARRIERS)
def test_is_ideal_matches_the_plain_check(spec):
    s = build_carrier(spec)
    twin = built_twin(build_carrier(spec))
    for indices in draws(spec, s.n):
        want = plain_check(s, indices)
        assert verdict(s, indices) == want, indices
        assert verdict(twin, indices) == want, indices


def test_the_draws_reach_every_kind_of_verdict():
    reasons = set()
    for spec in CARRIERS:
        s = build_carrier(spec)
        reasons.update(plain_check(s, indices)[1]
                       for indices in draws(spec, s.n))
    assert reasons >= {None, "does not contain zero",
                       "ambient addition is not a group",
                       "not closed under negation",
                       "not closed under addition",
                       "not absorbing on the left"}


SCANS = ("not closed under negation", "not closed under addition",
         "not absorbing on the left", "not absorbing on the right")


M2_Z2 = list(itertools.product(range(2), repeat=4))
# the matrices of M2_Z2 with column 0 zero absorb on the left, not the right
COLUMN_ZERO = [i for i, e in enumerate(M2_Z2) if e[0] == e[2] == 0]


def m2_z2():
    """The 2x2 matrices over Z2, (a, b, c, d) for [[a, b], [c, d]], built
    element by element: a ring with no product form whose mul is not
    commutative."""
    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % 2, (a * f + b * h) % 2,
                (c * e + d * g) % 2, (c * f + d * h) % 2)

    def add(x, y):
        return tuple((u + v) % 2 for u, v in zip(x, y))

    return FiniteStructure(M2_Z2, mul=mul, add=add, name="M2(Z2)")


def failing_subsets():
    """(make, indices, reason): for each carrier of CARRIERS with no
    product form, and for M2(Z2), the first subset that fails each of
    is_ideal's four scans; make builds the carrier afresh."""
    cases = [(functools.partial(build_carrier, spec),
              draws(spec, build_carrier(spec).n)) for spec in CARRIERS
             if build_carrier(spec)._factors() is None]
    cases.append((m2_z2, [COLUMN_ZERO, *draws("M2(Z2)", len(M2_Z2))]))
    out = []
    for make, subsets in cases:
        s, seen = make(), set()
        for indices in subsets:
            reason = plain_check(s, indices)[1]
            if reason in SCANS and reason not in seen:
                seen.add(reason)
                out.append((make, indices, reason))
    return out


FAILING = failing_subsets()


def test_failing_subsets_reach_every_scan():
    assert {reason for _, _, reason in FAILING} == set(SCANS)


@pytest.mark.parametrize("band", [1, None])
def test_scans_read_bands_and_keep_the_first_witness(monkeypatch, band):
    # one row per band, or the default band; no whole block is read
    if band is not None:
        monkeypatch.setattr(structures, "_BAND_ENTRIES", band)

    def refuse(self, *args, **kwargs):
        raise AssertionError("is_ideal read a whole block")

    monkeypatch.setattr(FiniteStructure, "_block", refuse)
    for make, indices, reason in FAILING:
        s = make()
        assert verdict(s, indices) == plain_check(s, indices), (s.name,
                                                                 indices)


# _first_leak: the closure and absorption scans of is_ideal, and the book's
# absorption claims, against the loop over a table they replace
LEAK_CARRIERS = ("N(Zn:5,o)", "N(Zn:12)",
                 "Sub{[0,0],[1,1],[2,2],[1,-1],[-1,1]} of N(Z)",
                 "Mat(1,2,N(Zn:2))")


def plain_leak(s, op, rows, cols, members):
    """The first (i, j) over rows x cols whose product, found from the
    operation, is not one of members; a product outside the carrier is
    not."""
    inside = set(members)
    for i in rows:
        for j in cols:
            product = s.apply(op, s.elements[i], s.elements[j])
            if s.index.get(product, -1) not in inside:
                return i, j
    return None


def leak_cases(s, spec):
    """(rows, cols, members) over subsets drawn with a generator seeded by
    spec and the whole carrier, each subset in carrier order, reversed and
    in the iteration order of a set, as the columns, the rows or both."""
    rng = random.Random(spec)
    every = list(range(s.n))
    subsets = [rng.sample(every, rng.randint(1, min(s.n, 12)))
               for _ in range(4)] + [every]
    for subset in subsets:
        for members in (sorted(subset), sorted(subset, reverse=True),
                        list(set(subset))):
            for rows, cols in ((every, members), (members, every),
                               (members, members)):
                yield rows, cols, members


@pytest.mark.parametrize("band", [1, None])
@pytest.mark.parametrize("spec", LEAK_CARRIERS)
def test_first_leak_matches_the_loop(monkeypatch, spec, band):
    if band is not None:
        monkeypatch.setattr(structures, "_BAND_ENTRIES", band)
    s = build_carrier(spec)
    seen = set()
    for rows, cols, members in leak_cases(s, spec):
        for op in ("add", "mul"):
            want = plain_leak(s, op, rows, cols, members)
            got = structures._first_leak(s, op, rows, cols, members)
            assert got == want, (op, rows, cols, members)
            if want is not None:
                seen.add(s.index.get(s.apply(op, *(s.elements[k]
                                                   for k in want)), -1) < 0)
    # the unclosed subset of N(Z) leaks a product outside the carrier
    assert seen == ({False, True} if spec.startswith("Sub") else {False})
