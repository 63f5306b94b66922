"""is_s_ring against an exhaustive search for a proper subfield.

is_s_ring tries only the additive spans of e * g, for an idempotent e
and an element g.  That is exhaustive by the prime-field lemma: a
proper subfield F holding the additive zero z has z as its zero, so its
prime field, the multiples of its identity 1_F, is the span of
1_F * 1_F, which the search reaches.  Here the verdict must equal the
existence of a subset of 2..n-1 elements that _field_verdict accepts,
on every subset of a carrier of at most 12 elements, and on every
subset holding z of four 16-element carriers.

A field is closed under add and mul, so only the subsets closed under
both are handed to _field_verdict; closure is marked for every subset
at once, one bit per element of a subset mask.
"""

import random

import numpy as np
import pytest

from natint.carriers import build_carrier
from natint.quotients import enumerate_ideals, rees_quotient, standard_quotient
from natint.structures import _field_verdict, is_s_ring
from test_factored import FLAVORS


def _subset(k, pairs):
    return "Sub{%s} of N(Zn:%d)" % (
        ",".join(f"[{a},{b}]" for a, b in pairs), k)


def _random_subsets(k, count=3):
    """count subsets of N(Zn:k) of 3..12 elements, each holding [0, 0],
    drawn from a generator seeded with k."""
    rng = random.Random(k)
    others = [(a, b) for a in range(k) for b in range(k) if (a, b) != (0, 0)]
    return [_subset(k, [(0, 0)] + rng.sample(others, rng.randint(2, 11)))
            for _ in range(count)]


def _subgroup_subsets(k):
    """For each subgroup A = dZk of Zk: N(A) when it has at most 12
    elements, and {[a, 0]} and {[a, a]} for a in A."""
    specs = []
    for d in range(1, k):
        if k % d:
            continue
        a = range(0, k, d)
        if len(a) ** 2 <= 12:
            specs.append(_subset(k, [(x, y) for x in a for y in a]))
        specs += [_subset(k, [(x, 0) for x in a]),
                  _subset(k, [(x, x) for x in a])]
    return specs


SMALL = (["N(Zn:2)"] + [f"N(Zn:3,{f})" for f in FLAVORS]
         + ["N(ZnI:2)", "N(Zn:2)\\0"]
         + [spec for k in range(4, 13) for spec in _random_subsets(k)]
         + [spec for k in range(4, 13) for spec in _subgroup_subsets(k)])
# Carriers of 16 elements, whose subsets holding zero are searched.
WITH_ZERO = ("N(Zn:4)", "N(Zn+I:2)", "Mat(1,2,N(Zn:2))",
             "Poly(N(Zn:2),cyc=2)")


def _closed_subsets(s, holding=None):
    """Index arrays of the subsets of 2..n-1 elements closed under add
    and mul, each holding element `holding` when it is given."""
    n = s.n
    masks = (np.arange(1 << n)[:, None] >> np.arange(n + 1)) & 1 == 1
    masks[:, n] = False  # a product outside the carrier (-1) reads it
    sizes = masks.sum(axis=1)
    keep = (sizes >= 2) & (sizes < n)
    if holding is not None:
        keep &= masks[:, holding]
    masks = masks[keep]
    leaves = np.zeros(len(masks), dtype=bool)
    for op in ("add", "mul"):
        t = s.table(op)
        for i in range(n):
            leaves |= (masks[:, [i]] & masks[:, :n]
                       & ~masks[:, t[i]]).any(axis=1)
    return [np.flatnonzero(m) for m in masks[~leaves]]


def _has_subfield(s, holding=None):
    """Does a subset that _field_verdict accepts exist?  Not without
    both operations."""
    return s.has_op("add") and s.has_op("mul") and any(_field_verdict(s.restrict(members))[0]
               for members in _closed_subsets(s, holding))


@pytest.mark.parametrize("spec", SMALL)
def test_verdict_is_subfield_existence(spec):
    s = build_carrier(spec)
    assert s.n <= 12
    assert is_s_ring(s)[0] == _has_subfield(s)


@pytest.mark.parametrize("spec", WITH_ZERO)
def test_verdict_is_subfield_existence_holding_zero(spec):
    s = build_carrier(spec)
    assert s.n == 16
    zero = s.identity_index("add")
    assert is_s_ring(s)[0] == _has_subfield(s, zero)


def _small_quotients(k):
    """The Rees and standard quotients of N(Zn:k) with at most 12
    classes."""
    s = build_carrier(f"N(Zn:{k})")
    quotients = [make(s, ideal) for ideal in enumerate_ideals(s)
                 for make in (rees_quotient, standard_quotient)]
    return [q for q in quotients if q.n <= 12]


@pytest.mark.parametrize("k", range(2, 9))
def test_quotient_verdict_is_subfield_existence(k):
    quotients = _small_quotients(k)
    assert quotients
    for q in quotients:
        assert is_s_ring(q)[0] == _has_subfield(q), q.name
