"""Ideals of product carriers, read off their factors, against the
closure engine run on every carrier element.

In a full product with unity every ideal is I x J for ideals I and J of
the factors, so enumerate_ideals lists those products and generate_ideal
closes the generators' parts on each factor.  Each check compares the
result with a twin that holds the same tables but no product form, so
every answer of the twin comes from closures over the whole carrier.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from natint import quotients
from natint.carriers import build_carrier
from natint.errors import NotAnIdeal, TooLarge
from natint.quotients import (
    enumerate_ideals,
    generate_ideal,
    maximal_minimal_ideals,
)
from natint.structures import FiniteStructure
from conftest import built_twin
from test_factored import FULL_PRODUCTS, NOT_PRODUCTS

# A full product whose factor {0, 2} of Z4 has no unity: besides the
# four products it has the diagonal ideal {[0,0],[2,2]}.
NO_UNITY = "Sub{[0,0],[0,2],[2,0],[2,2]} of N(Zn:4)"
RING_PRODUCTS = [spec for spec in FULL_PRODUCTS
                 if build_carrier(spec).has_op("add")]
CARRIERS = RING_PRODUCTS + list(NOT_PRODUCTS) + [NO_UNITY]


@functools.lru_cache(maxsize=None)
def _pair(spec):
    s = build_carrier(spec)
    for op in ("add", "mul"):  # the twin holds s's gathered tables
        s.table(op)
    return s, built_twin(s)


def _answer(decide):
    try:
        return decide()
    except (NotAnIdeal, TooLarge) as e:
        return type(e).__name__, str(e)


def _ideals(s):
    return _answer(lambda: [i.indices for i in enumerate_ideals(s)])


def _extremes(s):
    def decide():
        rep = maximal_minimal_ideals(s)
        return {k: v if isinstance(v, int) else [i.indices for i in v]
                for k, v in rep.items()}
    return _answer(decide)


@pytest.mark.parametrize("spec", CARRIERS)
def test_ideals_match_the_closures(spec):
    s, twin = _pair(spec)
    assert quotients._ideal_factors(twin) is None
    assert _ideals(s) == _ideals(twin)
    assert _extremes(s) == _extremes(twin)
    for g in range(s.n):
        assert (_answer(lambda: generate_ideal(s, [g]))
                == _answer(lambda: generate_ideal(twin, [g])))


@pytest.mark.parametrize("spec", CARRIERS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_generated_ideals_match_the_closures(spec, data):
    s, twin = _pair(spec)
    gens = data.draw(st.lists(st.integers(0, s.n - 1), max_size=4))
    assert (_answer(lambda: generate_ideal(s, gens))
            == _answer(lambda: generate_ideal(twin, gens)))


def test_rings_with_unity_take_the_factored_path():
    for spec in ("N(Zn:6)", "N(Zn:7,o)", "N(ZnI:4)", "N(Zn+I:3)",
                 "Mat(2,1,N(Zn:2))", "Mat(2,2,N(Zn:2))",
                 "Poly(N(Zn:3),cyc=2)"):
        assert quotients._ideal_factors(build_carrier(spec)) is not None
    for spec in list(NOT_PRODUCTS) + [NO_UNITY]:
        assert quotients._ideal_factors(build_carrier(spec)) is None


def test_a_factor_without_unity_keeps_the_diagonal_ideal():
    s = build_carrier(NO_UNITY)
    found = [sorted(i.members()) for i in enumerate_ideals(s)]
    assert len(found) == 5
    assert ["0", "2"] in found  # [0,0] and [2,2] print as 0 and 2


def test_products_close_only_their_factors(monkeypatch):
    s = build_carrier("N(Zn:30)")
    closed_on = []
    generate = quotients.generate_ideal

    def counted(structure, gens):
        closed_on.append(structure.n)
        return generate(structure, gens)

    monkeypatch.setattr(quotients, "generate_ideal", counted)
    ideals = enumerate_ideals(s)
    # Z30 has 8 ideals, one per divisor of 30
    assert len(ideals) == 64
    assert closed_on == [30] * 30
    assert np.array_equal(ideals[-1].indices, np.arange(s.n))


class _Pair(tuple):
    """An element (lo, hi) of a caller-built product carrier."""

    def decompose(self):
        return tuple(self)


# A commutative addition on 0..7 with zero 0 and an inverse for each
# element, but not associative: {0,2,3} and {0,4,5} are ideals whose sum
# A = {0,2,...,6} is not additively closed (6+6 = 1).  Multiplication has
# unity 1 and is 0 on the rest.  The closure engine finds (A+A) x B, so
# the product carrier has 34 ideals, not the 25 products of the factor's
# 5 ideals.
LOOP_ADD = [[0, 1, 2, 3, 4, 5, 6, 7], [1, 1, 1, 1, 1, 1, 1, 0],
            [2, 1, 3, 0, 6, 6, 6, 7], [3, 1, 0, 2, 6, 6, 6, 7],
            [4, 1, 6, 6, 5, 0, 6, 7], [5, 1, 6, 6, 0, 4, 6, 7],
            [6, 1, 6, 6, 6, 6, 1, 0], [7, 0, 7, 7, 7, 7, 0, 7]]


def _loop_mul(a, b):
    return b if a == 1 else a if b == 1 else 0


def test_a_factor_with_non_associative_addition_is_closed_whole():
    s = FiniteStructure(
        [_Pair((a, b)) for a in range(8) for b in range(8)],
        add=lambda x, y: _Pair(LOOP_ADD[a][b] for a, b in zip(x, y)),
        mul=lambda x, y: _Pair(_loop_mul(a, b) for a, b in zip(x, y)),
        diag=lambda p: _Pair((p, p)))
    twin = built_twin(s)
    assert len(enumerate_ideals(s._factors()[0])) == 5
    assert quotients._ideal_factors(s) is None
    assert _ideals(s) == _ideals(twin)
    assert len(_ideals(s)) == 34
