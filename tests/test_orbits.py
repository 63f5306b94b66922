"""Element facts read off the memoized orbits, against a brute force.

Nilpotency indices, identity orders, return exponents, additive spans
and the return exponents of quotient classes all come from
FiniteStructure.orbit.  The reference here takes the powers x, x∘x,
(x∘x)∘x, ... of each element with element arithmetic (s.apply), up to
n+1 of them, and stops at the first power outside the carrier.  Among
n+1 powers of an element of an n-element carrier one repeats, and the
sequence is periodic from there, so every fact below shows within them.
"""

import pytest

from natint.carriers import build_carrier
from natint.quotients import parse_ideal_spec, rees_quotient, standard_quotient
from natint.structures import (
    _additive_span,
    _zero_index,
    find_special_elements,
)
from natint.verify import _power_return_exponents

CARRIERS = ([f"N(Zn:{k})" for k in range(2, 11)]
            + ["N(ZnI:4)", "N(Zn+I:2)", "N(Zn:7)\\0", "Fuzzy(max,step=1/4)",
               "Fuzzy(prod,step=1/4)", "Mat(1,2,N(Zn:2))",
               "Poly(N(Zn:2),cyc=2)",
               # 1+1 = 2 and 3+3 = 2 leave the subset.
               "Sub{[0,0],[1,1],[3,3]} of N(Zn:4)"])
QUOTIENTS = {"rees col-zero": (rees_quotient, "col-zero"),
             "standard gen{[2,2]}": (standard_quotient, "gen{[2,2]}")}


def quotient(name):
    make, ideal = QUOTIENTS[name]
    s = build_carrier("N(Zn:6)")
    return make(s, parse_ideal_spec(s, ideal))


def all_structures():
    for spec in CARRIERS:
        yield spec, build_carrier(spec)
    for name in QUOTIENTS:
        yield name, quotient(name).structure()


def powers(s, op, i):
    """Carrier indices of x^1 .. x^(n+1), x^(k+1) = x^k∘x, cut after the
    first power outside the carrier, which is None."""
    x = s.elements[i]
    out, p = [i], x
    for _ in range(s.n):
        p = s.apply(op, p, x)
        out.append(s.index.get(p))
        if out[-1] is None:
            break
    return out


def least_power(pw, target, start=1):
    """Least k >= start with x^k = target, or None."""
    for k, p in enumerate(pw, 1):
        if p is None:
            return None
        if k >= start and p == target:
            return k
    return None


@pytest.mark.parametrize("name,s", list(all_structures()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_element_facts_match_brute_force_powers(name, s):
    rep = find_special_elements(s, with_orders=True)
    z = _zero_index(s)
    one = s.identity_index("mul")
    pws = [powers(s, "mul", i) for i in range(s.n)]
    nil = [{"x": s.label(i), "index": least_power(pws[i], z)}
           for i in range(s.n) if z is not None and i != z]
    assert rep["nilpotents"] == [e for e in nil if e["index"] is not None]
    assert [(e["x"], e["identity_order"], e["return_exponent"])
            for e in rep["element_orders"]] == [
        (s.label(i), least_power(pw, one), least_power(pw, i, start=2))
        for i, pw in enumerate(pws)]

    if not s.has_op("add") or s.identity_index("add") is None:
        return
    z = s.identity_index("add")
    for i in range(s.n):
        pw = powers(s, "add", i)
        want = None if None in pw else frozenset(pw) | {z}
        assert _additive_span(s, i) == want, s.label(i)


def test_the_subset_reaches_both_ends_of_a_walk():
    """The subset has walks that end in a repeat and walks that leave."""
    s = build_carrier("Sub{[0,0],[1,1],[3,3]} of N(Zn:4)")
    assert [s.orbit("add", i)[1] for i in range(3)] == [0, -1, -1]
    assert [_additive_span(s, i) for i in range(3)] == [
        frozenset({0}), None, None]


@pytest.mark.parametrize("name", QUOTIENTS)
def test_quotient_return_exponents_match_brute_force(name):
    q = quotient(name)
    cls = q.structure()
    want = {cls.label(i): least_power(powers(cls, "mul", i), i, start=2)
            for i in range(1, cls.n)}
    assert _power_return_exponents(q) == want
    assert any(v is not None for v in want.values())
