from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from natint import (
    DivisorComponentZero,
    DomainMismatch,
    Flavor,
    FlavorMismatch,
    Mod,
    ModDomain,
    NONNEG,
    NaturalInterval,
    ParseError,
    Q,
    Trend,
    UnorderedDomain,
    Z,
    degenerate,
    interval,
    iv_max,
    iv_min,
    iv_scalar_mul,
    one_interval,
    parse_domain,
    parse_interval,
    zero_interval,
)

ints = st.integers(min_value=-50, max_value=50)
rats = st.fractions(min_value=-20, max_value=20, max_denominator=12)
flavors = st.sampled_from(list(Flavor))


def ziv(lo, hi, flavor=Flavor.CLOSED):
    return interval(Z, lo, hi, flavor)


# ---- componentwise arithmetic is two independent copies of the domain


@given(ints, ints, ints, ints)
def test_add_is_componentwise(a, b, c, d):
    assert ziv(a, b) + ziv(c, d) == ziv(a + c, b + d)


@given(ints, ints, ints, ints)
def test_sub_is_componentwise(a, b, c, d):
    assert ziv(a, b) - ziv(c, d) == ziv(a - c, b - d)


@given(ints, ints, ints, ints)
def test_mul_is_componentwise(a, b, c, d):
    assert ziv(a, b) * ziv(c, d) == ziv(a * c, b * d)


@given(ints, ints, ints, ints)
def test_mul_commutes_over_z(a, b, c, d):
    assert ziv(a, b) * ziv(c, d) == ziv(c, d) * ziv(a, b)


@given(rats, rats, rats, rats)
def test_rational_division(a, b, c, d):
    x = interval(Q, a, b)
    y = interval(Q, c, d)
    if c == 0 or d == 0:
        with pytest.raises(DivisorComponentZero):
            x / y
    else:
        assert x / y == interval(Q, a / c, b / d)
        assert (x / y) * y == x


@given(ints, ints)
def test_decompose_recompose(a, b):
    x = ziv(a, b)
    lo, hi = x.decompose()
    assert (lo, hi) == (a, b)
    assert interval(Z, lo, hi, x.flavor) == x


@given(ints, ints, st.integers(min_value=1, max_value=6))
def test_pow_matches_componentwise(a, b, k):
    assert ziv(a, b) ** k == ziv(a ** k, b ** k)


def test_pow_rejects_zero_and_negative():
    with pytest.raises(ValueError):
        ziv(1, 2) ** 0
    with pytest.raises(ValueError):
        ziv(1, 2) ** -3


@given(ints, ints, ints)
def test_scalar_multiple(a, b, c):
    assert iv_scalar_mul(c, ziv(a, b)) == ziv(c * a, c * b)


@given(ints, ints, ints, ints)
def test_min_max_componentwise(a, b, c, d):
    x, y = ziv(a, b), ziv(c, d)
    assert iv_min(x, y) == ziv(min(a, c), min(b, d))
    assert iv_max(x, y) == ziv(max(a, c), max(b, d))


def test_min_rejects_unordered_domain():
    d = Mod(5)
    with pytest.raises(UnorderedDomain):
        iv_min(interval(d, 1, 2), interval(d, 3, 4))


@given(rats, rats)
def test_recip_over_q(a, b):
    x = interval(Q, a, b)
    if a == 0 or b == 0:
        with pytest.raises(DivisorComponentZero):
            x.recip()
    else:
        assert x.recip() * x == one_interval(Q)


# ---- flavors are inert metadata, but must agree


@given(flavors)
def test_flavor_travels_through_arithmetic(f):
    x = ziv(2, 3, f) * ziv(4, 5, f) + ziv(1, 1, f)
    assert x.flavor is f
    assert x == interval(Z, 9, 16, f)


def test_mixed_flavors_rejected():
    with pytest.raises(FlavorMismatch):
        ziv(1, 2, Flavor.CLOSED) + ziv(1, 2, Flavor.OPEN)
    with pytest.raises(FlavorMismatch, match="oc with one of flavor co"):
        ziv(1, 2, Flavor.OPEN_CLOSED) * ziv(1, 2, Flavor.CLOSED_OPEN)


@given(flavors, flavors)
def test_equality_includes_flavor(f, g):
    same = ziv(1, 2, f) == ziv(1, 2, g)
    assert same == (f is g)


def test_with_flavor_is_the_only_crossing():
    x = ziv(1, 2, Flavor.OPEN)
    y = x.with_flavor(Flavor.CLOSED)
    assert y.flavor is Flavor.CLOSED
    assert (y.lo, y.hi) == (1, 2)


# ---- degenerate intervals embed the scalar domain


@given(ints, ints)
def test_degenerate_embedding(a, b):
    assert degenerate(Z, a) + degenerate(Z, b) == degenerate(Z, a + b)
    assert degenerate(Z, a) * degenerate(Z, b) == degenerate(Z, a * b)


def test_degenerate_flag_and_units():
    assert degenerate(Z, 7).is_degenerate
    assert not ziv(7, 8).is_degenerate
    assert zero_interval(Z) == ziv(0, 0)
    assert one_interval(Z) == ziv(1, 1)


# ---- rendering and parsing


def test_str_forms():
    assert str(ziv(3, 4)) == "[3,4]"
    assert str(ziv(2, 0, Flavor.OPEN)) == "(2,0)"
    assert str(ziv(1, 5, Flavor.OPEN_CLOSED)) == "(1,5]"
    assert str(ziv(1, 5, Flavor.CLOSED_OPEN)) == "[1,5)"
    assert str(degenerate(Z, -3)) == "-3"


@given(ints, ints, flavors)
def test_parse_roundtrip(a, b, f):
    x = ziv(a, b, f)
    assert parse_interval(str(x), Z, f) == x


def test_parse_flavor_from_brackets():
    assert parse_interval("(1,2]", Z).flavor is Flavor.OPEN_CLOSED
    assert parse_interval("[1,2)", Z).flavor is Flavor.CLOSED_OPEN
    assert parse_interval("(1,2)", Z).flavor is Flavor.OPEN
    assert parse_interval("[1,2]", Z).flavor is Flavor.CLOSED


def test_parse_bare_scalar_is_degenerate():
    x = parse_interval("9", Z, Flavor.OPEN)
    assert x.is_degenerate and x.flavor is Flavor.OPEN and x.lo == 9


def test_parse_rejects_garbage():
    for bad in ("[1,2", "[1;2]", "[1,2,3]", "", "[x,2]"):
        with pytest.raises(ParseError):
            parse_interval(bad, Z)


def test_parse_rational_endpoints():
    x = parse_interval("[1/2,3/4]", Q)
    assert (x.lo, x.hi) == (Fraction(1, 2), Fraction(3, 4))


# ---- trend classification


def test_trend_cases():
    assert ziv(1, 4).trend() is Trend.INCREASING
    assert ziv(4, 1).trend() is Trend.DECREASING
    assert ziv(3, 3).trend() is Trend.DEGENERATE
    assert interval(Mod(7), 1, 4).trend() is Trend.UNORDERED


def test_trend_not_preserved_by_product():
    # increasing times increasing may decrease: componentwise products
    # ignore endpoint order entirely
    x = ziv(-3, 1)
    y = ziv(-2, 1)
    assert x.trend() is Trend.INCREASING
    assert (x * x).trend() is Trend.DECREASING
    assert (x * y).trend() is Trend.DECREASING


def test_hash_consistent_with_eq():
    seen = {ziv(1, 2), ziv(1, 2), degenerate(Z, 5)}
    assert len(seen) == 2
    assert ziv(1, 2, Flavor.OPEN) not in seen


def test_factory_coerces_endpoints():
    assert interval(Q, "1/2", 3) == interval(Q, Fraction(1, 2), Fraction(3))
    assert interval(Mod(3), 25, -1) == interval(Mod(3), 1, 2)
    x = interval(parse_domain("Z+I"), "5+2I", "-I")
    assert str(x) == "[5+2I,-I]"


def test_factory_rejects_floats():
    with pytest.raises(TypeError):
        interval(Q, 0.5, 1)


def test_equal_domains_that_are_distinct_objects():
    # Equality tests identity first; a domain rebuilt outside the Mod
    # cache must still equal, hash like and combine with the cached one.
    fresh = ModDomain(5)
    assert fresh is not Mod(5)
    assert fresh == Mod(5) and Mod(5) == fresh
    assert hash(fresh) == hash(Mod(5))
    x, y = NaturalInterval(fresh, 1, 3), NaturalInterval(Mod(5), 1, 3)
    assert x == y and hash(x) == hash(y)
    assert (x + y).decompose() == (2, 1)
    assert (y * x).decompose() == (1, 4)
    assert Mod(5) != Mod(6)
    assert Z != NONNEG and NONNEG != Z
    assert Mod(5) != 5 and Z != "Z" and Z != None  # noqa: E711
    assert NaturalInterval(Mod(5), 1, 3) != NaturalInterval(Mod(6), 1, 3)
    with pytest.raises(DomainMismatch):
        NaturalInterval(Mod(5), 1, 3) + NaturalInterval(Mod(6), 1, 3)
