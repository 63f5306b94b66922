import random
import types
from fractions import Fraction

import numpy as np
import pytest

from natint import (
    F01,
    FuzzyRangeOverflow,
    Mod,
    NONNEG,
    NotARing,
    ParseError,
    Q,
    Z,
    mixed_neutro,
    parse_domain,
    pure_neutro,
)
from natint.scalars import _rand_below


def test_fixed_domain_parsing():
    assert parse_domain("Z") is Z
    assert parse_domain("Q") is Q
    assert parse_domain("F01") is F01
    assert parse_domain("Zn:12") is Mod(12)
    assert parse_domain(" Zn:12 ") is Mod(12)


def test_mod_is_cached():
    assert Mod(7) is Mod(7)
    assert Mod(7) is not Mod(11)


@pytest.mark.parametrize("bad", ["Zn:1", "Zn:0", "Zn:-3", "Zn:x", "W", ""])
def test_bad_domain_specs(bad):
    with pytest.raises(ParseError):
        parse_domain(bad)


def test_integer_domain():
    assert Z.parse_scalar("-17") == -17
    assert Z.add(2, 3) == 5
    assert Z.size is None
    assert Z.inv(1) == 1 and Z.inv(-1) == -1 and Z.inv(2) is None


def test_nonneg_has_no_negation():
    assert NONNEG.parse_scalar("4") == 4
    with pytest.raises(ParseError):
        NONNEG.parse_scalar("-4")
    with pytest.raises(NotARing):
        NONNEG.sub(1, 2)


def test_rationals_stay_exact():
    third = Q.parse_scalar("1/3")
    assert third * 3 == 1
    assert Q.format_scalar(Fraction(6, 4)) == "3/2"
    assert Q.div(Fraction(1), Fraction(7)) == Fraction(1, 7)


@pytest.mark.parametrize("x,y,quotient", [
    (Fraction(3, 7), Fraction(-5, 11), Fraction(-33, 35)),
    (Fraction(3, 7), 2, Fraction(3, 14)),
    (3, Fraction(1, 2), Fraction(6)),
    (3, 2, Fraction(3, 2)),
    (-1, 3, Fraction(-1, 3)),
    (0, 5, Fraction(0)),
])
def test_rational_division_is_exact_on_fractions_and_ints(x, y, quotient):
    """A Fraction operand is divided as it is, an int one is wrapped: both
    give a Fraction, never a float."""
    got = Q.div(x, y)
    assert got == quotient and type(got) is Fraction
    assert Q.div(x, 0) is None and Q.div(x, Fraction(0)) is None
    inv = Q.inv(y)
    assert inv == 1 / Fraction(y) and type(inv) is Fraction
    assert Q.inv(0) is None and Q.inv(Fraction(0)) is None


def test_mod_arithmetic_and_units():
    d = Mod(12)
    assert d.size == 12
    assert d.add(7, 8) == 3
    assert d.mul(4, 6) == 0
    assert d.inv(5) == 5            # 5*5 = 25 = 1
    assert d.inv(4) is None         # gcd(4,12) > 1
    assert d.parse_scalar("25") == 1


def test_fuzzy_unit_domain_bounds():
    a = F01.parse_scalar("3/10")
    b = F01.parse_scalar("9/10")
    assert F01.mul(a, b) == Fraction(27, 100)
    with pytest.raises(FuzzyRangeOverflow):
        F01.add(a, b)
    with pytest.raises(ParseError):
        F01.parse_scalar("3/2")


def test_pure_neutro_multiples_of_I():
    d = parse_domain("ZnI:12")
    assert d is pure_neutro(Mod(12))
    x = d.parse_scalar("4I")
    # I^2 = I, so (4I)(4I) = 16I = 4I over Z12
    assert d.mul(x, x) == x
    assert d.format_scalar(x) == "4I"
    assert d.size == 12


def test_mixed_neutro_pairs():
    d = parse_domain("Q+I")
    assert d is mixed_neutro(Q)
    x = d.parse_scalar("5+2I")
    y = d.parse_scalar("-3+8I")
    # (a+bI)(c+dI) = ac + (ad+bc+bd)I
    assert d.mul(x, y) == (-15, 50)
    assert d.add(x, y) == (2, 10)
    assert d.format_scalar(d.mul(x, y)) == "-15+50I"


def test_mixed_neutro_inverse():
    d = parse_domain("Q+I")
    x = d.parse_scalar("2+3I")
    assert d.mul(x, d.inv(x)) == d.one


def test_mixed_neutro_mod_base():
    d = parse_domain("Zn+I:5")
    x = d.parse_scalar("3+4I")
    assert d.add(x, x) == (1, 3)
    assert d.size == 25


def test_domain_spec_roundtrip():
    for spec in ("Z", "Q", "F01", "Zn:9", "ZnI:7", "Z+I", "Zn+I:5", "QI"):
        d = parse_domain(spec)
        assert parse_domain(d.spec) is d


def test_scalar_format_parse_roundtrip():
    for spec, samples in (
        ("Zn:9", ["0", "5", "8"]),
        ("Q", ["-7/3", "0", "11"]),
        ("ZnI:7", ["0", "3I", "6I"]),
        ("Zn+I:5", ["0", "2+3I", "4I", "3"]),
        ("F01", ["0", "1/2", "1"]),
    ):
        d = parse_domain(spec)
        for text in samples:
            v = d.parse_scalar(text)
            assert d.parse_scalar(d.format_scalar(v)) == v
    # every element of the small finite neutrosophic domains, so the
    # shared bI reader and writer meet I, -I and bI over each modulus
    for k in range(2, 7):
        for d in (parse_domain(f"ZnI:{k}"), parse_domain(f"Zn+I:{k}")):
            for v in d.elements():
                assert d.parse_scalar(d.format_scalar(v)) == v
    # each spelling of a bI term reads and prints back as written
    for spec, written in (
        ("ZI", ["I", "-I"]),
        ("QI", ["I", "-I", "1/2I"]),
        ("Z+I", ["I", "-I", "3-I", "-2+I"]),
        ("Q+I", ["I", "-I", "3-I", "-2+I", "1/2I", "-1/3+2/5I"]),
    ):
        d = parse_domain(spec)
        for text in written:
            assert d.format_scalar(d.parse_scalar(text)) == text


def test_coerce_parses_strings_and_reduces():
    assert Q.coerce("1/2") == Fraction(1, 2)
    assert Mod(3).coerce(25) == 1
    assert Mod(3).coerce("25") == 1
    assert parse_domain("Z+I").coerce(5) == (5, 0)
    assert parse_domain("Z+I").coerce((2, -1)) == (2, -1)
    assert parse_domain("ZnI:12").coerce(16) == 4


def test_coerce_accepts_numpy_integers():
    assert Z.coerce(np.int64(7)) == 7
    assert Mod(5).coerce(np.int64(7)) == 2
    assert Q.coerce(np.int64(7)) == Fraction(7)


def test_coerce_rejects_floats_and_junk():
    with pytest.raises(TypeError):
        Q.coerce(0.5)
    with pytest.raises(TypeError):
        Z.coerce(Fraction(1, 2))
    with pytest.raises(TypeError):
        Mod(7).coerce([3])
    with pytest.raises(ParseError):
        F01.coerce(Fraction(3, 2))
    with pytest.raises(ParseError):
        NONNEG.coerce(-4)


def _same(a, b):
    """Equal in value and in type, component by component for pairs."""
    if type(a) is not type(b) or a != b:
        return False
    if isinstance(a, tuple):
        return all(type(p) is type(q) for p, q in zip(a, b))
    return True


DRAWN_DOMAINS = [Z, NONNEG, Q, F01, Mod(2), Mod(7), Mod(12), Mod(1000),
                 parse_domain("ZI"), parse_domain("QI"),
                 parse_domain("ZnI:7"), parse_domain("Z+I"),
                 parse_domain("Q+I"), parse_domain("Zn+I:5")]


@pytest.mark.parametrize("d", DRAWN_DOMAINS, ids=lambda d: d.spec)
def test_random_scalars_are_canonical(d):
    # The suites build intervals straight from random_scalar's values;
    # this is the contract that lets them skip coerce.
    rng = random.Random(11)
    for _ in range(2000):
        v = d.random_scalar(rng)
        assert _same(d.coerce(v), v), (d.spec, v)


EXHAUSTIVE_RINGS = ([f"Zn:{n}" for n in range(2, 13)]
                    + [f"ZnI:{n}" for n in range(2, 9)]
                    + [f"Zn+I:{n}" for n in range(2, 6)])


@pytest.mark.parametrize("spec", EXHAUSTIVE_RINGS)
def test_sub_is_add_of_negation_exhaustively(spec):
    d = parse_domain(spec)
    elems = list(d.elements())
    for x in elems:
        for y in elems:
            assert _same(d.sub(x, y), d.add(x, d.neg(y))), (x, y)


@pytest.mark.parametrize("spec", ["Z", "Q", "ZI", "QI", "Z+I", "Q+I"])
def test_sub_is_add_of_negation_on_draws(spec):
    d = parse_domain(spec)
    rng = random.Random(3)
    for _ in range(3000):
        x, y = d.random_scalar(rng), d.random_scalar(rng)
        assert _same(d.sub(x, y), d.add(x, d.neg(y))), (x, y)


@pytest.mark.parametrize("d", [NONNEG, F01], ids=lambda d: d.spec)
def test_semiring_domains_still_refuse_sub(d):
    with pytest.raises(NotARing):
        d.sub(d.one, d.zero)
    with pytest.raises(NotARing):
        d.neg(d.one)


# The seeded suites draw through _rand_below instead of randrange; every
# golden digest and recorded report rests on the two giving one stream.
DRAW_WIDTHS = [1, 2, 3, 20, 61, 101, 127, 128, 129, 1999, 2 ** 31 + 5]
DRAW_SEEDS = range(200)


class _BoundedRandom(random.Random):
    """A Random whose getrandbits fails after `limit` calls, so that a
    draw loop that never ends fails a test instead of hanging it."""

    limit = 1000

    def getrandbits(self, k):
        self.limit -= 1
        if self.limit < 0:
            raise AssertionError("the draw loop did not end")
        return super().getrandbits(k)


def _same_stream(draw, want, seed, count=8):
    mine, ref = random.Random(seed), random.Random(seed)
    got = [draw(mine) for _ in range(count)]
    assert got == [want(ref) for _ in range(count)], seed
    assert mine.getstate() == ref.getstate(), seed


@pytest.mark.parametrize("n", DRAW_WIDTHS)
def test_rand_below_is_randranges_stream(n):
    a = -50
    for seed in DRAW_SEEDS:
        _same_stream(lambda r: _rand_below(r, n),
                     lambda r: r.randrange(n), seed)
        _same_stream(lambda r: _rand_below(r, n) + a,
                     lambda r: r.randrange(a, a + n), seed)
        _same_stream(lambda r: _rand_below(r, n) + a,
                     lambda r: r.randint(a, a + n - 1), seed)


@pytest.mark.parametrize("n", [0, -1])
def test_rand_below_refuses_an_empty_range(n):
    with pytest.raises(ValueError):
        _rand_below(_BoundedRandom(1), n)


def test_poly_suite_refuses_no_terms(monkeypatch):
    from natint import suites

    monkeypatch.setattr(suites, "random",
                        types.SimpleNamespace(Random=_BoundedRandom))
    with pytest.raises(ValueError):
        suites.poly_decompose_suite(cases=1, max_terms=0)


# Each domain's draw, as the randrange expression it replaced.
RANDRANGE_DRAWS = [
    (Z, lambda r: r.randrange(-50, 51)),
    (NONNEG, lambda r: r.randrange(0, 101)),
    (Q, lambda r: Fraction(r.randrange(-50, 51), r.randrange(1, 21))),
    (F01, lambda r: Fraction(r.randrange(0, 101), 100)),
    (Mod(7), lambda r: r.randrange(7)),
    (Mod(128), lambda r: r.randrange(128)),
    (pure_neutro(Z), lambda r: r.randrange(-50, 51)),
    (mixed_neutro(Mod(5)), lambda r: (r.randrange(5), r.randrange(5))),
]


@pytest.mark.parametrize("d,want", RANDRANGE_DRAWS,
                         ids=[d.spec for d, _ in RANDRANGE_DRAWS])
def test_random_scalar_keeps_randranges_stream(d, want):
    for seed in range(50):
        _same_stream(d.random_scalar, want, seed, count=20)
