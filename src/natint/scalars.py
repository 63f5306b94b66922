"""Exact scalar domains that interval endpoints are drawn from.

Each domain bundles the arithmetic of one coefficient system: arbitrary
precision integers ``Z``, reduced rationals ``Q``, modular integers
``Zn:<n>``, pure neutrosophic coefficients ``ZI``/``QI``/``ZnI:<n>``
(values x meaning xI with I*I = I), mixed neutrosophic ``Zn+I:<n>``
(pairs (a, b) meaning a + bI) and fuzzy-unit rationals ``F01`` confined
to [0, 1].  Values are plain Python objects (int, Fraction, tuple); the
domain object supplies the operations, parsing and printing.
"""

import operator
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    FuzzyRangeOverflow,
    InfiniteDomain,
    NotARing,
    ParseError,
    TooLarge,
    UnorderedDomain,
)

_INT_RE = re.compile(r"^[+-]?\d+$")
_PURE_NEUTRO_RE = re.compile(r"^(?P<b>[+-]?[\d/.]*)I$")
_MIXED_NEUTRO_RE = re.compile(r"^(?P<a>[+-]?[\d/.]+)(?P<sign>[+-])(?P<b>[\d/.]*)I$")

# Largest domain whose add and mul are given as code tables
# (Domain.code_tables); each table holds CODE_TABLE_CAP^2 codes.
CODE_TABLE_CAP = 256


def _rand_below(rng, n):
    """A draw from range(n), equal to ``rng.randrange(n)`` draw for draw.

    ``rng`` is a ``random.Random``.  Its ``randrange`` checks and
    converts its arguments, then runs this same loop (n.bit_length()
    random bits until the value falls below n); the checks cost more
    than the draw.  n < 1 raises ValueError, as randrange does.
    """
    if n < 1:
        raise ValueError(f"empty range for _rand_below({n})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _int(digits):
    """int() of a string of digits; one with more digits than int()
    converts (4300 by default) is refused as too large."""
    try:
        return int(digits)
    except ValueError:
        raise TooLarge(f"an integer of {len(digits.lstrip('+-'))} digits "
                       f"is too large") from None


class Domain:
    """Common interface for all scalar domains."""

    kind = "?"
    spec = "?"
    is_ring = True      # has additive inverses
    ordered = False     # supports <
    nonnegative = False # a + b = 0 forces a = b = 0 (sign argument)
    size = None         # element count, None when infinite

    zero = None
    one = None

    def add(self, x, y):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def inv(self, x):
        """Multiplicative inverse, or None when there is none."""
        return None

    def div(self, x, y):
        """x / y via the inverse of y; None when y is not invertible."""
        iy = self.inv(y)
        if iy is None:
            return None
        return self.mul(x, iy)

    def lt(self, x, y):
        raise UnorderedDomain(f"{self.spec} has no total order")

    def elements(self):
        raise InfiniteDomain(f"{self.spec} is infinite")

    def units(self):
        return [x for x in self.elements() if self.inv(x) is not None]

    def code_tables(self):
        """add and mul as index tables over codes, where a scalar's code
        is its position in elements(): {"add": t, "mul": t}, t[a, b] the
        code of a op b.  None for an infinite domain, one above
        CODE_TABLE_CAP elements and one that gives no tables.  They are
        built afresh on each call, so a caller keeps what it reads again;
        the domains are shared across requests (Mod), and so would be any
        table kept on them."""
        if self.size is None or self.size > CODE_TABLE_CAP:
            return None
        return self._code_tables()

    def _code_tables(self):
        return None

    def parse_scalar(self, text):
        raise NotImplementedError

    def coerce(self, value):
        """Canonical in-domain form of a caller-supplied scalar.

        Strings go through parse_scalar.  Floats are rejected outright:
        everything here is exact, so write "1/2" rather than 0.5.
        """
        if isinstance(value, str):
            return self.parse_scalar(value)
        if isinstance(value, float):
            raise TypeError(
                f"{self.spec} is exact and takes no floats; pass "
                f"{value!r} as a string instead")
        return self._canon(value)

    def _canon(self, value):
        return value

    def format_scalar(self, x):
        return str(x)

    def random_scalar(self, rng):
        raise NotImplementedError

    def _key(self):
        return (self.kind,)

    def __eq__(self, other):
        return self is other or (isinstance(other, Domain)
                                 and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"<domain {self.spec}>"


class IntDomain(Domain):
    kind = "Int"
    spec = "Z"
    ordered = True
    zero = 0
    one = 1

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def inv(self, x):
        return x if x in (1, -1) else None

    def lt(self, x, y):
        return x < y

    def parse_scalar(self, text):
        if not _INT_RE.match(text):
            raise ParseError(f"not an integer: {text!r}", text=text)
        return _int(text)

    def _canon(self, value):
        try:
            return operator.index(value)
        except TypeError:
            raise TypeError(f"{self.spec} scalar must be an integer, "
                            f"got {value!r}") from None

    def random_scalar(self, rng):
        return _rand_below(rng, 101) - 50


class NonnegIntDomain(IntDomain):
    """Nonnegative integers: a semiring, strict by the sign argument."""

    kind = "NonnegInt"
    spec = "Z>=0"
    is_ring = False
    nonnegative = True

    def neg(self, x):
        raise NotARing("nonnegative integers have no additive inverses")

    def sub(self, x, y):
        raise NotARing("nonnegative integers have no subtraction")

    def inv(self, x):
        return 1 if x == 1 else None

    def parse_scalar(self, text):
        v = super().parse_scalar(text)
        if v < 0:
            raise ParseError(f"negative value {text!r} outside Z>=0", text=text)
        return v

    def _canon(self, value):
        v = super()._canon(value)
        if v < 0:
            raise ParseError(f"negative value {value!r} outside Z>=0")
        return v

    def random_scalar(self, rng):
        return _rand_below(rng, 101)


class RatDomain(Domain):
    kind = "Rat"
    spec = "Q"
    ordered = True
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    # An int operand is wrapped so that it divides exactly, never to a
    # float; a Fraction is divided as it is.
    def inv(self, x):
        if x == 0:
            return None
        return 1 / (x if isinstance(x, Fraction) else Fraction(x))

    def div(self, x, y):
        if y == 0:
            return None
        return (x if isinstance(x, Fraction) else Fraction(x)) / y

    def lt(self, x, y):
        return x < y

    def parse_scalar(self, text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"not a rational: {text!r}", text=text)

    def _canon(self, value):
        if isinstance(value, Fraction):
            return value
        try:
            return Fraction(operator.index(value))
        except TypeError:
            raise TypeError(f"{self.spec} scalar must be an integer or "
                            f"Fraction, got {value!r}") from None

    def format_scalar(self, x):
        return str(x)  # Fraction prints p/q, or p when q = 1

    def random_scalar(self, rng):
        return Fraction(_rand_below(rng, 101) - 50, _rand_below(rng, 20) + 1)


class ModDomain(Domain):
    """Integers modulo n with canonical residues in [0, n)."""

    kind = "Mod"

    def __init__(self, n):
        if n < 2:
            raise ValueError("modulus must be at least 2")
        self.n = n
        self.spec = f"Zn:{n}"
        self.size = n
        self.zero = 0
        self.one = 1 % n

    def _key(self):
        return (self.kind, self.n)

    def add(self, x, y):
        return (x + y) % self.n

    def sub(self, x, y):
        return (x - y) % self.n

    def mul(self, x, y):
        return (x * y) % self.n

    def neg(self, x):
        return (-x) % self.n

    def inv(self, x):
        try:
            return pow(x, -1, self.n)
        except ValueError:
            return None

    def elements(self):
        return iter(range(self.n))

    def _code_tables(self):
        # a residue is its own code
        r = np.arange(self.n)
        return {"add": np.add.outer(r, r) % self.n,
                "mul": np.multiply.outer(r, r) % self.n}

    def parse_scalar(self, text):
        if not _INT_RE.match(text):
            raise ParseError(f"not an integer: {text!r}", text=text)
        return _int(text) % self.n

    def _canon(self, value):
        try:
            return operator.index(value) % self.n
        except TypeError:
            raise TypeError(f"{self.spec} scalar must be an integer, "
                            f"got {value!r}") from None

    def random_scalar(self, rng):
        return _rand_below(rng, self.n)


class PureNeutroDomain(Domain):
    """Coefficients of pure neutrosophic values xI, with I*I = I.

    The stored value is the coefficient x from the base domain; the
    multiplicative identity is I itself (coefficient 1).
    """

    kind = "NeutroPure"

    def __init__(self, base):
        if base.kind not in ("Int", "Rat", "Mod"):
            raise ValueError("neutrosophic base must be Z, Q or Zn")
        self.base = base
        if base.kind == "Int":
            self.spec = "ZI"
        elif base.kind == "Rat":
            self.spec = "QI"
        else:
            self.spec = f"ZnI:{base.n}"
        self.size = base.size
        self.zero = base.zero
        self.one = base.one  # the value I

    def _key(self):
        return (self.kind, self.base._key())

    def add(self, x, y):
        return self.base.add(x, y)

    def sub(self, x, y):
        return self.base.sub(x, y)

    def mul(self, x, y):
        # (xI)(yI) = xy I*I = (xy)I
        return self.base.mul(x, y)

    def neg(self, x):
        return self.base.neg(x)

    def inv(self, x):
        return self.base.inv(x)

    def elements(self):
        return self.base.elements()

    def _code_tables(self):
        return self.base.code_tables()

    def parse_scalar(self, text):
        text = text.strip()
        m = _PURE_NEUTRO_RE.match(text)
        if m:
            b = m.group("b")
            if b in ("", "+"):
                return self.base.parse_scalar("1")
            if b == "-":
                return self.base.parse_scalar("-1")
            return self.base.parse_scalar(b)
        if text == "0":
            return self.zero
        raise ParseError(f"not a pure neutrosophic value: {text!r}", text=text,
                         expected=["xI", "0"])

    def _canon(self, value):
        # the stored value is the I-coefficient
        return self.base.coerce(value)

    def format_scalar(self, x):
        if x == self.base.zero:
            return "0"
        if x == self.base.one:
            return "I"
        if self.base.is_ring and x == self.base.neg(self.base.one):
            return "-I"
        return f"{self.base.format_scalar(x)}I"

    def random_scalar(self, rng):
        return self.base.random_scalar(rng)


class MixedNeutroDomain(Domain):
    """Values a + bI stored as pairs (a, b) over a base domain.

    Multiplication expands under I*I = I:
    (a + bI)(c + dI) = ac + (ad + bc + bd)I.
    A value is invertible exactly when a and a + b are both invertible
    in the base; the inverse is a^-1 + ((a+b)^-1 - a^-1)I.
    """

    kind = "NeutroMixed"

    def __init__(self, base):
        if base.kind not in ("Int", "Rat", "Mod"):
            raise ValueError("neutrosophic base must be Z, Q or Zn")
        self.base = base
        if base.kind == "Int":
            self.spec = "Z+I"
        elif base.kind == "Rat":
            self.spec = "Q+I"
        else:
            self.spec = f"Zn+I:{base.n}"
        self.size = None if base.size is None else base.size ** 2
        self.zero = (base.zero, base.zero)
        self.one = (base.one, base.zero)

    def _key(self):
        return (self.kind, self.base._key())

    def add(self, x, y):
        b = self.base
        return (b.add(x[0], y[0]), b.add(x[1], y[1]))

    def sub(self, x, y):
        b = self.base
        return (b.sub(x[0], y[0]), b.sub(x[1], y[1]))

    def mul(self, x, y):
        b = self.base
        a, p = x
        c, d = y
        head = b.mul(a, c)
        tail = b.add(b.add(b.mul(a, d), b.mul(p, c)), b.mul(p, d))
        return (head, tail)

    def neg(self, x):
        b = self.base
        return (b.neg(x[0]), b.neg(x[1]))

    def inv(self, x):
        b = self.base
        a, p = x
        ia = b.inv(a)
        isum = b.inv(b.add(a, p))
        if ia is None or isum is None:
            return None
        return (ia, b.sub(isum, ia))

    def elements(self):
        for a in self.base.elements():
            for p in list(self.base.elements()):
                yield (a, p)

    def _code_tables(self):
        # (a, p) is code a * m + p over the base's m codes; mul gathers
        # the base's tables in the order mul folds them
        base = self.base.code_tables()
        if base is None:
            return None
        plus, times = base["add"], base["mul"]
        m = len(plus)
        a, p = np.divmod(np.arange(m * m), m)
        a, p, c, d = a[:, None], p[:, None], a[None], p[None]
        tail = plus[plus[times[a, d], times[p, c]], times[p, d]]
        return {"add": plus[a, c] * m + plus[p, d],
                "mul": times[a, c] * m + tail}

    def parse_scalar(self, text):
        text = text.strip()
        base = self.base
        m = _MIXED_NEUTRO_RE.match(text)
        if m:
            a = base.parse_scalar(m.group("a"))
            btxt = m.group("b") or "1"
            b = base.parse_scalar(btxt)
            if m.group("sign") == "-":
                b = base.neg(b)
            return (a, b)
        m = _PURE_NEUTRO_RE.match(text)
        if m:
            btxt = m.group("b")
            if btxt in ("", "+"):
                btxt = "1"
            elif btxt == "-":
                btxt = "-1"
            return (base.zero, base.parse_scalar(btxt))
        return (base.parse_scalar(text), base.zero)

    def _canon(self, value):
        if isinstance(value, tuple) and len(value) == 2:
            return (self.base.coerce(value[0]), self.base.coerce(value[1]))
        # a bare base scalar means a + 0I
        return (self.base.coerce(value), self.base.zero)

    def format_scalar(self, x):
        base = self.base
        a, b = x
        if b == base.zero:
            return base.format_scalar(a)
        if b == base.one:
            tail = "I"
        elif base.is_ring and b == base.neg(base.one):
            tail = "-I"
        else:
            tail = f"{base.format_scalar(b)}I"
        if a == base.zero:
            return tail
        if tail.startswith("-"):
            return f"{base.format_scalar(a)}{tail}"
        return f"{base.format_scalar(a)}+{tail}"

    def random_scalar(self, rng):
        return (self.base.random_scalar(rng), self.base.random_scalar(rng))


class FuzzyUnitDomain(Domain):
    """Rationals confined to [0, 1].

    Closed under multiplication, min and max.  Addition is defined only
    when the sum stays inside [0, 1]; anything larger raises
    FuzzyRangeOverflow instead of clamping.
    """

    kind = "FuzzyUnit"
    spec = "F01"
    is_ring = False
    ordered = True
    nonnegative = True
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, x, y):
        s = x + y
        if s > 1:
            raise FuzzyRangeOverflow(f"{x} + {y} = {s} leaves [0, 1]")
        return s

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        raise NotARing("fuzzy-unit values have no additive inverses")

    def sub(self, x, y):
        raise NotARing("fuzzy-unit values have no subtraction")

    def inv(self, x):
        return self.one if x == 1 else None

    def lt(self, x, y):
        return x < y

    def parse_scalar(self, text):
        try:
            v = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"not a rational: {text!r}", text=text)
        if not 0 <= v <= 1:
            raise ParseError(f"{text!r} outside [0, 1]", text=text)
        return v

    def _canon(self, value):
        if isinstance(value, Fraction):
            v = value
        else:
            try:
                v = Fraction(operator.index(value))
            except TypeError:
                raise TypeError(f"{self.spec} scalar must be an integer "
                                f"or Fraction, got {value!r}") from None
        if not 0 <= v <= 1:
            raise ParseError(f"{value!r} outside [0, 1]")
        return v

    def random_scalar(self, rng):
        return Fraction(_rand_below(rng, 101), 100)


Z = IntDomain()
Q = RatDomain()
F01 = FuzzyUnitDomain()
NONNEG = NonnegIntDomain()


@lru_cache(maxsize=None)
def Mod(n):
    return ModDomain(n)


@lru_cache(maxsize=None)
def pure_neutro(base):
    return PureNeutroDomain(base)


@lru_cache(maxsize=None)
def mixed_neutro(base):
    return MixedNeutroDomain(base)


ZI = pure_neutro(Z)
QI = pure_neutro(Q)

_MOD_SPEC_RE = re.compile(r"^(Zn|ZnI|Zn\+I):(\d+)$")

_FIXED_DOMAINS = {"Z": Z, "Q": Q, "F01": F01, "ZI": ZI, "QI": QI,
                  "Z+I": mixed_neutro(Z), "Q+I": mixed_neutro(Q)}


def parse_domain(text):
    """Parse a domain spec: Z, Q, Zn:<n>, ZI, QI, ZnI:<n>, Z+I, Q+I,
    Zn+I:<n>, F01."""
    text = text.strip()
    if text in _FIXED_DOMAINS:
        return _FIXED_DOMAINS[text]
    m = _MOD_SPEC_RE.match(text)
    if m:
        n = _int(m.group(2))
        if n < 2:
            raise ParseError(f"modulus must be >= 2, got {n}", text=text)
        head = m.group(1)
        if head == "Zn":
            return Mod(n)
        if head == "ZnI":
            return pure_neutro(Mod(n))
        return mixed_neutro(Mod(n))
    raise ParseError(
        f"unknown domain spec {text!r}", text=text,
        expected=["Z", "Q", "Zn:<n>", "ZI", "QI", "ZnI:<n>", "Z+I", "Q+I",
                  "Zn+I:<n>", "F01"],
    )
