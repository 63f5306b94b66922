"""Natural intervals: ordered endpoint pairs with no ordering constraint.

An interval [a, b] may be increasing (a < b), decreasing (a > b) or
degenerate (a = b); all arithmetic acts componentwise on the endpoints,
so the interval algebra over a domain D is exactly the product algebra
D x D.  The boundary flavor (closed/open/half-open) is carried along as
inert metadata: it never changes results, but mixing flavors in one
operation is an error.
"""

from enum import Enum

from .errors import (
    DivisorComponentZero,
    DomainMismatch,
    FlavorMismatch,
    ParseError,
    UnorderedDomain,
)


class Flavor(Enum):
    """Boundary style of an interval."""

    CLOSED = ("c", "[", "]")
    OPEN = ("o", "(", ")")
    OPEN_CLOSED = ("oc", "(", "]")
    CLOSED_OPEN = ("co", "[", ")")

    def __init__(self, code, left, right):
        self.code = code
        self.left = left
        self.right = right

    @classmethod
    def from_code(cls, code):
        for f in cls:
            if f.code == code:
                return f
        raise ParseError(f"unknown flavor {code!r}", text=code,
                         expected=[f.code for f in cls])


class Trend(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    DEGENERATE = "degenerate"
    UNORDERED = "unordered"


def split_top_level(text, sep=","):
    """Split on sep, ignoring separators nested inside brackets."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _closing_bracket(text, start, opens, closes):
    """The index of the bracket that closes the one at text[start], or
    None when none does; opens and closes are the brackets that nest."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] in opens:
            depth += 1
        elif text[i] in closes:
            depth -= 1
            if depth == 0:
                return i
    return None


class NaturalInterval:
    __slots__ = ("domain", "lo", "hi", "flavor", "_hash")

    def __init__(self, domain, lo, hi, flavor=Flavor.CLOSED):
        self.domain = domain
        self.lo = lo
        self.hi = hi
        self.flavor = flavor
        self._hash = None

    def _pair(self, other):
        if not isinstance(other, NaturalInterval):
            raise TypeError(f"expected an interval, got {other!r}")
        if self.domain is not other.domain and self.domain != other.domain:
            raise DomainMismatch(
                f"cannot combine an interval over {self.domain.spec} with "
                f"one over {other.domain.spec}")
        if self.flavor is not other.flavor:
            raise FlavorMismatch(
                f"cannot combine an interval of flavor {self.flavor.code} "
                f"with one of flavor {other.flavor.code}")

    def __add__(self, other):
        self._pair(other)
        d = self.domain
        return NaturalInterval(d, d.add(self.lo, other.lo),
                               d.add(self.hi, other.hi), self.flavor)

    def __sub__(self, other):
        self._pair(other)
        d = self.domain
        return NaturalInterval(d, d.sub(self.lo, other.lo),
                               d.sub(self.hi, other.hi), self.flavor)

    def __mul__(self, other):
        self._pair(other)
        d = self.domain
        return NaturalInterval(d, d.mul(self.lo, other.lo),
                               d.mul(self.hi, other.hi), self.flavor)

    def __truediv__(self, other):
        self._pair(other)
        d = self.domain
        lo = d.div(self.lo, other.lo)
        hi = d.div(self.hi, other.hi)
        if lo is None or hi is None:
            raise DivisorComponentZero(
                f"divisor {other} has a non-invertible component")
        return NaturalInterval(d, lo, hi, self.flavor)

    def __neg__(self):
        d = self.domain
        return NaturalInterval(d, d.neg(self.lo), d.neg(self.hi), self.flavor)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 1:
            raise ValueError("interval exponent must be an integer >= 1")
        acc = None
        base = self
        while True:
            if k & 1:
                acc = base if acc is None else acc * base
            k >>= 1
            if not k:
                return acc
            base = base * base

    def recip(self):
        """Componentwise reciprocal; both endpoints must be invertible."""
        d = self.domain
        lo = d.inv(self.lo)
        hi = d.inv(self.hi)
        if lo is None or hi is None:
            raise DivisorComponentZero(
                f"{self} has a non-invertible component")
        return NaturalInterval(d, lo, hi, self.flavor)

    def scale(self, c):
        """Multiply both endpoints by the scalar c."""
        d = self.domain
        return NaturalInterval(d, d.mul(c, self.lo), d.mul(c, self.hi),
                               self.flavor)

    @property
    def is_degenerate(self):
        return self.lo == self.hi

    def trend(self):
        d = self.domain
        if not d.ordered:
            return Trend.UNORDERED
        if self.lo == self.hi:
            return Trend.DEGENERATE
        return Trend.INCREASING if d.lt(self.lo, self.hi) else Trend.DECREASING

    def decompose(self):
        return (self.lo, self.hi)

    def with_flavor(self, flavor):
        if flavor is self.flavor:
            return self
        return NaturalInterval(self.domain, self.lo, self.hi, flavor)

    def __eq__(self, other):
        return (isinstance(other, NaturalInterval)
                and self.lo == other.lo and self.hi == other.hi
                and self.flavor is other.flavor
                and (self.domain is other.domain
                     or self.domain == other.domain))

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.lo, self.hi, self.flavor, self.domain))
            self._hash = h
        return h

    def __str__(self):
        d = self.domain
        if self.lo == self.hi:
            return d.format_scalar(self.lo)
        f = self.flavor
        return f"{f.left}{d.format_scalar(self.lo)},{d.format_scalar(self.hi)}{f.right}"

    def __repr__(self):
        return f"<{self} : {self.domain.spec}/{self.flavor.code}>"


def _check_entries(entries, domain, flavor, entry, container):
    """Refuse an entry over another domain or of another flavor than the
    matrix or polynomial it is put in; entry and container name them
    ("an entry", "a matrix")."""
    for e in entries:
        if e.domain != domain:
            raise DomainMismatch(
                f"cannot put {entry} over {e.domain.spec} in {container} "
                f"over {domain.spec}")
        if e.flavor is not flavor:
            raise FlavorMismatch(
                f"cannot put {entry} of flavor {e.flavor.code} in "
                f"{container} of flavor {flavor.code}")


def interval(domain, lo, hi, flavor=Flavor.CLOSED):
    """Build an interval, coercing each endpoint into the domain
    (strings are parsed, Mod values reduced; floats are rejected)."""
    return NaturalInterval(domain, domain.coerce(lo), domain.coerce(hi),
                           flavor)


def degenerate(domain, value, flavor=Flavor.CLOSED):
    v = domain.coerce(value)
    return NaturalInterval(domain, v, v, flavor)


def zero_interval(domain, flavor=Flavor.CLOSED):
    return degenerate(domain, domain.zero, flavor)


def one_interval(domain, flavor=Flavor.CLOSED):
    return degenerate(domain, domain.one, flavor)


def iv_scalar_mul(c, x):
    return x.scale(c)


def iv_min(x, y):
    x._pair(y)
    d = x.domain
    if not d.ordered:
        raise UnorderedDomain(f"min is undefined over {d.spec}")
    lo = x.lo if d.lt(x.lo, y.lo) else y.lo
    hi = x.hi if d.lt(x.hi, y.hi) else y.hi
    return NaturalInterval(d, lo, hi, x.flavor)


def iv_max(x, y):
    x._pair(y)
    d = x.domain
    if not d.ordered:
        raise UnorderedDomain(f"max is undefined over {d.spec}")
    lo = y.lo if d.lt(x.lo, y.lo) else x.lo
    hi = y.hi if d.lt(x.hi, y.hi) else x.hi
    return NaturalInterval(d, lo, hi, x.flavor)


_BRACKET_FLAVORS = {(f.left, f.right): f for f in Flavor}


def parse_interval(text, domain, default_flavor=Flavor.CLOSED):
    """Parse '[a,b]', '(a,b)', '(a,b]', '[a,b)' or a bare scalar.

    A bare scalar becomes a degenerate interval with default_flavor.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty interval text", text=text, pos=0)
    if text[0] in "[(":
        if text[-1] not in ")]":
            raise ParseError("unterminated interval", text=text,
                             pos=len(text) - 1, expected=["]", ")"])
        flavor = _BRACKET_FLAVORS.get((text[0], text[-1]))
        if flavor is None:
            raise ParseError(f"bad bracket pair in {text!r}", text=text, pos=0)
        parts = split_top_level(text[1:-1])
        if len(parts) != 2:
            raise ParseError(
                f"interval needs exactly two endpoints, got {len(parts)}",
                text=text, pos=1, expected=["a,b"])
        lo = domain.parse_scalar(parts[0].strip())
        hi = domain.parse_scalar(parts[1].strip())
        return NaturalInterval(domain, lo, hi, flavor)
    value = domain.parse_scalar(text)
    return degenerate(domain, value, default_flavor)
