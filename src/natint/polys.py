"""Dense polynomials with natural-interval coefficients.

Coefficients are stored low degree first with trailing zeros trimmed, so
equality is structural and the values can key Cayley tables.  A cyclic
modulus k identifies x^k with 1 (exponents fold mod k) — the quotient is
by the relation x^k = 1, not by division with remainder.
"""

from .errors import (
    DomainMismatch,
    FlavorMismatch,
    ModulusMismatch,
    ParseError,
)
from .intervals import (
    Flavor,
    NaturalInterval,
    _check_entries,
    parse_interval,
    zero_interval,
)


class IntervalPoly:
    __slots__ = ("domain", "flavor", "coeffs", "cyclic", "_hash")

    def __init__(self, domain, flavor, coeffs, cyclic=None):
        if cyclic is not None and cyclic < 1:
            raise ValueError("cyclic modulus must be >= 1")
        folded = list(coeffs)
        if cyclic is not None and len(folded) > cyclic:
            base = folded[:cyclic]
            for i in range(cyclic, len(folded)):
                base[i % cyclic] = base[i % cyclic] + folded[i]
            folded = base
        zero = domain.zero
        while folded and folded[-1].lo == zero and folded[-1].hi == zero:
            folded.pop()
        _check_entries(folded, domain, flavor, "a coefficient",
                       "a polynomial")
        self.domain = domain
        self.flavor = flavor
        self.coeffs = tuple(folded)
        self.cyclic = cyclic
        self._hash = None

    @classmethod
    def zero(cls, domain, flavor=Flavor.CLOSED, cyclic=None):
        return cls(domain, flavor, (), cyclic)

    @classmethod
    def one(cls, domain, flavor=Flavor.CLOSED, cyclic=None):
        one = NaturalInterval(domain, domain.one, domain.one, flavor)
        return cls(domain, flavor, (one,), cyclic)

    @classmethod
    def x(cls, domain, flavor=Flavor.CLOSED, cyclic=None):
        one = NaturalInterval(domain, domain.one, domain.one, flavor)
        return cls(domain, flavor, (zero_interval(domain, flavor), one),
                   cyclic)

    @property
    def degree(self):
        """Degree of the polynomial; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return zero_interval(self.domain, self.flavor)

    def _pair(self, other):
        if not isinstance(other, IntervalPoly):
            raise TypeError(f"expected a polynomial, got {other!r}")
        if self.domain != other.domain:
            raise DomainMismatch(
                f"cannot combine a polynomial over {self.domain.spec} with "
                f"one over {other.domain.spec}")
        if self.flavor is not other.flavor:
            raise FlavorMismatch(
                f"cannot combine a polynomial of flavor {self.flavor.code} "
                f"with one of flavor {other.flavor.code}")
        if self.cyclic != other.cyclic:
            raise ModulusMismatch(f"{self.cyclic} vs {other.cyclic}")

    def __add__(self, other):
        self._pair(other)
        width = max(len(self.coeffs), len(other.coeffs))
        out = [self.coeff(i) + other.coeff(i) for i in range(width)]
        return IntervalPoly(self.domain, self.flavor, out, self.cyclic)

    def __sub__(self, other):
        self._pair(other)
        width = max(len(self.coeffs), len(other.coeffs))
        out = [self.coeff(i) - other.coeff(i) for i in range(width)]
        return IntervalPoly(self.domain, self.flavor, out, self.cyclic)

    def __neg__(self):
        return IntervalPoly(self.domain, self.flavor,
                            [-c for c in self.coeffs], self.cyclic)

    def __mul__(self, other):
        self._pair(other)
        if not self.coeffs or not other.coeffs:
            return IntervalPoly.zero(self.domain, self.flavor, self.cyclic)
        width = len(self.coeffs) + len(other.coeffs) - 1
        if self.cyclic is not None:
            width = min(width, self.cyclic)
        out = [zero_interval(self.domain, self.flavor)] * width
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                k = i + j
                if self.cyclic is not None:
                    k %= self.cyclic
                out[k] = out[k] + a * b
        return IntervalPoly(self.domain, self.flavor, out, self.cyclic)

    def decompose(self):
        """(lo scalar coefficients, hi scalar coefficients), trimmed."""
        zero = self.domain.zero
        return (trimmed([c.lo for c in self.coeffs], zero),
                trimmed([c.hi for c in self.coeffs], zero))

    def __eq__(self, other):
        return (isinstance(other, IntervalPoly)
                and self.coeffs == other.coeffs
                and self.cyclic == other.cyclic
                and self.flavor is other.flavor
                and self.domain == other.domain)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.coeffs, self.cyclic, self.flavor, self.domain))
            self._hash = h
        return h

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c.lo == self.domain.zero and c.hi == self.domain.zero:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}x")
            else:
                terms.append(f"{c}x^{k}")
        return " + ".join(terms)

    def __repr__(self):
        tail = f", x^{self.cyclic}=1" if self.cyclic else ""
        return f"<{self} : {self.domain.spec}{tail}>"


def poly_add(p, q):
    return p + q


def poly_mul(p, q):
    return p * q


def poly_decompose(p):
    return p.decompose()


def trimmed(scalars, zero):
    """The scalar coefficients without their trailing zeros, as a tuple:
    one side of IntervalPoly.decompose."""
    k = len(scalars)
    while k and scalars[k - 1] == zero:
        k -= 1
    return tuple(scalars[:k])


def poly_recompose(lo, hi, domain, flavor=Flavor.CLOSED, cyclic=None):
    width = max(len(lo), len(hi))
    zero = domain.zero

    def at(seq, i):
        return seq[i] if i < len(seq) else zero

    coeffs = [NaturalInterval(domain, at(lo, i), at(hi, i), flavor)
              for i in range(width)]
    return IntervalPoly(domain, flavor, coeffs, cyclic)


def _split_terms(text):
    """Split on top-level + and -, keeping each term's sign."""
    terms = []
    depth = 0
    sign = 1
    start = 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > start:
            terms.append((sign, text[start:i]))
            sign = 1 if ch == "+" else -1
            start = i + 1
        elif ch in "+-" and depth == 0 and i == start:
            if ch == "-":
                sign = -sign
            start = i + 1
    terms.append((sign, text[start:]))
    return terms


def parse_poly(text, domain, default_flavor=Flavor.CLOSED, cyclic=None):
    """Parse `[a,b]x^2 + [c,d]x + e` style polynomial text.

    A term's coefficient may be any interval literal or bare scalar; a
    bare `x^k` means coefficient one.  (Over mixed neutrosophic domains,
    write scalar coefficients in bracket form — a bare `a+bI` would split
    at the top-level sign.)
    """
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial text", text=text)
    if text == "0":
        return IntervalPoly.zero(domain, default_flavor, cyclic)
    acc = {}
    flavor = None
    for sign, term in _split_terms(text):
        term = term.strip()
        if not term:
            raise ParseError("empty polynomial term", text=text)
        coeff_text, power = term, 0
        depth = 0
        for i, ch in enumerate(term):
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
            elif ch == "x" and depth == 0:
                coeff_text = term[:i].strip().rstrip("*").strip()
                rest = term[i + 1:].strip()
                if not rest:
                    power = 1
                elif rest.startswith("^"):
                    try:
                        power = int(rest[1:].strip())
                    except ValueError:
                        raise ParseError(
                            f"bad exponent in term {term!r}",
                            text=text) from None
                else:
                    raise ParseError(f"bad polynomial term {term!r}",
                                     text=text, expected=["x^<k>"])
                break
        if coeff_text:
            c = parse_interval(coeff_text, domain, default_flavor)
        else:
            c = NaturalInterval(domain, domain.one, domain.one,
                                default_flavor)
        if sign < 0:
            c = -c
        if flavor is None:
            flavor = c.flavor
        acc[power] = acc[power] + c if power in acc else c
    width = max(acc) + 1
    flavor = flavor or default_flavor
    coeffs = [acc.get(i, zero_interval(domain, flavor))
              for i in range(width)]
    return IntervalPoly(domain, flavor, coeffs, cyclic)
