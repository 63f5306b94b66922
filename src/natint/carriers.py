"""Carrier construction and the structure-spec grammar.

Spec forms:
    N(<domain>[,<flavor>])      all intervals over a finite domain
    N(<domain>\\0[,<flavor>])    intervals over the nonzero scalars only
                                (multiplicative carrier; `)\\0` also works)
    Mat(<r>,<c>,N(...))         matrices; mat_mul when square, entrywise
                                product otherwise
    Poly(N(...),cyc=<k>)        truncated polynomials with x^k = 1
    Sub{e1,e2,...}of <spec>     an explicit subset with inherited
                                operations (elements coerced to the
                                ambient flavor); ',' parts the elements,
                                so a Mat ambient of more than one column
                                has no element that can be listed
    Fuzzy(<min|max|prod>[,step=1/<s>])  the fuzzy unit grid

One reader, _ambient_context, parses and checks N, Mat and Poly specs,
of a carrier and of a Sub{...} ambient alike: a matrix shape and a cyclic
modulus must be at least 1, and \\0 is allowed only on N.  A carrier is
listed by one enumerator, _enumerate, which first refuses an infinite
domain and prices the carrier from the domain's size, entry by entry, so
a huge size is refused without raising an exponent the spec gave.

Carrier order is lexicographic in the underlying scalar enumeration, so
every table, report and witness is deterministic.
"""

import itertools
from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    FuzzyRangeOverflow,
    InfiniteDomain,
    ParseError,
    TooLarge,
)
from .intervals import (
    Flavor,
    NaturalInterval,
    _closing_bracket,
    parse_interval,
    split_top_level,
    zero_interval,
)
from .matrices import (
    IntervalMatrix,
    mat_add,
    mat_hadamard,
    mat_mul,
    mat_recompose,
    parse_matrix,
)
from .polys import (
    IntervalPoly,
    parse_poly,
    poly_add,
    poly_mul,
    poly_recompose,
)
from .scalars import FuzzyUnitDomain, parse_domain
from .structures import (
    FiniteStructure,
    check_subset_field,
    is_s_ring,
)
from . import fuzzy as _fuzzy

DEFAULT_SIZE_BOUND = 10 ** 6

_FLAVOR_TOKENS = {
    "c": Flavor.CLOSED, "closed": Flavor.CLOSED,
    "o": Flavor.OPEN, "open": Flavor.OPEN,
    "oc": Flavor.OPEN_CLOSED, "open-closed": Flavor.OPEN_CLOSED,
    "openclosed": Flavor.OPEN_CLOSED,
    "co": Flavor.CLOSED_OPEN, "closed-open": Flavor.CLOSED_OPEN,
    "closedopen": Flavor.CLOSED_OPEN,
}


def flavor_from_token(tok):
    f = _FLAVOR_TOKENS.get(tok.strip().lower())
    if f is None:
        raise ParseError(f"unknown flavor {tok!r}", text=tok,
                         expected=sorted(set(_FLAVOR_TOKENS)))
    return f


def interval_elements(domain, flavor=Flavor.CLOSED):
    if domain.size is None:
        raise InfiniteDomain(f"{domain.spec} is infinite")
    scalars = list(domain.elements())
    return [NaturalInterval(domain, lo, hi, flavor)
            for lo in scalars for hi in scalars]


class Lowering(NamedTuple):
    """A carrier's ops on its parts, lowered to the code tables of its
    domain (scalars.Domain.code_tables).  A part is `width` scalars,
    entries(part) in order.  ops[op](tables, a, b) takes the parts of a
    and of b, rows of `width` scalar codes, and gives the codes of op on
    each pair of a row of a and a row of b, shape (len(a), len(b),
    width); tables holds the domain's "add" and "mul" tables and the
    code of its "zero".  A carrier's sides build its part tables with it
    (FiniteStructure._sides), and structures._Coords.of_codes reads the
    parts of a spec-built carrier off `width` alone."""
    width: int
    entries: Callable
    ops: dict


def _entrywise(op):
    """op on each pair of parts, entry by entry."""
    def compose(tables, a, b):
        return tables[op][a[:, None], b[None]]
    return compose


def _mat_product(r):
    """mat_mul on r x r parts, row by column, folded as mat_mul folds:
    the product of entries 0, then each next product added."""
    def compose(tables, a, b):
        plus, times = tables["add"], tables["mul"]
        a = a.reshape(len(a), 1, r, r)
        b = b.reshape(1, len(b), r, r)
        acc = times[a[..., :, 0, None], b[..., None, 0, :]]
        for k in range(1, r):
            acc = plus[acc, times[a[..., :, k, None], b[..., None, k, :]]]
        return acc.reshape(acc.shape[0], acc.shape[1], r * r)
    return compose


def _poly_product(cyclic):
    """poly_mul on parts of `cyclic` coefficients: a_i * b_j added into
    slot (i + j) mod cyclic, from zero, in the order of i and then j as
    poly_mul adds them; for one i, each j has its own slot."""
    def compose(tables, a, b):
        plus, times = tables["add"], tables["mul"]
        acc = np.full((len(a), len(b), cyclic), tables["zero"])
        for i in range(cyclic):
            terms = times[a[:, None, i, None], b[None]]
            acc = plus[acc, np.roll(terms, i, axis=-1)]
        return acc
    return compose


def _context(domain, flavor, shape=None, cyclic=None, remove_zero=False):
    """Operations, element parser, diagonal builder, lowering, element
    builder and default name of N(domain), of Mat(rows,cols,N(domain))
    when shape is (rows, cols), or of Poly(N(domain),cyc=cyclic) when
    cyclic is given.  A square matrix carrier multiplies by mat_mul, any
    other entrywise; N(domain\\0) (remove_zero) has no addition.
    A matrix or polynomial context's make(ess) lists the element of each
    entry tuple of ess, by map, which runs no Python frame per element;
    name() is formatted when asked for.

    Fuzzy addition overflows to a sentinel outside every carrier, so
    tables record non-closure instead of raising mid-build."""
    rz = "\\0" if remove_zero else ""

    def n():
        return f"N({domain.spec}{rz},{flavor.code})"
    if shape is not None:
        rows, cols = shape
        square = rows == cols
        ctx = {"kind": "matrix", "name": lambda: f"Mat({rows},{cols},{n()})",
               "add": mat_add, "mul": mat_mul if square else mat_hadamard,
               "parse": lambda s: parse_matrix(s, domain, flavor),
               "diag": lambda p: mat_recompose(p, p, domain, flavor),
               "make": lambda ess: list(map(
                   IntervalMatrix, repeat(rows), repeat(cols), ess,
                   repeat(domain), repeat(flavor))),
               "lower": Lowering(rows * cols, itertools.chain.from_iterable, {
                   "add": _entrywise("add"),
                   "mul": _mat_product(rows) if square
                   else _entrywise("mul")})}
    elif cyclic is not None:
        if cyclic < 1:
            raise ParseError(f"cyclic modulus must be >= 1, got {cyclic}")
        ctx = {"kind": "poly", "name": lambda: f"Poly({n()},cyc={cyclic})",
               "add": poly_add, "mul": poly_mul,
               "parse": lambda s: parse_poly(s, domain, flavor, cyclic),
               "diag": lambda p: poly_recompose(p, p, domain, flavor, cyclic),
               "make": lambda ess: list(map(
                   IntervalPoly, repeat(domain), repeat(flavor), ess,
                   repeat(cyclic))),
               "lower": Lowering(cyclic, lambda p: p + (domain.zero,) * (
                   cyclic - len(p)), {
                   "add": _entrywise("add"), "mul": _poly_product(cyclic)})}
    else:
        if isinstance(domain, FuzzyUnitDomain):
            def add(x, y):
                try:
                    return x + y
                except FuzzyRangeOverflow:
                    return None
        else:
            def add(x, y):
                return x + y
        ctx = {"kind": "interval", "name": n,
               "add": None if remove_zero else add, "mul": lambda x, y: x * y,
               "parse": lambda s: parse_interval(s, domain, flavor),
               "diag": lambda p: NaturalInterval(domain, p, p, flavor),
               "lower": Lowering(1, lambda p: (p,), {
                   "add": _entrywise("add"), "mul": _entrywise("mul")})}
    ctx["domain"], ctx["flavor"] = domain, flavor
    ctx["remove_zero"] = remove_zero
    return ctx


def _structure(elements, ctx, name, scalar_codes=None):
    """A carrier whose tables are read off its lo and hi part tables,
    which are built from the code tables of a finite domain (ctx's
    lowering), or one op per pair of parts when the domain has none.
    scalar_codes, from _enumerate, are the codes of the scalars that
    every entry's endpoints range over: the elements are then every
    choice of entries, in the order _enumerate makes them, and the
    carrier reads where each sits among its parts off those codes
    (structures._Coords)."""
    return FiniteStructure(
        elements, mul=ctx["mul"], add=ctx["add"], name=name,
        kind=ctx["kind"], domain=ctx["domain"], flavor=ctx["flavor"],
        parse_element=ctx["parse"], diag=ctx["diag"], lower=ctx["lower"],
        scalar_codes=scalar_codes)


def _price(kept, width, size_bound, what):
    """Refuse `what` of (kept**2)**width elements when that is above
    size_bound.  The count is a running product of kept**2 per entry
    that stops at the first factor past the bound, so no user-given
    exponent is raised and no count too long to print is printed."""
    count = 1
    for _ in range(width):
        count *= kept * kept
        if count > size_bound:
            raise TooLarge(f"{what} of more than {size_bound} elements "
                           f"exceeds the bound {size_bound}")


def _enumerate(ctx, size_bound, name):
    """The carrier of a context (_context): every choice of its lowering's
    width entries, each an interval over the kept scalars (the nonzero
    ones for N(D\\0), else all), in lexicographic order of the entries,
    each lo-major.  An infinite domain is refused, and so is a carrier
    above size_bound, priced from domain.size before any scalar is
    listed (_price)."""
    domain, flavor, width = ctx["domain"], ctx["flavor"], ctx["lower"].width
    if domain.size is None:
        raise InfiniteDomain(f"cannot enumerate N({domain.spec}); use "
                             f"Sub{{...}} for finite subsets")
    # N(D\0) keeps every scalar but zero
    _price(domain.size - ctx["remove_zero"], width, size_bound, "carrier")
    kept = scalars = list(domain.elements())
    codes = range(len(scalars))
    if ctx["remove_zero"]:
        codes = [c for c in codes if scalars[c] != domain.zero]
        kept = [scalars[c] for c in codes]
    elements = [NaturalInterval(domain, lo, hi, flavor)
                for lo in kept for hi in kept]
    if ctx["kind"] != "interval":
        elements = ctx["make"](itertools.product(elements, repeat=width))
    return _structure(elements, ctx, ctx["name"]() if name is None else name,
                      codes)


def interval_structure(domain, flavor=Flavor.CLOSED, remove_zero=False,
                       size_bound=DEFAULT_SIZE_BOUND, name=None):
    return _enumerate(_context(domain, flavor, remove_zero=remove_zero),
                      size_bound, name)


def matrix_structure(rows, cols, domain, flavor=Flavor.CLOSED,
                     size_bound=DEFAULT_SIZE_BOUND, name=None):
    return _enumerate(_context(domain, flavor, (rows, cols)), size_bound,
                      name)


def poly_structure(domain, flavor=Flavor.CLOSED, cyclic=1,
                   size_bound=DEFAULT_SIZE_BOUND, name=None):
    return _enumerate(_context(domain, flavor, cyclic=cyclic), size_bound,
                      name)


def _ambient_context(spec, size_bound):
    """The one reader of N(...), Mat(...) and Poly(...) specs: for a
    carrier, which build_carrier enumerates (_enumerate), and for a
    Sub{...} ambient, which is never enumerated, so it may be N(Z) or
    N(Q).  It checks the spec (a matrix shape and a cyclic modulus of at
    least 1, and \\0 only on N) and returns the kind's context (_context)
    with `coerce`, which brings a parsed element to the ambient's flavor
    and refuses one that lies outside it."""
    t = spec.strip()
    kind = t[:t.find("(") + 1]
    n_text, shape, cyclic = t, None, None
    if kind in ("Mat(", "Poly("):
        if not t.endswith(")"):
            raise ParseError(f"expected {kind}...), got {t!r}", text=t)
        parts = split_top_level(t[len(kind):-1])
    if kind == "Mat(":
        if len(parts) != 3:
            raise ParseError("Mat takes (rows, cols, N(...))", text=t,
                             expected=["Mat(<r>,<c>,N(...))"])
        try:
            shape = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"bad matrix shape in {t!r}", text=t) from None
        if min(shape) < 1:
            raise ParseError("matrix shape must be positive", text=t)
        n_text = parts[2]
    elif kind == "Poly(":
        if len(parts) != 2 or not parts[1].strip().startswith("cyc="):
            raise ParseError("Poly takes (N(...), cyc=<k>)", text=t,
                             expected=["Poly(N(...),cyc=<k>)"])
        n_text = parts[0]
    elif kind != "N(":
        raise ParseError(
            f"Sub{{...}} needs an N/Mat/Poly ambient, got {spec!r}",
            text=spec)
    nt = n_text.strip()
    rz, nt = nt.endswith("\\0"), nt.removesuffix("\\0").strip()
    if not (nt.startswith("N(") and nt.endswith(")")):
        raise ParseError(f"expected N(...), got {n_text!r}", text=n_text,
                         expected=["N(<domain>[,<flavor>])"])
    args = split_top_level(nt[2:-1])
    if not 1 <= len(args) <= 2:
        raise ParseError(f"N(...) takes a domain and an optional flavor, "
                         f"got {len(args)} arguments", text=n_text)
    dom_tok = args[0].strip()
    rz = rz or dom_tok.endswith("\\0")
    dom_tok = dom_tok.removesuffix("\\0").strip()
    domain = parse_domain(dom_tok)
    flavor = flavor_from_token(args[1]) if len(args) == 2 else Flavor.CLOSED
    if rz and kind != "N(":
        raise ParseError(f"\\0 is not supported inside {kind}...)", text=t)
    if kind == "Poly(":
        try:
            cyclic = int(parts[1].strip()[len("cyc="):])
        except ValueError:
            raise ParseError(f"bad cyclic modulus in {t!r}", text=t) from None
    ctx = _context(domain, flavor, shape, cyclic, rz)

    def coerce(e):
        if rz and domain.zero in (e.lo, e.hi):
            raise ParseError(
                f"{e} has a zero endpoint, so it lies outside {t}", text=t)
        if shape is not None and e.shape != shape:
            raise ParseError(f"{e} is a {e.rows}x{e.cols} matrix, so it "
                             f"lies outside {t}" if shape[1] == 1 else
                             f"Sub{{...}} cannot list an element of {t}: "
                             f"',' parts both its elements and a row's "
                             f"entries", text=t)
        if shape is None and cyclic is None:
            return e.with_flavor(flavor)
        entries = e.entries if shape else e.coeffs
        return ctx["make"]([[x.with_flavor(flavor) for x in entries]])[0]
    ctx["coerce"] = coerce
    return ctx


def _parse_fuzzyspec(text):
    t = text.strip()
    if not (t.startswith("Fuzzy(") and t.endswith(")")):
        raise ParseError(f"expected Fuzzy(...), got {text!r}", text=text)
    parts = [p.strip() for p in split_top_level(t[6:-1])]
    if not 1 <= len(parts) <= 2:
        raise ParseError("Fuzzy takes (op[, step=1/<s>])", text=text)
    op = parts[0]
    if op not in _fuzzy.GRID_OPS:
        raise ParseError(f"unknown fuzzy op {op!r}", text=text,
                         expected=list(_fuzzy.GRID_OPS))
    step = 10
    if len(parts) == 2:
        tok = parts[1]
        if not tok.startswith("step=1/"):
            raise ParseError(f"bad fuzzy step {tok!r}", text=text,
                             expected=["step=1/<s>"])
        try:
            step = int(tok[len("step=1/"):])
        except ValueError:
            raise ParseError(f"bad fuzzy step {tok!r}", text=text) from None
        if step < 1:
            raise ParseError("fuzzy step denominator must be >= 1", text=text)
    return op, step


def build_carrier(spec, size_bound=DEFAULT_SIZE_BOUND):
    """Build the FiniteStructure named by a spec string."""
    t = spec.strip()
    if t.startswith("Sub{"):
        close = _closing_bracket(t, 3, "{", "}")
        if close is None:
            raise ParseError("unterminated Sub{...}", text=t, pos=3,
                             expected=["}"])
        body = t[4:close]
        rest = t[close + 1:].strip()
        if not rest.startswith("of"):
            raise ParseError(f"expected 'of <spec>' after Sub{{...}}",
                             text=spec, pos=close + 1, expected=["of"])
        ctx = _ambient_context(rest[2:].strip(), size_bound)
        elems = []
        for part in split_top_level(body):
            part = part.strip()
            if part:
                elems.append(ctx["coerce"](ctx["parse"](part)))
        if not elems:
            raise ParseError("Sub{...} needs at least one element", text=spec)
        try:  # the structure refuses duplicates as it indexes them
            s = _structure(elems, ctx, t)
        except ValueError:
            raise ParseError("Sub{...} lists an element more than once",
                             text=spec)
        if s.n > size_bound:
            raise TooLarge(f"subset of {s.n} elements exceeds the "
                           f"bound {size_bound}")
        return s
    if t.startswith(("N(", "Mat(", "Poly(")):
        return _enumerate(_ambient_context(t, size_bound), size_bound, t)
    if t.startswith("Fuzzy("):
        op, step = _parse_fuzzyspec(t)
        _price(step + 1, 1, size_bound, "fuzzy grid")
        return _fuzzy.grid_structure(op, step)
    raise ParseError(
        f"unknown structure spec {spec!r}", text=spec,
        expected=["N(...)", "Mat(...)", "Poly(...)", "Sub{...}of ...",
                  "Fuzzy(...)"])


def corner_s_ring_witness(rows, cols, domain, flavor=Flavor.CLOSED):
    """Lift a subfield of N(domain) into corner matrices.

    Returns (found, info).  The witness set places each base-field
    element in the (0,0) entry of an otherwise-zero matrix; it is closed
    because corner matrices multiply entrywise into the same corner, and
    it is verified exhaustively as a field under the ambient matrix
    operations — no enumeration of the (usually astronomically large)
    ambient carrier is needed.
    """
    base = interval_structure(domain, flavor)
    found, wit = is_s_ring(base)
    if not found:
        return False, None
    members = [base.elements[i] for i in wit["member_indices"]]
    z = zero_interval(domain, flavor)

    def lift(w):
        entries = [w if k == 0 else z for k in range(rows * cols)]
        return IntervalMatrix(rows, cols, entries, domain, flavor)

    lifted = [lift(w) for w in members]
    ctx = _context(domain, flavor, (rows, cols))
    ok, info = check_subset_field(lifted, ctx["add"], ctx["mul"])
    if not ok:
        return False, {"reason": info.get("reason"),
                       "base_members": wit["members"]}
    ambient_order = (domain.size ** 2) ** (rows * cols)
    return True, {
        "members": [str(m) for m in lifted],
        "identity": info["identity"],
        "order": len(lifted),
        "base_members": wit["members"],
        "ambient_order": ambient_order,
    }
