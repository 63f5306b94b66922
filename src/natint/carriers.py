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
                                ambient flavor)
    Fuzzy(<min|max|prod>[,step=1/<s>])  the fuzzy unit grid

Carrier order is lexicographic in the underlying scalar enumeration, so
every table, report and witness is deterministic.
"""

import itertools
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


def _interval_context(domain, flavor):
    """Operations, element parser and diagonal builder of N(domain).

    Fuzzy addition overflows to a sentinel outside every carrier, so
    tables record non-closure instead of raising mid-build."""
    if isinstance(domain, FuzzyUnitDomain):
        def add(x, y):
            try:
                return x + y
            except FuzzyRangeOverflow:
                return None
    else:
        def add(x, y):
            return x + y

    return {
        "kind": "interval", "domain": domain, "flavor": flavor,
        "add": add, "mul": lambda x, y: x * y,
        "parse": lambda s: parse_interval(s, domain, flavor),
        "diag": lambda p: NaturalInterval(domain, p, p, flavor),
        "lower": Lowering(1, lambda p: (p,), {
            "add": _entrywise("add"), "mul": _entrywise("mul")}),
    }


def _matrix_context(rows, cols, domain, flavor):
    """As _interval_context for Mat(rows,cols,N(domain)): mat_mul when
    square, the entrywise product otherwise."""
    return {
        "kind": "matrix", "domain": domain, "flavor": flavor,
        "add": mat_add, "mul": mat_mul if rows == cols else mat_hadamard,
        "parse": lambda s: parse_matrix(s, domain, flavor),
        "diag": lambda p: mat_recompose(p, p, domain, flavor),
        "lower": Lowering(rows * cols, itertools.chain.from_iterable, {
            "add": _entrywise("add"),
            "mul": _mat_product(rows) if rows == cols
            else _entrywise("mul")}),
    }


def _poly_context(domain, flavor, cyclic):
    """As _interval_context for Poly(N(domain),cyc=cyclic)."""
    return {
        "kind": "poly", "domain": domain, "flavor": flavor,
        "add": poly_add, "mul": poly_mul,
        "parse": lambda s: parse_poly(s, domain, flavor, cyclic),
        "diag": lambda p: poly_recompose(p, p, domain, flavor, cyclic),
        "lower": Lowering(cyclic, lambda p: p + (domain.zero,) * (
            cyclic - len(p)), {
            "add": _entrywise("add"), "mul": _poly_product(cyclic)}),
    }


def _structure(elements, ctx, name, scalar_codes=None):
    """A carrier whose tables are read off its lo and hi part tables,
    which are built from the code tables of a finite domain (ctx's
    lowering), or one op per pair of parts when the domain has none.
    scalar_codes, from interval_structure, matrix_structure and
    poly_structure, are the codes of the scalars that every entry's
    endpoints range over: the elements are then every choice of entries,
    in the order those functions make them, and the carrier reads where
    each sits among its parts off those codes (structures._Coords)."""
    return FiniteStructure(
        elements, mul=ctx["mul"], add=ctx["add"], name=name,
        kind=ctx["kind"], domain=ctx["domain"], flavor=ctx["flavor"],
        parse_element=ctx["parse"], diag=ctx["diag"], lower=ctx["lower"],
        scalar_codes=scalar_codes)


def interval_structure(domain, flavor=Flavor.CLOSED, remove_zero=False,
                       size_bound=DEFAULT_SIZE_BOUND, name=None):
    if domain.size is None:
        raise InfiniteDomain(
            f"cannot enumerate N({domain.spec}); use Sub{{...}} for "
            f"finite subsets")
    count = (domain.size - 1) ** 2 if remove_zero else domain.size ** 2
    if count > size_bound:
        raise TooLarge(f"carrier of {count} elements exceeds the bound "
                       f"{size_bound}")
    scalars = list(domain.elements())
    codes = range(len(scalars))
    ctx = _interval_context(domain, flavor)
    if remove_zero:
        codes = [c for c in codes if scalars[c] != domain.zero]
        ctx["add"] = None
    elements = [NaturalInterval(domain, scalars[lo], scalars[hi], flavor)
                for lo in codes for hi in codes]
    if name is None:
        rz = "\\0" if remove_zero else ""
        name = f"N({domain.spec}{rz},{flavor.code})"
    return _structure(elements, ctx, name, codes)


def matrix_structure(rows, cols, domain, flavor=Flavor.CLOSED,
                     size_bound=DEFAULT_SIZE_BOUND, name=None):
    if domain.size is None:
        raise InfiniteDomain(f"{domain.spec} is infinite")
    count = (domain.size ** 2) ** (rows * cols)
    if count > size_bound:
        raise TooLarge(f"carrier of {count} elements exceeds the bound "
                       f"{size_bound}")
    ivs = interval_elements(domain, flavor)
    elements = [IntervalMatrix(rows, cols, combo, domain, flavor)
                for combo in itertools.product(ivs, repeat=rows * cols)]
    if name is None:
        name = f"Mat({rows},{cols},N({domain.spec},{flavor.code}))"
    return _structure(elements, _matrix_context(rows, cols, domain, flavor),
                      name, range(domain.size))


def poly_structure(domain, flavor=Flavor.CLOSED, cyclic=1,
                   size_bound=DEFAULT_SIZE_BOUND, name=None):
    if domain.size is None:
        raise InfiniteDomain(f"{domain.spec} is infinite")
    if cyclic < 1:
        raise ParseError(f"cyclic modulus must be >= 1, got {cyclic}")
    count = (domain.size ** 2) ** cyclic
    if count > size_bound:
        raise TooLarge(f"carrier of {count} elements exceeds the bound "
                       f"{size_bound}")
    ivs = interval_elements(domain, flavor)
    elements = [IntervalPoly(domain, flavor, combo, cyclic)
                for combo in itertools.product(ivs, repeat=cyclic)]
    if name is None:
        name = f"Poly(N({domain.spec},{flavor.code}),cyc={cyclic})"
    return _structure(elements, _poly_context(domain, flavor, cyclic), name,
                      range(domain.size))


def _parse_nspec(text):
    t = text.strip()
    remove_zero = False
    if t.endswith("\\0"):
        remove_zero = True
        t = t[:-2].strip()
    if not (t.startswith("N(") and t.endswith(")")):
        raise ParseError(f"expected N(...), got {text!r}", text=text,
                         expected=["N(<domain>[,<flavor>])"])
    parts = split_top_level(t[2:-1])
    if not 1 <= len(parts) <= 2:
        raise ParseError(f"N(...) takes a domain and an optional flavor, "
                         f"got {len(parts)} arguments", text=text)
    dom_tok = parts[0].strip()
    if dom_tok.endswith("\\0"):
        remove_zero = True
        dom_tok = dom_tok[:-2].strip()
    domain = parse_domain(dom_tok)
    flavor = flavor_from_token(parts[1]) if len(parts) == 2 else Flavor.CLOSED
    return domain, flavor, remove_zero


def _ambient_context(spec, size_bound):
    """Operations and an element parser for a spec, without enumerating
    the carrier — this is what lets Sub{...} sit inside N(Z) or N(Q)."""
    t = spec.strip()
    if t.startswith("N("):
        domain, flavor, rz = _parse_nspec(t)
        ctx = _interval_context(domain, flavor)
        if rz:
            ctx["add"] = None

        def coerce(e):
            if rz and domain.zero in (e.lo, e.hi):
                raise ParseError(
                    f"{e} has a zero endpoint, so it lies outside {t}",
                    text=t)
            return e.with_flavor(flavor)
        ctx["coerce"] = coerce
        return ctx
    if t.startswith("Mat("):
        rows, cols, domain, flavor = _parse_matspec(t)

        def coerce(m):
            if m.shape != (rows, cols):
                raise ParseError(
                    f"{m} is a {m.rows}x{m.cols} matrix, so it lies "
                    f"outside {t}", text=t)
            return IntervalMatrix(
                rows, cols, [e.with_flavor(flavor) for e in m.entries],
                domain, flavor)
        ctx = _matrix_context(rows, cols, domain, flavor)
        ctx["coerce"] = coerce
        return ctx
    if t.startswith("Poly("):
        domain, flavor, cyc = _parse_polyspec(t)
        ctx = _poly_context(domain, flavor, cyc)
        ctx["coerce"] = lambda p: IntervalPoly(
            domain, flavor, [c.with_flavor(flavor) for c in p.coeffs], cyc)
        return ctx
    raise ParseError(f"Sub{{...}} needs an N/Mat/Poly ambient, got {spec!r}",
                     text=spec)


def _parse_matspec(text):
    t = text.strip()
    if not (t.startswith("Mat(") and t.endswith(")")):
        raise ParseError(f"expected Mat(...), got {text!r}", text=text)
    parts = split_top_level(t[4:-1])
    if len(parts) != 3:
        raise ParseError("Mat takes (rows, cols, N(...))", text=text,
                         expected=["Mat(<r>,<c>,N(...))"])
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"bad matrix shape in {text!r}", text=text) from None
    if rows < 1 or cols < 1:
        raise ParseError("matrix shape must be positive", text=text)
    domain, flavor, rz = _parse_nspec(parts[2])
    if rz:
        raise ParseError("\\0 is not supported inside Mat(...)", text=text)
    return rows, cols, domain, flavor


def _parse_polyspec(text):
    t = text.strip()
    if not (t.startswith("Poly(") and t.endswith(")")):
        raise ParseError(f"expected Poly(...), got {text!r}", text=text)
    parts = split_top_level(t[5:-1])
    if len(parts) != 2 or not parts[1].strip().startswith("cyc="):
        raise ParseError("Poly takes (N(...), cyc=<k>)", text=text,
                         expected=["Poly(N(...),cyc=<k>)"])
    domain, flavor, rz = _parse_nspec(parts[0])
    if rz:
        raise ParseError("\\0 is not supported inside Poly(...)", text=text)
    try:
        cyc = int(parts[1].strip()[len("cyc="):])
    except ValueError:
        raise ParseError(f"bad cyclic modulus in {text!r}", text=text) from None
    return domain, flavor, cyc


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
        close = _matching_brace(t, 3)
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
        if len(set(elems)) < len(elems):
            raise ParseError("Sub{...} lists an element more than once",
                             text=spec)
        if len(elems) > size_bound:
            raise TooLarge(f"subset of {len(elems)} elements exceeds the "
                           f"bound {size_bound}")
        return _structure(elems, ctx, t)
    if t.startswith("N("):
        domain, flavor, rz = _parse_nspec(t)
        return interval_structure(domain, flavor, remove_zero=rz,
                                  size_bound=size_bound, name=t)
    if t.startswith("Mat("):
        rows, cols, domain, flavor = _parse_matspec(t)
        return matrix_structure(rows, cols, domain, flavor,
                                size_bound=size_bound, name=t)
    if t.startswith("Poly("):
        domain, flavor, cyc = _parse_polyspec(t)
        return poly_structure(domain, flavor, cyc,
                              size_bound=size_bound, name=t)
    if t.startswith("Fuzzy("):
        op, step = _parse_fuzzyspec(t)
        if (step + 1) ** 2 > size_bound:
            raise TooLarge(f"fuzzy grid of {(step + 1) ** 2} elements "
                           f"exceeds the bound {size_bound}")
        return _fuzzy.grid_structure(op, step)
    raise ParseError(
        f"unknown structure spec {spec!r}", text=spec,
        expected=["N(...)", "Mat(...)", "Poly(...)", "Sub{...}of ...",
                  "Fuzzy(...)"])


def _matching_brace(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    raise ParseError("unterminated Sub{...}", text=text, pos=open_pos,
                     expected=["}"])


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
    ctx = _matrix_context(rows, cols, domain, flavor)
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
