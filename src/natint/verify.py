"""Registry of recorded algebraic claims about natural-interval structures.

Every claim names a finite construction, recomputes the stated result
from scratch, and reports one of four statuses:

  pass     computation agrees with the recorded statement
  fail     disagreement with no recorded resolution (a bug, here or in
           the library; a fail is never acceptable output)
  erratum  the recorded statement is refuted by computation; the
           refutation is pinned, with an explicit witness
  skipped  the statement cannot be checked mechanically (infinite
           carrier, or internally inconsistent as recorded)

``run_verification`` executes the registry in catalogue order.  For a
fixed seed the report is byte-identical between runs; nothing
time-dependent is included.

The Rees collapses of chapter 3 are built once per run (``_collapse``):
a claim may read a collapse built by an earlier claim of the same run,
so a checker never changes a construction it reads.  A claim checked
case by case runs through ``_each``; a collapse claim that checks class
count, characteristic and named facts writes its verdict through
``_collapse_verdict``.
"""

import random
from fractions import Fraction

from .carriers import (
    corner_s_ring_witness,
    interval_elements,
    interval_structure,
    matrix_structure,
    poly_structure,
)
from .fuzzy import fuzzy_semigroup_report, grid_structure
from .intervals import Flavor, NaturalInterval, Trend, interval, iv_max, iv_min
from .matrices import IntervalMatrix, span_dimension
from .polys import IntervalPoly
from .quotients import (
    is_ideal,
    maximal_minimal_ideals,
    parse_ideal_spec,
    rees_quotient,
    semifield_verdict,
)
from .scalars import (
    F01,
    Mod,
    MixedNeutroDomain,
    PureNeutroDomain,
    Q,
    Z,
    _rand_below,
)
from .structures import (
    _first_leak,
    _first_zero_pair,
    _return_exponents,
    _zero_products,
    check_subset_field,
    check_subset_group,
    find_special_elements,
    is_group,
    is_s_ring,
    is_s_semigroup,
    thm_unit_square_witness,
)
from .suites import modmap_suites, strictness_suite

_C = Flavor.CLOSED
_O = Flavor.OPEN
_OC = Flavor.OPEN_CLOSED
_CO = Flavor.CLOSED_OPEN

SCHEMA = "natint/1"


# ----------------------------------------------------------------------
# result plumbing

def _safe(v):
    """Recursively coerce a value into JSON-friendly primitives."""
    if isinstance(v, Fraction):
        return str(v) if v.denominator != 1 else int(v)
    if isinstance(v, (NaturalInterval, IntervalMatrix, IntervalPoly)):
        return str(v)
    if isinstance(v, bool) or v is None or isinstance(v, (int, float, str)):
        return v
    if isinstance(v, dict):
        return {str(k): _safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, set, frozenset)):
        items = sorted(v, key=str) if isinstance(v, (set, frozenset)) else v
        return [_safe(x) for x in items]
    return str(v)


_REGISTRY = []


def claim(claim_id, citation):
    def wrap(fn):
        _REGISTRY.append((claim_id, citation, fn))
        return fn
    return wrap


def claim_ids():
    return [cid for cid, _, _ in _REGISTRY]


def _result(status, expected, computed, note=None):
    """What a checker returns: one of the four statuses, the recorded and
    the computed side, and a note (kept in the record only when it is
    not empty)."""
    return status, expected, computed, note


def _verdict(agree, expected, computed, note=None):
    return _result("pass" if agree else "fail", expected, computed, note)


def _each(cases, expected, check, note=None):
    """The verdict of a claim checked case by case: ``check(*case)`` gives
    the case's key, whether it agrees and its record; the claim passes
    when every case agrees."""
    out = {}
    agree = True
    for case in cases:
        key, ok, record = check(*case)
        out[key] = record
        agree = agree and ok
    return _verdict(agree, expected, out, note)


# ----------------------------------------------------------------------
# small construction helpers

def _miv(d, lo, hi, f=_C):
    """Interval over Zn with endpoints reduced into the carrier."""
    return interval(d, lo % d.n, hi % d.n, f)


def _ziv(lo, hi, f=_C):
    return interval(Z, lo, hi, f)


def _qiv(lo, hi, f=_C):
    return interval(Q, Fraction(lo), Fraction(hi), f)


def _fiv(lo, hi, f=_C):
    return interval(F01, Fraction(lo), Fraction(hi), f)


def _colzero(s):
    return parse_ideal_spec(s, "col-zero")


def _class_of(q, element):
    """Quotient class index of an ambient element."""
    return int(q.class_of[q.ambient.index[element]])


def _corner_matrix(rows, cols, corner):
    """corner in the (0,0) slot of an otherwise zero matrix."""
    d, f = corner.domain, corner.flavor
    z = interval(d, d.zero, d.zero, f)
    entries = [z] * (rows * cols)
    entries[0] = corner
    return IntervalMatrix(rows, cols, tuple(entries), domain=d, flavor=f)


def _basis_matrices(rows, cols, domain, flavor):
    """The 2*rows*cols canonical one-hot basis: [1,0] and [0,1] per slot."""
    z = interval(domain, domain.zero, domain.zero, flavor)
    lo_one = interval(domain, domain.one, domain.zero, flavor)
    hi_one = interval(domain, domain.zero, domain.one, flavor)
    out = []
    for slot in range(rows * cols):
        for e in (lo_one, hi_one):
            entries = [z] * (rows * cols)
            entries[slot] = e
            out.append(IntervalMatrix(rows, cols, tuple(entries),
                                      domain=domain, flavor=flavor))
    return out


def _span_claim(rows, cols, domain, flavor, want_dim, note=None):
    basis = _basis_matrices(rows, cols, domain, flavor)
    rep = span_dimension(basis, domain)
    agree = (rep["dimension"] == want_dim and rep["independent"]
             and rep["spans"])
    exp = {"dimension": want_dim, "basis_vectors": want_dim,
           "independent": True, "spans": True}
    return _verdict(agree, exp, rep, note)


def _rng(ctx, salt):
    return random.Random(ctx["seed"] * 1000003 + salt)


# ======================================================================
# interval arithmetic on Z: worked products and trend behaviour

@claim("sec1-cardinality",
       "over Zn there are exactly n^2 natural intervals, for every "
       "boundary flavor")
def _c_sec1_cardinality(ctx):
    bad = []
    for n in range(2, 13):
        for f in Flavor:
            got = len(interval_elements(Mod(n), f))
            if got != n * n:
                bad.append({"n": n, "flavor": f.code, "order": got})
    return _verdict(not bad, "order n^2 for n=2..12, all four flavors",
                    bad or "44 carriers verified")


@claim("sec1-worked-products",
       "worked integer products such as [-3,8][-10,-2] = [30,-16] and "
       "scalar multiples like 3[4,-2] = [12,-6]")
def _c_sec1_worked(ctx):
    cases = [
        (_ziv(-3, 8) * _ziv(-10, -2), _ziv(30, -16)),
        (_ziv(-3, 8) * _ziv(-10, 2), _ziv(30, 16)),
        (_ziv(4, -2).scale(3), _ziv(12, -6)),
        (_ziv(4, -2).scale(-4), _ziv(-16, 8)),
        (_ziv(-3, 0) * _ziv(7, 2), _ziv(-21, 0)),
        (_ziv(-3, -7) * _ziv(-10, -12), _ziv(30, 84)),
        (_ziv(8, 2) * _ziv(6, 9), _ziv(48, 18)),
        (_ziv(0, 7) * _ziv(-2, 0), _ziv(0, 0)),
    ]
    diffs = [{"computed": str(got), "expected": str(want)}
             for got, want in cases if got != want]
    return _verdict(not diffs, "8 recorded products reproduced exactly",
                    diffs or [str(got) for got, _ in cases])


@claim("sec1-trend-product",
       "products of increasing intervals need not be increasing, but are "
       "when all four endpoints are positive and ordered")
def _c_sec1_trend(ctx):
    x, y = _ziv(-3, 8), _ziv(-10, -2)
    counter = (x * y).trend() is not Trend.INCREASING
    dx, dy = _ziv(-3, -7), _ziv(-10, -12)
    counter_dec = (dx * dy).trend() is not Trend.DECREASING
    rng = _rng(ctx, 11)
    stable = 0
    for _ in range(500):
        a = _rand_below(rng, 400) + 1
        b = _rand_below(rng, 500 - a) + a + 1
        c = _rand_below(rng, 400) + 1
        e = _rand_below(rng, 500 - c) + c + 1
        if (_ziv(a, b) * _ziv(c, e)).trend() is Trend.INCREASING:
            stable += 1
    agree = counter and counter_dec and stable == 500
    return _verdict(
        agree,
        {"counterexample_exists": True,
         "positive_ordered_products_increasing": "500/500"},
        {"[-3,8][-10,-2]": str((x * y).trend().value),
         "[-3,-7][-10,-12]": str((dx * dy).trend().value),
         "positive_ordered_products_increasing": f"{stable}/500"})


@claim("sec1-degenerate-sum",
       "[a,b] + [b,a] is always degenerate, and differences of degenerate "
       "intervals stay degenerate")
def _c_sec1_degenerate(ctx):
    rng = _rng(ctx, 13)
    bad = []
    for _ in range(2000):
        a, b = _rand_below(rng, 1999) - 999, _rand_below(rng, 1999) - 999
        if not (_ziv(a, b) + _ziv(b, a)).is_degenerate:
            bad.append(f"[{a},{b}]")
        x, y = _rand_below(rng, 1999) - 999, _rand_below(rng, 1999) - 999
        if not (_ziv(x, x) - _ziv(y, y)).is_degenerate:
            bad.append(f"{x}-{y}")
    return _verdict(not bad, "degenerate in all 4000 seeded cases",
                    bad or "4000/4000 degenerate")


# ======================================================================
# semigroups and groups of intervals

@claim("ex-2.1",
       "intervals over Z5 form an additive monoid of order 25 with "
       "identity 0")
def _c_ex_2_1(ctx):
    s = interval_structure(Mod(5), _O)
    closed, _ = s.closed("add")
    assoc, _ = s.associative("add")
    e = s.identity_index("add")
    ident_ok = (e is not None
                and s.elements[e] == interval(Mod(5), 0, 0, _O))
    agree = s.n == 25 and closed and assoc and ident_ok
    return _verdict(agree, {"order": 25, "identity": "0",
                            "semigroup": True},
                    {"order": s.n, "identity": s.label(e),
                     "closed": closed, "associative": assoc})


@claim("ex-2.3",
       "{0, 2, [0,2], [2,0]} is closed under addition inside the "
       "order-16 additive carrier over Z4")
def _c_ex_2_3(ctx):
    d = Mod(4)
    s = interval_structure(d, _C)
    sub = [interval(d, 0, 0, _C), interval(d, 2, 2, _C),
           interval(d, 0, 2, _C), interval(d, 2, 0, _C)]
    subset = set(sub)
    leaks = [(str(x), str(y)) for x in sub for y in sub
             if x + y not in subset]
    return _verdict(s.n == 16 and not leaks,
                    {"carrier_order": 16, "subsemigroup": True},
                    {"carrier_order": s.n,
                     "closure_leaks": leaks or "none"})


@claim("ex-2.5",
       "over Z15 the degenerate diagonal contributes exactly three "
       "additive subsemigroups of order > 1, and N({0,5,10}) has order 9 "
       "dividing 225")
def _c_ex_2_5(ctx):
    n = 15
    subs = set()
    for g in range(n):
        sub = frozenset((g * k) % n for k in range(n))
        if len(sub) > 1:
            subs.add(sub)
    d = Mod(15)
    sub9 = [interval(d, a, b, _OC) for a in (0, 5, 10) for b in (0, 5, 10)]
    ok, info = check_subset_group(sub9, lambda x, y: x + y)
    agree = len(subs) == 3 and ok and len(sub9) == 9 and 225 % 9 == 0
    return _verdict(agree,
                    {"inherited_subsemigroups": 3, "sub_order": 9,
                     "divides_carrier": True},
                    {"inherited_subsemigroups": len(subs),
                     "sub_group": ok, "sub_order": len(sub9),
                     "identity": info.get("identity")})


@claim("ex-2.7",
       "the multiplicative monoid of intervals over Z5 has order 25, "
       "zero divisors and units")
def _c_ex_2_7(ctx):
    s = interval_structure(Mod(5), _C)
    sp = find_special_elements(s, with_orders=False)
    agree = (s.n == 25 and s.identity_index("mul") is not None
             and len(sp["zero_divisors"]) > 0 and len(sp["units"]) > 0)
    return _verdict(agree,
                    {"order": 25, "monoid": True, "zero_divisors": ">0",
                     "units": ">0"},
                    {"order": s.n, "identity": sp["one"],
                     "zero_divisors": len(sp["zero_divisors"]),
                     "units": len(sp["units"])})


@claim("ex-2.10",
       "intervals over the even residues form a multiplicative ideal of "
       "the interval semigroup over Z12; the degenerate diagonal does not")
def _c_ex_2_10(ctx):
    d = Mod(12)
    s = interval_structure(d, _O)
    evens = {0, 2, 4, 6, 8, 10}
    w = [i for i, e in enumerate(s.elements)
         if e.lo in evens and e.hi in evens]
    absorbed = _first_leak(s, "mul", range(s.n), w, w) is None
    diag = [i for i, e in enumerate(s.elements) if e.is_degenerate]
    leak = _first_leak(s, "mul", range(s.n), diag, diag)
    diag_leak = None if leak is None else s.labels(leak)
    agree = len(w) == 36 and absorbed and diag_leak is not None
    return _verdict(agree,
                    {"even_subset_order": 36, "absorbs": True,
                     "diagonal_is_ideal": False},
                    {"even_subset_order": len(w), "absorbs": absorbed,
                     "diagonal_leak": diag_leak})


@claim("thm-2.5",
       "no degenerate-diagonal subsemigroup is a multiplicative ideal of "
       "its interval carrier")
def _c_thm_2_5(ctx):
    def check(n, f):
        s = interval_structure(Mod(n), f)
        # the diagonal is read in the iteration order of a set of its
        # indices, not in carrier order: the recorded witnesses follow it
        diag = list(set(i for i, e in enumerate(s.elements)
                        if e.is_degenerate))
        leak = _first_leak(s, "mul", range(s.n), diag, diag)
        return (f"Zn:{n}", leak is not None,
                None if leak is None else s.labels(leak))
    return _each(((5, _O), (12, _C)),
                 "an absorption leak exists for every carrier", check)


@claim("ex-2.14",
       "the multiplicative interval semigroup over Z11 has ideals, "
       "subsemigroups, zero divisors and units, and no idempotents "
       "beyond the 0/1-endpoint ones")
def _c_ex_2_14(ctx):
    d = Mod(11)
    s = interval_structure(d, _OC)
    sp = find_special_elements(s, with_orders=False)
    trivial = {interval(d, a, b, _OC) for a in (0, 1) for b in (0, 1)}
    idem = set(sp["idempotents"])
    expected_idem = sorted(str(e) for e in trivial)
    col = _colzero(s)
    ok_ideal, _ = is_ideal(s, col.indices)
    agree = (sorted(idem) == expected_idem
             and len(sp["zero_divisors"]) > 0 and len(sp["units"]) > 0
             and ok_ideal)
    return _verdict(
        agree,
        {"idempotents": expected_idem, "zero_divisors": ">0",
         "units": ">0", "has_ideal": True},
        {"idempotents": sorted(idem),
         "zero_divisors": len(sp["zero_divisors"]),
         "units": len(sp["units"]), "col_zero_is_ideal": ok_ideal},
        note="recorded as having no idempotents; the four 0/1-endpoint "
             "idempotents always exist, so the statement is read as "
             "ruling out any others")


@claim("ex-2.17", "additive interval group over Z12 has order 144")
def _c_ex_2_17(ctx):
    s = interval_structure(Mod(12), _O)
    g = is_group(s, "add")
    return _verdict(g and s.n == 144, {"order": 144, "group": True},
                    {"order": s.n, "group": g})


@claim("ex-2.23",
       "N({0,3,6}) is an additive subgroup of order 9 inside the "
       "interval group over Z9")
def _c_ex_2_23(ctx):
    d = Mod(9)
    sub = [interval(d, a, b, _C) for a in (0, 3, 6) for b in (0, 3, 6)]
    ok, info = check_subset_group(sub, lambda x, y: x + y)
    return _verdict(ok and len(sub) == 9,
                    {"order": 9, "subgroup": True},
                    {"order": len(sub), "subgroup": ok,
                     "identity": info.get("identity")})


_KLEIN_PATTERN = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]


@claim("ex-2.26",
       "{(1,1),(1,-1),(-1,1),(-1,-1)} over Z is a Klein four-group under "
       "multiplication, with the recorded table")
def _c_ex_2_26(ctx):
    elems = [_ziv(1, 1, _O), _ziv(1, -1, _O), _ziv(-1, 1, _O),
             _ziv(-1, -1, _O)]
    labels = [str(e) for e in elems]
    wanted = [[labels[k] for k in row] for row in _KLEIN_PATTERN]
    table = [[str(x * y) for y in elems] for x in elems]
    ok, info = check_subset_group(elems, lambda x, y: x * y)
    self_inverse = all(x * x == elems[0] for x in elems)
    agree = ok and table == wanted and self_inverse
    return _verdict(agree,
                    {"group": True, "table": wanted,
                     "every_element_self_inverse": True},
                    {"group": ok, "table": table,
                     "identity": info.get("identity")})


@claim("ex-2.27",
       "the multiplicative interval semigroup over the even integers "
       "contains no proper subset forming a nontrivial group")
def _c_ex_2_27(ctx):
    return _result("skipped", "no subgroup witness exists", None,
                   "infinite carrier: ruling out every subset is not "
                   "mechanically checkable; note 1 is not an even "
                   "integer, so no degenerate identity candidate exists")


@claim("ex-2.31",
       "intervals over Z7 with both endpoints nonzero form a "
       "multiplicative group")
def _c_ex_2_31(ctx):
    s = interval_structure(Mod(7), _O, remove_zero=True)
    g = is_group(s, "mul")
    return _verdict(g and s.n == 36, {"order": 36, "group": True},
                    {"order": s.n, "group": g})


@claim("ex-2.32",
       "over Z3 the nonzero-endpoint intervals are exactly "
       "{(1,2), 1, (2,1), 2} and form a group")
def _c_ex_2_32(ctx):
    s = interval_structure(Mod(3), _O, remove_zero=True)
    want = {_miv(Mod(3), 1, 2, _O), _miv(Mod(3), 1, 1, _O),
            _miv(Mod(3), 2, 1, _O), _miv(Mod(3), 2, 2, _O)}
    g = is_group(s, "mul")
    agree = g and set(s.elements) == want
    return _verdict(agree,
                    {"members": sorted(str(e) for e in want),
                     "group": True},
                    {"members": sorted(s.labels(range(s.n))),
                     "group": g})


@claim("ex-2.33",
       "over Z5 the nonzero-endpoint intervals form an abelian group of "
       "order 16")
def _c_ex_2_33(ctx):
    s = interval_structure(Mod(5), _O, remove_zero=True)
    g = is_group(s, "mul")
    comm, _ = s.commutative("mul")
    return _verdict(g and comm and s.n == 16,
                    {"order": 16, "abelian_group": True},
                    {"order": s.n, "group": g, "commutative": comm})


@claim("thm-2.7",
       "for prime p the nonzero-endpoint intervals over Zp form a "
       "multiplicative group of order (p-1)^2")
def _c_thm_2_7(ctx):
    def check(p, f):
        s = interval_structure(Mod(p), f, remove_zero=True)
        g = is_group(s, "mul")
        return (f"p={p}", g and s.n == (p - 1) ** 2,
                {"order": s.n, "group": g})
    return _each(((3, _O), (5, _OC), (7, _C), (11, _CO)),
                 "group of order (p-1)^2 for p in {3,5,7,11}", check)


@claim("thm-2.8",
       "for composite n the multiplicative interval semigroup over Zn is "
       "not a group but is an S-semigroup (a proper subset is a group)")
def _c_thm_2_8(ctx):
    def check(n):
        s = interval_structure(Mod(n), _O)
        g = is_group(s, "mul")
        sm, wit = is_s_semigroup(s)
        return (f"n={n}", (not g) and sm,
                {"group": g, "s_semigroup": sm,
                 "witness": wit["members"] if sm else None})
    return _each(((4,), (6,), (12,)),
                 "not a group, S-semigroup, for n in {4,6,12}", check)


@claim("thm-2.9",
       "{1, [1,n-1], [n-1,1], [n-1,n-1]} is a multiplicative subgroup of "
       "the interval semigroup over Zn")
def _c_thm_2_9(ctx):
    def check(n):
        wit = thm_unit_square_witness(interval_structure(Mod(n), _C))
        return f"n={n}", wit is not None, wit
    return _each(((4,), (6,), (12,), (40,)),
                 "canonical four-element subgroup exists for "
                 "n in {4,6,12,40}", check)


@claim("sec2-special-definite",
       "the additive interval group over Z contains the nonnegative "
       "intervals as a proper subsemigroup that is not a group")
def _c_sec2_special_definite(ctx):
    rng = _rng(ctx, 23)
    leaks = []
    for _ in range(2000):
        a, b = _rand_below(rng, 1000), _rand_below(rng, 1000)
        c, e = _rand_below(rng, 1000), _rand_below(rng, 1000)
        x, y = _ziv(a, b), _ziv(c, e)
        z = x + y
        if z.lo < 0 or z.hi < 0:
            leaks.append((str(x), str(y)))
    nonzero = _ziv(3, 5)
    neg = -nonzero
    not_group = neg.lo < 0 and neg.hi < 0
    return _verdict(not leaks and not_group,
                    {"closed_under_add": "2000/2000",
                     "inverse_escapes": True},
                    {"closure_leaks": leaks or "none",
                     "-[3,5]": str(neg)})


# ======================================================================
# interval rings, their ideals and Rees-style quotients

@claim("ex-3.4",
       "in the interval ring over Z12: [0,4] is idempotent, [0,6] "
       "nilpotent, [3,4][4,3] = 0, and [1,11]^2 = [11,11]^2 = 1")
def _c_ex_3_4(ctx):
    d = Mod(12)
    checks = {
        "[0,4]^2": (str(_miv(d, 0, 4) ** 2), "[0,4]"),
        "[0,6]^2": (str(_miv(d, 0, 6) ** 2), "0"),
        "[3,4][4,3]": (str(_miv(d, 3, 4) * _miv(d, 4, 3)), "0"),
        "[1,11]^2": (str(_miv(d, 1, 11) ** 2), "1"),
        "[11,11]^2": (str(_miv(d, 11, 11) ** 2), "1"),
    }
    diffs = {k: got for k, (got, want) in checks.items() if got != want}
    return _verdict(not diffs,
                    {k: want for k, (_, want) in checks.items()},
                    {k: got for k, (got, _) in checks.items()})


@claim("thm-3.4",
       "for prime p the interval ring over Zp has exactly two proper "
       "nonzero ideals, {(0,a)} and {(a,0)}, each both maximal and minimal")
def _c_thm_3_4(ctx):
    def check(p):
        s = interval_structure(Mod(p), _O)
        rep = maximal_minimal_ideals(s)
        col = set(_colzero(s).indices)
        row = set(parse_ideal_spec(s, "row-zero").indices)
        min_members = [set(i.indices) for i in rep["minimal"]]
        max_members = [set(i.indices) for i in rep["maximal"]]
        shape_ok = (rep["proper_nonzero"] == 2
                    and col in min_members and row in min_members
                    and col in max_members and row in max_members)
        both = (len(rep["maximal"]) == 2 and len(rep["minimal"]) == 2)
        return (f"p={p}", shape_ok and both,
                {"proper_nonzero": rep["proper_nonzero"],
                 "maximal": len(rep["maximal"]),
                 "minimal": len(rep["minimal"]), "shapes": shape_ok})
    return _each(((3,), (5,), (7,)),
                 "two proper nonzero ideals, both maximal and minimal, "
                 "for p in {3,5,7}", check)


@claim("ex-3.13",
       "the interval ring over Q has infinitely many ideals")
def _c_ex_3_13(ctx):
    return _result("skipped", "infinitely many ideals", None,
                   "infinite carrier: ideal enumeration needs a finite "
                   "structure")


@claim("ex-3.14",
       "in the interval ring over Z30: N({0,10,20}), N({0,15}), N(evens) "
       "and N(multiples of 3) are ideals, N({0,15}) minimal and "
       "N(multiples of 3) maximal")
def _c_ex_3_14(ctx):
    d = Mod(30)
    s = interval_structure(d, _C)

    def subset(vals):
        vs = set(vals)
        return [i for i, e in enumerate(s.elements)
                if e.lo in vs and e.hi in vs]

    named = {
        "N({0,10,20})": subset({0, 10, 20}),
        "N({0,15})": subset({0, 15}),
        "N(evens)": subset(range(0, 30, 2)),
        "N(3s)": subset(range(0, 30, 3)),
    }
    ideal_ok = {k: is_ideal(s, ix)[0] for k, ix in named.items()}

    # refutation of minimality: a nonzero ideal strictly inside N({0,15})
    inner = [s.index[interval(d, 0, 0, _C)], s.index[interval(d, 0, 15, _C)]]
    inner_ok, _ = is_ideal(s, inner)
    j = set(named["N({0,15})"])
    inner_strict = inner_ok and set(inner) < j and len(inner) > 1

    # refutation of maximality: a proper ideal strictly above N(3s)
    outer = [i for i, e in enumerate(s.elements) if e.lo % 3 == 0]
    outer_ok, _ = is_ideal(s, outer)
    p = set(named["N(3s)"])
    outer_strict = outer_ok and p < set(outer) and len(outer) < s.n

    refuted = inner_strict and outer_strict
    if all(ideal_ok.values()) and refuted:
        return _result(
            "erratum", "N({0,15}) minimal and N(3s) maximal",
            {"all_four_are_ideals": True,
             "inside_N({0,15})": "{0, [0,15]} is a smaller nonzero ideal",
             "above_N(3s)": "{[a,b] : 3 | a} is a larger proper ideal"},
            "the four subsets are ideals as recorded, but the "
            "minimality and maximality attributions fail")
    return _result("fail", "refutation witnesses verify",
                   {"ideal_ok": ideal_ok, "inner_strict": inner_strict,
                    "outer_strict": outer_strict})


@claim("ex-3.25",
       "{0,4,8}, {0,(0,4),(0,8)} and {0,(4,0),(8,0)} are fields inside "
       "the interval ring over Z12, with unity 4, (0,4), (4,0)")
def _c_ex_3_25(ctx):
    d = Mod(12)
    trios = {
        "diagonal": [interval(d, a, a, _O) for a in (0, 4, 8)],
        "col": [interval(d, 0, 0, _O), interval(d, 0, 4, _O),
                interval(d, 0, 8, _O)],
        "row": [interval(d, 0, 0, _O), interval(d, 4, 0, _O),
                interval(d, 8, 0, _O)],
    }
    out = {}
    agree = True
    for name, elems in trios.items():
        ok, info = check_subset_field(elems, lambda x, y: x + y,
                                      lambda x, y: x * y)
        out[name] = {"field": ok, "identity": info.get("identity")}
        agree = agree and ok
    units_ok = (out["diagonal"].get("identity") == "4"
                and out["col"].get("identity") == "(0,4)"
                and out["row"].get("identity") == "(4,0)")
    return _verdict(agree and units_ok,
                    {"fields": 3, "identities": ["4", "(0,4)", "(4,0)"]},
                    out)


@claim("ex-3.26",
       "over Z20, x=[0,10], y=[0,16] is an S-zero divisor with "
       "a=[0,2], b=[0,5]: xy=0, xa=0, yb=0, ab=[0,10] != 0")
def _c_ex_3_26(ctx):
    d = Mod(20)
    x, y = _miv(d, 0, 10), _miv(d, 0, 16)
    a, b = _miv(d, 0, 2), _miv(d, 0, 5)
    zero = _miv(d, 0, 0)
    got = {"xy": str(x * y), "xa": str(x * a), "yb": str(y * b),
           "ab": str(a * b)}
    agree = (x * y == zero and x * a == zero and y * b == zero
             and a * b == _miv(d, 0, 10))
    return _verdict(agree,
                    {"xy": "0", "xa": "0", "yb": "0", "ab": "[0,10]"},
                    got)


@claim("ex-3.27",
       "over Z30 the intervals [0,6],[0,10],[0,15],[0,16],[0,21],[0,25] "
       "are idempotent and [0,24]^2 = [0,6]")
def _c_ex_3_27(ctx):
    d = Mod(30)
    listed = [6, 10, 15, 16, 21, 25]
    idem = {f"[0,{k}]": str(_miv(d, 0, k) ** 2) for k in listed}
    extra = str(_miv(d, 0, 24) ** 2)
    agree = (all(idem[f"[0,{k}]"] == f"[0,{k}]" for k in listed)
             and extra == "[0,6]")
    return _verdict(agree,
                    {"idempotents": [f"[0,{k}]" for k in listed],
                     "[0,24]^2": "[0,6]"},
                    {"squares": idem, "[0,24]^2": extra})


def _collapse(ctx, n, flavor):
    """The Rees collapse of col-zero in the interval ring over Zn, built
    once per run and kept in ctx for every later claim that reads it."""
    key = (n, flavor)
    if key not in ctx["collapses"]:
        s = interval_structure(Mod(n), flavor)
        ctx["collapses"][key] = rees_quotient(s, _colzero(s))
    return ctx["collapses"][key]


def _collapse_verdict(q, classes, char, checks):
    """The verdict of a collapse claim: q has `classes` classes and
    characteristic `char` (left out when None), and each named check,
    given as (expected key, expected value, computed key, computed
    value, agrees), agrees."""
    exp, got = {"classes": classes}, {"classes": q.n}
    agree = q.n == classes
    if char is not None:
        exp["characteristic"] = char
        got["characteristic"] = q.characteristic()
        agree = agree and got["characteristic"] == char
    for want_key, want, got_key, value, ok in checks:
        exp[want_key], got[got_key] = want, value
        agree = agree and ok
    return _verdict(agree, exp, got)


@claim("ex-3.28",
       "collapsing {(0,a)} in the interval ring over Z3 leaves 7 classes "
       "of characteristic 3, with (1,0)+(1,2) landing in the class of 2 "
       "and (1,0)(1,2) staying at (1,0)")
def _c_ex_3_28(ctx):
    d = Mod(3)
    q = _collapse(ctx, 3, _O)
    a, b = interval(d, 1, 0, _O), interval(d, 1, 2, _O)
    sum_cls, prod_cls = _class_of(q, a + b), _class_of(q, a * b)
    return _collapse_verdict(q, 7, 3, [
        ("(1,0)+(1,2)", "class of 2", "sum_class", q.label(sum_cls),
         sum_cls == _class_of(q, interval(d, 2, 2, _O))),
        ("(1,0)(1,2)", "class of (1,0)", "product_class", q.label(prod_cls),
         prod_cls == _class_of(q, a))])


@claim("ex-3.29",
       "the analogous collapse over Z6 leaves 31 classes of "
       "characteristic 6")
def _c_ex_3_29(ctx):
    return _collapse_verdict(_collapse(ctx, 6, _C), 31, 6, [])


@claim("ex-3.30",
       "over Z4 the collapse leaves 13 classes of characteristic 4, with "
       "zero divisors")
def _c_ex_3_30(ctx):
    q = _collapse(ctx, 4, _OC)
    two = interval(Mod(4), 2, 2, _OC)
    nil = _class_of(q, two * two) == 0 and _class_of(q, two) != 0
    return _collapse_verdict(q, 13, 4, [
        ("zero_divisors", True, "2*2_collapses", nil, nil)])


@claim("ex-3.31",
       "over Z5 the collapse leaves 21 classes of characteristic 5")
def _c_ex_3_31(ctx):
    return _collapse_verdict(_collapse(ctx, 5, _O), 21, 5, [])


@claim("ex-3.32",
       "over Z10 the collapse leaves 91 classes of characteristic 10; "
       "(5,0)(2,0) collapses to zero and (5,0) is idempotent")
def _c_ex_3_32(ctx):
    d = Mod(10)
    q = _collapse(ctx, 10, _O)
    five, two = interval(d, 5, 0, _O), interval(d, 2, 0, _O)
    zd = _class_of(q, five * two) == 0
    return _collapse_verdict(q, 91, 10, [
        ("(5,0)(2,0)", "zero class", "product_collapses", zd, zd),
        ("(5,0)^2", "(5,0)", "(5,0)^2", str(five * five),
         five * five == five)])


@claim("ex-3.33",
       "over Z9 the collapse leaves 73 classes of characteristic 9; "
       "[6,3]^2 collapses to zero and [8,1]^2 = 1")
def _c_ex_3_33(ctx):
    d = Mod(9)
    q = _collapse(ctx, 9, _C)
    sq1 = _class_of(q, _miv(d, 6, 3) ** 2) == 0
    sq2 = str(_miv(d, 8, 1) ** 2)
    return _collapse_verdict(q, 73, 9, [
        ("[6,3]^2", "zero class", "[6,3]^2_collapses", sq1, sq1),
        ("[8,1]^2", "1", "[8,1]^2", sq2, sq2 == "1")])


@claim("ex-3.33-idempotents",
       "that quotient over Z9 has no idempotent classes")
def _c_ex_3_33_idem(ctx):
    q = _collapse(ctx, 9, _C)
    x = _miv(Mod(9), 1, 0)
    witness = x * x == x and _class_of(q, x) != 0
    if witness:
        return _result("erratum", "no idempotents",
                       "[1,0]+I is a nonzero idempotent class "
                       "([1,0]^2 = [1,0])",
                       "idempotent scalars mod 9 are only 0 and 1, so "
                       "[1,0] survives the collapse and squares to itself")
    return _result("fail", "the recorded refutation witness verifies",
                   {"[1,0]^2": str(x * x)})


@claim("ex-3.34",
       "over Z7 the collapse leaves 43 classes of characteristic 7 with "
       "no zero divisors; classes of (a,0) are not invertible")
def _c_ex_3_34(ctx):
    q = _collapse(ctx, 7, _O)
    nz = int(_zero_products(q.table("mul"), 0).sum())
    a0 = _class_of(q, interval(Mod(7), 1, 0, _O))
    invertible = bool(q.units()[a0] >= 0)
    return _collapse_verdict(q, 43, 7, [
        ("zero_divisors", 0, "zero_divisor_pairs", nz, not nz),
        ("(1,0)_invertible", False, "(1,0)_invertible", invertible,
         not invertible)])


@claim("ex-3.35",
       "over Z11 the collapse leaves 111 classes; in the ambient ring "
       "[0,5]^6 = [0,5] and [0,3]^6 = [0,3]")
def _c_ex_3_35(ctx):
    d = Mod(11)
    p5, p3 = str(_miv(d, 0, 5) ** 6), str(_miv(d, 0, 3) ** 6)
    return _collapse_verdict(_collapse(ctx, 11, _C), 111, None, [
        ("[0,5]^6", "[0,5]", "[0,5]^6", p5, p5 == "[0,5]"),
        ("[0,3]^6", "[0,3]", "[0,3]^6", p3, p3 == "[0,3]")])


def _power_return_exponents(q):
    """Least k > 1 with class^k = class, or None, for every nonzero class
    (structures._return_exponents)."""
    exps = _return_exponents(q)
    return {q.label(i): exps[i] or None for i in range(1, q.n)}


@claim("thm-3.7",
       "for prime p: the interval ring over Zp has order p^2 and zero "
       "divisors, {(0,a)} and {(a,0)} are ideals, each collapse has "
       "p^2-p+1 classes of characteristic p, and every nonzero class "
       "returns to itself under some power > 1")
def _c_thm_3_7(ctx):
    def check(p):
        q = _collapse(ctx, p, _C)
        s = q.ambient
        sp = find_special_elements(s, with_orders=False)
        col_ok, _ = is_ideal(s, q.ideal.indices)
        row_ok, _ = is_ideal(s, parse_ideal_spec(s, "row-zero").indices)
        char = q.characteristic()
        exps = _power_return_exponents(q)
        returns = all(v is not None and v > 1 for v in exps.values())
        ok = (s.n == p * p and len(sp["zero_divisors"]) > 0 and col_ok
              and row_ok and q.n == p * p - p + 1 and char == p
              and returns)
        return (f"p={p}", ok, {"order": s.n, "classes": q.n,
                               "characteristic": char,
                               "power_return": returns})
    return _each(((3,), (5,), (7,)),
                 "order p^2, both line ideals, p^2-p+1 classes of "
                 "characteristic p, power-return for p in {3,5,7}", check)


@claim("sec3-power-return",
       "in the collapse over Z5 the recorded return exponents hold: "
       "((2,0))^5 = (2,0) with 5 minimal, ((4,0))^3 = (4,0), "
       "((1,0))^2 = (1,0)")
def _c_sec3_power_return(ctx):
    exps = _power_return_exponents(_collapse(ctx, 5, _O))
    wanted = {"(2,0)": 5, "(4,0)": 3, "(1,0)": 2, "(2,4)": 5}
    got = {k: exps.get(k) for k in wanted}
    agree = got == wanted
    return _verdict(agree, wanted, got,
                    note="one recorded line transposes the endpoint pair "
                         "of (2,4)^5; the computed fifth power returns "
                         "to (2,4) itself")


@claim("thm-3.8",
       "for composite n the collapse over Zn keeps n^2-n+1 classes of "
       "characteristic n and shows zero divisors and units")
def _c_thm_3_8(ctx):
    def check(n):
        q = _collapse(ctx, n, _C)
        char = q.characteristic()
        zd = _first_zero_pair(q, "mul", 0) is not None
        units = int((q.units() >= 0).sum())
        ok = q.n == n * n - n + 1 and char == n and zd and units > 1
        return (f"n={n}", ok, {"classes": q.n, "characteristic": char,
                               "zero_divisors": zd, "units": units})
    return _each(((4,), (6,), (10,)),
                 "n^2-n+1 classes, characteristic n, zero divisors "
                 "and units for n in {4,6,10}", check)


@claim("ex-3.39",
       "in the collapse over Z3: (2)^3 = 2, [2,0]^3 = [2,0], "
       "[1,2][2,1] = 2, [1,2]^2 = 1, and [1,0], [2,0] are not "
       "invertible, so the quotient is not a field")
def _c_ex_3_39(ctx):
    d = Mod(3)
    q = _collapse(ctx, 3, _C)
    got = {
        "2^3": str(_miv(d, 2, 2) ** 3),
        "[2,0]^3": str(_miv(d, 2, 0) ** 3),
        "[1,2][2,1]": str(_miv(d, 1, 2) * _miv(d, 2, 1)),
        "[1,2]^2": str(_miv(d, 1, 2) ** 2),
    }
    non_inv = []
    for a in (1, 2):
        i = _class_of(q, _miv(d, a, 0))
        non_inv.append(bool(q.units()[i] < 0))
    agree = (got == {"2^3": "2", "[2,0]^3": "[2,0]",
                     "[1,2][2,1]": "2", "[1,2]^2": "1"}
             and all(non_inv))
    return _verdict(agree,
                    {"2^3": "2", "[2,0]^3": "[2,0]", "[1,2][2,1]": "2",
                     "[1,2]^2": "1", "non_invertible": ["[1,0]", "[2,0]"],
                     "field": False},
                    {**got, "non_invertible_checks": non_inv})


@claim("ex-3.40",
       "over Z12 the collapse has 133 classes; (3,4)(4,3) collapses, "
       "(4,4) and (4,0) are idempotent, (6,0) nilpotent, (11,11) a unit")
def _c_ex_3_40(ctx):
    d = Mod(12)
    q = _collapse(ctx, 12, _O)
    zc = _class_of(q, _miv(d, 3, 4, _O) * _miv(d, 4, 3, _O))
    sq44, sq40, sq1111 = (str(_miv(d, a, b, _O) ** 2)
                          for a, b in ((4, 4), (4, 0), (11, 11)))
    nil = _class_of(q, _miv(d, 6, 0, _O) ** 2)
    return _collapse_verdict(q, 133, None, [
        ("(3,4)(4,3)", "zero class", "(3,4)(4,3)", zc, zc == 0),
        ("(4,4)^2", "4", "(4,4)^2", sq44, sq44 == "4"),
        ("(4,0)^2", "(4,0)", "(4,0)^2", sq40, sq40 == "(4,0)"),
        ("(6,0)", "nilpotent", "(6,0)^2_class", nil, nil == 0),
        ("(11,11)^2", "1", "(11,11)^2", sq1111, sq1111 == "1")])


@claim("ex-3.41",
       "over Z53 the collapse has 53^2-53+1 = 2757 classes of "
       "characteristic 53; classes of (a,0) are not invertible and "
       "classes with both endpoints nonzero are")
def _c_ex_3_41(ctx):
    q = _collapse(ctx, 53, _C)
    a0 = _class_of(q, interval(Mod(53), 7, 0, _C))
    line_inv = bool(q.units()[a0] >= 0)
    units = int((q.units() >= 0).sum())
    return _collapse_verdict(q, 2757, 53, [
        ("(7,0)_invertible", False, "(7,0)_invertible", line_inv,
         not line_inv),
        ("units", 2704, "units", units, units == 52 * 52)])


@claim("thm-3.9",
       "the collapse of the interval ring over Zp is an S-ring")
def _c_thm_3_9(ctx):
    def check(p):
        found, wit = is_s_ring(_collapse(ctx, p, _C))
        return f"p={p}", found, wit["members"] if found else None
    return _each(((3,), (7,)),
                 "a proper subset field exists for p in {3,7}", check)


@claim("thm-3.10-modmap",
       "reduction mod n carries intervals over Z onto intervals over Zn "
       "with kernel N(nZ); the quotient has n^2 classes")
def _c_thm_3_10(ctx):
    out = {}
    agree = True
    for n, rep in zip((3, 4, 11), modmap_suites((3, 4, 11), pairs=10000,
                                                seed=ctx["seed"])):
        out[f"n={n}"] = {"cases": rep["cases"],
                         "failures": rep["failures"],
                         "classes": interval_structure(Mod(n)).n}
        agree = agree and rep["ok"]
    agree = agree and out["n=3"]["classes"] == 9 \
        and out["n=4"]["classes"] == 16
    return _verdict(agree,
                    "homomorphism and kernel verified on 10^4 seeded "
                    "pairs for n in {3,4,11}; 9 and 16 classes for "
                    "n = 3, 4", out)


# ======================================================================
# interval matrices

@claim("sec4-row-add",
       "recorded row sum: ([3,1],[0,-2],[7,3],[5,5]) + "
       "([2,2],[3,-1],[-2,5],[-7,1]) = ([5,3],[3,-3],[5,8],[-2,6])")
def _c_sec4_row_add(ctx):
    def row(pairs):
        return IntervalMatrix(1, 4, tuple(_ziv(a, b, _CO)
                                          for a, b in pairs),
                              domain=Z, flavor=_CO)
    x = row([(3, 1), (0, -2), (7, 3), (5, 5)])
    y = row([(2, 2), (3, -1), (-2, 5), (-7, 1)])
    want = row([(5, 3), (3, -3), (5, 8), (-2, 6)])
    got = x + y
    return _verdict(got == want, str(want), str(got))


@claim("ex-4.12",
       "recorded entrywise row product over Q: "
       "([0,3),[7,2),[5,1),4) . (7,[-2,1),[0,-7),[-4,2)) = "
       "([0,21),[-14,2),[0,-7),[-16,8))")
def _c_ex_4_12(ctx):
    def row(pairs):
        return IntervalMatrix(1, 4, tuple(_qiv(a, b, _CO)
                                          for a, b in pairs),
                              domain=Q, flavor=_CO)
    a = row([(0, 3), (7, 2), (5, 1), (4, 4)])
    b = row([(7, 7), (-2, 1), (0, -7), (-4, 2)])
    want = row([(0, 21), (-14, 2), (0, -7), (-16, 8)])
    got = a.hadamard(b)
    return _verdict(got == want, str(want), str(got))


_MATMUL_A = [[(9, 10), (0, 3), (-2, 1)],
             [(1, 2), (0, 0), (2, -1)],
             [(1, 1), (3, 1), (-1, -4)]]
_MATMUL_B = [[(0, 3), (0, 0), (-2, -1)],
             [(1, -1), (3, 1), (-3, -9)],
             [(8, 0), (5, 7), (1, -5)]]
_MATMUL_AB = [[(-16, 27), (-10, 10), (-20, -42)],
              [(16, 6), (10, -7), (0, 3)],
              [(-5, 2), (4, -27), (-12, 10)]]


def _zmat(rows):
    ent = tuple(_ziv(a, b) for r in rows for a, b in r)
    return IntervalMatrix(len(rows), len(rows[0]), ent, domain=Z,
                          flavor=_C)


@claim("sec4-matmul",
       "recorded 3x3 interval matrix product over Z, with top-left entry "
       "[-16,27]")
def _c_sec4_matmul(ctx):
    got = _zmat(_MATMUL_A) @ _zmat(_MATMUL_B)
    want = _zmat(_MATMUL_AB)
    corner = got.entry(0, 0)
    return _verdict(got == want and corner == _ziv(-16, 27),
                    {"product": str(want), "entry(1,1)": "[-16,27]"},
                    {"product": str(got), "entry(1,1)": str(corner)})


# ======================================================================
# interval polynomials

def _zpoly(coeffs, f=_CO):
    return IntervalPoly(Z, f, tuple(_ziv(a, b, f) for a, b in coeffs))


@claim("sec5-poly-product",
       "recorded degree-9 polynomial product with interval coefficients "
       "over Z")
def _c_sec5_poly_product(ctx):
    p = _zpoly([(8, 1), (0, 0), (-1, 2), (2, -3), (0, 0), (3, 4)])
    q = _zpoly([(8, 0), (0, -7), (0, 0), (-3, 0), (2, -4)])
    want = _zpoly([(64, 0), (0, -7), (-8, 0), (-8, -14), (16, 17),
                   (27, 0), (-8, -36), (4, 12), (-9, 0), (6, -16)])
    got = p * q
    return _verdict(got == want, str(want), str(got))


@claim("ex-5.12",
       "the constant polynomials {[1,1),[-1,-1),[1,-1),[-1,1)} over Q "
       "form a Klein four-group with the recorded table")
def _c_ex_5_12(ctx):
    consts = [(1, 1), (-1, -1), (1, -1), (-1, 1)]
    elems = [IntervalPoly(Q, _CO, (_qiv(a, b, _CO),)) for a, b in consts]
    ok, info = check_subset_group(elems, lambda x, y: x * y)
    table = [[str((x * y).coeffs[0]) for y in elems] for x in elems]
    want = [[str((_qiv(a, b, _CO) * _qiv(c, e, _CO)))
             for c, e in consts] for a, b in consts]
    self_inv = all((x * x) == elems[0] for x in elems)
    agree = ok and table == want and self_inv
    return _verdict(agree,
                    {"group": True, "self_inverse": True},
                    {"group": ok, "identity": info.get("identity"),
                     "table": table})


@claim("ex-5.16",
       "a six-element cyclic polynomial monoid where the generator "
       "satisfies both x^6 = 1 and x^5 = 1")
def _c_ex_5_16(ctx):
    return _result("skipped", "internally inconsistent as recorded", None,
                   "the two recorded relations x^6 = 1 and x^5 = 1 force "
                   "x = 1, so there is no six-element witness to build")


@claim("ex-5.18",
       "polynomials of degree < 3 with x^3 folded to 1 over interval "
       "coefficients mod 2 form a ring of order 64 with zero divisors")
def _c_ex_5_18(ctx):
    d = Mod(2)
    s = poly_structure(d, _C, cyclic=3)
    one = interval(d, 1, 1, _C)
    p = IntervalPoly(d, _C, (one, one, one), cyclic=3)
    q = IntervalPoly(d, _C, (one, one), cyclic=3)
    prod = p * q
    zd = prod == IntervalPoly.zero(d, _C, cyclic=3)
    return _verdict(s.n == 64 and zd,
                    {"order": 64, "zero_divisor": "(1+x+x^2)(1+x) = 0"},
                    {"order": s.n, "(1+x+x^2)(1+x)": str(prod)})


# ======================================================================
# matrix rings over interval entries

@claim("ex-6.13",
       "interval pairs over Z2 form a ring of order 16; {0,(1,1)} is a "
       "field, the first-slot-zero pairs are an ideal, and the collapse "
       "has 13 classes of characteristic 2")
def _c_ex_6_13(ctx):
    d = Mod(2)
    s = matrix_structure(1, 2, d, _C)
    zrow = IntervalMatrix(1, 2, (interval(d, 0, 0, _C),) * 2,
                          domain=d, flavor=_C)
    onerow = IntervalMatrix(1, 2, (interval(d, 1, 1, _C),) * 2,
                            domain=d, flavor=_C)
    fld, finfo = check_subset_field([zrow, onerow],
                                    lambda x, y: x + y,
                                    lambda x, y: x.hadamard(y))
    ideal = _colzero(s)
    ok_ideal, _ = is_ideal(s, ideal.indices)
    q = rees_quotient(s, ideal)
    char = q.characteristic()
    agree = (s.n == 16 and fld and ok_ideal and ideal.order == 4
             and q.n == 13 and char == 2)
    return _verdict(agree,
                    {"order": 16, "two_element_field": True,
                     "ideal_order": 4, "classes": 13,
                     "characteristic": 2},
                    {"order": s.n, "field": fld,
                     "field_identity": finfo.get("identity"),
                     "ideal_order": ideal.order,
                     "classes": q.n, "characteristic": char})


@claim("ex-6.13-semifield",
       "that 13-class collapse over Z2 has no zero divisors and is a "
       "semifield")
def _c_ex_6_13_semifield(ctx):
    d = Mod(2)
    s = matrix_structure(1, 2, d, _C)
    q = rees_quotient(s, _colzero(s))
    verdict = semifield_verdict(q)
    x = IntervalMatrix(1, 2, (interval(d, 0, 1, _C),
                              interval(d, 1, 1, _C)), domain=d, flavor=_C)
    y = IntervalMatrix(1, 2, (interval(d, 1, 0, _C),
                              interval(d, 1, 1, _C)), domain=d, flavor=_C)
    collapse = (_class_of(q, x.hadamard(y)) == 0
                and _class_of(q, x) != 0 and _class_of(q, y) != 0)
    if collapse and verdict["has_zero_divisors"]:
        return _result(
            "erratum", "no zero divisors; semifield",
            {"witness": "([0,1],1).([1,0],1) lands in the zero class",
             "verdict": verdict["verdict"]},
            "the first slots [0,1] and [1,0] multiply to the zero "
            "interval, so two nonzero classes annihilate")
    return _result("fail", "the recorded refutation witness verifies",
                   {"collapse": collapse, "verdict": verdict})


@claim("ex-6.14",
       "2x2 interval matrices over Z do not commute under matrix "
       "multiplication")
def _c_ex_6_14(ctx):
    z, one = _ziv(0, 0), _ziv(1, 1)
    e12 = IntervalMatrix(2, 2, (z, one, z, z), domain=Z, flavor=_C)
    e21 = IntervalMatrix(2, 2, (z, z, one, z), domain=Z, flavor=_C)
    ab, ba = e12 @ e21, e21 @ e12
    return _verdict(ab != ba,
                    "a non-commuting pair exists",
                    {"AB": str(ab), "BA": str(ba)})


@claim("thm-6.1",
       "n x n interval matrices over Zp form an S-ring for "
       "prime p")
def _c_thm_6_1(ctx):
    def check(p):
        found, wit = corner_s_ring_witness(2, 2, Mod(p), _C)
        return (f"p={p}", found,
                {"found": found,
                 "base_members": wit["base_members"] if found else None})
    return _each(((3,), (5,)),
                 "a corner-embedded subset field exists for p in {3,5}",
                 check,
                 note="the recorded proof takes every interval corner "
                      "entry, which admits zero divisors such as [1,0]; "
                      "a degenerate corner subset does give the field, "
                      "so the statement itself stands")


@claim("thm-6.2",
       "m x m interval matrices over a Zn that itself carries a subset "
       "field form an S-ring")
def _c_thm_6_2(ctx):
    found, wit = corner_s_ring_witness(2, 2, Mod(6), _C)
    return _verdict(found,
                    "a corner-embedded subset field exists over Z6",
                    {"found": found,
                     "base_members": wit["base_members"] if found
                     else None,
                     "identity": wit["identity"] if found else None})


def _two_point_corner_field(rows, d, flavor, scalar):
    """{0, scalar*E11} under matrix addition and multiplication."""
    z = interval(d, d.zero, d.zero, flavor)
    zero = IntervalMatrix(rows, rows, (z,) * (rows * rows),
                          domain=d, flavor=flavor)
    e = _corner_matrix(rows, rows, interval(d, scalar, scalar, flavor))
    return check_subset_field([zero, e], lambda x, y: x + y,
                              lambda x, y: x @ y)


@claim("thm-6.3",
       "over Z2p the pair {0, p*E11} of n x n interval matrices is a "
       "field, so the matrix ring is an S-ring")
def _c_thm_6_3(ctx):
    def check(p):
        ok, info = _two_point_corner_field(2, Mod(2 * p), _C, p)
        return f"p={p}", ok, {"field": ok, "identity": info.get("identity")}
    return _each(((3,), (5,)),
                 "two-element corner field for p in {3,5}, n=2", check)


@claim("ex-6.19",
       "for 3x3 interval matrices over Z6, {0, [3,3]E11} is a field "
       "isomorphic to Z2 (3+3=0 and 3*3=3 mod 6)")
def _c_ex_6_19(ctx):
    ok, info = _two_point_corner_field(3, Mod(6), _O, 3)
    sums = {"3+3 mod 6": (3 + 3) % 6, "3*3 mod 6": (3 * 3) % 6}
    return _verdict(ok and sums["3+3 mod 6"] == 0
                    and sums["3*3 mod 6"] == 3,
                    {"field": True, "3+3 mod 6": 0, "3*3 mod 6": 3},
                    {"field": ok, **sums,
                     "identity": info.get("identity")})


@claim("ex-6.20",
       "for 5x5 interval matrices over Z10, {0, 5E11} is a field")
def _c_ex_6_20(ctx):
    ok, info = _two_point_corner_field(5, Mod(10), _OC, 5)
    return _verdict(ok, {"field": True},
                    {"field": ok, "identity": info.get("identity")})


# ======================================================================
# vector spaces of interval rows and matrices

@claim("ex-7.1",
       "intervals over Q form a vector space of dimension two with "
       "basis {[1,0],[0,1]}")
def _c_ex_7_1(ctx):
    basis = _basis_matrices(1, 1, Q, _C)
    rep = span_dimension(basis, Q)
    extra = basis + [IntervalMatrix(1, 1, (_qiv(1, 1),), domain=Q,
                                    flavor=_C)]
    rep3 = span_dimension(extra, Q)
    agree = (rep["dimension"] == 2 and rep["spans"]
             and rep3["dimension"] == 2 and not rep3["independent"])
    return _verdict(agree,
                    {"dimension": 2, "spans": True,
                     "adding [1,1] stays rank 2": True},
                    {"basis": rep, "with_dependent_vector": rep3})


@claim("ex-7.3",
       "intervals over Z7 form a vector space of dimension two over Z7")
def _c_ex_7_3(ctx):
    return _span_claim(1, 1, Mod(7), _OC, 2)


@claim("ex-7.4",
       "intervals over Z11 form a vector space of dimension two over Z11")
def _c_ex_7_4(ctx):
    return _span_claim(1, 1, Mod(11), _CO, 2)


@claim("ex-7.7",
       "triples of intervals over Q form a vector space of dimension six")
def _c_ex_7_7(ctx):
    return _span_claim(1, 3, Q, _C, 6)


@claim("ex-7.9",
       "n-tuples of intervals over Z11 have dimension 2n (checked at "
       "n = 3)")
def _c_ex_7_9(ctx):
    return _span_claim(1, 3, Mod(11), _C, 6)


@claim("ex-7.12",
       "3x4 interval matrices over Z3 form a vector space of dimension 24")
def _c_ex_7_12(ctx):
    return _span_claim(3, 4, Mod(3), _C, 24)


@claim("ex-7.13",
       "3x3 interval matrices over Z5 form a vector space of dimension 18")
def _c_ex_7_13(ctx):
    return _span_claim(3, 3, Mod(5), _OC, 18)


@claim("ex-7.14",
       "7x2 interval matrices over Q form a vector space of dimension 28")
def _c_ex_7_14(ctx):
    return _span_claim(7, 2, Q, _OC, 28)


@claim("ex-7.15",
       "2x3 interval matrices over the reals form a vector space of "
       "dimension 12")
def _c_ex_7_15(ctx):
    return _span_claim(2, 3, Q, _C, 12,
                       note="realized over exact rationals; the rank "
                            "computation is identical")


@claim("thm-7.4",
       "nonnegative-integer intervals form an S-semiring: the "
       "degenerate diagonal is a semifield inside it")
def _c_thm_7_4(ctx):
    rng = _rng(ctx, 74)
    bad = []
    for _ in range(500):
        a, b = _rand_below(rng, 501), _rand_below(rng, 501)
        x, y = _ziv(a, a), _ziv(b, b)
        if not (x + y).is_degenerate or not (x * y).is_degenerate:
            bad.append((a, b))
        if (x * y == _ziv(0, 0)) and a != 0 and b != 0:
            bad.append(("zero divisor", a, b))
    return _verdict(not bad,
                    "diagonal closed under + and *, with no zero "
                    "divisors, on 500 seeded pairs",
                    bad or "500/500",
                    note="infinite carrier; verified on a seeded sample")


@claim("sec7-strict",
       "interval semirings over the nonnegative integers are strict: "
       "x + y = 0 forces x = y = 0")
def _c_sec7_strict(ctx):
    rep = strictness_suite(cases=20000, seed=ctx["seed"])
    return _verdict(rep["ok"], "0 failures in 20000 seeded cases",
                    {"cases": rep["cases"], "failures": rep["failures"]})


# ======================================================================
# fuzzy intervals on the unit grid

@claim("sec8-fuzzy-values",
       "recorded unit-interval values: [0.1,0.9][0.6,0.2] = [0.06,0.18], "
       "min((0.3,0.7),(1,0.4)) = (0.3,0.4), "
       "max((0.7,0.3),(0.5,0.8)) = (0.7,0.8)")
def _c_sec8_values(ctx):
    prod = _fiv("1/10", "9/10") * _fiv("6/10", "2/10")
    mn = iv_min(_fiv("3/10", "7/10", _O), _fiv(1, "4/10", _O))
    mx = iv_max(_fiv("7/10", "3/10", _O), _fiv("5/10", "8/10", _O))
    agree = (prod == _fiv("6/100", "18/100")
             and mn == _fiv("3/10", "4/10", _O)
             and mx == _fiv("7/10", "8/10", _O))
    return _verdict(agree,
                    {"product": "[0.06,0.18]", "min": "(0.3,0.4)",
                     "max": "(0.7,0.8)"},
                    {"product": str(prod), "min": str(mn),
                     "max": str(mx)})


def _grid_identity(op, claimed, actual):
    """The recorded identity of op (min or max) on the fuzzy grid is the
    degenerate interval `claimed`, which absorbs instead: an erratum when
    it absorbs (0.3,0.7) and the grid's identity is `actual`."""
    s = grid_structure(op)
    fn = {"min": iv_min, "max": iv_max}[op]
    absorbed = fn(_fiv(claimed, claimed), _fiv("3/10", "7/10"))
    e = s.identity_index("mul")
    ident = s.elements[e] if e is not None else None
    if absorbed == _fiv(claimed, claimed) and ident == _fiv(actual, actual):
        return _result("erratum", f"identity is {claimed}",
                       {f"{op}({claimed}, (0.3,0.7))": str(absorbed),
                        "computed_identity": str(ident)},
                       f"{claimed} is absorbing for {op}; the identity on "
                       f"the grid is {actual} = ({actual},{actual})")
    return _result("fail", "the recorded refutation verifies",
                   {f"{op}({claimed},x)": str(absorbed),
                    "identity": str(ident)})


@claim("sec8-min-identity",
       "0 acts as the identity for min on fuzzy intervals")
def _c_sec8_min_identity(ctx):
    return _grid_identity("min", 0, 1)


@claim("sec8-max-identity",
       "1 = (1,1) acts as the identity for max on fuzzy intervals")
def _c_sec8_max_identity(ctx):
    return _grid_identity("max", 1, 0)


@claim("fuzzy-assoc-grid",
       "min, max and the product are associative and commutative on the "
       "unit grid of fuzzy intervals")
def _c_fuzzy_assoc(ctx):
    def check(op):
        rep = fuzzy_semigroup_report(op)
        return (op, rep["associative"] and rep["commutative"],
                {"associative": rep["associative"],
                 "commutative": rep["commutative"],
                 "method": rep["associativity_method"]})
    return _each((("min",), ("max",), ("prod",)),
                 "all three operations associative and commutative", check)


# ======================================================================
# neutrosophic intervals

@claim("ex-9.4",
       "over Z12 neutrosophic multiples: [0,4I]^2 = [0,4I], "
       "[0,3I][0,4I] = 0, [6I,0]^2 = 0, [0,11I]^2 = [0,I]")
def _c_ex_9_4(ctx):
    d = PureNeutroDomain(Mod(12))

    def piv(a, b):
        return interval(d, a % 12, b % 12, _O)

    got = {
        "[0,4I]^2": str(piv(0, 4) ** 2),
        "[0,3I][0,4I]": str(piv(0, 3) * piv(0, 4)),
        "[6I,0]^2": str(piv(6, 0) ** 2),
        "[0,11I]^2": str(piv(0, 11) ** 2),
    }
    want = {"[0,4I]^2": str(piv(0, 4)),
            "[0,3I][0,4I]": str(piv(0, 0)),
            "[6I,0]^2": str(piv(0, 0)),
            "[0,11I]^2": str(piv(0, 1))}
    return _verdict(got == want, want, got)


@claim("ex-9.67",
       "over rational neutrosophic pairs: with x = [5+2I,-7+5I] and "
       "y = [-3+8I,-I], x+y = [2+10I,-7+4I] and xy = [-15+50I,2I]")
def _c_ex_9_67(ctx):
    d = MixedNeutroDomain(Q)

    def sc(a, b):
        return (Fraction(a), Fraction(b))

    x = interval(d, sc(5, 2), sc(-7, 5), _C)
    y = interval(d, sc(-3, 8), sc(0, -1), _C)
    got = {"x+y": str(x + y), "xy": str(x * y)}
    want = {"x+y": str(interval(d, sc(2, 10), sc(-7, 4), _C)),
            "xy": str(interval(d, sc(-15, 50), sc(0, 2), _C))}
    return _verdict(got == want, want, got)


# ----------------------------------------------------------------------
# runner

def run_verification(seed=0, only=None):
    """Execute the registry in catalogue order.

    ``only`` restricts to an iterable of claim ids.  A checker that
    raises is reported as a fail, never as a crash of the runner.
    """
    ctx = {"seed": seed, "collapses": {}}
    wanted = set(only) if only else None
    claims = []
    counts = {"pass": 0, "fail": 0, "erratum": 0, "skipped": 0}
    for claim_id, citation, fn in _REGISTRY:
        if wanted is not None and claim_id not in wanted:
            continue
        try:
            status, expected, computed, note = fn(ctx)
        except Exception as exc:  # noqa: BLE001 - any crash is a failure
            status, expected, computed, note = _result(
                "fail", "checker completes", f"{type(exc).__name__}: {exc}")
        record = {"claim_id": claim_id, "status": status,
                  "expected": _safe(expected), "computed": _safe(computed),
                  "citation": citation}
        if note:
            record["note"] = note
        claims.append(record)
        counts[status] += 1
    return {
        "schema": SCHEMA,
        "tool": "verify-book",
        "seed": seed,
        "claims": claims,
        "counts": counts,
        "ok": counts["fail"] == 0,
    }
