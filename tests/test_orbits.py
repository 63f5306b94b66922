"""Element facts read off the memoized orbits, units and zero-product
masks, against a brute force.

Nilpotency indices, identity orders, return exponents, additive spans
and the return exponents of quotient classes all come from
FiniteStructure.orbit.  The reference here takes the powers x, x∘x,
(x∘x)∘x, ... of each element with element arithmetic (s.apply), up to
n+1 of them, and stops at the first power outside the carrier.  Among
n+1 powers of an element of an n-element carrier one repeats, and the
sequence is periodic from there, so every fact below shows within them.

Units and their inverses, each op's inverses verdict, maximal subgroups
and the field verdict come from one search for each element's first
two-sided inverse (_inverse_bands, read by FiniteStructure.units and
.inverses and by _inverse_of); zero divisors,
S-zero-divisors and the first zero pair of a strict or semifield check
from _zero_products.  Their reference here is a table of products, each
taken with s.apply, searched pair by pair in carrier order.
"""

import numpy as np
import pytest

from natint import structures
from natint.carriers import build_carrier
from natint.quotients import (
    parse_ideal_spec,
    rees_quotient,
    semifield_verdict,
    standard_quotient,
)
from natint.structures import (
    FiniteStructure,
    _additive_span,
    _field_verdict,
    _inverse_of,
    _ring_verdict,
    _zero_index,
    find_special_elements,
    is_strict_semiring,
    maximal_subgroups,
)
from natint.verify import _power_return_exponents

CARRIERS = ([f"N(Zn:{k})" for k in range(2, 11)]
            + ["N(ZnI:4)", "N(Zn+I:2)", "N(Zn:7)\\0", "Fuzzy(max,step=1/4)",
               "Fuzzy(prod,step=1/4)", "Mat(1,2,N(Zn:2))",
               "Poly(N(Zn:2),cyc=2)",
               # 1+1 = 2 and 3+3 = 2 leave the subset.
               "Sub{[0,0],[1,1],[3,3]} of N(Zn:4)"])
# (kind, ambient, ideal); the Rees quotients of N(Zn:12) have many zero
# products, and only the one by col-zero has S-zero-divisors.
QUOTIENTS = {"rees col-zero": (rees_quotient, "N(Zn:6)", "col-zero"),
             "standard gen{[2,2]}": (standard_quotient, "N(Zn:6)",
                                     "gen{[2,2]}"),
             "rees N(Zn:12) col-zero": (rees_quotient, "N(Zn:12)",
                                        "col-zero"),
             "rees N(Zn:12) diag-multiples:2": (rees_quotient, "N(Zn:12)",
                                                "diag-multiples:2")}


def quotient(name):
    make, spec, ideal = QUOTIENTS[name]
    s = build_carrier(spec)
    return make(s, parse_ideal_spec(s, ideal))


def all_structures():
    for spec in CARRIERS:
        yield spec, build_carrier(spec)
    for name in QUOTIENTS:
        yield name, quotient(name)


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


@pytest.mark.parametrize("name,s", list(all_structures()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_the_walk_of_every_element_matches_brute_force_powers(name, s):
    # orbit(op, i) and the walk's arrays hold the distinct powers up to
    # the first repeat, and then the repeat, or -1 for a power outside
    for op in ("add", "mul"):
        if not s.has_op(op):
            continue
        w = s._orbits(op)
        assert w.powers.shape == (w.length.max(), s.n)
        assert w.powers.dtype == np.int32
        for i in range(s.n):
            pw = powers(s, op, i)
            stop = next(k for k, p in enumerate(pw)
                        if p is None or p in pw[:k])
            want = (tuple(pw[:stop]), -1 if pw[stop] is None else pw[stop])
            assert s.orbit(op, i) == want, (op, s.label(i))
            assert w.powers[:, i].tolist() == list(want[0]) + [-1] * (
                len(w.powers) - stop)


def additive_orders(t, z):
    """Each element's additive order as a loop of numpy scalar reads finds
    it: q = t[q, i] from q = i, at most n steps, and a -1 sum read as
    numpy reads t[-1, i], as the last row (bug 7b)."""
    n, out = len(t), []
    for i in range(n):
        q, m = i, 1
        while q != z and m <= n:
            q = int(t[q, i])
            m += 1
        out.append(m if q == z else None)
    return out


@pytest.mark.parametrize("name,s", list(all_structures()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_additive_orders_read_a_lost_sum_as_the_last_row(name, s):
    if not s.has_op("add") or s.n > structures.ORDERS_CAP:
        return
    rep = find_special_elements(s, with_orders=True)
    assert [e["additive_order"] for e in rep["element_orders"]] == \
        additive_orders(s.table("add"), s.identity_index("add"))


@pytest.mark.parametrize("n", (1, 2, 5, 9, 33))
def test_wrapped_walks_of_random_tables_match_the_loop(n):
    # sums leave the carrier often, and the zero is sometimes the last
    # element, whose row a lost sum is read as
    rng = np.random.default_rng(n)
    for trial in range(20):
        t = rng.integers(-1, n, (n, n)).astype(np.int32)
        z = n - 1 if trial % 2 else int(rng.integers(n))
        w = structures._walk(t, wrap=True)
        hits = w.powers == z
        got = np.where(hits.any(axis=0), hits.argmax(axis=0) + 1, 0)
        assert [k or None for k in got.tolist()] == additive_orders(t, z)
        assert (w.end >= 0).all()
        assert w.powers.dtype == np.int32 and len(w.powers) <= n + 1


@pytest.mark.parametrize("n", (16, 17, 40))
def test_a_cyclic_walk_takes_no_more_than_its_table(n):
    # an element of order n walks n powers: the powers are n x n int32,
    # as large as the table, and grow no further
    t = (np.add.outer(np.arange(n), np.arange(n)) % n).astype(np.int32)
    w = structures._walk(t)
    assert w.powers.shape == (n, n) and w.powers.dtype == np.int32
    assert w.powers[:, 1].tolist() == list(range(1, n)) + [0]
    lost = np.where(t == 0, -1, t).astype(np.int32)
    w = structures._walk(lost, wrap=True)
    assert len(w.powers) <= n + 1 and w.powers.dtype == np.int32


def test_the_subset_reaches_both_ends_of_a_walk():
    """The subset has walks that end in a repeat and walks that leave;
    its additive orders read each lost sum as the last row, [3,3]: so
    [1,1] + [1,1] = [2,2] reads as [3,3], and [3,3] + [1,1] = [0,0]
    gives [1,1] the order 3, while [3,3] + [3,3] reads as [3,3] again and
    never reaches zero."""
    s = build_carrier("Sub{[0,0],[1,1],[3,3]} of N(Zn:4)")
    assert [s.orbit("add", i)[1] for i in range(3)] == [0, -1, -1]
    assert [_additive_span(s, i) for i in range(3)] == [
        frozenset({0}), None, None]
    rep = find_special_elements(s, with_orders=True)
    assert [e["additive_order"] for e in rep["element_orders"]] == [
        1, 3, None]
    assert s.characteristic() == 3


@pytest.mark.parametrize("name", QUOTIENTS)
def test_quotient_return_exponents_match_brute_force(name):
    q = quotient(name)
    want = {q.label(i): least_power(powers(q, "mul", i), i, start=2)
            for i in range(1, q.n)}
    assert _power_return_exponents(q) == want
    assert any(v is not None for v in want.values())


# ----------------------------------------------------------------------
# units and zero products

# e is the identity; a∘b = e but b∘a = a, so neither a nor b has a
# two-sided inverse, though a has a one-sided one.
ONE_SIDED = {("a", "a"): "b", ("a", "b"): "e", ("b", "a"): "a",
             ("b", "b"): "a"}


def one_sided():
    return FiniteStructure(
        ["e", "a", "b"], name="one-sided",
        mul=lambda x, y: y if x == "e" else x if y == "e" else ONE_SIDED[
            x, y])


# e is the identity.  a's first right inverse b is one-sided (b∘a = b) and
# its next one, c, is two-sided; d's only right inverse, b, is one-sided
# (b∘d = b), so d has no inverse; b has no right inverse at all.
RIGHT_INVERSES = {("a", "b"): "e", ("a", "c"): "e", ("c", "a"): "e",
                  ("d", "b"): "e"}


def right_inverses():
    return FiniteStructure(
        ["e", "a", "b", "c", "d"], name="right-inverses",
        mul=lambda x, y: y if x == "e" else x if y == "e" else
        RIGHT_INVERSES.get((x, y), x))


def fact_structures():
    yield from all_structures()
    yield "one-sided", one_sided()
    yield "right-inverses", right_inverses()


def products(s, op):
    """t[i][j] is the carrier index of x_i∘x_j, or None outside it."""
    return [[s.index.get(s.apply(op, x, y)) for y in s.elements]
            for x in s.elements]


def identity(t):
    """The first e with e∘x = x∘e = x for every x, or None."""
    n = len(t)
    return next((e for e in range(n)
                 if all(t[e][x] == x == t[x][e] for x in range(n))), None)


def first_inverse(t, e, i, among):
    """The first j of among with i∘j = j∘i = e, or None."""
    return next((j for j in among if t[i][j] == e == t[j][i]), None)


def first_missing_inverse(t, e):
    """The first i with no two-sided inverse for e, or None."""
    return next((i for i in range(len(t))
                 if first_inverse(t, e, i, range(len(t))) is None), None)


def first_zero_pair(t, z):
    """The first (i, j) in C order, both nonzero, with i∘j = z."""
    n = len(t)
    return next(((i, j) for i in range(n) for j in range(n)
                 if z not in (i, j) and t[i][j] == z), None)


def s_zero_divisors(t, z):
    """The quadruples of _s_zero_divisors: x <= y nonzero with xy = 0, and
    the first a, b in C order outside {0, x, y} with xa = 0, yb = 0 and
    ab != 0."""
    n, out = len(t), []
    for x in range(n):
        for y in range(x, n):
            if z in (x, y) or t[x][y] != z:
                continue
            a_set = [a for a in range(n)
                     if a not in (z, x, y) and t[x][a] == z]
            b_set = [b for b in range(n)
                     if b not in (z, x, y) and t[y][b] == z]
            hit = next(((a, b) for a in a_set for b in b_set
                        if t[a][b] != z), None)
            if hit is not None:
                out.append((x, y) + hit)
    return out


@pytest.mark.parametrize("name,s", list(fact_structures()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_units_and_zero_divisors_match_brute_force(name, s):
    rep = find_special_elements(s, with_orders=False)
    t = products(s, "mul")
    every = range(s.n)
    one = identity(t)
    assert s.identity_index("mul") == one
    inverses = [None if one is None else first_inverse(t, one, i, every)
                for i in every]
    assert rep["units"] == [{"x": s.label(i), "inverse": s.label(j)}
                            for i, j in enumerate(inverses) if j is not None]
    if one is None:
        assert s.units() is None
    else:
        assert s.units().tolist() == [-1 if j is None else j
                                      for j in inverses]

    z = _zero_index(s)
    zd = []
    for i in every:
        j = None if z in (None, i) else next(
            (j for j in every if j != z and z in (t[i][j], t[j][i])), None)
        if j is not None:
            zd.append({"x": s.label(i), "witness": s.label(j)})
    assert rep["zero_divisors"] == zd
    assert rep["s_zero_divisors"] == ([] if z is None else [
        dict(zip("xyab", s.labels(q))) for q in s_zero_divisors(t, z)])


def random_zero_table(n, seed):
    """A mul table on n elements with an absorbing zero z > 0, products
    outside the carrier (-1), and a share of zero products drawn from
    sparse to dense; it is not commutative."""
    rng = np.random.default_rng(seed)
    z = int(rng.integers(1, n))
    t = rng.integers(0, n, (n, n))
    t[rng.random((n, n)) < rng.uniform(0.05, 0.95)] = z
    t[rng.random((n, n)) < 0.05] = -1
    t[(z + 1) % n, (z + 2) % n] = -1
    t[z] = t[:, z] = z
    return t, z


# Around the byte and 64-bit word boundaries of the packed rows; one row
# per block of candidates when the band holds a single entry.
@pytest.mark.parametrize("band", (None, 1))
@pytest.mark.parametrize("n", (7, 8, 9, 63, 64, 65, 129))
def test_s_zero_divisors_of_random_tables_match_brute_force(monkeypatch, n,
                                                            band):
    if band is not None:
        monkeypatch.setattr(structures, "_BAND_ENTRIES", band)
    found = 0
    for seed in range(3):
        t, z = random_zero_table(n, 1000 * n + seed)
        assert (t != t.T).any() and (t == -1).any()
        s = FiniteStructure(range(n), tables={"mul": t})
        got = structures._s_zero_divisors(s, structures._zero_products(t, z))
        assert got == [dict(zip("xyab", s.labels(q)))
                       for q in s_zero_divisors(t.tolist(), z)]
        found += len(got)
    assert found


@pytest.mark.parametrize("name,s", list(fact_structures()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_inverses_match_brute_force(name, s):
    for op in ("add", "mul"):
        if not s.has_op(op):
            continue
        t = products(s, op)
        e = identity(t)
        assert s.identity_index(op) == e
        if e is None:
            assert s.inverses(op) == (None, None)
            continue
        missing = first_missing_inverse(t, e)
        assert s.inverses(op) == (missing is None, missing), op


@pytest.mark.parametrize("band_rows", (1, 2, 64))
def test_first_two_sided_inverse_follows_a_one_sided_one(monkeypatch,
                                                          band_rows):
    s = right_inverses()
    monkeypatch.setattr(structures, "_BAND_ENTRIES", band_rows * s.n)
    assert s.units().tolist() == [0, 3, -1, 1, -1]
    assert s.inverses("mul") == (False, 2)
    t = s.table("mul")
    assert _inverse_of(t, 0).tolist() == [0, 3, -1, 1, -1]
    # without b, d is the first element with no inverse
    keep = [0, 1, 3, 4]
    assert s.restrict(keep).inverses("mul") == (False, 3)
    assert _inverse_of(t[np.ix_(keep, keep)], 0).tolist() == [0, 2, 1, -1]


@pytest.mark.parametrize("name,s", list(fact_structures()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_first_zero_pairs_match_brute_force(name, s):
    z = _zero_index(s)
    sf = semifield_verdict(s)
    if z is None:
        assert sf["has_zero_divisors"] is None
    else:
        hit = first_zero_pair(products(s, "mul"), z)
        assert sf["has_zero_divisors"] == (hit is not None)
        assert sf.get("zero_divisor_witness") == (
            None if hit is None else s.labels(hit))

    if not s.has_op("add"):
        return
    t = products(s, "add")
    z = identity(t)
    hit = None if z is None else first_zero_pair(t, z)
    want = ((None if z is None else hit is None),
            None if hit is None else tuple(s.labels(hit)))
    assert is_strict_semiring(s) == want
    assert sf.get("strict_counterexample") == (
        None if hit is None else list(want[1]))


@pytest.mark.parametrize("name,s", list(fact_structures()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_maximal_subgroups_match_brute_force(name, s):
    t = products(s, "mul")
    want = []
    for e in range(s.n):
        if t[e][e] != e:
            continue
        corner = [x for x in range(s.n) if t[e][x] == x == t[x][e]]
        members = [x for x in corner
                   if first_inverse(t, e, x, corner) is not None]
        want.append({"idempotent": s.label(e), "order": len(members),
                     "members": s.labels(members)})
    assert maximal_subgroups(s) == want


def diagonal(spec):
    s = build_carrier(spec)
    return s.restrict([i for i, e in enumerate(s.elements)
                       if e.is_degenerate])


FIELD_CASES = {"N(Zn:5) diagonal": lambda: diagonal("N(Zn:5)"),
               "N(Zn:6) diagonal": lambda: diagonal("N(Zn:6)"),
               "N(Zn:7)": lambda: build_carrier("N(Zn:7)"),
               "Poly(N(Zn:2),cyc=2)":
                   lambda: build_carrier("Poly(N(Zn:2),cyc=2)")}


@pytest.mark.parametrize("name", FIELD_CASES)
def test_field_verdict_matches_brute_force(name):
    """Past the ring and commutativity checks, a field is a structure in
    which every nonzero element has an inverse."""
    s = FIELD_CASES[name]()
    ok, info = _field_verdict(s)
    assert _ring_verdict(s)[0] and s.commutative("mul")[0]
    t = products(s, "mul")
    one, zero = identity(t), identity(products(s, "add"))
    missing = next((i for i in range(s.n) if i != zero and first_inverse(
        t, one, i, range(s.n)) is None), None)
    assert ok == (missing is None)
    assert info.get("witness") == (
        None if missing is None else s.label(missing))
