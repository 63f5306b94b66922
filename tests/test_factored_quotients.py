"""Ideal verdicts and quotients of product carriers, read off their
factors, against the scans of the whole carrier.

On a full product whose factors' additive inverses are unique, a subset
P x Q is an ideal exactly when P and Q are ideals of the factors; with
unity, the standard quotient by it is R/P x S/Q; and the class tables
are composed from the part tables.  Each check compares the is_ideal
verdict and the full quotient report with a twin that holds the same
tables but no product form, so every answer of the twin comes from the
carrier's own tables.  On a product with unity, an ideal must build no
table of the carrier; a subset that fails falls through to the scan and
must give the twin's first witness.
"""

import functools

import numpy as np
import pytest

from natint import cli, quotients, structures
from natint.carriers import build_carrier
from natint.errors import NotAnIdeal, ParseError
from natint.quotients import (
    Ideal,
    QuotientStructure,
    enumerate_ideals,
    is_ideal,
    parse_ideal_spec,
    quotient_analysis,
    rees_quotient,
    semifield_verdict,
    standard_quotient,
)
from natint.structures import FiniteStructure, is_strict_semiring
from conftest import built_twin
from test_factored_ideals import NO_UNITY, RING_PRODUCTS
from test_factored_substructures import REORDERED

FLAVORS = ("c", "o", "oc", "co")
CARRIERS = ([f"N(Zn:{k},{f})" for k in range(2, 13) for f in FLAVORS]
            + ["N(ZnI:4)", "N(Zn+I:2)", "Mat(1,2,N(Zn:2))",
               "Poly(N(Zn:2),cyc=2)", NO_UNITY])
# subsets that are no product, whose cosets are read off blocks of the
# subset's add table: the diagonal of N(Zn:4) and the pairs of N(Zn:6)
# congruent mod 3
NOT_PRODUCTS = ["Sub{[0,0],[1,1],[2,2],[3,3]} of N(Zn:4)",
                "Sub{[0,0],[0,3],[1,1],[1,4],[2,2],[2,5],[3,0],[3,3],[4,1],"
                "[4,4],[5,2],[5,5]} of N(Zn:6)"]
KINDS = {"rees": rees_quotient, "standard": standard_quotient}


def _answer(decide):
    try:
        return decide()
    except (NotAnIdeal, ParseError) as e:
        return type(e).__name__, str(e)


def answers(s, indices):
    """is_ideal of the subset and the report of each quotient by it."""
    out = {"is_ideal": is_ideal(s, indices)}
    for kind, make in KINDS.items():
        out[kind] = _answer(
            lambda: quotient_analysis(make(s, Ideal(s, indices))))
    return out


def failing_subsets(s):
    """Product subsets {0, p} x Q and P x {0, q} of one fresh carrier,
    most of which are no ideal, and two subsets that are no product: the
    union of the two lines through zero, and the diagonal."""
    f = s._factors()
    c = s._coords()
    zero_lo = f[0].identity_index("add")
    zero_hi = f[-1].identity_index("add")
    m_lo, m_hi = c.grid.shape
    subsets = []
    for p in range(min(m_lo, 4)):
        subsets.append(c.grid[np.ix_([zero_lo, p], range(m_hi))])
    for q in range(min(m_hi, 4)):
        subsets.append(c.grid[np.ix_(range(m_lo), [zero_hi, q])])
    subsets.append(np.union1d(c.grid[zero_lo], c.grid[:, zero_hi]))
    if m_lo == m_hi:
        subsets.append(np.diagonal(c.grid))
    return [sorted(set(np.ravel(x).tolist())) for x in subsets]


@pytest.mark.parametrize("spec", CARRIERS + NOT_PRODUCTS)
def test_product_ideals_and_quotients_match_the_twin(spec):
    twin = built_twin(build_carrier(spec))
    splits = quotients._ideal_factors(build_carrier(spec)) is not None
    for ideal in enumerate_ideals(build_carrier(spec)):
        s = build_carrier(spec)
        assert answers(s, ideal.indices) == answers(twin, ideal.indices)
        assert not (splits and s._tables), (spec, ideal.indices)


@pytest.mark.parametrize("spec", CARRIERS)
def test_failing_subsets_keep_the_twins_witness(spec):
    twin = built_twin(build_carrier(spec))
    subsets = failing_subsets(build_carrier(spec))
    verdicts = []
    for indices in subsets:
        s = build_carrier(spec)
        got = answers(s, indices)
        assert got == answers(twin, indices), (spec, indices)
        verdicts.append(got["is_ideal"][0])
    assert False in verdicts


def test_is_ideal_reads_a_product_without_unity_off_its_factors():
    # {0, 2} of Z4 has no unity, but its additive inverses are unique
    s = build_carrier(NO_UNITY)
    assert quotients._ideal_factors(s) is None
    col = parse_ideal_spec(s, "col-zero")
    assert is_ideal(s, col.indices) == (True, {"order": 2})
    assert not s._tables


@pytest.mark.parametrize("argv, code", [
    pytest.param(argv, code, id=" ".join(argv)) for argv, code in [
        (["ideal", "N(Zn:40)", "col-zero"], 0),
        (["ideal", "N(Zn:30)", "diag-multiples:5"], 0),
        (["ideal", "Mat(2,2,N(Zn:3))"], 0),
        # a product of left ideals that fails on the factors: its witness
        # is read from blocks of the carrier's table, never the whole table
        (["ideal", "Mat(2,2,N(Zn:3))", "col-zero"], 4),
        (["quotient", "N(Zn:53)", "col-zero", "--kind", "rees"], 0),
        (["quotient", "N(Zn:53)", "col-zero", "--kind", "standard"], 0),
    ]])
def test_product_ideals_build_no_carrier_table(monkeypatch, capsys, argv,
                                               code):
    built = FiniteStructure.table

    def refuse(self, op):
        if self.diag is not None and op not in self._tables:
            raise AssertionError("a table of the whole carrier was built")
        return built(self, op)

    monkeypatch.setattr(FiniteStructure, "table", refuse)
    assert cli.main(argv) == code
    assert capsys.readouterr().out


# ----------------------------------------------------------------------
# blocks read in bands

# full products listed lo-major (N(D)) and not (Mat, Poly), and a subset
# that is no full product
BAND_CARRIERS = ("N(Zn:4,c)", "N(Zn:6)", "N(Zn:5,o)", "Mat(1,2,N(Zn:2))",
                 "Mat(2,1,N(Zn:2))", "Poly(N(Zn:2),cyc=2)",
                 "Sub{[0,0],[1,1],[3,3],[1,2],[2,0]} of N(Zn:4)")


def blocks(s, spec):
    """(op, rows, cols, relabel) for the class tables of both quotient
    kinds by every ideal of s, the tables restrict reads, and empty rows
    and columns."""
    every = np.arange(s.n)
    ident = every.astype(np.int32)
    try:
        ideals = enumerate_ideals(build_carrier(spec))
    except NotAnIdeal:  # the subset's addition is no group
        ideals = []
    for op in ("add", "mul"):
        for ideal in ideals:
            for make in KINDS.values():
                q = make(s, Ideal(s, ideal.indices, name="J"))
                r = np.asarray(q.reps)
                yield op, r, r, q.class_of
            rows = np.asarray(ideal.indices)
            relabel = np.full(s.n, -1, dtype=np.int32)
            relabel[rows] = np.arange(len(rows))
            yield op, rows, rows, relabel
        yield op, every[:0], every, ident
        yield op, every, every[:0], ident
        yield op, every[::-1], every, ident


@pytest.mark.parametrize("band_rows", (1, 2, 3))
@pytest.mark.parametrize("spec", BAND_CARRIERS)
def test_banded_blocks_match_the_built_table(monkeypatch, spec, band_rows):
    # bands of 2 or 3 rows split the runs of rows that share a part, and
    # the last band of an odd number of rows is partial; the twin's
    # blocks are read in bands of its built tables
    twin = built_twin(build_carrier(spec))
    s = build_carrier(spec)
    for op, rows, cols, relabel in blocks(s, spec):
        monkeypatch.setattr(structures, "_BAND_ENTRIES",
                            band_rows * len(cols))
        want = structures._relabel(
            twin.table(op).take(rows, axis=0).take(cols, axis=1), relabel)
        for got in (s._block(op, rows, cols, relabel),
                    twin._block(op, rows, cols, relabel)):
            assert got.dtype == np.int32 and got.shape == want.shape
            assert np.array_equal(got, want), (op, rows, cols)
    assert not s._tables
    monkeypatch.setattr(structures, "_BAND_ENTRIES", band_rows * s.n)
    fresh = build_carrier(spec)
    for op in ("add", "mul"):
        assert np.array_equal(fresh.table(op), twin.table(op)), op
    odd = list(range(s.n - 1, -1, -2))
    monkeypatch.setattr(structures, "_BAND_ENTRIES", band_rows * len(odd))
    sub, twin_sub = s.restrict(odd), twin.restrict(odd)
    for op in ("add", "mul"):
        assert np.array_equal(sub.table(op), twin_sub.table(op)), op


def test_band_carriers_cover_every_composer_path():
    coords = [build_carrier(spec)._coords() for spec in BAND_CARRIERS]
    assert {c.grid is not None for c in coords} == {True, False}


VIEW_CARRIERS = ("N(Zn:6)", "N(Zn:5,o)", "N(ZnI:4)", "Mat(1,2,N(Zn:2))",
                 NO_UNITY)


def class_twin(cls, amb_twin):
    """The classes cls as a structure of their own, with cls's ops: its
    class tables read off the built tables of amb_twin, the twin of cls's
    ambient, and no view, so every fact is scanned off those tables."""
    _, reps, class_of = cls.view
    return FiniteStructure(cls.elements, mul=cls.mul_fn, add=cls.add_fn,
                           tables={op: structures._relabel(
                               amb_twin.table(op).take(reps, axis=0).take(
                                   reps, axis=1), class_of)
                               for op in ("add", "mul")})


def view_facts(s):
    return ([s.identity_index(op) for op in ("add", "mul")],
            s.characteristic(), None if s.units() is None else
            s.units().tolist(), [s.inverses(op) for op in ("add", "mul")])


@pytest.mark.parametrize("band_rows", (1, 3))
@pytest.mark.parametrize("spec", VIEW_CARRIERS)
def test_quotient_views_read_facts_off_the_ambient(monkeypatch, spec,
                                                  band_rows):
    # identities, characteristic, units and inverses of the classes, read
    # in bands off the ambient, match a twin holding the built class
    # tables; where the ambient has both identities, no class table is
    # built for them unless it fits in one band
    s = build_carrier(spec)
    amb_twin = built_twin(build_carrier(spec))
    has_units = all(s.identity_index(op) is not None for op in ("add", "mul"))
    for ideal in enumerate_ideals(s):
        for make in KINDS.values():
            cls = make(s, Ideal(s, ideal.indices, name="J"))
            twin = class_twin(cls, amb_twin)
            monkeypatch.setattr(structures, "_BAND_ENTRIES",
                                band_rows * cls.n)
            assert view_facts(cls) == view_facts(twin), cls.name
            rows = np.arange(cls.n)[::-1]
            relabel = rows.astype(np.int32)
            for op in ("add", "mul"):
                assert np.array_equal(
                    cls._block(op, rows, rows[::2], relabel),
                    twin._block(op, rows, rows[::2], relabel)), cls.name
            if has_units:
                small = cls.n * cls.n <= structures._BAND_ENTRIES
                assert bool(cls._tables) == small, cls.name


@pytest.mark.parametrize("subset,identity", (
    # in Z6 x Z6, (3,3) is the identity of {0,3} x {0,3}: the ambient's
    # identity is no element of it, and [0,0], [0,3] and [3,0] are
    # candidates (idempotents that 0 absorbs) that their rows refute
    (("[0,0]", "[0,3]", "[3,0]", "[3,3]"), 3),
    (("[0,0]", "[2,2]", "[4,4]", "[3,3]"), None),
    (("[0,0]", "[1,1]", "[5,5]"), 1)))
def test_a_view_finds_its_identity_without_its_table(monkeypatch, subset,
                                                    identity):
    monkeypatch.setattr(structures, "_BAND_ENTRIES", 1)
    s = build_carrier("N(Zn:6)")
    rows = [s.index[s.parse_element(x)] for x in subset]
    view = s.restrict(rows)
    assert view.identity_index("mul") == identity
    assert not view._tables
    # a subset whose table is built is searched on the table's slices
    twin = s.restrict(rows)
    twin.table("mul")
    assert twin.identity_index("mul") == identity


def test_factored_bands_fill_the_block_band_by_band(monkeypatch):
    s = build_carrier("Mat(1,2,N(Zn:2))")
    every = np.arange(s.n)
    monkeypatch.setattr(structures, "_BAND_ENTRIES", 3 * s.n)
    want = s._block("mul", every, every)
    (side,) = s._sides()
    got = [(start, band.copy()) for start, band in structures._factored_bands(
        side.table("mul"), side.table("mul"), s._coords(), every, every)]
    assert [start for start, _ in got] == list(range(0, s.n, 3))
    assert np.array_equal(np.concatenate([band for _, band in got]), want)


def test_product_characteristic_reads_one_column_of_the_parts():
    s = build_carrier("N(Zn:6)")
    assert s.characteristic() == 6
    assert not s._tables
    assert built_twin(s).characteristic() == 6


# ----------------------------------------------------------------------
# quotient verdicts read in bands, and closure proven on the ambient

OPS = ("add", "mul")


def quotient_verdicts(q, cls):
    """The verdicts of the quotient q that a view reads in bands or
    proves on its ambient, on the class structure cls: q itself, or a
    twin of it."""
    return ([cls.closed(op) for op in OPS], [q.well_defined(op) for op in OPS],
            semifield_verdict(cls), is_strict_semiring(cls))


def twin_quotient(q, amb_twin):
    """q over the twin of its ambient, with both class tables built before
    any fact is read, so its comparisons read rows of its class tables."""
    twin = QuotientStructure(amb_twin, Ideal(amb_twin, q.ideal.indices,
                                             name=q.ideal.name), q.kind)
    twin._is_ideal = q._is_ideal
    for op in OPS:
        twin.table(op)
    return twin


@pytest.mark.parametrize("band_rows", (1, 3))
@pytest.mark.parametrize("spec", VIEW_CARRIERS + ("N(Zn+I:2)",
                                                  "Poly(N(Zn:2),cyc=2)"))
def test_quotient_verdicts_match_the_twin(monkeypatch, spec, band_rows):
    # closure, well-definedness with its witness, the semifield verdict
    # and strictness with their first zero pairs, read in bands of one or
    # three rows of classes.  Each ambient is a full product, proven
    # closed and commutative by its factors, so no class table is built
    # unless it fits in one band
    s = build_carrier(spec)
    amb_twin = built_twin(build_carrier(spec))
    mismatches = set()
    for ideal in enumerate_ideals(s):
        for make in KINDS.values():
            q = make(s, Ideal(s, ideal.indices, name="J"))
            twin = twin_quotient(q, amb_twin)
            monkeypatch.setattr(structures, "_BAND_ENTRIES", band_rows * q.n)
            got = quotient_verdicts(q, q)
            assert got == quotient_verdicts(
                twin, class_twin(q, amb_twin)), (q.name, got)
            mismatches.update(ok for ok, _ in got[1])
            small = q.n * q.n <= structures._BAND_ENTRIES
            assert bool(q._tables) <= small, q.name
            monkeypatch.undo()
    assert False in mismatches


@pytest.mark.parametrize("band_rows", (1, 3))
def test_a_compare_that_passes_reads_every_band(monkeypatch, band_rows):
    # without is_ideal no congruence lemma applies, so the standard add of
    # the classes is compared band by band over all of N(Zn:6) and passes
    s = build_carrier("N(Zn:6)")
    amb_twin = built_twin(build_carrier("N(Zn:6)"))
    q = QuotientStructure(s, parse_ideal_spec(s, "col-zero"), "standard")
    twin = twin_quotient(q, amb_twin)
    monkeypatch.setattr(structures, "_BAND_ENTRIES", band_rows * q.n)
    bands = []
    read = FiniteStructure._bands

    def counted(self, op, *args, **kwargs):
        for lo, band in read(self, op, *args, **kwargs):
            if kwargs.get("relabel") is q.class_of:  # the true classes
                bands.append(lo)
            yield lo, band

    monkeypatch.setattr(FiniteStructure, "_bands", counted)
    assert q.well_defined("add") == twin.well_defined("add") == (True, None)
    step = max(1, structures._BAND_ENTRIES // s.n)
    assert bands == list(range(0, s.n, step))
    assert not q._tables


def test_a_closed_ambient_proves_a_quotient_but_not_a_subset_closed():
    s = build_carrier("N(Zn:6)")
    q = rees_quotient(s, parse_ideal_spec(s, "col-zero"))
    assert q.closed("add") == (True, None)
    assert not q._tables
    # {[0,0], [1,1]}: [1,1] + [1,1] = [2,2] leaves the subset
    rows = [s.index[s.parse_element(x)] for x in ("[0,0]", "[1,1]")]
    twin = built_twin(s).restrict(rows)
    assert s.restrict(rows).closed("add") == twin.closed("add") == (
        False, (1, 1))


@pytest.mark.parametrize("band_rows", (1, 2))
def test_first_zero_pair_matches_the_whole_mask(monkeypatch, band_rows):
    # the zero is element 0, the last element or one in between, so its
    # row falls in the first, the last or a middle band
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 9):
        for z in {0, n // 2, n - 1}:
            t = rng.integers(-1, 3, size=(n, n)).astype(np.int32)
            t[z] = z
            s = FiniteStructure(range(n), tables={"add": t})
            monkeypatch.setattr(structures, "_BAND_ENTRIES", band_rows * n)
            want = structures._first_true(structures._zero_products(t, z))
            assert structures._first_zero_pair(s, "add", z) == want, (n, z)


@pytest.mark.parametrize("ideal", ("col-zero", "row-zero"))
def test_a_large_rees_quotient_builds_no_class_table(monkeypatch, ideal):
    built = FiniteStructure.table

    def refuse(self, op):
        if (self.view is not None and op not in self._tables
                and self.n * self.n > structures._BAND_ENTRIES):
            raise AssertionError(f"the {op} class table was built")
        return built(self, op)

    monkeypatch.setattr(FiniteStructure, "table", refuse)
    s = build_carrier("N(Zn:53)")
    report = quotient_analysis(rees_quotient(s, parse_ideal_spec(s, ideal)))
    assert report["classes"] == 2757
    assert report["semifield"]["has_zero_divisors"] is False
    assert report["semifield"]["strict_addition"] is False


# ----------------------------------------------------------------------
# the Rees lemmas: a Rees quotient that reads off its ambient reads its
# additive inverses and its first zero pair of mul off its ideal

# every full product with an addition, N(Zn:6) listed so that its zero is
# no first element (its col-zero ideal starts at [0,2]), and two subsets
# that are no product
REES_CARRIERS = RING_PRODUCTS + [REORDERED] + NOT_PRODUCTS
# Largest quotient whose whole report is compared with its twin's
REPORT_CLASSES = 64


def rees_facts(cls):
    """The facts the Rees lemmas decide, asked before anything else."""
    return ([cls.inverses(op) for op in OPS],
            structures._first_zero_pair(cls, "mul", 0),
            semifield_verdict(cls))


def rees_quotients(s):
    """The Rees quotient of s by each of its ideals, by the whole carrier
    (one class), and by its second ideal built without is_ideal, so that
    no lemma applies."""
    ideals = [ideal.indices for ideal in enumerate_ideals(s)]
    out = [rees_quotient(s, Ideal(s, idx, name="J")) for idx in ideals]
    out.append(rees_quotient(s, Ideal(s, range(s.n), name="J")))
    out.append(QuotientStructure(s, Ideal(s, ideals[1], name="J"), "rees"))
    return out


@functools.lru_cache(maxsize=None)
def _gathered_twin(spec):
    """A twin of spec's carrier holding the tables the carrier gathers."""
    s = build_carrier(spec)
    for op in OPS:
        s.table(op)
    return built_twin(s)


@pytest.mark.parametrize("band", (1, structures._BAND_ENTRIES))
@pytest.mark.parametrize("spec", REES_CARRIERS)
def test_rees_lemmas_match_the_twin(monkeypatch, spec, band):
    # with bands of one entry every quotient of more than one class reads
    # off its ambient, so the lemmas decide wherever their premises hold;
    # at the default only quotients of more than 256 classes do.  The
    # twins hold built tables, which they read at the default band
    amb_twin = _gathered_twin(spec)
    s = build_carrier(spec)
    for q in rees_quotients(s):
        with monkeypatch.context() as m:
            m.setattr(structures, "_BAND_ENTRIES", band)
            got = rees_facts(q)
        assert got == rees_facts(class_twin(q, amb_twin)), q.name
        if q.n <= REPORT_CLASSES:
            fresh = QuotientStructure(s, q.ideal, "rees")
            fresh._is_ideal = q._is_ideal
            with monkeypatch.context() as m:
                m.setattr(structures, "_BAND_ENTRIES", band)
                got = quotient_analysis(fresh)
            assert got == quotient_analysis(twin_quotient(q, amb_twin)), q.name


def _reads_no_band(q):
    """(inverses of add, first zero pair of mul): is it decided with no
    band of the quotient or its ambient read?  The factors' bands do not
    count."""
    bands = []
    read = FiniteStructure._bands

    def counted(self, *args, **kwargs):
        if self is q or self is q.ambient:
            bands.append(self)
        return read(self, *args, **kwargs)

    unread = []
    for ask in (lambda: q.inverses("add"),
                lambda: structures._first_zero_pair(q, "mul", 0)):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(FiniteStructure, "_bands", counted)
            ask()
        unread.append(not bands)
        bands.clear()
    return tuple(unread)


@pytest.mark.parametrize("spec, ideal, kind, unread", [
    # the lemmas' premises hold, on lo-major and other products
    ("N(Zn:6)", "col-zero", "rees", (True, True)),
    ("N(Zn:6)", "row-zero", "rees", (True, True)),
    ("Mat(1,2,N(Zn:2))", "col-zero", "rees", (True, True)),
    # the ideal starts at [0,2], so class 0 is no additive identity (the
    # classes have none, so inverses reads nothing either); the ideal is
    # the product {0} x Z6 all the same
    (REORDERED, "col-zero", "rees", (True, True)),
    # no product: the ideal does not split, and the subset is not proven
    # associative by any factor
    (NOT_PRODUCTS[1], "gen{[3,0]}", "rees", (False, False)),
    ("N(Zn:6)", "col-zero", "standard", (False, False)),
    ("N(Zn:6)", "col-zero", None, (False, False)),
])
def test_rees_lemmas_decide_only_on_their_premises(monkeypatch, spec, ideal,
                                                   kind, unread):
    monkeypatch.setattr(structures, "_BAND_ENTRIES", 1)
    s = build_carrier(spec)
    ideal = parse_ideal_spec(s, ideal)
    if kind is None:  # built without is_ideal
        q = QuotientStructure(s, ideal, "rees")
    else:
        q = KINDS[kind](s, ideal)
    assert _reads_no_band(q) == unread


def _loop():
    """A commutative loop {0, b, a, c} whose addition is not associative,
    with mul constantly 0: b has the two inverses b and a, so I = {0, b}
    passes is_ideal (b's first inverse is b), but the Rees class of a
    has no inverse, as a + a = c and a + c = a."""
    names = ["0", "b", "a", "c"]
    add = np.array([[0, 1, 2, 3],
                    [1, 0, 0, 3],
                    [2, 0, 3, 2],
                    [3, 3, 2, 0]], dtype=np.int32)
    mul = np.zeros((4, 4), dtype=np.int32)

    def op(t):
        return lambda x, y: names[t[names.index(x), names.index(y)]]

    return FiniteStructure(names, mul=op(mul), add=op(add),
                           tables={"add": add, "mul": mul})


def test_the_coset_lemma_needs_an_associative_addition(monkeypatch):
    monkeypatch.setattr(structures, "_BAND_ENTRIES", 1)
    s = _loop()
    q = rees_quotient(s, Ideal(s, [0, 1]))
    assert q.identity_index("add") == 0
    assert q.inverses("add") == (False, 1)
    # and when the ambient is known to fail
    assert s.associative("add")[0] is False
    assert rees_quotient(s, Ideal(s, [0, 1])).inverses("add") == (False, 1)


@pytest.mark.parametrize("ideal", ("col-zero", "row-zero"))
def test_a_large_rees_quotient_reads_few_ambient_bands(monkeypatch, capsys,
                                                       ideal):
    # the band search read 244 bands of the 2809-element ambient: 121 for
    # the inverses, 120 for the zero pair of mul, one for strictness and
    # two for well_defined("add"), whose witness is in the first band
    read = structures._factored_bands
    bands = []

    def counted(*args, **kwargs):
        for start, band in read(*args, **kwargs):
            bands.append(start)
            yield start, band

    monkeypatch.setattr(structures, "_factored_bands", counted)
    assert cli.main(["quotient", "N(Zn:53)", ideal, "--kind", "rees"]) == 0
    assert capsys.readouterr().out
    assert len(bands) <= 5
