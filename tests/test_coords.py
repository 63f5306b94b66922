"""A spec-built carrier's places, labels and index read off its scalar
codes, against the element-by-element reads they replace.

N(D), N(D)\\0, Mat and Poly over a finite domain know their enumeration,
so their _Coords come from the codes of their scalars
(structures._Coords.of_codes), with no element decomposed.  Each check
compares those coordinates, field by field, with _Coords(elements), the
twin that decomposes every element.  Labels are formatted when first
asked for and the index dict is built on first use; both must equal the
eager reads.
"""

import contextlib
import io

import numpy as np
import pytest

from natint import cli
from natint.carriers import build_carrier
from natint.intervals import NaturalInterval
from natint.matrices import IntervalMatrix
from natint.polys import IntervalPoly
from natint.quotients import parse_ideal_spec, rees_quotient
from natint.structures import FiniteStructure, _Coords, analyze_structure
from test_carriers import FLAVOR_SPECS, KIND_SPECS
from test_factored import FULL_PRODUCTS

CARRIERS = list(dict.fromkeys(
    list(KIND_SPECS) + list(FLAVOR_SPECS) + list(FULL_PRODUCTS)
    + [f"N(Zn:{k})\\0" for k in range(2, 13)]
    + ["N(Zn:7)", "N(Zn:5)\\0", "N(ZnI:4,o)\\0", "N(Zn+I:2)\\0",
       "Mat(2,2,N(Zn:3))", "Mat(2,1,N(ZnI:2))", "Mat(1,2,N(Zn+I:2))",
       "Mat(2,2,N(ZnI:2,oc))", "Mat(2,1,N(Zn+I:2))",
       "Poly(N(Zn:3),cyc=3)", "Poly(N(ZnI:3),cyc=2)", "Poly(N(Zn:2),cyc=4)",
       "Poly(N(Zn+I:2),cyc=2)", "Poly(N(ZnI:2,co),cyc=3)"]))


def _spec_built(spec):
    return spec.startswith(("N(", "Mat(", "Poly("))


def _lists(coords):
    """The distinct part lists of coords, as codes or as part dicts."""
    return coords.parts if coords.codes is None else coords.codes


def assert_same_coords(a, b):
    assert (a.m_lo, a.m_hi) == (b.m_lo, b.m_hi)
    assert len(_lists(a)) == len(_lists(b))
    for field in ("lo", "hi", "where"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and x.shape == y.shape, field
        assert (x == y).all(), field
    assert (a.grid is None) == (b.grid is None)
    if a.grid is not None:
        assert a.grid.dtype == b.grid.dtype and (a.grid == b.grid).all()


@pytest.mark.parametrize("spec", CARRIERS)
def test_coords_from_codes_match_the_twin(spec):
    s = build_carrier(spec)
    assert (s.scalar_codes is not None) == _spec_built(spec)
    coords, twin = s._coords(), _Coords(s.elements)
    assert_same_coords(coords, twin)
    if s.scalar_codes is None:
        assert coords.codes is None and coords.parts is not None
        return
    assert coords.parts is None
    # the code rows are the twin's parts, coded one by one in its order
    code = {x: i for i, x in enumerate(s.domain.elements())}
    (rows,) = coords.codes
    (parts,) = twin.parts
    assert rows.dtype == np.intp
    assert rows.tolist() == [[code[x] for x in s.lower.entries(p)]
                             for p in parts]


@pytest.mark.parametrize("spec", ["N(Zn:4)\\0", "N(Zn:3)\\0", "N(Zn:2)\\0"])
def test_a_carrier_without_zero_counts_its_nonzero_scalars(spec):
    s = build_carrier(spec)
    m = s.domain.size - 1
    coords = s._coords()
    assert s.n == m * m and coords.m_lo == coords.m_hi == m
    zero = list(s.domain.elements()).index(s.domain.zero)
    assert zero not in coords.codes[0]
    assert s.domain.zero not in _Coords(s.elements).parts[0]


def _decompositions(monkeypatch):
    """The list each later decompose call appends its element to."""
    calls = []
    for cls in (NaturalInterval, IntervalMatrix, IntervalPoly):
        def counted(self, decompose=cls.decompose):
            calls.append(self)
            return decompose(self)
        monkeypatch.setattr(cls, "decompose", counted)
    return calls


REQUESTS = [
    ["analyze", "N(Zn:6)"], ["analyze", "N(Zn:5)\\0"],
    ["analyze", "N(ZnI:3,o)"], ["analyze", "N(Zn+I:2)"],
    ["analyze", "Mat(1,2,N(Zn:3))"], ["analyze", "Mat(2,2,N(Zn:2))"],
    ["analyze", "Poly(N(Zn:2),cyc=3)"], ["analyze", "Poly(N(ZnI:2),cyc=2)"],
    ["ideal", "N(Zn:12)"], ["ideal", "Mat(2,1,N(Zn+I:2))"],
    ["ideal", "N(Zn:10)", "col-zero"], ["ideal", "Poly(N(Zn:3),cyc=2)"],
    ["quotient", "N(Zn:8)", "col-zero", "--kind", "rees"],
    ["quotient", "N(ZnI:6)", "row-zero", "--kind", "standard"],
    ["quotient", "Mat(1,2,N(Zn:3))", "col-zero", "--kind", "rees"],
    ["table", "N(Zn+I:2,oc)", "mul"], ["table", "Mat(2,1,N(ZnI:3,co))", "add"],
    ["table", "Poly(N(Zn+I:2),cyc=2)", "mul"], ["table", "N(Zn:7,o)\\0", "mul"],
]


@pytest.mark.parametrize("argv", REQUESTS, ids=" ".join)
def test_spec_built_carriers_decompose_no_element(monkeypatch, argv):
    calls = _decompositions(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    assert code in (0, 4)
    assert calls == []


def test_a_subset_still_decomposes_its_elements(monkeypatch):
    calls = _decompositions(monkeypatch)
    s = build_carrier("Sub{[0,1],[1,0],[1,1],[0,0]} of N(Zn:2)")
    s._coords()
    assert len(calls) == s.n


@pytest.mark.parametrize("spec", CARRIERS)
def test_lazy_labels_are_the_elements_str(spec):
    s = build_carrier(spec)
    rng = np.random.default_rng(len(spec))
    asked = rng.permutation(s.n)[: max(1, s.n // 3)].tolist()
    assert s.labels(asked) == [str(s.elements[i]) for i in asked]
    kept = s._memo["labels"]
    assert [i for i, x in enumerate(kept) if x is not None] == sorted(asked)
    assert [s.label(i) for i in range(s.n)] == list(map(str, s.elements))


@pytest.mark.parametrize("argv", REQUESTS[:8] + REQUESTS[12:15],
                         ids=" ".join)
def test_labels_kept_by_a_request_are_the_elements_str(monkeypatch, argv):
    built = []
    init = FiniteStructure.__init__

    def kept(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(FiniteStructure, "__init__", kept)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(list(argv))
    for s in built:
        labels = s._memo.get("labels") or ()
        assert all(x is None or x == str(e)
                   for x, e in zip(labels, s.elements)), s.name


@pytest.mark.parametrize("spec", CARRIERS)
def test_index_is_the_eager_dict(spec):
    s = build_carrier(spec)
    assert (s._index is None) == _spec_built(spec)
    assert s.index == {e: i for i, e in enumerate(s.elements)}
    assert s.index is s.index


@pytest.mark.parametrize("spec", ["N(ZnI:3)", "N(Zn+I:2)"])
def test_inherited_members_need_no_index(spec):
    # the members are the inherited view's own labels, not looked up in
    # the carrier's index
    s = build_carrier(spec)
    report = analyze_structure(s)
    assert s._index is None
    assert report["substructures"]["inherited"]["members"] == [
        str(e) for e in s.elements if e.is_degenerate]


def test_a_caller_built_carrier_refuses_duplicates_at_once():
    x = NaturalInterval(build_carrier("N(Zn:3)").domain, 1, 2)
    with pytest.raises(ValueError, match="duplicate"):
        FiniteStructure([x, x], mul=lambda a, b: a)


def test_a_view_builds_no_index_as_a_duplicate_check():
    s = build_carrier("N(Zn:5)")
    ideal = parse_ideal_spec(s, "col-zero")
    for view in (s.restrict(ideal.indices), rees_quotient(s, ideal)):
        assert view._index is None


def test_domain_hash_is_taken_once(monkeypatch):
    d = build_carrier("N(Zn+I:3)").domain
    h = hash(d)
    monkeypatch.setattr(type(d), "_key", lambda self: pytest.fail("rehashed"))
    assert hash(d) == h
