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

import numpy as np
import pytest

from natint import cli, quotients, structures
from natint.carriers import build_carrier
from natint.errors import NotAnIdeal, ParseError
from natint.quotients import (
    Ideal,
    enumerate_ideals,
    is_ideal,
    parse_ideal_spec,
    quotient_analysis,
    rees_quotient,
    standard_quotient,
)
from natint.structures import FiniteStructure
from test_factored_ideals import NO_UNITY

FLAVORS = ("c", "o", "oc", "co")
CARRIERS = ([f"N(Zn:{k},{f})" for k in range(2, 13) for f in FLAVORS]
            + ["N(ZnI:4)", "N(Zn+I:2)", "Mat(1,2,N(Zn:2))",
               "Poly(N(Zn:2),cyc=2)", NO_UNITY])
KINDS = {"rees": rees_quotient, "standard": standard_quotient}


def twin_of(spec):
    """The carrier of spec with its tables built and no product form."""
    s = build_carrier(spec)
    return FiniteStructure(
        s.elements, mul=s.mul_fn, add=s.add_fn, name=s.name, kind=s.kind,
        domain=s.domain, flavor=s.flavor, parse_element=s.parse_element,
        tables={op: s.table(op) for op in ("add", "mul")})


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
    f = s._factors("add", "mul")
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


@pytest.mark.parametrize("spec", CARRIERS)
def test_product_ideals_and_quotients_match_the_twin(spec):
    twin = twin_of(spec)
    splits = quotients._ideal_factors(build_carrier(spec)) is not None
    for ideal in enumerate_ideals(build_carrier(spec)):
        s = build_carrier(spec)
        assert answers(s, ideal.indices) == answers(twin, ideal.indices)
        assert not (splits and s._tables), (spec, ideal.indices)


@pytest.mark.parametrize("spec", CARRIERS)
def test_failing_subsets_keep_the_twins_witness(spec):
    twin = twin_of(spec)
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
    def refuse(*args):
        raise AssertionError("a table of the whole carrier was built")

    monkeypatch.setattr(structures, "factored_table", refuse)
    assert cli.main(argv) == code
    assert capsys.readouterr().out
