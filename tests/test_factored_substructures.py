"""S-ring verdicts and maximal subgroups of product carriers, read off
their factors, against the searches over the carrier's own table.

On N(D), whose lo and hi parts are one factor D with an additive group,
is_s_ring tries only the spans of the diagonal products [e, e] * [g, g]
and reads them off D; on any full product the maximal subgroup at an
idempotent (e, f) is H_e x H_f.  Each check compares the whole answer
with a twin that holds the same tables but no product form, so every
answer of the twin comes from the search over the carrier.
"""

import functools

import pytest

from natint.carriers import build_carrier
from natint.structures import (
    FiniteStructure,
    _diagonal_factor,
    _group_verdict,
    is_group,
    is_s_ring,
    maximal_subgroups,
)
from conftest import built_twin
from test_factored import FLAVORS, FULL_PRODUCTS, NOT_PRODUCTS

# N(Zn:6) listed lo-major with the parts in the order 2, 3, 0, 1, 4, 5:
# its first idempotent is 3, and 3 * 2 = 0, so the first field among
# the spans of e * g is {0, 3}, while the span of 2 is a field too.
REORDERED = "Sub{%s} of N(Zn:6)" % ",".join(
    f"[{a},{b}]" for a in (2, 3, 0, 1, 4, 5) for b in (2, 3, 0, 1, 4, 5))
PRODUCTS = (list(FULL_PRODUCTS) + [REORDERED]
            + [f"N(Zn:{k},{f})" for k in range(17, 27) for f in ("c", "o")]
            + [f"N(ZnI:{k},{f})" for k in range(2, 6) for f in FLAVORS]
            + [f"N(Zn+I:{k},{f})" for k in range(2, 5) for f in FLAVORS])
# A full product over Z3 whose diagonal is not in part order: [2,2]
# comes before [1,1], so its search is not read off the factor.
UNORDERED_DIAGONAL = ("Sub{[0,0],[0,1],[1,0],[2,2],[1,1],[0,2],[2,0],"
                      "[1,2],[2,1]} of N(Zn:3)")
# A full product whose factor {0, 1, 3} of Z6 has no additive group,
# since 1 + 1 = 2 leaves it.
NO_ADDITIVE_GROUP = "Sub{%s} of N(Zn:6)" % ",".join(
    f"[{a},{b}]" for a in (0, 1, 3) for b in (0, 1, 3))


def _answers(s):
    return is_s_ring(s), maximal_subgroups(s)


@functools.lru_cache(maxsize=None)
def _searched(spec):
    """The answers of a twin of spec's carrier, from the searches."""
    s = build_carrier(spec)
    for op in ("add", "mul"):  # the twin holds s's gathered tables
        if s.has_op(op):
            s.table(op)
    return _answers(built_twin(s))


def _reads_factor(s):
    return s.has_op("add") and _diagonal_factor(s) is not None


@pytest.mark.parametrize("spec", PRODUCTS)
def test_product_answers_match_the_search(spec):
    s = build_carrier(spec)
    assert _answers(s) == _searched(spec)
    assert s._factors() is not None
    if spec == REORDERED or spec.startswith("N(") and "\\0" not in spec:
        assert _reads_factor(s)


@pytest.mark.parametrize(
    "spec", NOT_PRODUCTS + (UNORDERED_DIAGONAL, NO_ADDITIVE_GROUP))
def test_other_carriers_keep_the_search(spec):
    s = build_carrier(spec)
    assert _answers(s) == _searched(spec)
    assert not _reads_factor(s)


@pytest.mark.parametrize("spec", ("N(Zn:16)", "N(ZnI:4)",
                                  "Fuzzy(min,step=1/15)"))
def test_product_answers_build_no_carrier_table(monkeypatch, spec):
    searched = _searched(spec)
    s = build_carrier(spec)
    table = FiniteStructure.table

    def refuse(self, op):
        if self is s:
            raise AssertionError(f"{op} table of {spec} built")
        return table(self, op)

    monkeypatch.setattr(FiniteStructure, "table", refuse)
    assert _answers(s) == searched


def test_a_factor_that_is_not_closed_is_no_group():
    # the factor {0, 1, 3} of Z6 holds its part tables but no op, so the
    # witness of 1 + 1 = 2 leaving it names the pair and no product
    f = build_carrier(NO_ADDITIVE_GROUP)._factors()[0]
    assert not f.has_op("add")
    assert _group_verdict(f, "add") == (
        False, {"reason": "not closed", "witness": ("1", "1", None)})
    assert not is_group(f, "add")
