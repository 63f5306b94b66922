from fractions import Fraction

import pytest

from natint import (
    F01,
    Flavor,
    FuzzyRangeOverflow,
    fuzzy_grid,
    fuzzy_semigroup_report,
    grid_structure,
    interval,
    iv_max,
    iv_min,
)


def fiv(lo, hi, flavor=Flavor.CLOSED):
    return interval(F01, Fraction(lo), Fraction(hi), flavor)


def test_grid_has_121_intervals():
    grid = fuzzy_grid(10)
    assert len(grid) == 121


def test_worked_values_are_exact():
    assert fiv("3/10", "6/10") * fiv("2/10", "3/10") == \
        fiv("6/100", "18/100")
    a = fiv("3/10", "7/10", Flavor.OPEN)
    b = fiv("5/10", "4/10", Flavor.OPEN)
    assert iv_min(a, b) == fiv("3/10", "4/10", Flavor.OPEN)
    assert iv_max(a, b) == fiv("5/10", "7/10", Flavor.OPEN)


def test_addition_can_overflow_the_unit_range():
    with pytest.raises(FuzzyRangeOverflow):
        fiv("6/10", "6/10") + fiv("5/10", "5/10")
    # but stays exact when in range
    assert fiv("2/10", "3/10") + fiv("1/10", "1/10") == fiv("3/10", "4/10")


def test_min_max_grids_are_closed_semigroups():
    for op in ("min", "max"):
        s = grid_structure(op)
        assert s.n == 121
        rep = fuzzy_semigroup_report(op)
        assert rep["associative"]
        assert rep["commutative"]
        assert rep["idempotent_law"]


@pytest.mark.parametrize("step", [1, 2, 3, 10])
@pytest.mark.parametrize("op, fn", [("min", iv_min), ("max", iv_max)])
def test_idempotent_law_is_every_element_idempotent(op, fn, step):
    # the report reads the law off the engine's idempotents; the loop
    # over the grid elements is its twin
    rep = fuzzy_semigroup_report(op, step)
    assert rep["idempotent_law"] == all(
        fn(x, x) == x for x in fuzzy_grid(step))
    assert rep["idempotent_law"]


def test_product_grid_report():
    rep = fuzzy_semigroup_report("prod")
    assert rep["associative"]
    assert rep["commutative"]
    assert rep["closed_in_unit"]
    assert not rep["closed_on_grid"]
    # products of tenths leave the tenths grid, so associativity is
    # checked on exact rationals, not by table
    assert "exact rational" in rep["associativity_method"]


def test_min_max_absorbing_and_identity():
    rep_min = fuzzy_semigroup_report("min")
    # the all-ones interval is neutral for min; the zero interval absorbs
    assert rep_min["identity"] == "1"
    assert rep_min["absorbing"] == "0"
    rep_max = fuzzy_semigroup_report("max")
    assert rep_max["identity"] == "0"
    assert rep_max["absorbing"] == "1"
