"""Fuzzy intervals on a finite grid inside [0, 1].

The carrier is every interval whose endpoints lie on the grid
{0, 1/s, 2/s, ..., 1}.  min and max are closed on the grid and get full
Cayley-table treatment; the product leaves the grid (1/s * 1/s is not a
grid point), so its associativity is checked exactly in rational
arithmetic, componentwise over all scalar triples — which covers every
interval triple, because the operations act independently on the two
endpoints.
"""

import operator
from fractions import Fraction

import numpy as np

from .intervals import Flavor, NaturalInterval, iv_max, iv_min
from .scalars import F01
from .structures import FiniteStructure, axiom_report

GRID_FNS = {"min": iv_min, "max": iv_max, "prod": operator.mul}
GRID_OPS = tuple(GRID_FNS)


def fuzzy_grid(step_denominator=10, flavor=Flavor.CLOSED):
    """All (s+1)^2 grid intervals in lexicographic endpoint order."""
    s = step_denominator
    vals = [Fraction(k, s) for k in range(s + 1)]
    return [NaturalInterval(F01, lo, hi, flavor)
            for lo in vals for hi in vals]


def grid_structure(op, step_denominator=10, flavor=Flavor.CLOSED):
    if op not in GRID_FNS:
        raise ValueError(
            f"unknown fuzzy op {op!r}; expected one of {GRID_OPS}")
    s = step_denominator
    return FiniteStructure(
        fuzzy_grid(s, flavor), mul=GRID_FNS[op],
        name=f"Fuzzy({op},step=1/{s})", kind="grid", domain=F01,
        flavor=flavor, diag=lambda p: NaturalInterval(F01, p, p, flavor))


def product_associative_componentwise(step_denominator=10):
    """Exact check of (x*y)*z = x*(y*z) for all grid endpoint triples.

    Scalar products of grid values share the denominator s^3, so integer
    numerator arithmetic decides equality exactly.
    """
    s = step_denominator
    k = np.arange(s + 1, dtype=np.int64)
    left = (k[:, None] * k[None, :])[:, :, None] * k[None, None, :]
    right = k[:, None, None] * (k[None, :, None] * k[None, None, :])
    return bool((left == right).all()), (s + 1) ** 3


def fuzzy_semigroup_report(op, step_denominator=10):
    """Associativity/commutativity on the grid plus the computed
    identity and absorbing elements for min, max or the product."""
    s = step_denominator
    struct = grid_structure(op, s)
    rep = {
        "schema": "natint/1",
        "op": op,
        "grid_step": f"1/{s}",
        "grid_size": struct.n,
    }
    ax = axiom_report(struct, "mul")
    rep["closed_on_grid"] = ax["closed"]
    if not ax["closed"]:
        rep["closed_on_grid_counterexample"] = ax["closed_counterexample"]
    if op == "prod":
        # Endpoint products, as numerators over s^2, decide closure in
        # [0, 1] and commutativity for every interval pair componentwise.
        k = np.arange(s + 1, dtype=np.int64)
        prods = k[:, None] * k[None, :]
        rep["closed_in_unit"] = bool(((prods >= 0) & (prods <= s * s)).all())
        assoc, triples = product_associative_componentwise(s)
        rep["associative"] = assoc
        rep["associativity_method"] = (
            f"exact rational, all {triples} endpoint triples per slot "
            f"(covers every interval triple componentwise)")
        rep["commutative"] = bool((prods == prods.T).all())
    else:
        rep["associative"] = ax["associative"]
        rep["associativity_method"] = "grid Cayley table"
        rep["commutative"] = ax["commutative"]
    # A product off the grid is -1 in the table, so it can never make an
    # element look like the identity or absorbing.
    rep["identity"] = ax["identity"]
    rep["absorbing"] = ax["absorbing"]
    if op != "prod":
        rep["idempotent_law"] = len(struct.idempotents()) == struct.n
    return rep
