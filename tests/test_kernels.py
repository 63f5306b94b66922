"""The linear-pass kernels behind the ideal and quotient paths, each
checked against the full-array formula or the Python loop it replaced."""

import numpy as np
import pytest

from natint import (
    FiniteStructure,
    build_carrier,
    generate_ideal,
    parse_ideal_spec,
    rees_quotient,
)
from natint.structures import _first_true, _relabel

CARRIERS = ("N(Zn:6)", "N(ZnI:4)", "Mat(1,2,N(Zn:2))")


@pytest.mark.parametrize("shape", [(0, 0), (1, 1), (7, 13), (40, 40),
                                   (5, 6, 7), (12, 0, 3), (3, 50, 50)])
@pytest.mark.parametrize("density", [0.0, 0.0005, 0.05, 0.5, 1.0])
def test_first_true_matches_argwhere(shape, density):
    seed = sum(shape) * 10 ** 5 + int(density * 10 ** 4)
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < density
    hits = np.argwhere(mask)
    expected = tuple(int(v) for v in hits[0]) if hits.size else None
    assert _first_true(mask) == expected
    # a strided view is scanned in its own C order
    view = mask.T
    hits = np.argwhere(view)
    assert _first_true(view) == (tuple(int(v) for v in hits[0])
                                 if hits.size else None)


@pytest.mark.parametrize("n, m", [(1, 1), (9, 4), (60, 60), (300, 17)])
def test_relabel_matches_where_formula(n, m):
    rng = np.random.default_rng(n * 1000 + m)
    table = rng.integers(-1, n, size=(n, n)).astype(np.int32)
    relabel = rng.integers(-1, m, size=n).astype(np.int32)
    old = np.where(table >= 0, relabel[np.maximum(table, 0)],
                   -1).astype(np.int32)
    new = _relabel(table, relabel)
    assert new.dtype == np.int32 and new.flags.c_contiguous
    assert np.array_equal(new, old)


def _python_ideal(s, gens):
    """The generated ideal by a fixpoint over elements and operations."""
    els = s.elements
    zero = next(e for e in els
                if all(s.apply("add", e, x) == x for x in els))

    def neg(x):
        return next(y for y in els if s.apply("add", x, y) == zero)

    ideal = {zero} | {els[g] for g in gens} | {neg(els[g]) for g in gens}
    while True:
        grown = set(ideal)
        for m in ideal:
            grown.add(neg(m))
            for x in els:
                grown.add(s.apply("mul", x, m))
                grown.add(s.apply("mul", m, x))
            for y in ideal:
                grown.add(s.apply("add", m, y))
        if grown == ideal:
            return sorted(s.index[e] for e in ideal)
        ideal = grown


@pytest.mark.parametrize("spec", CARRIERS)
def test_generate_ideal_matches_python_fixpoint(spec):
    s = build_carrier(spec)
    for g in range(s.n):
        assert generate_ideal(s, [g]) == _python_ideal(s, [g])


def _brute_identity(t):
    n = len(t)
    return next((e for e in range(n)
                 if all(t[e][x] == x and t[x][e] == x for x in range(n))),
                None)


def _brute_absorbing(t):
    n = len(t)
    return next((a for a in range(n)
                 if all(t[a][x] == a and t[x][a] == a for x in range(n))),
                None)


def _structures(spec):
    s = build_carrier(spec)
    yield s
    # the same carrier reversed, so zero and one sit at other indices
    yield FiniteStructure(s.elements[::-1], mul=s.mul_fn, add=s.add_fn)
    for ideal in ("col-zero", "row-zero"):
        yield rees_quotient(s, parse_ideal_spec(s, ideal)).structure()


@pytest.mark.parametrize("spec", CARRIERS)
def test_identity_and_absorbing_match_brute_force(spec):
    for s in _structures(spec):
        for op in ("add", "mul"):
            t = s.table(op).tolist()
            assert s.identity_index(op) == _brute_identity(t)
            assert s.absorbing_index(op) == _brute_absorbing(t)


def test_empty_carrier():
    s = FiniteStructure([], mul=lambda x, y: x)
    assert s.closed("mul") == (True, None)
    assert s.commutative("mul") == (True, None)
    assert s.identity_index("mul") is None
    assert s.absorbing_index("mul") is None
    assert s.inverses("mul") == (None, None)
