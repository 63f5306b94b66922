"""The linear-pass kernels behind the ideal and quotient paths, each
checked against the full-array formula or the Python loop it replaced."""

import numpy as np
import pytest

from natint import structures
from natint import (
    FiniteStructure,
    build_carrier,
    generate_ideal,
    parse_ideal_spec,
    rees_quotient,
)
from natint.structures import _first_hit, _first_true, _relabel

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
    # read as consecutive blocks of rows, split at random (some empty) or
    # row by row, the mask gives the same hit, and the last block read is
    # the one that holds it
    cuts = sorted(rng.integers(0, len(mask) + 1, size=4).tolist())
    for bounds in ([0, *cuts, len(mask)], range(len(mask) + 1)):
        read = []

        def blocks():
            for lo, hi in zip(bounds, bounds[1:]):
                read.append((lo, hi))
                yield lo, mask[lo:hi]

        assert _first_hit(blocks()) == expected
        if expected is None:
            assert len(read) == len(bounds) - 1
        else:
            assert read[-1][0] <= expected[0] < read[-1][1]


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
        yield rees_quotient(s, parse_ideal_spec(s, ideal))


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


N_WIT = 12


def _brute_assoc(t):
    n = len(t)
    return next(((x, y, z) for x in range(n) for y in range(n)
                 for z in range(n) if t[t[x][y]][z] != t[x][t[y][z]]), None)


def _brute_left_distrib(m, a):
    n = len(m)
    return next(((x, y, z) for x in range(n) for y in range(n)
                 for z in range(n) if m[x][a[y][z]] != a[m[x][y]][m[x][z]]),
                None)


def _assoc_case(row):
    """A closed table whose first associativity witness is in row, or
    none when row is None: each row x above it is constant x, which
    makes every triple with that x associative."""
    if row is None:
        ar = np.arange(N_WIT)
        return ((ar[:, None] + ar) % N_WIT).astype(np.int32)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        t = rng.integers(0, N_WIT, size=(N_WIT, N_WIT)).astype(np.int32)
        t[:row] = np.arange(row)[:, None]
        wit = _brute_assoc(t.tolist())
        if wit is not None and wit[0] == row:
            return t
    raise AssertionError(f"no table with its witness in row {row}")


def _distrib_case(row):
    """Closed tables (mul, add) whose first left-distributivity witness is
    in row, or none when row is None: each row above it multiplies to 0,
    and 0 + 0 = 0."""
    if row is None:
        ar = np.arange(N_WIT)
        return (np.zeros((N_WIT, N_WIT), dtype=np.int32),
                ((ar[:, None] + ar) % N_WIT).astype(np.int32))
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m, a = rng.integers(0, N_WIT, size=(2, N_WIT, N_WIT)).astype(np.int32)
        m[:row] = 0
        a[0, 0] = 0
        wit = _brute_left_distrib(m.tolist(), a.tolist())
        if wit is not None and wit[0] == row:
            return m, a
    raise AssertionError(f"no tables with their witness in row {row}")


@pytest.mark.parametrize("block_entries", [None, 4 * N_WIT ** 2])
@pytest.mark.parametrize("row", [0, N_WIT // 2, N_WIT - 1, None])
def test_witness_scans_match_brute_force(monkeypatch, row, block_entries):
    if block_entries is not None:
        # blocks of 1, 2 and then 4 rows: the cap is hit after two doublings
        monkeypatch.setattr(structures, "_BLOCK_ENTRIES", block_entries)
    scanned = []
    first_true = structures._first_true

    def counted(mask):
        scanned.append(mask.shape[0])
        return first_true(mask)

    monkeypatch.setattr(structures, "_first_true", counted)
    # the blocks double from one row, so a witness in row r costs at
    # most 2r + 1 rows; a passing scan reads every row once
    rows = N_WIT if row is None else 2 * row + 1
    t = _assoc_case(row)
    assert structures._assoc_witness(t) == _brute_assoc(t.tolist())
    assert sum(scanned) <= rows and scanned[0] == 1
    scanned.clear()
    m, a = _distrib_case(row)
    assert structures._left_distrib_witness(m, a) == _brute_left_distrib(
        m.tolist(), a.tolist())
    assert sum(scanned) <= rows and scanned[0] == 1
