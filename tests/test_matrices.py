import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from natint import (
    DomainMismatch,
    Flavor,
    FlavorMismatch,
    IntervalMatrix,
    IntervalPoly,
    Mod,
    NotAField,
    Q,
    ShapeMismatch,
    Z,
    interval,
    mat_decompose,
    mat_recompose,
    matrix_from_csv,
    matrix_to_csv,
    parse_domain,
    parse_matrix,
    span_dimension,
)
from natint.matrices import decomposed_coordinates


def zmat(rows, flavor=Flavor.CLOSED):
    entries = [interval(Z, lo, hi, flavor) for row in rows for lo, hi in row]
    return IntervalMatrix(len(rows), len(rows[0]), entries,
                          domain=Z, flavor=flavor)


def test_entry_access_and_shape():
    m = zmat([[(1, 2), (3, 4)], [(5, 6), (7, 8)]])
    assert m.shape == (2, 2)
    assert m.entry(0, 1) == interval(Z, 3, 4)


def test_add_sub_hadamard_componentwise():
    a = zmat([[(1, 2), (3, 4)]])
    b = zmat([[(5, 6), (7, 8)]])
    assert (a + b).entry(0, 0) == interval(Z, 6, 8)
    assert (b - a).entry(0, 1) == interval(Z, 4, 4)
    assert a.hadamard(b).entry(0, 1) == interval(Z, 21, 32)


def test_matmul_small_known_product():
    a = zmat([[(1, 0), (0, 1)], [(2, 2), (1, 1)]])
    b = zmat([[(1, 1), (0, 0)], [(0, 0), (1, 1)]])
    p = a @ b
    assert p.entry(0, 0) == interval(Z, 1, 0)
    assert p.entry(0, 1) == interval(Z, 0, 1)
    assert p.entry(1, 0) == interval(Z, 2, 2)


def test_matmul_is_not_commutative():
    d = Z
    e12 = zmat([[(0, 0), (1, 1)], [(0, 0), (0, 0)]])
    e21 = zmat([[(0, 0), (0, 0)], [(1, 1), (0, 0)]])
    assert e12 @ e21 != e21 @ e12


def test_shape_mismatch():
    a = zmat([[(1, 1), (2, 2)]])
    b = zmat([[(1, 1), (2, 2)]])
    with pytest.raises(ShapeMismatch):
        a @ b


mat_entries = st.lists(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    min_size=6, max_size=6)


@given(mat_entries, mat_entries)
@settings(max_examples=60)
def test_matmul_decomposes(xs, ys):
    a = zmat([xs[:3], xs[3:]][0:2])          # 2x3
    b = zmat([[ys[0], ys[1]], [ys[2], ys[3]], [ys[4], ys[5]]])  # 3x2
    lo_a, hi_a = mat_decompose(a)
    lo_b, hi_b = mat_decompose(b)
    p = a @ b
    lo_p, hi_p = mat_decompose(p)

    def scalar_mm(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(3))
                 for j in range(2)] for i in range(2)]

    assert lo_p == scalar_mm(lo_a, lo_b)
    assert hi_p == scalar_mm(hi_a, hi_b)


@given(mat_entries)
def test_decompose_recompose_roundtrip(xs):
    m = zmat([xs[:3], xs[3:]])
    lo, hi = mat_decompose(m)
    assert mat_recompose(lo, hi, Z, m.flavor) == m


def test_parse_matrix_rows_and_entries():
    m = parse_matrix("[1,2],[3,4];[5,6],7", Z)
    assert m.shape == (2, 2)
    assert m.entry(1, 1) == interval(Z, 7, 7)
    assert m.entry(0, 1) == interval(Z, 3, 4)


def test_parse_matrix_ragged_rows_rejected():
    with pytest.raises(ShapeMismatch):
        parse_matrix("[1,2];[3,4],[5,6]", Z)


def test_csv_roundtrip():
    m = parse_matrix("(1,2],(3,4];(5,6],(7,8]", Mod(11))
    assert m.flavor is Flavor.OPEN_CLOSED
    text = matrix_to_csv(m)
    assert "natint-matrix v1" in text
    again = matrix_from_csv(text)
    assert again == m
    assert again.domain is Mod(11)
    assert again.flavor is Flavor.OPEN_CLOSED


def test_csv_roundtrip_with_degenerate_entries():
    # bare scalars carry no brackets, so the matrix flavor in the header
    # must restore them
    m = parse_matrix("5,(1,2);(3,4),0", Mod(7), Flavor.OPEN)
    assert m.flavor is Flavor.OPEN
    again = matrix_from_csv(matrix_to_csv(m))
    assert again == m and again.flavor is Flavor.OPEN


def test_span_dimension_of_full_interval_line():
    # over a prime field the interval line N(Zp) is two dimensional
    for p in (7, 11):
        d = Mod(p)
        basis = [parse_matrix("[1,0]", d), parse_matrix("[0,1]", d)]
        rep = span_dimension(basis, d)
        assert rep["ambient_dimension"] == 2
        assert rep["dimension"] == 2
        assert rep["independent"] and rep["spans"]


def test_span_detects_dependence():
    d = Mod(7)
    vecs = [parse_matrix("[1,2]", d), parse_matrix("[2,4]", d),
            parse_matrix("[3,6]", d)]
    rep = span_dimension(vecs, d)
    assert rep["dimension"] == 1
    assert not rep["independent"]


def test_span_over_rationals():
    vecs = [parse_matrix("[1,0],[0,0],[0,0]", Q),
            parse_matrix("[0,1],[0,0],[0,0]", Q),
            parse_matrix("[0,0],[1,1],[0,0]", Q)]
    rep = span_dimension(vecs, Q)
    assert rep["ambient_dimension"] == 6
    assert rep["dimension"] == 3
    assert rep["independent"] and not rep["spans"]


def test_span_coerces_another_domains_scalars_into_the_field():
    # over Zn:7 the vector [7,0] of Z is zero
    vecs = [parse_matrix("[7,0]", Z), parse_matrix("[1,2]", Z)]
    assert span_dimension(vecs, Q)["dimension"] == 2
    assert span_dimension(vecs, Mod(7))["dimension"] == 1


def test_span_over_a_field_its_domain_does_not_embed_in_is_refused():
    # Z+I's scalars are pairs, and Q's are no Zn:7 scalars
    for spec, text, field in (("Z+I", "[1,2]", Q),
                              ("Z+I", "[1,I]", Mod(7)),
                              ("Q", "[1/2,1]", Mod(7))):
        vecs = [parse_matrix(text, parse_domain(spec))]
        with pytest.raises(DomainMismatch) as exc:
            span_dimension(vecs, field)
        assert str(exc.value) == \
            f"vectors over {spec} do not embed in {field.spec}"


def test_span_requires_a_field():
    d = Mod(6)
    with pytest.raises(NotAField):
        span_dimension([parse_matrix("[1,0]", d)], d)


def test_row_space_of_three_coordinates_has_dimension_six():
    d = Mod(11)
    one_hots = []
    for k in range(3):
        for comp in ("[1,0]", "[0,1]"):
            cells = ["[0,0]"] * 3
            cells[k] = comp
            one_hots.append(parse_matrix(",".join(cells), d))
    rep = span_dimension(one_hots, d)
    assert rep["ambient_dimension"] == 6
    assert rep["dimension"] == 6
    assert rep["spans"]


_C, _O = Flavor.CLOSED, Flavor.OPEN


@pytest.mark.parametrize("build, error, message", [
    (lambda: IntervalMatrix(1, 2, [interval(Z, 1, 2), interval(Q, 1, 2)]),
     DomainMismatch, "cannot put an entry over Q in a matrix over Z"),
    (lambda: IntervalMatrix(1, 2, [interval(Z, 1, 2),
                                   interval(Z, 1, 2, _O)]),
     FlavorMismatch, "cannot put an entry of flavor o in a matrix of "
                     "flavor c"),
    (lambda: IntervalPoly(Z, _C, [interval(Q, 1, 2)]),
     DomainMismatch, "cannot put a coefficient over Q in a polynomial over "
                     "Z"),
    (lambda: IntervalPoly(Z, _C, [interval(Z, 1, 2, _O)]),
     FlavorMismatch, "cannot put a coefficient of flavor o in a polynomial "
                     "of flavor c"),
], ids=["matrix-domain", "matrix-flavor", "poly-domain", "poly-flavor"])
def test_matrices_and_polynomials_refuse_a_foreign_entry(build, error,
                                                         message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def _brute_rank(vectors, p):
    """The size of the largest subset of vectors whose only combination
    over Zn:p that is zero in every coordinate has all coefficients 0."""
    rows = [decomposed_coordinates(v) for v in vectors]
    for size in range(len(rows), 0, -1):
        for subset in itertools.combinations(rows, size):
            if not any(all(sum(c * x for c, x in zip(cs, column)) % p == 0
                           for column in zip(*subset))
                       for cs in itertools.product(range(p), repeat=size)
                       if any(cs)):
                return size
    return 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_span_dimension_matches_a_brute_force_rank(p):
    d = Mod(p)
    rng = random.Random(p)
    for _ in range(60):
        cols = rng.randint(1, 2)
        vectors = [IntervalMatrix(1, cols, [
            interval(d, rng.randrange(p), rng.randrange(p))
            for _ in range(cols)]) for _ in range(rng.randint(1, 4))]
        assert (span_dimension(vectors, d)["dimension"]
                == _brute_rank(vectors, p))
