import pytest

from natint import (
    FiniteStructure,
    Flavor,
    InfiniteDomain,
    Mod,
    NaturalInterval,
    ParseError,
    TooLarge,
    Z,
    build_carrier,
    corner_s_ring_witness,
    interval,
    interval_structure,
    is_group,
    matrix_structure,
    poly_structure,
)


def test_a_subset_hashes_each_listed_element_once(monkeypatch):
    # the structure's own index refuses a duplicate; no second set is made
    hashed = []
    hash_ = NaturalInterval.__hash__

    def counted(self):
        hashed.append(self)
        return hash_(self)

    monkeypatch.setattr(NaturalInterval, "__hash__", counted)
    s = build_carrier("Sub{[1,1],[0,2],[2,2]} of N(Zn:3)")
    assert s.n == 3 and len(hashed) == 3


def test_interval_carrier_counts():
    for n in (2, 5, 9):
        for flavor in Flavor:
            s = interval_structure(Mod(n), flavor)
            assert s.n == n * n


def test_punctured_carrier_counts_and_ops():
    s = interval_structure(Mod(5), remove_zero=True)
    assert s.n == 16
    assert all(e.lo != 0 and e.hi != 0 for e in s.elements)
    assert s.has_op("mul") and not s.has_op("add")


def test_infinite_domain_refused():
    with pytest.raises(InfiniteDomain):
        interval_structure(Z)


def test_size_bound_respected():
    with pytest.raises(TooLarge):
        interval_structure(Mod(101), size_bound=10000)


def test_a_carrier_of_exactly_the_bound_builds():
    assert build_carrier("N(Zn:4)", size_bound=16).n == 16
    with pytest.raises(TooLarge):
        build_carrier("N(Zn:4)", size_bound=15)


def test_spec_grammar_basic_forms():
    assert build_carrier("N(Zn:4)").n == 16
    assert build_carrier("N(Zn:4,o)").flavor is Flavor.OPEN
    assert build_carrier("N(Zn:3)\\0").n == 4
    assert build_carrier("N(Zn:3,oc)\\0").flavor is Flavor.OPEN_CLOSED


def test_spec_grammar_matrices():
    s = build_carrier("Mat(1,2,N(Zn:2))")
    assert s.n == 16
    assert s.kind == "matrix"
    sq = build_carrier("Mat(2,2,N(Zn:2))", size_bound=10 ** 6)
    assert sq.n == 256


def test_spec_grammar_polynomials():
    s = build_carrier("Poly(N(Zn:2),cyc=3)")
    assert s.n == 64
    assert s.kind == "poly"


def test_spec_grammar_subsets():
    s = build_carrier("Sub{(1,1),(1,-1),(-1,1),(-1,-1)} of N(Z)")
    assert s.n == 4
    assert is_group(s, "mul")


def test_subset_elements_coerce_through_the_ambient_domain():
    # Zn scalars reduce on parse, so [0,9] over Zn:3 is the zero interval
    s = build_carrier("Sub{[0,9]} of N(Zn:3)")
    assert [str(e) for e in s.elements] == ["0"]


@pytest.mark.parametrize("spec", [
    "Sub{(0,1),[1,2]} of N(Zn:3,oc)",
    "Sub{(0,1);(1,2),[1,1];[0,0]} of Mat(2,1,N(Zn:3,oc))",
    "Sub{(0,1)+(1,2)x,[1,1]} of Poly(N(Zn:3,oc),cyc=2)"])
def test_subset_elements_take_the_ambient_flavor(spec):
    s = build_carrier(spec)
    entries = [x for e in s.elements
               for x in getattr(e, "entries", getattr(e, "coeffs", (e,)))]
    assert entries and {x.flavor for x in entries} == {Flavor.OPEN_CLOSED}


def test_subset_of_punctured_ambient_rejects_zero_endpoints():
    with pytest.raises(ParseError):
        build_carrier("Sub{0,1} of N(Zn:3)\\0")
    s = build_carrier("Sub{1,2} of N(Zn:3)\\0")
    assert not s.has_op("add")
    assert s.has_op("mul")


def test_bad_specs_raise():
    for bad in ("N(W)", "N(Zn:4", "Mat(2,N(Zn:2))", "Poly(N(Zn:2),cyc=0)",
                "Frob(Zn:3)"):
        with pytest.raises(ParseError):
            build_carrier(bad)


def test_square_matrix_carrier_uses_matmul():
    s = build_carrier("Mat(2,2,N(Zn:2))")
    a = s.elements[3]
    b = s.elements[7]
    assert s.mul_fn(a, b) == a @ b


def test_rectangular_matrix_carrier_uses_hadamard():
    s = build_carrier("Mat(1,2,N(Zn:3))")
    a, b = s.elements[2], s.elements[5]
    assert s.mul_fn(a, b) == a.hadamard(b)


def test_corner_witness_for_matrix_s_ring():
    found, wit = corner_s_ring_witness(2, 2, Mod(6))
    assert found
    assert wit["order"] >= 2
    assert wit["ambient_order"] == (6 * 6) ** 4


# One spec of each kind the spec grammar builds.
KIND_SPECS = (
    "N(Zn:5)", "N(Zn:7)\\0", "N(ZnI:4)", "N(Zn+I:2)", "Mat(1,2,N(Zn:3))",
    "Mat(2,1,N(Zn:2))", "Poly(N(Zn:2),cyc=3)", "Fuzzy(min,step=1/5)",
    "Fuzzy(max,step=1/5)", "Fuzzy(prod,step=1/6)",
    "Sub{[0,0],[1,1],[-1,-1],[1,-1],[-1,1],[2,0]} of N(Z)",
    "Sub{(0,0],(1,1],(6,6],(1,6],(6,1]} of N(Zn:7,oc)",
    "Sub{[1/2,1],[1,1/2],[0,0],[1/2,1/2],[1,1]} of N(F01)",
    "Sub{0;0,[1,2];1,1;[0,1],2;2} of Mat(2,1,N(Zn:3))",
    "Sub{0,1,[1,0]x,x+1,[0,1]x+[1,0]} of Poly(N(Zn:2),cyc=2)",
)

FLAVOR_SPECS = ("N(Zn:4,c)", "N(Zn:5,o)", "N(Zn:6,oc)", "N(Zn:3,co)",
                "Poly(N(Zn:3,o),cyc=2)")


def _ops(spec):
    s = build_carrier(spec)
    return [(spec, op) for op in ("add", "mul") if s.has_op(op)]


@pytest.mark.parametrize(
    "spec, op",
    [c for spec in KIND_SPECS + FLAVOR_SPECS for c in _ops(spec)]
    + [("Mat(2,2,N(Zn:2))", "mul")])
def test_fast_tables_match_python_tables(spec, op):
    s = build_carrier(spec)
    fast = s.table(op)
    slow = s._build_table(op)
    assert fast.dtype == slow.dtype
    assert (fast == slow).all()
    # the scans and quotient tables read rows; a strided table slows them
    assert fast.flags.c_contiguous


def test_spec_built_carriers_never_use_the_pair_loop(monkeypatch):
    def refuse(s, op):
        raise AssertionError(f"pair loop used for {s.name} {op}")

    monkeypatch.setattr(FiniteStructure, "_build_table", refuse)
    for spec in KIND_SPECS:
        s = build_carrier(spec)
        for op in ("add", "mul"):
            if s.has_op(op):
                assert s.table(op).shape == (s.n, s.n)
