import pytest

from natint import (
    Flavor,
    Ideal,
    Mod,
    NotAnIdeal,
    build_carrier,
    enumerate_ideals,
    generate_ideal,
    interval,
    interval_structure,
    is_ideal,
    maximal_minimal_ideals,
    parse_ideal_spec,
    quotient_analysis,
    rees_quotient,
    semifield_verdict,
    standard_quotient,
)


def carrier(n, flavor=Flavor.CLOSED):
    return interval_structure(Mod(n), flavor)


def test_col_zero_is_an_ideal():
    s = carrier(5)
    ideal = parse_ideal_spec(s, "col-zero")
    assert ideal.order == 5
    ok, info = is_ideal(s, ideal.indices)
    assert ok and info["order"] == 5


def test_row_zero_is_an_ideal():
    s = carrier(7)
    ok, _ = is_ideal(s, parse_ideal_spec(s, "row-zero").indices)
    assert ok


def test_diagonal_is_not_a_multiplicative_ideal():
    # [2,2]*[1,0] = [2,0] leaves the diagonal
    s = carrier(5)
    diag = [i for i, e in enumerate(s.elements) if e.lo == e.hi]
    ok, info = is_ideal(s, diag)
    assert not ok
    assert "absorbing" in info["reason"]


def test_generated_ideal_closure():
    s = carrier(6)
    g = s.index[interval(Mod(6), 2, 2)]
    idx = generate_ideal(s, [g])
    ok, _ = is_ideal(s, idx)
    assert ok


def test_ideal_spec_errors():
    s = carrier(4)
    with pytest.raises(Exception):
        parse_ideal_spec(s, "no-such-spec")
    with pytest.raises(Exception):
        parse_ideal_spec(s, "gen{")


def test_rees_class_count():
    # collapsing an ideal of order k leaves n^2 - k + 1 classes: the ideal
    # and one class for each element outside it
    for n, spec, classes in ((3, "col-zero", 7), (5, "col-zero", 21),
                             (10, "col-zero", 91), (10, "row-zero", 91),
                             (10, "gen{[2,0]}", 96), (10, "gen{[2,3]}", 51)):
        s = carrier(n)
        ideal = parse_ideal_spec(s, spec)
        q = rees_quotient(s, ideal)
        assert q.n == classes == n * n - ideal.order + 1


def test_rees_zero_class_and_labels():
    s = carrier(3)
    q = rees_quotient(s, parse_ideal_spec(s, "col-zero"))
    assert q.label(0) == "col-zero"
    # non-ideal elements keep their own labels
    labels = {q.label(c) for c in range(1, q.n)}
    assert "[1,0]" in labels or "(1,0)" in labels


def test_standard_quotient_of_additive_group():
    s = carrier(3, Flavor.OPEN)
    q = standard_quotient(s, parse_ideal_spec(s, "col-zero"))
    assert q.n == 3
    rep = quotient_analysis(q)
    assert rep["classes"] == 3
    assert rep["diagnostics"]["well_defined_add"]
    assert rep["diagnostics"]["well_defined_mul"]


def test_rees_addition_not_well_defined():
    s = carrier(5, Flavor.OPEN)
    q = rees_quotient(s, parse_ideal_spec(s, "col-zero"))
    diag = q.diagnostics()
    assert diag["well_defined_mul"]
    assert not diag["well_defined_add"]


def test_quotient_characteristic_matches_modulus():
    for n in (3, 5, 6, 7, 11):
        s = carrier(n)
        q = rees_quotient(s, parse_ideal_spec(s, "col-zero"))
        assert q.characteristic() == n


def test_rejects_non_ideal():
    s = carrier(4)
    not_ideal = Ideal(s, [s.index[interval(Mod(4), 1, 1)],
                          s.index[interval(Mod(4), 0, 0)]])
    with pytest.raises(NotAnIdeal):
        rees_quotient(s, not_ideal)


def test_power_return_in_z5_quotient():
    s = carrier(5, Flavor.OPEN)
    q = rees_quotient(s, parse_ideal_spec(s, "col-zero"))
    t = q.table("mul")

    def power(c, k):
        acc = c
        for _ in range(k - 1):
            acc = int(t[acc, c])
        return acc

    c20 = int(q.class_of[s.index[interval(Mod(5), 2, 0, Flavor.OPEN)]])
    c40 = int(q.class_of[s.index[interval(Mod(5), 4, 0, Flavor.OPEN)]])
    assert power(c20, 5) == c20
    assert power(c40, 3) == c40
    # every class returns to itself at some exponent > 1
    for c in range(q.n):
        assert any(power(c, k) == c for k in range(2, 7))


def test_enumerate_ideals_all_validate():
    for n in (4, 5, 6):
        s = carrier(n)
        ideals = enumerate_ideals(s)
        assert ideals
        for ideal in ideals:
            ok, _ = is_ideal(s, ideal.indices)
            assert ok


def test_exactly_two_proper_ideals_for_primes():
    for p in (3, 5, 7):
        rep = maximal_minimal_ideals(carrier(p))
        assert rep["proper_nonzero"] == 2
        assert len(rep["minimal"]) == 2
        assert len(rep["maximal"]) == 2
        shapes = [set(i.members()) for i in rep["minimal"]]
        col = {str(interval(Mod(p), 0, b)) if b else "0" for b in range(p)}
        assert col in shapes


@pytest.mark.parametrize("spec", ["N(Zn:6)", "N(Zn:8)", "N(Zn:4,o)",
                                  "N(ZnI:2)", "Mat(1,2,N(Zn:2))",
                                  "Poly(N(Zn:2),cyc=2)"])
def test_minimal_and_maximal_ideals_by_definition(spec):
    s = build_carrier(spec)
    sets = [set(i.indices) for i in enumerate_ideals(s)]
    proper = [f for f in sets if len(f) < s.n]
    nonzero = [f for f in proper if f != {s.identity_index("add")}]

    def ordered(fs):
        return sorted(fs, key=lambda f: (len(f), sorted(f)))

    rep = maximal_minimal_ideals(s)
    assert (rep["total"], rep["proper_nonzero"]) == (len(sets), len(nonzero))
    assert [set(i.indices) for i in rep["minimal"]] == ordered(
        f for f in nonzero if not any(g < f for g in nonzero))
    assert [set(i.indices) for i in rep["maximal"]] == ordered(
        f for f in proper if not any(f < g for g in proper))


def test_composite_modulus_has_more_ideals():
    rep = maximal_minimal_ideals(carrier(6))
    assert rep["proper_nonzero"] > 2


def test_semifield_verdict_prime_vs_composite():
    # over Z5 no two nonzero classes multiply into the ideal: lo-parts
    # are nonzero mod a prime
    s = carrier(5)
    q = rees_quotient(s, parse_ideal_spec(s, "col-zero"))
    verdict = semifield_verdict(q)
    assert verdict["commutative"]
    assert verdict["identity"] == "1"
    assert verdict["has_zero_divisors"] is False
    # over Z6 the classes of [2,1] and [3,1] collapse: 2*3 = 0 mod 6
    s6 = carrier(6)
    q6 = rees_quotient(s6, parse_ideal_spec(s6, "col-zero"))
    verdict6 = semifield_verdict(q6)
    assert verdict6["has_zero_divisors"] is True
    assert verdict6["verdict"] != "semifield"


def test_quotient_analysis_shape():
    s = carrier(3)
    q = rees_quotient(s, parse_ideal_spec(s, "col-zero"))
    rep = quotient_analysis(q)
    assert rep["schema"] == "natint/1"
    assert rep["kind"] == "rees"
    assert rep["classes"] == 7
    assert rep["characteristic"] == 3
    assert rep["ideal"]["order"] == 3
    assert any(entry["k"] > 1 for entry in rep["power_return"])
