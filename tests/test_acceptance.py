"""Acceptance suite: one test per numbered criterion, one printed verdict
line each (run with -s to see them on passing runs).  Everything here is
exact arithmetic — no tolerances anywhere.
"""

from fractions import Fraction

from natint import (
    F01,
    Flavor,
    Mod,
    Q,
    Z,
    check_subset_field,
    check_subset_group,
    corner_s_ring_witness,
    decomposition_suite,
    enumerate_ideals,
    fuzzy_semigroup_report,
    interval,
    interval_structure,
    is_group,
    is_ideal,
    is_s_ring,
    is_s_semigroup,
    iv_max,
    iv_min,
    matmul_decompose_suite,
    matrix_structure,
    maximal_minimal_ideals,
    modmap_suite,
    parse_domain,
    parse_ideal_spec,
    parse_matrix,
    quotient_analysis,
    rees_quotient,
    run_verification,
    semifield_verdict,
    span_dimension,
    strictness_suite,
    thm_unit_square_witness,
)
from natint.matrices import IntervalMatrix


def _report(num, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {label}: {verdict}{tail}")
    assert ok, f"criterion {num:02d} {label} failed{tail}"


def ziv(lo, hi, f=Flavor.CLOSED):
    return interval(Z, lo, hi, f)


def test_c01_cardinality_n_squared_all_flavors():
    ok = all(
        interval_structure(Mod(n), f).n == n * n
        for n in range(2, 13) for f in Flavor)
    _report(1, "cardinality |N(Zn)| = n^2, n=2..12, four flavors", ok,
            "44 carriers")


def test_c02_punctured_prime_carriers_are_groups():
    checked = []
    for p in (3, 5, 7, 11):
        s = interval_structure(Mod(p), remove_zero=True)
        checked.append(s.n == (p - 1) ** 2 and s.n <= 100
                       and is_group(s, "mul"))
    _report(2, "punctured prime carriers form groups of order (p-1)^2",
            all(checked), "p in {3,5,7,11}, exhaustive")


def test_c03_klein_table_cell_for_cell():
    e = ziv(1, 1, Flavor.OPEN)
    a = ziv(1, -1, Flavor.OPEN)
    b = ziv(-1, 1, Flavor.OPEN)
    c = ziv(-1, -1, Flavor.OPEN)
    elems = [e, a, b, c]
    expected = [
        ["1", "(1,-1)", "(-1,1)", "-1"],
        ["(1,-1)", "1", "-1", "(-1,1)"],
        ["(-1,1)", "-1", "1", "(1,-1)"],
        ["-1", "(-1,1)", "(1,-1)", "1"],
    ]
    table = [[str(x * y) for y in elems] for x in elems]
    grp, _ = check_subset_group(elems, lambda x, y: x * y)
    _report(3, "Klein four-group table over the sign pairs",
            grp and table == expected, "16 cells")


def test_c04_special_elements_mod_12():
    d = Mod(12)
    zero = interval(d, 0, 0)
    one = interval(d, 1, 1)
    idem = interval(d, 0, 4)
    nil = interval(d, 0, 6)
    ok = (idem * idem == idem
          and nil * nil == zero and nil != zero
          and interval(d, 3, 4) * interval(d, 4, 3) == zero
          and interval(d, 1, 11) ** 2 == one)
    _report(4, "N(Z12) special elements (idempotent/nilpotent/"
               "zero-divisor/unit)", ok)


def test_c05_rees_quotient_orders():
    counts = {}
    for n in range(2, 13):
        s = interval_structure(Mod(n))
        q = rees_quotient(s, parse_ideal_spec(s, "col-zero"))
        counts[n] = q.n
    ok = (all(counts[n] == n * n - n + 1 for n in range(2, 13))
          and counts[3] == 7 and counts[5] == 21 and counts[10] == 91)
    _report(5, "Rees quotient orders n^2-n+1 (7, 21, 91, ...)", ok,
            "n=2..12")


def test_c06_quotient_characteristics():
    chars = {}
    for n in (3, 5, 6, 7, 11):
        s = interval_structure(Mod(n))
        q = rees_quotient(s, parse_ideal_spec(s, "col-zero"))
        chars[n] = q.characteristic()
    ok = all(chars[n] == n for n in chars)
    _report(6, "quotient characteristic equals the modulus", ok,
            "p in {3,5,7,11} and n=6")


def test_c07_power_return_law_in_z5_quotient():
    d = Mod(5)
    s = interval_structure(d)
    q = rees_quotient(s, parse_ideal_spec(s, "col-zero"))
    t = q.table("mul")

    def power(c, k):
        acc = c
        for _ in range(k - 1):
            acc = int(t[acc, c])
        return acc

    c20 = int(q.class_of[s.index[interval(d, 2, 0)]])
    c40 = int(q.class_of[s.index[interval(d, 4, 0)]])
    every = all(
        any(power(c, k) == c for k in range(2, q.n + 2))
        for c in range(q.n))
    ok = (power(c20, 5) == c20
          and all(power(c20, k) != c20 for k in (2, 3, 4))
          and power(c40, 3) == c40
          and every)
    _report(7, "power-return law in N(Z5)/col-zero "
               "((2,0)^5 and (4,0)^3 return)", ok, "all 21 classes return")


def test_c08_sixteen_element_pair_structure():
    d = Mod(2)
    s = matrix_structure(1, 2, d)
    zrow = IntervalMatrix(1, 2, (interval(d, 0, 0),) * 2,
                          domain=d, flavor=Flavor.CLOSED)
    onerow = IntervalMatrix(1, 2, (interval(d, 1, 1),) * 2,
                            domain=d, flavor=Flavor.CLOSED)
    fld, _ = check_subset_field([zrow, onerow],
                                lambda x, y: x + y,
                                lambda x, y: x.hadamard(y))
    ideal = parse_ideal_spec(s, "col-zero")
    ideal_ok, _ = is_ideal(s, ideal.indices)
    q = rees_quotient(s, ideal)
    verdict = semifield_verdict(q)
    book = run_verification(only=["ex-6.13", "ex-6.13-semifield"])
    ok = (s.n == 16 and fld and ideal_ok and ideal.order == 4
          and q.n == 13 and q.characteristic() == 2
          and "has_zero_divisors" in verdict
          and book["ok"]
          and all(c["status"] in ("pass", "erratum")
                  for c in book["claims"]))
    _report(8, "16-element pair structure: 13-class quotient, char 2, "
               "semifield verdict brute-forced",
            ok, f"verdict={verdict['verdict']}")


def test_c09_s_structure_witnesses_reverified():
    ok = True
    for n in (4, 6, 12, 40):
        s = interval_structure(Mod(n))
        d = Mod(n)
        w = thm_unit_square_witness(s)
        elems = [interval(d, 1, 1), interval(d, 1, n - 1),
                 interval(d, n - 1, 1), interval(d, n - 1, n - 1)]
        grp, _ = check_subset_group(elems, lambda x, y: x * y)
        ok = ok and is_s_semigroup(s) and grp \
            and set(w["members"]) == {str(e) for e in elems}

    d12 = Mod(12)
    s12 = interval_structure(d12)
    ring_ok, info = is_s_ring(s12)
    trio = [interval(d12, k, k) for k in (0, 4, 8)]
    fld, finfo = check_subset_field(trio, lambda x, y: x + y,
                                    lambda x, y: x * y)
    ok = ok and ring_ok and set(info["members"]) == {"0", "4", "8"} \
        and fld and finfo["identity"] == "4"

    corner_ok, cinfo = corner_s_ring_witness(2, 2, Mod(6))
    ok = ok and corner_ok and cinfo["ambient_order"] == 36 ** 4
    _report(9, "S-structure witnesses (semigroup n=4,6,12,40; "
               "ring {0,4,8}; 2x2 corner over Z6)", ok)


def test_c10_mod_n_map_preserves_operations():
    reports = [modmap_suite(n, pairs=10_000, seed=0) for n in (3, 4, 11)]
    ok = all(r["ok"] and r["failures"] == 0 and r["cases"] == 10_000
             and r["kernel"] == f"N({r['modulus']}Z)" for r in reports)
    _report(10, "componentwise mod-n map preserves ops, kernel N(nZ)",
            ok, "10^4 pairs each for n=3,4,11")


def test_c11_worked_matrix_product_and_decomposition():
    A = parse_matrix(
        "[9,10],[0,3],[-2,1];[1,2],[0,0],[2,-1];[1,1],[3,1],[-1,-4]", Z)
    B = parse_matrix(
        "[0,3],[0,0],[-2,-1];[1,-1],[3,1],[-3,-9];[8,0],[5,7],[1,-5]", Z)
    want = parse_matrix(
        "[-16,27],[-10,10],[-20,-42];"
        "[16,6],[10,-7],[0,3];"
        "[-5,2],[4,-27],[-12,10]", Z)
    C = A @ B
    suite = matmul_decompose_suite(cases=1000, seed=0)
    ok = (C == want
          and C.entry(0, 0) == ziv(-16, 27)
          and suite["ok"]
          and all(d["failures"] == 0 and d["cases"] == 1000
                  for d in suite["domains"]))
    _report(11, "3x3 worked product, entry (1,1) = [-16,27]; "
                "10^3 decomposition oracle cases", ok, "Zn:7 and Q")


def test_c12_span_dimensions():
    ok = True
    for p in (7, 11):
        d = Mod(p)
        basis = [parse_matrix("[1,0]", d), parse_matrix("[0,1]", d)]
        rep = span_dimension(basis, d)
        ok = ok and rep["dimension"] == 2 and rep["spans"]

    d11 = Mod(11)
    hot = ["[1,0],[0,0],[0,0]", "[0,1],[0,0],[0,0]",
           "[0,0],[1,0],[0,0]", "[0,0],[0,1],[0,0]",
           "[0,0],[0,0],[1,0]", "[0,0],[0,0],[0,1]"]
    rep = span_dimension([parse_matrix(t, d11) for t in hot], d11)
    ok = ok and rep["dimension"] == 6 and rep["spans"]
    _report(12, "dim N(Zp) = 2 for p=7,11; 3-slot row space has dim 6 "
                "over Z11", ok)


def test_c13_neutrosophic_arithmetic():
    zi = parse_domain("Z+I")
    x = interval(zi, zi.parse_scalar("5+2I"), zi.parse_scalar("-7+5I"))
    y = interval(zi, zi.parse_scalar("-3+8I"), zi.parse_scalar("-I"))
    prod_ok = str(x * y) == "[-15+50I,2I]"

    z12i = parse_domain("ZnI:12")
    a = z12i.parse_scalar("4I")
    v = interval(z12i, a, a)
    idem_ok = v * v == v and z12i.mul(a, a) == a
    _report(13, "neutrosophic products ([5+2I,-7+5I]x[-3+8I,-I] and "
                "(4I)^2 = 4I in Z12I)", prod_ok and idem_ok)


def test_c14_fuzzy_values_and_associativity():
    def fiv(lo, hi, f=Flavor.CLOSED):
        return interval(F01, Fraction(lo), Fraction(hi), f)

    vals_ok = (
        fiv("3/10", "6/10") * fiv("2/10", "3/10") == fiv("6/100", "18/100")
        and iv_min(fiv("3/10", "7/10", Flavor.OPEN),
                   fiv("5/10", "4/10", Flavor.OPEN))
        == fiv("3/10", "4/10", Flavor.OPEN)
        and iv_max(fiv("3/10", "7/10", Flavor.OPEN),
                   fiv("5/10", "4/10", Flavor.OPEN))
        == fiv("5/10", "7/10", Flavor.OPEN))
    reports = {op: fuzzy_semigroup_report(op) for op in ("min", "max",
                                                         "prod")}
    assoc_ok = all(r["associative"] for r in reports.values())
    _report(14, "fuzzy worked values exact; min/max/prod associativity "
                "on the 1/10 grid", vals_ok and assoc_ok)


def test_c15_property_suites():
    rep = decomposition_suite(cases=100_000, seed=0, workers=4)
    decomp_ok = (rep["ok"] and len(rep["domains"]) == 6
                 and all(d["failures"] == 0 and d["cases"] == 100_000
                         for d in rep["domains"]))

    strict = strictness_suite(cases=20_000, seed=0)
    strict_ok = strict["ok"] and strict["suite"] == "strict-semiring"

    ideals_ok = True
    for n in (4, 5, 6):
        s = interval_structure(Mod(n))
        for ideal in enumerate_ideals(s):
            good, _ = is_ideal(s, ideal.indices)
            ideals_ok = ideals_ok and good

    two_ok = all(
        maximal_minimal_ideals(
            interval_structure(Mod(p)))["proper_nonzero"] == 2
        for p in (3, 5, 7))

    _report(15, "property suites (10^5 decompositions/domain, strict "
                "semiring, ideals validate, exactly two proper ideals)",
            decomp_ok and strict_ok and ideals_ok and two_ok)
