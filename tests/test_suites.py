from natint import (
    decomposition_suite,
    matmul_decompose_suite,
    modmap_suite,
    poly_decompose_suite,
    strictness_suite,
)
from natint.scalars import ModDomain
from natint.suites import modmap_suites


def test_decomposition_small_run_is_clean():
    rep = decomposition_suite(cases=2000, seed=0)
    assert rep["ok"]
    assert {r["domain"] for r in rep["domains"]} == \
        {"Z", "Q", "Zn:12", "ZnI:7", "Zn+I:5", "F01"}
    for r in rep["domains"]:
        assert r["failures"] == 0


def test_decomposition_deterministic_across_workers():
    one = decomposition_suite(cases=3000, seed=42, workers=1)
    four = decomposition_suite(cases=3000, seed=42, workers=4)
    assert one == four


def test_modmap_preserves_operations():
    for n in (3, 4, 11):
        rep = modmap_suite(n, pairs=2000, seed=7)
        assert rep["ok"]
        assert rep["failures"] == 0
        assert rep["kernel"] == f"N({n}Z)"


def test_modmap_seed_changes_nothing_about_verdict():
    a = modmap_suite(5, pairs=1500, seed=1)
    b = modmap_suite(5, pairs=1500, seed=2)
    assert a["ok"] and b["ok"]
    assert a != b  # the seed is recorded, so reports differ textually


def test_matmul_decompose_suite():
    rep = matmul_decompose_suite(cases=200, seed=0)
    assert rep["ok"]


def test_poly_decompose_suite():
    rep = poly_decompose_suite(cases=300, seed=0)
    assert rep["ok"]


def test_strictness_suite():
    rep = strictness_suite(cases=4000, seed=0)
    assert rep["ok"]
    assert rep["suite"] == "strict-semiring"


def test_same_seed_same_report():
    assert modmap_suite(7, pairs=1000, seed=9) == \
        modmap_suite(7, pairs=1000, seed=9)


MODULI = (3, 4, 11)


def test_modmap_suites_equal_one_call_per_modulus():
    # thm-3.10-modmap checks its three moduli on one pass over the draws;
    # each report must be the one modulus's own, at every seed
    for seed in range(8):
        assert modmap_suites(MODULI, pairs=1500, seed=seed) == [
            modmap_suite(n, pairs=1500, seed=seed) for n in MODULI]


def test_a_modulus_that_fails_an_op_keeps_its_own_stream(monkeypatch):
    # mod 4, 3 * 3 is off by one: that modulus fails mul and draws no
    # kernel multipliers where the others pass, so its stream parts from
    # theirs and its report must still be its own
    mul = ModDomain.mul
    monkeypatch.setattr(ModDomain, "mul", lambda self, x, y: (
        mul(self, x, y) + (self.n == 4 and x == y == 3)) % self.n)
    for seed in (0, 5):
        reports = modmap_suites(MODULI, pairs=1500, seed=seed)
        assert reports == [modmap_suite(n, pairs=1500, seed=seed)
                           for n in MODULI]
        assert [r["ok"] for r in reports] == [True, False, True]
        assert {f["op"] for f in reports[1]["first_failures"]} == {"mul"}
