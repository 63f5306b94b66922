import random
import types
from fractions import Fraction

import pytest

from natint import (
    decomposition_suite,
    matmul_decompose_suite,
    modmap_suite,
    poly_decompose_suite,
    strictness_suite,
)
from natint import suites
from natint.errors import FuzzyRangeOverflow
from natint.intervals import NaturalInterval
from natint.scalars import ModDomain
from natint.suites import modmap_suites
from test_golden import FAULTS, _fault


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


def _add_clamped(add):
    # an F01 interval sum that stays at 1 where a component overflows
    def op(self, other):
        try:
            return add(self, other)
        except FuzzyRangeOverflow:
            d = self.domain
            return NaturalInterval(d, min(self.lo + other.lo, d.one),
                                   min(self.hi + other.hi, d.one),
                                   self.flavor)
    return op


def _add_overflows_early(add):
    # an F01 interval sum that overflows once its hi passes 9/10
    def op(self, other):
        out = add(self, other)
        if out.domain.kind == "FuzzyUnit" and out.hi > Fraction(9, 10):
            raise FuzzyRangeOverflow(f"{out} leaves [0, 9/10]")
        return out
    return op


@pytest.mark.parametrize("patch, cases, failures, first", [
    (_add_clamped, 20, 15,
     {"domain": "F01", "op": "add", "x": "[49/100,97/100]",
      "y": "[53/100,1/20]", "case": 0, "got": "1", "expected": "overflow"}),
    (_add_overflows_early, 200, 11,
     {"domain": "F01", "op": "add", "x": "[19/100,1/25]",
      "y": "[1/10,89/100]", "case": 28, "got": "overflow",
      "expected": "[29/100,93/100]"})],
    ids=["interval-side-sums", "interval-side-overflows"])
def test_a_one_sided_f01_overflow_is_a_failure(patch, cases, failures, first,
                                               monkeypatch):
    # the interval sum must overflow exactly when a component does; where
    # only one side overflows, the record says so on that side
    monkeypatch.setattr(NaturalInterval, "__add__",
                        patch(NaturalInterval.__add__))
    rep = decomposition_suite(cases=cases, seed=0, domains=["F01"])
    [f01] = rep["domains"]
    assert f01["failures"] == failures
    assert f01["first_failures"][0] == first
    assert {f["op"] for f in f01["first_failures"]} == {"add"}


def test_modmap_preserves_operations():
    for n in (3, 4, 11):
        rep = modmap_suite(n, pairs=2000, seed=7)
        assert rep["ok"]
        assert rep["failures"] == 0
        assert rep["kernel"] == f"N({n}Z)"


def test_modmap_kernel_check_reduces_through_the_domain(monkeypatch):
    # batched at 6, case by case at 70 (above MODMAP_BATCHED); a coercion
    # that sends the nonzero multiples of n to 1 fails the kernel check
    for n in (6, 70):
        assert modmap_suite(n, pairs=2000, seed=1)["ok"]
    canon = ModDomain._canon
    monkeypatch.setattr(ModDomain, "_canon", lambda self, value: (
        canon(self, value) or int(value != 0)))
    for n in (6, 70):
        rep = modmap_suite(n, pairs=2000, seed=1)
        assert not rep["ok"]
        assert {f["op"] for f in rep["first_failures"]} == {"kernel"}


def test_modmap_map_reads_residues_through_the_domain(monkeypatch):
    # batched at 6, case by case at 70; a coercion that sends residue 1
    # to 0 breaks phi, which the ops then catch
    canon = ModDomain._canon
    monkeypatch.setattr(ModDomain, "_canon", lambda self, value: (
        0 if canon(self, value) == 1 else canon(self, value)))
    for n in (6, 70):
        assert not modmap_suite(n, pairs=2000, seed=1)["ok"]


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


def _mul_off_by_one_mod_4(monkeypatch):
    # mod 4, 3 * 3 is off by one
    mul = ModDomain.mul
    monkeypatch.setattr(ModDomain, "mul", lambda self, x, y: (
        mul(self, x, y) + (self.n == 4 and x == y == 3)) % self.n)


def _mod_fault(monkeypatch):
    # tests/test_golden.py's "mod" fault: a flipped hi endpoint from add,
    # sub or mul over Zn on about one operand pair in a thousand
    ops, kind, zero_sum = FAULTS["mod"]
    for attr in ops:
        monkeypatch.setattr(NaturalInterval, attr, _fault(
            vars(NaturalInterval)[attr], kind, zero_sum))


def test_a_modulus_that_fails_an_op_keeps_its_own_stream(monkeypatch):
    # a modulus that fails an op draws no kernel multipliers on that case
    # where another passes and draws them, so their streams would part on
    # one shared pass: each report must still be the modulus's own.  Each
    # fault comes with the ops each modulus fails (none: it passes)
    for fault, ops in ((_mul_off_by_one_mod_4, [set(), {"mul"}, set()]),
                       (_mod_fault, [{"add"}, {"add"}, {"add"}])):
        with monkeypatch.context() as m:
            fault(m)
            for seed in (0, 5):
                reports = modmap_suites(MODULI, pairs=1500, seed=seed)
                assert reports == [modmap_suite(n, pairs=1500, seed=seed)
                                   for n in MODULI]
                assert [r["ok"] for r in reports] == [not o for o in ops]
                assert [{f["op"] for f in r.get("first_failures", ())}
                        for r in reports] == ops


TWIN_MODULI = [(n,) for n in (2, 3, 4, 5, 6, 7, 11, 12, 30)] + [MODULI]
TWIN_PAIRS = (0, 1, 999, 1000, 1001, 2500)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("fault", [None, _mod_fault, _mul_off_by_one_mod_4],
                         ids=["no-fault", "mod-fault", "mul-off-by-one"])
def test_batched_modmap_matches_the_case_loop(fault, seed, monkeypatch):
    # the batched pass gives the case loop's (empty) failure lists when
    # every case passes, and None exactly when some case fails
    if fault is not None:
        fault(monkeypatch)
    outcomes = set()
    for moduli in TWIN_MODULI:
        for pairs in TWIN_PAIRS:
            want = [suites._modmap_cases(n, pairs, seed) for n in moduli]
            got = suites._modmap_batched(moduli, pairs, seed)
            failed = any(want)
            outcomes.add(failed)
            assert got == (None if failed else want), (moduli, pairs)
    # without a fault nothing fails; under either fault some moduli and
    # case counts fail and some pass
    assert outcomes == ({False} if fault is None else {False, True})


def test_batched_modmap_draws_what_the_case_loop_draws(monkeypatch):
    # a pass that parts from the stream still reports no failure, so the
    # draws themselves are compared: every bit-draw of every chunk
    class Logged(random.Random):
        def getrandbits(self, k):
            out = super().getrandbits(k)
            log.append((k, out))
            return out

    monkeypatch.setattr(suites, "random", types.SimpleNamespace(
        Random=Logged))
    for seed in (0, 3):
        for moduli in ((5,), MODULI):
            log = []
            assert suites._modmap_batched(moduli, 2500, seed) == [
                [] for _ in moduli]
            batched = log
            # four endpoint draws and two kernel draws a case, at least
            assert len(batched) >= 6 * 2500
            for n in moduli:
                log = []
                assert suites._modmap_cases(n, 2500, seed) == []
                assert log == batched, n


def test_batched_modmap_runs_each_image_op_once_per_operand_pair(
        monkeypatch):
    mul = NaturalInterval.__mul__
    calls = []

    def counted(self, other):
        if self.domain.kind == "Mod":
            calls.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(NaturalInterval, "__mul__", counted)
    assert modmap_suite(3, pairs=10000)["ok"]
    # N(Z3) has 9 elements, so 81 operand pairs
    assert 0 < len(calls) <= 81


def test_a_modulus_too_large_to_intern_is_checked_case_by_case(
        monkeypatch):
    # N(Zn) of a modulus above MODMAP_BATCHED is not interned: the batched
    # pass declines before it draws, and the case loop gives the reports
    big = suites.MODMAP_BATCHED + 1
    with monkeypatch.context() as m:
        m.setattr(suites, "run_chunked", None)
        assert suites._modmap_batched((3, big), 10, 0) is None
    moduli = (3, big, 10**12)
    reports = modmap_suites(moduli, pairs=200, seed=4)
    assert reports == [modmap_suite(n, pairs=200, seed=4) for n in moduli]
    assert all(r["ok"] for r in reports)
