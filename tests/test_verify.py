import json

import pytest

from natint import claim_ids, run_verification, verify
from natint.carriers import interval_structure
from natint.intervals import Flavor, NaturalInterval
from natint.quotients import rees_quotient
from natint.scalars import Mod
from natint.structures import _first_leak


def test_claim_ids_are_unique_and_stable():
    ids = claim_ids()
    assert len(ids) == len(set(ids))
    assert len(ids) >= 70
    for must in ("thm-2.7", "ex-2.26", "ex-3.4", "thm-3.7", "ex-6.13",
                 "sec4-matmul", "ex-9.67", "fuzzy-assoc-grid"):
        assert must in ids


def test_single_claim_run():
    rep = run_verification(only=["ex-3.4"])
    assert rep["schema"] == "natint/1"
    assert rep["tool"] == "verify-book"
    assert len(rep["claims"]) == 1
    claim = rep["claims"][0]
    assert claim["claim_id"] == "ex-3.4"
    assert claim["status"] == "pass"
    assert claim["citation"]
    assert rep["ok"]


def test_known_errata_do_not_fail_the_run():
    rep = run_verification(only=["ex-3.14", "sec8-min-identity",
                                 "sec8-max-identity"])
    statuses = {c["claim_id"]: c["status"] for c in rep["claims"]}
    assert statuses == {"ex-3.14": "erratum",
                        "sec8-min-identity": "erratum",
                        "sec8-max-identity": "erratum"}
    assert rep["counts"]["erratum"] == 3
    assert rep["counts"]["fail"] == 0
    assert rep["ok"]


def test_skipped_claims_carry_notes():
    rep = run_verification(only=["ex-2.27", "ex-3.13", "ex-5.16"])
    for claim in rep["claims"]:
        assert claim["status"] == "skipped"
        assert claim["note"]


def test_erratum_records_both_sides():
    rep = run_verification(only=["sec8-min-identity"])
    claim = rep["claims"][0]
    assert claim["expected"] != claim["computed"]


def test_report_is_json_serializable_and_deterministic():
    a = run_verification(only=["thm-2.7", "ex-2.32", "sec1-cardinality"])
    b = run_verification(only=["thm-2.7", "ex-2.32", "sec1-cardinality"])
    assert json.dumps(a) == json.dumps(b)


def test_claims_run_in_catalogue_order():
    rep = run_verification(only=["ex-9.67", "ex-2.1"])
    got = [c["claim_id"] for c in rep["claims"]]
    ids = claim_ids()
    assert got == sorted(got, key=ids.index)


def test_a_checker_that_raises_is_a_fail(monkeypatch):
    def passes(ctx):
        return verify._result("pass", "x", "x", "")

    def raises(ctx):
        raise ValueError("no such carrier")

    monkeypatch.setattr(verify, "_REGISTRY", [
        ("passes", "a claim whose checker passes", passes),
        ("raises", "a claim whose checker raises", raises)])
    rep = run_verification()
    assert rep["claims"] == [
        {"claim_id": "passes", "status": "pass", "expected": "x",
         "computed": "x", "citation": "a claim whose checker passes"},
        {"claim_id": "raises", "status": "fail",
         "expected": "checker completes",
         "computed": "ValueError: no such carrier",
         "citation": "a claim whose checker raises"}]
    assert [list(c) for c in rep["claims"]] == [
        ["claim_id", "status", "expected", "computed", "citation"]] * 2
    assert rep["counts"] == {"pass": 1, "fail": 1, "erratum": 0,
                             "skipped": 0}
    assert rep["ok"] is False


@pytest.mark.parametrize("n, flavor, in_set_order, in_carrier_order", [
    (5, Flavor.OPEN, ["(0,1)", "1"], ["(0,1)", "1"]),
    (12, Flavor.CLOSED, ["[0,1]", "5"], ["[0,1]", "1"])])
def test_thm_2_5_reads_the_diagonal_in_set_order(n, flavor, in_set_order,
                                                 in_carrier_order):
    # The claim's witness is the first leak with the diagonal read in the
    # iteration order of a set of its indices, as recorded; in carrier
    # order the first leak of Zn:12 differs.
    s = interval_structure(Mod(n), flavor)
    diag = [i for i, e in enumerate(s.elements) if e.is_degenerate]
    every = range(s.n)
    assert s.labels(_first_leak(s, "mul", every, list(set(diag)),
                                diag)) == in_set_order
    assert s.labels(_first_leak(s, "mul", every, diag,
                                diag)) == in_carrier_order
    found = run_verification(only=["thm-2.5"])["claims"][0]["computed"]
    assert found[f"Zn:{n}"] == in_set_order


@pytest.mark.parametrize("seed", range(8))
def test_each_claim_reads_the_same_alone_as_in_a_full_run(seed):
    # a full run hands each collapse on to the later claims that read it,
    # memo state and all; each claim's record must not show it
    full = run_verification(seed)
    alone = [run_verification(seed, only=[c])["claims"][0]
             for c in claim_ids()]
    assert full["claims"] == alone
    assert full["counts"] == {"pass": 70, "fail": 0, "erratum": 5,
                              "skipped": 3}


def test_a_full_run_builds_each_interval_collapse_once(monkeypatch):
    built = []

    def counted(s, ideal):
        e = s.elements[0]
        if isinstance(e, NaturalInterval):
            built.append((e.domain.n, e.flavor))
        return rees_quotient(s, ideal)

    monkeypatch.setattr(verify, "rees_quotient", counted)
    run_verification(seed=0)
    assert len(built) == len(set(built)) == 15


def test_collapse_verdict_fails_on_an_earlier_failed_check():
    q = verify._collapse({"collapses": {}}, 3, Flavor.OPEN)
    status, expected, computed, _ = verify._collapse_verdict(q, 7, 3, [
        ("first", "wanted", "first_computed", "other", False),
        ("second", "wanted", "second_computed", "wanted", True)])
    assert status == "fail"
    assert list(expected.items()) == [
        ("classes", 7), ("characteristic", 3), ("first", "wanted"),
        ("second", "wanted")]
    assert list(computed.items()) == [
        ("classes", 7), ("characteristic", 3), ("first_computed", "other"),
        ("second_computed", "wanted")]
    # without a characteristic the key is left out and not computed
    _, expected, computed, _ = verify._collapse_verdict(q, 7, None, [])
    assert expected == computed == {"classes": 7}


def test_each_fails_on_an_earlier_failed_case():
    status, expected, computed, note = verify._each(
        [(1, "no"), (2, "yes")], "every case agrees",
        lambda k, word: (f"k={k}", word == "yes", {"word": word}),
        note="a note")
    assert status == "fail"
    assert expected == "every case agrees"
    assert list(computed.items()) == [("k=1", {"word": "no"}),
                                      ("k=2", {"word": "yes"})]
    assert note == "a note"
