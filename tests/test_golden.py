"""Golden outputs: the sha256 of the stdout of `natint.cli.main` for a
fixed list of requests, with the exit code.

The list covers the exhaustive S-ring search, a subfield witness, subset
and product carriers, the fuzzy grid, both quotient kinds, ideal
enumeration, a generated ideal, refused ideal verdicts (exit 4) with an
addition and an absorption witness, and the claim catalogue.  SUITES pins
the sha256 of the sorted-key JSON of three seeded suite reports (all six
decomposition domains), at its recorded worker count and at 1 and 4.  A
passing report holds no witnesses, so FAULTED pins every suite's report
under an injected interval fault: its failure count and first witnesses
show the draw order, the op order, the witness text and the chunk-merge
order.  Re-record only when an output is meant to
change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json

import pytest

from natint import suites
from natint.cli import main
from natint.intervals import NaturalInterval

GOLDEN = {
    ('analyze', 'N(Zn:4)'): (
        0, "a483e48b804b0c4b8d80c2ff7ef890bea659faec048296d6a11ebe83fdbc90e5"),
    ('analyze', 'N(Zn:8)'): (
        0, "96f8473e228cdd986218c95b236389044363466093cf313e6ec0e1b6ca3b5964"),
    ('analyze', 'N(ZnI:4)'): (
        0, "2630c2213ad27bd7ec5187d32618cf2f345fb967975d50936ba0bc4bfa180852"),
    ('analyze', 'N(Zn:12,o)'): (
        0, "0c08370f3c8aa9eb48710e1b5e5d39019c11b6ec0f57002b1f131407eb7b6519"),
    ('analyze', 'N(Zn:7)\\0'): (
        0, "2fc4797fddd0c41135e4179eaf98d64530cffe191cd074e7f46f977c57d3a6c4"),
    ('analyze', 'Sub{[0,0],[1,1],[-1,-1],[1,-1],[-1,1]} of N(Z)'): (
        0, "da4157594bdb8df78483bb410b554ef69eee46862914d6d30da09a3e27886f63"),
    ('analyze', 'Sub{(0,0],(1,1],(6,6],(1,6],(6,1]} of N(Zn:7,oc)'): (
        0, "c93e8482353abd3ed91445ea6d4daeef46193467843905747addab54f2bc220f"),
    ('analyze', 'Mat(1,2,N(Zn:2))'): (
        0, "31a668e8b2ff9ebb0855e58c6bb09e64b34351ad82d964b1002be9a40834e1bc"),
    ('analyze', 'Poly(N(Zn:2),cyc=2)'): (
        0, "fcf1115482372cf423f8a87d259c9e47be995979a0046eb423194d1beb897f84"),
    ('analyze', 'Fuzzy(prod,step=1/4)'): (
        0, "a7148e6046dc2b704add5d9404c290b46ed5c34aefd077ad7acb2e6d001b7a39"),
    ('analyze', 'Fuzzy(min,step=1/3)'): (
        0, "59bdde90df8ef4df2ce4276258b00188c2e43e2fa570e40f02644825bd987d64"),
    ('quotient', 'N(Zn:12)', 'col-zero', '--kind', 'rees'): (
        0, "b647045da3c09d2823d385642823a02c3f624e3532fa53becf60d0a5606213c6"),
    ('quotient', 'N(Zn:12)', 'col-zero', '--kind', 'standard'): (
        0, "741e9abb3c34c0c8fffd8950b980311b92d125e3e062bd26f3b83f73a99be894"),
    ('verify-book', '--seed', '0'): (
        0, "70d2637c78c51de4d703451d5304e0717341b361253b3d4e58cc88f036c7462b"),
    ('table', 'N(ZnI:4)', 'mul'): (
        0, "fbba3b2a48b56221d96055d8d79cba3feeade44f5c71acf028fe379a8b7c7d39"),
    ('table', 'N(Zn+I:2)', 'add'): (
        0, "9b2d0eb54efd473dd42977494c366d871fe46dc18e028c59f7b5708ff08b4496"),
    ('table', 'Mat(2,1,N(Zn:3))', 'mul'): (
        0, "515908b8d3f7fb551e3201a22301ba8bb58adc54d3c37483d3a82c58b858dfcc"),
    ('table', 'Poly(N(Zn:2),cyc=3)', 'mul'): (
        0, "80ff52a9f37b35231b572354c744036da2eac9c469d890c163f627f81a2ae30e"),
    ('table', 'Fuzzy(prod,step=1/6)', 'mul'): (
        0, "e6f9e0074b7036dca2d966cb91b5f2480590fbf3361bb95d20417f9687edc640"),
    ('table', 'Sub{[1/2,1],[1,1/2],[0,0],[1/2,1/2],[1,1]} of N(F01)', 'add'): (
        0, "a96ba619a4e3b9c18be51d12d323c2b9564cd2a0e1bb4f6109941fcbc0113f74"),
    ('ideal', 'N(Zn:12)'): (
        0, "78732989fe50d74cdc56ce22d9856e46e08ae4d758f43de1fe86a17e4d1abb5c"),
    ('ideal', 'N(Zn:12)', 'gen{[2,3]}'): (
        0, "b65dc5f2a8dad26ef1cbc41429a0594eb08a95acd75735a618a3f631be496774"),
    ('ideal', 'Sub{[0,0],[0,1],[0,6],[1,1],[6,6]} of N(Zn:7)', 'col-zero'): (
        4, "407e89f1f15e35c52a875e673ea764d3da92199cab2b189249fa7a12c401adad"),
    ('ideal', 'Mat(2,2,N(Zn:2))', 'col-zero'): (
        4, "9d61925031707e5c1ed4925653c2040b010df6f6cfa0252e3d1fe2a3bf01229b"),
    ('ideal', 'Mat(2,2,N(Zn:2))', 'row-zero'): (
        4, "88c0ea401e8095afe0dfe9fa6f32bf04b9f08d5a2d9ddc0446cd2ba41a31c515"),
    ('quotient', 'Mat(1,2,N(Zn:3))', 'col-zero', '--kind', 'rees'): (
        0, "4df5820e7f46e0b54741ea13aa3085aeea5de4b3675ce9ad8690e3cc23df8672"),
    ('quotient', 'N(Zn:12)', 'diag-multiples:2', '--kind', 'rees'): (
        0, "f372846b7cde9373875a634c19214fe6b4f68212bac6e6ff8b3f8c65119ab3e6"),
    ('analyze', 'N(Zn:17)\\0'): (
        0, "37b790c3044bfb3ff7ebf89293065f8024e25c639e333f7c71e0e14a09a5bcf8"),
    ('analyze', 'Fuzzy(max,step=1/15)'): (
        0, "c9d49a0b53b9a80d6d7ab56682aeef350ddbe92e537bc83912ee0e7a81806d94"),
    ('analyze', 'Mat(2,2,N(Zn:2))'): (
        0, "4e2d84a0fd28c4cc22887c967766cfa72dcfce88a38ec3ca2228fcb0ad18505f"),
    ('analyze', 'Poly(N(Zn:3),cyc=2)'): (
        0, "8d4c56115bf9652f6fd4fad4df06eb9e11f5d206aa556070c79cf6defd4e52c2"),
    ('analyze', 'N(Zn+I:3)'): (
        0, "9bbf97115e57faf40ec2ac4f89ee84e83e01243be45e54274711ee7c7f329c3b"),
    ('analyze', 'N(ZnI:8)'): (
        0, "58f9d7710325cb3da19fdf852f17ee21d7508a559da1b2150de1b4da3a2aa8bf"),
    ('quotient', 'N(Zn:16)', 'row-zero', '--kind', 'rees'): (
        0, "678345955502de88484660764f0ca5f01ac82561c80297efa1d65d756887f774"),
    ('quotient', 'N(Zn:24)', 'col-zero', '--kind', 'standard'): (
        0, "39a341fa987563ef1fbf73464b9dc64c6d9985dec70fd77776a7e5cf380b5aaf"),
    ('analyze', 'N(Zn:16)'): (
        0, "275f2cfa263fabd025f321e41f889e571b73af424a3ac93cd9571fd19312128c"),
    ('verify-book', '--seed', '0', '--format', 'text'): (
        0, "cd1f87846933f904705de6d2606479cf1e753af575ba741669782372c008d31e"),
    ('verify-book', '--seed', '0', '--format', 'csv'): (
        0, "8379eab3f391db7b97bd6ebaa0d492c67c57850ff58ed9b26001f0c3a0f3ba5c"),
}


# suite -> (keyword arguments, sha256 of its sorted-key JSON report)
SUITES = {
    "decomposition_suite": (
        {"cases": 2000, "seed": 7, "workers": 2},
        "26aa5631bd725697a0fcdcd413df4a1fea604e55209a02e75ab5fd809c13ff12"),
    "modmap_suite": (
        {"n": 12, "pairs": 2000, "seed": 7, "workers": 2},
        "fcf160e936d69814c946de0fc511d5802a75a33ea11a642810a337436128f54e"),
    "strictness_suite": (
        {"cases": 2000, "seed": 7, "workers": 2},
        "be9246882b15aeda27756e906434c1c7d61c3fb74755b076197d39879c925623"),
}

# An interval operator whose result is wrong on roughly one operand pair
# in RATE.  The pair is picked by the hash of its endpoints (ints,
# Fractions and tuples of them hash alike in every process), so a case
# fails the same way on any worker count, and every faulted operator fails
# on it: the first failing op shows the order the ops run in.
RATE = 1009


def _flip(d, v):
    return d.one if v == d.zero else d.zero


def _fault(orig, kind, zero_sum):
    def op(self, other):
        out = orig(self, other)
        d = out.domain
        if ((kind is None or d.kind == kind)
                and hash((self.lo, self.hi, other.lo, other.hi)) % RATE == 0):
            if zero_sum:
                return NaturalInterval(d, d.zero, d.zero, out.flavor)
            return NaturalInterval(d, out.lo, _flip(d, out.hi), out.flavor)
        return out
    return op


# A fault every suite detects: a flipped hi endpoint from add, sub or mul
# (only over Zn for modmap, whose ambient side is Z), or, for strictness,
# a sum forced to zero.  fault -> (operators, the domain kind it hits or
# None for all, zero sum)
RING_OPS = ("__add__", "__sub__", "__mul__")
FAULTS = {"flip": (RING_OPS, None, False), "mod": (RING_OPS, "Mod", False),
          "zero-sum": (("__add__",), None, True)}

# name -> (suite, keyword arguments, fault, sha256 of its sorted-key JSON
# report under that fault)
FAULTED = {
    "decomposition": (
        "decomposition_suite", {"cases": 3000, "seed": 5}, "flip",
        "6793883a4e1a822b236102c8a2de0ee779c0c782e3488eab2ba893dd90dabe9a"),
    "modmap": (
        "modmap_suite", {"n": 12, "pairs": 3000, "seed": 5}, "mod",
        "0c0c845578cd086a8c8a9a86c51be566675d4401026016baf995bf5d69012248"),
    "matmul": (
        "matmul_decompose_suite", {"cases": 300, "seed": 5}, "flip",
        "9ca325618f548517217816ca4ba3db6229741913ef065c4559077d6317a96e13"),
    "poly": (
        "poly_decompose_suite", {"cases": 600, "seed": 5}, "flip",
        "fcb544df62c30bfec38394c6174fadd2512b283351ca7751f01415b49fb9a059"),
    "poly-cyclic": (
        "poly_decompose_suite", {"cases": 600, "seed": 5, "cyclic": 3},
        "flip",
        "75d28af03d372d8f3e864d03e9f811f2d1226b9b803c9a6798d3534328542962"),
    "strictness": (
        "strictness_suite", {"cases": 3000, "seed": 5}, "zero-sum",
        "fd4ea016bc2a733b987419a94ec4cdc507c63484e92e5b82677b4f1128470f02"),
}


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_golden_output(argv):
    assert run(argv) == GOLDEN[argv]


def suite_digest(name):
    return _digest(getattr(suites, name)(**SUITES[name][0]))


@pytest.mark.parametrize("name", list(SUITES))
def test_golden_suite_report(name):
    assert suite_digest(name) == SUITES[name][1]


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("name", list(SUITES))
def test_golden_suite_report_at_workers(name, workers):
    # the chunks run in order, so the worker count changes nothing
    kwargs = dict(SUITES[name][0], workers=workers)
    assert _digest(getattr(suites, name)(**kwargs)) == SUITES[name][1]


def faulted_report(name, workers, patch):
    """The report of FAULTED[name] at `workers`, with the fault patched in
    by `patch(owner, attribute, value)`."""
    suite, kwargs, fault, _ = FAULTED[name]
    ops, kind, zero_sum = FAULTS[fault]
    for attr in ops:
        patch(NaturalInterval, attr,
              _fault(vars(NaturalInterval)[attr], kind, zero_sum))
    return getattr(suites, suite)(workers=workers, **kwargs)


def _digest(report):
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()


def _failure_counts(report):
    return [r["failures"] for r in report.get("domains", [report])]


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("name", list(FAULTED))
def test_golden_faulted_suite_report(name, workers, monkeypatch):
    report = faulted_report(name, workers, monkeypatch.setattr)
    assert all(n > 0 for n in _failure_counts(report))
    assert _digest(report) == FAULTED[name][3]


def _faulted_digest(name):
    with pytest.MonkeyPatch.context() as mp:
        return _digest(faulted_report(name, 1, mp.setattr))


def _record():
    """Rewrite the GOLDEN, SUITES and FAULTED tables of this file from the
    current engine."""
    lines = ["GOLDEN = {\n"]
    for argv in GOLDEN:
        code, digest = run(argv)
        lines.append(f"    {argv!r}: (\n        {code}, \"{digest}\"),\n")
    lines.append("}\n")
    with open(__file__, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("GOLDEN = {\n")
    end = text.index("\n}\n", start) + 3
    text = text[:start] + "".join(lines) + text[end:]
    for name, (kwargs, digest) in SUITES.items():
        text = text.replace(digest, suite_digest(name))
    for name, (*_, digest) in FAULTED.items():
        text = text.replace(digest, _faulted_digest(name))
    with open(__file__, "w", encoding="utf-8") as fh:
        fh.write(text)


if __name__ == "__main__":
    _record()
