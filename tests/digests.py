#!/usr/bin/env python3
"""Check that fixed requests keep their exit codes and stdout digests.

    python3 tests/digests.py [entry ids]

An entry of DIGESTS is an id, a limit in seconds and its cases, each
(argv, exit code, sha256 of stdout or None), run as `python -m natint
*argv` from the repository root with PYTHONPATH set to its src/.  A
transcript entry's one case runs `tests/digests.py --transcript ID`.
Prints each entry's id, cases, seconds and OK or its first failing case.
Exits 0 when every entry holds, 1 when one fails, 2 for an unknown id.
"""

import contextlib
import hashlib
import io
import os
import shlex
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Entry(NamedTuple):
    id: str
    limit: int  # seconds each case may run
    cases: tuple  # (argv, exit code, sha256 of stdout or None)
    transcript: object = None  # prints the stdout of the one case


def transcript(cases):
    """Print each argv of cases with cli.main's stdout, stderr and exit."""
    from natint.cli import main
    for argv in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                code = f"1 {type(exc).__name__}: {exc}"
        print(f"== {argv}\n{out.getvalue()}-- stderr\n{err.getvalue()}"
              f"-- exit {code}")


def scalars():
    domains = "Z Q F01 ZI QI Z+I Q+I Zn:7 ZnI:6 Zn+I:4".split()
    exprs = ["[I,-I]", "[+I,2I]*[-I,3I]", "[3-I,-2+I]+[1/2I,-1/3+2/5I]",
             "[-I,-1-I]-[5+I,I]", "[0,I]-[3I,5I]", "[1/2I,-I]/[2I,3I]",
             "[2,3]^5", "[-I,2-I]^3", "[2I,-3I]^4", "[1/2,1/3]^2",
             "0-[2,3]", "[1,2]-[3,5]", "[1/2,1/3]/[2,3]", "[1/2,1/3]*[1/4,1]",
             "recip([2,3])", "recip([2I,-I])", "recip([1-2I,-1])",
             "recip([1+2I,3])", "recip([3-I,-I])", "recip([0,1])",
             "min([1,4],[3,2])", "min([I,2I],[I,-I])", "max([1/2,0],[1/3,1])",
             "[0,1]+[1,1]", "[1,2", "[1,2,3]", "[I I,1]", "[,1]", "[1,x]",
             "[1,2]^0", "(1,2]*[1,2]", "[1/0,1]", "[2I+3,1]", "[1+-I,0]",
             "[-1/3+2/5I,1]"]
    spans = [("[1,0]", "[0,1]"), ("[1,2],[3,4]", "[2,4],[6,8]"),
             ("[1,1]", "[2,2]", "[1,3]"), ("[1/2,1]", "[1,0]"),
             ("[1,2];[3,4]", "[5,6];[7,8]", "[1,0];[0,1]"),
             ("[3,6],[1,2]", "[4,1],[2,5]", "[0,0],[0,0]"),
             ("[1,2]", "[1,2],[3,4]"), ("0", "[0,0]")]
    transcript([["eval", d, e] for d in domains for e in exprs]
               + [["span", f, *v] for f in ("Q", "Zn:7", "Zn:6", "F01")
                  for v in spans])


def cli():
    with tempfile.TemporaryDirectory(prefix="natint-digests-") as tmp:
        os.chdir(tmp)
        for name, text in {"run": "# a comment\nsize_bound = 100\nseed=1\n"
                                  "output_format=text\n",
                           "bad-key": "size_bound=100\nworkers=2\n",
                           "bad-value": "worker_count=two\n",
                           "no-eq": "seed 1\n"}.items():
            with open(f"{name}.cfg", "w") as fh:
                fh.write(text)
        requests = [
            ["table", "N(Zn:3)", "add"], ["table", "N(Zn:2)\\0", "mul"],
            ["analyze", "N(Zn:2)"], ["ideal", "N(Zn:3)"],
            ["ideal", "N(Zn:4)", "col-zero"],
            ["quotient", "N(Zn:3)", "row-zero"],
            ["quotient", "N(Zn:4)", "gen{[2,2]}", "--kind", "standard"],
            ["verify-book", "--only", "ex-2.1,sec1-degenerate-sum"],
            ["eval", "Zn:12", "[3,4]*[4,3] + [1,11]^2"],
            ["eval", "Q", "recip((2,3)) - 1/2", "--flavor", "o"],
            ["span", "Q", "[1,2],[0,1]", "[2,4],[0,2]", "--flavor", "oc"]]
        cases = [r + ["--format", f] for r in requests
                 for f in ("csv", "text", "json")]
        cases += [
            ["ideal", "Mat(1,2,N(Zn:2))", "row-zero"],
            ["analyze", "N(Zn:3)", "--config", "run.cfg"],
            ["analyze", "N(Zn:3)", "--config", "run.cfg", "--format", "csv"],
            ["table", "N(Zn:3)", "mul", "--config", "run.cfg",
             "--size-bound", "5"],
            ["eval", "Z", "[1,2]", "--config", "run.cfg", "--seed", "3",
             "--workers", "2"], ["eval", "Z", "[1,2]", "--out", "report.json"],
            ["eval", "Z", "[1,2]", "--out", "no-such-dir/report.json"],
            ["eval", "Z", "[1,2", "--format", "text"],
            ["eval", "Z", "([1,2]+[3,4]", "--format", "text"],
            ["eval", "Z", "[1,2]]"], ["eval", "Z", "(1,2]*[1,2)+(3,4)"],
            ["eval", "Z", "([1,2]+[3,4])*2-(5)"],
            ["eval", "Z", "(1,2)*(3,4)+((1,2))", "--flavor", "o"],
            ["eval", "Z", "[1,2,3]"], ["eval", "Z", "(1,2,3)"],
            ["eval", "Z", "([1,2]]"],
            ["eval", "Z", "[1,2]-[3,4]-[5,6]/[1,1]*[2,2]"],
            ["eval", "Z", "min([1,2])"], ["eval", "Z", "recip([1,2],[3,4])"],
            ["eval", "Z", "max([1,2],[3,4]"], ["eval", "Z", "[1,2]^0"],
            ["eval", "Z", "[1,2]", "--flavor", "x"],
            ["span", "Q", "[1,2]", "--flavor", "cc"],
            ["analyze", "Sub{[0,0],[1,1] of N(Zn:2)"],
            ["analyze", "Sub{[0,0],[1,1],[0,0]} of N(Zn:2)"],
            ["eval", "Z", "0" + "-" * 101 + "1"],
            ["eval", "Z", "(" * 101 + "1" + ")" * 101],
            ["analyze", "N(Zn:2000)"], ["analyze", "N(Z)"],
            ["analyze", "N(Zn:4)", "--size-bound", "10"],
            ["ideal", "Mat(2,2,N(Zn:2))", "col-zero"],
            ["quotient", "Mat(2,2,N(Zn:2))", "col-zero"],
            ["ideal", "N(Zn:3)", "gen{[5,5]}"], ["ideal", "N(Zn:3)", "bogus"],
            ["eval", "Zn:6", "[1,0) * (1,5)"],
            ["eval", "Z", "[2,2]^9999999999"],
            ["verify-book", "--only", "no-such-claim"], ["analyze", "Foo(3)"]]
        cases += [["analyze", "N(Zn:3)", "--config", f"{name}.cfg"]
                  for name in ("missing", "bad-key", "bad-value", "no-eq")]
        transcript(cases)
        with open("report.json") as fh:
            print(fh.read())


def engine():
    import random
    from sweep_small import carriers
    from natint import structures as st
    from natint.carriers import build_carrier
    from natint.errors import NatIntError
    from natint.quotients import (parse_ideal_spec, rees_quotient,
                                  standard_quotient)

    def listed(a):
        return None if a is None else a.tolist()

    def verdicts(build):
        try:
            s = build()
            print(s.name or s.kind, s.n, st.classify(s))
            ops = [op for op in ("add", "mul") if s.has_op(op)]
            for op in ops:
                print(op, st._group_verdict(s, op), st.axiom_report(s, op))
            if len(ops) == 2:
                print(st._ring_verdict(s), st._field_verdict(s))
            print(listed(s.units()) if s.has_op("mul") else "-",
                  listed(s.neg_index()) if s.has_op("add") else "-")
        except NatIntError as exc:
            print(type(exc).__name__, exc)

    rng = random.Random(40)
    for spec, s in carriers():
        verdicts(lambda: s)
        if s.has_op("add") and s.has_op("mul"):
            picks = [rng.choice(s.elements) for _ in range(rng.randint(1, 4))]
            picks = list(dict.fromkeys(picks))
            print(st.check_subset_group(picks, s.mul_fn),
                  st.check_subset_group(picks, s.add_fn),
                  st.check_subset_field(picks, s.add_fn, s.mul_fn))
        if s.n <= 16 and s.kind in ("interval", "matrix") and s.has_op("add"):
            for ideal in ("col-zero", "row-zero"):
                for quotient in (rees_quotient, standard_quotient):
                    verdicts(lambda: quotient(s, parse_ideal_spec(s, ideal)))
    for spec in ("Sub{[0,1],[1,1]} of N(Zn:3)", "Sub{[0,0],[1,1]} of N(Zn:2)",
                 "Sub{[1,2],[2,1]} of N(Zn:3\\0)"):
        verdicts(lambda: build_carrier(spec))
    z5 = build_carrier("N(Zn:5)")
    diag = [e for e in z5.elements if e.is_degenerate]
    print(st.check_subset_group(diag[1:], z5.mul_fn),
          st.check_subset_field(diag, z5.add_fn, z5.mul_fn),
          st.check_subset_group(diag[1:] + diag[1:2], z5.mul_fn),
          st.check_subset_field(diag + diag[:1], z5.add_fn, z5.mul_fn))


REES = ("--kind", "rees")
STANDARD = ("--kind", "standard")
NINES, LONGER = "9" * 3000, "9" * 5000
DIGESTS = (
    # 553 and 993 classes with 30528 and 50176 zero products, far more than any
    # benchmark reference: the batched S-zero-divisor search must give the
    # digests of the pair-by-pair one, with which the N(Zn:32) request took
    # 2.2 s (0.34 s now with start-up, 48 ms in-process)
    Entry("rees", 20, (
        (("quotient", "N(Zn:24)", "col-zero", *REES), 0, "70980d910e87599b60ce036b5f52c587079b6b851ecd6b490d53135755eee386"),
        (("quotient", "N(Zn:32)", "col-zero", *REES), 0, "4fd514d840e5d56f7426398f1e7036f481e8b006ded1a02d46fa59c00dfe98d4"))),
    # 3501, 6321 and 9901 classes, each with zero divisors: additive inverses
    # come from the coset lemma and the first zero pair of mul from the
    # factors, and the reports must keep the digests recorded while both were
    # searched over every band of the ambient (0.41, 0.68 and 0.90 s with
    # start-up)
    Entry("rees-ideal", 20, (
        (("quotient", "N(Zn:60)", "diag-multiples:6", *REES), 0, "d45ee43f721697839e42302f9dbd1bca6135b5f4dd7cc7cd3d7a07f8a1873bc6"),
        (("quotient", "N(Zn:80)", "col-zero", *REES), 0, "cff0fea508711d3250f20e17b06e715aecb92fe93874d441967914332572a064"),
        (("quotient", "N(Zn:100)", "col-zero", *REES), 0, "7890800c06af17b6995019a41653f137b1d3f8f627c3171e18001126937b4d35"))),
    # ambients of 3600 and 6400 elements, above every ideals reference: the
    # cosets are read off the factors and the class tables off the part tables,
    # and the reports must keep the digests recorded while the quotient still
    # wrapped a separate class structure
    Entry("standard", 20, (
        (("quotient", "N(Zn:80)", "col-zero", *STANDARD), 0, "f5a5cd12cfc405abe21508fb8d0bcbab70093369543375db41a606a52726128f"),
        (("quotient", "N(Zn:80)", "row-zero", *STANDARD), 0, "efa1065faeac36e07c3c1ac488106e5f3453f1c2f96fbe48180f468ea54c2894"),
        (("quotient", "N(Zn:60)", "diag-multiples:6", *STANDARD), 0, "52a49b941ec619f397d74c8e3029ca1c88193c0ac845de9545ca6db523afae3e"))),
    # subsets of N(Zn:4), N(Zn:12) and N(Zn:6) that are no product, which no
    # benchmark reference quotients by cosets: the cosets are the minima of a
    # block of the subset's add table, read off the ambient, and the reports
    # must keep the digests recorded while the subset's whole add table was
    # built for them
    Entry("subrings", 20, (
        (("quotient", "Sub{[0,0],[1,1],[2,2],[3,3]} of N(Zn:4)", "gen{[2,2]}", *STANDARD), 0, "de5c5ec2dc56b6b729aab5f6c066a7cd717f57c858de1cea96e98eba287670c8"),
        (("quotient", "Sub{[0,0],[1,1],[2,2],[3,3],[4,4],[5,5],[6,6],[7,7],[8,8],[9,9],[10,10],[11,11]} of N(Zn:12)", "gen{[4,4]}", *STANDARD), 0, "91515d057231821802f51be22b248acdc06b2ddee3556e168aefbf89f430bab7"),
        (("quotient", "Sub{[0,0],[0,3],[1,1],[1,4],[2,2],[2,5],[3,0],[3,3],[4,1],[4,4],[5,2],[5,5]} of N(Zn:6)", "gen{[3,0]}", *STANDARD), 0, "bea9bcc9bcaab570cee68e4be8a06dd467bf4f48e9137574993f9998c1122740"))),
    # 676 elements, above every analyze reference (256 at most): their tables
    # are gathered in bands from the part tables, and the reports must keep the
    # digests of the one broadcast sum that composed lo-major tables before;
    # the fuzzy grid's products leave the grid
    Entry("lo-major", 20, (
        (("analyze", "N(Zn:26)"), 0, "bd9354e854f9efe3eca4d9a425c95e0d6247290c5eff367815c3767ecf13dfcb"),
        (("analyze", "Fuzzy(prod,step=1/25)"), 0, "e43ac0278a0938d22000d1f1b6e7e20349a48f16558bfc707d069b79c78f79df"))),
    # 256, 625 and 676 elements: the S-ring verdict of N(D) and the maximal
    # subgroups of a product are read off the factor, and the reports must keep
    # the digests of the searches over the whole carrier, with which analyze
    # "N(Zn:16)" took about 140 ms in-process (about 22 ms now)
    Entry("products", 20, (
        (("analyze", "N(Zn:16)"), 0, "275f2cfa263fabd025f321e41f889e571b73af424a3ac93cd9571fd19312128c"),
        (("analyze", "N(Zn:25)"), 0, "3624c6466e49285d00e47488d4b85c1d667071703a854b612af690c128d84ec1"),
        (("analyze", "Fuzzy(min,step=1/25)"), 0, "c9d930a8bc7174609f1ccfe990241ce63622ac22f55c7933d4ce9e96449ee815"))),
    # 256-element carriers, the largest analyze references: the S-ring search
    # tries the spans of e*g alone, and the reports must keep the digests
    # recorded while it went on to the span of every element and every pair of
    # spans, with which the two carriers without a subfield took 0.27-0.57 s
    # in-process (0.03-0.08 s now)
    Entry("s-rings", 20, (
        (("analyze", "Mat(1,2,N(Zn:4))"), 0, "09ee86af698a570a8a9a010d7e60ca19347293c93d02ff47387b8ace90f215b4"),
        (("analyze", "Poly(N(Zn:4),cyc=2)"), 0, "21d8b9a9685bb056d794c4b4449c34ae2d8cc9c1f3c7442cd5fd40b3f98fd26a"),
        (("analyze", "Mat(2,2,N(Zn:2))"), 0, "4e2d84a0fd28c4cc22887c967766cfa72dcfce88a38ec3ca2228fcb0ad18505f"))),
    # Mat and Poly carriers over ZnI and Zn+I, and the ideals of
    # Mat(2,2,N(Zn:3)): their part tables are composed on the code tables of
    # the domain, and the outputs must keep the digests recorded while every
    # part table evaluated the op once per pair of parts (ideal
    # "Mat(2,2,N(Zn:3))" took 0.27-0.43 s in-process, under 0.2 s now)
    Entry("part-tables", 20, (
        (("table", "Mat(2,2,N(ZnI:2))", "add"), 0, "b8aa7bf1f0359a17abec620c0279a356a0ac98ee883db83ca976f451acfb93be"),
        (("table", "Mat(2,2,N(ZnI:2))", "mul"), 0, "377c0b9e46fc7713d213d3be673084b655de16d980705ff404bcdc87c8862b93"),
        (("table", "Mat(1,2,N(Zn+I:2))", "add"), 0, "e0e48557c34b784b29717aca9bbd049cf8bfd344f39c0b3c44a0b78f877f3722"),
        (("table", "Mat(1,2,N(Zn+I:2))", "mul"), 0, "5e91713b6e94fe820234609ecb84f3a89e6b5d65ec8399076437b1b46c79973b"),
        (("table", "Poly(N(ZnI:3),cyc=2)", "add"), 0, "d447cf8d94e9744441462479edfefc906590f515e114fab645e5b9291f7044dd"),
        (("table", "Poly(N(ZnI:3),cyc=2)", "mul"), 0, "89d544a2ef2d4eaa83f74a0cac15db8ebfd303cb8f24cb0e4459acf7ca3829aa"),
        (("ideal", "Mat(2,2,N(Zn:3))"), 0, "95a5cb4934e66a8c6063a66c86a1049d707611b7d2739c428d528b5957c496d4"))),
    # spec-built carriers read their places off their scalar codes and format
    # each label when it is first asked for; the outputs must keep the digests
    # recorded while every element was decomposed and every label formatted up
    # front
    Entry("labels", 20, (
        (("table", "N(Zn+I:2,oc)", "add"), 0, "f16e1dbd662a1c832a726df26277adb3da848d33328a8b4e499aa97bfe81c0f9"),
        (("table", "N(Zn+I:2,oc)", "mul"), 0, "f6688383a2ef6cef2b19bc26d94d665bbf743247cc9066a93f5eb732035c3a19"),
        (("table", "Mat(2,1,N(ZnI:3,co))", "add"), 0, "d7ec63ceef829bde82290ff83fec72afb943b873d013d46b65508d7cbb0e6664"),
        (("table", "Mat(2,1,N(ZnI:3,co))", "mul"), 0, "6a1c3a00fedd863ad08136e27106a1302a95f37152f0dad3cdc05d56eaf969a6"),
        (("table", "Poly(N(Zn+I:2),cyc=2)", "add"), 0, "d69f2d36a7cb014ccc08b76316fac10586d420e8f8f34e7dacc50fd044d7a018"),
        (("table", "Poly(N(Zn+I:2),cyc=2)", "mul"), 0, "5a533212ad9e1cef511066fac9df7eaac21e43af8f0864333ee13f18bd80359e"),
        (("table", "N(Zn:7,o)\\0", "mul"), 0, "0bdb644aaf7e74ac270b48743d2b13996eb11c73ed6c0607cd4a0dd949c1fa4a"),
        (("quotient", "Mat(1,2,N(Zn:3))", "col-zero", *REES), 0, "4df5820e7f46e0b54741ea13aa3085aeea5de4b3675ce9ad8690e3cc23df8672"))),
    # 162 s and 3.2 s when every element ran its own closure
    Entry("product-ideals", 20, ((("ideal", "N(Zn:60)"), 0, None),
                                 (("ideal", "Poly(N(Zn:3),cyc=3)"), 0, None))),
    # ran until killed before powers were priced; a hang or a traceback (1)
    # fails, only the refusal (3) passes
    Entry("power", 10, ((("eval", "Z", "[2,2]^9999999999"), 3, None),)),
    # ran until killed, or ended in a traceback (1), before the spec reader
    # checked and priced every N, Mat and Poly spec; a hang or a traceback
    # fails, only each listed code passes
    Entry("huge-exponent", 10, tuple(
        (("analyze", spec), code, None) for code, spec in (
            (2, "Sub{1} of Poly(N(Z),cyc=0)"),
            (2, "Sub{1} of Poly(N(Zn:2),cyc=-1)"),
            (3, "Mat(99999,99999,N(Zn:2))"), (3, "Poly(N(Zn:2),cyc=100000)"),
            (3, f"N(Zn:{NINES})"), (3, f"N(Zn+I:{NINES})"),
            (3, f"Fuzzy(min,step=1/{NINES})"),
            (0, f"Sub{{1}} of Poly(N(Zn:2),cyc={NINES})")))),
    # ended in a ValueError traceback (1); only the refusal (3) passes
    Entry("long-literal", 10, tuple((argv, 3, None) for argv in (
        ("eval", "Z", f"[{LONGER},1]"), ("eval", f"Zn:{LONGER}", "[2,1]"),
        ("analyze", f"Sub{{[{LONGER},1]}} of N(Z)")))),
    # the digest was recorded while each domain still wrote its own
    # arithmetic, integer and rational readers and bI notation, and span
    # reduced rows in separate branches for Zn and Q
    Entry("scalars", 60, (((), 0, "87eb411bd8e2f793f664170d75eab41225bee369fae8e757efcb5f21a1e7a95c"),), scalars),
    # every output format, config files and one request per error path: the
    # digest was recorded while main had one except clause per exit code,
    # render one csv writer per layout, and the expression parser and the
    # Sub{...} reader each their own bracket matcher
    Entry("cli", 60, (((), 0, "a2f092dcdfcd7464bfd5f06317d973aa8344db42d0e07651f1304ca45ecc16dd"),), cli),
    # the verdicts of every sweep carrier, of the Rees and standard quotients
    # of those of at most 16 elements and of three subsets, and the subset
    # checkers: the digest was recorded while classify walked the group
    # ladder itself and inverses kept its map by hand
    Entry("engine", 120, (((), 0, "171b681efb6be4283a323980e131e7caf0b78ae4f2d1821bab9b5c55ba90b2c0"),), engine),
)


def check(entry):
    """None when every case of entry holds, else its first failing case."""
    program = (("-m", "natint") if entry.transcript is None
               else (os.path.abspath(__file__), "--transcript", entry.id))
    for argv, code, sha256 in entry.cases:
        shown = shlex.join(argv) or f"--transcript {entry.id}"
        try:
            done = subprocess.run(
                [sys.executable, *program, *argv], stdout=subprocess.PIPE,
                cwd=ROOT, env=dict(os.environ, PYTHONPATH=f"{ROOT}/src"),
                timeout=entry.limit)
        except subprocess.TimeoutExpired:
            return f"{shown}: ran past {entry.limit} s"
        digest = hashlib.sha256(done.stdout).hexdigest()
        if done.returncode != code or sha256 not in (None, digest):
            return (f"{shown}: expected exit {code} sha256 {sha256}, got "
                    f"exit {done.returncode} sha256 {digest}")
    return None


def main(argv, digests=DIGESTS):
    by_id = {entry.id: entry for entry in digests}
    if argv[:1] == ["--transcript"]:
        return by_id[argv[1]].transcript()
    unknown = [i for i in argv if i not in by_id]
    if unknown:
        print(f"unknown entries {unknown}; the entries are {list(by_id)}")
        return 2
    failed = 0
    for entry in [by_id[i] for i in argv] or digests:
        start = time.perf_counter()
        error = check(entry)
        print(f"{entry.id} {len(entry.cases)} cases "
              f"{time.perf_counter() - start:.1f} s "
              + ("OK" if error is None else f"FAILED {error}"), flush=True)
        failed += error is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
