"""Grammar fuzzing of the command line: every input ends in a report or a
documented exit code.

Carrier specs, ideal specs and eval expressions are drawn from their
grammars, some with one character replaced, so that well-formed and
malformed input are both drawn.  Each runs through cli.main
in-process and must return 0 (report), 2 (parse), 3 (too large) or 4
(verification), and never raise.  Moduli are at most 12 and carriers are
bounded to 300 elements, so a draw stays cheap and a larger carrier
exits 3 before it is enumerated.  A Sub{...} is drawn over an N, Mat or
Poly ambient, and matrix shapes and cyclic moduli from -1 to 3.
"""

import contextlib
import io
from datetime import timedelta

from hypothesis import HealthCheck, given, settings, strategies as st

from natint import cli

FLAVORS = ("c", "o", "oc", "co")
SIZE_BOUND = "300"


def garbled(strategy):
    """strategy's strings, one in four of them with one character
    replaced."""
    def replace(text, at, char):
        if char is None:
            return text
        at %= len(text) + 1
        return text[:at] + char + text[at + 1:]
    return st.builds(replace, strategy, st.integers(0, 99), st.sampled_from(
        (None,) * 48 + tuple("[](){},;:+-*/^\\0I x")))


def optional(prefix, strategy):
    """"" or prefix followed by a draw of strategy."""
    return st.one_of(st.just(""), strategy.map(prefix.__add__))


finite_domains = st.builds("{}:{}".format,
                           st.sampled_from(("Zn", "ZnI", "Zn+I")),
                           st.integers(2, 12))
domains = st.one_of(finite_domains, st.sampled_from(
    ("Z", "Q", "ZI", "QI", "Z+I", "Q+I", "F01")))
flavors = st.sampled_from(FLAVORS)
naturals = st.integers(0, 12).map(str)


def scalars(domain):
    """Scalar literals of the domain spec."""
    if domain.startswith(("ZnI", "ZI", "QI")):
        return st.one_of(st.just("0"), naturals.map("{}I".format))
    if domain == "F01":
        return naturals.map("{}/12".format)
    whole = naturals
    if domain.startswith("Q"):
        whole = st.one_of(naturals, st.builds("{}/{}".format, naturals,
                                              naturals))
    if "+I" in domain:
        return st.one_of(whole, st.builds("{}+{}I".format, whole, naturals))
    return whole


def intervals(domain):
    """Interval literals over the domain spec, of any flavor."""
    return st.builds(lambda b, lo, hi: f"{b[0]}{lo},{hi}{b[1]}",
                     st.sampled_from(("[]", "()", "[)", "(]")),
                     scalars(domain), scalars(domain))


def n_spec(domain):
    return st.builds("N({}{})".format, st.just(domain),
                     optional(",", flavors))


# matrix shapes and cyclic moduli, the ones below 1 refused
sizes = st.integers(-1, 3).map(str)


def mat_spec(domain):
    return st.builds("Mat({},{},{})".format, sizes, sizes, n_spec(domain))


def poly_spec(domain):
    return st.builds("Poly({},cyc={})".format, n_spec(domain), sizes)


def subsets(element, ambient):
    """Sub{...} of 1-5 draws of element, of a draw of ambient."""
    return st.builds(lambda elements, spec: "Sub{{{}}} of {}".format(
        ",".join(elements), spec), st.lists(element, min_size=1, max_size=5),
        ambient)


def sub_spec(domain):
    """Sub{...} of an N, Mat or Poly ambient over the domain spec, with
    elements written for that kind of ambient: a matrix as one column of
    entries (a ',' would end the element), a polynomial as its terms."""
    entries = st.lists(intervals(domain), min_size=1, max_size=3)
    column = entries.map(";".join)
    poly = entries.map(lambda es: "+".join(
        f"{e}x^{i}" for i, e in enumerate(es)))
    return st.one_of(subsets(intervals(domain), n_spec(domain)),
                     subsets(column, mat_spec(domain)),
                     subsets(poly, poly_spec(domain)))


@st.composite
def carriers(draw):
    """(carrier spec, domain spec of its entries)."""
    domain = draw(finite_domains)
    kind = draw(st.sampled_from(("N", "N\\0", "Mat", "Poly", "Fuzzy",
                                 "Sub")))
    if kind == "Sub":
        domain = draw(domains)
        spec = draw(sub_spec(domain))
    elif kind == "Mat":
        spec = draw(mat_spec(domain))
    elif kind == "Poly":
        spec = draw(poly_spec(domain))
    elif kind == "Fuzzy":
        domain = "F01"
        spec = "Fuzzy({}{})".format(
            draw(st.sampled_from(("min", "max", "prod"))),
            draw(optional(",step=1/", st.integers(1, 16).map(str))))
    else:
        spec = draw(n_spec(domain)) + kind[1:]
    return draw(garbled(st.just(spec))), domain


def ideal_specs(domain):
    return garbled(st.one_of(
        st.sampled_from(("col-zero", "row-zero")),
        st.builds("diag-multiples:{}".format, scalars(domain)),
        st.builds(lambda gens: f"gen{{{','.join(gens)}}}",
                  st.lists(intervals(domain), min_size=1, max_size=3))))


def expressions(domain):
    return garbled(st.recursive(
        st.one_of(intervals(domain), scalars(domain)),
        lambda inner: st.one_of(
            st.builds("{} {} {}".format, inner,
                      st.sampled_from(("+", "-", "*", "/")), inner),
            st.builds("{}^{}".format, inner,
                      st.sampled_from(("0", "2", "7", "99999999999"))),
            st.builds("-{}".format, inner),
            st.builds("({})".format, inner),
            st.builds("recip({})".format, inner),
            st.builds("{}({},{})".format, st.sampled_from(("min", "max")),
                      inner, inner)),
        max_leaves=6))


@st.composite
def commands(draw):
    """(command, options, positional words)"""
    command = draw(st.sampled_from(("analyze", "table", "ideal", "ideal",
                                    "quotient", "eval")))
    if command == "eval":
        domain = draw(domains)
        return (command, ["--flavor", draw(flavors)],
                [draw(garbled(st.just(domain))),
                 draw(expressions(domain))])
    spec, domain = draw(carriers())
    if command == "table":
        return command, [], [spec, draw(st.sampled_from(("add", "mul")))]
    if command == "analyze":
        return command, [], [spec]
    ideal = draw(ideal_specs(domain))
    if command == "quotient":
        kind = draw(st.sampled_from(("rees", "standard")))
        return command, ["--kind", kind], [spec, ideal]
    return command, [], [spec] + draw(st.sampled_from(([], [ideal])))


@settings(max_examples=300, deadline=timedelta(seconds=5), derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(commands())
def test_every_drawn_input_ends_in_a_documented_exit_code(drawn):
    command, options, positional = drawn
    # "--" keeps an expression that starts with "-" positional
    argv = [command, *options, "--size-bound", SIZE_BOUND, "--",
            *positional]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    assert code != 0 or out.getvalue(), argv
