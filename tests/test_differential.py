"""Whole CLI reports against the engine without shortcuts.

Every request is run twice through cli.main: once on the carrier that
build_carrier makes, and once with build_carrier patched to return its
built_twin, which holds the same elements and ops but no product form
and no ambient, and so builds its tables one pair at a time and scans
them for every fact.  The twin run's subsets (FiniteStructure.restrict)
are built twins too.  The engine's run reads its tables in bands of
BANDS entries, so that a view of these small carriers reads its
ambient's entries band by band, as one of more than 256 elements does
at the default band.  The two runs must end in the same exit code with
the same stdout, so a fast path (factored part tables, views read in
bands, laws inherited from an ambient or from factors) that changes any
verdict, witness or byte of a report shows here.

Carrier specs come from test_fuzz_cli's grammar, ungarbled and sized to
at most SIZE_BOUND elements; ideal specs are col-zero, row-zero,
diag-multiples:<k> and gen{...} of the carrier's own labels.
"""

import contextlib
import io
from datetime import timedelta
from unittest import mock

from hypothesis import HealthCheck, given, reject, settings, strategies as st

from natint import cli, structures
from natint.carriers import build_carrier
from natint.errors import ParseError, TooLarge
from conftest import on_twins
from test_fuzz_cli import domains, intervals, n_spec, scalars

SIZE_BOUND = 64
# Entries per band of the engine's run: one row per band, or a few.
BANDS = (1, 100)
DOMAINS = ("Zn", "ZnI", "Zn+I")
KINDS = ("N", "N\\0", "Mat", "Poly", "Fuzzy", "Sub")
# Carriers with an addition that ideal and quotient requests draw from;
# N(D) is drawn twice as often, as most ideal specs name its ideals.
RING_KINDS = ("N", "N", "N\\0", "Mat", "Poly", "Sub")


@st.composite
def carriers(draw, kinds=KINDS):
    """(carrier spec, domain spec of its entries, the carrier) of one of
    kinds.  Mat and Poly over N(D) hold N(D) to the power of their
    entries, so D is drawn small enough for SIZE_BOUND:
    |D| ** (2 * entries) <= 64."""
    kind = draw(st.sampled_from(kinds))
    entries = 1
    if kind == "Mat":
        rows, cols = draw(st.sampled_from(((1, 1), (1, 2), (2, 1))))
        entries = rows * cols
    elif kind == "Poly":
        entries = draw(st.integers(1, 3))
    largest = int(8 ** (1 / entries) + 1e-9)
    name = draw(st.sampled_from(DOMAINS if largest >= 4 else DOMAINS[:2]))
    top = int(largest ** 0.5) if name == "Zn+I" else largest
    domain = f"{name}:{draw(st.integers(2, top))}"
    if kind == "Sub":
        domain = draw(domains)
        spec = "Sub{{{}}} of {}".format(
            ",".join(draw(st.lists(intervals(domain), min_size=1,
                                   max_size=5))),
            draw(n_spec(domain)))
    elif kind == "Mat":
        spec = f"Mat({rows},{cols},{draw(n_spec(domain))})"
    elif kind == "Poly":
        spec = f"Poly({draw(n_spec(domain))},cyc={entries})"
    elif kind == "Fuzzy":
        domain = "F01"
        spec = "Fuzzy({},step=1/{})".format(
            draw(st.sampled_from(("min", "max", "prod"))),
            draw(st.integers(1, 7)))
    else:
        spec = draw(n_spec(domain)) + kind[1:]
    try:
        s = build_carrier(spec, size_bound=SIZE_BOUND)
    except (ParseError, TooLarge):
        reject()
    return spec, domain, s


@st.composite
def requests(draw):
    """argv of one analyze, table, ideal or quotient request."""
    command = draw(st.sampled_from(("analyze", "table", "ideal",
                                    "quotient", "quotient")))
    if command in ("analyze", "table"):
        spec = draw(carriers())[0]
        if command == "analyze":
            return [command, spec]
        return [command, spec, draw(st.sampled_from(("add", "mul")))]
    spec, domain, s = draw(carriers(RING_KINDS))
    ideal = draw(st.one_of(
        st.sampled_from(("col-zero", "row-zero")),
        st.builds("diag-multiples:{}".format, scalars(domain)),
        st.lists(st.integers(0, s.n - 1), min_size=1, max_size=2).map(
            lambda idx: "gen{%s}" % ",".join(s.labels(idx)))))
    if command == "quotient":
        kind = draw(st.sampled_from(("rees", "standard")))
        return [command, "--kind", kind, spec, ideal]
    return [command, spec] + draw(st.sampled_from(([], [ideal])))


def run(argv):
    """(exit code, stdout) of argv through cli.main."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@settings(max_examples=400, deadline=timedelta(seconds=5),
          derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(requests(), st.sampled_from(BANDS))
def test_reports_match_the_engine_without_shortcuts(argv, band):
    # a bound of SIZE_BOUND ** 2 lets every drawn carrier print its table
    command, *rest = argv
    argv = [command, "--size-bound", str(SIZE_BOUND ** 2), *rest]
    with mock.patch.object(structures, "_BAND_ENTRIES", band):
        got = run(argv)
    with on_twins():
        want = run(argv)
    assert got == want, argv
