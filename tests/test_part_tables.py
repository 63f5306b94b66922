"""Part tables composed on the code tables of a finite domain, against
the part tables that evaluate the op once per pair of parts.

A carrier over Zn, ZnI or Zn+I codes each part as a row of scalar codes
and composes them on its domain's add and mul tables
(structures._coded_part_table).  Each check compares those tables, entry
for entry, with structures._part_table on the same part lists, the twin
that runs the carrier's own op on the diagonal elements.  Carriers
without code tables, and one whose packed codes would not fit in an
int64, keep the twin.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

from natint import cli, structures
from natint.carriers import _ambient_context, _structure, build_carrier
from test_carriers import FLAVOR_SPECS, KIND_SPECS
from test_factored import FULL_PRODUCTS, NOT_PRODUCTS
from test_factored_substructures import REORDERED


def _sub_elements(ambient, count, rng, text):
    """count distinct elements of ambient, drawn by text(rng)."""
    ctx = _ambient_context(ambient, 10 ** 6)
    elems = {}
    while len(elems) < count:
        e = ctx["coerce"](ctx["parse"](text(rng)))
        elems.setdefault(e, None)
    return list(elems), ctx


def _interval(rng, n):
    return f"[{rng.randrange(n)},{rng.randrange(n)}]"


def _neutro_interval(rng, n):
    """An interval over Zn+I:n, each endpoint a + bI."""
    a, b, c, d = (rng.randrange(n) for _ in range(4))
    return f"[{a}+{b}I,{c}+{d}I]"


def _matrix(rng, n, r, c):
    return ";".join(",".join(_interval(rng, n) for _ in range(c))
                    for _ in range(r))


def _poly(rng, n, cyclic, coeff=_interval):
    return "+".join(f"{coeff(rng, n)}x^{i}" for i in range(cyclic))


# Seeded subsets, each with the parts in their drawn order: (ambient,
# element count, element drawer).
SEEDED_SUBS = (
    [("N(Zn:7)", 20, lambda rng: _interval(rng, 7))] * 3
    + [("Mat(2,2,N(Zn:3))", 30, lambda rng: _matrix(rng, 3, 2, 2))] * 2
    + [("Mat(1,2,N(Zn:4))", 30, lambda rng: _matrix(rng, 4, 1, 2))]
    + [("Poly(N(Zn:5),cyc=3)", 25, lambda rng: _poly(rng, 5, 3))] * 2
    + [("Poly(N(Zn+I:2),cyc=2)", 25,
        lambda rng: _poly(rng, 2, 2, _neutro_interval))])


def _seeded_sub(case):
    ambient, count, text = SEEDED_SUBS[case]
    elems, ctx = _sub_elements(ambient, count, random.Random(case), text)
    return _structure(elems, ctx, f"seeded Sub of {ambient}")


CARRIERS = (
    list(KIND_SPECS) + list(FLAVOR_SPECS)
    + ["N(Zn:4)", "N(Zn:4,o)", "N(Zn:3)\\0", "N(Zn:3,oc)\\0",
       "Mat(2,2,N(Zn:2))", "Mat(1,2,N(Zn:2))", "Poly(N(Zn:2),cyc=3)",
       "Sub{[0,9]} of N(Zn:3)", "Sub{1,2} of N(Zn:3)\\0",
       "Sub{(1,1),(1,-1),(-1,1),(-1,-1)} of N(Z)"]
    + list(FULL_PRODUCTS) + list(NOT_PRODUCTS) + [REORDERED]
    + [f"N(Zn:{k})\\0" for k in (2, 3, 4, 6, 8, 9, 12)]
    + ["Mat(2,2,N(ZnI:2))", "Mat(1,2,N(Zn+I:2))", "Poly(N(ZnI:3),cyc=2)",
       "Mat(2,2,N(Zn:3))", "N(Zn+I:4,o)", "Poly(N(Zn+I:2),cyc=2)"])


def _twin(s, op):
    """_part_table on each part list of s, as _parts lists them."""
    return tuple(structures._part_table(parts, s.op_fn(op), s.diag)
                 for parts in structures._part_lists(s._coords()))


def assert_parts_match_twin(s):
    for op in ("add", "mul"):
        if not s.has_op(op):
            continue
        coded, twin = s._parts(op), _twin(s, op)
        assert len(coded) == len(twin)
        for a, b in zip(coded, twin):
            assert a.dtype == b.dtype and a.shape == b.shape, (s.name, op)
            assert (a == b).all(), (s.name, op)


def _lowered(s):
    """Does s compose its part tables on codes?  Every carrier here over
    a finite domain does."""
    return s._part_codes() is not None


@pytest.mark.parametrize("spec", list(dict.fromkeys(CARRIERS)))
def test_coded_part_tables_match_the_twin(spec):
    s = build_carrier(spec)
    assert _lowered(s) == (s.domain.size is not None)
    assert_parts_match_twin(s)


@pytest.mark.parametrize("case", range(len(SEEDED_SUBS)))
def test_seeded_subsets_match_the_twin(case):
    s = _seeded_sub(case)
    assert _lowered(s)
    assert_parts_match_twin(s)


def test_a_product_that_is_no_part_is_the_part_count():
    # 2 * 2 = 0 in Zn:4, and 0 is no part of N(Zn:4)\0
    s = build_carrier("N(Zn:4)\\0")
    (mul,) = s._parts("mul")
    assert _lowered(s) and mul[1, 1] == len(mul) == 3
    assert_parts_match_twin(s)


def test_parts_keep_their_order_of_first_appearance():
    # the parts of REORDERED are 2, 3, 0, 1, 4, 5, so the scalar 0 is
    # part 2 and 2 is part 0: 3 + 3 = 0 and 2 + 0 = 2
    s = build_carrier(REORDERED)
    (add,) = s._parts("add")
    assert add[1, 1] == 2 and add[0, 2] == 0


def _count_part_tables(monkeypatch):
    """The list that each later _part_table call appends its arguments
    to."""
    calls = []
    part_table = structures._part_table

    def counted(*args):
        calls.append(args)
        return part_table(*args)

    monkeypatch.setattr(structures, "_part_table", counted)
    return calls


def _assert_keeps_the_twin(monkeypatch, s):
    calls = _count_part_tables(monkeypatch)
    tables = s._parts("add") + s._parts("mul")
    assert not _lowered(s) and len(calls) == len(tables)
    assert_parts_match_twin(s)


def test_packed_codes_past_int64_keep_the_twin(monkeypatch):
    # 100^10 part codes do not fit in an int64
    elems, ctx = _sub_elements("Poly(N(Zn:100),cyc=10)", 12,
                               random.Random(0),
                               lambda rng: _poly(rng, 100, 10))
    s = _structure(elems, ctx, "Sub of Poly(N(Zn:100),cyc=10)")
    assert s.domain.code_tables() is not None
    _assert_keeps_the_twin(monkeypatch, s)


def test_a_domain_above_the_code_table_cap_keeps_the_twin(monkeypatch):
    s = build_carrier("Sub{[1,2],[999,3],[0,0]} of N(Zn:1000)")
    assert s.domain.code_tables() is None
    _assert_keeps_the_twin(monkeypatch, s)


# A Sub[16] of N(Zn:7), like the benchmark's ideals: 16 random intervals.
SUB16 = "Sub{%s} of N(Zn:7)" % ",".join(
    f"[{c // 7},{c % 7}]" for c in random.Random(16).sample(range(49), 16))
LOWERED_REQUESTS = ("N(Zn:12)", "N(Zn:7)\\0", "N(ZnI:4)", "N(Zn+I:3)",
                    "Mat(1,2,N(Zn:3))", "Poly(N(Zn:2),cyc=3)", SUB16)
FALLBACK_REQUESTS = ("Fuzzy(prod,step=1/8)",
                     "Sub{[0,0],[1,1],[-1,-1],[1,-1],[-1,1],[2,0]} of N(Z)")


def _part_table_calls(monkeypatch, spec):
    calls = _count_part_tables(monkeypatch)
    for argv in (["analyze", spec], ["ideal", spec],
                 ["quotient", spec, "col-zero"]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
    return len(calls)


@pytest.mark.parametrize("spec", LOWERED_REQUESTS)
def test_carriers_over_a_finite_domain_evaluate_no_part_table(
        monkeypatch, spec):
    assert len(build_carrier(spec)) > 1
    assert _part_table_calls(monkeypatch, spec) == 0


@pytest.mark.parametrize("spec", FALLBACK_REQUESTS)
def test_carriers_without_code_tables_evaluate_part_tables(
        monkeypatch, spec):
    assert _part_table_calls(monkeypatch, spec) > 0


# The child builds the mul part table of 2000 distinct 2x2 matrices over
# Zn:7 under an address-space limit of its own size plus HEADROOM bytes.
# The table takes 16 MB; the m^2 * k packed codes of all pairs at once
# would take 128 MB.  It checks a few rows against the op itself.
HEADROOM = 80 << 20
CHILD = r"""
import json, random, resource, sys
from natint import structures
from natint.carriers import _ambient_context, _structure
from natint.errors import TooLarge

ctx = _ambient_context("Mat(2,2,N(Zn:7))", 10 ** 6)
codes = random.Random(7).sample(range(7 ** 4), 2000)
elems = [ctx["coerce"](ctx["parse"](";".join(
    ",".join(str(c // 7 ** (2 * i + j) % 7) for j in range(2))
    for i in range(2)))) for c in codes]
s = _structure(elems, ctx, "Sub of Mat(2,2,N(Zn:7))")
s._coords()
assert s._part_codes() is not None
with open("/proc/self/status") as f:
    size = next(int(line.split()[1]) << 10 for line in f
                if line.startswith("VmSize:"))
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (size + int(sys.argv[1]), hard))
try:
    (table,) = s._parts("mul")
except TooLarge:
    print(json.dumps("TooLarge"))
    sys.exit(0)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
parts = s._coords().lo_parts
diags = [s.diag(p) for p in parts]
rows = random.Random(0).sample(range(len(diags)), 4)
want = [[parts.get(structures._hashable(s.mul_fn(diags[i], y).decompose()[0]),
                   len(parts)) for y in diags] for i in rows]
print(json.dumps([table.shape, str(table.dtype),
                  table[rows].tolist() == want]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the process size from /proc")
def test_coded_part_tables_are_composed_in_bands():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + os.environ.get("PYTHONPATH", "").split(
                       os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(HEADROOM)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result == "TooLarge" or result == [[2000, 2000], "int32", True]
