"""Part tables composed on the code tables of a finite domain, against
the part tables that evaluate the op once per pair of parts.

A carrier over Zn, ZnI or Zn+I codes each part as a row of scalar codes
and its sides compose them on its domain's add and mul tables
(structures._coded_part_table).  Each check compares each side's table,
entry for entry, with structures._part_table on the part lists that
_Coords(elements) finds for the same elements, the twin that runs the
carrier's own op on the diagonal elements.  Carriers without code
tables, and one whose packed codes would not fit in an int64, keep the
twin.
"""

import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from natint import cli, structures
from natint.carriers import _ambient_context, _structure, build_carrier
from natint.structures import FiniteStructure
from test_carriers import FLAVOR_SPECS, KIND_SPECS
from test_factored import FULL_PRODUCTS, NOT_PRODUCTS, _ops
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
    """_part_table on each part list that _Coords(elements) finds for the
    elements of s, so a spec-built carrier's twin reads no scalar code."""
    return [structures._part_table(parts, s.op_fn(op), s.diag)
            for parts in structures._Coords(s.elements).parts]


def assert_sides_match_twin(s):
    sides = s._sides()
    for op in _ops(s):
        twin = _twin(s, op)
        assert len(sides) == len(twin)
        for side, b in zip(sides, twin):
            a = side.table(op)
            assert a.dtype == b.dtype and a.shape == b.shape, (s.name, op)
            assert (a == b).all(), (s.name, op)


def _evaluated(s, monkeypatch):
    """How many part tables building every side's table of every op of s
    evaluates (_part_table), and how many it builds.  A carrier over a
    finite domain composes them all on codes, so it evaluates none."""
    with monkeypatch.context() as mp:
        calls = _count_part_tables(mp)
        tables = [side.table(op) for op in _ops(s) for side in s._sides()]
    return len(calls), len(tables)


def _lowered(s, monkeypatch):
    return _evaluated(s, monkeypatch)[0] == 0


@pytest.mark.parametrize("spec", list(dict.fromkeys(CARRIERS)))
def test_coded_part_tables_match_the_twin(monkeypatch, spec):
    s = build_carrier(spec)
    assert _lowered(s, monkeypatch) == (s.domain.size is not None)
    assert_sides_match_twin(s)


@pytest.mark.parametrize("case", range(len(SEEDED_SUBS)))
def test_seeded_subsets_match_the_twin(monkeypatch, case):
    s = _seeded_sub(case)
    assert _lowered(s, monkeypatch)
    assert_sides_match_twin(s)


def test_a_product_that_is_no_part_is_minus_one(monkeypatch):
    # 2 * 2 = 0 in Zn:4, and 0 is no part of N(Zn:4)\0, whose parts are
    # 1, 2, 3: so [2,2]^2 leaves both sides, [2,1]^2 the lo side and
    # [1,2]^2 the hi side, and each code reads -1 through `where`
    s = build_carrier("N(Zn:4)\\0")
    assert _lowered(s, monkeypatch)
    (side,) = s._sides()
    mul = side.table("mul")
    assert mul[1, 1] == -1 and (mul >= 0).sum() == 8
    assert_sides_match_twin(s)
    for x in ("[2,2]", "[2,1]", "[1,2]", "[3,2]", "[2,3]"):
        i = s.index[s.parse_element(x)]
        assert s._pairs("mul", i, i) == -1, x
    every = np.arange(s.n)
    gathered = s._block("mul", every, every)
    assert (gathered == FiniteStructure._build_table(s, "mul")).all()


def test_parts_keep_their_order_of_first_appearance():
    # the parts of REORDERED are 2, 3, 0, 1, 4, 5, so the scalar 0 is
    # part 2 and 2 is part 0: 3 + 3 = 0 and 2 + 0 = 2
    s = build_carrier(REORDERED)
    (side,) = s._sides()
    add = side.table("add")
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
    calls, tables = _evaluated(s, monkeypatch)
    assert calls == tables == 2 * len(s._sides())
    assert_sides_match_twin(s)


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


def _side_builds(monkeypatch):
    """The list each later build of a side's table appends (carrier id, k,
    op) to, for the k-th side of a carrier, and {side id: (carrier, k)}
    for every side handed out, which keeps each carrier and its id."""
    builds, owner = [], {}
    sides, init = FiniteStructure._sides, structures._Side.__init__

    def kept(self):
        found = sides(self)
        for k, side in enumerate(found):
            owner[id(side)] = (self, k)
        return found

    def counted(self, m, name, ops):
        def counting(op, build):
            carrier, k = owner[id(self)]
            builds.append((id(carrier), k, op))
            return build()
        init(self, m, name, {op: functools.partial(counting, op, build)
                             for op, build in ops.items()})

    monkeypatch.setattr(FiniteStructure, "_sides", kept)
    monkeypatch.setattr(structures._Side, "__init__", counted)
    return builds, owner


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


TWO_SIDES = "Sub{[0,0],[0,1],[0,2]} of N(Zn:3)"


@pytest.mark.parametrize("argv", [
    ["analyze", "N(Zn:12)"], ["analyze", "Mat(1,2,N(Zn:3))"],
    ["analyze", "Fuzzy(min,step=1/5)"], ["analyze", TWO_SIDES],
    ["analyze", SUB16], ["ideal", "Mat(2,1,N(Zn:3))"],
    ["quotient", "N(Zn:8)", "col-zero", "--kind", "rees"],
    ["quotient", "N(ZnI:4)", "row-zero", "--kind", "standard"]],
    ids=" ".join)
def test_each_side_table_is_built_once_per_carrier(monkeypatch, argv):
    builds, owner = _side_builds(monkeypatch)
    assert _run(argv) in (0, 4)
    assert builds and len(builds) == len(set(builds))
    ops = {op for *_, op in builds}
    assert ops == ({"mul"} if "Fuzzy" in argv[1] else {"add", "mul"})
    assert (max(k for c, k in owner.values()) == 1) == (
        argv[1] in (TWO_SIDES, SUB16))


@pytest.mark.parametrize("spec, op", [
    ("N(Zn:12)", "mul"), ("N(Zn:12)", "add"), ("N(Zn:5)\\0", "mul"),
    ("Mat(1,2,N(Zn:3))", "mul"), ("Poly(N(Zn:2),cyc=3)", "add"),
    ("Fuzzy(min,step=1/5)", "mul"), (TWO_SIDES, "add"), (SUB16, "mul"),
    (FALLBACK_REQUESTS[1], "add")])
def test_a_table_request_builds_only_its_ops_part_tables(
        monkeypatch, spec, op):
    builds, owner = _side_builds(monkeypatch)
    asked, factors = [], FiniteStructure._factors
    monkeypatch.setattr(FiniteStructure, "_factors",
                        lambda self: asked.append(self) or factors(self))
    assert _run(["table", spec, op]) == 0
    assert owner and sorted(builds) == sorted(
        (id(c), k, op) for c, k in owner.values())
    assert asked == []


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
(side,) = s._sides()
with open("/proc/self/status") as f:
    size = next(int(line.split()[1]) << 10 for line in f
                if line.startswith("VmSize:"))
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (size + int(sys.argv[1]), hard))
try:
    table = side.table("mul")
except TooLarge:
    print(json.dumps("TooLarge"))
    sys.exit(0)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
(parts,) = s._coords().parts
diags = [s.diag(p) for p in parts]
rows = random.Random(0).sample(range(len(diags)), 4)
want = [[parts.get(structures._hashable(s.mul_fn(diags[i], y).decompose()[0]),
                   -1) for y in diags] for i in rows]
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


# The child checks the commutativity of mul on Mat(2,2,N(Zn:3)) under an
# address-space limit of its own size plus BANDED_HEADROOM bytes: the
# check reads bands gathered off the part tables, while the 6561-element
# mul table takes 164 MiB and must not fit.
BANDED_HEADROOM = 100 << 20
BANDED_CHILD = r"""
import json, resource, sys
from natint.carriers import build_carrier

s = build_carrier("Mat(2,2,N(Zn:3))")
with open("/proc/self/status") as f:
    size = next(int(line.split()[1]) << 10 for line in f
                if line.startswith("VmSize:"))
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (size + int(sys.argv[1]), hard))
verdict = s.commutative("mul")
try:
    s.table("mul")
    table = "built"
except MemoryError:
    table = "MemoryError"
print(json.dumps([verdict, table]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the process size from /proc")
def test_commutativity_of_a_product_is_read_in_bands():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + os.environ.get("PYTHONPATH", "").split(
                       os.pathsep)))
    proc = subprocess.run(
        [sys.executable, "-c", BANDED_CHILD, str(BANDED_HEADROOM)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[False, [1, 9]], "MemoryError"]
