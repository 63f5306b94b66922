"""The report writers against their references.

`cli._to_json` must give the bytes of json.dumps(..., indent=2,
default=_json_default) on every payload; the gathered Cayley grid must
match the cell-by-cell grid in every format; a structure's memoized labels
must be the str of its elements; and the eval refusals (a priced power,
a too-deep expression) must end in an exit code, never a traceback.
"""

import csv
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from natint import cli
from natint.carriers import build_carrier
from natint.quotients import parse_ideal_spec, rees_quotient, \
    standard_quotient

from test_golden import GOLDEN


def dumps(obj):
    return json.dumps(obj, indent=2, default=cli._json_default)


# ---- the JSON writer


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_writer_matches_dumps_on_golden_payloads(argv, monkeypatch):
    payloads = []
    monkeypatch.setattr(cli, "emit", lambda p, cfg, out: payloads.append(p))
    cli.main(list(argv))
    [payload] = payloads
    assert cli._to_json(payload) == dumps(payload)


_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)))
_scalars = st.one_of(
    _text,
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=255).map(np.uint8),
    st.booleans().map(np.bool_),
    st.fractions(),
    st.frozensets(st.integers(-5, 5)),
    st.sets(_text, max_size=4),
    st.lists(st.integers(-9, 9), max_size=4).map(
        lambda xs: np.array(xs, dtype=np.int64)),
)
_keys = st.one_of(_text, st.integers(), st.floats(allow_nan=True),
                  st.booleans(), st.none())
# the values of a flat record, with bool, int and None mixed in one field
_flat = st.one_of(_text, st.none(), st.booleans(), st.integers(),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.sampled_from([True, 1, None, False, 0, 1.0]))
# How a record list can miss the flat form by one record: another key
# tuple, the same keys in another order, a nested value, an empty dict, an
# item that is no dict.
_MISSES = (None, "keys", "order", "nested", "empty", "item")


@st.composite
def _record_lists(draw):
    """Records sharing one key tuple, str or not, as the element reports'
    lists do; one of them is then made a near miss, or none is."""
    keys = draw(st.lists(st.one_of(_text, st.integers(), st.none()),
                         min_size=1, max_size=4, unique=True))
    records = [dict(zip(keys, draw(st.tuples(*[_flat] * len(keys)))))
               for _ in range(draw(st.integers(1, 6)))]
    miss = draw(st.sampled_from(_MISSES))
    k = draw(st.integers(0, len(records) - 1))
    if miss == "order" and len(keys) > 1:
        records[k] = dict(reversed(records[k].items()))
    elif miss in ("keys", "order"):
        records[k][max((x for x in keys if type(x) is int), default=0) + 1] = 0
    elif miss == "nested":
        records[k][keys[-1]] = draw(st.one_of(
            st.lists(_flat, max_size=2), st.dictionaries(_text, _flat,
                                                          max_size=2)))
    elif miss == "empty":
        records[k] = {}
    elif miss == "item":
        records[k] = draw(_flat)
    return records


_payloads = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(_text, max_size=5),
        st.dictionaries(_keys, inner, max_size=5),
        _record_lists()),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(_payloads)
def test_writer_matches_dumps_on_drawn_payloads(payload):
    assert cli._to_json(payload) == dumps(payload)


def _flat_records(records):
    """Do records take cli._write_records's branch: dicts with the first
    one's keys in its order, at least one and all str, and plain scalar
    values?"""
    keys = tuple(records[0]) if type(records[0]) is dict else ()
    return bool(keys) and all(type(key) is str for key in keys) and all(
        type(r) is dict and tuple(r) == keys
        and all(type(v) in (str, int, float, bool, type(None))
                for v in r.values()) for r in records)


@settings(max_examples=300, deadline=None)
@given(_record_lists())
@example([{1: 0}, {True: 0}])
@example([{1: 0}, {1.0: 0}])
@example([{"a": 0, "b": None}, {"a": True, "b": 1.5}])
def test_record_lists_take_their_branch_exactly_when_flat(records):
    out = []
    assert cli._write_records(records, out, "\n  ") == _flat_records(records)
    assert bool(out) == _flat_records(records)
    for payload in (records, {"elements": {"units": records}}):
        assert cli._to_json(payload) == dumps(payload)


class _Int(int):
    def __repr__(self):
        return "int-subclass"
    __str__ = __repr__


class _Float(float):
    def __repr__(self):
        return "float-subclass"
    __str__ = __repr__


class _Str(str):
    pass


def test_writer_edge_values():
    payload = {"subclasses": [_Int(7), _Float(0.5), _Str("s"), np.float64(2)],
               _Str("k"): {_Int(3): _Float(1.5)},
               "big": 10 ** 4000, "neg": -(10 ** 300), "nan": math.nan,
               "inf": [math.inf, -math.inf], "astral": "\U0001f600\x00\x1f",
               "empty": [[], {}, ()], 1: True, 2.5: None, None: False,
               False: np.bool_(True), "f": [Fraction(3, 6), Fraction(4, 2)],
               "set": {"b", "a"}, "np": np.arange(3), "tuple": ("x", 1)}
    assert cli._to_json(payload) == dumps(payload)
    assert cli._to_json("é") == dumps("é")
    with pytest.raises(TypeError):
        cli._to_json({(1, 2): 0})


# ---- the gathered Cayley grid


def _cell_grid(s, op):
    """The grid one cell at a time, as the table was first written."""
    t = s.table(op)
    labels = [str(e) for e in s.elements]
    return labels, [[labels[t[i, j]] if t[i, j] >= 0 else "?"
                     for j in range(s.n)] for i in range(s.n)]


@pytest.mark.parametrize("spec,op", [
    ("Fuzzy(prod,step=1/4)", "mul"),
    ("Sub{[0,0],[1,1],[3,3]} of N(Zn:4)", "add"),
    ("Sub{[1/2,1],[1,1/2],[0,0],[1/2,1/2],[1,1]} of N(F01)", "add"),
    ("N(Zn:3)\\0", "mul"),
])
def test_table_matches_cell_grid_in_every_format(spec, op, capsys):
    labels, grid = _cell_grid(build_carrier(spec), op)
    closed = all(c != "?" for row in grid for c in row)
    assert spec.startswith("N(") or not closed

    assert cli.main(["table", spec, op]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["labels"] == labels
    assert payload["table"] == grid
    assert payload["closed"] is closed

    assert cli.main(["table", spec, op, "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows == [[op] + labels] + [[a] + r for a, r in zip(labels, grid)]

    assert cli.main(["table", spec, op, "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    cells = [[c.strip() for c in line.split(" | ")] for line in lines]
    assert cells == [[op] + labels] + [[a] + r for a, r in zip(labels, grid)]


# ---- labels once per structure


@pytest.mark.parametrize("spec", [
    "N(Zn:4)", "N(Zn:3,o)", "N(ZnI:3,oc)", "N(Zn+I:2,co)", "N(Zn:5)\\0",
    "Mat(1,2,N(Zn:2))", "Mat(2,2,N(Zn:2))", "Poly(N(Zn:2),cyc=2)",
    "Fuzzy(min,step=1/3)", "Fuzzy(max)", "Fuzzy(prod,step=1/4)",
    "Sub{[0,0],[1,1],[-1,-1]} of N(Z)",
    "Sub{[1/2,1],[0,0],[1,1]} of N(F01)",
])
def test_labels_are_the_elements_str(spec):
    s = build_carrier(spec)
    want = [str(e) for e in s.elements]
    assert [s.label(i) for i in range(s.n)] == want
    assert s.labels(range(s.n - 1, -1, -1)) == want[::-1]
    sub = s.restrict([s.n - 1, 0])
    assert sub.labels(range(2)) == [want[-1], want[0]]


@pytest.mark.parametrize("make", [rees_quotient, standard_quotient])
def test_quotient_class_labels(make):
    s = build_carrier("N(Zn:6)")
    q = make(s, parse_ideal_spec(s, "col-zero"))
    assert q.labels(range(q.n)) == [str(e) for e in q.elements]


# ---- eval refusals end in an exit code


@pytest.mark.parametrize("domain,expr,code", [
    ("Z", "[2,2]^99999", 3),
    ("Z", "[2,2]^9999999999", 3),
    ("Q", "(" * 3000 + "[1,2]" + ")" * 3000, 2),
    ("Q", "-" * 3000 + "[1,2]", 2),
    ("Q", "min(" * 3000 + "[1,2]" + ",1)" * 3000, 2),
    ("Z", "[2,3]^" + "9" * 5000, 3),
    ("Z", "[2,2]^7000*[2,2]^7000*[2,2]^7000", 3),
    ("Z", "*".join(["[3,3]^7000"] * 3000), 3),
    ("Q", "[1/3,1]^7000/[2,1]^7000", 3),
])
def test_eval_refusals_exit_without_traceback(domain, expr, code, capsys):
    assert cli.main(["eval", domain, "--", expr]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_power_price_bound(capsys):
    assert cli.main(["eval", "Z", f"[2,2]^{cli.POWER_BITS}"]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "Z", f"[2,2]^{cli.POWER_BITS + 1}"]) == 3
    assert f"priced at {cli.POWER_BITS + 1} bits" in capsys.readouterr().err


@pytest.mark.parametrize("domain,expr", [
    ("Z", "[2,3]^7000"),            # priced at 2 x 7000 bits
    ("Z", "[1,-1]^9999999999"),     # 0 and ±1 cost nothing
    ("Zn:12", "[2,3]^9999999999"),  # a finite domain is not priced
    ("Q", "(" * 99 + "[1,2]" + ")" * 99),
])
def test_eval_within_bounds(domain, expr, capsys):
    assert cli.main(["eval", domain, "--", expr]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["domain"] == domain


def test_powers_within_the_price_print():
    # the largest integer a priced power may hold still prints
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    assert (cli.POWER_BITS + 2) * math.log10(2) < limit
    assert cli.RESULT_BITS * math.log10(2) < limit
    for base in ("[3,3]", "[2+I,3]", "[1/3+2/5I,7/2]"):
        x = cli.eval_expression(base, cli.parse_domain(
            "Q+I" if "I" in base else "Z"))
        k = cli.POWER_BITS // max(map(cli._scalar_bits, (x.lo, x.hi)))
        y = x ** k
        ints = [i for v in (y.lo, y.hi) for i in cli._scalar_ints(v)]
        assert max(i.bit_length() for i in ints) <= cli.POWER_BITS + 2
