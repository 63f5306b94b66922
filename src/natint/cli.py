"""Command-line front end.

Subcommands build carriers from the structure-spec grammar, run the
analyzers, and print deterministic reports:

    table        Cayley table of a finite carrier (csv / text / json)
    analyze      full axiom + element + substructure report
    quotient     standard or Rees quotient by an ideal spec
    ideal        validate one ideal spec, or enumerate them all
    span         dimension of the span of interval vectors over a field
    verify-book  replay the catalogue of recorded claims
    eval         evaluate one interval expression

Exit codes: 0 ok, 1 a file that cannot be written, 2 malformed or
inapplicable input, 3 enumeration bound exceeded, 4 verification
failure.  main prints every error as one "error: ..." line and reads
its code off one table, _EXIT_CODES.  render writes every csv through
one writer (_csv), and a Cayley table's csv and text from the same rows
(_grid_rows).  The expression parser folds each precedence level in one
loop (_chain), and it and the Sub{...} reader find a closing bracket
with intervals._closing_bracket.  With a fixed seed and config the
emitted JSON is byte-identical across runs.
"""

import argparse
import csv
import functools
import io
import json
import operator
import re
import sys
from fractions import Fraction

import numpy as np

from .carriers import build_carrier
from .errors import (
    InfiniteDomain,
    NatIntError,
    NotAnIdeal,
    ParseError,
    TooLarge,
)
from .intervals import (
    Flavor,
    _closing_bracket,
    degenerate,
    iv_max,
    iv_min,
    parse_interval,
)
from .matrices import parse_matrix, span_dimension
from .quotients import (
    ideal_summary,
    is_ideal,
    maximal_minimal_ideals,
    parse_ideal_spec,
    quotient_analysis,
    rees_quotient,
    standard_quotient,
)
from .scalars import parse_domain
from .structures import analyze_structure
from .verify import claim_ids, run_verification

SCHEMA = "natint/1"

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_PARSE = 2
EXIT_TOO_LARGE = 3
EXIT_VERIFY = 4

# The exit code of each error a request can end in: the first kind that
# matches wins, so a subclass comes before its base.
_EXIT_CODES = (
    (ParseError, EXIT_PARSE),
    ((TooLarge, InfiniteDomain), EXIT_TOO_LARGE),
    (NotAnIdeal, EXIT_VERIFY),
    (NatIntError, EXIT_PARSE),
    (OSError, EXIT_UNEXPECTED),
)


# ----------------------------------------------------------------------
# run configuration


class RunConfig:
    """Runtime knobs shared by every subcommand.  worker_count is accepted
    and must be an integer, but nothing reads it: every suite runs its
    chunks in order."""

    FIELDS = ("size_bound", "worker_count", "seed", "output_format")
    FORMATS = ("json", "csv", "text")

    def __init__(self, size_bound=10 ** 6, worker_count=None, seed=0,
                 output_format="json"):
        self.size_bound = int(size_bound)
        if worker_count:
            int(worker_count)
        self.seed = int(seed)
        if output_format not in self.FORMATS:
            raise ParseError(
                f"unknown output format {output_format!r}",
                expected=list(self.FORMATS))
        self.output_format = output_format


def load_config_file(path):
    """Read a key=value file; '#' starts a comment."""
    opts = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config file: {exc}")
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{ln}: expected key=value",
                             text=raw.rstrip("\n"), expected=["key=value"])
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in RunConfig.FIELDS:
            raise ParseError(f"{path}:{ln}: unknown config key {key!r}",
                             expected=list(RunConfig.FIELDS))
        opts[key] = value
    return opts


def make_config(args):
    """CLI flags override the config file, which overrides defaults."""
    opts = load_config_file(args.config) if args.config else {}
    for key, flag in zip(RunConfig.FIELDS,
                         ("size_bound", "workers", "seed", "format")):
        if getattr(args, flag) is not None:
            opts[key] = getattr(args, flag)
    try:
        return RunConfig(**opts)
    except ValueError as exc:
        raise ParseError(f"bad config value: {exc}")


# ----------------------------------------------------------------------
# output rendering


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, Fraction):
        return int(obj) if obj.denominator == 1 else \
            f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (set, frozenset)):
        return sorted(str(x) for x in obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


_ESCAPE = json.encoder.encode_basestring_ascii


def _json_float(x):
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return float.__repr__(x)


def _json_key(key):
    """A dict key as json.dumps writes it: non-str keys become strings."""
    if isinstance(key, str):
        return _ESCAPE(key)
    if isinstance(key, float):
        return _ESCAPE(_json_float(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _ESCAPE(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


# How json.dumps writes a scalar of exactly this type.
_SCALARS = {
    str: _ESCAPE,
    int: int.__repr__,
    float: _json_float,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _write_json(obj, out, nl):
    """Append the pieces of obj's indent-2 JSON to out; nl is the newline
    and indent of obj's own line.  Types are tested in json.dumps's
    order, and anything else is written as _json_default(obj)."""
    fmt = _SCALARS.get(type(obj))
    if fmt is not None:
        out.append(fmt(obj))
    elif isinstance(obj, str):
        out.append(_ESCAPE(obj))
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_json_float(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        if isinstance(obj[0], str):
            try:  # a list of str, as labels and table rows are
                out.append("[" + inner + sep.join(map(_ESCAPE, obj))
                           + nl + "]")
                return
            except TypeError:
                pass
        elif _write_records(obj, out, nl):
            return
        head = "[" + inner
        for value in obj:
            fmt = _SCALARS.get(type(value))
            if fmt is None:
                out.append(head)
                _write_json(value, out, inner)
            else:
                out.append(head + fmt(value))
            head = sep
        out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        head = "{" + inner
        for key, value in obj.items():
            head += _json_key(key) + ": "
            fmt = _SCALARS.get(type(value))
            if fmt is None:
                out.append(head)
                _write_json(value, out, inner)
            else:
                out.append(head + fmt(value))
            head = "," + inner
        out.append(nl + "}")
    else:
        _write_json(_json_default(obj), out, nl)


def _write_records(records, out, nl):
    """Append records' indent-2 JSON as _write_json writes a list, and
    return True, when they are flat records: dicts with the first one's
    keys, in its order, all str, and values of _SCALARS types, as the
    element reports' lists are.  Each key's head is made once and each
    record is one join.  Append nothing and return False for any other
    list; nl is the newline and indent of the list's own line.  Keys must
    be str because 1, True and 1.0 compare equal but are written apart."""
    if type(records[0]) is not dict or not records[0]:
        return False
    keys = tuple(records[0])
    if not all(type(key) is str for key in keys):
        return False
    inner = nl + "  "
    heads = [inner + "  " + _json_key(key) + ": " for key in keys]
    heads[0] = "{" + heads[0]
    close = inner + "}"
    pieces = []
    for record in records:
        if type(record) is not dict or tuple(record) != keys:
            return False
        try:
            pieces.append(",".join([head + _SCALARS[type(value)](value)
                                    for head, value in zip(
                                        heads, record.values())]) + close)
        except KeyError:
            return False
    out.append("[" + inner + ("," + inner).join(pieces) + nl + "]")
    return True


def _to_json(obj):
    """json.dumps(obj, indent=2, default=_json_default), byte for byte.

    The standard encoder is pure Python once indent is set and makes a
    generator step per value; this writer makes one string piece per
    scalar and one join per list of str.
    """
    out = []
    _write_json(obj, out, "\n")
    return "".join(out)


def _cell(value):
    """One scalar as it appears in csv / text output."""
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, Fraction):
        return _json_default(value) if value.denominator != 1 \
            else str(int(value))
    if isinstance(value, (np.integer, np.bool_)):
        return _cell(_json_default(value))
    return str(value)


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        rows = []
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            rows.extend(_flatten(value, path))
        return rows
    if isinstance(obj, (list, tuple)):
        rows = []
        for i, value in enumerate(obj):
            rows.extend(_flatten(value, f"{prefix}[{i}]"))
        return rows
    return [(prefix, _cell(obj))]


def _is_scalar(value):
    return not isinstance(value, (dict, list, tuple))


def _text_lines(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if _is_scalar(value):
                lines.append(f"{pad}{key}: {_cell(value)}")
            elif not value:
                lines.append(f"{pad}{key}: " +
                             ("{}" if isinstance(value, dict) else "[]"))
            elif isinstance(value, (list, tuple)) and \
                    all(_is_scalar(v) for v in value):
                joined = ", ".join(_cell(v) for v in value)
                lines.append(f"{pad}{key}: [{joined}]")
            else:
                lines.append(f"{pad}{key}:")
                lines.extend(_text_lines(value, indent + 1))
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            if _is_scalar(value):
                lines.append(f"{pad}- {_cell(value)}")
            else:
                lines.append(f"{pad}-")
                lines.extend(_text_lines(value, indent + 1))
    else:
        lines.append(f"{pad}{_cell(obj)}")
    return lines


def _csv(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _grid_rows(payload):
    """A Cayley table's rows of cells: the op and the labels, then each
    element's label and products."""
    labels = payload["labels"]
    return [[payload["op"], *labels]] + [
        [label, *row] for label, row in zip(labels, payload["table"])]


def _claims_text(payload):
    lines = []
    for entry in payload["claims"]:
        lines.append(f"{entry['status']:<8} {entry['claim_id']:<28} "
                     f"{entry.get('citation', '')}".rstrip())
        if entry.get("note"):
            lines.append(f"{'':8} note: {entry['note']}")
    counts = payload["counts"]
    summary = ", ".join(f"{k}={counts[k]}" for k in
                        ("pass", "fail", "erratum", "skipped"))
    lines.append(f"counts: {summary}")
    lines.append(f"ok: {_cell(payload['ok'])}")
    return "\n".join(lines) + "\n"


def render(payload, fmt):
    if fmt == "json":
        return _to_json(payload) + "\n"
    is_grid = isinstance(payload, dict) and "table" in payload \
        and "labels" in payload
    is_claims = isinstance(payload, dict) and \
        payload.get("tool") == "verify-book"
    if is_grid:
        rows = _grid_rows(payload)
        if fmt == "csv":
            return _csv(rows)
        widths = [max(map(len, column)) for column in zip(*rows)]
        return "\n".join(
            " | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows) + "\n"
    if is_claims:
        if fmt == "text":
            return _claims_text(payload)
        return _csv([["claim_id", "status", "citation", "note"]] + [
            [entry["claim_id"], entry["status"], entry.get("citation", ""),
             entry.get("note", "")] for entry in payload["claims"]])
    if fmt == "csv":
        return _csv([["key", "value"], *_flatten(payload)])
    return "\n".join(_text_lines(payload)) + "\n"


def emit(payload, cfg, out_path):
    text = render(payload, cfg.output_format)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# interval expression evaluator


_NAME_RE = re.compile(r"[0-9A-Za-z_.]+")
_INT_RE = re.compile(r"[0-9]+")

# Deepest nesting of groups, calls and unary minus an expression may
# have; each level takes several Python frames of the recursive descent.
MAX_DEPTH = 100
# Largest price of a power over an infinite domain: the bit length of
# its base's endpoints (_scalar_bits) times the exponent.  A power within
# it has no integer over 14002 bits, which is at most 4216 decimal
# digits, so it prints under Python's 4300-digit limit for int to str.
POWER_BITS = 14000
# Most bits any integer in a sum, difference, product or quotient may
# have: at most 4300 digits.  Checking each one bounds the work of a
# chain of priced powers, not only the printed result.
RESULT_BITS = 14284

# Each function's arity and what it does to its arguments.
_FUNCTIONS = {"min": (2, iv_min), "max": (2, iv_max),
              "recip": (1, operator.methodcaller("recip"))}
# The binary operators of the two precedence levels below "^".
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}


class ExpressionParser:
    """Recursive descent over interval expressions.

    Grammar:
        expr   := term (("+" | "-") term)*
        term   := power (("*" | "/") power)*
        power  := factor ("^" integer)?
        factor := "-" factor | atom
        atom   := interval | scalar | "(" expr ")"
                | ("min" | "max") "(" expr "," expr ")"
                | "recip" "(" expr ")"

    A "(" opens an interval literal when its bracketed body reads as
    two domain scalars; otherwise it groups a subexpression.  "[" always
    opens an interval literal.  Bare scalars become degenerate
    intervals, so `3*[1,2]` and `[3,3]*[1,2]` agree.
    """

    def __init__(self, text, domain, default_flavor=Flavor.CLOSED):
        self.text = text
        self.domain = domain
        self.flavor = default_flavor
        self.i = 0
        self.n = len(text)
        self.depth = 0

    # --- cursor helpers

    def _skip_ws(self):
        while self.i < self.n and self.text[self.i].isspace():
            self.i += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.i] if self.i < self.n else ""

    def _fail(self, message, expected=None, pos=None):
        raise ParseError(message, text=self.text,
                         pos=self.i if pos is None else pos,
                         expected=expected)

    def _bounded(self, value):
        """value, unless one of its integers has more than RESULT_BITS
        bits."""
        bits = max(x.bit_length() for v in (value.lo, value.hi)
                   for x in _scalar_ints(v))
        if bits > RESULT_BITS:
            raise TooLarge(f"a {bits}-bit integer at position {self.i}, "
                           f"over the {RESULT_BITS} bits that print in "
                           f"4300 digits")
        return value

    # --- grammar

    def parse(self):
        value = self._expr()
        self._skip_ws()
        if self.i != self.n:
            self._fail(f"trailing input {self.text[self.i:]!r}",
                       expected=["+", "-", "*", "/", "^", "end of input"])
        return value

    def _expr(self):
        return self._chain(self._term, ("+", "-"))

    def _term(self):
        return self._chain(self._power, ("*", "/"))

    def _chain(self, operand, ops):
        """operand (op operand)* for the ops of one precedence level,
        folded left to right."""
        value = operand()
        while (c := self._peek()) in ops:
            self.i += 1
            value = self._bounded(_BINARY[c](value, operand()))
        return value

    def _power(self):
        value = self._factor()
        if self._peek() == "^":
            self.i += 1
            self._skip_ws()
            m = _INT_RE.match(self.text, self.i)
            if not m:
                self._fail("exponent must be an integer >= 1",
                           expected=["integer"])
            try:
                k = int(m.group())
            except ValueError:  # more digits than int() converts
                raise TooLarge(f"an exponent of {len(m.group())} digits "
                               f"is too large")
            if k < 1:
                self._fail("exponent must be an integer >= 1",
                           expected=["integer >= 1"])
            self.i = m.end()
            if value.domain.size is None:  # values grow with the power
                price = k * max(map(_scalar_bits, (value.lo, value.hi)))
                if price > POWER_BITS:
                    raise TooLarge(
                        f"{value}^{k} is priced at {price} bits (endpoint "
                        f"bits x exponent), over the bound {POWER_BITS}")
            value = value ** k
        return value

    def _factor(self):
        # every recursion of the descent passes through here
        if self.depth == MAX_DEPTH:
            self._fail(f"expression nested deeper than {MAX_DEPTH} levels",
                       expected=[f"at most {MAX_DEPTH} nested levels"])
        self.depth += 1
        try:
            if self._peek() == "-":
                self.i += 1
                return -self._factor()
            return self._atom()
        finally:
            self.depth -= 1

    def _atom(self):
        c = self._peek()
        if not c:
            self._fail("unexpected end of input",
                       expected=["interval", "scalar", "("])
        if c in "([":
            return self._bracketed(c)
        m = _NAME_RE.match(self.text, self.i)
        if not m:
            self._fail(f"unexpected character {c!r}",
                       expected=["interval", "scalar", "("])
        name = m.group()
        if name in _FUNCTIONS:
            after = self.text[m.end():].lstrip()
            if after.startswith("("):
                return self._call(name, m.end())
        try:
            value = self.domain.parse_scalar(name)
        except TooLarge:
            raise
        except NatIntError:
            self._fail(f"{name!r} is not a scalar over {self.domain.spec}",
                       expected=["scalar"])
        self.i = m.end()
        return degenerate(self.domain, value, self.flavor)

    def _bracketed(self, opener):
        start = self.i
        close = _closing_bracket(self.text, start, "([", ")]")
        if close is None:
            self._fail("unbalanced bracket", expected=[")", "]"], pos=start)
        try:
            value = parse_interval(self.text[start:close + 1], self.domain,
                                   self.flavor)
        except (NatIntError, ValueError, ArithmeticError):
            if opener == "[":
                raise
        else:
            self.i = close + 1
            return value
        if self.text[close] != ")":
            self._fail("an expression group must close with ')'",
                       expected=[")"], pos=close)
        self.i = start + 1
        value = self._expr()
        self._skip_ws()
        if self.i != close:
            self._fail(f"unexpected {self.text[self.i:close]!r} in group",
                       expected=[")"])
        self.i = close + 1
        return value

    def _call(self, name, name_end):
        arity, fn = _FUNCTIONS[name]
        self.i = name_end
        self._skip_ws()
        self.i += 1  # the opening "("
        args = [self._expr()]
        while self._peek() == ",":
            self.i += 1
            args.append(self._expr())
        if self._peek() != ")":
            self._fail(f"unterminated call to {name}", expected=[")"])
        self.i += 1
        if len(args) != arity:
            self._fail(f"{name} takes {arity} argument"
                       f"{'s' if arity != 1 else ''}, got {len(args)}",
                       expected=[f"{arity} arguments"])
        return fn(*args)


def _scalar_ints(v):
    """The integers written in one scalar: an int, a Fraction's numerator
    and denominator, or those of both parts of an a + bI pair."""
    if isinstance(v, tuple):
        return [x for part in v for x in _scalar_ints(part)]
    if isinstance(v, Fraction):
        return [v.numerator, v.denominator]
    return [v]


def _scalar_bits(v):
    """Bits per power step of one scalar: the bit length of |x| - 1 summed
    over its integers, plus one for an a + bI pair.  Every integer in
    v^k then has at most _scalar_bits(v) * k + 2 bits, and 0 and ±1 cost
    nothing."""
    return (isinstance(v, tuple)
            + sum(max(abs(x) - 1, 0).bit_length() for x in _scalar_ints(v)))


def eval_expression(text, domain, default_flavor=Flavor.CLOSED):
    return ExpressionParser(text, domain, default_flavor).parse()


# ----------------------------------------------------------------------
# subcommands


def cmd_table(args, cfg):
    s = build_carrier(args.spec, size_bound=cfg.size_bound)
    if s.n * s.n > cfg.size_bound:
        raise TooLarge(f"a {s.n}x{s.n} table exceeds the bound "
                       f"{cfg.size_bound}")
    t = s.table(args.op)
    labels = s.labels(range(s.n))
    # one gather: a product outside the carrier (-1) reads the final "?"
    grid = np.array(labels + ["?"], dtype=object)[t].tolist()
    payload = {
        "schema": SCHEMA,
        "spec": s.name,
        "op": args.op,
        "order": s.n,
        "labels": labels,
        "closed": bool((t >= 0).all()),
        "table": grid,
    }
    return payload, EXIT_OK


def cmd_analyze(args, cfg):
    s = build_carrier(args.spec, size_bound=cfg.size_bound)
    payload = analyze_structure(s)
    return payload, EXIT_OK


def cmd_quotient(args, cfg):
    s = build_carrier(args.spec, size_bound=cfg.size_bound)
    ideal = parse_ideal_spec(s, args.ideal_spec)
    if args.kind == "rees":
        q = rees_quotient(s, ideal)
    else:
        q = standard_quotient(s, ideal)
    payload = quotient_analysis(q)
    return payload, EXIT_OK


def cmd_ideal(args, cfg):
    s = build_carrier(args.spec, size_bound=cfg.size_bound)
    if args.ideal_spec is not None:
        ideal = parse_ideal_spec(s, args.ideal_spec)
        ok, info = is_ideal(s, ideal.indices)
        payload = {
            "schema": SCHEMA,
            "spec": s.name,
            "ideal_spec": args.ideal_spec,
            "is_ideal": ok,
            "subset": ideal_summary(ideal),
        }
        payload.update(info)
        return payload, EXIT_OK if ok else EXIT_VERIFY
    report = maximal_minimal_ideals(s)
    payload = {
        "schema": SCHEMA,
        "spec": s.name,
        "total": report["total"],
        "proper_nonzero": report["proper_nonzero"],
        "minimal": [ideal_summary(i) for i in report["minimal"]],
        "maximal": [ideal_summary(i) for i in report["maximal"]],
    }
    return payload, EXIT_OK


def cmd_span(args, cfg):
    field = parse_domain(args.field)
    flavor = Flavor.from_code(args.flavor)
    vectors = [parse_matrix(text, field, flavor) for text in args.vectors]
    payload = span_dimension(vectors, field)
    payload = {"schema": SCHEMA, **payload}
    return payload, EXIT_OK


def cmd_verify_book(args, cfg):
    only = None
    if args.only:
        only = [part.strip() for part in args.only.split(",") if part.strip()]
        known = set(claim_ids())
        missing = [c for c in only if c not in known]
        if missing:
            raise ParseError(f"unknown claim ids: {', '.join(missing)}",
                             expected=sorted(known)[:8] + ["..."])
    payload = run_verification(seed=cfg.seed, only=only)
    return payload, EXIT_OK if payload["ok"] else EXIT_VERIFY


def cmd_eval(args, cfg):
    domain = parse_domain(args.domain)
    flavor = Flavor.from_code(args.flavor)
    value = eval_expression(args.expr, domain, flavor)
    payload = {
        "schema": SCHEMA,
        "domain": domain.spec,
        "expr": args.expr,
        "result": str(value),
        "lo": domain.format_scalar(value.lo),
        "hi": domain.format_scalar(value.hi),
        "flavor": value.flavor.code,
        "degenerate": value.is_degenerate,
        "trend": value.trend().name.lower(),
    }
    return payload, EXIT_OK


# ----------------------------------------------------------------------
# argument parsing


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=RunConfig.FORMATS, default=None,
                        help="output format (default json)")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized suites (default 0)")
    common.add_argument("--size-bound", type=int, default=None,
                        help="largest carrier to enumerate (default 10^6)")
    common.add_argument("--workers", type=int, default=None,
                        help="accepted for compatibility; it changes "
                             "nothing, as every suite runs in order")
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")
    common.add_argument("--config", default=None, metavar="PATH",
                        help="key=value config file (size_bound, "
                             "worker_count, seed, output_format)")

    parser = argparse.ArgumentParser(
        prog="natint",
        description="Exact arithmetic and finite-structure analysis for "
                    "the natural class of intervals.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    p = sub.add_parser("table", parents=[common],
                       help="print the Cayley table of a finite carrier")
    p.add_argument("spec", help='structure spec, e.g. "N(Zn:3)\\0"')
    p.add_argument("op", choices=["add", "mul"])
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("analyze", parents=[common],
                       help="full axiom/element/substructure report")
    p.add_argument("spec", help='structure spec, e.g. "N(Zn:12)"')
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("quotient", parents=[common],
                       help="quotient a carrier by an ideal")
    p.add_argument("spec")
    p.add_argument("ideal_spec",
                   help="gen{...} | col-zero | row-zero | "
                        "diag-multiples:<k>")
    p.add_argument("--kind", choices=["standard", "rees"], default="rees")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("ideal", parents=[common],
                       help="check one ideal spec, or enumerate all ideals")
    p.add_argument("spec")
    p.add_argument("ideal_spec", nargs="?", default=None)
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("span", parents=[common],
                       help="dimension of the span of interval vectors")
    p.add_argument("field", help='field domain spec, e.g. "Q" or "Zn:7"')
    p.add_argument("vectors", nargs="+",
                   help='matrices like "[1,2],[0,1];[3,0],[1,1]"')
    p.add_argument("--flavor", default="c",
                   help="flavor for bare entries (c | o | oc | co)")
    p.set_defaults(func=cmd_span)

    p = sub.add_parser("verify-book", parents=[common],
                       help="replay the catalogue of recorded claims")
    p.add_argument("--only", default=None, metavar="IDS",
                   help="comma-separated claim ids to run")
    p.set_defaults(func=cmd_verify_book)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate one interval expression")
    p.add_argument("domain", help='scalar domain spec, e.g. "Zn:12"')
    p.add_argument("expr",
                   help='e.g. "[3,4]*[4,3] + (1,11)^2" or "recip([2,3])"')
    p.add_argument("--flavor", default="c",
                   help="flavor for bare scalars (c | o | oc | co)")
    p.set_defaults(func=cmd_eval)

    return parser


@functools.cache
def _parser():
    """build_parser(), once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = make_config(args)
        payload, code = args.func(args, cfg)
        emit(payload, cfg, args.out)
        return code
    except (NatIntError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES
                    if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
