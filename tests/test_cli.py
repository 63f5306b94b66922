import csv
import io
import json
import subprocess
import sys

import pytest

from natint.cli import eval_expression, main
from natint import Flavor, Mod, ParseError, Q, Z, interval, parse_domain
from natint import structures


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- table


def test_table_csv_header_row_and_column(capsys):
    code, out, _ = run(capsys, "table", "N(Zn:2)", "add", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["add", "0", "[0,1]", "[1,0]", "1"]
    assert [r[0] for r in rows[1:]] == ["0", "[0,1]", "[1,0]", "1"]
    # identity row: 0 + x = x
    assert rows[1][1:] == rows[0][1:]


def test_table_punctured_carrier_is_the_klein_table(capsys):
    code, out, _ = run(capsys, "table", "N(Zn:3)\\0", "mul",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 4
    assert set(payload["labels"]) == {"1", "2", "[1,2]", "[2,1]"}
    assert payload["closed"]
    # x * x = 1 on the diagonal
    for i, row in enumerate(payload["table"]):
        assert row[i] == "1"


def test_table_marks_non_closure(capsys):
    code, out, _ = run(capsys, "table", "N(Zn:6)\\0", "mul",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert not payload["closed"]
    assert any("?" in row for row in payload["table"])


def test_table_missing_op_is_an_input_error(capsys):
    # the error names the carrier, also where a factor of it (a structure
    # on its part tables) is the first to be asked for the op
    for argv in (("ideal", "Fuzzy(min,step=1/2)"), ("ideal", "N(Zn:3)\\0"),
                 ("table", "N(Zn:3)\\0", "add")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: structure {argv[1]!r} has no add operation\n"


# ---- analyze / quotient / ideal


def test_analyze_json_shape(capsys):
    code, out, _ = run(capsys, "analyze", "N(Zn:4)")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "natint/1"
    assert rep["order"] == 16
    assert rep["substructures"]["s_semigroup"]


def test_quotient_rees_class_count(capsys):
    code, out, _ = run(capsys, "quotient", "N(Zn:5,o)", "col-zero",
                       "--kind", "rees")
    assert code == 0
    assert json.loads(out)["classes"] == 21


def test_quotient_standard_kind(capsys):
    code, out, _ = run(capsys, "quotient", "N(Zn:3,o)", "col-zero",
                       "--kind", "standard")
    assert code == 0
    assert json.loads(out)["classes"] == 3


def test_standard_cosets_that_leave_the_carrier_exit_4(capsys):
    # {[0,0],[2,0]} is an ideal of the subset, but the coset [2,2] + I
    # holds [2,2] + [2,0] = [0,2], which the subset lacks
    code, out, err = run(capsys, "quotient",
                         "Sub{[0,0],[2,0],[2,2]} of N(Zn:4)", "gen{[2,0]}",
                         "--kind", "standard")
    assert code == 4 and not out
    assert err == "error: addition leaves the carrier\n"


def test_empty_generator_list_is_a_parse_error(capsys):
    code, _, err = run(capsys, "quotient", "N(Zn:4)", "gen{}")
    assert code == 2


def test_quotient_by_non_ideal_exits_4(capsys):
    # matrices with a zero first column absorb products on the left only
    code, _, err = run(capsys, "quotient", "Mat(2,2,N(Zn:2))", "col-zero")
    assert code == 4
    assert "absorbing" in err


def test_ideal_verdict_false_exits_4(capsys):
    code, out, _ = run(capsys, "ideal", "Mat(2,2,N(Zn:2))", "col-zero")
    assert code == 4
    rep = json.loads(out)
    assert rep["is_ideal"] is False
    assert "right" in rep["reason"]


def test_ideal_enumeration(capsys):
    code, out, _ = run(capsys, "ideal", "N(Zn:5)")
    assert code == 0
    rep = json.loads(out)
    assert rep["proper_nonzero"] == 2
    assert len(rep["minimal"]) == 2


def test_ideal_verdict_true(capsys):
    code, out, _ = run(capsys, "ideal", "N(Zn:5)", "col-zero")
    assert code == 0
    rep = json.loads(out)
    assert rep["is_ideal"] is True
    assert rep["subset"]["order"] == 5


# ---- span


def test_span_dimension_two(capsys):
    code, out, _ = run(capsys, "span", "Zn:7", "[1,0]", "[0,1]")
    assert code == 0
    rep = json.loads(out)
    assert rep["dimension"] == 2 and rep["spans"]


def test_span_non_field_rejected(capsys):
    code, _, err = run(capsys, "span", "Zn:6", "[1,0]")
    assert code == 2
    assert "field" in err


# ---- eval


def test_eval_expression_api():
    x = eval_expression("[3,4]*[4,3]", Mod(12))
    assert x == interval(Mod(12), 0, 0)
    y = eval_expression("([1,2]+[3,4])^2", Q)
    assert y == interval(Q, 16, 36)
    z = eval_expression("recip([2,4])", Q)
    assert str(z) == "[1/2,1/4]"
    w = eval_expression("min(max([1,5],[2,3]),[9,4])", Q)
    assert str(w) == "[2,4]"
    v = eval_expression("(([1,2]+[3,4])*(2))-[1,1]", Z)
    assert str(v) == "[7,11]"


def test_eval_folds_each_level_left_to_right():
    # folded from the right these would read [12,22], 8 and 8
    assert str(eval_expression("[10,20]-[1,2]-[3,4]", Z)) == "[6,14]"
    assert str(eval_expression("8/2/2", Q)) == "2"
    assert str(eval_expression("1+2*3-4-5", Z)) == "-2"


@pytest.mark.parametrize("argv, message", [
    (("eval", "Z", "[1,2"), "unbalanced bracket: at position 0"),
    (("eval", "Z", "2*([1,2]+[3,4]"), "unbalanced bracket: at position 2"),
    (("analyze", "Sub{[0,0],[1,1] of N(Zn:2)"),
     "unterminated Sub{...}: at position 3"),
], ids=["interval", "group", "Sub"])
def test_an_unclosed_bracket_is_a_parse_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_eval_open_literals_and_scalars():
    v = eval_expression("(2,0)*(0,2)", Mod(4))
    assert str(v) == "0"
    v = eval_expression("3*(1,2)", Mod(5), Flavor.OPEN)
    assert str(v) == "(3,1)"


def test_eval_scalar_division_equals_fraction():
    assert str(eval_expression("1/2 + [1,1]", Q)) == "3/2"


def test_eval_neutrosophic():
    d = parse_domain("Q+I")
    v = eval_expression("[5+2I,-7+5I] * [-3+8I,-I]", d)
    assert str(v) == "[-15+50I,2I]"


def test_eval_cli_payload(capsys):
    code, out, _ = run(capsys, "eval", "Zn:12", "[1,11]^2")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"] == "1"
    assert rep["degenerate"] is True
    assert rep["trend"] == "unordered"


def test_eval_parse_error_reports_position(capsys):
    code, _, err = run(capsys, "eval", "Q", "[1,2] + + [3,4]")
    assert code == 2
    assert "position" in err


NINES = "9" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize("argv", [
    ("eval", "Z", f"[{NINES},1]"),
    ("eval", f"Zn:{NINES}", "[2,1]"),
    ("eval", f"ZnI:{NINES}", "[2,1]"),
    ("eval", "Z", f"{NINES}*[1,1]"),
    ("analyze", f"Sub{{[{NINES},1]}} of N(Z)"),
], ids=["Z", "Zn", "ZnI", "bare-scalar", "Sub"])
def test_big_integer_literals_are_too_large(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "an integer of 5000 digits is too large" in err


def test_big_rational_literal_stays_a_parse_error(capsys):
    code, _, err = run(capsys, "eval", "Q", f"[{NINES},1]")
    assert code == 2
    assert "not a rational" in err


def test_eval_rejects_mixed_flavors(capsys):
    code, _, err = run(capsys, "eval", "Q", "[1,2] + (1,2)")
    assert code == 2


def test_eval_flavor_clash_names_both_flavors(capsys):
    code, out, err = run(capsys, "eval", "Zn:6", "[1,0) * (1,5)")
    assert code == 2
    assert out == ""
    assert "flavor co" in err and "flavor o" in err


def test_eval_division_by_non_unit(capsys):
    code, _, err = run(capsys, "eval", "Zn:6", "[1,1]/[2,2]")
    assert code == 2


# ---- verify-book


def test_verify_book_only_filter(capsys):
    code, out, _ = run(capsys, "verify-book", "--only", "ex-3.4,thm-2.7")
    assert code == 0
    rep = json.loads(out)
    assert [c["claim_id"] for c in rep["claims"]] == ["thm-2.7", "ex-3.4"]
    assert rep["ok"]


def test_verify_book_unknown_claim(capsys):
    code, _, err = run(capsys, "verify-book", "--only", "thm-0.0")
    assert code == 2
    assert "unknown claim" in err


def test_verify_book_text_format(capsys):
    code, out, _ = run(capsys, "verify-book", "--only", "ex-3.4",
                       "--format", "text")
    assert code == 0
    assert out.startswith("pass")
    assert "counts:" in out


# ---- plumbing: determinism, config files, --out


def test_json_output_is_byte_identical(capsys):
    _, a, _ = run(capsys, "analyze", "N(Zn:6)", "--seed", "0")
    _, b, _ = run(capsys, "analyze", "N(Zn:6)", "--seed", "0")
    assert a == b


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "N(Zn:2)", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["order"] == 4


def test_config_file_sets_defaults(tmp_path, capsys):
    cfg = tmp_path / "natint.cfg"
    cfg.write_text("output_format = text\nsize_bound = 50  # tight\n")
    code, out, _ = run(capsys, "analyze", "N(Zn:2)", "--config", str(cfg))
    assert code == 0
    assert out.startswith("schema:")  # text, not json
    code, _, err = run(capsys, "analyze", "N(Zn:12)", "--config", str(cfg))
    assert code == 3  # 144 elements > configured bound


# Analyses refused as too large (3), each with its message.  The
# classification runs before any other verdict, and its scans are the
# ones refused, so the refusal comes before any axiom report.
REFUSED_ANALYSES = (
    ("N(Zn:101)", "10201x10201 add table exceeds the build cap (10000)"),
    ("N(Zn:29)\\0", "associativity scan over 784^3 triples refused (cap 700)"),
    ("N(Zn:27)", "associativity scan over 729^3 triples refused (cap 700)"),
    ("Mat(2,2,N(Zn:3))",
     "associativity scan over 6561^3 triples refused (cap 700)"),
)


@pytest.mark.parametrize("spec, message", REFUSED_ANALYSES)
def test_a_refused_analysis_reports_nothing_first(monkeypatch, capsys, spec,
                                                  message):
    def refuse(s, op):
        raise AssertionError("an axiom report came before the refusal")

    monkeypatch.setattr(structures, "axiom_report", refuse)
    assert run(capsys, "analyze", spec) == (3, "", f"error: {message}\n")


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "natint.cfg"
    cfg.write_text("size_bound = 50\n")
    code, _, _ = run(capsys, "analyze", "N(Zn:12)", "--config", str(cfg),
                     "--size-bound", "1000")
    assert code == 0


def test_bad_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "natint.cfg"
    cfg.write_text("colour = green\n")
    code, _, err = run(capsys, "analyze", "N(Zn:2)", "--config", str(cfg))
    assert code == 2
    assert "unknown config key" in err


def test_worker_count_is_checked_and_changes_nothing(tmp_path, capsys):
    cfg = tmp_path / "natint.cfg"
    cfg.write_text("worker_count = abc\n")
    code, out, err = run(capsys, "analyze", "N(Zn:3)", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "bad config value" in err
    cfg.write_text("worker_count = 3\n")
    plain = run(capsys, "analyze", "N(Zn:3)")
    assert plain[0] == 0
    assert run(capsys, "analyze", "N(Zn:3)", "--config", str(cfg)) == plain
    assert run(capsys, "analyze", "N(Zn:3)", "--workers", "3") == plain


def test_config_file_not_utf8_rejected(tmp_path, capsys):
    cfg = tmp_path / "natint.cfg"
    cfg.write_bytes(b"\xff\xfe=1\n")
    code, out, err = run(capsys, "analyze", "N(Zn:4)", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "cannot read config file" in err


def test_spec_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "N(Zn:x)")
    assert code == 2


@pytest.mark.parametrize("body", ["[1,2],[0,0]", "0;0,[1,2]", "0;0;0"])
def test_subset_of_matrices_rejects_other_shapes(capsys, body):
    code, out, err = run(capsys, "analyze",
                         f"Sub{{{body}}} of Mat(2,1,N(Zn:3))")
    assert code == 2
    assert out == ""
    assert "lies outside Mat(2,1,N(Zn:3))" in err
    # ',' parts a Sub{...}'s elements and a row's entries alike, so over
    # two columns no element can be listed, and the error says so
    code, out, err = run(capsys, "analyze",
                         f"Sub{{{body}}} of Mat(1,2,N(Zn:3))")
    assert (code, out) == (2, "")
    assert err == ("error: Sub{...} cannot list an element of "
                   "Mat(1,2,N(Zn:3)): ',' parts both its elements and a "
                   "row's entries\n")


def test_subset_listing_an_element_twice_rejected(capsys):
    code, out, err = run(capsys, "analyze", "Sub{[1,1],[1,1]} of N(Zn:9)")
    assert code == 2
    assert out == ""
    assert "more than once" in err


# One request per row of the exit-code table, in its order: a kind listed
# after its base class would end in the base's code.
EXIT_CODES = (
    (("eval", "Z", "[1,2"), 2),
    (("analyze", "N(Zn:2000)"), 3),
    (("analyze", "N(Z)"), 3),
    (("quotient", "Mat(2,2,N(Zn:2))", "col-zero"), 4),
    (("eval", "Zn:6", "[1,0) * (1,5)"), 2),
    (("eval", "Z", "[1,2]", "--out", "no-such-dir/out.json"), 1),
)


@pytest.mark.parametrize("argv, expected", EXIT_CODES, ids=[
    "parse", "too-large", "infinite", "not-an-ideal", "flavor", "os"])
def test_each_error_ends_in_its_exit_code(tmp_path, monkeypatch, capsys,
                                          argv, expected):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (expected, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "natint", "eval", "Q", "[1,2]*[3,4]"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == "[3,8]"


# ---- huge sizes

# int() converts these, but their squares have too many digits to print
HUGE = "9" * 3000

# Specs whose size is read from a huge shape, modulus or step, each with
# the exit code it must end in: a cyclic modulus below 1 is a parse error
# in a Sub{...} ambient too, a huge carrier is refused before anything is
# counted or listed, and a Sub{...} of a huge cyclic modulus builds only
# its listed elements.
HUGE_SIZES = (
    ("Sub{1} of Poly(N(Z),cyc=0)", 2),
    ("Sub{1} of Poly(N(Zn:2),cyc=-1)", 2),
    ("Mat(99999,99999,N(Zn:2))", 3),
    ("Poly(N(Zn:2),cyc=100000)", 3),
    (f"N(Zn:{HUGE})", 3),
    (f"N(Zn+I:{HUGE})", 3),
    (f"Fuzzy(min,step=1/{HUGE})", 3),
    (f"Sub{{1}} of Poly(N(Zn:2),cyc={HUGE})", 0),
)


@pytest.mark.parametrize("spec, expected", HUGE_SIZES,
                         ids=[spec[:40] for spec, _ in HUGE_SIZES])
def test_a_huge_size_ends_in_its_exit_code(capsys, spec, expected):
    code, out, err = run(capsys, "analyze", spec)
    assert code == expected, err
    assert bool(out) == (expected == 0)


# Requests whose options differ, so that an option or default carried over
# from an earlier request in the same process would show in the output.
REPEATED_REQUESTS = (
    ("eval", "Zn:12", "(1,11)^2", "--flavor", "o"),
    ("table", "N(Zn:2)", "add", "--format", "csv"),
    ("eval", "Zn:12", "[3,4]*[4,3]"),
    ("quotient", "N(Zn:4)", "col-zero", "--kind", "standard",
     "--format", "text"),
    ("quotient", "N(Zn:4)", "col-zero"),
)


def test_main_in_one_process_matches_separate_runs(capsys):
    in_process = [run(capsys, *argv)[:2] for argv in REPEATED_REQUESTS]
    for argv, (code, out) in zip(REPEATED_REQUESTS, in_process):
        proc = subprocess.run([sys.executable, "-m", "natint", *argv],
                              capture_output=True)
        assert (code, out.encode()) == (proc.returncode, proc.stdout), argv
