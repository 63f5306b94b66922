"""The digest runner (tests/digests.py) and the CI steps that call it."""

import contextlib
import hashlib
import io
import os
import re
from collections import Counter

import pytest

import digests
from natint import cli

WORKFLOW = os.path.join(digests.ROOT, ".github", "workflows", "tests.yml")
EVAL = ("eval", "Z", "[1,2]")


def _called_ids():
    """The ids each `tests/digests.py` call of the workflow names."""
    with open(WORKFLOW, encoding="utf-8") as fh:
        text = fh.read()
    return [line.split() for line in
            re.findall(r"python3? tests/digests\.py(.*)", text)]


def test_every_entry_is_called_by_exactly_one_ci_step():
    calls = _called_ids()
    assert all(len(ids) == 1 for ids in calls), calls
    assert Counter(i for ids in calls for i in ids) == Counter(
        entry.id for entry in digests.DIGESTS)


def test_an_unknown_id_exits_2(capsys):
    assert digests.main(["no-such-entry"]) == 2
    assert "no-such-entry" in capsys.readouterr().out


def _stdout_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("wrong", [None, "code", "sha256"])
def test_the_harness_names_the_entry_of_a_failing_case(wrong, capsys):
    sha256 = _stdout_digest(EVAL)
    case = {None: (EVAL, 0, sha256), "code": (EVAL, 3, sha256),
            "sha256": (EVAL, 0, "0" * 64)}[wrong]
    probe = digests.Entry("probe", 20, (case,))
    assert digests.main(["probe"], (probe,)) == (wrong is not None)
    line = capsys.readouterr().out
    assert line.startswith("probe 1 cases ")
    if wrong is None:
        assert line.endswith(" OK\n")
    else:
        assert (f"FAILED eval Z '[1,2]': expected exit {case[1]} sha256 "
                f"{case[2]}, got exit 0 sha256 {sha256}") in line
