"""Helpers shared by the test modules, which import them from here."""

import contextlib
from unittest import mock

from natint import cli
from natint.carriers import build_carrier
from natint.structures import FiniteStructure


def built_twin(s):
    """s as a structure of its own: the same elements, ops, name, kind,
    domain, flavor, element syntax and the tables s has built, but no
    product form (diag) and no ambient (view).  So every fact of the twin
    is scanned off its own tables, and a table s has not built is built
    one element pair at a time from the ops."""
    return FiniteStructure(
        s.elements, mul=s.mul_fn, add=s.add_fn, name=s.name, kind=s.kind,
        domain=s.domain, flavor=s.flavor, parse_element=s.parse_element,
        tables=s._tables)


def twin_carrier(spec, **kwargs):
    return built_twin(build_carrier(spec, **kwargs))


_restrict = FiniteStructure.restrict


def twin_restrict(self, indices):
    return built_twin(_restrict(self, indices))


@contextlib.contextmanager
def on_twins():
    """Run the CLI on built twins: its carriers (cli.build_carrier) and
    their subsets (FiniteStructure.restrict) are built_twin's."""
    with mock.patch.object(cli, "build_carrier", twin_carrier), \
            mock.patch.object(FiniteStructure, "restrict", twin_restrict):
        yield
