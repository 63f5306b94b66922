"""Helpers shared by the test modules, which import them from here."""

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
