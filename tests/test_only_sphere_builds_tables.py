"""Only sphere builds basis tables.

node_tables is the one builder of per-node basis tables, the pole rows
included, and basis_values the values-only path beside it; both run the
_solid_jets recurrence inside sphere. This reads every module of the package
with ast and checks that no module but sphere names _solid_jets: not as a
name, an attribute or an import.
"""

import ast
import os

import widthbright

PACKAGE = os.path.dirname(os.path.abspath(widthbright.__file__))


def jet_names(tree):
    """Line numbers of the places that name _solid_jets in the tree."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "_solid_jets"
            or isinstance(node, ast.Attribute) and node.attr == "_solid_jets"
            or isinstance(node, ast.ImportFrom)
            and any(alias.name == "_solid_jets" for alias in node.names)]


def test_no_module_but_sphere_names_the_recurrence():
    found = []
    for filename in sorted(os.listdir(PACKAGE)):
        module, ext = os.path.splitext(filename)
        if ext == ".py" and module != "sphere":
            with open(os.path.join(PACKAGE, filename)) as f:
                found += [(module, line) for line in jet_names(ast.parse(f.read()))]
    assert not found


def test_a_name_of_the_recurrence_is_found_in_each_form():
    tree = ast.parse("from .sphere import (\n"
                     "    _solid_jets,\n"
                     ")\n"
                     "from . import sphere\n"
                     "jets = _solid_jets(pts, 3)\n"
                     "more = sphere._solid_jets(pts, 3)\n")
    assert jet_names(tree) == [1, 5, 6]
