"""Only body._field calls sphere.synthesize.

synthesize gives a body's whole record (values, support-matrix entries, phi
and pole points), and body._field is the one place a body is evaluated on a
grid. A read that needs the entries alone takes them from
synthesize_entries, with the same bits and no values or phi to throw away.
This reads every module of the package with ast and checks that synthesize
is named nowhere outside body._field, as a call, a reference or a renamed
import.
"""

import ast

from conftest import package_trees

ALLOWED = ("body", "_field")


def synthesize_uses(tree):
    """(enclosing function or None, line) of each use of the name synthesize
    in the tree: a Name or an attribute, or an import that renames it."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Name) and node.id == "synthesize" or \
                isinstance(node, ast.Attribute) and node.attr == "synthesize":
            found.append((function, node.lineno))
        if isinstance(node, ast.ImportFrom):
            found.extend((function, node.lineno) for alias in node.names
                         if alias.name == "synthesize"
                         and alias.asname not in (None, "synthesize"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_field_calls_synthesize():
    found = [(module, function, line)
             for module, tree in package_trees().items()
             for function, line in synthesize_uses(tree)
             if (module, function) != ALLOWED]
    assert not found


def test_each_kind_of_use_is_found():
    tree = ast.parse("from .sphere import synthesize, synthesize_entries\n"
                     "from .sphere import synthesize as s\n"
                     "def _field(tab, c):\n"
                     "    return synthesize(tab, c)\n"
                     "def check(tab, c):\n"
                     "    e = sphere.synthesize(tab, c)[1]\n"
                     "    f = synthesize\n"
                     "    return synthesize_entries(tab, c)\n")
    assert synthesize_uses(tree) == [(None, 2), ("_field", 4), ("check", 6),
                                     ("check", 7)]
