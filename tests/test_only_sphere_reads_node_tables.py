"""Only sphere reads the meridian record.

node_tables builds a NodeTables record and synthesize, synthesize_entries and
node_columns read it, all inside sphere; every other module passes the record
to them and takes fields, pole points included, from what they return. This
reads every module of the package with ast and checks that no module but
sphere reads a NodeTables field as an attribute.
"""

import ast
import dataclasses
import os

import widthbright
from widthbright.sphere import NodeTables

PACKAGE = os.path.dirname(os.path.abspath(widthbright.__file__))
FIELDS = frozenset(f.name for f in dataclasses.fields(NodeTables))


def field_reads(tree):
    """Line numbers of the attribute reads of a NodeTables field in the tree."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in FIELDS]


def test_no_module_but_sphere_reads_a_node_tables_field():
    found = []
    for filename in sorted(os.listdir(PACKAGE)):
        module, ext = os.path.splitext(filename)
        if ext == ".py" and module != "sphere":
            with open(os.path.join(PACKAGE, filename)) as f:
                found += [(module, line) for line in field_reads(ast.parse(f.read()))]
    assert not found


def test_a_read_of_each_field_is_found():
    tree = ast.parse("tab = node_tables(grid, basis)\n"
                     "poles = tab.POLES @ c\n"
                     "n = tab.ODD.shape[0] // 2\n"
                     "a, b = tab.A[idx], tab.B[idx]\n"
                     "rows = node_tables(grid, basis).EVEN\n"
                     "cp, sp = tab.AZIMUTH\n"
                     "values = synthesize(tab, c)[0]\n")
    assert sorted(field_reads(tree)) == [2, 3, 4, 4, 5, 6]
    assert FIELDS == {"EVEN", "ODD", "A", "B", "AZIMUTH", "POLES"}
