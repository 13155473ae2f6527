"""No module of the package imports a name it never uses.

A deletion tends to leave its imports behind, and the suite runs no linter.
This reads each module with ast and checks that every name bound by an
import statement is read somewhere in that module.
"""

import ast

from conftest import package_trees

# (module, name) pairs bound on purpose without a use in the module
EXEMPT = {
    # the benchmark's traced runs wrap boundary.inverse_gauss by that name
    # (perfbench/worker.py, TRACED), so it stays bound in boundary
    ("boundary", "inverse_gauss"),
}


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export
    unused = ["%s.py:%d %s" % (module, line, name)
              for module, tree in package_trees().items() if module != "__init__"
              for line, name in unused_imports(tree) if (module, name) not in EXEMPT]
    assert not unused
