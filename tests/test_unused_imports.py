"""No module of the package imports a name it never uses.

A deletion tends to leave its imports behind, and the suite runs no linter.
This reads each module with ast and checks that every name bound by an
import statement is read somewhere in that module.
"""

import ast
import os

import widthbright

PACKAGE = os.path.dirname(os.path.abspath(widthbright.__file__))

# (module, name) pairs bound on purpose without a use in the module
EXEMPT = {
    # the benchmark's traced runs wrap boundary.inverse_gauss by that name
    # (perfbench/worker.py, TRACED), so it stays bound in boundary
    ("boundary", "inverse_gauss"),
}


def unused_imports(path):
    with open(path) as f:
        tree = ast.parse(f.read())
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
    unused = []
    for filename in sorted(os.listdir(PACKAGE)):
        module, ext = os.path.splitext(filename)
        # __init__ imports to re-export
        if ext != ".py" or module == "__init__":
            continue
        unused += ["%s:%d %s" % (filename, line, name)
                   for line, name in unused_imports(os.path.join(PACKAGE, filename))
                   if (module, name) not in EXEMPT]
    assert not unused
