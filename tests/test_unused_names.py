"""No module of the package defines a name that nothing reads.

A deletion tends to leave a helper or a constant behind, and
test_unused_imports sees only the names that imports bind. This reads every
module with ast and checks that each module-level function, class and
assigned name is read: by its own module outside its own definition, by an
import from that module (the __init__ re-exports included; test_unused_imports
checks that every imported name is used), or as an attribute of the module.
"""

import ast
import os

import widthbright

PACKAGE = os.path.dirname(os.path.abspath(widthbright.__file__))


def defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)}
    return set()


def unread_names(trees):
    """(module, name) of each module-level definition that nothing reads."""
    read = set()
    for module, tree in trees.items():
        for stmt in tree.body:
            own = defined_names(stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                        and node.id not in own:
                    read.add((module, node.id))
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    read.update((node.module, alias.name) for alias in node.names)
                elif isinstance(node, ast.Attribute) \
                        and isinstance(node.value, ast.Name) and node.value.id in trees:
                    read.add((node.value.id, node.attr))
    return sorted((module, name) for module, tree in trees.items()
                  for stmt in tree.body for name in defined_names(stmt)
                  if not name.startswith("__") and (module, name) not in read)


def test_every_module_level_name_is_read():
    trees = {}
    for filename in sorted(os.listdir(PACKAGE)):
        module, ext = os.path.splitext(filename)
        if ext == ".py":
            with open(os.path.join(PACKAGE, filename)) as f:
                trees[module] = ast.parse(f.read())
    assert not unread_names(trees)


def test_a_name_read_only_by_its_own_definition_is_unread():
    trees = {"mod": ast.parse("def walk(x):\n    return walk(x)\n\n\nLIMIT = 2\n"),
             "user": ast.parse("from .mod import LIMIT\n")}
    assert unread_names(trees) == [("mod", "walk")]
