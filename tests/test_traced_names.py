"""The benchmark's traced runs wrap library functions that perfbench/worker.py
names by (module, name) in its TRACED table. A deletion or rename that
unbinds one of them breaks those runs, and only the benchmark's own slow
suite would notice; this reads the table's keys with ast, without importing
the worker, and checks that each name is bound once the package is imported.
"""

import ast
import os
import sys

import widthbright  # noqa: F401  (imports every module of the package)

WORKER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "worker.py")


def traced_keys():
    with open(WORKER) as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("no TRACED table in %s" % WORKER)


def test_every_traced_name_is_bound():
    keys = traced_keys()
    assert keys
    unbound = [(module, name) for module, name in keys
               if not callable(getattr(sys.modules.get(module), name, None))]
    assert not unbound
