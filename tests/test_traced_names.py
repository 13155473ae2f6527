"""The benchmark's traced runs wrap library functions that perfbench/worker.py
names by (module, name) in its TRACED table. A deletion or rename that
unbinds one of them breaks those runs, and only the benchmark's own slow
suite would notice; this reads the table's keys with ast, without importing
the worker, and checks that each name is bound once the package is imported.

A span name may also be a function of the call: the wrapper calls it with
the traced call's own arguments. So it has to accept every parameter of the
function it names, at the same position and under the same name, with a
default wherever that function has one; a parameter of its own needs a
default.
"""

import ast
import inspect
import os
import sys

import widthbright  # noqa: F401  (imports every module of the package)

WORKER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "worker.py")


def worker_tree():
    with open(WORKER) as f:
        return ast.parse(f.read())


def traced_table(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return node.value
    raise AssertionError("no TRACED table in %s" % WORKER)


def traced_keys():
    return [ast.literal_eval(key) for key in traced_table(worker_tree()).keys]


def span_name_functions():
    """{(module, name): ast.arguments} of each span name that is a function
    defined in the worker."""
    tree = worker_tree()
    defs = {node.name: node.args for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    table = traced_table(tree)
    return {ast.literal_eval(key): defs[value.id]
            for key, value in zip(table.keys, table.values)
            if isinstance(value, ast.Name)}


def unaccepted_parameters(args, fn):
    """Names of fn's parameters that a function with ast arguments args does
    not accept by name and position, or accepts without fn's default, and
    of args' own parameters that have no default."""
    positional = [a.arg for a in args.posonlyargs + args.args]
    keyword = [a.arg for a in args.kwonlyargs]
    defaulted = set(positional[len(positional) - len(args.defaults):])
    defaulted.update(a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                     if d is not None)
    params = inspect.signature(fn).parameters.values()
    bad = []
    for i, p in enumerate(params):
        if p.kind is p.VAR_POSITIONAL:
            ok = args.vararg is not None
        elif p.kind is p.VAR_KEYWORD:
            ok = args.kwarg is not None
        elif p.kind is p.KEYWORD_ONLY:
            ok = p.name in positional + keyword
        else:
            ok = positional[i:i + 1] == [p.name]
        if not ok or (p.default is not p.empty and p.name not in defaulted):
            bad.append(p.name)
    own = set(positional + keyword) - {p.name for p in params}
    return bad + sorted(own - defaulted)


def test_every_traced_name_is_bound():
    keys = traced_keys()
    assert keys
    unbound = [(module, name) for module, name in keys
               if not callable(getattr(sys.modules.get(module), name, None))]
    assert not unbound


def test_every_span_name_function_accepts_the_traced_call():
    functions = span_name_functions()
    assert functions
    bad = {key: unaccepted_parameters(args, getattr(sys.modules[key[0]], key[1]))
           for key, args in functions.items()}
    assert not {key: names for key, names in bad.items() if names}


def test_a_moved_renamed_or_undefaulted_parameter_is_not_accepted():
    def wrapped(f, grid, directions=None, *, tol=1.0):
        pass

    def args(source):
        return ast.parse(source).body[0].args

    assert unaccepted_parameters(
        args("def n(f, grid, directions=None, lmax=None, *, tol=2.0): pass"),
        wrapped) == []
    assert unaccepted_parameters(
        args("def n(f, directions=None, grid=None, tol=1.0): pass"),
        wrapped) == ["grid", "directions"]
    assert unaccepted_parameters(
        args("def n(f, grid, dirs, *, tol): pass"),
        wrapped) == ["directions", "tol", "dirs"]
