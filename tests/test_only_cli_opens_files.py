"""Only the command line writes files.

The library modules compute and return records; cli formats them and
writes every output file through one writer, which keeps the 17-digit,
byte-identical output contract in one place. This reads every module of the
package with ast and checks that no module but cli calls open, by name
(open(...)) or as an attribute (io.open, os.open, path.open).
"""

import ast

from conftest import package_trees


def open_calls(tree):
    """Line numbers of the calls to open in the tree."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "open"
                or isinstance(node.func, ast.Attribute) and node.func.attr == "open")]


def test_no_module_but_cli_opens_a_file():
    found = [(module, line) for module, tree in package_trees().items()
             if module != "cli" for line in open_calls(tree)]
    assert not found


def test_an_open_call_is_found_by_name_or_attribute():
    tree = ast.parse("import io\n"
                     "def save(path, text):\n"
                     "    with open(path, 'w') as f:\n"
                     "        f.write(text)\n"
                     "    io.open(path).close()\n"
                     "opener = open\n")
    assert open_calls(tree) == [3, 5]
