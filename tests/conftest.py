import ast
import os
import re

# widthbright first: importing it applies WIDTHBRIGHT_THREADS, which has to
# reach the environment before numpy loads BLAS.
import widthbright
from widthbright import SupportFunction, basis_index, make_grid

import numpy as np
import pytest


@pytest.fixture(scope="session")
def grid32():
    return make_grid(32, 64)


@pytest.fixture(scope="session")
def grid16():
    return make_grid(16, 32)


def pure_harmonic(l, m, coeff=1.0):
    coeffs = np.zeros((l + 1) ** 2)
    coeffs[basis_index(l, m)] = coeff
    return SupportFunction(coeffs, l)


def package_trees():
    """{module name: ast tree} of every module of the package, in file order,
    for the tests that read the source instead of running it."""
    package = os.path.dirname(os.path.abspath(widthbright.__file__))
    trees = {}
    for filename in sorted(os.listdir(package)):
        module, ext = os.path.splitext(filename)
        if ext == ".py":
            with open(os.path.join(package, filename)) as f:
                trees[module] = ast.parse(f.read())
    return trees


def unit_vectors(seed, n):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    rows = {}
    for status, verdict in (("passed", "PASS"), ("failed", "FAIL"),
                            ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            match = _CRITERION.search(getattr(rep, "nodeid", ""))
            if match is None:
                continue
            if status == "passed" and rep.when != "call":
                continue
            num = int(match.group(1))
            if rows.get(num, (None, "PASS"))[1] != "FAIL":
                rows[num] = (match.group(2).replace("_", " "), verdict)
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(rows):
        name, verdict = rows[num]
        terminalreporter.write_line("criterion %2d  %-36s %s" % (num, name, verdict))
