"""Command-line surface: gen, analyze, verify-theorem, export.

Exit codes: 0 success, 2 input error, 3 infeasible or non-convex where
convexity is required, 4 internal numerical failure. main alone maps the
type of the exception that ends a run to its code, and the library raises
the type that matches its failure: FloatingPointError (numbers out of
range), ValueError, OSError and RecursionError exit 2, NotConvexError 3,
any other ArithmeticError, numpy's LinAlgError and MemoryError 4. argparse
checks every flag value as it parses it, so a value the commands cannot use
exits 2 before any file is read, and the parsed namespace is the run's whole
configuration. Reproducibility is part of the contract: identical flags
and seed give byte-identical outputs, so every float is printed with 17
significant digits and all randomness flows through the --seed flag. The
library only computes: every output file is written here, by _write_lines.

WIDTHBRIGHT_THREADS caps BLAS parallelism; the package's __init__ applies
it before numpy loads, since every way into this module imports the
package first. That __init__ imports every module of the package, so the
commands' imports below are all made once, at module level.
"""

import argparse
import dataclasses
import json
import math
import os
import re
import sys

import numpy as np

from .body import (
    TOL_PSD, NotConvexError, SupportFunction, body_from_spec, body_to_spec,
    certify_convex, inverse_gauss, volume, width,
)
from .boundary import export_mesh
from .brightness import brightness_profile
from .generators import constant_width_body, resolve_recipe
from .lab import minimize_brightness_variance, parity_decomposition_check, \
    random_odd, require_variable_degrees
from .sphere import make_grid, require_resolvable

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


# ---------------------------------------------------------------------------
# flag values: argparse type= converters, so a bad value exits 2 at parse time

def _flag(convert, expected, ok=lambda value: True):
    """A type= converter: convert(text) if ok accepts it, else an argparse
    error naming what was expected."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError("expected %s, got %r" % (expected, text))
        return value
    return parse


def _ints(text):
    return tuple(int(s) for s in text.split(","))


def _psd(text):
    key, _, val = text.partition("=")
    return float(val) if key == "psd" else None


_COUNT = _flag(int, "a non-negative integer", lambda n: n >= 0)
_FINITE = _flag(float, "a finite number", math.isfinite)
# every node's antipode is a node only for an even n_phi
_GRID = _flag(_ints, "T,P: T >= 2 rings and an even P >= 2 azimuths",
              lambda g: len(g) == 2 and g[0] >= 2 and g[1] >= 2 and g[1] % 2 == 0)
_DEGREES = _flag(lambda text: require_variable_degrees(_ints(text)),
                 "distinct odd degrees >= 3, comma separated")
_PSD_TOL = _flag(_psd, "psd=VAL with a finite VAL >= 0", lambda t: 0.0 <= t < math.inf)


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="widthbright",
        description="Support-function toolkit: width, brightness, and "
                    "constant-width rigidity checks for convex bodies.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, run, help, body_help, tol=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("body", help=body_help)
        p.add_argument("--grid", type=_GRID, default="32,64", metavar="T,P",
                       help="n_theta,n_phi quadrature grid (default %(default)s)")
        p.add_argument("--lmax", type=_COUNT, default=12)
        p.add_argument("--out", default=None, help="output path")
        if tol:
            p.add_argument("--tol", type=_PSD_TOL, default=TOL_PSD, dest="tol_psd",
                           metavar="psd=VAL",
                           help="convexity certificate eigenvalue tolerance "
                                "(default %(default)g)")
        return p

    command("gen", cmd_gen, "resolve a recipe JSON into a body spec",
            "recipe JSON file")
    command("analyze", cmd_analyze, "width/convexity/brightness report",
            "body spec JSON file")
    pv = command("verify-theorem", cmd_verify_theorem,
                 "run the rigidity probe against a gauge body",
                 "gauge body spec JSON file (even, certified convex)", tol=False)
    pv.add_argument("--seed", type=_COUNT, default=0)
    pv.add_argument("--max-iter", type=_COUNT, default=500)
    pv.add_argument("--degrees", type=_DEGREES, default="3,5",
                    help="odd variable degrees, comma separated "
                         "(default %(default)s)")
    pv.add_argument("--start-scale", type=_FINITE, default=0.5,
                    help="seeded start size as a fraction of the convexity bound")
    # take -5e-1 as a value: argparse's negative-number pattern has no exponents
    pv._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    command("export", cmd_export, "write the boundary mesh as OBJ",
            "body spec JSON file")
    return ap


def _load_json(path):
    with open(path) as f:
        return json.load(f)


def _out_path(args, suffix):
    if args.out:
        return args.out
    stem, _ = os.path.splitext(args.body)
    return stem + suffix


def _write_lines(path, lines):
    """Write the lines to path, each ending in a newline."""
    with open(path, "w") as f:
        f.write("\n".join(lines))
        f.write("\n")


def _write_json(obj, path):
    _write_lines(path, [json.dumps(obj, indent=2, sort_keys=True)])


def cmd_gen(args):
    grid = make_grid(*args.grid)
    # the resolver refuses each degree the grid cannot resolve as it reads it
    resolved = resolve_recipe(_load_json(args.body), grid)
    h = resolved.resolved
    cert = certify_convex(h, grid, args.tol_psd)
    spec = body_to_spec(h)
    spec["normalization"] = ("orthonormal real spherical harmonics, "
                             "Y_00 = 1/(2 sqrt(pi)); a ball of radius r has "
                             "single l=0 coefficient 2 sqrt(pi) r")
    spec["recipe_kind"] = resolved.kind
    spec["recipe_params"] = resolved.params
    spec["certificate"] = dataclasses.asdict(cert)
    out = _out_path(args, ".body.json")
    _write_json(spec, out)
    print("wrote %s (min eigenvalue %.6g)" % (out, cert.min_eigenvalue))
    return EXIT_OK


def _load_body(args):
    """The body spec read for the --grid grid, and that grid, built only
    once the spec's degree has passed the grid guard."""
    h = body_from_spec(_load_json(args.body), args.grid[0])
    # c_00 is sqrt(pi) times the mean width; at or below zero the body is a
    # point or empty and has no interior to measure
    if not h.coeffs[0] > 0.0:
        raise ValueError("c_00 = %r: the body's mean width must be positive"
                         % float(h.coeffs[0]))
    return h, make_grid(*args.grid)


def cmd_analyze(args):
    h, grid = _load_body(args)
    cert = certify_convex(h, grid, args.tol_psd)
    w = width(h, grid)
    wn = grid.weights
    report = {
        "label": h.label,
        "grid": list(args.grid),
        "lmax": int(h.lmax),
        "certificate": dataclasses.asdict(cert),
        "width": {
            "min": float(w.min()),
            "max": float(w.max()),
            "variation": float(w.max() - w.min()),
        },
    }
    if cert.convex:
        profile = brightness_profile(h, grid, tol_psd=args.tol_psd)
        mean = float((wn @ profile.areas) / wn.sum())
        var = float((wn @ (profile.areas - mean) ** 2) / wn.sum())
        report["volume"] = volume(h, grid, args.tol_psd)
        report["brightness"] = {
            "min": float(profile.areas.min()),
            "max": float(profile.areas.max()),
            "mean": mean,
            "variance": var,
            "variation": float(profile.areas.max() - profile.areas.min()),
        }
        parity = parity_decomposition_check(h, grid, args.tol_psd)
        report["parity"] = {
            "max_odd_violation_sigma": parity.max_odd_violation_sigma,
            "max_even_violation_det_p": parity.max_even_violation_det_p,
            "identity_residual_max": float(np.abs(parity.identity_residual).max()),
        }
        csv_path = os.path.splitext(args.out or args.body)[0] + "_brightness.csv"
        _write_lines(csv_path, ["ax,ay,az,area,method"] + [
            "%.17g,%.17g,%.17g,%.17g,%s" % (d[0], d[1], d[2], area, "support_formula")
            for d, area in zip(grid.nodes, profile.areas)])
        report["brightness_csv"] = os.path.basename(csv_path)
        _warn_unresolved(h.lmax, grid)
    else:
        report["note"] = "body is not certified convex; brightness/volume skipped"
    if not np.all(np.isfinite(w)):
        raise ArithmeticError("non-finite width values")
    out = _out_path(args, ".report.json")
    _write_json(report, out)
    print("wrote %s" % out)
    return EXIT_OK


def _warn_unresolved(lmax, grid):
    """Warn when the grid cannot integrate det M_h, of degree 2 lmax, exactly."""
    if grid.n_theta < 2 * lmax + 1:
        print("warning: brightness is not exact: lmax %d needs %d rings, the grid "
              "has %d" % (lmax, 2 * lmax + 1, grid.n_theta), file=sys.stderr)


def cmd_verify_theorem(args):
    # before the start's tables are built at the largest degree
    require_resolvable(args.grid[0], max(args.degrees))
    gauge, grid = _load_body(args)
    # seeded start, scaled into the convexity region like the generators do;
    # the gauge's margin sizes it, so a gauge without one is infeasible
    start = random_odd(args.seed, degrees=args.degrees, scale=1.0)
    recipe = constant_width_body(gauge, start, float("inf"), grid)
    eps = recipe.params["eps"] * args.start_scale
    init = SupportFunction(start.coeffs * eps, start.lmax, label=start.label)
    trace = minimize_brightness_variance(gauge, init, grid,
                                         degrees=args.degrees,
                                         max_iter=args.max_iter)
    out = _out_path(args, ".trace.csv")
    _write_lines(out, ["iter,coeff_norm,variance,min_eig,step"] + [
        "%d,%.17g,%.17g,%.17g,%.17g" % (k, cn, var, eig, step)
        for k, (cn, var, eig, step) in enumerate(trace.iterations)])
    if trace.terminal_status == "infeasible":
        print("infeasible start (gauge margin too small)")
        return EXIT_INFEASIBLE
    if trace.terminal_status == "converged_to_gauge":
        print("RIGIDITY-CONSISTENT")
    else:
        print("RIGIDITY-UNRESOLVED (%s)" % trace.terminal_status)
    _warn_unresolved(max(gauge.lmax, *args.degrees), grid)
    print("wrote %s (%d accepted states)" % (out, len(trace.iterations)))
    return EXIT_OK


def cmd_export(args):
    h, grid = _load_body(args)
    mesh = export_mesh(inverse_gauss(h, grid), tol_psd=args.tol_psd)
    out = _out_path(args, ".obj")
    _write_lines(out, ["v %.17g %.17g %.17g" % (v[0], v[1], v[2])
                       for v in mesh.vertices]
                 + ["f %d %d %d" % (t[0] + 1, t[1] + 1, t[2] + 1)
                    for t in mesh.triangles])
    print("wrote %s (%d vertices, %d triangles)"
          % (out, len(mesh.vertices), len(mesh.triangles)))
    return EXIT_OK


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the message; normalize the code
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        require_resolvable(args.grid[0], args.lmax)
        # a body or recipe whose numbers overflow is an input error, not a
        # run that warns its way to a failure or writes NaNs: numpy raises
        # where it would have warned, before any output is written
        with np.errstate(all="raise", under="ignore"):
            return args.run(args)
    # FloatingPointError is an ArithmeticError and LinAlgError a ValueError,
    # so each comes before its base
    except FloatingPointError as exc:
        print("input error: numbers out of range: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print("numerical failure: out of memory: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except NotConvexError as exc:
        print("infeasible: %s" % exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError, RecursionError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
