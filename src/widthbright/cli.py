"""Command-line surface: gen, analyze, verify-theorem, export.

Exit codes: 0 success, 2 input error, 3 infeasible or non-convex where
convexity is required, 4 internal numerical failure. argparse checks every
flag value as it parses it, so a value the commands cannot use exits 2
before any file is read, and the parsed namespace is the run's whole
configuration. Reproducibility is part of the contract: identical flags
and seed give byte-identical outputs, so every float is printed with 17
significant digits and all randomness flows through the --seed flag.

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
import sys

import numpy as np

from .body import (
    TOL_PSD, NotConvexError, SupportFunction, body_from_spec, body_to_spec,
    certify_convex, inverse_gauss, volume, width,
)
from .boundary import export_mesh, export_obj
from .brightness import brightness_profile, profile_to_csv
from .generators import constant_width_body, random_odd, resolve_recipe
from .lab import minimize_brightness_variance, parity_decomposition_check, \
    trace_to_csv
from .sphere import make_grid

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


class InputError(ValueError):
    """Bad file, malformed JSON, or inconsistent flags (exit 2)."""


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
_DEGREES = _flag(_ints, "comma-separated integers")
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
    command("export", cmd_export, "write the boundary mesh as OBJ",
            "body spec JSON file")
    return ap


def _require_lmax(args, lmax):
    """Refuse a body of degree lmax that the grid cannot resolve."""
    if args.grid[0] < lmax + 1:
        raise InputError("grid too coarse for lmax %d: need n_theta >= %d"
                         % (lmax, lmax + 1))


def _load_json(path):
    if not os.path.exists(path):
        raise InputError("no such file: %s" % path)
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise InputError("%s: not valid JSON (%s)" % (path, exc)) from None


def _out_path(args, suffix):
    if args.out:
        return args.out
    stem, _ = os.path.splitext(args.body)
    return stem + suffix


def _write_json(obj, path):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_gen(args):
    grid = make_grid(*args.grid)
    recipe = _load_json(args.body)
    _require_declared_lmax(args, recipe)
    try:
        resolved = resolve_recipe(recipe, grid)
        h = resolved.resolved
        _require_lmax(args, h.lmax)
        cert = certify_convex(h, grid, args.tol_psd)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    spec = body_to_spec(h)
    spec["normalization"] = ("orthonormal real spherical harmonics, "
                             "Y_00 = 1/(2 sqrt(pi)); a ball of radius r has "
                             "single l=0 coefficient 2 sqrt(pi) r")
    spec["recipe_kind"] = resolved.kind
    spec["recipe_params"] = _jsonable(resolved.params)
    spec["certificate"] = dataclasses.asdict(cert)
    out = _out_path(args, ".body.json")
    _write_json(spec, out)
    print("wrote %s (min eigenvalue %.6g)" % (out, cert.min_eigenvalue))
    return EXIT_OK


def _jsonable(params):
    out = {}
    for k, v in params.items():
        out[k] = float(v) if hasattr(v, "__float__") and not isinstance(v, bool) else v
    return out


def _declared_degree(value):
    """value as the resolvers read a degree, int(value), or None where that
    raises (an infinite degree too) and resolving reports it."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        return None


def _require_declared_lmax(args, obj):
    """Guard every lmax that a spec or recipe declares, also in a
    constant-width recipe's parts and as the largest l of a part's harmonics
    terms, before anything builds tables at it. Each value is read as the
    resolvers read it, so 40, 40.0 and "40" are all degree 40; the guard on
    the loaded body covers an lmax left to a recipe's default, and resolving
    reports values that are not degrees and malformed terms."""
    if not isinstance(obj, dict):
        return
    lmax = _declared_degree(obj.get("lmax"))
    if lmax is not None:
        _require_lmax(args, lmax)
    terms = obj.get("harmonics")
    if isinstance(terms, list):
        degrees = [_declared_degree(t[0]) for t in terms
                   if isinstance(t, list) and t]
        degrees = [l for l in degrees if l is not None]
        if degrees:
            _require_lmax(args, max(degrees))
    for part in ("gauge", "odd"):
        _require_declared_lmax(args, obj.get(part))


def _load_body(args):
    spec = _load_json(args.body)
    # body_from_spec's closed-form check evaluates the basis at the spec's lmax
    _require_declared_lmax(args, spec)
    try:
        h = body_from_spec(spec)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    _require_lmax(args, h.lmax)
    return h


def cmd_analyze(args):
    grid = make_grid(*args.grid)
    h = _load_body(args)
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
        profile_to_csv(profile, csv_path)
        report["brightness_csv"] = os.path.basename(csv_path)
    else:
        report["note"] = "body is not certified convex; brightness/volume skipped"
    if not np.all(np.isfinite(w)):
        raise ArithmeticError("non-finite width values")
    out = _out_path(args, ".report.json")
    _write_json(report, out)
    print("wrote %s" % out)
    return EXIT_OK


def cmd_verify_theorem(args):
    grid = make_grid(*args.grid)
    gauge = _load_body(args)
    # seeded start, scaled into the convexity region like the generators do
    try:
        start = random_odd(args.seed, degrees=args.degrees, scale=1.0)
        if min(args.degrees) < 3:
            raise ValueError("probe degrees must be >= 3; degree 1 is a translation")
    except ValueError as exc:
        raise InputError("--degrees: %s" % exc) from None
    _require_lmax(args, start.lmax)
    try:
        recipe = constant_width_body(gauge, start, float("inf"), grid)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    eps = recipe.params["eps"] * args.start_scale
    init = SupportFunction(start.coeffs * eps, start.lmax, label=start.label)
    trace = minimize_brightness_variance(gauge, init, grid,
                                         degrees=args.degrees,
                                         max_iter=args.max_iter)
    out = _out_path(args, ".trace.csv")
    trace_to_csv(trace, out)
    if trace.terminal_status == "infeasible":
        print("infeasible start (gauge margin too small)")
        return EXIT_INFEASIBLE
    if trace.terminal_status == "converged_to_gauge":
        print("RIGIDITY-CONSISTENT")
    else:
        print("RIGIDITY-UNRESOLVED (%s)" % trace.terminal_status)
    print("wrote %s (%d accepted states)" % (out, len(trace.iterations)))
    return EXIT_OK


def cmd_export(args):
    grid = make_grid(*args.grid)
    h = _load_body(args)
    field = inverse_gauss(h, grid)
    mesh = export_mesh(field, grid, args.tol_psd)
    out = _out_path(args, ".obj")
    export_obj(mesh, out)
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
        _require_lmax(args, args.lmax)
        # a body or recipe whose numbers overflow is an input error, not a
        # run that warns its way to a failure or writes NaNs: numpy raises
        # where it would have warned, before any output is written
        with np.errstate(all="raise", under="ignore"):
            return args.run(args)
    except FloatingPointError as exc:
        print("input error: numbers out of range: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except NotConvexError as exc:
        print("infeasible: %s" % exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ArithmeticError, ValueError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
