"""Command-line surface: gen, analyze, verify-theorem, export.

Exit codes: 0 success, 2 input error, 3 infeasible or non-convex where
convexity is required, 4 internal numerical failure. Reproducibility is
part of the contract: identical config and seed give byte-identical
outputs, so every float is printed with 17 significant digits and all
randomness flows through the --seed flag.

WIDTHBRIGHT_THREADS caps BLAS parallelism; the package's __init__ applies
it before numpy loads, since every way into this module imports the
package first. That __init__ imports every module of the package, so the
commands' imports below are all made once, at module level.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .body import (
    TOL_PSD, NotConvexError, SupportFunction, body_from_spec, body_to_spec,
    certify_convex, inverse_gauss, volume, width,
)
from .boundary import export_mesh, export_obj
from .brightness import brightness_profile, profile_to_csv
from .generators import constant_width_body, random_odd, resolve_recipe
from .lab import (
    minimize_brightness_variance, parity_decomposition_check,
    parity_report_to_json, trace_to_csv,
)
from .sphere import make_grid

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

_DEFAULT_TOLS = {
    "psd": TOL_PSD,       # convexity certificate eigenvalue tolerance
}


class InputError(ValueError):
    """Bad file, malformed JSON, or inconsistent flags (exit 2)."""


@dataclass
class RunConfig:
    command: str
    body_path: str
    n_theta: int = 32
    n_phi: int = 64
    lmax: int = 12
    seed: int = 0
    out: str = None
    tolerances: dict = field(default_factory=lambda: dict(_DEFAULT_TOLS))
    max_iter: int = 500
    degrees: tuple = (3, 5)
    start_scale: float = 0.5

    def __post_init__(self):
        if self.n_phi % 2 != 0:
            raise InputError("grid n_phi must be even")
        self.require_lmax(self.lmax)

    def require_lmax(self, lmax):
        """Refuse a body of degree lmax that the grid cannot resolve."""
        if self.n_theta < lmax + 1:
            raise InputError("grid too coarse for lmax %d: need n_theta >= %d"
                             % (lmax, lmax + 1))


def _parse_grid(text):
    try:
        t, p = text.split(",")
        return int(t), int(p)
    except ValueError:
        raise InputError("expected --grid T,P with integers") from None


def _parse_tols(pairs):
    tols = dict(_DEFAULT_TOLS)
    for pair in pairs or ():
        key, _, val = pair.partition("=")
        if key not in tols or not val:
            raise InputError("unknown tolerance %r (known: %s)"
                             % (key, ", ".join(sorted(tols))))
        try:
            tols[key] = float(val)
        except ValueError:
            raise InputError("tolerance %r is not a number" % pair) from None
    return tols


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="widthbright",
        description="Support-function toolkit: width, brightness, and "
                    "constant-width rigidity checks for convex bodies.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help, body_help, tol=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("body", help=body_help)
        p.add_argument("--grid", default="32,64", metavar="T,P",
                       help="n_theta,n_phi quadrature grid (default 32,64)")
        p.add_argument("--lmax", type=int, default=12)
        p.add_argument("--out", default=None, help="output path")
        if tol:
            p.add_argument("--tol", action="append", metavar="KEY=VAL",
                           help="override a tolerance (%s)"
                                % ", ".join(sorted(_DEFAULT_TOLS)))
        return p

    command("gen", "resolve a recipe JSON into a body spec", "recipe JSON file")
    command("analyze", "width/convexity/brightness report", "body spec JSON file")
    pv = command("verify-theorem", "run the rigidity probe against a gauge body",
                 "gauge body spec JSON file (even, certified convex)", tol=False)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--max-iter", type=int, default=500)
    pv.add_argument("--degrees", default="3,5",
                    help="odd variable degrees, comma separated (default 3,5)")
    pv.add_argument("--start-scale", type=float, default=0.5,
                    help="seeded start size as a fraction of the convexity bound")
    command("export", "write the boundary mesh as OBJ", "body spec JSON file")
    return ap


def _config(args):
    n_theta, n_phi = _parse_grid(args.grid)
    cfg = RunConfig(
        command=args.command,
        body_path=args.body,
        n_theta=n_theta,
        n_phi=n_phi,
        lmax=args.lmax,
        out=args.out,
        tolerances=_parse_tols(getattr(args, "tol", None)),
    )
    if args.command == "verify-theorem":
        cfg.seed = args.seed
        cfg.max_iter = args.max_iter
        try:
            cfg.degrees = tuple(int(d) for d in args.degrees.split(","))
        except ValueError:
            raise InputError("--degrees must be comma-separated integers") from None
        cfg.start_scale = args.start_scale
    return cfg


def _load_json(path):
    if not os.path.exists(path):
        raise InputError("no such file: %s" % path)
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise InputError("%s: not valid JSON (%s)" % (path, exc)) from None


def _out_path(cfg, suffix):
    if cfg.out:
        return cfg.out
    stem, _ = os.path.splitext(cfg.body_path)
    return stem + suffix


def _write_json(obj, path):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_gen(cfg):
    grid = _grid(cfg)
    recipe = _load_json(cfg.body_path)
    _require_declared_lmax(cfg, recipe)
    try:
        resolved = resolve_recipe(recipe, grid)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    h = resolved.resolved
    cfg.require_lmax(h.lmax)
    cert = certify_convex(h, grid, cfg.tolerances["psd"])
    spec = body_to_spec(h)
    spec["normalization"] = ("orthonormal real spherical harmonics, "
                             "Y_00 = 1/(2 sqrt(pi)); a ball of radius r has "
                             "single l=0 coefficient 2 sqrt(pi) r")
    spec["recipe_kind"] = resolved.kind
    spec["recipe_params"] = _jsonable(resolved.params)
    spec["certificate"] = _cert_dict(cert)
    out = _out_path(cfg, ".body.json")
    _write_json(spec, out)
    print("wrote %s (min eigenvalue %.6g)" % (out, cert.min_eigenvalue))
    return EXIT_OK


def _jsonable(params):
    out = {}
    for k, v in params.items():
        out[k] = float(v) if hasattr(v, "__float__") and not isinstance(v, bool) else v
    return out


def _cert_dict(cert):
    return {
        "min_eigenvalue": float(cert.min_eigenvalue),
        "det_min": float(cert.det_min),
        "node_of_min": int(cert.node_of_min),
        "convex": bool(cert.convex),
        "tol_psd": float(cert.tol_psd),
    }


def _grid(cfg):
    return make_grid(cfg.n_theta, cfg.n_phi)


def _require_declared_lmax(cfg, obj):
    """Guard every integer lmax that a spec or recipe declares, also in a
    constant-width recipe's parts and as the largest integer l of a part's
    harmonics terms, before anything builds tables at it; the guard on the
    loaded body covers lmax written as a float or a string, or left to a
    recipe's default, and resolving reports malformed terms."""
    if not isinstance(obj, dict):
        return
    if isinstance(obj.get("lmax"), int):
        cfg.require_lmax(obj["lmax"])
    terms = obj.get("harmonics")
    if isinstance(terms, list):
        degrees = [t[0] for t in terms
                   if isinstance(t, list) and t and isinstance(t[0], int)]
        if degrees:
            cfg.require_lmax(max(degrees))
    for part in ("gauge", "odd"):
        _require_declared_lmax(cfg, obj.get(part))


def _load_body(cfg):
    spec = _load_json(cfg.body_path)
    # body_from_spec's closed-form check builds node tables at the spec's lmax
    _require_declared_lmax(cfg, spec)
    try:
        h = body_from_spec(spec)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    cfg.require_lmax(h.lmax)
    return h


def cmd_analyze(cfg):
    grid = _grid(cfg)
    h = _load_body(cfg)
    tol_psd = cfg.tolerances["psd"]
    cert = certify_convex(h, grid, tol_psd)
    w = width(h, grid)
    wn = grid.weights
    report = {
        "label": h.label,
        "grid": [cfg.n_theta, cfg.n_phi],
        "lmax": int(h.lmax),
        "certificate": _cert_dict(cert),
        "width": {
            "min": float(w.min()),
            "max": float(w.max()),
            "variation": float(w.max() - w.min()),
        },
    }
    if cert.convex:
        profile = brightness_profile(h, grid, tol_psd=tol_psd)
        mean = float((wn @ profile.areas) / wn.sum())
        var = float((wn @ (profile.areas - mean) ** 2) / wn.sum())
        report["volume"] = volume(h, grid, tol_psd)
        report["brightness"] = {
            "min": float(profile.areas.min()),
            "max": float(profile.areas.max()),
            "mean": mean,
            "variance": var,
            "variation": float(profile.areas.max() - profile.areas.min()),
        }
        parity = parity_report_to_json(
            parity_decomposition_check(h, grid, tol_psd))
        parity.pop("identity_residual")
        report["parity"] = parity
        csv_path = os.path.splitext(cfg.out or cfg.body_path)[0] + "_brightness.csv"
        profile_to_csv(profile, csv_path)
        report["brightness_csv"] = os.path.basename(csv_path)
    else:
        report["note"] = "body is not certified convex; brightness/volume skipped"
    if not np.all(np.isfinite(w)):
        raise ArithmeticError("non-finite width values")
    _write_json(report, _out_path(cfg, ".report.json"))
    print("wrote %s" % _out_path(cfg, ".report.json"))
    return EXIT_OK


def cmd_verify_theorem(cfg):
    grid = _grid(cfg)
    gauge = _load_body(cfg)
    # seeded start, scaled into the convexity region like the generators do
    try:
        start = random_odd(cfg.seed, degrees=cfg.degrees, scale=1.0)
    except ValueError as exc:
        raise InputError("--degrees: %s" % exc) from None
    cfg.require_lmax(start.lmax)
    try:
        recipe = constant_width_body(gauge, start, float("inf"), grid)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    eps = recipe.params["eps"] * cfg.start_scale
    init = SupportFunction(start.coeffs * eps, start.lmax, label=start.label)
    trace = minimize_brightness_variance(gauge, init, grid,
                                         degrees=cfg.degrees,
                                         max_iter=cfg.max_iter)
    out = _out_path(cfg, ".trace.csv")
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


def cmd_export(cfg):
    grid = _grid(cfg)
    h = _load_body(cfg)
    field = inverse_gauss(h, grid)
    mesh = export_mesh(field, grid, cfg.tolerances["psd"])
    out = _out_path(cfg, ".obj")
    export_obj(mesh, out)
    print("wrote %s (%d vertices, %d triangles)"
          % (out, len(mesh.vertices), len(mesh.triangles)))
    return EXIT_OK


_COMMANDS = {
    "gen": cmd_gen,
    "analyze": cmd_analyze,
    "verify-theorem": cmd_verify_theorem,
    "export": cmd_export,
}


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the message; normalize the code
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _config(args)
        return _COMMANDS[cfg.command](cfg)
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
