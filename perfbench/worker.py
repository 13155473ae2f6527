"""The measured process of the in-process workloads, and the cold probe
behind the CLI workload.

    python worker.py run PLAN RESULT     set up, warm up, then measure for
                                         plan["seconds"] (0: set up only)
    python worker.py probe PLAN RESULT   one cold call of each layer a CLI job uses

The runner (run.py) writes PLAN and reads RESULT; it starts every process
here with BLAS pinned to one thread and PYTHONPATH set to the package.
Job timers cover only the library calls; checks run after the timer stops,
and the reference kernel (reference.py) runs before the first job and after
each one, outside the timer.
"""

import json
import math
import os
import sys
import time

_T_IMPORT = time.perf_counter()
import numpy as np  # noqa: E402
import widthbright  # noqa: E402
from widthbright import body, brightness, generators, lab, sphere  # noqa: E402
IMPORT_S = time.perf_counter() - _T_IMPORT

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

MAX_ITER = 500

# (N, B) of every node table and N of every on-grid operator a traced run
# touched; recorded by the span-name functions below so that the computed
# byte counts cover tables built inside the package too.
_TABLES = set()
_OPERATORS = set()


def _node_tables_name(grid, basis):
    _TABLES.add((id(grid), id(basis), grid.n_nodes, basis.size))
    return "sphere.node_tables"


def _cosine_transform_name(f, grid, directions, lmax=None):
    if directions is grid.nodes:
        _OPERATORS.add((id(grid), grid.n_nodes))
        return "brightness.operator_apply"
    return "brightness.offgrid_transform"


def _brightness_profile_name(h, grid, directions=None, method="support_formula",
                             tol_psd=1e-9):
    if method == "mesh_shadow":
        return "brightness.mesh_profile"
    return "brightness.brightness_profile" if directions is None \
        else "brightness.offgrid_profile"


TRACED = {
    ("widthbright.sphere", "make_basis"): "sphere.make_basis",
    ("widthbright.sphere", "node_tables"): _node_tables_name,
    ("widthbright.body", "certify_convex"): "body.certify_convex",
    ("widthbright.body", "width"): "body.width",
    ("widthbright.body", "volume"): "body.volume",
    ("widthbright.body", "body_from_spec"): "body.body_from_spec",
    ("widthbright.boundary", "inverse_gauss"): "boundary.inverse_gauss",
    ("widthbright.boundary", "export_mesh"): "boundary.export_mesh",
    ("widthbright.brightness", "cosine_transform"): _cosine_transform_name,
    ("widthbright.brightness", "brightness_profile"): _brightness_profile_name,
    ("widthbright.brightness", "mesh_shadow"): "brightness.mesh_shadow",
    ("widthbright.generators", "ellipsoid"): "generators.ellipsoid",
    ("widthbright.generators", "random_convex"): "generators.random_convex",
    ("widthbright.generators", "constant_width_body"): "generators.constant_width_body",
    ("widthbright.lab", "parity_decomposition_check"): "lab.parity_check",
    ("widthbright.lab", "minimize_brightness_variance"): "lab.probe",
}

# per-layer metric: (span name, statistic). "total" sums every call in the
# process; "median" is the median call in the measured window, or over all
# calls when the layer runs only during set-up.
SPAN_METRICS = {
    "sphere.make_basis_s": ("sphere.make_basis", "total"),
    "sphere.node_tables_s": ("sphere.node_tables", "total"),
    "body.certify_convex_s": ("body.certify_convex", "median"),
    "body.volume_s": ("body.volume", "median"),
    "body.body_from_spec_s": ("body.body_from_spec", "median"),
    "boundary.inverse_gauss_s": ("boundary.inverse_gauss", "median"),
    "boundary.export_mesh_s": ("boundary.export_mesh", "median"),
    "brightness.operator_apply_s": ("brightness.operator_apply", "median"),
    "brightness.brightness_profile_s": ("brightness.brightness_profile", "median"),
    "brightness.offgrid_profile_s": ("brightness.offgrid_profile", "median"),
    "brightness.mesh_shadow_s": ("brightness.mesh_shadow", "median"),
    "lab.parity_check_s": ("lab.parity_check", "median"),
    "lab.probe_s": ("lab.probe", "median"),
    "generators.ellipsoid_s": ("generators.ellipsoid", "median"),
    "generators.constant_width_body_s": ("generators.constant_width_body", "median"),
}

MIB = 2.0 ** 20


# ---------------------------------------------------------------------------
# shared set-up steps

def build_tables(grid, lmaxes):
    for lmax in lmaxes:
        sphere.node_tables(grid, sphere.make_basis(lmax))


def operator_build(grid):
    """(build, apply) seconds: the first on-grid cosine transform minus a warm
    one, and the warm one."""
    f = np.ones(grid.n_nodes)
    t0 = time.perf_counter()
    brightness.cosine_transform(f, grid, grid.nodes)
    t1 = time.perf_counter()
    brightness.cosine_transform(f, grid, grid.nodes)
    t2 = time.perf_counter()
    return (t1 - t0) - (t2 - t1), t2 - t1


def harmonics_body(terms):
    """SupportFunction from [[l, m, coeff], ...] terms."""
    lmax = max(int(t[0]) for t in terms)
    coeffs = np.zeros((lmax + 1) ** 2)
    for l, m, c in terms:
        coeffs[sphere.basis_index(int(l), int(m))] += float(c)
    return body.SupportFunction(coeffs, lmax, label="odd")


def closed_form_checks(h, volume, directions, areas):
    """Volume and brightness of a ball or ellipsoid against the closed forms."""
    axes = checks.closed_form_axes(h.closed_form)
    if axes is None:
        return []
    tol_v, tol_a = checks.ellipsoid_tolerances(axes, h.truncation_tol)
    fails = []
    if volume is not None:
        fails += checks.within("volume", volume, checks.ellipsoid_volume(axes), tol_v)
    exact = [checks.ellipsoid_brightness(axes, u) for u in directions.tolist()]
    i = int(np.argmax(np.abs(np.asarray(exact) - areas)))
    fails += checks.within("brightness at direction %d" % i, float(areas[i]),
                           exact[i], tol_a)
    return fails


# ---------------------------------------------------------------------------
# analyze_fine: the library calls of cmd_analyze on a fine grid

def setup_analyze(plan):
    grid = sphere.make_grid(*plan["grid"])
    build_tables(grid, plan["lmaxes"])
    ctx = {"grid": grid, "operator": operator_build(grid)}
    # resolve each recipe as `gen` does, then load the body from its JSON spec
    # as `analyze` does; the loader runs the closed-form check
    gauges = [through_spec(generators.resolve_recipe(r, grid).resolved)
              for r in plan["gauge_recipes"]]
    ctx["gauge_width"] = [body.width(g, grid) for g in gauges]
    ctx["items"] = []
    for item in plan["recipes"]:
        recipe = dict(item["recipe"])
        if item["kind"] == "constant_width":
            recipe["gauge"] = body.body_to_spec(gauges[item["gauge"]])
        h = through_spec(generators.resolve_recipe(recipe, grid).resolved)
        ctx["items"].append(dict(item, body=h))
    return ctx


def through_spec(h):
    """h written to JSON and read back through the spec loader."""
    return body.body_from_spec(json.loads(json.dumps(body.body_to_spec(h))))


def work_analyze(ctx, item):
    h, grid = item["body"], ctx["grid"]
    cert = body.certify_convex(h, grid)
    out = {"cert": cert, "width": body.width(h, grid)}
    if cert.convex:
        out["profile"] = brightness.brightness_profile(h, grid)
        out["volume"] = body.volume(h, grid)
        out["parity"] = lab.parity_decomposition_check(h, grid)
    return out


def check_analyze(ctx, item, out):
    grid, h, cert, w = ctx["grid"], item["body"], out["cert"], out["width"]
    result = {"certificate": [cert.min_eigenvalue, cert.det_min, cert.node_of_min],
              "width": [float(w.min()), float(w.max())]}
    if not cert.convex:
        return result, ["body not certified convex"]
    areas, par = out["profile"].areas, out["parity"]
    wn = grid.weights
    mean = float(wn @ areas / wn.sum())
    resid = float(np.abs(par.identity_residual).max())
    result.update(volume=out["volume"],
                  brightness=[float(areas.min()), float(areas.max()), mean,
                              float(wn @ (areas - mean) ** 2 / wn.sum())],
                  parity=[par.max_odd_violation_sigma,
                          par.max_even_violation_det_p, resid])
    fails = checks.below("parity identity residual", resid, checks.PARITY_TOL)
    if item["kind"] == "constant_width":
        dev = float(np.abs(w - ctx["gauge_width"][item["gauge"]]).max())
        fails += checks.below("width deviation from the gauge", dev, checks.WIDTH_TOL)
    fails += closed_form_checks(h, out["volume"], grid.nodes, areas)
    return result, fails


# ---------------------------------------------------------------------------
# oracle_check: formula off the grid against the mesh-shadow oracle

def setup_oracle(plan):
    grid = sphere.make_grid(*plan["grid"])
    fine = sphere.make_grid(2 * grid.n_theta, 2 * grid.n_phi)
    lmaxes = sorted({r.get("lmax", 0) for r in plan["recipes"]})
    build_tables(grid, lmaxes)
    build_tables(fine, lmaxes)
    bodies = [generators.resolve_recipe(r, grid).resolved for r in plan["recipes"]]
    items = [{"body": h, "directions": np.asarray(d, float)}
             for h, d in zip(bodies, plan["directions"])]
    return {"grid": grid, "items": items, "oracle_gap_max": 0.0}


def work_oracle(ctx, item):
    h, grid, dirs = item["body"], ctx["grid"], item["directions"]
    formula = brightness.brightness_profile(h, grid, directions=dirs).areas
    mesh = brightness.brightness_profile(h, grid, directions=dirs,
                                         method="mesh_shadow").areas
    return formula, mesh


def check_oracle(ctx, item, out):
    formula, mesh = out
    gap = float(np.abs(mesh / formula - 1.0).max())
    ctx["oracle_gap_max"] = max(ctx["oracle_gap_max"], gap)
    fails = checks.below("oracle gap |mesh/formula - 1|", gap, checks.ORACLE_TOL)
    fails += closed_form_checks(item["body"], None, item["directions"], formula)
    return {"formula": formula.tolist(), "mesh": mesh.tolist()}, fails


# ---------------------------------------------------------------------------
# rigidity_probe: brightness-variance descent back to the gauge

def setup_probe(plan):
    grid = sphere.make_grid(*plan["grid"])
    dmax = max(plan["degrees"])
    build_tables(grid, sorted({max(r.get("lmax", 0), dmax) for r in plan["gauges"]}))
    ctx = {"grid": grid, "operator": operator_build(grid), "iterations": []}
    gauges = [generators.resolve_recipe(r, grid).resolved for r in plan["gauges"]]
    starts = [harmonics_body(terms) for terms in plan["starts"]]
    ctx["items"] = [{"gauge": gauges[g], "start": starts[s]} for g, s in plan["items"]]
    ctx["degrees"] = tuple(plan["degrees"])
    ctx["start_scale"] = plan["start_scale"]
    return ctx


def work_probe(ctx, item):
    gauge, start, grid = item["gauge"], item["start"], ctx["grid"]
    # the start recipe of cmd_verify_theorem: a share of the convexity bound
    rec = generators.constant_width_body(gauge, start, math.inf, grid)
    eps = rec.params["eps"] * ctx["start_scale"]
    init = body.SupportFunction(start.coeffs * eps, start.lmax, label=start.label)
    return lab.minimize_brightness_variance(gauge, init, grid, degrees=ctx["degrees"],
                                            max_iter=MAX_ITER)


def check_probe(ctx, item, trace):
    ctx["iterations"].append(len(trace.iterations) - 1)
    result = {"status": trace.terminal_status, "rows": trace.iterations,
              "final": trace.final_coeffs.tolist()}
    return result, checks.equal("probe status", trace.terminal_status,
                                checks.PROBE_STATUS)


WORKLOADS = {
    "analyze_fine": (setup_analyze, work_analyze, check_analyze),
    "oracle_check": (setup_oracle, work_oracle, check_oracle),
    "rigidity_probe": (setup_probe, work_probe, check_probe),
}


def run_job(tracer, ctx, work, check, item, job_id):
    """(seconds in library calls, digest of the result, failure messages)."""
    if tracer is not None:
        tracer.job = job_id
    t0 = time.perf_counter()
    try:
        out = work(ctx, item)
    except Exception as exc:  # a failing library call is a failed job, not a crash
        return time.perf_counter() - t0, None, ["%s: %s" % (type(exc).__name__, exc)]
    dt = time.perf_counter() - t0
    result, fails = check(ctx, item, out)
    return dt, checks.digest(result), fails


def run(plan, tracer):
    setup, work, check = WORKLOADS[plan["workload"]]
    ctx = setup(plan)
    items = ctx["items"]
    digests = {}
    warmup = []
    for i in range(plan["warmup"]):
        dt, dg, fails = run_job(tracer, ctx, work, check, items[i], "warmup%d" % i)
        digests[i] = dg
        warmup.append({"digest": dg, "fails": fails})
    t_setup_end = time.monotonic()

    jobs, job_fails, refs = [], [], []
    t_measure = time.perf_counter()
    n = 0
    while plan["seconds"] > 0:
        if not refs:
            refs.append(reference.kernel_s(plan["reference"]))
        i = n % len(items)
        dt, dg, fails = run_job(tracer, ctx, work, check, items[i], n)
        # the reference kernel right after each job, which is also right
        # before the next one
        refs.append(reference.kernel_s(plan["reference"]))
        if i in digests:
            fails += checks.identical("result of pool item %d" % i, digests[i], dg)
        else:
            digests[i] = dg
        jobs.append(dt)
        job_fails.append(fails)
        n += 1
        # at least one pass over the pool, so every run sees every kind of job
        if n >= len(items) and time.perf_counter() - t_measure >= plan["seconds"]:
            break
    return ctx, {"t_setup_end": t_setup_end, "t_measure": t_measure,
                 "warmup": warmup, "jobs": jobs, "refs": refs, "job_fails": job_fails}


def probe(plan, tracer):
    """One cold call of each layer behind the CLI jobs, in a fresh process."""
    n_theta, n_phi = plan["grid"]
    grid = sphere.make_grid(n_theta, n_phi)
    build_tables(grid, [plan["lmax"]])
    ctx = {"operator": operator_build(grid)}
    gauge = generators.resolve_recipe(plan["gauge"], grid).resolved
    generators.constant_width_body(gauge, harmonics_body(plan["odd"]), math.inf, grid)
    return ctx, {"t_setup_end": time.monotonic(), "warmup": [], "jobs": [], "refs": [],
                 "job_fails": []}


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run

def layer_metrics(tracer, ctx, res, span_cost):
    since = res.get("t_measure")
    build, apply = ctx.get("operator", (0.0, 0.0))
    out = {"cli.import_s": IMPORT_S, "brightness.operator_build_s": build}
    for metric, (span, stat) in SPAN_METRICS.items():
        if stat == "total":
            out[metric] = sum(tracer.durations(span))
        else:
            measured = tracer.durations(span, since=since) if since else []
            out[metric] = tracing.median_or_zero(measured or tracer.durations(span))
    if not (since and tracer.durations("brightness.operator_apply", since=since)):
        out["brightness.operator_apply_s"] = apply  # the warm set-up call
    out["sphere.tables_mb"] = sum(7 * 8 * n * b for _, _, n, b in _TABLES) / MIB
    out["brightness.operator_mb"] = sum(8 * n * n for _, n in _OPERATORS) / MIB
    out["brightness.oracle_gap_max"] = ctx.get("oracle_gap_max", 0.0)

    probes = tracer.durations("lab.probe", since=since) if since else []
    iters = ctx.get("iterations", [])[-len(probes):] if probes else []
    out["lab.probe_first_s"] = sum(tracer.durations("lab.probe", until=since), 0.0) \
        if since else 0.0
    out["lab.iter_s"] = tracing.median_or_zero(
        [t / k for t, k in zip(probes, iters) if k > 0])
    # iterations of the first pass over the pool: the same seed repeats it exactly
    n_pool = len(ctx.get("items", []))
    warm = len(res["warmup"])
    out["lab.iterations"] = sum(ctx.get("iterations", [])[warm:warm + n_pool])

    jobs = len(res["jobs"])
    spans_in_jobs = len([s for s in tracer.spans if since and s[1] >= since])
    out["trace.overhead_s"] = span_cost * spans_in_jobs / jobs if jobs else 0.0
    return out


def main(argv):
    mode, plan_path, out_path = argv[1:4]
    with open(plan_path) as f:
        plan = json.load(f)
    src = os.path.dirname(os.path.dirname(os.path.abspath(widthbright.__file__)))
    if src != plan["src"]:
        print("widthbright imported from %s, expected %s" % (src, plan["src"]),
              file=sys.stderr)
        return 2
    tracer = None
    if plan.get("trace"):
        tracer = tracing.Tracer()
        tracer.install(TRACED)
    ctx, result = (probe if mode == "probe" else run)(plan, tracer)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, ctx, result, tracer.span_cost())
        result["self_times"] = tracer.self_times()
        with open(plan["spans_path"], "w") as f:
            json.dump(tracer.to_json(), f)
    with open(out_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
