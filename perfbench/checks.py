"""Correctness checks of the benchmark; each returns a list of failure messages.

Only the standard library is used, so the runner (which must stay small:
its resident set leaks into the peak-RSS figure of every child it starts)
can run the CLI checks, and the measured process runs the numerical ones
on values it has already reduced from arrays.
"""

import hashlib
import json
import math

PARITY_TOL = 1e-11    # |det M_h - (det M_p + 2 sigma + det M_h0)| per node
WIDTH_TOL = 1e-10     # |w_K - w_gauge| per node for constant-width bodies
ORACLE_TOL = 0.01     # the CLI's "oracle" tolerance: |mesh/formula - 1|
ROUNDOFF = 1e-9       # relative floor added to the closed-form tolerances
PROBE_STATUS = "converged_to_gauge"
RIGIDITY_LINE = "RIGIDITY-CONSISTENT"


def below(what, value, limit):
    if isinstance(value, (int, float)) and math.isfinite(value) and value < limit:
        return []
    return ["%s = %r, limit %r" % (what, value, limit)]


def within(what, value, exact, tol):
    if isinstance(value, (int, float)) and math.isfinite(value) \
            and abs(value - exact) <= tol:
        return []
    return ["%s = %r, expected %r +- %.3g" % (what, value, exact, tol)]


def equal(what, got, want):
    return [] if got == want else ["%s = %r, expected %r" % (what, got, want)]


def identical(what, first, again):
    """Byte identity of two outputs of the same job."""
    return [] if first == again else ["%s differs between repeats" % what]


def digest(obj):
    """Stable text of a job result: floats in repr form, keys sorted."""
    return json.dumps(obj, sort_keys=True)


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# ---------------------------------------------------------------------------
# closed forms

def ellipsoid_volume(axes):
    a, b, c = axes
    return 4.0 * math.pi * a * b * c / 3.0


def ellipsoid_brightness(axes, u):
    """Shadow area pi abc |A^-1 u| of the ellipsoid with semi-axes A in direction u."""
    a, b, c = axes
    return math.pi * a * b * c * math.sqrt(
        (u[0] / a) ** 2 + (u[1] / b) ** 2 + (u[2] / c) ** 2)


def ellipsoid_tolerances(axes, truncation_tol):
    """(volume tolerance, area tolerance) from the harmonic truncation.

    With delta = 2 * truncation_tol bounding |h_L - h| over the sphere (the
    recorded value is a maximum over grid nodes only, hence the factor two,
    as in the spec loader), the truncated body K_L and the ellipsoid K lie in
    each other's delta-neighbourhoods, and both lie in the ball of radius
    R + delta, R the largest semi-axis. Steiner's formula and the
    monotonicity of surface area and mean width under inclusion then give

        |V(K_L) - V(K)| <= 4 pi / 3 * ((R + 2 delta)^3 - R^3)
        |A(K_L) - A(K)| <= pi * ((R + 2 delta)^2 - R^2)

    for volume and for the area of every projection. The spectral formulas
    are exact for the truncated body on the grids used here, so only
    rounding is added, as ROUNDOFF times the exact value.
    """
    r = max(axes)
    delta = 2.0 * truncation_tol
    tol_v = 4.0 * math.pi / 3.0 * ((r + 2.0 * delta) ** 3 - r ** 3)
    tol_a = math.pi * ((r + 2.0 * delta) ** 2 - r * r)
    return (tol_v + ROUNDOFF * ellipsoid_volume(axes),
            tol_a + ROUNDOFF * math.pi * r * r)


def closed_form_axes(tag):
    """Semi-axes of a closed_form tag ("ball:r" or "ellipsoid:a,b,c"), or None."""
    kind, _, args = (tag or "").partition(":")
    if kind == "ball":
        r = float(args)
        return (r, r, r)
    if kind == "ellipsoid":
        return tuple(float(s) for s in args.split(","))
    return None


# ---------------------------------------------------------------------------
# CLI outcomes

def cli_exit(command, returncode, output, expect_line):
    """Exit code 0 and a stdout line starting with expect_line."""
    fails = equal("%s exit code" % command, returncode, 0)
    if not any(line.startswith(expect_line) for line in output.splitlines()):
        fails.append("%s printed no line starting with %r" % (command, expect_line))
    return fails


def spec_degree(q):
    """Harmonic degree l of flat coefficient index q = l^2 + l + m."""
    return math.isqrt(q)


def constant_width_spec(spec, gauge_spec):
    """A constant_width body keeps the gauge's width function exactly.

    Width is h(u) + h(-u), which sees only even degrees, so the body must
    carry the gauge's even coefficients bit for bit and a nonzero odd part.
    """
    fails = []
    body, gauge = spec.get("coeffs", []), gauge_spec.get("coeffs", [])
    n = max(len(body), len(gauge))
    body = body + [0.0] * (n - len(body))
    gauge = gauge + [0.0] * (n - len(gauge))
    bad = [q for q in range(n) if spec_degree(q) % 2 == 0 and body[q] != gauge[q]]
    if bad:
        fails.append("even coefficients differ from the gauge at %d indices" % len(bad))
    if not any(body[q] != 0.0 for q in range(n) if spec_degree(q) % 2 == 1):
        fails.append("constant-width body has no odd part")
    if not spec.get("certificate", {}).get("convex"):
        fails.append("constant-width body is not certified convex")
    return fails


def analyze_report(report):
    fails = []
    if not report.get("certificate", {}).get("convex"):
        fails.append("analyze: body not certified convex")
    parity = report.get("parity", {})
    fails += below("analyze: parity identity residual",
                   parity.get("identity_residual_max"), PARITY_TOL)
    if not report.get("brightness", {}).get("min", 0.0) > 0.0:
        fails.append("analyze: no positive brightness block")
    if not report.get("volume", 0.0) > 0.0:
        fails.append("analyze: no positive volume")
    return fails


def mesh_counts(output, n_theta, n_phi):
    """export prints 'wrote PATH (V vertices, T triangles)': lattice plus two pole fans."""
    want = "(%d vertices, %d triangles)" % (n_theta * n_phi + 2, 2 * n_theta * n_phi)
    if want in output:
        return []
    return ["export: mesh counts differ from %s" % want]
