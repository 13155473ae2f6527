"""Brightness profiles via the cosine transform of the curvature determinant.

Twice the shadow area in direction a equals the cosine transform
(Cf)(a) = int f(u) |<a,u>| du of f = det(h I + hess h). The transform is a
multiplier operator on spherical harmonics: it kills every odd degree
exactly and scales even degree l by lambda_l = 2 pi int_{-1}^{1} |t| P_l(t) dt.
The implementation expands the kernel |<a,u>| in Legendre polynomials of the
dot product, which for bandlimited integrands reproduces the transform to
roundoff; naive quadrature of the kinked kernel would stall at O(n^-2)
accuracy, and only the tests keep it, as a cross-check.
Between the grid's own nodes the kernel depends only on the two rings and
the azimuth difference, so the on-grid transform is an azimuthal
convolution (Driscoll & Healy 1994): an rfft along azimuth, one
n_theta x n_theta product per Fourier mode and an irfft, through a per-grid
ring table of n_theta^2 (n_phi/2 + 1) numbers rather than a dense N x N
operator.

The mesh-shadow oracle (project vertices, 2D hull, shoelace) is the
independent second route to the same areas and shares no code with the
transform path. Before Andrew's monotone chain its hull drops the points
inside the polygon of the extreme points in 8 directions, then those inside
the polygon of the extreme points in 64 (Akl & Toussaint 1978); a projected
mesh crowds the rim, and the two passes leave the chain a few hundred of its
8,194 vertices at 64x128 with the same area, to the bit, as the chain over
all of them.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .body import TOL_PSD, inverse_gauss, require_convex
from .boundary import export_mesh
from .sphere import make_grid

_HULL_COLLINEAR_TOL = 1e-12
_PREFILTER_RAYS = (8, 64)
_SYMMETRY_TOL = 1e-9
_UNIT_TOL = 1e-12


@dataclass(eq=False)
class BrightnessProfile:
    directions: np.ndarray  # (D, 3) unit vectors
    areas: np.ndarray       # (D,)
    method: str             # "support_formula" or "mesh_shadow"


def cosine_multipliers(lmax):
    """Eigenvalues lambda_l of the cosine transform on degree-l harmonics.

    lambda_l = 2 pi int |t| P_l(t) dt is zero for odd l; for even l,
    lambda_0 = 2 pi and lambda_{l+2} = -lambda_l (l-1)/(l+4), so lambda_2 =
    pi/2, lambda_4 = -pi/12, lambda_6 = pi/32, ... Each step rounds twice,
    and lambda_128 is within 1e-15 relative of the exact value.
    """
    lam = np.zeros(lmax + 1)
    lam[0] = 2.0 * math.pi
    for l in range(0, lmax - 1, 2):
        lam[l + 2] = -lam[l] * (l - 1) / (l + 4)
    return lam


def _kernel_from_dots(dots, lmax):
    """The cosine kernel |t| at t = dots as its Legendre series to degree
    lmax, scaled so that its quadrature against f gives (Cf)."""
    lam = cosine_multipliers(lmax)
    out = np.full_like(dots, lam[0] * (1.0 / (4.0 * math.pi)))
    Pm1 = np.ones_like(dots)
    Pl = dots
    for l in range(1, lmax + 1):
        if lam[l] != 0.0:
            out += lam[l] * ((2 * l + 1) / (4.0 * math.pi)) * Pl
        Pm1, Pl = Pl, ((2 * l + 1) * dots * Pl - l * Pm1) / (l + 1)
    return out


def _kernel_matrix(grid, directions):
    """Rows K[a, i] with sum_i K[a,i] w_i f_i = (Cf)(a) for bandlimited f;
    the kernel's Legendre series stops at degree n_theta - 1."""
    dots = np.clip(directions @ grid.nodes.T, -1.0, 1.0)
    return _kernel_from_dots(dots, grid.n_theta - 1)


@lru_cache(maxsize=None)
def _cosine_operator(grid):
    """Ring table Khat[q, i, k] of the transform for directions = grid nodes.

    Between a node on ring i and one on ring k the kernel depends only on
    their azimuth difference m, so the on-grid operator is block-circulant
    and an rfft over m diagonalises it: Khat[q] is the n_theta x n_theta
    block of azimuthal mode q, ring weights included. The cosine table is
    even in m by construction, so each Khat is real (its imaginary part is
    roundoff of zero and is dropped).
    """
    n_phi = grid.n_phi
    st = grid.nodes[::n_phi, 0]   # azimuth 0: (sin theta, 0, cos theta) per ring
    ct = grid.nodes[::n_phi, 2]
    m = np.arange(n_phi)
    cos_m = np.cos(2.0 * math.pi * np.minimum(m, n_phi - m) / n_phi)
    dots = np.clip(np.multiply.outer(ct, ct)[:, :, None]
                   + np.multiply.outer(st, st)[:, :, None] * cos_m, -1.0, 1.0)
    g = _kernel_from_dots(dots, grid.n_theta - 1) * grid.weights[::n_phi, None]
    table = np.ascontiguousarray(np.fft.rfft(g, axis=2).real.transpose(2, 0, 1))
    table.flags.writeable = False
    return table


def cosine_transform(f, grid, directions):
    """(Cf)(a) = int f(u) |<a,u>| du at each direction a.

    f holds node values, shape (N,), or one field per column, (N, k). Exact
    (to roundoff) for any f the grid integrates exactly, and exactly zero
    for odd f. Directions that are the grid's own node array use the cached
    per-grid ring table: an rfft of f along azimuth, one real n_theta x
    n_theta product per mode on the real and imaginary parts, and an irfft.
    Any other directions build their kernel rows.
    """
    f = np.asarray(f, float)
    if f.ndim not in (1, 2) or f.shape[0] != grid.n_nodes:
        raise ValueError("value sequence length does not match node count")
    if directions is grid.nodes:
        n_theta, n_phi = grid.n_theta, grid.n_phi
        rings = np.fft.rfft(f.reshape(n_theta, n_phi, -1), axis=1)
        modes = np.ascontiguousarray(rings.transpose(1, 0, 2))  # (mode, ring, column)
        # a real matrix acts on the interleaved real and imaginary parts alike
        out = (_cosine_operator(grid) @ modes.view(float)).view(complex)
        return np.fft.irfft(out.transpose(1, 0, 2), n=n_phi, axis=1).reshape(f.shape)
    weights = grid.weights if f.ndim == 1 else grid.weights[:, None]
    return _kernel_matrix(grid, _unit_directions(directions)) @ (weights * f)


def _unit_directions(directions):
    """Directions as a (D, 3) array of finite unit vectors (length within
    _UNIT_TOL of 1), else ValueError: the transform's kernel scales with the
    length, and a zero direction has no shadow plane."""
    directions = np.atleast_2d(np.asarray(directions, float))
    if directions.ndim != 2 or directions.shape[1] != 3 or not np.all(
            np.abs(np.linalg.norm(directions, axis=1) - 1.0) <= _UNIT_TOL):
        raise ValueError("directions must be finite unit vectors in R^3, "
                         "one per row (length within %g of 1)" % _UNIT_TOL)
    return directions


def brightness_profile(h, grid, directions=None, method="support_formula",
                       tol_psd=TOL_PSD):
    """Shadow area V2(K | a-perp) for each direction a.

    support_formula: half the cosine transform of the curvature determinant.
    mesh_shadow: hull area of the projected boundary mesh (the oracle). The
    oracle meshes a grid refined 2x in each direction; at the analysis
    resolution the silhouette sampling deficit of a tall body already eats
    most of a 1% budget. Directions default to the grid nodes, where the
    profile's antipodal symmetry is asserted; given directions must be
    finite unit vectors. A NaN area, like a non-positive one, raises
    ArithmeticError.
    """
    on_grid = directions is None
    if on_grid:
        directions = grid.nodes
    else:
        directions = _unit_directions(directions)
    field = require_convex(inverse_gauss(h, grid), "brightness", tol_psd)
    if method == "support_formula":
        areas = 0.5 * cosine_transform(field.detfield, grid, directions)
    elif method == "mesh_shadow":
        fine = make_grid(2 * grid.n_theta, 2 * grid.n_phi)
        mesh = export_mesh(inverse_gauss(h, fine), fine, tol_psd)
        areas = np.array([mesh_shadow(mesh, a) for a in directions])
    else:
        raise ValueError("unknown brightness method: %r" % method)
    if not np.all(areas > 0.0):  # NaN fails this too
        raise ArithmeticError("non-positive shadow area for a convex body")
    if on_grid:
        anti = grid.antipode_index
        sym = np.abs(areas - areas[anti]).max()
        if sym > _SYMMETRY_TOL:
            raise ArithmeticError(
                "shadow symmetry area(a) = area(-a) violated by %.3e" % sym)
        # checked on the values as computed; the area is even in a, so each
        # antipodal pair takes the value of its lower-indexed node
        areas = np.where(np.arange(areas.size) <= anti, areas, areas[anti])
    return BrightnessProfile(directions=directions, areas=areas, method=method)


# ---------------------------------------------------------------------------
# mesh-shadow oracle

def _plane_basis(a):
    # sign-canonical so a and -a project identically, making
    # area(a) == area(-a) exact
    a = np.asarray(a, float)
    nz = np.nonzero(np.abs(a) > 1e-13)[0]
    if nz.size and a[nz[0]] < 0.0:
        a = -a
    k = int(np.argmin(np.abs(a)))
    e = np.zeros(3)
    e[k] = 1.0
    b1 = np.cross(a, e)
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(a, b1)
    b2 /= np.linalg.norm(b2)
    return b1, b2


def _drop_margin(pts):
    """How far inside a polygon of cloud points a point must lie to be dropped.

    The chain takes a cross product up to its collinearity tolerance, or
    within rounding of it, for a straight turn, so a prefilter drops a point
    only when it lies 2**20 times that reach over the cloud's span inside
    every edge; nearer points could still sway the chain's choices. None
    when the cloud has one distinct point or non-finite coordinates.
    """
    x, y = pts[:, 0], pts[:, 1]
    span = max(float(np.ptp(x)), float(np.ptp(y))) if len(pts) else 0.0
    if not 0.0 < span < math.inf:
        return None
    reach = _HULL_COLLINEAR_TOL + 16.0 * np.finfo(float).eps * span * span
    return 2.0 ** 20 * reach / span


def _polygon_interior(pts, n_rays):
    """Mask of points that cannot be hull vertices (Akl & Toussaint 1978).

    The extreme points in n_rays equally spaced directions, in angle order,
    are a counter-clockwise polygon inside the hull. A point strictly left
    of every edge of a closed polygon lies inside it, so a point inside every
    edge by the `_drop_margin` is dropped; a polygon that roundoff leaves
    degenerate or slightly reflex only makes the test stricter.
    Repeated vertices are merged; with fewer than 3 left nothing is dropped.
    """
    margin = _drop_margin(pts)
    if margin is None:
        return np.zeros(len(pts), bool)
    ray = np.arange(n_rays) * (2.0 * math.pi / n_rays)
    rays = np.column_stack([np.cos(ray), np.sin(ray)])
    ext = pts[np.argmax(rays @ pts.T, axis=1)]
    ext = ext[np.any(ext != np.roll(ext, 1, axis=0), axis=1)]
    if len(ext) < 3:
        return np.zeros(len(pts), bool)
    ex, ey = (np.roll(ext, -1, axis=0) - ext).T
    # edge k as a line: a x + b y + off is its length times (depth - margin)
    lines = np.column_stack([-ey, ex, ey * ext[:, 0] - ex * ext[:, 1]
                             - margin * np.hypot(ex, ey)])
    return np.all(lines[:, :2] @ pts.T + lines[:, 2:] > 0.0, axis=0)


def _hull_area(pts):
    """Monotone-chain hull area of 2D points (shoelace on the hull).

    `_polygon_interior` first drops the points inside the polygon of 8
    extreme points, then on the survivors that of 64 (_PREFILTER_RAYS). A
    projected mesh crowds the rim: the cheap first pass keeps about a third
    of its points, which makes the second pass's (64, N) products small, and
    that keeps about a seventh of those. The chain walks the survivors as
    Python floats, the same IEEE doubles, so the area is the one the chain
    over every point gives.
    """
    for n_rays in _PREFILTER_RAYS:
        pts = pts[~_polygon_interior(pts, n_rays)]
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    keep = np.ones(len(pts), bool)
    keep[1:] = np.any(np.diff(pts, axis=0) != 0.0, axis=1)
    pts = pts[keep].tolist()
    if len(pts) < 3:
        raise ValueError("degenerate shadow: fewer than 3 distinct points")

    def chain(points):
        out = []
        for p in points:
            while len(out) >= 2:
                o, q = out[-2], out[-1]
                if (q[0] - o[0]) * (p[1] - o[1]) - (q[1] - o[1]) * (p[0] - o[0]) \
                        <= _HULL_COLLINEAR_TOL:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) < 3:
        raise ValueError("degenerate shadow: collinear projection")
    x, y = hull[:, 0], hull[:, 1]
    return 0.5 * abs(float(x @ np.roll(y, -1) - y @ np.roll(x, -1)))


def mesh_shadow(mesh, a):
    """Shadow area of the mesh in direction a, a finite unit vector: 2D hull
    of projected vertices."""
    (a,) = _unit_directions(a)
    b1, b2 = _plane_basis(a)
    pts = np.column_stack([mesh.vertices @ b1, mesh.vertices @ b2])
    return _hull_area(pts)


def proportional_brightness_residual(h1, h2, grid, directions=None):
    """Least-squares brightness ratio beta and the parity split of the defect.

    Fits brightness(h1) ~ beta * brightness(h2) over the direction grid,
    then forms q = det_1 - beta det_2 per node. Brightness profiles are
    proportional exactly when the even part of q vanishes (the cosine
    transform kills odd q), so max |even part of q| is the reported
    obstruction.
    """
    p1 = brightness_profile(h1, grid, directions)
    p2 = brightness_profile(h2, grid, directions)
    w = grid.weights if directions is None else np.ones(len(p1.areas))
    beta = float((w * p1.areas) @ p2.areas / ((w * p2.areas) @ p2.areas))
    d1 = inverse_gauss(h1, grid).detfield
    d2 = inverse_gauss(h2, grid).detfield
    q = d1 - beta * d2
    q_even = 0.5 * (q + q[grid.antipode_index])
    return beta, q, float(np.abs(q_even).max())


def profile_to_csv(profile, path):
    lines = ["ax,ay,az,area,method"]
    for d, area in zip(profile.directions, profile.areas):
        lines.append("%.17g,%.17g,%.17g,%.17g,%s"
                     % (d[0], d[1], d[2], area, profile.method))
    with open(path, "w") as f:
        f.write("\n".join(lines))
        f.write("\n")
