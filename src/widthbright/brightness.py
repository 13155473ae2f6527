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
transform path. It carries the projection as two contiguous coordinate
vectors x = V b1 and y = V b2, the rows of one (2, N) array, so each
elementwise step runs over a flat vector. Before Andrew's monotone chain its
hull drops the points inside the polygon of the extreme points in 8
directions (Akl & Toussaint 1978), one (8, N) product, then the survivors
inside the fan of their extreme points in 64 directions around the
centroid: each point finds its wedge in a table of angle bins and is tested
against that one triangle. A projected mesh crowds the rim, and the two
passes leave the chain a few hundred of its 8,194 vertices at 64x128 with
the same area, to the bit, as the chain over all of them.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .body import TOL_PSD, inverse_gauss, require_convex
from .boundary import export_mesh
from .sphere import make_grid

_HULL_COLLINEAR_TOL = 1e-12
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

def _cross(a, b):
    # np.cross's formula, term for term
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _plane_basis(a):
    """Orthonormal (b1, b2) spanning the plane normal to the unit vector a.

    Sign-canonical, so a and -a project identically, making area(a) ==
    area(-a) exact. Python floats carry np.cross's arithmetic and
    np.linalg.norm takes the lengths, so the basis is the numpy one to the
    bit without numpy's per-call cost on 3-vectors.
    """
    a = [float(t) for t in a]
    for t in a:
        if abs(t) > 1e-13:
            if t < 0.0:
                a = [-t for t in a]
            break
    e = [0.0, 0.0, 0.0]
    e[min(range(3), key=lambda i: abs(a[i]))] = 1.0
    b1 = _cross(a, e)
    n = float(np.linalg.norm(b1))
    b1 = [t / n for t in b1]
    b2 = _cross(a, b1)
    n = float(np.linalg.norm(b2))
    return b1, [t / n for t in b2]


def _drop_margin(xy):
    """How far inside a polygon of cloud points a point must lie to be dropped.

    The chain takes a cross product up to its collinearity tolerance, or
    within rounding of it, for a straight turn, so a prefilter drops a point
    only when it lies 2**20 times that reach over the cloud's span inside
    every edge; nearer points could still sway the chain's choices. None
    when the cloud (rows x and y) has one distinct point or non-finite
    coordinates.
    """
    span = max(float(np.ptp(xy[0])), float(np.ptp(xy[1]))) if xy.shape[1] else 0.0
    if not 0.0 < span < math.inf:
        return None
    reach = _HULL_COLLINEAR_TOL + 16.0 * np.finfo(float).eps * span * span
    return 2.0 ** 20 * reach / span


def _extreme_points(xy, n_rays):
    """Indices of the points (rows x and y) extreme in n_rays equally spaced
    directions, in angle order."""
    ray = np.arange(n_rays) * (2.0 * math.pi / n_rays)
    return np.argmax(np.column_stack([np.cos(ray), np.sin(ray)]) @ xy, axis=1)


def _polygon_interior(xy, ext, margin):
    """Mask of the points (rows x and y) that cannot be hull vertices
    (Akl & Toussaint 1978).

    The extreme points ext, in angle order, are a counter-clockwise polygon
    inside the hull. A point strictly left of every edge of a closed polygon
    lies inside it, so a point inside every edge by the margin is dropped; a
    polygon that roundoff leaves degenerate or slightly reflex only makes
    the test stricter. Repeated vertices are merged; with fewer than 3 left
    nothing is dropped. One (len(ext), N) product: cheap for a few edges.
    """
    ex, ey = xy[:, ext]
    prev = np.arange(-1, len(ext) - 1)
    new = (ex != ex[prev]) | (ey != ey[prev])
    ex, ey = ex[new], ey[new]
    if len(ex) < 3:
        return np.zeros(xy.shape[1], bool)
    dx, dy = np.append(ex[1:], ex[0]) - ex, np.append(ey[1:], ey[0]) - ey
    # edge k as a line: -dy x + dx y - inner is its length times (depth - margin)
    inner = dx * ey - dy * ex + margin * np.hypot(dx, dy)
    return np.all(np.column_stack([-dy, dx]) @ xy > inner[:, None], axis=0)


def _fan_interior(xy, ext, margin):
    """Mask of the points (rows x and y) that cannot be hull vertices, in
    time linear in their number.

    The cloud points ext, sorted by angle around their centroid c, fan out
    into triangles (c, e_k, e_k+1). Each lies inside the hull, whatever the
    polygon of the e_k looks like, since c and the e_k are in it. A point
    finds its wedge in a table of angle bins, with one compare against the
    next vertex angle, and is dropped only when it lies inside all three
    edges of that triangle by the margin. A degenerate or clockwise
    triangle drops nothing, and a point in a bin with two vertex angles may
    get the wrong wedge; either way it is only kept.
    """
    # once each: a repeated vertex is an empty wedge that a bin's compare hits
    ex, ey = xy[:, sorted(set(ext.tolist()))]
    cx, cy = ex.mean(), ey.mean()
    angle = np.arctan2(ey - cy, ex - cx)
    order = np.argsort(angle)
    angle = angle[order]
    n = len(angle)
    # wedge j runs from vertex j - 1 to vertex j in angle order, j = 0..n,
    # with vertex -1 the last and vertex n the first: wedges 0 and n are the
    # one that wraps through angle -pi
    ring = np.concatenate((order[-1:], order, order[:1]))
    px, py = ex[ring] - cx, ey[ring] - cy
    dx, dy = np.diff(px), np.diff(py)
    # each edge as a v - b u > t in coordinates (u, v) about c, t its
    # length times the margin
    radial = margin * np.hypot(px, py)
    outer = margin * np.hypot(dx, dy) + dx * py[:-1] - dy * px[:-1]
    bins = 4 * n
    scale = bins / (2.0 * math.pi)
    first = np.searchsorted(angle, np.arange(bins) / scale - math.pi, side="right")
    nxt = np.append(angle, math.inf)   # the angle where wedge j ends
    u, v = xy[0] - cx, xy[1] - cy
    theta = np.arctan2(v, u)
    b = ((theta + math.pi) * scale).astype(np.intp)
    j = first.take(np.minimum(b, bins - 1))
    j += theta >= nxt.take(j)
    j1 = j + 1
    inside = px.take(j) * v - py.take(j) * u > radial.take(j)
    inside &= py.take(j1) * u - px.take(j1) * v > radial.take(j1)
    inside &= dx.take(j) * v - dy.take(j) * u > outer.take(j)
    return inside


def _hull_area(pts):
    """Monotone-chain hull area of 2D points (shoelace on the hull).

    pts is (N, 2), read as the coordinate vectors x and y of its columns;
    the oracle passes the transpose of a (2, N) array, so both are
    contiguous. `_polygon_interior` drops the points inside the polygon of
    the extreme points in 8 directions, then `_fan_interior` the survivors
    inside the fan of their extreme points in 64, with a fixed amount of
    work per point where the polygon would take 64 edge products. Each
    drops a point only when it lies deeper than `_drop_margin` inside a
    region of the hull. A projected mesh crowds the rim: at 64x128 the first
    pass keeps about a third of the 8,194 points and the second about a
    seventh of those. The chain walks the survivors as Python floats, the
    same IEEE doubles, so the area is the one the chain over every point
    gives.
    """
    xy = np.asarray(pts, float).T
    margin = _drop_margin(xy)
    if margin is not None:
        xy = xy[:, ~_polygon_interior(xy, _extreme_points(xy, 8), margin)]
        xy = xy[:, ~_fan_interior(xy, _extreme_points(xy, 64), margin)]
    x, y = xy[:, np.lexsort(xy[::-1])]
    keep = np.ones(len(x), bool)
    keep[1:] = (np.diff(x) != 0.0) | (np.diff(y) != 0.0)
    pts = list(zip(x[keep].tolist(), y[keep].tolist()))
    if len(pts) < 3:
        raise ValueError("degenerate shadow: fewer than 3 distinct points")

    def chain(points, tol=_HULL_COLLINEAR_TOL):
        out = []
        for p in points:
            px, py = p
            while len(out) > 1:
                (ox, oy), (qx, qy) = out[-2], out[-1]
                if (qx - ox) * (py - oy) - (qy - oy) * (px - ox) <= tol:
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
    # each sum as a strided column of the hull against a contiguous shifted
    # copy of the other, the layout whose BLAS summation order the chain
    # over every point has always used
    x, y = hull[:, 0], hull[:, 1]
    return 0.5 * abs(float(x @ np.concatenate((y[1:], y[:1]))
                           - y @ np.concatenate((x[1:], x[:1]))))


def mesh_shadow(mesh, a):
    """Shadow area of the mesh in direction a, a finite unit vector: 2D hull
    of projected vertices, carried as the rows x and y of one (2, N) array."""
    (a,) = _unit_directions(a)
    b1, b2 = _plane_basis(a)
    xy = np.empty((2, len(mesh.vertices)))
    np.matmul(mesh.vertices, b1, out=xy[0])
    np.matmul(mesh.vertices, b2, out=xy[1])
    return _hull_area(xy.T)


def profile_to_csv(profile, path):
    lines = ["ax,ay,az,area,method"]
    for d, area in zip(profile.directions, profile.areas):
        lines.append("%.17g,%.17g,%.17g,%.17g,%s"
                     % (d[0], d[1], d[2], area, profile.method))
    with open(path, "w") as f:
        f.write("\n".join(lines))
        f.write("\n")
