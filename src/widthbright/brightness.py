"""Brightness profiles via the cosine transform of the curvature determinant.

Twice the shadow area in direction a equals the cosine transform
(Cf)(a) = int f(u) |<a,u>| du of f = det(h I + hess h). The transform is a
multiplier operator on spherical harmonics (Funk-Hecke; Groemer 1996): it
kills every odd degree and scales even degree l by lambda_l =
2 pi int_{-1}^{1} |t| P_l(t) dt. On the grid's own nodes it is an azimuthal
convolution (Driscoll & Healy 1994), an rfft along azimuth, one product per
Fourier mode and an irfft, whose per-mode ring table is built from the
meridian harmonics (sphere.basis_values) and the multipliers alone. The
table holds the output rings of one half sphere, since a-perp is the same
for a and -a, so the on-grid transform is even bitwise by construction. Off
the grid the kernel |<a,u>| enters as its Legendre series in the dot
product, summed as a Chebyshev series in 2 t^2 - 1 (_kernel_chebyshev) by
Clenshaw's recurrence in a few buffers made once. The multipliers would
serve there too, via quadrature coefficients and basis_values at the
directions (agreeing to 1.5e-15), but at 20 directions and degree 16 on
32x64 (one BLAS thread, a shared 2-core Xeon) basis_values alone takes
0.74 ms, the kernel route 0.55 ms in all (0.83 ms with three new arrays
per step), and a prototype cut oracle_check from 30 to 24 jobs per reference.
Both routes are exact to roundoff for bandlimited f; naive quadrature of
the kinked kernel would stall at O(n^-2), and only the tests keep it.

The mesh-shadow oracle is the independent second route to the same areas
and shares no code with the transform path: on the closed,
outward-oriented boundary mesh it sums Cauchy's projection formula, a
quarter of sum_T |((v1 - v0) x (v2 - v0)) . a| over the triangles. The
mesh, built once per field record (export_mesh), keeps its cross products
as a (3, T) table. Every product is 4 directions, the last group padded
with zero rows, against at most 16,384 triangles, and its |n . a| rows are
summed by a product with a ones vector: both stay in cache and keep one
shape, so an area has the same bits in any batch.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import legval

from .body import TOL_PSD, inverse_gauss, require_convex
from .boundary import export_mesh
from .sphere import basis_values, make_basis, make_grid, _freeze

_UNIT_TOL = 1e-12
_BLOCK = 16384  # triangles per block of mesh_shadow's (4, 3) @ (3, block)
_ONES = _freeze(np.ones(_BLOCK))  # sums a block's rows of |n . a|


@dataclass(eq=False)
class BrightnessProfile:
    areas: np.ndarray  # (D,), one per direction (the grid nodes by default)


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


@lru_cache(maxsize=None)
def _kernel_chebyshev(lmax):
    """Coefficients c_0..c_K, K = lmax // 2, of the off-grid kernel's series
    sum_l lambda_l (2l+1)/(4 pi) P_l(t) to degree lmax, rewritten as the
    Chebyshev series sum_k c_k T_k(y) in y = 2 t^2 - 1.

    Only even l carry weight, so the series is a polynomial of degree K in
    y (T_2k(t) = T_k(2 t^2 - 1)). legval samples it at the K + 1 Chebyshev
    nodes y_j = cos(theta_j), where t_j = cos(theta_j / 2), and a cosine sum
    interpolates it there exactly.
    """
    lam = cosine_multipliers(lmax)
    n = lmax // 2 + 1
    theta = math.pi * (np.arange(n) + 0.5) / n
    samples = legval(np.cos(0.5 * theta),
                     lam * ((2 * np.arange(lmax + 1) + 1) / (4.0 * math.pi)))
    coeffs = (2.0 / n) * (np.cos(np.multiply.outer(np.arange(n), theta)) @ samples)
    coeffs[0] *= 0.5
    return _freeze(coeffs)


def _kernel_from_dots(dots, lmax):
    """The cosine kernel |t| at t = dots as its Legendre series to degree
    lmax, scaled so that its quadrature against f gives (Cf): the
    _kernel_chebyshev series in y = 2 t^2 - 1 summed by Clenshaw's
    recurrence (Clenshaw 1955), lmax // 2 steps. These are the operations of
    numpy's chebval in its order, so the rows have its bits, but each step
    writes into buffers made once instead of three new arrays. y is a new
    array; dots is left as it is.
    """
    c = _kernel_chebyshev(lmax)
    y = np.multiply(dots, 2.0)
    y *= dots
    y -= 1.0
    if len(c) < 3:  # c0 + c1 y, c1 = 0 for a constant
        y *= c[1] if len(c) == 2 else 0.0
        y += c[0]
        return y
    y2 = 2.0 * y
    c1 = c[-1] * y2
    c1 += c[-2]
    c0 = np.full_like(y, c[-3] - c[-1])
    step = np.empty_like(y)
    for ck in c[-4::-1]:  # c0, c1 = ck - c1, c0 + c1 y2
        np.multiply(c1, y2, out=step)
        step += c0
        np.subtract(ck, c1, out=c0)
        c1, step = step, c1
    y *= c1
    y += c0
    return y


def _offgrid_transform(f, grid, directions, lmax):
    """(Cf)(a) at unit directions a off the grid, the kernel's Legendre
    series stopped at degree lmax; exact for f whose quadrature projection
    vanishes above lmax, and for any f at lmax = n_theta - 1.

    The kernel is even in u and the grid's nodes and weights are antipodal
    bitwise, so g = w f folds onto the half sphere, g[i] + g[antipode[i]]
    for i in grid.half, and the kernel rows are built at N/2 nodes.
    """
    g = (grid.weights if f.ndim == 1 else grid.weights[:, None]) * f
    half = grid.half
    g = g[half] + g[grid.antipode_index[half]]
    dots = directions @ grid.half_nodes.T
    np.clip(dots, -1.0, 1.0, out=dots)
    return _kernel_from_dots(dots, lmax) @ g


@lru_cache(maxsize=None)
def _cosine_operator(grid):
    """Ring table Khat[q, i, k] of the on-grid transform, i < ceil(n_theta/2):
    the block of azimuthal mode q, ring weights W included. By the addition
    theorem the kernel to degree n_theta - 1 is sum_lm lambda_l Y_lm(a)
    Y_lm(u); with a on the meridian the order-m terms vary as cos(m phi),
    whose DFT is n_phi/2 at q = +-m mod n_phi. So Khat[q] sums s lambda_l
    P_m P_m^T W over the orders m that alias to q, P_m the order-m, even-l
    meridian columns of the basis; s = n_phi at q = 0 and n_phi/2, where
    both aliases land, else n_phi/2.
    """
    n_theta, n_phi = grid.n_theta, grid.n_phi
    rows = (n_theta + 1) // 2
    basis = make_basis(n_theta - 1)
    values = basis_values(basis, grid.nodes[::n_phi])  # (ring, column) on the meridian
    lam, l = cosine_multipliers(basis.lmax), basis.degrees
    order = np.arange(basis.size) - l * (l + 1)
    table = np.zeros((n_phi // 2 + 1, rows, n_theta))
    for m in range(n_theta):
        cols = (order == m) & (l % 2 == 0)
        q = min(m % n_phi, -m % n_phi)
        s = n_phi if q in (0, n_phi // 2) else n_phi / 2
        table[q] += (values[:rows, cols] * (s * lam[l[cols]])) @ values[:, cols].T
    table *= grid.weights[::n_phi]
    return _freeze(table)


def cosine_transform(f, grid, directions):
    """(Cf)(a) = int f(u) |<a,u>| du at each direction a.

    f holds node values, shape (N,), or one field per column, (N, k). Exact
    (to roundoff) for any f the grid integrates exactly, and exactly zero
    for odd f. Directions that are the grid's own node array use the cached
    per-grid ring table: an rfft of f along azimuth, one real product per
    mode on the real and imaginary parts, and an irfft, on the rings of one
    half sphere; each antipodal pair takes its lower-indexed node's value,
    since |<a,u>| = |<-a,u>|. Any other directions build their kernel rows,
    to degree n_theta - 1, on the N/2 nodes of one half sphere.
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
        near = np.fft.irfft(out.transpose(1, 0, 2), n=n_phi, axis=1)
        lower = np.minimum(np.arange(grid.n_nodes), grid.antipode_index)
        return near.reshape(-1, *f.shape[1:])[lower]
    return _offgrid_transform(f, grid, _unit_directions(directions),
                              grid.n_theta - 1)


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
    mesh_shadow: Cauchy's projection formula on the boundary mesh (the
    oracle). The oracle meshes a grid refined 2x in each direction; at the
    analysis resolution the silhouette sampling deficit of a tall body
    already eats most of a 1% budget. The fine field and its mesh are each
    built once per body and reused by later calls (inverse_gauss,
    export_mesh). Directions default to the grid nodes, where the formula's
    profile is even bitwise by construction (cosine_transform); given
    directions must be finite unit vectors, which mesh_shadow checks itself
    for the oracle, once its mesh is built. A NaN area, like a non-positive
    one, raises ArithmeticError.
    """
    on_grid = directions is None
    if on_grid:
        directions = grid.nodes
    elif method != "mesh_shadow":
        directions = _unit_directions(directions)
    field = require_convex(inverse_gauss(h, grid), "brightness", tol_psd)
    if method == "support_formula" and on_grid:
        areas = 0.5 * cosine_transform(field.detfield, grid, directions)
    elif method == "support_formula":
        # det(h I + hess h) of a degree-L body has no degree above 2L
        areas = 0.5 * _offgrid_transform(field.detfield, grid, directions,
                                         min(grid.n_theta - 1, 2 * h.lmax))
    elif method == "mesh_shadow":
        fine = make_grid(2 * grid.n_theta, 2 * grid.n_phi)
        mesh = export_mesh(inverse_gauss(h, fine), tol_psd=tol_psd)
        areas = mesh_shadow(mesh, directions)
    else:
        raise ValueError("unknown brightness method: %r" % method)
    if not np.all(areas > 0.0):  # NaN fails this too
        raise ArithmeticError("non-positive shadow area for a convex body")
    return BrightnessProfile(areas=areas)


# ---------------------------------------------------------------------------
# mesh-shadow oracle

def mesh_shadow(mesh, directions):
    """Shadow areas of the mesh by Cauchy's projection formula, as a (D,)
    array for one finite unit vector or (D, 3) rows of them.

    The mesh must be closed and outward oriented, as export_mesh builds it.
    Then the faces that face a cover the shadow once and so do the faces
    that face away, so the area is 1/4 sum_T |n_T . a|, n_T the cross
    product (v1 - v0) x (v2 - v0) of triangle T (Schneider 2014, Gardner
    2006). Where the grid triangulation folds at a reflex edge the sum
    counts the fold twice, and the area departs from the hull of the
    projected vertices, by under 1e-4 relative on criterion 3's bodies.
    Every product has one shape, 4 directions (the last group padded with
    zero rows) against at most _BLOCK triangles of the mesh's (3, T)
    cross-product table, which stays in cache; BLAS gives a lone row (gemv)
    other bits than a row of a product (gemm), so an area's bits do not
    depend on its batch. A group's rows of |n . a| are summed by one more
    fixed-shape product, (4, block) @ ones(block), which sums its four rows
    alike and is faster than numpy's pairwise sum(1). A zero area raises
    ValueError.
    """
    directions = _unit_directions(directions)
    groups = np.vstack([directions, np.zeros((-len(directions) % 4, 3))])
    sums = np.zeros((len(groups) // 4, 4))
    for start in range(0, len(mesh.cross), _BLOCK):
        block = mesh.cross[start:start + _BLOCK].T  # rows of the table
        out = np.empty((4, block.shape[1]))
        for group, total in zip(groups.reshape(-1, 4, 3), sums):
            np.abs(np.matmul(group, block, out=out), out=out)
            total += out @ _ONES[:block.shape[1]]
    areas = 0.25 * sums.ravel()[:len(directions)]
    if np.any(areas <= 0.0):
        raise ValueError("degenerate shadow: zero projected area")
    return areas

