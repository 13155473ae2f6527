"""Boundary meshing of the inverse Gauss map image.

phi(u) = h(u) u + grad h(u) sends an outward unit normal to the boundary
point where it is attained; body.inverse_gauss evaluates it, with the
curvature determinant, at the grid nodes and the poles. The mesh built here
from those points is the input of the independent shadow oracle, so it
deliberately shares nothing with the cosine-transform path beyond phi
itself.
"""

from dataclasses import dataclass

import numpy as np

from .body import TOL_PSD, inverse_gauss, require_convex

_DEGENERATE_AREA = 1e-14


@dataclass(eq=False)
class BodyMesh:
    vertices: np.ndarray   # (M, 3)
    triangles: np.ndarray  # (T, 3) int, outward oriented


def even_phi_check(p, grid):
    """Max |phi_p(u) - phi_p(-u)| over nodes; must vanish for odd p.

    Rejects input with a nonzero even part, since the identity is a parity
    statement about odd functions only.
    """
    even = p.basis.degrees % 2 == 0
    if np.any(p.coeffs[even] != 0.0):
        raise ValueError("even_phi_check needs an odd support function "
                         "(all even-degree coefficients zero)")
    phi = inverse_gauss(p, grid).phi
    return float(np.abs(phi - phi[grid.antipode_index]).max())


def export_mesh(field, grid, tol_psd=TOL_PSD):
    """Triangulate the phi image: lattice quads plus two pole fans.

    Vertices are the per-node phi values followed by the north and south
    pole points. Refuses non-convex sources (the lattice would
    self-intersect); reports degenerate (collapsed) triangles.
    """
    require_convex(field, "mesh export", tol_psd)
    nt, npx = grid.n_theta, grid.n_phi
    verts = np.vstack([field.phi, field.pole_points])
    i_north = nt * npx
    i_south = nt * npx + 1

    # node ring i=0 is the southernmost (cos theta ascending); node (i, j)
    # is i * npx + j % npx, and each lattice quad (a, b, c, d) gives the
    # triangles (a, b, c) and (a, c, d), ring by ring, then the pole fans
    j = np.arange(npx, dtype=np.int64)
    j1 = (j + 1) % npx
    a = (np.arange(nt - 1, dtype=np.int64) * npx)[:, None] + j
    b = a - j + j1
    quads = np.stack([a, b, b + npx, a, b + npx, a + npx], axis=-1)
    top = (nt - 1) * npx
    fans = np.stack([np.full(npx, i_south), j1, j,
                     np.full(npx, i_north), top + j, top + j1], axis=-1)
    tris = np.vstack([quads.reshape(-1, 3), fans.reshape(-1, 3)])

    v0 = verts[tris[:, 0]]
    cross = np.cross(verts[tris[:, 1]] - v0, verts[tris[:, 2]] - v0)
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    n_degenerate = int(np.count_nonzero(areas < _DEGENERATE_AREA))
    if n_degenerate:
        raise ValueError("%d degenerate (collapsed) triangles in phi image"
                         % n_degenerate)
    return BodyMesh(vertices=verts, triangles=tris)


def mesh_volume(mesh):
    """Signed volume by the divergence theorem, sum det(v0, v1, v2)/6."""
    v = mesh.vertices
    t = mesh.triangles
    return float(np.einsum("ij,ij->i", v[t[:, 0]],
                           np.cross(v[t[:, 1]], v[t[:, 2]])).sum() / 6.0)


def mesh_is_closed(mesh):
    """True when every edge is shared by exactly two triangles, once per direction."""
    edges = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edges[(int(a), int(b))] = edges.get((int(a), int(b)), 0) + 1
    if any(n != 1 for n in edges.values()):
        return False
    return all((b, a) in edges for (a, b) in edges)


def export_obj(mesh, path):
    """Write Wavefront OBJ: 'v x y z' lines then 1-based 'f i j k' lines."""
    lines = []
    for v in mesh.vertices:
        lines.append("v %.17g %.17g %.17g" % (v[0], v[1], v[2]))
    for t in mesh.triangles:
        lines.append("f %d %d %d" % (t[0] + 1, t[1] + 1, t[2] + 1))
    with open(path, "w") as f:
        f.write("\n".join(lines))
        f.write("\n")
