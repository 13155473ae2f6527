"""Inverse Gauss map phi = h u + grad h, its parity identity for odd inputs,
and the triangulated boundary mesh fed to the shadow oracle."""

import math

import numpy as np
import pytest

from widthbright import (
    SupportFunction, NotConvexError, ball, ellipsoid, basis_index,
    random_convex, inverse_gauss, export_mesh, export_obj,
)
from widthbright.sphere import make_grid


def pure_harmonic(l, m, coeff=1.0):
    coeffs = np.zeros((l + 1) ** 2)
    coeffs[basis_index(l, m)] = coeff
    return SupportFunction(coeffs, l)


def mesh_is_closed(mesh):
    """True when every edge is shared by exactly two triangles, once per direction."""
    edges = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edges[(int(a), int(b))] = edges.get((int(a), int(b)), 0) + 1
    if any(n != 1 for n in edges.values()):
        return False
    return all((b, a) in edges for (a, b) in edges)


# ---------------------------------------------------------------------------
# the field itself

def test_ball_field_is_radial(grid32):
    field = inverse_gauss(ball(2.0), grid32)
    np.testing.assert_allclose(field.phi, 2.0 * grid32.nodes, atol=1e-12)
    np.testing.assert_allclose(field.detfield, 4.0, atol=1e-12)
    assert abs(field.min_eigenvalue - 2.0) < 1e-12
    np.testing.assert_allclose(
        field.pole_points, [[0, 0, 2.0], [0, 0, -2.0]], atol=1e-12)


def test_degree_one_term_translates_phi(grid32):
    # h(u) = r + <v, u> is the ball translated by v: phi shifts rigidly,
    # curvature is untouched
    v = np.array([0.2, -0.1, 0.4])
    coeffs = np.zeros(4)
    coeffs[0] = 2.0 * math.sqrt(math.pi)
    k = math.sqrt(4.0 * math.pi / 3.0)
    coeffs[basis_index(1, -1)] = k * v[1]
    coeffs[basis_index(1, 0)] = k * v[2]
    coeffs[basis_index(1, 1)] = k * v[0]
    h = SupportFunction(coeffs, 1)
    field = inverse_gauss(h, grid32)
    np.testing.assert_allclose(field.phi, grid32.nodes + v, atol=1e-14)
    np.testing.assert_allclose(field.detfield, 1.0, atol=1e-14)


def test_support_identity_on_phi(grid32):
    # <phi(u), u> = h(u) pointwise, for any smooth h
    h = random_convex(11, 8, grid32)
    field = inverse_gauss(h, grid32)
    got = np.einsum("ij,ij->i", field.phi, grid32.nodes)
    np.testing.assert_allclose(got, inverse_gauss(h, grid32).values, atol=1e-12)


# ---------------------------------------------------------------------------
# parity identity for odd summands

def test_even_phi_check_vanishes_for_odd_harmonics(grid32):
    # phi_p(u) = phi_p(-u) for odd p, on the evaluated record
    for p in (pure_harmonic(3, 0), pure_harmonic(1, 1), pure_harmonic(5, -4, 0.3)):
        phi = inverse_gauss(p, grid32).phi
        assert np.abs(phi - phi[grid32.antipode_index]).max() < 1e-12


def test_even_phi_check_zero_input(grid32):
    phi = inverse_gauss(SupportFunction(np.zeros(4), 1), grid32).phi
    assert np.abs(phi - phi[grid32.antipode_index]).max() == 0.0


# ---------------------------------------------------------------------------
# meshing

def test_ball_mesh_vertices_on_sphere(grid16):
    mesh = export_mesh(inverse_gauss(ball(1.0), grid16), grid16)
    norms = np.linalg.norm(mesh.vertices, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12
    assert mesh.vertices.shape[0] == grid16.n_nodes + 2
    assert mesh_is_closed(mesh)


def test_ball_mesh_normals_point_outward(grid16):
    mesh = export_mesh(inverse_gauss(ball(1.0), grid16), grid16)
    v = mesh.vertices
    t = mesh.triangles
    normals = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    centroids = (v[t[:, 0]] + v[t[:, 1]] + v[t[:, 2]]) / 3.0
    assert np.einsum("ij,ij->i", normals, centroids).min() > 0.0


def test_mesh_normals_track_grid_normals(grid32):
    # vertex k < N is phi at node k, so a lattice triangle's normal should
    # stay close to the normal directions it interpolates
    h = random_convex(3, 6, grid32)
    mesh = export_mesh(inverse_gauss(h, grid32), grid32)
    dirs = np.vstack([grid32.nodes, [[0, 0, 1.0], [0, 0, -1.0]]])
    v = mesh.vertices
    t = mesh.triangles
    normals = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    mean_dir = (dirs[t[:, 0]] + dirs[t[:, 1]] + dirs[t[:, 2]])
    mean_dir /= np.linalg.norm(mean_dir, axis=1)[:, None]
    worst = np.degrees(np.arccos(
        np.clip(np.einsum("ij,ij->i", normals, mean_dir), -1, 1))).max()
    assert worst < 5.0


def mesh_volume(mesh):
    """Signed volume by the divergence theorem, sum det(v0, v1, v2)/6."""
    v = mesh.vertices
    t = mesh.triangles
    return float(np.einsum("ij,ij->i", v[t[:, 0]],
                           np.cross(v[t[:, 1]], v[t[:, 2]])).sum() / 6.0)


def test_mesh_volume_of_ball(grid32):
    mesh = export_mesh(inverse_gauss(ball(1.0), grid32), grid32)
    exact = 4.0 * math.pi / 3.0
    assert abs(mesh_volume(mesh) - exact) / exact < 0.01


def test_mesh_volume_of_ellipsoid(grid32):
    mesh = export_mesh(inverse_gauss(ellipsoid(1, 1, 2), grid32), grid32)
    exact = 2.0 * 4.0 * math.pi / 3.0
    assert abs(mesh_volume(mesh) - exact) / exact < 0.01


def test_mesh_vertices_satisfy_support_identity(grid32):
    h = ellipsoid(1, 1, 2)
    mesh = export_mesh(inverse_gauss(h, grid32), grid32)
    n = grid32.n_nodes
    got = np.einsum("ij,ij->i", mesh.vertices[:n], grid32.nodes)
    np.testing.assert_allclose(got, inverse_gauss(h, grid32).values, atol=1e-10)


def test_export_mesh_refuses_non_convex(grid32):
    coeffs = np.zeros(16)
    coeffs[0] = 2.0 * math.sqrt(math.pi)
    coeffs[basis_index(3, 0)] = 5.0
    field = inverse_gauss(SupportFunction(coeffs, 3), grid32)
    with pytest.raises(NotConvexError):
        export_mesh(field, grid32)


def _loop_topology(nt, npx):
    # the double loop export_mesh used to build its triangles with
    def node(i, j):
        return i * npx + j % npx

    tris = []
    for i in range(nt - 1):
        for j in range(npx):
            a, b = node(i, j), node(i, j + 1)
            c, d = node(i + 1, j + 1), node(i + 1, j)
            tris.append((a, b, c))
            tris.append((a, c, d))
    for j in range(npx):
        tris.append((nt * npx + 1, node(0, j + 1), node(0, j)))
        tris.append((nt * npx, node(nt - 1, j), node(nt - 1, j + 1)))
    return np.array(tris, dtype=np.int64)


def test_mesh_topology_matches_loop_reference():
    # the OBJ faces of export depend on this array row for row
    grid = make_grid(4, 8)
    mesh = export_mesh(inverse_gauss(ellipsoid(1, 1, 2, lmax=3), grid), grid)
    ref = _loop_topology(4, 8)
    assert mesh.triangles.dtype == np.int64
    assert mesh.triangles.shape == ref.shape
    assert np.array_equal(mesh.triangles, ref)
    assert mesh_is_closed(mesh)


def test_export_mesh_reports_collapsed_triangles(grid16):
    # the zero body maps every node to the origin
    field = inverse_gauss(SupportFunction(np.zeros(1), 0), grid16)
    with pytest.raises(ValueError, match="degenerate"):
        export_mesh(field, grid16)


# ---------------------------------------------------------------------------
# OBJ output

def test_export_obj_roundtrip(tmp_path, grid16):
    mesh = export_mesh(inverse_gauss(ball(1.0), grid16), grid16)
    path = tmp_path / "ball.obj"
    export_obj(mesh, path)
    verts, faces = [], []
    for line in path.read_text().splitlines():
        kind, *rest = line.split()
        if kind == "v":
            verts.append([float(s) for s in rest])
        elif kind == "f":
            faces.append([int(s) - 1 for s in rest])
        else:
            raise AssertionError("unexpected OBJ line: %r" % line)
    np.testing.assert_allclose(np.array(verts), mesh.vertices, rtol=1e-15)
    assert np.array_equal(np.array(faces), mesh.triangles)
