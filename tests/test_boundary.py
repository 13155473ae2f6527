"""Inverse Gauss map phi = h u + grad h, its parity identity for odd inputs,
and the triangulated boundary mesh fed to the shadow oracle."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import pure_harmonic
from widthbright import (
    SupportFunction, NotConvexError, ball, ellipsoid, basis_index,
    random_convex, inverse_gauss, export_mesh, mesh_shadow,
)
from widthbright.body import TOL_PSD
from widthbright.boundary import _lattice_triangles
from widthbright.sphere import make_grid


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
    mesh = export_mesh(inverse_gauss(ball(1.0), grid16))
    norms = np.linalg.norm(mesh.vertices, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12
    assert mesh.vertices.shape[0] == grid16.n_nodes + 2
    assert mesh_is_closed(mesh)


def test_ball_mesh_normals_point_outward(grid16):
    mesh = export_mesh(inverse_gauss(ball(1.0), grid16))
    v = mesh.vertices
    t = mesh.triangles
    normals = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    centroids = (v[t[:, 0]] + v[t[:, 1]] + v[t[:, 2]]) / 3.0
    assert np.einsum("ij,ij->i", normals, centroids).min() > 0.0


def test_mesh_normals_track_grid_normals(grid32):
    # vertex k < N is phi at node k, so a lattice triangle's normal should
    # stay close to the normal directions it interpolates
    h = random_convex(3, 6, grid32)
    mesh = export_mesh(inverse_gauss(h, grid32))
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
    mesh = export_mesh(inverse_gauss(ball(1.0), grid32))
    exact = 4.0 * math.pi / 3.0
    assert abs(mesh_volume(mesh) - exact) / exact < 0.01


def test_mesh_volume_of_ellipsoid(grid32):
    mesh = export_mesh(inverse_gauss(ellipsoid(1, 1, 2), grid32))
    exact = 2.0 * 4.0 * math.pi / 3.0
    assert abs(mesh_volume(mesh) - exact) / exact < 0.01


def test_mesh_vertices_satisfy_support_identity(grid32):
    h = ellipsoid(1, 1, 2)
    mesh = export_mesh(inverse_gauss(h, grid32))
    n = grid32.n_nodes
    got = np.einsum("ij,ij->i", mesh.vertices[:n], grid32.nodes)
    np.testing.assert_allclose(got, inverse_gauss(h, grid32).values, atol=1e-10)


def test_export_mesh_refuses_non_convex(grid32):
    coeffs = np.zeros(16)
    coeffs[0] = 2.0 * math.sqrt(math.pi)
    coeffs[basis_index(3, 0)] = 5.0
    field = inverse_gauss(SupportFunction(coeffs, 3), grid32)
    with pytest.raises(NotConvexError):
        export_mesh(field)


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
    mesh = export_mesh(inverse_gauss(ellipsoid(1, 1, 2, lmax=3), grid))
    ref = _loop_topology(4, 8)
    assert mesh.triangles.dtype == np.int64
    assert mesh.triangles.shape == ref.shape
    assert np.array_equal(mesh.triangles, ref)
    assert mesh_is_closed(mesh)


def test_export_mesh_returns_frozen_arrays_and_their_cross_products(grid16):
    field = inverse_gauss(ellipsoid(1, 1, 2, lmax=3), grid16)
    mesh = export_mesh(field)
    # one shared record per field record, which no caller can change
    assert export_mesh(field) is mesh
    with pytest.raises(dataclasses.FrozenInstanceError):
        mesh.vertices = np.zeros((3, 3))
    assert not mesh.vertices.flags.writeable
    assert not mesh.triangles.flags.writeable
    assert not mesh.cross.flags.writeable
    v, t = mesh.vertices, mesh.triangles
    ref = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    assert mesh.cross.tobytes() == ref.tobytes()
    assert mesh.cross is mesh.cross
    # one triangle index per grid, shared by every mesh on it
    other = export_mesh(inverse_gauss(ball(2.0), grid16))
    assert other.triangles is mesh.triangles


def test_export_mesh_reports_collapsed_triangles(grid16):
    # the zero body maps every node to the origin; no mesh is kept for it,
    # so a second call raises again
    field = inverse_gauss(SupportFunction(np.zeros(1), 0), grid16)
    for _ in range(2):
        with pytest.raises(ArithmeticError, match="degenerate"):
            export_mesh(field)


@pytest.mark.parametrize("offset", [(0.0, 0.0, 0.0), (10.0, -20.0, 30.0)])
def test_export_mesh_measures_collapse_against_the_mesh_extent(grid16, offset):
    # a ball of radius 2.8e-7 has triangles of area about 1e-15, which is
    # large for its size; moving it away from the origin changes nothing
    r = 2.8e-7
    coeffs = np.zeros(4)
    coeffs[0] = 2.0 * math.sqrt(math.pi) * r
    k = math.sqrt(4.0 * math.pi / 3.0)
    coeffs[basis_index(1, -1)] = k * offset[1]
    coeffs[basis_index(1, 0)] = k * offset[2]
    coeffs[basis_index(1, 1)] = k * offset[0]
    mesh = export_mesh(inverse_gauss(SupportFunction(coeffs, 1), grid16))
    assert mesh_is_closed(mesh)
    norms = np.linalg.norm(mesh.vertices - offset, axis=1)
    assert np.abs(norms / r - 1.0).max() < 1e-6


def test_export_mesh_meshes_each_record_on_its_own_lattice():
    # 16x32 and 32x16 both have 512 nodes: the 16x32 record of this body,
    # meshed on the 32x16 lattice, cast a shadow of 34.16 along e3, where
    # its own lattice gives 3.012 (exact: pi)
    h = ellipsoid(1, 1, 2)
    for shape in ((16, 32), (32, 16)):
        field = inverse_gauss(h, make_grid(*shape))
        mesh = export_mesh(field)
        assert field.grid.n_nodes == 512
        assert np.array_equal(mesh.triangles, _lattice_triangles(*shape))
        assert abs(mesh_shadow(mesh, [0.0, 0.0, 1.0])[0] / math.pi - 1.0) < 0.05


def test_export_mesh_takes_no_grid(grid16):
    # the record carries its grid; a second grid, or a positional
    # tolerance, is a stale call
    field = inverse_gauss(ball(1.0), grid16)
    for extra in (grid16, TOL_PSD):
        with pytest.raises(TypeError):
            export_mesh(field, extra)


def test_inverse_gauss_record_carries_its_grid_and_lmax(grid16):
    h = ellipsoid(1, 1, 2, lmax=3)
    field = inverse_gauss(h, grid16)
    assert field.grid is grid16
    assert field.lmax == h.lmax


def _barely_non_convex(grid):
    """A body whose least eigenvalue on the grid lies just below -TOL_PSD."""
    p = pure_harmonic(3, 0)
    margin = inverse_gauss(p, grid).min_eigenvalue
    coeffs = np.zeros(16)
    coeffs[0] = 2.0 * math.sqrt(math.pi) * (-margin - 10.0 * TOL_PSD)
    coeffs += p.coeffs
    return SupportFunction(coeffs, 3)


@pytest.mark.parametrize("loose_first", [True, False])
def test_export_mesh_applies_the_callers_tolerance_on_every_call(grid16,
                                                                 loose_first):
    field = inverse_gauss(_barely_non_convex(grid16), grid16)
    assert -100.0 * TOL_PSD < field.min_eigenvalue < -TOL_PSD
    # the mesh is cached, the convexity verdict is not
    for loose in (loose_first, not loose_first):
        if loose:
            assert export_mesh(field, tol_psd=100.0 * TOL_PSD).vertices.size
        else:
            with pytest.raises(NotConvexError):
                export_mesh(field)
