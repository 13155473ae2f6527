"""Cosine-transform brightness against the mesh-shadow oracle.

The two routes share nothing past phi: the transform scales the
curvature determinant's harmonics by the multipliers on the grid and
integrates it against a Legendre kernel expansion off the grid, the oracle
sums Cauchy's projection formula over the mesh's triangles, checked here
against the hull area of the projected vertices. Multiplier values below
are the exact integrals 2 pi int |t| P_l dt, i.e. 2pi, pi/2, -pi/12,
pi/32, -pi/64, 7pi/768, -3pi/512 for l = 0, 2, ..., 12.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from conftest import pure_harmonic, unit_vectors
from widthbright import (
    SupportFunction, NotConvexError, ball, ellipsoid, basis_index,
    random_convex, cosine_multipliers, cosine_transform, brightness_profile,
    mesh_shadow,
    constant_width_body, central_symmetral, random_odd,
)
from widthbright.brightness import (
    _cosine_operator, _kernel_chebyshev, _kernel_from_dots,
)
from widthbright.boundary import BodyMesh, inverse_gauss, export_mesh
from widthbright.sphere import make_basis, make_grid, basis_values

EXACT_MULTIPLIERS = [
    6.283185307179586, 0.0, 1.5707963267948966, 0.0, -0.26179938779914946,
    0.0, 0.09817477042468103, 0.0, -0.04908738521234052, 0.0,
    0.02863430804053197, 0.0, -0.018407769454627694,
]


# ---------------------------------------------------------------------------
# multipliers and the transform

def _exact_multipliers_over_pi(lmax):
    # 4 int_0^1 t P_l(t) dt as exact rationals: the Legendre coefficients
    # from the three-term recurrence in Fractions, integrated term by term
    P = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for l in range(1, lmax):
        up = [Fraction(0)] + [(2 * l + 1) * c for c in P[l]]
        down = P[l - 1] + [Fraction(0)] * 2
        P.append([(u - l * d) / (l + 1) for u, d in zip(up, down)])
    return [4 * sum(c / (k + 2) for k, c in enumerate(P[l])) if l % 2 == 0
            else Fraction(0) for l in range(lmax + 1)]


def test_cosine_multipliers_match_exact_integrals():
    lam = cosine_multipliers(12)
    assert lam.shape == (13,)
    np.testing.assert_allclose(lam, EXACT_MULTIPLIERS, rtol=0, atol=1e-13)
    assert np.all(lam[1::2] == 0.0)
    # degree 128 against exact rationals times pi, where a Gauss-Legendre
    # quadrature of t P_l would be off by 2e-10 relative
    exact = [float(q) * math.pi for q in _exact_multipliers_over_pi(128)]
    lam = cosine_multipliers(128)
    np.testing.assert_allclose(lam, exact, rtol=1e-14, atol=0)
    assert np.all(lam[1::2] == 0.0)


def test_kernel_matches_exact_series_for_every_ring_count():
    # the kernel sum_l a_l P_l(t), a_l = lambda_l (2l+1)/(4 pi), has rational
    # a_l = (lambda_l/pi)(2l+1)/4; its partial sums to every degree L are
    # summed in Fractions at the dyadic points k/64 (exact in floats, with
    # t = 0 and +-1) and compared with the Clenshaw evaluation for each
    # n_theta = L + 1, one and two Chebyshev coefficients included
    lmax = 127
    lam = _exact_multipliers_over_pi(lmax)
    a = [lam[l] * (2 * l + 1) / 4 for l in range(lmax + 1)]
    points = [Fraction(k, 64) for k in range(-64, 65)]
    exact = np.empty((len(points), lmax + 1))
    for i, t in enumerate(points):
        Pm1, Pl, partial = Fraction(1), t, a[0]
        exact[i, 0] = float(partial)
        for l in range(1, lmax + 1):
            if l % 2 == 0:
                partial += a[l] * Pl
            exact[i, l] = float(partial)
            Pm1, Pl = Pl, ((2 * l + 1) * t * Pl - l * Pm1) / (l + 1)
    dots = np.array([float(t) for t in points])
    for n_theta in range(2, lmax + 2):
        got = _kernel_from_dots(dots, n_theta - 1)
        err = np.abs(got - exact[:, n_theta - 1]).max()
        assert err <= 1e-14, (n_theta, err)


def test_kernel_rows_have_chebval_bits_and_leave_the_dots_as_given():
    # the in-place Clenshaw steps are chebval's operations in its order, at
    # seeded dots with 0 and +-1, in 1-D and 2-D, and the dots stay as given
    rng = np.random.default_rng(0)
    flat = np.concatenate([[0.0, 1.0, -1.0], rng.uniform(-1.0, 1.0, 61)])
    for dots in (flat, flat.reshape(8, 8)):
        kept = dots.copy()
        for lmax in range(128):
            ref = chebval(2.0 * dots * dots - 1.0, _kernel_chebyshev(lmax))
            got = _kernel_from_dots(dots, lmax)
            assert got.shape == dots.shape
            assert got.tobytes() == ref.tobytes(), lmax
            assert dots.tobytes() == kept.tobytes(), lmax


def test_transform_of_constant_is_two_pi(grid32):
    dirs = unit_vectors(5, 50)
    got = cosine_transform(np.ones(grid32.n_nodes), grid32, dirs)
    np.testing.assert_allclose(got, 2.0 * math.pi, atol=1e-10)


def test_transform_annihilates_odd_fields(grid32):
    basis = make_basis(5)
    vals = basis_values(basis, grid32.nodes)
    dirs = unit_vectors(6, 20)
    for l, m in [(1, 0), (3, 2), (5, -3)]:
        f = vals[:, basis_index(l, m)]
        assert np.abs(cosine_transform(f, grid32, dirs)).max() < 1e-12


def test_transform_of_height_squared(grid32):
    # int |<e3,u>| u3^2 du = 2 pi int |t| t^2 dt = pi
    f = grid32.nodes[:, 2] ** 2
    got = cosine_transform(f, grid32, [[0.0, 0.0, 1.0]])
    assert abs(got[0] - math.pi) < 1e-10


def test_transform_rejects_length_mismatch(grid32):
    with pytest.raises(ValueError):
        cosine_transform(np.ones(10), grid32, [[0.0, 0.0, 1.0]])


def _kernel_rows(grid, directions):
    # the kernel rows at every node, to the full degree n_theta - 1: the
    # transform with no ring table, no folding and no truncation
    dots = np.clip(directions @ grid.nodes.T, -1.0, 1.0)
    return _kernel_from_dots(dots, grid.n_theta - 1)


@pytest.mark.parametrize("shape",
                         [(7, 14), (9, 8), (12, 24), (13, 26), (32, 64)],
                         ids=lambda s: "%dx%d" % s)
def test_on_grid_transform_matches_kernel_rows(shape):
    # the ring-table route against the dense kernel rows on the same nodes;
    # odd ring counts put the equator ring on its own antipodal ring, and 9x8
    # has fewer azimuths than twice its rings. The table covers one half
    # sphere and the other is mirrored, so the output is even bitwise
    grid = make_grid(*shape)
    rng = np.random.default_rng(shape[0])
    f = rng.standard_normal((grid.n_nodes, 50))
    rows = _kernel_rows(grid, grid.nodes)
    for block in (f[:, 0], f):
        got = cosine_transform(block, grid, grid.nodes)
        weights = grid.weights if block.ndim == 1 else grid.weights[:, None]
        ref = rows @ (weights * block)
        assert got.shape == block.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(got, got[grid.antipode_index])


@pytest.mark.parametrize("shape", [(12, 24), (13, 26), (32, 64)],
                         ids=lambda s: "%dx%d" % s)
def test_on_grid_transform_scales_harmonics_by_multipliers(shape):
    # every degree the grid resolves maps to lambda_l Y; roundoff is measured
    # against the transform's norm lambda_0 = 2 pi, since the high even
    # multipliers are small
    grid = make_grid(*shape)
    lmax = grid.n_theta - 1
    Y = basis_values(make_basis(lmax), grid.nodes)
    lam = cosine_multipliers(lmax)[[l for l in range(lmax + 1)
                                    for _ in range(2 * l + 1)]]
    err = np.abs(cosine_transform(Y, grid, grid.nodes) - lam * Y)
    assert err.max() <= 1e-13 * 2.0 * math.pi * np.abs(Y).max()
    assert err[:, lam == 0.0].max() <= 1e-13


def test_on_grid_operator_is_a_ring_table():
    # the dense N x N operator held 162 MiB at 48x96; the ring table holds
    # the output rings of one half sphere, ceil(n_theta/2) n_theta
    # (n_phi/2 + 1) doubles, and building it allocates no N x N array
    grid = make_grid(48, 96)
    _cosine_operator.cache_clear()
    tracemalloc.start()
    try:
        brightness_profile(ball(1.0), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = _cosine_operator(grid)
    assert table.base is None
    assert table.shape == (96 // 2 + 1, (48 + 1) // 2, 48)
    assert table.nbytes <= 8 * ((48 + 1) // 2) * 48 * (96 // 2 + 1) < 2 ** 19
    assert peak < 8 * grid.n_nodes ** 2 / 4


def _kernel_ring_table(grid):
    # the ring table from the sampled kernel, kept here as the reference:
    # the kernel at every output ring, input ring and azimuth difference m,
    # times the input ring's weight, and the real part of its rfft over m
    n_theta, n_phi = grid.n_theta, grid.n_phi
    rows = (n_theta + 1) // 2
    st = grid.nodes[::n_phi, 0]   # azimuth 0: (sin theta, 0, cos theta) per ring
    ct = grid.nodes[::n_phi, 2]
    m = np.arange(n_phi)
    cos_m = np.cos(2.0 * math.pi * np.minimum(m, n_phi - m) / n_phi)
    dots = np.clip(np.multiply.outer(ct[:rows], ct)[:, :, None]
                   + np.multiply.outer(st[:rows], st)[:, :, None] * cos_m, -1.0, 1.0)
    g = _kernel_from_dots(dots, n_theta - 1) * grid.weights[::n_phi, None]
    return np.fft.rfft(g, axis=2).real.transpose(2, 0, 1)


@pytest.mark.parametrize("shape",
                         [(7, 14), (9, 8), (13, 26), (32, 64), (48, 96)],
                         ids=lambda s: "%dx%d" % s)
def test_ring_table_matches_the_kernel_built_table(shape):
    # the multiplier sum against the sampled kernel; at 9x8 the orders alias
    # onto modes 0 and n_phi/2, which take the DFT of cos(m phi) twice
    grid = make_grid(*shape)
    ref = _kernel_ring_table(grid)
    table = _cosine_operator(grid)
    assert table.shape == ref.shape
    assert np.abs(table - ref).max() <= 1e-14 * np.abs(ref).max()


def test_on_grid_transform_evaluates_no_kernel(monkeypatch):
    # the ring table reads the meridian harmonics and the multipliers only
    def fail(*args, **kwargs):
        raise AssertionError("kernel evaluated")
    grid = make_grid(12, 24)
    _cosine_operator.cache_clear()
    monkeypatch.setattr("widthbright.brightness._kernel_from_dots", fail)
    got = cosine_transform(np.ones(grid.n_nodes), grid, grid.nodes)
    np.testing.assert_allclose(got, 2.0 * math.pi, rtol=1e-14)


def _truncation_bodies(grid):
    # degrees 0, 12, 8 and 5: a constant, a closed form, a rough body and a
    # constant-width body, whose odd part makes the field's odd degrees
    return [ball(1.0), ellipsoid(1, 1, 2), random_convex(4, 8, grid),
            constant_width_body(ball(1.0), random_odd(0, (3, 5)), math.inf,
                                grid).resolved]


@pytest.mark.parametrize("shape", [(25, 50), (32, 64)],
                         ids=lambda s: "%dx%d" % s)
def test_curvature_field_has_no_degree_above_twice_the_body_degree(shape):
    # the off-grid profile stops the kernel at degree 2 lmax, which is exact
    # because the quadrature projection of det(h I + hess h) vanishes above it
    grid = make_grid(*shape)
    basis = make_basis(grid.n_theta - 1)
    Y = basis_values(basis, grid.nodes)
    for h in _truncation_bodies(grid):
        coeffs = Y.T @ (grid.weights * inverse_gauss(h, grid).detfield)
        high = np.abs(coeffs[basis.degrees > 2 * h.lmax])
        assert high.max(initial=0.0) <= 1e-13 * np.abs(coeffs).max(), h.label


@pytest.mark.parametrize("shape", [(25, 50), (32, 64)],
                         ids=lambda s: "%dx%d" % s)
def test_offgrid_transform_matches_full_degree_kernel_rows(shape):
    # the off-grid route folds w f onto the half sphere; the profile also
    # stops the series at 2 lmax, and any other field keeps the full degree
    grid = make_grid(*shape)
    dirs = unit_vectors(11, 30)
    rows = _kernel_rows(grid, dirs)
    for h in _truncation_bodies(grid):
        ref = 0.5 * rows @ (grid.weights * inverse_gauss(h, grid).detfield)
        got = brightness_profile(h, grid, directions=dirs).areas
        assert np.abs(got / ref - 1.0).max() <= 1e-14, h.label
    f = np.random.default_rng(shape[0]).standard_normal((grid.n_nodes, 3))
    for block in (f[:, 0], f):
        weights = grid.weights if block.ndim == 1 else grid.weights[:, None]
        ref = rows @ (weights * block)
        got = cosine_transform(block, grid, dirs)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def _cosine_transform_direct(f, grid, directions):
    # literal quadrature of the kinked kernel |<a, u>|, O(n_theta^-2)
    return np.abs(directions @ grid.nodes.T) @ (grid.weights * f)


def test_transform_agrees_with_direct_quadrature(grid32):
    # the kinked-kernel quadrature converges at O(n^-2); at 32 rings it
    # should sit within half a percent of the spectral route
    h = random_convex(2, 6, grid32)
    f = inverse_gauss(h, grid32).detfield
    dirs = unit_vectors(7, 25)
    spectral = cosine_transform(f, grid32, dirs)
    direct = _cosine_transform_direct(f, grid32, dirs)
    assert np.abs(direct / spectral - 1.0).max() < 5e-3


# ---------------------------------------------------------------------------
# brightness profiles

def test_ball_brightness_is_disk_area(grid32):
    for r in (0.5, 2.0):
        prof = brightness_profile(ball(r), grid32)
        np.testing.assert_allclose(prof.areas, math.pi * r * r, rtol=1e-10)


def test_brightness_antipodal_symmetry_is_exact(grid32):
    h = random_convex(9, 8, grid32)
    areas = brightness_profile(h, grid32).areas
    assert np.array_equal(areas, areas[grid32.antipode_index])


def test_brightness_antipodal_symmetry_is_exact_with_odd_ring_count():
    grid = make_grid(13, 26)
    h = random_convex(9, 8, grid)
    areas = brightness_profile(h, grid).areas
    assert np.array_equal(areas, areas[grid.antipode_index])


@pytest.mark.parametrize("shape", [(8, 16), (48, 96)], ids=lambda s: "%dx%d" % s)
def test_large_ball_brightness_is_disk_area(shape):
    # the on-grid profile is even by construction, whatever the scale of its
    # roundoff; an absolute symmetry tolerance once refused these balls
    grid = make_grid(*shape)
    for r in (1e3, 1e6, 2.8e9):
        areas = brightness_profile(ball(r), grid).areas
        mean = (grid.weights @ areas) / grid.weights.sum()
        assert abs(mean / (math.pi * r * r) - 1.0) <= 1e-14, r


def test_brightness_refuses_non_convex(grid32):
    coeffs = np.zeros(16)
    coeffs[0] = 2.0 * math.sqrt(math.pi)
    coeffs[basis_index(3, 0)] = 5.0
    with pytest.raises(NotConvexError):
        brightness_profile(SupportFunction(coeffs, 3), grid32)


# ---------------------------------------------------------------------------
# mesh-shadow oracle

def test_mesh_shadow_of_ball(grid16):
    mesh = export_mesh(inverse_gauss(ball(1.0), grid16))
    for a in unit_vectors(3, 10):
        assert abs(mesh_shadow(mesh, a) - math.pi) / math.pi < 0.01


def test_mesh_shadow_antipodal_pairs_are_equal(grid16):
    mesh = export_mesh(inverse_gauss(ellipsoid(1, 1, 2), grid16))
    for a in unit_vectors(4, 10):
        assert mesh_shadow(mesh, a) == mesh_shadow(mesh, -a)


def test_mesh_shadow_translation_invariance(grid16):
    mesh = export_mesh(inverse_gauss(ball(1.0), grid16))
    shifted = BodyMesh(vertices=mesh.vertices + [1.5, -0.25, 4.0],
                       triangles=mesh.triangles)
    for a in unit_vectors(8, 6):
        assert abs(mesh_shadow(shifted, a) - mesh_shadow(mesh, a)) < 1e-12


def test_mesh_shadow_of_a_hand_built_cube():
    # the unit cube's shadow along a unit vector a is |a1| + |a2| + |a3|;
    # writable arrays built by hand, each face's triangles turned outward
    verts = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0)
                      for z in (0.0, 1.0)])
    tris = []
    for axis in range(3):
        for side in (0.0, 1.0):
            face = [i for i, v in enumerate(verts) if v[axis] == side]
            tris += [face[:3], face[1:]]
    tris = np.array(tris)
    v = verts[tris]
    normals = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    inward = np.einsum("ij,ij->i", normals, v.mean(axis=1) - 0.5) < 0.0
    tris[inward] = tris[inward][:, ::-1]
    mesh = BodyMesh(vertices=verts, triangles=tris)
    dirs = unit_vectors(5, 12)
    np.testing.assert_allclose(mesh_shadow(mesh, dirs), np.abs(dirs).sum(axis=1),
                               rtol=1e-14)


def test_mesh_shadow_rejects_collinear_projection():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
    mesh = BodyMesh(vertices=verts, triangles=np.array([[0, 1, 2]]))
    with pytest.raises(ValueError):
        mesh_shadow(mesh, np.array([0.0, 0.0, 1.0]))


# the reference chain's collinearity tolerance on cross products
_REFERENCE_COLLINEAR_TOL = 1e-12


def _reference_hull_area(pts):
    # Andrew's monotone chain over every projected vertex and the shoelace
    # on its hull: the oracle's area before Cauchy's formula
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    keep = np.ones(len(pts), bool)
    keep[1:] = np.any(np.diff(pts, axis=0) != 0.0, axis=1)
    pts = pts[keep]
    if len(pts) < 3:
        raise ValueError("degenerate shadow: fewer than 3 distinct points")

    def chain(points):
        out = []
        for p in points:
            while len(out) >= 2:
                o, q = out[-2], out[-1]
                if (q[0] - o[0]) * (p[1] - o[1]) - (q[1] - o[1]) * (p[0] - o[0]) \
                        <= _REFERENCE_COLLINEAR_TOL:
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


def _plane_basis_numpy(a):
    # orthonormal (b1, b2) spanning the plane normal to the unit vector a,
    # sign-canonical so that a and -a project identically
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


def _reference_areas(verts, dirs):
    out = []
    for a in dirs:
        b1, b2 = _plane_basis_numpy(a)
        out.append(_reference_hull_area(np.column_stack([verts @ b1, verts @ b2])))
    return np.array(out)


def test_mesh_shadow_areas_match_reference_chain(grid16):
    # the oracle of criterion 3 on the 2x refined mesh, at a quarter of its
    # size; the meshes of these bodies of revolution are convex polyhedra
    # (each lattice quad is a planar trapezoid), so Cauchy's sum is the
    # hull's area to roundoff
    fine = make_grid(32, 64)
    dirs = unit_vectors(1000, 10)
    for h in (ball(1.0), ellipsoid(1, 1, 2)):
        areas = brightness_profile(h, grid16, directions=dirs,
                                   method="mesh_shadow").areas
        ref = _reference_areas(export_mesh(inverse_gauss(h, fine)).vertices,
                               dirs)
        assert np.abs(areas / ref - 1.0).max() <= 1e-12


def test_oracle_mesh_areas_match_reference_chain_at_64x128(grid32):
    # the 64x128 mesh of criterion 3; a random body's quads are not planar,
    # and where the triangulation folds at a reflex edge Cauchy's sum counts
    # the fold twice (1.7e-6 relative here)
    fine = make_grid(64, 128)
    dirs = unit_vectors(1001, 3)
    for h, tol in ((ball(1.0), 1e-12), (ellipsoid(1, 1, 2), 1e-12),
                   (random_convex(3, 8, grid32, roughness=0.35), 1e-4)):
        areas = brightness_profile(h, grid32, directions=dirs,
                                   method="mesh_shadow").areas
        ref = _reference_areas(export_mesh(inverse_gauss(h, fine)).vertices,
                               dirs)
        assert np.abs(areas / ref - 1.0).max() <= tol


def test_mesh_shadow_profile_equals_mesh_shadow_per_direction(grid16):
    # the profile's oracle areas are one (D, 3) call of the public function,
    # and each area is the single-direction call's, to the bit
    h = ellipsoid(1, 1, 2)
    dirs = unit_vectors(1002, 8)
    areas = brightness_profile(h, grid16, directions=dirs,
                               method="mesh_shadow").areas
    fine = make_grid(32, 64)
    mesh = export_mesh(inverse_gauss(h, fine))
    batch = mesh_shadow(mesh, dirs)
    assert batch.shape == (len(dirs),)
    assert areas.tobytes() == batch.tobytes()
    assert batch.tobytes() == np.concatenate([mesh_shadow(mesh, a)
                                              for a in dirs]).tobytes()


def _blocked_mesh():
    # the oracle's mesh of a 48x96 analysis grid: 96x192, 36,864 triangles,
    # two whole blocks of 16,384 and a partial one
    grid, fine = make_grid(48, 96), make_grid(96, 192)
    mesh = export_mesh(inverse_gauss(random_convex(5, 8, grid), fine))
    assert len(mesh.triangles) == 36864
    return mesh


def test_mesh_shadow_area_does_not_depend_on_its_group_slot():
    # every product is (4, 3) @ (3, block), so a direction in any of the
    # four slots, in a batch of 1 to 12, gives its single call's bits
    mesh = _blocked_mesh()
    dirs = unit_vectors(1004, 9)
    filler = unit_vectors(1005, 3)
    single = np.concatenate([mesh_shadow(mesh, a) for a in dirs])
    for n in range(1, 10):
        for offset in range(4):
            batch = mesh_shadow(mesh, np.vstack([filler[:offset], dirs[:n]]))
            assert batch.shape == (offset + n,)
            assert batch[offset:].tobytes() == single[:n].tobytes()


def test_mesh_shadow_blocks_agree_with_one_product_per_direction():
    # the per-direction loop the blocked groups replaced, kept as reference
    mesh = _blocked_mesh()
    dirs = unit_vectors(1006, 10)
    ref = np.array([0.25 * np.abs(mesh.cross @ a).sum() for a in dirs])
    assert np.abs(mesh_shadow(mesh, dirs) / ref - 1.0).max() <= 1e-15


def test_mesh_shadow_equals_a_plain_cross_product_sum_at_64x128(grid32):
    # the fixed-shape row sums against a quarter of sum |cross . a| summed
    # by numpy, on one whole block of 16,384 triangles
    fine = make_grid(64, 128)
    dirs = unit_vectors(1008, 20)
    for h in (ball(1.0), ellipsoid(1, 1, 2),
              random_convex(3, 8, grid32, roughness=0.35)):
        mesh = export_mesh(inverse_gauss(h, fine))
        ref = 0.25 * np.abs(mesh.cross @ dirs.T).sum(axis=0)
        assert np.abs(mesh_shadow(mesh, dirs) / ref - 1.0).max() <= 1e-14


def test_mesh_shadow_of_no_directions_is_empty(grid16):
    mesh = export_mesh(inverse_gauss(ball(1.0), grid16))
    areas = mesh_shadow(mesh, np.empty((0, 3)))
    assert areas.shape == (0,) and areas.dtype == float


def test_mesh_shadow_padding_is_not_a_zero_area(grid16):
    # the zero rows that fill the last group have zero area and are dropped
    # before the check; a real direction of zero area still raises
    mesh = export_mesh(inverse_gauss(ball(1.0), grid16))
    for n in (1, 2, 3, 5):
        areas = mesh_shadow(mesh, unit_vectors(1007, n))
        assert areas.shape == (n,) and np.all(areas > 0.0)
    flat = BodyMesh(vertices=np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]]),
                    triangles=np.array([[0, 1, 2], [0, 2, 1]]))
    with pytest.raises(ValueError):
        mesh_shadow(flat, np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))


def test_mesh_shadow_profile_reuses_the_mesh_until_the_body_changes(grid16):
    # the fine mesh is built once per field record; a body changed in place
    # gets a new record and so a new mesh, and twice the body has four
    # times the areas, to the bit
    h = ellipsoid(1, 1, 2)
    dirs = unit_vectors(1003, 6)
    fine = make_grid(32, 64)
    first = brightness_profile(h, grid16, directions=dirs,
                               method="mesh_shadow").areas
    mesh = export_mesh(inverse_gauss(h, fine))
    again = brightness_profile(h, grid16, directions=dirs,
                               method="mesh_shadow").areas
    assert np.array_equal(again, first)
    assert export_mesh(inverse_gauss(h, fine)) is mesh
    h.coeffs *= 2.0
    scaled = brightness_profile(h, grid16, directions=dirs,
                                method="mesh_shadow").areas
    assert export_mesh(inverse_gauss(h, fine)) is not mesh
    assert np.array_equal(scaled, 4.0 * first)


def test_formula_matches_oracle_for_ellipsoid(grid32):
    # the shadow of (1,1,2) along e3 is the unit disk
    prof = brightness_profile(ellipsoid(1, 1, 2), grid32,
                              directions=[[0.0, 0.0, 1.0]])
    oracle = brightness_profile(ellipsoid(1, 1, 2), grid32,
                                directions=[[0.0, 0.0, 1.0]],
                                method="mesh_shadow")
    # the lmax-12 projection of the ellipsoid is not the exact ellipsoid;
    # its shadow sits ~1.4e-4 from pi, well inside the oracle's 1% band
    assert abs(prof.areas[0] - math.pi) < 5e-4
    assert abs(oracle.areas[0] / prof.areas[0] - 1.0) < 0.01


def test_brightness_rejects_unknown_method(grid32):
    with pytest.raises(ValueError):
        brightness_profile(ball(1.0), grid32, method="raytrace")


@pytest.mark.parametrize("method", ["support_formula", "mesh_shadow"])
@pytest.mark.parametrize("direction", [[0.0, 0.0, 2.0], [0.0, 0.0, 0.5],
                                       [0.0, 0.0, 0.0], [math.nan, 0.0, 1.0],
                                       [0.0, 1.0]])
def test_brightness_rejects_non_unit_directions(grid16, method, direction):
    # the formula's kernel scales with |a| (4.76 for a = 2 e3 on the unit
    # ball), a zero direction has no shadow plane, NaN gives NaN areas and
    # a plane vector has no shadow at all
    with pytest.raises(ValueError, match="finite unit vectors"):
        brightness_profile(ball(1.0), grid16, directions=[direction],
                           method=method)


def test_entry_points_reject_non_unit_directions(grid16):
    # the off-grid kernel scales with |a| (half the transform of the unit
    # ball's det field would read 4.760 for 2 e3 and 0.258 for 0, where pi
    # is right), a zero direction has no shadow plane, and NaN would give
    # NaN areas
    det = inverse_gauss(ball(1.0), grid16).detfield
    mesh = export_mesh(inverse_gauss(ball(1.0), grid16))
    for a in ([0.0, 0.0, 2.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0],
              [math.nan, 0.0, 1.0], [0.0, 0.0, math.inf], [0.0, 1.0]):
        for call in (lambda: cosine_transform(det, grid16, [a]),
                     lambda: mesh_shadow(mesh, a),
                     lambda: brightness_profile(ball(1.0), grid16, directions=[a])):
            with pytest.raises(ValueError, match="finite unit vectors"):
                call()


# ---------------------------------------------------------------------------
# proportional-brightness defect

def test_asymmetric_body_is_dimmer_than_its_symmetral(grid32):
    # a genuinely asymmetric constant-width body has strictly smaller
    # brightness than its central symmetral, and the even part of the
    # determinant defect is the obstruction to proportionality
    rec = constant_width_body(ball(1.0), pure_harmonic(3, 0), math.inf, grid32)
    h = rec.resolved
    s = central_symmetral(h)
    areas, areas_s = (brightness_profile(g, grid32).areas for g in (h, s))
    w = grid32.weights
    beta = float((w * areas) @ areas_s / ((w * areas_s) @ areas_s))
    q = inverse_gauss(h, grid32).detfield - beta * inverse_gauss(s, grid32).detfield
    max_even = np.abs(0.5 * (q + q[grid32.antipode_index])).max()
    assert beta < 1.0
    assert beta > 0.9
    assert max_even > 1e-3
