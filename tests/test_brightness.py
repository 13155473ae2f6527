"""Cosine-transform brightness against the mesh-shadow oracle.

The two routes share nothing past phi: the transform integrates the
curvature determinant against a Legendre kernel expansion, the oracle
projects mesh vertices and takes a 2D hull area. Multiplier values below
are the exact integrals 2 pi int |t| P_l dt, i.e. 2pi, pi/2, -pi/12,
pi/32, -pi/64, 7pi/768, -3pi/512 for l = 0, 2, ..., 12.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import unit_vectors
from widthbright import (
    SupportFunction, NotConvexError, ball, ellipsoid, basis_index,
    random_convex, cosine_multipliers, cosine_transform, brightness_profile,
    mesh_shadow, profile_to_csv,
    constant_width_body, central_symmetral,
)
from widthbright.brightness import (
    _cosine_operator, _drop_margin, _extreme_points, _fan_interior,
    _hull_area, _kernel_matrix, _polygon_interior, _plane_basis,
    _HULL_COLLINEAR_TOL,
)
from widthbright.boundary import BodyMesh, inverse_gauss, export_mesh
from widthbright.sphere import make_basis, make_grid, basis_values

EXACT_MULTIPLIERS = [
    6.283185307179586, 0.0, 1.5707963267948966, 0.0, -0.26179938779914946,
    0.0, 0.09817477042468103, 0.0, -0.04908738521234052, 0.0,
    0.02863430804053197, 0.0, -0.018407769454627694,
]


def pure_harmonic(l, m, coeff=1.0):
    coeffs = np.zeros((l + 1) ** 2)
    coeffs[basis_index(l, m)] = coeff
    return SupportFunction(coeffs, l)


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


@pytest.mark.parametrize("shape", [(12, 24), (13, 26), (32, 64)],
                         ids=lambda s: "%dx%d" % s)
def test_on_grid_transform_matches_kernel_rows(shape):
    # the ring-table route against the dense kernel rows on the same nodes;
    # 13 rings put the equator ring on its own antipodal ring
    grid = make_grid(*shape)
    rng = np.random.default_rng(shape[0])
    f = rng.standard_normal((grid.n_nodes, 50))
    rows = _kernel_matrix(grid, grid.nodes)
    for block in (f[:, 0], f):
        got = cosine_transform(block, grid, grid.nodes)
        weights = grid.weights if block.ndim == 1 else grid.weights[:, None]
        ref = rows @ (weights * block)
        assert got.shape == block.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


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
    # n_theta^2 (n_phi/2 + 1) doubles, and building it allocates no N x N array
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
    assert table.nbytes <= 8 * 48 ** 2 * (96 // 2 + 1) < 2 ** 20
    assert peak < 8 * grid.n_nodes ** 2 / 4


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
        assert prof.method == "support_formula"


def test_brightness_antipodal_symmetry_is_exact(grid32):
    h = random_convex(9, 8, grid32)
    areas = brightness_profile(h, grid32).areas
    assert np.array_equal(areas, areas[grid32.antipode_index])


def test_brightness_antipodal_symmetry_is_exact_with_odd_ring_count():
    grid = make_grid(13, 26)
    h = random_convex(9, 8, grid)
    areas = brightness_profile(h, grid).areas
    assert np.array_equal(areas, areas[grid.antipode_index])


def test_brightness_refuses_non_convex(grid32):
    coeffs = np.zeros(16)
    coeffs[0] = 2.0 * math.sqrt(math.pi)
    coeffs[basis_index(3, 0)] = 5.0
    with pytest.raises(NotConvexError):
        brightness_profile(SupportFunction(coeffs, 3), grid32)


# ---------------------------------------------------------------------------
# mesh-shadow oracle

def test_mesh_shadow_of_ball(grid16):
    mesh = export_mesh(inverse_gauss(ball(1.0), grid16), grid16)
    for a in unit_vectors(3, 10):
        assert abs(mesh_shadow(mesh, a) - math.pi) / math.pi < 0.01


def test_mesh_shadow_antipodal_pairs_are_equal(grid16):
    mesh = export_mesh(inverse_gauss(ellipsoid(1, 1, 2), grid16), grid16)
    for a in unit_vectors(4, 10):
        assert mesh_shadow(mesh, a) == mesh_shadow(mesh, -a)


def test_mesh_shadow_translation_invariance(grid16):
    mesh = export_mesh(inverse_gauss(ball(1.0), grid16), grid16)
    shifted = BodyMesh(vertices=mesh.vertices + [1.5, -0.25, 4.0],
                       triangles=mesh.triangles)
    for a in unit_vectors(8, 6):
        assert abs(mesh_shadow(shifted, a) - mesh_shadow(mesh, a)) < 1e-12


def test_mesh_shadow_rejects_collinear_projection():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
    mesh = BodyMesh(vertices=verts, triangles=np.array([[0, 1, 2]]))
    with pytest.raises(ValueError):
        mesh_shadow(mesh, np.array([0.0, 0.0, 1.0]))


def _reference_hull_area(pts):
    # the monotone chain over every point, on numpy rows, that the oracle ran
    # before its extreme-point prefilter; areas must match it bit for bit
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


def _outcome(hull_area, pts):
    try:
        return "area", hull_area(pts)
    except ValueError as exc:
        return "error", str(exc)


@st.composite
def clouds(draw):
    """2D point clouds: Gaussian, integer lattices, polygons with collinear
    runs along their edges, circles with near-coincident hull points, rims
    of up to 3,000 points crowding a rotated ellipse, as a projected mesh
    does, and regular k-gons turned by a multiple of 2 pi/64 or at random,
    so that the prefilter's rays tie at vertices and along edge normals,
    each with interior points, optional duplicates, scale 1e-6 to 1e6."""
    kind = draw(st.sampled_from(["normal", "lattice", "edges", "close", "rim",
                                 "regular"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 120))
    inner = rng.uniform(-0.6, 0.6, (n, 2))
    if kind == "normal":
        pts = rng.standard_normal((n, 2))
    elif kind == "lattice":
        m = draw(st.integers(1, 10))
        pts = rng.integers(-m, m + 1, (n, 2)).astype(float)
    elif kind == "edges":
        k = draw(st.integers(3, 8))
        ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
        corners = np.column_stack([np.cos(ang), np.sin(ang)])
        e = rng.integers(0, k, n)
        t = rng.integers(0, 8, n)[:, None] / 8.0
        pts = np.vstack([corners, (1 - t) * corners[e] + t * corners[(e + 1) % k],
                         inner])
    elif kind == "regular":
        k = draw(st.sampled_from([3, 4, 8, 16, 64, 128]))
        turn = rng.uniform(0.0, 2.0 * math.pi)
        if draw(st.booleans()):
            turn = draw(st.integers(0, 63)) * (2.0 * math.pi / 64)
        ang = np.arange(k) * (2.0 * math.pi / k) + turn
        pts = np.vstack([np.column_stack([np.cos(ang), np.sin(ang)]), inner])
    elif kind == "close":
        ang = rng.uniform(0.0, 2.0 * math.pi, n)
        rim = np.column_stack([np.cos(ang), np.sin(ang)])
        near = rim + rng.standard_normal((n, 2)) * 10.0 ** rng.uniform(-14, -4, (n, 1))
        pts = np.vstack([rim, near, inner])
    else:
        m = draw(st.integers(200, 3000))
        axes = np.array([1.0, 1.0 / draw(st.floats(1.0, 20.0))])
        ang = rng.uniform(0.0, 2.0 * math.pi, m)
        radius = 1.0 + rng.standard_normal(m) * 10.0 ** rng.uniform(-14, -4, m)
        rim = np.column_stack([np.cos(ang), np.sin(ang)]) * radius[:, None]
        fill = rng.uniform(-0.7, 0.7, (m // 2, 2))
        turn = rng.uniform(0.0, 2.0 * math.pi)
        rot = np.array([[math.cos(turn), -math.sin(turn)],
                        [math.sin(turn), math.cos(turn)]])
        pts = np.vstack([rim, fill, inner]) * axes @ rot.T
    if draw(st.booleans()):
        pts = np.vstack([pts, pts[rng.integers(0, len(pts), len(pts) // 2 + 1)]])
    return rng.permutation(pts) * 10.0 ** draw(st.floats(-6.0, 6.0))


@settings(max_examples=300, deadline=None)
@given(clouds())
def test_hull_area_matches_reference_chain(pts):
    assert _outcome(_hull_area, pts) == _outcome(_reference_hull_area, pts)


def _drops(prefilter, pts, n_rays):
    # one prefilter pass of the oracle's hull over (N, 2) points, on the
    # extreme points in n_rays directions
    xy = pts.T
    return prefilter(xy, _extreme_points(xy, n_rays), _drop_margin(xy))


def test_polygon_interior_drops_only_interior_points():
    # a square with points along its sides: only the points inside go, by
    # the polygon and by the fan alike
    rng = np.random.default_rng(5)
    corners = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    side = np.arange(40) % 4
    t = rng.uniform(0.0, 1.0, (40, 1))
    sides = (1 - t) * corners[side] + t * corners[(side + 1) % 4]
    square = np.vstack([corners, sides, rng.uniform(-0.99, 0.99, (200, 2))])
    for prefilter in (_polygon_interior, _fan_interior):
        for n_rays in (8, 64):
            assert np.array_equal(_drops(prefilter, square, n_rays),
                                  np.arange(len(square)) >= 44)
    # collinear points, and a flat triangle whose apex no 8-ray direction
    # picks out (its normal cone is 22.5 +- 2.9 degrees), so that 2 distinct
    # extreme points remain: nothing is dropped
    s = np.linspace(-1.0, 1.0, 30)
    line = np.column_stack([s, 0.5 * s])
    c, d = math.cos(3.0 * math.pi / 8.0), math.sin(3.0 * math.pi / 8.0)
    flat = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.05],
                     [0.0, 0.01], [0.2, 0.02], [-0.3, 0.01]]) @ [[c, -d], [d, c]]
    for prefilter in (_polygon_interior, _fan_interior):
        for pts, n_rays in ((line, 8), (line, 64), (flat, 8)):
            assert not _drops(prefilter, pts, n_rays).any()
        assert _drops(prefilter, flat, 64)[3:].all()


def test_fan_keeps_points_on_its_radial_lines_and_near_its_edges():
    # the square's corners fan out from the origin along its diagonals, so a
    # point exactly on a diagonal lies on an edge of its triangle and stays,
    # the origin too; so does a point 1e-9 inside a side, within the margin
    # (5.3e-7 here); the points off the diagonals inside the square go
    s = np.linspace(-0.9, 0.9, 19)
    diagonals = np.vstack([np.column_stack([s, s]), np.column_stack([s, -s])])
    near = np.array([[0.5, 1.0 - 1e-9], [-1.0 + 1e-9, 0.3],
                     [-0.2, -1.0 + 1e-9], [1.0 - 1e-9, -0.7]])
    rng = np.random.default_rng(11)
    inner = rng.uniform(-0.9, 0.9, (300, 2))
    inner = inner[np.abs(np.abs(inner[:, 0]) - np.abs(inner[:, 1])) > 1e-3]
    corners = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    pts = np.vstack([corners, diagonals, near, inner])
    xy = pts.T
    margin = _drop_margin(xy)
    kept = 4 + len(diagonals) + len(near)
    dropped = _fan_interior(xy, np.array([2, 0, 3, 1]), margin)
    assert np.array_equal(dropped, np.arange(len(pts)) >= kept)
    # the polygon of the same corners has no radial edges, only the sides
    dropped = _polygon_interior(xy, np.arange(4), margin)
    assert not dropped[kept - len(near):kept].any() and dropped[kept:].all()
    assert _hull_area(pts) == _reference_hull_area(pts) == 4.0


def test_fan_of_a_reflex_polygon_drops_only_points_inside_it():
    # the fan's vertices need not be convex: twelve outer vertices alternate
    # with twelve at a third of the radius, a star whose triangles
    # (c, e_k, e_k+1) still lie in the hull; the points in its notches stay
    k = np.arange(24)
    ang = k * (2.0 * math.pi / 24)
    star = np.where(k % 2 == 0, 1.0, 1.0 / 3.0)[:, None] \
        * np.column_stack([np.cos(ang), np.sin(ang)])
    rng = np.random.default_rng(12)
    cloud = rng.uniform(-1.0, 1.0, (2000, 2))
    pts = np.vstack([star, cloud[np.hypot(*cloud.T) < 0.95]])
    xy = pts.T
    dropped = _fan_interior(xy, rng.permutation(24), _drop_margin(xy))
    # inside the star: strictly inside one of its 24 triangles at the origin
    a, b = star, np.roll(star, -1, axis=0)
    x, y = xy[:, :, None]
    inside = np.any((a[:, 0] * y - a[:, 1] * x > 0) & (x * b[:, 1] - y * b[:, 0] > 0)
                    & ((b[:, 0] - a[:, 0]) * (y - a[:, 1])
                       - (b[:, 1] - a[:, 1]) * (x - a[:, 0]) > 0), axis=1)
    assert not dropped[~inside].any()
    assert dropped.sum() >= 0.99 * inside.sum() > 300
    assert _hull_area(pts) == _reference_hull_area(pts)


def test_hull_area_degenerate_inputs_raise():
    line = np.column_stack([np.arange(50.0), 3.0 * np.arange(50.0) - 2.0])
    for pts, message in ((line, "collinear"),
                         (np.array([[0.0, 0.0], [1.0, 1.0]]), "fewer than 3"),
                         (np.array([[0.0, 0.0], [1.0, 1.0]] * 20), "fewer than 3")):
        with pytest.raises(ValueError, match=message):
            _hull_area(pts)


def test_mesh_shadow_areas_match_reference_chain(grid16):
    # the oracle of criterion 3 on the 2x refined mesh, at a quarter of its size
    fine = make_grid(32, 64)
    dirs = unit_vectors(1000, 10)
    for h in (ball(1.0), ellipsoid(1, 1, 2)):
        areas = brightness_profile(h, grid16, directions=dirs,
                                   method="mesh_shadow").areas
        verts = export_mesh(inverse_gauss(h, fine), fine).vertices
        for a, area in zip(dirs, areas):
            b1, b2 = _plane_basis(a)
            pts = np.column_stack([verts @ b1, verts @ b2])
            assert area == _reference_hull_area(pts)


def test_oracle_mesh_hull_walks_few_points_and_matches_reference_chain(grid32):
    # the 64x128 mesh of criterion 3: its 8,194 projected vertices crowd the
    # rim, so the 8-ray polygon alone keeps about 2,500; the 64-ray fan on
    # its survivors leaves the chain a few hundred, and the area must not
    # move by a bit
    fine = make_grid(64, 128)
    dirs = unit_vectors(1001, 3)
    for h in (ball(1.0), ellipsoid(1, 1, 2),
              random_convex(3, 8, grid32, roughness=0.35)):
        areas = brightness_profile(h, grid32, directions=dirs,
                                   method="mesh_shadow").areas
        verts = export_mesh(inverse_gauss(h, fine), fine).vertices
        assert len(verts) == 8194
        for a, area in zip(dirs, areas):
            b1, b2 = _plane_basis(a)
            pts = np.column_stack([verts @ b1, verts @ b2])
            kept = pts[~_drops(_polygon_interior, pts, 8)]
            kept = kept[~_drops(_fan_interior, kept, 64)]
            assert len(kept) < 1000
            assert area == _reference_hull_area(pts)


def test_mesh_shadow_profile_equals_mesh_shadow_per_direction(grid16):
    # the profile's oracle areas are those of the public function, to the bit
    h = ellipsoid(1, 1, 2)
    dirs = unit_vectors(1002, 8)
    areas = brightness_profile(h, grid16, directions=dirs,
                               method="mesh_shadow").areas
    fine = make_grid(32, 64)
    mesh = export_mesh(inverse_gauss(h, fine), fine)
    assert areas.tobytes() == np.array([mesh_shadow(mesh, a) for a in dirs]).tobytes()


def _plane_basis_numpy(a):
    # the basis as numpy arrays, the form the oracle used before it moved
    # to Python floats
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


def test_plane_basis_matches_the_numpy_form_bitwise():
    # random directions, the axes both ways, ties in |a_i| and components
    # at and just past the 1e-13 sign threshold; signed zeros must match too
    tie = 1.0 / math.sqrt(2.0)
    dirs = np.vstack([unit_vectors(1003, 1000), np.eye(3), -np.eye(3),
                      [[tie, tie, 0.0], [0.0, -tie, tie], [-tie, 0.0, -tie]],
                      [[1e-13, -1.0, 0.0], [2e-13, -1.0, 0.0],
                       [-5e-14, 0.6, -0.8], [0.0, -0.0, 1.0]]])
    for a in dirs:
        for got, ref in zip(_plane_basis(a), _plane_basis_numpy(a)):
            assert np.array(got).tobytes() == ref.tobytes()


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
    mesh = export_mesh(inverse_gauss(ball(1.0), grid16), grid16)
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


# ---------------------------------------------------------------------------
# CSV output

def test_profile_to_csv(tmp_path, grid32):
    prof = brightness_profile(ball(1.0), grid32,
                              directions=[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    path = tmp_path / "profile.csv"
    profile_to_csv(prof, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "ax,ay,az,area,method"
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert fields[4] == "support_formula"
    assert abs(float(fields[3]) - math.pi) < 1e-10
    profile_to_csv(prof, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text() == path.read_text()
