"""Body generators: exact closed forms, seeded random families, and the
width-preserving constant-width construction."""

import math

import numpy as np
import pytest

import widthbright as wb
from widthbright import (
    SupportFunction, ball, ellipsoid, basis_index, certify_convex, width,
    constant_width_body, random_convex, random_odd, resolve_recipe,
    central_symmetral, brightness_profile,
)
from widthbright.body import closed_form_values
from widthbright.boundary import inverse_gauss
from widthbright.sphere import (
    make_basis, make_grid, entries_eigmin, entries_eigmax, node_tables,
)


def pure_harmonic(l, m, coeff=1.0):
    coeffs = np.zeros((l + 1) ** 2)
    coeffs[basis_index(l, m)] = coeff
    return SupportFunction(coeffs, l)


# ---------------------------------------------------------------------------
# closed forms

def test_ball():
    h = ball(2.5)
    assert h.lmax == 0
    assert abs(h.coeffs[0] - 2.5 * 2.0 * math.sqrt(math.pi)) < 1e-15
    assert h.closed_form == "ball:2.5"
    with pytest.raises(ValueError):
        ball(0.0)
    with pytest.raises(ValueError):
        ball(-1.0)


def test_round_ellipsoid_is_a_ball(grid32):
    h = ellipsoid(1, 1, 1)
    np.testing.assert_allclose(
        inverse_gauss(h, grid32).values, 1.0, atol=1e-12)
    assert h.truncation_tol < 1e-12


def test_ellipsoid_projection_error(grid32):
    h = ellipsoid(1, 1, 2)
    assert 0.0 < h.truncation_tol < 1e-4
    exact = closed_form_values(h.closed_form, grid32.nodes)
    dev = np.abs(inverse_gauss(h, grid32).values - exact).max()
    assert dev < 1e-4


def test_ellipsoid_builds_no_node_tables():
    # the projection read only the values of full value, gradient and
    # support-matrix tables that it built and cached on its own 48x96 grid
    misses = node_tables.cache_info().misses
    h = ellipsoid(1.0, 1.5, 2.0, lmax=9)
    assert node_tables.cache_info().misses == misses
    grid = make_grid(48, 96)
    u = grid.nodes
    hv = np.sqrt(u[:, 0] ** 2 + (1.5 * u[:, 1]) ** 2 + (2.0 * u[:, 2]) ** 2)
    V = node_tables(grid, make_basis(9)).V
    want = V.T @ (grid.weights * hv)
    want[h.basis.degrees % 2 == 1] = 0.0
    np.testing.assert_array_equal(h.coeffs, want)
    assert h.truncation_tol == float(np.abs(V @ want - hv).max())


def test_ellipsoid_has_no_odd_terms():
    h = ellipsoid(1.3, 0.8, 2.0)
    odd = h.basis.degrees % 2 == 1
    assert np.all(h.coeffs[odd] == 0.0)
    with pytest.raises(ValueError):
        ellipsoid(1, 1, 0)


# ---------------------------------------------------------------------------
# constant-width construction

def test_constant_width_epsilon_bound(grid32):
    rec = constant_width_body(ball(1.0), pure_harmonic(3, 0), math.inf, grid32)
    assert rec.kind == "constant_width"
    # rho is the grid spectral radius of the Y30 support matrix; frozen
    # from this construction and pinned against regressions
    assert abs(rec.params["rho"] - 3.730692435051126) < 1e-12 * 3.73
    assert abs(rec.params["eps"] - 0.9 * rec.params["gauge_margin"]
               / rec.params["rho"]) < 1e-15
    assert rec.params["eps"] == rec.params["eps_bound"]
    # at the full bound the summed matrix bottoms out at 0.1 * margin
    cert = certify_convex(rec.resolved, grid32)
    assert cert.convex
    assert abs(cert.min_eigenvalue - 0.1) < 1e-12


def test_constant_width_request_can_only_shrink(grid32):
    rec = constant_width_body(ball(1.0), pure_harmonic(3, 0), 0.01, grid32)
    assert rec.params["eps"] == 0.01
    assert rec.params["eps_bound"] > 0.01


def test_negative_eps_is_bounded_in_magnitude(grid32):
    # the bound capped eps from above only, so eps = -1000 on the ball gauge
    # gave a body whose least support-matrix eigenvalue was -3729.69
    p = pure_harmonic(3, 0)
    bound = constant_width_body(ball(1.0), p, math.inf, grid32).params["eps"]
    for eps in (-1000.0, -math.inf):
        rec = constant_width_body(ball(1.0), p, eps, grid32)
        assert rec.params["eps"] == -bound
        assert certify_convex(rec.resolved, grid32).min_eigenvalue >= 0.1 - 1e-12
    assert constant_width_body(ball(1.0), p, -0.01, grid32).params["eps"] == -0.01


def test_constant_width_refuses_a_perturbation_that_overflows(grid32):
    # p's support matrix overflows, its eigenvalues come out nan, and a nan
    # rho slipped past the bound: eps = 1e-300 gave a far from convex body
    with np.errstate(all="ignore"), pytest.raises(ValueError):
        constant_width_body(ball(1.0), pure_harmonic(3, 0, 1e308), 1e-300, grid32)


def test_constant_width_preserves_width(grid32):
    p = random_odd(3, degrees=(3, 5))
    rec = constant_width_body(ball(1.0), p, math.inf, grid32)
    assert np.abs(width(rec.resolved, grid32) - 2.0).max() < 1e-12
    sym = central_symmetral(rec.resolved)
    assert sym.coeffs[0] == ball(1.0).coeffs[0]
    assert np.all(sym.coeffs[1:] == 0.0)


def test_constant_width_input_validation(grid32):
    p = pure_harmonic(3, 0)
    with pytest.raises(ValueError):
        constant_width_body(pure_harmonic(3, 1), p, 0.1, grid32)  # odd gauge
    with pytest.raises(ValueError):
        constant_width_body(ball(1.0), ball(1.0), 0.1, grid32)  # even p
    with pytest.raises(ValueError):
        constant_width_body(ball(1.0), SupportFunction(np.zeros(4), 1),
                            0.1, grid32)  # zero p
    bad_gauge = SupportFunction(
        np.eye(9)[basis_index(2, 0)] * 5.0, 2)  # not convex
    with pytest.raises(ValueError):
        constant_width_body(bad_gauge, p, 0.1, grid32)


def test_translation_summand_is_neutral(grid32):
    # degree-1 odd parts translate the body: support matrix, curvature and
    # brightness are all bitwise unchanged
    p = pure_harmonic(1, 0)
    rec = constant_width_body(ball(1.0), p, 0.2, grid32)
    assert rec.params["rho"] == 0.0
    assert rec.params["eps_bound"] == math.inf
    d0 = inverse_gauss(ball(1.0), grid32).detfield
    d1 = inverse_gauss(rec.resolved, grid32).detfield
    assert np.array_equal(d0, d1)
    b0 = brightness_profile(ball(1.0), grid32).areas
    b1 = brightness_profile(rec.resolved, grid32).areas
    np.testing.assert_allclose(b1, b0, atol=1e-12)
    with pytest.raises(ValueError):
        constant_width_body(ball(1.0), p, math.inf, grid32)


def test_odd_eigenvalues_flip_across_antipodes(grid32):
    # for odd p the support matrix at -u is minus a rotation of the one at
    # u, so the spectrum flips sign exactly
    p = random_odd(12, degrees=(3, 5, 7))
    ent = inverse_gauss(p, grid32).entries
    lo, hi = entries_eigmin(ent), entries_eigmax(ent)
    assert np.array_equal(lo[grid32.antipode_index], -hi)


# ---------------------------------------------------------------------------
# seeded random families

def test_random_convex_is_deterministic(grid32):
    a = random_convex(4, 8, grid32)
    b = random_convex(4, 8, grid32)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = random_convex(5, 8, grid32)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_random_convex_is_strictly_convex(grid32):
    for seed in range(8):
        h = random_convex(seed, 8, grid32, roughness=0.35)
        cert = certify_convex(h, grid32)
        assert cert.convex
        assert cert.min_eigenvalue >= 0.1


def test_random_convex_rejects_bad_roughness(grid32):
    with pytest.raises(ValueError):
        random_convex(0, 6, grid32, roughness=1.5)


def test_random_odd_is_deterministic_unit_norm():
    a = random_odd(7)
    b = random_odd(7)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert abs(np.linalg.norm(a.coeffs) - 1.0) < 1e-12
    even = a.basis.degrees % 2 == 0
    assert np.all(a.coeffs[even] == 0.0)
    scaled = random_odd(7, scale=0.25)
    np.testing.assert_allclose(scaled.coeffs, 0.25 * a.coeffs, rtol=1e-15)
    with pytest.raises(ValueError):
        random_odd(7, degrees=(2, 3))
    with pytest.raises(ValueError, match="must not repeat"):
        random_odd(7, degrees=(3, 3))


def test_every_generator_clears_the_convexity_floor(grid32):
    bodies = [
        ball(0.5),
        ellipsoid(1, 1, 2),
        random_convex(0, 8, grid32),
        constant_width_body(ball(1.0), random_odd(1), math.inf, grid32).resolved,
    ]
    for h in bodies:
        assert certify_convex(h, grid32).min_eigenvalue >= 0.05


# ---------------------------------------------------------------------------
# recipes

def test_resolve_recipe_kinds(grid32):
    r = resolve_recipe({"kind": "ball", "r": 2.0}, grid32)
    assert r.kind == "ball" and r.resolved.closed_form == "ball:2.0"

    r = resolve_recipe({"kind": "ellipsoid", "axes": [1, 1, 2]}, grid32)
    assert r.params["lmax"] == 12
    assert r.resolved.closed_form.startswith("ellipsoid:")

    r = resolve_recipe({"kind": "random_convex", "seed": 3}, grid32)
    assert np.array_equal(r.resolved.coeffs, random_convex(3, 8, grid32).coeffs)

    r = resolve_recipe({
        "kind": "constant_width",
        "gauge": {"kind": "ball", "r": 1.0},
        "odd": {"harmonics": [[3, 0, 1.0]]},
        "eps": "auto",
    }, grid32)
    assert r.kind == "constant_width"
    assert abs(r.params["rho"] - 3.730692435051126) < 1e-10


def test_resolve_recipe_rejects_garbage(grid32):
    with pytest.raises(ValueError):
        resolve_recipe({"r": 1.0}, grid32)
    with pytest.raises(ValueError):
        resolve_recipe({"kind": "torus"}, grid32)
    with pytest.raises(ValueError):
        resolve_recipe({"kind": "ball"}, grid32)  # missing r
    with pytest.raises(ValueError):
        resolve_recipe({"kind": "constant_width",
                        "gauge": {"kind": "ball", "r": 1.0},
                        "odd": {"basis": "garbage"}}, grid32)


def test_infinite_degree_is_a_value_error(grid16):
    # int(inf) raises OverflowError, which the resolvers' callers, catching
    # ValueError, did not expect
    inf = math.inf
    gauge = {"kind": "ball", "r": 1.0}
    with pytest.raises(ValueError):
        wb.body_from_spec({"basis": "real-sph-harm", "lmax": inf, "coeffs": [1.0]})
    for recipe in ({"kind": "ellipsoid", "axes": [1, 1, 2], "lmax": inf},
                   {"kind": "random_convex", "seed": 1, "lmax": inf},
                   {"kind": "constant_width", "gauge": gauge,
                    "odd": {"harmonics": [[inf, 0, 1.0]]}}):
        with pytest.raises(ValueError):
            resolve_recipe(recipe, grid16)
