"""Body generators: exact closed forms, seeded random families, and the
width-preserving constant-width construction."""

import json
import math

import numpy as np
import pytest

from conftest import pure_harmonic
import widthbright as wb
from widthbright import (
    NotConvexError, SupportFunction, ball, ellipsoid, basis_index,
    certify_convex, width, constant_width_body, random_convex, random_odd,
    resolve_recipe, central_symmetral, brightness_profile,
)
from widthbright.body import body_from_spec, body_to_spec, closed_form_values, \
    _field
from widthbright.boundary import inverse_gauss
from widthbright.sphere import make_basis, make_grid, node_tables, basis_values


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
    V = basis_values(make_basis(9), u)
    want = V.T @ (grid.weights * hv)
    want[h.basis.degrees % 2 == 1] = 0.0
    np.testing.assert_array_equal(h.coeffs, want)
    assert h.truncation_tol == float(np.abs(V @ want - hv).max())


def test_ellipsoid_spec_fitted_on_a_coarse_grid_loads():
    # a degree-18 fit almost interpolates at its own 20x40 nodes, where it
    # measured 2.2e-7; at the 16x32 nodes body_from_spec checks it deviates
    # 5.8e-7, so the spec was refused until truncation_tol counted them too
    h = ellipsoid(1, 1.5, 2, lmax=18, grid=make_grid(20, 40))
    back = body_from_spec(json.loads(json.dumps(body_to_spec(h))))
    assert back.coeffs.tobytes() == h.coeffs.tobytes()
    assert back.truncation_tol == h.truncation_tol


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


@pytest.mark.parametrize("shape,degrees", [
    ((32, 64), (3, 5)), ((16, 32), (3,)), ((48, 96), (3, 5, 7)),
    ((11, 22), (5,)), ((13, 26), (3, 5, 7)),
    ((20, 40), tuple(range(3, 20, 2))), ((22, 44), tuple(range(3, 22, 2)))],
    ids=lambda v: "x".join(map(str, v)))
def test_constant_width_bound_has_the_record_bits_without_the_record(shape, degrees):
    # rho comes from p's support-matrix entries alone, not from a field
    # record of p, and has the record's bits; with OpenBLAS 0.3.31, products
    # of the entry rows alone moved it by an ulp on the last two grids
    grid = make_grid(*shape)
    gauge = ball(1.0)
    inverse_gauss(gauge, grid)
    for seed, scale in ((0, 1e-3), (1, 1.0), (2, 10.0)):
        p = random_odd(seed, degrees, scale=scale)
        misses = _field.cache_info().misses
        rho = constant_width_body(gauge, p, math.inf, grid).params["rho"]
        assert _field.cache_info().misses == misses
        assert rho == float(np.abs(inverse_gauss(p, grid).eigmin).max())


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
    # the body is the zero-padded sum gauge + eps p, to the byte (signed
    # zeros too), for either sign of eps, p of higher or of lower degree
    for gauge, p in ((ball(1.0), random_odd(5)),
                     (ellipsoid(1, 1, 2), random_odd(4, degrees=(3, 5)))):
        lmax = max(gauge.lmax, p.lmax)
        for eps in (math.inf, -math.inf, 0.01, -0.01):
            rec = constant_width_body(gauge, p, eps, grid32)
            padded = np.zeros((2, (lmax + 1) ** 2))
            padded[0, :gauge.coeffs.size] = gauge.coeffs
            padded[1, :p.coeffs.size] = p.coeffs
            want = padded[0] + rec.params["eps"] * padded[1]
            assert rec.resolved.coeffs.tobytes() == want.tobytes()
            assert rec.resolved.label == "constant_width(%s + %g*%s)" % (
                gauge.label, rec.params["eps"], p.label)
            assert rec.resolved.closed_form is None


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
    with pytest.raises(NotConvexError):
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
    # for odd p the support matrix at -u is minus the one at u, written in
    # the frame (e1, -e2): m11 and m22 flip sign and m12 keeps it, so the
    # least eigenvalue at -u is minus the largest at u and constant_width_body
    # reads the spectral radius from the least eigenvalues alone
    p = random_odd(12, degrees=(3, 5, 7))
    field = inverse_gauss(p, grid32)
    ent = field.entries
    assert np.array_equal(ent[grid32.antipode_index], ent * [-1.0, 1.0, -1.0])
    hi = np.linalg.eigvalsh(ent[:, [0, 1, 1, 2]].reshape(-1, 2, 2))[:, 1]
    np.testing.assert_allclose(-field.eigmin[grid32.antipode_index], hi,
                               atol=1e-12)


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


def test_random_convex_refuses_a_missing_seed(grid16):
    # None made numpy draw fresh entropy: a "seed": null recipe resolved to
    # a different body on every run
    with pytest.raises(ValueError, match="seed"):
        random_convex(None, 6, grid16)
    with pytest.raises(ValueError, match="seed"):
        resolve_recipe({"kind": "random_convex", "lmax": 6, "seed": None}, grid16)


def test_random_convex_refuses_a_boolean_seed(grid16):
    # True seeded the body as 1 and was written back as "seed": true
    for seed in (True, False):
        with pytest.raises(ValueError, match="integer seed"):
            random_convex(seed, 6, grid16)


def looped_random_odd(seed, degrees, scale=1.0):
    """The reference draw order of random_odd's start: one standard normal
    per (l, m), degrees as given, m from -l to l."""
    basis = make_basis(max(degrees))
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(basis.size)
    for l in degrees:
        for m in range(-l, l + 1):
            coeffs[basis_index(l, m)] = rng.standard_normal()
    return coeffs * (scale / np.linalg.norm(coeffs))


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
    # degree 1 is a translation: the probe's degree rule refuses it here too
    with pytest.raises(ValueError, match="odd and >= 3"):
        random_odd(7, degrees=(1, 3))
    # seeded starts keep their bits: one draw per variable, in the order
    # of the reference loop, unsorted degree sets included
    for seed in (0, 1, 7, 2 ** 40):
        for degrees in ((3, 5, 7), (3,), (5, 3), (9, 3, 7), (11, 5)):
            for scale in (1.0, 0.25):
                got = random_odd(seed, degrees, scale)
                assert got.lmax == max(degrees)
                assert np.array_equal(
                    got.coeffs, looped_random_odd(seed, degrees, scale)), \
                    (seed, degrees, scale)


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


def test_resolver_guards_every_degree_it_reads(grid16):
    # the library resolver built tables at any degree; only the command
    # line's own walk of the recipe guarded them
    spec = {"basis": "real-sph-harm", "lmax": 16,
            "coeffs": [2.0 * math.sqrt(math.pi)] + [0.0] * (17 ** 2 - 1)}
    parts = [{"kind": "ellipsoid", "axes": [1, 1, 2], "lmax": 16},
             {"kind": "random_convex", "seed": 1, "lmax": 16},
             {"harmonics": [[3, 0, 1.0], [16, 0, 1.0]]}, spec]
    gauge = {"kind": "ball", "r": 1.0}
    odd = {"harmonics": [[3, 0, 1.0]]}
    recipes = parts[:2]
    for part in parts:
        recipes += [{"kind": "constant_width", "gauge": part, "odd": odd},
                    {"kind": "constant_width", "gauge": gauge, "odd": part}]
    for recipe in recipes:
        before = make_basis.cache_info(), node_tables.cache_info()
        with pytest.raises(ValueError, match="grid too coarse for lmax 16"):
            resolve_recipe(recipe, grid16)
        assert (make_basis.cache_info(), node_tables.cache_info()) == before, recipe


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
