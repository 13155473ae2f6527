"""Support-function algebra: width, parity split, Minkowski sums, convexity
certificates, volume, and the JSON body format.

Zonal oracle used below: for h depending only on the polar angle, the
support matrix in the (theta-hat, phi-hat) frame is
diag(h + h'', h + cot(theta) h'). The frozen constants were computed with
sympy from that reduction (see the repeated values in test comments).
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import pure_harmonic
import widthbright as wb
from widthbright import (
    SupportFunction, NotConvexError,
    ball, ellipsoid, basis_index, make_basis, width, central_symmetral, odd_part,
    minkowski_sum, certify_convex, volume,
)
from widthbright.body import (
    _field, body_to_spec, body_from_spec, inverse_gauss, read_degree,
)
from widthbright.sphere import (
    basis_values, make_grid, node_tables, _solid_jets,
)

FOUR_PI = 4.0 * math.pi


def harmonic(l, m, coeff=1.0, lmax=None, extra=None):
    lmax = max([l, lmax or 0] + [le for le, _, _ in extra or []])
    coeffs = np.zeros((lmax + 1) ** 2)
    coeffs[0] = 2.0 * math.sqrt(math.pi)  # the constant 1
    coeffs[basis_index(l, m)] = coeff
    for le, me, ce in extra or []:
        coeffs[basis_index(le, me)] = ce
    return SupportFunction(coeffs, lmax)


# ---------------------------------------------------------------------------
# width

def test_width_of_ball(grid32):
    assert np.abs(width(ball(1.0), grid32) - 2.0).max() < 1e-12


def test_width_ignores_odd_part(grid32):
    h = harmonic(3, 1, 0.1)
    assert np.abs(width(h, grid32) - 2.0).max() < 1e-12


def test_width_doubles_even_part(grid32):
    h = harmonic(2, 0, 0.1)
    y20 = basis_values(make_basis(2), grid32.nodes)[:, basis_index(2, 0)]
    np.testing.assert_allclose(width(h, grid32), 2.0 + 0.2 * y20, atol=1e-12)


def test_width_equals_twice_symmetral_values(grid32):
    rng = np.random.default_rng(4)
    h = SupportFunction(rng.standard_normal(49) * 0.05 + np.eye(49)[0] * 4.0, 6)
    np.testing.assert_allclose(
        width(h, grid32), 2.0 * inverse_gauss(central_symmetral(h), grid32).values,
        atol=1e-12)


# ---------------------------------------------------------------------------
# parity split

def test_symmetral_of_ball_is_ball():
    assert np.array_equal(central_symmetral(ball(1.0)).coeffs, ball(1.0).coeffs)


def test_symmetral_removes_odd_terms():
    h = harmonic(3, 2, 0.3)
    s = central_symmetral(h)
    assert s.coeffs[basis_index(3, 2)] == 0.0
    assert s.coeffs[0] == h.coeffs[0]


def test_symmetral_keeps_even_terms():
    h = harmonic(2, 0, 0.2, extra=[(3, 0, 0.4)])
    s = central_symmetral(h)
    assert s.coeffs[basis_index(2, 0)] == 0.2
    assert s.coeffs[basis_index(3, 0)] == 0.0


def test_odd_part_examples():
    assert np.all(odd_part(ball(2.0)).coeffs == 0.0)
    h = harmonic(3, 0, 0.7)
    p = odd_part(h)
    assert p.coeffs[basis_index(3, 0)] == 0.7
    assert p.coeffs[0] == 0.0


def test_parity_split_reconstructs_exactly():
    rng = np.random.default_rng(8)
    h = SupportFunction(rng.standard_normal(36), 5)
    assert np.array_equal(
        central_symmetral(h).coeffs + odd_part(h).coeffs, h.coeffs)


# ---------------------------------------------------------------------------
# Minkowski sum

def test_minkowski_sum_of_balls():
    s = minkowski_sum(ball(1.5), ball(0.5))
    np.testing.assert_allclose(s.coeffs, ball(2.0).coeffs, rtol=1e-15)
    assert s.closed_form == "ball:2.0"


def test_minkowski_sum_with_zero():
    h = harmonic(2, 1, 0.05)
    zero = SupportFunction(np.zeros(1), 0)
    assert np.array_equal(minkowski_sum(h, zero).coeffs, h.coeffs)


def test_minkowski_sum_cancels_odd_parts():
    a = harmonic(3, 0, 0.2)
    b = harmonic(3, 0, -0.2)
    s = minkowski_sum(a, b)
    assert s.coeffs[basis_index(3, 0)] == 0.0
    assert abs(s.coeffs[0] - 2.0 * 2.0 * math.sqrt(math.pi)) < 1e-15


def test_minkowski_sum_pads_shorter_body():
    s = minkowski_sum(ball(1.0), harmonic(4, -2, 0.01))
    assert s.lmax == 4
    assert s.coeffs[basis_index(4, -2)] == 0.01


# ---------------------------------------------------------------------------
# convexity certificate

def test_certificate_of_ball(grid32):
    cert = certify_convex(ball(1.0), grid32)
    assert cert.convex
    assert abs(cert.min_eigenvalue - 1.0) < 1e-10
    assert abs(cert.det_min - 1.0) < 1e-10


def test_certificate_superadditivity(grid32):
    # adding a certified body to ball(r) keeps det >= r^2: the summed
    # support matrix is r I plus a PSD matrix
    for r in (0.3, 1.0):
        for seed in range(20):
            h1 = wb.random_convex(seed, 6, grid32)
            cert = certify_convex(minkowski_sum(ball(r), h1), grid32)
            assert cert.det_min >= r * r - 1e-6


def test_large_odd_perturbation_is_not_convex(grid32):
    # sympy zonal oracle for h = 1 + 5 Y30: the minimum eigenvalue over the
    # 32 Gauss-Legendre rings is -17.65346217525563
    h = harmonic(3, 0, 5.0)
    cert = certify_convex(h, grid32)
    assert not cert.convex
    assert cert.min_eigenvalue < 0.0
    assert abs(cert.min_eigenvalue - (-17.65346217525563)) < 1e-9
    assert 0 <= cert.node_of_min < grid32.n_nodes


def test_node_of_min_ignores_last_bit_roundoff(grid32):
    # the spheroid's minimum is tied along a ring; argmin moved with the
    # last bit of the coefficients
    h = ellipsoid(1, 1, 2, lmax=12)
    cert = certify_convex(h, grid32)
    for factor in (1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53):
        again = certify_convex(SupportFunction(h.coeffs * factor, 12), grid32)
        assert again.node_of_min == cert.node_of_min
    assert cert.node_of_min % grid32.n_phi == 0


def test_record_follows_coefficient_changes(grid32):
    h = ball(1.0)
    before = inverse_gauss(h, grid32)
    assert abs(certify_convex(h, grid32).min_eigenvalue - 1.0) < 1e-12
    h.coeffs[0] *= 2.0
    after = inverse_gauss(h, grid32)
    assert after is not before
    assert abs(certify_convex(h, grid32).min_eigenvalue - 2.0) < 1e-12
    np.testing.assert_allclose(after.values, 2.0 * before.values, rtol=1e-15)
    np.testing.assert_allclose(after.detfield, 4.0 * before.detfield, rtol=1e-14)
    # keyed by the coefficient values: an equal body shares the record
    assert inverse_gauss(SupportFunction(h.coeffs.copy(), 0), grid32) is after


def test_record_is_read_only(grid16):
    field = inverse_gauss(harmonic(3, 1, 0.05), grid16)
    arrays = [v for v in vars(field).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 6
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        field.values = np.zeros(grid16.n_nodes)


def test_pole_points_match_a_direct_evaluation():
    # the record reads the poles' phi rows from the node tables; they stay
    # bitwise what a fresh recurrence at the poles gives, with phi[i, :, q] =
    # dR_q(u_i) + (1 - l_q) R_q(u_i) u_i
    grid = make_grid(4, 8)
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    rng = np.random.default_rng(3)
    for lmax in range(17):
        basis = make_basis(lmax)
        c = rng.standard_normal(basis.size)
        jets = _solid_jets(poles, lmax)
        phi = jets[1:4] + ((1.0 - basis.degrees)[:, None] * jets[0]) \
            * poles.T[:, None, :]
        direct = phi.transpose(2, 0, 1) @ c
        got = inverse_gauss(SupportFunction(c, lmax), grid).pole_points
        assert np.array_equal(got, direct), lmax


def test_pole_rows_are_built_with_their_node_tables():
    # the pole rows had a cache of their own per basis; they are read-only
    # rows of each (grid, basis) table, the same on every grid
    basis = make_basis(5)
    rng = np.random.default_rng(4)
    rows = []
    for grid in (make_grid(4, 8), make_grid(6, 12)):
        tab = node_tables(grid, basis)
        assert tab.POLES.shape == (2, 3, basis.size)
        assert not tab.POLES.flags.writeable
        with pytest.raises(ValueError):
            tab.POLES[0, 0, 0] = 0.0
        assert np.array_equal(node_tables.__wrapped__(grid, basis).POLES,
                              tab.POLES)
        c = rng.standard_normal(basis.size)
        got = inverse_gauss(SupportFunction(c, 5), grid).pole_points
        assert np.array_equal(got, tab.POLES @ c)
        rows.append(tab.POLES)
    assert np.array_equal(*rows)


def test_zonal_oracle_matrix_entries(grid32):
    # frozen from the zonal reduction of Y30 at the first ring of the
    # symmetrized 32-point Gauss-Legendre rule
    c = np.zeros(16)
    c[basis_index(3, 0)] = 1.0
    ent0 = inverse_gauss(SupportFunction(c, 3), grid32).entries[0]
    np.testing.assert_allclose(
        ent0, [3.6402026920967785, 0.0, 3.7012152024465323], atol=1e-12)


# ---------------------------------------------------------------------------
# volume

def test_volume_of_balls(grid32):
    assert abs(volume(ball(1.0), grid32) - FOUR_PI / 3.0) < 1e-8
    assert abs(volume(ball(2.0), grid32) - 8.0 * FOUR_PI / 3.0) < 1e-7


def test_volume_drops_below_symmetral_for_odd_part(grid32):
    rec = wb.constant_width_body(ball(1.0), pure_harmonic(3, 0), math.inf, grid32)
    v = volume(rec.resolved, grid32)
    assert v < FOUR_PI / 3.0 - 1e-6
    v0 = volume(central_symmetral(rec.resolved), grid32)
    assert v0 > v


def test_volume_refuses_non_convex(grid32):
    with pytest.raises(NotConvexError):
        volume(harmonic(3, 0, 5.0), grid32)


def test_symmetral_volume_dominates_for_random_bodies(grid32):
    for seed in range(20):
        h = wb.random_convex(seed, 6, grid32)
        assert volume(central_symmetral(h), grid32) >= volume(h, grid32) - 1e-8


# ---------------------------------------------------------------------------
# scaling and construction guards

def test_support_function_validates_inputs():
    with pytest.raises(ValueError):
        SupportFunction(np.zeros(5), 1)  # wrong length for lmax 1
    with pytest.raises(ValueError):
        SupportFunction(np.array([np.nan]), 0)


# ---------------------------------------------------------------------------
# JSON body format

def test_body_spec_roundtrip():
    h = harmonic(2, -1, 0.07, extra=[(3, 3, -0.02)])
    spec = body_to_spec(h)
    assert spec["basis"] == "real-sph-harm"
    assert spec["lmax"] == h.lmax
    assert len(spec["coeffs"]) == h.coeffs.size
    back = body_from_spec(spec)
    assert np.array_equal(back.coeffs, h.coeffs)

    loaded = body_from_spec(json.loads(json.dumps(body_to_spec(ball(1.5)))))
    assert np.array_equal(loaded.coeffs, ball(1.5).coeffs)
    assert loaded.closed_form == "ball:1.5"
    assert loaded.label == ball(1.5).label


def test_body_spec_coefficient_order():
    # (l, m) lexicographic, l ascending, m from -l to l: the degree-1
    # block sits at positions 1..3
    h = harmonic(1, -1, 0.5)
    spec = body_to_spec(h)
    assert spec["coeffs"][1] == 0.5


def test_body_from_spec_rejects_garbage():
    with pytest.raises(ValueError):
        body_from_spec({"basis": "other", "lmax": 0, "coeffs": [1.0]})
    with pytest.raises(ValueError):
        body_from_spec({"basis": "real-sph-harm", "lmax": 2, "coeffs": [1.0]})


def test_body_from_spec_refuses_a_tolerance_that_is_not_finite_and_nonnegative():
    # a nan or infinite tolerance made the closed-form check pass whatever
    # the coefficients: radius 2.82 loaded as ball:1.0
    spec = {"basis": "real-sph-harm", "lmax": 0, "coeffs": [10.0],
            "closed_form": "ball:1.0"}
    for tol in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="truncation_tol"):
            body_from_spec(dict(spec, truncation_tol=tol))
    # a bad tolerance is refused without a closed form to check, too
    with pytest.raises(ValueError, match="truncation_tol"):
        body_from_spec(dict(spec, closed_form=None, truncation_tol=math.nan))


def test_body_from_spec_guards_the_degree_for_the_grid_it_is_read_for():
    # the guard lived in each caller, which had to pre-read the spec's lmax
    # before body_from_spec's closed-form check built a basis at it
    spec = body_to_spec(ball(1.0))
    spec["lmax"] = 16
    spec["coeffs"] += [0.0] * (17 ** 2 - 1)
    before = make_basis.cache_info(), node_tables.cache_info()
    with pytest.raises(ValueError, match="grid too coarse for lmax 16"):
        body_from_spec(spec, 16)
    assert (make_basis.cache_info(), node_tables.cache_info()) == before
    h = body_from_spec(spec)
    assert h.lmax == 16 and h.closed_form == "ball:1.0"
    assert body_from_spec(spec, 17).lmax == 16


def test_closed_form_consistency_is_checked(grid32):
    # a closed_form tag whose samples disagree with the coefficients beyond
    # the recorded truncation tolerance is refused on load
    spec = body_to_spec(ball(1.0))
    spec["coeffs"][0] *= 1.5
    with pytest.raises(ValueError):
        body_from_spec(spec)


def test_closed_form_check_reads_values_only():
    # the check used to evaluate the body through inverse_gauss on its
    # 16x32 grid, building and caching value, gradient and Hessian tables
    # and a field record there only to read the values
    specs = [body_to_spec(ellipsoid(1, 1, 2, lmax=10)), body_to_spec(ball(1.5))]
    before = node_tables.cache_info(), _field.cache_info()
    for spec in specs:
        assert body_from_spec(spec).closed_form == spec["closed_form"]
    assert (node_tables.cache_info(), _field.cache_info()) == before


# ---------------------------------------------------------------------------
# integer fields

def test_read_degree_takes_whole_numbers_and_refuses_booleans_and_fractions():
    for value in (40, 40.0, "40"):
        assert read_degree(value) == 40
    for value in (True, False, 6.7, 0.9, -0.5):
        with pytest.raises(ValueError, match="lmax must be an integer"):
            read_degree(value)
    with pytest.raises(TypeError):
        read_degree(None)
    with pytest.raises(OverflowError):
        read_degree(float("inf"))
