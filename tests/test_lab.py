"""Determinant parity identities and the brightness-variance descent."""

import math
import tracemalloc

import numpy as np
import pytest

from widthbright import (
    SupportFunction, ball, ellipsoid, basis_index, random_convex, random_odd,
    constant_width_body, brightness_profile, central_symmetral, odd_part,
    inverse_gauss, parity_decomposition_check, odd_sign_obstruction,
    minimize_brightness_variance, trace_to_csv,
)
from widthbright import lab
from widthbright.body import _padded
from widthbright.brightness import _cosine_operator, cosine_transform
from widthbright.lab import (
    _gauge_tables, _variance, _variance_gradient, _sigma_entries,
)
from widthbright.sphere import make_basis, make_grid, node_tables


def pure_harmonic(l, m, coeff=1.0):
    coeffs = np.zeros((l + 1) ** 2)
    coeffs[basis_index(l, m)] = coeff
    return SupportFunction(coeffs, l)


# ---------------------------------------------------------------------------
# sigma, the polarization of det, on entry rows (m11, m12, m22)

def rows(*matrices):
    return np.array([[M[0, 0], M[0, 1], M[1, 1]] for M in matrices])


def test_sigma_form_examples():
    I = np.eye(2)
    A = np.diag([2.0, 3.0])
    got = _sigma_entries(rows(I, A, I), rows(I, A, A))
    np.testing.assert_allclose(got, [1.0, 6.0, 2.5], rtol=0, atol=1e-15)


def test_sigma_form_is_the_det_polarization():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((1000, 3))
    B = rng.standard_normal((1000, 3))
    det = lambda e: e[:, 0] * e[:, 2] - e[:, 1] ** 2
    want = 0.5 * (det(A + B) - det(A) - det(B))
    assert np.abs(_sigma_entries(A, B) - want).max() < 1e-12


def test_sigma_entries_match_matrix_form():
    # the 2x2 trace formula sigma(A, B) = (tr A tr B - tr(AB)) / 2
    rng = np.random.default_rng(5)
    a = rng.standard_normal((50, 3))
    b = rng.standard_normal((50, 3))
    got = _sigma_entries(a, b)
    for k in range(50):
        A = np.array([[a[k, 0], a[k, 1]], [a[k, 1], a[k, 2]]])
        B = np.array([[b[k, 0], b[k, 1]], [b[k, 1], b[k, 2]]])
        want = 0.5 * (np.trace(A) * np.trace(B) - np.trace(A @ B))
        assert abs(got[k] - want) < 1e-12


# ---------------------------------------------------------------------------
# parity decomposition of the curvature determinant

def test_parity_decomposition_of_ball(grid32):
    rep = parity_decomposition_check(ball(1.0), grid32)
    assert rep.max_odd_violation_sigma == 0.0
    assert rep.max_even_violation_det_p == 0.0
    assert np.abs(rep.identity_residual).max() == 0.0


def test_parity_decomposition_of_asymmetric_bodies(grid32):
    bodies = [
        constant_width_body(ball(1.0), random_odd(2), math.inf,
                            grid32).resolved,
        random_convex(7, 8, grid32),
    ]
    for h in bodies:
        rep = parity_decomposition_check(h, grid32)
        assert rep.max_odd_violation_sigma < 1e-12
        assert rep.max_even_violation_det_p < 1e-12
        assert np.abs(rep.identity_residual).max() < 1e-12


def test_parity_decomposition_refuses_non_convex(grid32):
    from widthbright import NotConvexError
    h = SupportFunction(
        2.0 * math.sqrt(math.pi) * np.eye(16)[0]
        + 5.0 * np.eye(16)[basis_index(3, 0)], 3)
    with pytest.raises(NotConvexError):
        parity_decomposition_check(h, grid32)


# R(u) = det M_p + (1 - beta) det M_h0 per node, on the records of the odd
# part p and the symmetral h0: constant brightness relative to the symmetral
# would force R to vanish, and the sign obstruction forbids it off the ball

def test_det_p_residual_vanishes_for_symmetric_bodies(grid32):
    # beta = 1, so R is det M_p alone
    for h in (ball(1.0), ellipsoid(1, 1, 2)):
        R = inverse_gauss(odd_part(h), grid32).detfield
        assert np.abs(R).max() < 1e-10


def test_det_p_residual_is_positive_somewhere_for_cw_bodies(grid32):
    # a non-ball constant-width body cannot have brightness proportional
    # to its symmetral: the residual must stick out above zero
    rec = constant_width_body(ball(1.0), pure_harmonic(3, 0), math.inf, grid32)
    h = rec.resolved
    areas, areas_ball = (brightness_profile(g, grid32).areas
                         for g in (h, ball(1.0)))
    w = grid32.weights
    beta = float((w * areas) @ areas_ball / ((w * areas_ball) @ areas_ball))
    R = (inverse_gauss(odd_part(h), grid32).detfield
         + (1.0 - beta) * inverse_gauss(central_symmetral(h), grid32).detfield)
    assert R.max() > 1e-3


def test_det_p_residual_scales_quadratically(grid32):
    h = random_convex(4, 6, grid32)
    R1, R2 = (inverse_gauss(odd_part(g), grid32).detfield
              + (1.0 - 0.8) * inverse_gauss(central_symmetral(g), grid32).detfield
              for g in (h, SupportFunction(2.0 * h.coeffs, h.lmax)))
    np.testing.assert_allclose(R2, 4.0 * R1, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# sign obstruction for odd parts

def test_odd_sign_obstruction_of_translations(grid32):
    mx, mn = odd_sign_obstruction(pure_harmonic(1, 0), grid32)
    assert mx == 0.0 and mn == 0.0
    mx, mn = odd_sign_obstruction(SupportFunction(np.zeros(4), 1), grid32)
    assert mx == 0.0 and mn == 0.0


def test_odd_sign_obstruction_rejects_even_input(grid32):
    with pytest.raises(ValueError):
        odd_sign_obstruction(ball(1.0), grid32)


def test_odd_dets_cannot_be_negative_everywhere(grid32):
    for seed in range(25):
        p = random_odd(seed)
        mx, mn = odd_sign_obstruction(p, grid32)
        assert mx >= -1e-10
        assert mn <= mx


# ---------------------------------------------------------------------------
# brightness-variance descent

def test_optimizer_accepts_gauge_itself(grid32):
    trace = minimize_brightness_variance(
        ball(1.0), np.zeros(18), grid32, degrees=(3, 5))
    assert trace.terminal_status == "converged_to_gauge"
    assert len(trace.iterations) == 1
    cn, var, eig, step = trace.iterations[0]
    assert cn == 0.0 and var == 0.0 and step == 0.0
    assert abs(eig - 1.0) < 1e-12


def test_optimizer_descends_to_the_ball(grid32):
    rec = constant_width_body(ball(1.0), random_odd(0, degrees=(3, 5)),
                              math.inf, grid32)
    init = random_odd(0, degrees=(3, 5), scale=0.5 * rec.params["eps"])
    trace = minimize_brightness_variance(ball(1.0), init, grid32)
    assert trace.terminal_status == "converged_to_gauge"
    variances = [row[1] for row in trace.iterations]
    assert all(b <= a for a, b in zip(variances, variances[1:]))
    eigs = [row[2] for row in trace.iterations]
    assert min(eigs) >= 0.01
    assert np.linalg.norm(trace.final_coeffs) < 1e-3


def test_optimizer_terminal_state_is_scale_stable(grid32):
    init = random_odd(1, degrees=(3, 5), scale=0.05)
    t1 = minimize_brightness_variance(ball(1.0), init, grid32)
    half = SupportFunction(0.5 * init.coeffs, init.lmax)
    t2 = minimize_brightness_variance(ball(1.0), half, grid32)
    assert t1.terminal_status == t2.terminal_status == "converged_to_gauge"


def test_optimizer_reports_infeasible_start(grid32):
    rec = constant_width_body(ball(1.0), random_odd(2, degrees=(3, 5)),
                              math.inf, grid32)
    init = random_odd(2, degrees=(3, 5), scale=1.2 * rec.params["eps"])
    trace = minimize_brightness_variance(ball(1.0), init, grid32)
    assert trace.terminal_status == "infeasible"
    assert len(trace.iterations) == 0


def test_optimizer_input_validation(grid32):
    with pytest.raises(ValueError):
        minimize_brightness_variance(ball(1.0), np.zeros(18), grid32,
                                     degrees=(2, 4))
    with pytest.raises(ValueError):
        minimize_brightness_variance(ball(1.0), np.zeros(18), grid32,
                                     degrees=(1, 3))
    asym = SupportFunction(
        2.0 * math.sqrt(math.pi) * np.eye(16)[0]
        + 0.01 * np.eye(16)[basis_index(3, 0)], 3)
    with pytest.raises(ValueError):
        minimize_brightness_variance(asym, np.zeros(18), grid32)
    with pytest.raises(ValueError):
        minimize_brightness_variance(ball(1.0), np.zeros(7), grid32)
    with pytest.raises(ValueError, match="init_odd has support outside "
                       "the variable degrees"):
        minimize_brightness_variance(ball(1.0), random_odd(3, degrees=(7,)),
                                     grid32, degrees=(3, 5))
    # a repeated degree counted each of its coefficients twice in MJ @ c
    with pytest.raises(ValueError, match="must not repeat"):
        minimize_brightness_variance(ball(1.0), np.zeros(14), grid32,
                                     degrees=(3, 3))


def relative_brightness_table(gauge, grid):
    """The per-node table RQ behind the Gram matrix, built from the model's
    entry-major support matrices: relative brightness is 1 + RQ vec(c c^T)."""
    _, _, M0, MJ, _ = _gauge_tables(gauge, grid, (3, 5))
    rows = MJ.transpose(1, 2, 0)
    quad = _sigma_entries(rows[:, :, None, :], rows[:, None, :, :])
    b0 = brightness_profile(gauge, grid).areas
    RQ = 0.5 * cosine_transform(quad.reshape(grid.n_nodes, -1), grid,
                                grid.nodes) / b0[:, None]
    return RQ, M0, MJ


def weighted_variance(r, grid):
    wn = grid.weights.astype(r.dtype) / (4 * np.pi)
    d = r - wn @ r
    return wn @ (d * d)


def test_variance_fast_path_matches_brightness_profiles(grid32):
    idx, basis, _, _, _ = _gauge_tables(ball(1.0), grid32, (3, 5))
    RQ, _, _ = relative_brightness_table(ball(1.0), grid32)
    c = random_odd(4, degrees=(3, 5), scale=0.02).coeffs[idx]
    r = RQ @ np.outer(c, c).ravel()
    coeffs = np.zeros(basis.size)
    coeffs[0] = 2.0 * math.sqrt(math.pi)
    coeffs[idx] = c
    h = SupportFunction(coeffs, basis.lmax)
    ratio = brightness_profile(h, grid32).areas \
        / brightness_profile(ball(1.0), grid32).areas
    np.testing.assert_allclose(r, ratio - 1.0, atol=1e-12)


def test_gram_form_matches_the_direct_variance(grid32):
    # z^T G z against (a) the weighted variance of RQ z in longdouble and
    # (b) the weighted variance of the brightness ratio of gauge + p_c
    for gauge in (ball(1.0), ellipsoid(1, 1, 2)):
        idx, basis, _, _, G = _gauge_tables(gauge, grid32, (3, 5))
        RQ, _, _ = relative_brightness_table(gauge, grid32)
        u = random_odd(8, degrees=(3, 5)).coeffs[idx]
        u /= np.linalg.norm(u)
        for norm in (1e-1, 1e-3, 1e-5):
            c = norm * u
            z = np.outer(c, c).ravel().astype(np.longdouble)
            want = weighted_variance(RQ.astype(np.longdouble) @ z, grid32)
            assert abs(_variance(G, c) / want - 1.0) < 1e-13

        c = 5e-2 * u  # convex: least support-matrix eigenvalue 0.23 or more
        h = SupportFunction(_padded(gauge.coeffs, gauge.lmax, basis.lmax),
                            basis.lmax)
        h.coeffs[idx] = c
        ratio = brightness_profile(h, grid32).areas \
            / brightness_profile(gauge, grid32).areas
        want = weighted_variance(ratio, grid32)
        assert abs(_variance(G, c) / want - 1.0) < 1e-12


def test_variance_valley_is_quartic_for_even_gauges(grid32):
    # odd perturbations of an even gauge change brightness at second order,
    # so the variance is quartic near the bottom: F(2c) ~ 16 F(c)
    idx, _, _, _, G = _gauge_tables(ball(1.0), grid32, (3, 5))
    c = random_odd(6, degrees=(3, 5), scale=1e-3).coeffs[idx]
    f1 = _variance(G, c)
    f2 = _variance(G, 2.0 * c)
    assert abs(f2 / f1 - 16.0) < 1e-3


def test_linear_brightness_term_of_an_even_gauge_is_roundoff(grid32):
    # the model keeps no linear table: for an even gauge, 2 sigma(M0, Mj) is
    # odd and the cosine transform kills it, leaving roundoff against RQ
    for gauge in (ball(1.0), ellipsoid(1, 1, 2)):
        RQ, M0, MJ = relative_brightness_table(gauge, grid32)
        lin = 2.0 * _sigma_entries(M0.T[:, None, :], MJ.transpose(1, 2, 0))
        b0 = brightness_profile(gauge, grid32).areas
        RL = 0.5 * cosine_transform(lin, grid32, grid32.nodes) / b0[:, None]
        assert np.abs(RL).max() <= 1e-13 * np.abs(RQ).max()


def test_variance_gradient_matches_central_differences(grid32):
    rng = np.random.default_rng(11)
    step = 1e-5
    for gauge in (ball(1.0), ellipsoid(1, 1, 2)):
        idx, _, _, _, G = _gauge_tables(gauge, grid32, (3, 5))
        for _ in range(3):
            c = 0.05 * rng.standard_normal(idx.size)
            fd = np.array([
                (_variance(G, c + step * e) - _variance(G, c - step * e))
                / (2.0 * step)
                for e in np.eye(c.size)])
            g = _variance_gradient(G, c)
            assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(fd)


def test_gauge_tables_follow_coefficient_changes(grid32):
    # tables keyed by the gauge object kept serving the radius-1 model
    # after the coefficients changed in place
    init = random_odd(0, degrees=(3, 5), scale=0.01)
    gauge = ball(1.0)
    minimize_brightness_variance(gauge, init, grid32, max_iter=0)
    gauge.coeffs[0] *= 2.0
    mutated = minimize_brightness_variance(gauge, init, grid32, max_iter=0)
    fresh = minimize_brightness_variance(
        SupportFunction(gauge.coeffs.copy(), gauge.lmax), init, grid32,
        max_iter=0)
    assert mutated.iterations == fresh.iterations


def test_gauge_model_holds_no_table_of_sigma_columns(grid32):
    # the model used to transform all nv^2 = 324 sigma columns at once,
    # about six live 2048 x 325 copies, 36.9 MiB, to keep a 0.8 MiB G
    gauge = ellipsoid(1, 1, 2)
    node_tables(grid32, make_basis(gauge.lmax))
    _cosine_operator(grid32)
    tracemalloc.start()
    lab._quadratic_model.__wrapped__(grid32, (3, 5), gauge.lmax,
                                     gauge.coeffs.tobytes())
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def test_one_cosine_operator_per_grid():
    # the on-grid transform and the gauge tables share one ring table
    grid = make_grid(12, 24)
    _cosine_operator.cache_clear()
    lab._quadratic_model.cache_clear()
    brightness_profile(ball(1.0), grid)
    minimize_brightness_variance(ball(1.0), np.zeros(18), grid)
    info = _cosine_operator.cache_info()
    assert info.hits >= 1 and info.currsize == 1


def test_trace_outputs(tmp_path, grid32):
    init = random_odd(5, degrees=(3, 5), scale=0.05)
    trace = minimize_brightness_variance(ball(1.0), init, grid32)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,coeff_norm,variance,min_eig,step"
    assert len(lines) == len(trace.iterations) + 1
    assert lines[1].startswith("0,")
