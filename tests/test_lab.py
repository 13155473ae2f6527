"""Determinant parity identities and the brightness-variance descent."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import pure_harmonic
from widthbright import (
    SupportFunction, ball, ellipsoid, basis_index, random_convex, random_odd,
    constant_width_body, brightness_profile, central_symmetral, odd_part,
    inverse_gauss, parity_decomposition_check, odd_sign_obstruction,
    minimize_brightness_variance,
)
from widthbright import lab
from widthbright.body import _padded
from widthbright.brightness import _cosine_operator, cosine_transform
from widthbright.sphere import (
    entries_eigmin, make_basis, make_grid, node_columns, node_tables,
    sigma_entries, synthesize,
)


# ---------------------------------------------------------------------------
# sigma, the polarization of det, on entry rows (m11, m12, m22)

def rows(*matrices):
    return np.array([[M[0, 0], M[0, 1], M[1, 1]] for M in matrices])


def test_sigma_form_examples():
    I = np.eye(2)
    A = np.diag([2.0, 3.0])
    got = sigma_entries(rows(I, A, I), rows(I, A, A))
    np.testing.assert_allclose(got, [1.0, 6.0, 2.5], rtol=0, atol=1e-15)


def test_sigma_form_is_the_det_polarization():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((1000, 3))
    B = rng.standard_normal((1000, 3))
    det = lambda e: e[:, 0] * e[:, 2] - e[:, 1] ** 2
    want = 0.5 * (det(A + B) - det(A) - det(B))
    assert np.abs(sigma_entries(A, B) - want).max() < 1e-12


def test_sigma_entries_match_matrix_form():
    # the 2x2 trace formula sigma(A, B) = (tr A tr B - tr(AB)) / 2
    rng = np.random.default_rng(5)
    a = rng.standard_normal((50, 3))
    b = rng.standard_normal((50, 3))
    got = sigma_entries(a, b)
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

def zero_start(lmax=5):
    """The start at the gauge itself: a support function with no odd part."""
    return SupportFunction(np.zeros((lmax + 1) ** 2), lmax)


def test_optimizer_accepts_gauge_itself(grid32):
    trace = minimize_brightness_variance(
        ball(1.0), zero_start(), grid32, degrees=(3, 5))
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
        minimize_brightness_variance(ball(1.0), zero_start(), grid32,
                                     degrees=(2, 4))
    with pytest.raises(ValueError):
        minimize_brightness_variance(ball(1.0), zero_start(), grid32,
                                     degrees=(1, 3))
    asym = SupportFunction(
        2.0 * math.sqrt(math.pi) * np.eye(16)[0]
        + 0.01 * np.eye(16)[basis_index(3, 0)], 3)
    with pytest.raises(ValueError):
        minimize_brightness_variance(asym, zero_start(), grid32)
    with pytest.raises(ValueError, match="init_odd has support outside "
                       "the variable degrees"):
        minimize_brightness_variance(ball(1.0), random_odd(3, degrees=(7,)),
                                     grid32, degrees=(3, 5))
    # a repeated degree counted each of its coefficients twice in MJ @ c
    with pytest.raises(ValueError, match="must not repeat"):
        minimize_brightness_variance(ball(1.0), zero_start(3), grid32,
                                     degrees=(3, 3))


def test_variable_degrees_read_as_a_tuple_of_ints():
    got = lab.require_variable_degrees([5.0, np.int64(3)])
    assert got == (5, 3) and all(type(d) is int for d in got)


def relative_brightness_table(gauge, grid, degrees=(3, 5)):
    """The full per-node table RQ, one column per ordered pair (j, k), built
    from entry-major support matrices M0 (3, N) and MJ (3, N, nv) taken from
    the node tables, not from the model: relative brightness is
    1 + RQ vec(c c^T)."""
    model = lab._quadratic_model(inverse_gauss(gauge, grid), degrees)
    tab = node_tables(grid, model.basis)
    M0 = synthesize(tab, _padded(gauge.coeffs, gauge.lmax, model.basis.lmax))[1].T
    MJ = node_columns(tab, model.idx).transpose(1, 0, 2)
    rows = MJ.transpose(1, 2, 0)
    quad = sigma_entries(rows[:, :, None, :], rows[:, None, :, :])
    b0 = brightness_profile(gauge, grid).areas
    RQ = 0.5 * cosine_transform(quad.reshape(grid.n_nodes, -1), grid,
                                grid.nodes) / b0[:, None]
    return RQ, M0, MJ


def weighted_variance(r, grid):
    wn = grid.weights.astype(r.dtype) / (4 * np.pi)
    d = r - wn @ r
    return wn @ (d * d)


def test_variance_fast_path_matches_brightness_profiles(grid32):
    model = lab._quadratic_model(inverse_gauss(ball(1.0), grid32), (3, 5))
    RQ, _, _ = relative_brightness_table(ball(1.0), grid32)
    c = random_odd(4, degrees=(3, 5), scale=0.02).coeffs[model.idx]
    r = RQ @ np.outer(c, c).ravel()
    coeffs = np.zeros(model.basis.size)
    coeffs[0] = 2.0 * math.sqrt(math.pi)
    coeffs[model.idx] = c
    h = SupportFunction(coeffs, model.basis.lmax)
    ratio = brightness_profile(h, grid32).areas \
        / brightness_profile(ball(1.0), grid32).areas
    np.testing.assert_allclose(r, ratio - 1.0, atol=1e-12)


def test_gram_form_matches_the_direct_variance(grid32):
    # z^T G z against (a) the weighted variance of RQ z in longdouble and
    # (b) the weighted variance of the brightness ratio of gauge + p_c
    for gauge in (ball(1.0), ellipsoid(1, 1, 2)):
        model = lab._quadratic_model(inverse_gauss(gauge, grid32), (3, 5))
        RQ, _, _ = relative_brightness_table(gauge, grid32)
        u = random_odd(8, degrees=(3, 5)).coeffs[model.idx]
        u /= np.linalg.norm(u)
        for norm in (1e-1, 1e-3, 1e-5):
            c = norm * u
            z = np.outer(c, c).ravel().astype(np.longdouble)
            want = weighted_variance(RQ.astype(np.longdouble) @ z, grid32)
            assert abs(model.variance(c)[0] / want - 1.0) < 1e-13

        c = 5e-2 * u  # convex: least support-matrix eigenvalue 0.23 or more
        lmax = model.basis.lmax
        h = SupportFunction(_padded(gauge.coeffs, gauge.lmax, lmax), lmax)
        h.coeffs[model.idx] = c
        ratio = brightness_profile(h, grid32).areas \
            / brightness_profile(gauge, grid32).areas
        want = weighted_variance(ratio, grid32)
        assert abs(model.variance(c)[0] / want - 1.0) < 1e-12


@pytest.mark.parametrize("degrees", [(3, 5), (3, 5, 7)])
def test_half_model_matches_the_full_gram_form(grid32, degrees):
    # the model keeps G on z_h = (c_j c_k), j <= k; the full nv^2 x nv^2
    # Gram matrix of vec(c c^T), built here from the same sigma table,
    # gives the same F
    for gauge in (ball(1.0), ellipsoid(1, 1, 2)):
        model = lab._quadratic_model(inverse_gauss(gauge, grid32), degrees)
        nv = model.idx.size
        assert model.G.shape == (nv * (nv + 1) // 2,) * 2
        RQ, _, _ = relative_brightness_table(gauge, grid32, degrees)
        wn = grid32.weights / (4 * np.pi)
        RQc = RQ - wn @ RQ
        G_full = RQc.T @ (wn[:, None] * RQc)
        rng = np.random.default_rng(len(degrees))
        for _ in range(3):
            c = 0.05 * rng.standard_normal(nv)
            z = np.outer(c, c).ravel()
            want = z @ (G_full @ z)
            assert abs(model.variance(c)[0] / want - 1.0) < 1e-13


def test_variance_valley_is_quartic_for_even_gauges(grid32):
    # odd perturbations of an even gauge change brightness at second order,
    # so the variance is quartic near the bottom: F(2c) ~ 16 F(c)
    model = lab._quadratic_model(inverse_gauss(ball(1.0), grid32), (3, 5))
    c = random_odd(6, degrees=(3, 5), scale=1e-3).coeffs[model.idx]
    f1 = model.variance(c)[0]
    f2 = model.variance(2.0 * c)[0]
    assert abs(f2 / f1 - 16.0) < 1e-3


def test_linear_brightness_term_of_an_even_gauge_is_roundoff(grid32):
    # the model keeps no linear table: for an even gauge, 2 sigma(M0, Mj) is
    # odd and the cosine transform kills it, leaving roundoff against RQ
    for gauge in (ball(1.0), ellipsoid(1, 1, 2)):
        RQ, M0, MJ = relative_brightness_table(gauge, grid32)
        lin = 2.0 * sigma_entries(M0.T[:, None, :], MJ.transpose(1, 2, 0))
        b0 = brightness_profile(gauge, grid32).areas
        RL = 0.5 * cosine_transform(lin, grid32, grid32.nodes) / b0[:, None]
        assert np.abs(RL).max() <= 1e-13 * np.abs(RQ).max()


def test_variance_gradient_matches_central_differences(grid32):
    rng = np.random.default_rng(11)
    step = 1e-5
    for gauge, degrees in ((ball(1.0), (3, 5)), (ellipsoid(1, 1, 2), (3, 5)),
                           (ellipsoid(1, 1, 2), (3, 5, 7))):
        model = lab._quadratic_model(inverse_gauss(gauge, grid32), degrees)
        for _ in range(3):
            c = 0.05 * rng.standard_normal(model.idx.size)
            fd = np.array([
                (model.variance(c + step * e)[0] - model.variance(c - step * e)[0])
                / (2.0 * step)
                for e in np.eye(c.size)])
            g = model.gradient(model.variance(c)[1], c)
            assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(fd)


@pytest.mark.parametrize("nv", [18, 33])
def test_index_maps_reproduce_the_triangle_formulas(grid32, nv):
    # variance gathers z_h through the model's flat index and gradient
    # builds Y from its position map; both equal, bit for bit, the formulas
    # z_h = outer(c, c)[triu_indices] and grad F = 2 (Y + Y^T) c with Y
    # the upper triangle of G z_h, here for a random Gram matrix G
    rng = np.random.default_rng(nv)
    m = nv * (nv + 1) // 2
    A = rng.standard_normal((m, m))
    G = A.T @ A
    degrees = {18: (3, 5), 33: (3, 5, 7)}[nv]
    model = dataclasses.replace(
        lab._quadratic_model(inverse_gauss(ball(1.0), grid32), degrees), G=G)
    for _ in range(5):
        c = rng.standard_normal(nv) * 10.0 ** rng.uniform(-6, 0)
        z = np.outer(c, c)[np.triu_indices(nv)]
        Gz = G @ z
        F, Gz_got = model.variance(c)
        assert F == float(z @ Gz)
        assert np.array_equal(Gz_got, Gz)
        Y = np.zeros((nv, nv))
        Y[np.triu_indices(nv)] = Gz
        assert np.array_equal(model.gradient(Gz, c), 2.0 * ((Y + Y.T) @ c))


@pytest.mark.parametrize("shape", [(32, 64), (11, 22), (13, 26)])
def test_half_sphere_floor_matches_every_node(shape):
    # the floor tables hold N/2 nodes; at the antipodes F0 - FJ c gives the
    # same least eigenvalue as the full support matrix there, so min_eig
    # is the least eigenvalue over all N nodes
    grid = make_grid(*shape)
    n = grid.n_nodes
    rng = np.random.default_rng(shape[0])
    for gauge in (ball(1.0), ellipsoid(1, 1, 2)):
        model = lab._quadratic_model(inverse_gauss(gauge, grid), (3, 5))
        nv = model.idx.size
        assert model.F0.shape == (3, n // 2)
        assert model.FJ.shape == (3 * (n // 2), nv)
        tab = node_tables(grid, model.basis)
        h = _padded(gauge.coeffs, gauge.lmax, model.basis.lmax)
        for _ in range(200):
            u = rng.standard_normal(nv)
            c = u * (10.0 ** rng.uniform(-6, 0) / np.linalg.norm(u))
            h[model.idx] = c
            e = synthesize(tab, h)[1]
            want = entries_eigmin(e).min()
            # the spectral radius over all nodes
            lam = np.abs(np.linalg.eigvalsh(e[:, [0, 1, 1, 2]].reshape(-1, 2, 2))).max()
            assert abs(model.min_eig(c) - want) <= 64 * np.spacing(lam)


def test_probe_model_is_read_only(grid32):
    # the model is cached per gauge: a write into one of its arrays would
    # reach every later probe on that gauge
    model = lab._quadratic_model(inverse_gauss(ellipsoid(1, 1, 2), grid32), (3, 5))
    tables = [v for v in vars(model).values() if isinstance(v, np.ndarray)]
    assert len(tables) == 6  # idx, F0, FJ, G, flat, pos
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.G = np.zeros_like(model.G)


def test_optimizer_stalls_safely_on_an_under_resolved_grid():
    # 6 rings cannot resolve degree 5: the descent meets curvature pairs
    # with s.y <= 0 (the doubled Barzilai-Borwein step) and ends when
    # _MAX_BACKTRACK halvings fail. The state count moves with roundoff
    # (BLAS build and thread count), so only the invariants are checked.
    grid = make_grid(6, 12)
    gauge = ball(1.0)
    for seed in range(4):
        start = random_odd(seed, degrees=(3, 5), scale=1.0)
        # half the convexity bound, as verify-theorem's default start
        eps = 0.5 * constant_width_body(gauge, start, math.inf, grid).params["eps"]
        init = SupportFunction(start.coeffs * eps, start.lmax)
        trace = minimize_brightness_variance(gauge, init, grid, degrees=(3, 5),
                                             max_iter=500)
        states = np.array(trace.iterations)
        assert trace.terminal_status == "stalled", seed
        assert len(states) < 500 + 1, seed  # a failed backtrack, not max_iter
        assert np.all(np.diff(states[:, 1]) <= 0.0), seed
        assert np.all(states[:, 2] >= 0.01), seed
        assert states[-1, 0] > 1e-3, seed


@pytest.mark.parametrize("value", [np.nan, 1e160])
def test_optimizer_reports_a_far_or_nan_start_infeasible(grid32, value):
    # 1e160 squares past the double range: under the commands' errstate
    # that is a start outside the convexity region, not an overflow. The
    # value is written after the start is built, which refuses a NaN
    init = zero_start()
    init.coeffs[lab._variable_indices((3, 5))] = value
    with np.errstate(all="raise", under="ignore"):
        trace = minimize_brightness_variance(ball(1.0), init, grid32)
    assert trace.terminal_status == "infeasible"
    assert trace.iterations == []


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


def test_two_descents_on_one_gauge_build_one_model(grid32):
    # the model is keyed by the gauge's record, which inverse_gauss hands
    # to both descents
    gauge = ellipsoid(1, 1, 2)
    lab._quadratic_model.cache_clear()
    for seed in (0, 1):
        minimize_brightness_variance(
            gauge, random_odd(seed, degrees=(3, 5), scale=0.01), grid32,
            max_iter=0)
    info = lab._quadratic_model.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_gauge_model_holds_no_table_of_sigma_columns(grid32):
    # the model used to transform all nv^2 = 324 sigma columns at once,
    # about six live 2048 x 325 copies, 36.9 MiB, to keep a 0.8 MiB G; on
    # all nv^2 ordered pairs it peaked at 8.0 MiB for (3, 5) and 28.7 MiB
    # for (3, 5, 7), and on the nv(nv+1)/2 pairs j <= k at 5.5 and 14.0
    gauge = ellipsoid(1, 1, 2)
    node_tables(grid32, make_basis(gauge.lmax))
    _cosine_operator(grid32)
    for degrees, bound_mib in (((3, 5), 6.5), ((3, 5, 7), 16.5)):
        tracemalloc.start()
        lab._quadratic_model.__wrapped__(inverse_gauss(gauge, grid32), degrees)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < bound_mib * 2 ** 20, degrees


def test_gauge_model_reads_the_gauge_record(grid32, monkeypatch):
    # the model evaluated the gauge a second time, with its own product of
    # the node tables, after the margin check had evaluated it already
    gauge = ellipsoid(1, 1.5, 2)
    inverse_gauss(gauge, grid32)
    calls = []

    def spy(tab, c):
        calls.append(c.shape)
        return synthesize(tab, c)

    monkeypatch.setattr(lab, "synthesize", spy)
    model = lab._quadratic_model.__wrapped__(inverse_gauss(gauge, grid32),
                                             (3, 5))
    assert calls == []
    field = inverse_gauss(gauge, grid32)
    e = field.entries[grid32.half]
    assert np.array_equal(model.F0[0], 0.5 * (e[:, 0] + e[:, 2]))


def test_one_cosine_operator_per_grid():
    # the on-grid transform and the gauge tables share one ring table
    grid = make_grid(12, 24)
    _cosine_operator.cache_clear()
    lab._quadratic_model.cache_clear()
    brightness_profile(ball(1.0), grid)
    minimize_brightness_variance(ball(1.0), zero_start(), grid)
    info = _cosine_operator.cache_info()
    assert info.hits >= 1 and info.currsize == 1
