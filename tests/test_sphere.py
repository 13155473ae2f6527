"""Grid, quadrature, harmonic basis, and jet tests.

Reference values come from closed-form integrals, the spherical-harmonic
addition theorem, and finite differences of the degree-1 homogeneous
extension, taken exactly in rationals for a zonal harmonic at the pole.
None of the reference paths reuse the package's derivative tables.
"""

import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from widthbright import make_grid, make_basis, basis_index
from widthbright import sphere
from widthbright.sphere import (
    basis_values, node_tables, node_columns, synthesize,
    entries_eigmin, sigma_entries, _solid_jets,
    _PAIRS,
)
from widthbright.generators import random_convex
from widthbright.lab import random_odd
from widthbright.body import central_symmetral, inverse_gauss
from conftest import unit_vectors

FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------------------
# grid

def test_small_grid_counts_and_weight_sum():
    g = make_grid(2, 4)
    assert g.n_nodes == 8
    assert abs(g.weights.sum() - FOUR_PI) < 1e-10


def test_weights_sum_to_sphere_area(grid16, grid32):
    for g in (grid16, grid32):
        assert abs(g.weights.sum() - FOUR_PI) < 1e-10
        assert np.all(g.weights > 0.0)


def test_nodes_unit_and_frames_orthonormal(grid16):
    g = grid16
    assert np.abs(np.linalg.norm(g.nodes, axis=1) - 1.0).max() < 1e-14
    e1, e2 = g.frame[:, 0, :], g.frame[:, 1, :]
    assert np.abs(np.einsum("ij,ij->i", e1, e2)).max() < 1e-14
    assert np.abs(np.linalg.norm(e1, axis=1) - 1.0).max() < 1e-14
    assert np.abs(np.linalg.norm(e2, axis=1) - 1.0).max() < 1e-14
    assert np.abs(np.einsum("ij,ij->i", e1, g.nodes)).max() < 1e-14
    assert np.abs(np.einsum("ij,ij->i", e2, g.nodes)).max() < 1e-14
    # right-handed: e1 x e2 = u
    assert np.abs(np.cross(e1, e2) - g.nodes).max() < 1e-14


def test_antipode_is_involution_with_exact_negation(grid16):
    g = grid16
    anti = g.antipode_index
    assert np.array_equal(anti[anti], np.arange(g.n_nodes))
    # closure is bitwise, not just within tolerance
    assert np.array_equal(g.nodes[anti], -g.nodes)


@pytest.mark.parametrize("shape", [(11, 22), (13, 26), (16, 32)],
                         ids=lambda s: "%dx%d" % s)
def test_half_and_its_antipodes_are_every_node_once(shape):
    # the off-grid transform folds w f onto grid.half, so the weights must
    # be antipodal bitwise; an odd ring count puts the equator on itself
    g = make_grid(*shape)
    half, anti = g.half, g.antipode_index
    assert half.size == g.n_nodes // 2 and not half.flags.writeable
    assert np.all(np.diff(half) > 0) and np.all(half < anti[half])
    assert np.array_equal(np.sort(np.concatenate([half, anti[half]])),
                          np.arange(g.n_nodes))
    assert np.array_equal(g.weights[anti], g.weights)


def test_antipodal_frame_flip_is_diag_1_minus1(grid16):
    g = grid16
    anti = g.antipode_index
    assert np.array_equal(g.frame[anti, 0, :], g.frame[:, 0, :])
    assert np.array_equal(g.frame[anti, 1, :], -g.frame[:, 1, :])


def test_make_grid_rejects_bad_shapes():
    with pytest.raises(ValueError):
        make_grid(16, 31)
    with pytest.raises(ValueError):
        make_grid(1, 8)


# ---------------------------------------------------------------------------
# quadrature

def test_polynomial_exactness(grid16):
    # int cos^2(theta) over S^2 = 4 pi / 3
    f = grid16.nodes[:, 2] ** 2
    assert abs(grid16.weights @ f - FOUR_PI / 3.0) < 1e-12


def test_integrate_constant_and_odd(grid16):
    assert abs(grid16.weights @ np.ones(grid16.n_nodes) - FOUR_PI) < 1e-10
    a = unit_vectors(3, 1)[0]
    assert abs(grid16.weights @ (grid16.nodes @ a)) < 1e-10


def test_kinked_integrand_converges_quadratically():
    # int |cos theta| over S^2 = 2 pi. The integrand has a kink at the
    # equator, so Gauss-Legendre degrades to O(n_theta^-2): measured errors
    # are 1.90e-2 at 16 rings and 4.90e-3 at 32.
    errs = {}
    for n in (16, 32):
        g = make_grid(n, 2 * n)
        errs[n] = abs(g.weights @ np.abs(g.nodes[:, 2]) - 2.0 * math.pi)
    assert errs[16] < 0.05
    assert errs[32] < 0.01
    assert 3.0 < errs[16] / errs[32] < 5.0


# ---------------------------------------------------------------------------
# basis

def test_basis_index_layout():
    basis = make_basis(3)
    assert basis.size == 16
    for l in range(4):
        for m in range(-l, l + 1):
            q = basis_index(l, m)
            assert basis.degrees[q] == l
    assert basis_index(0, 0) == 0
    assert basis_index(3, -3) == 9


def unit_fields(grid, basis):
    """V (N, B), PHI (N, 3, B) and M (N, 3, B): the synthesized values, phi
    and support-matrix entries of each basis function alone."""
    tab = node_tables(grid, basis)
    V, M, PHI, _ = (np.stack(t, axis=-1) for t in
                    zip(*(synthesize(tab, e) for e in np.eye(basis.size))))
    return V, PHI, M


def test_gram_matrix_orthonormal(grid16, grid32):
    for g, lmax in ((grid16, 8), (grid32, 12)):
        V = unit_fields(g, make_basis(lmax))[0]
        gram = V.T @ (g.weights[:, None] * V)
        assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-8


def test_addition_theorem():
    # sum_m Y_lm(u) Y_lm(v) = (2l+1)/(4 pi) P_l(<u,v>), independent of any
    # sign or ordering convention for the individual harmonics
    basis = make_basis(8)
    pts = unit_vectors(17, 12)
    V = basis_values(basis, pts)
    for l in range(9):
        sel = basis.degrees == l
        lhs = V[:, sel] @ V[:, sel].T
        dots = np.clip(pts @ pts.T, -1.0, 1.0)
        rhs = (2 * l + 1) / FOUR_PI * np.polynomial.legendre.Legendre.basis(l)(dots)
        assert np.abs(lhs - rhs).max() < 1e-11


def test_basis_matches_closed_forms():
    # pins the sign and the sine/cosine sector of m != 0, which stored specs
    # and seeded random_odd starts depend on and the addition theorem
    # cannot see
    basis = make_basis(3)
    pts = unit_vectors(41, 25)
    x, y, z = pts.T
    V = basis_values(basis, pts)
    c1 = math.sqrt(3.0 / FOUR_PI)
    c2 = math.sqrt(15.0 / FOUR_PI)
    c3 = 0.25 * math.sqrt(35.0 / (2.0 * math.pi))
    want = {
        (0, 0): np.full_like(x, 1.0 / math.sqrt(FOUR_PI)),
        (1, -1): c1 * y, (1, 0): c1 * z, (1, 1): c1 * x,
        (2, -2): c2 * x * y, (2, -1): c2 * y * z, (2, 1): c2 * x * z,
        (2, 2): 0.5 * c2 * (x * x - y * y),
        (3, -3): c3 * (3.0 * x * x * y - y ** 3),
        (3, 3): c3 * (x ** 3 - 3.0 * x * y * y),
    }
    for (l, m), ref in want.items():
        np.testing.assert_allclose(V[:, basis_index(l, m)], ref,
                                   rtol=0, atol=1e-15, err_msg=str((l, m)))


def test_basis_values_are_the_jet_value_rows_bitwise():
    # basis_values runs the recurrence on the value row alone; it must give
    # the value row of the full jet stack bit for bit
    pts = unit_vectors(43, 30)
    for dtype in (np.float64, np.longdouble):
        for lmax in range(17):
            got = basis_values(make_basis(lmax), pts.astype(dtype))
            want = _solid_jets(pts.astype(dtype), lmax)[0].T
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want)


def test_basis_values_build_no_jet_stack():
    # the full stack is ten rows per function; the values need one
    pts = make_grid(48, 96).nodes
    tracemalloc.start()
    V = basis_values(make_basis(12), pts)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 3 * V.nbytes


def test_odd_degree_parity_is_bitwise(grid16):
    g = grid16
    V = unit_fields(g, make_basis(7))[0]
    degrees = make_basis(7).degrees
    odd = degrees % 2 == 1
    even = ~odd
    assert np.array_equal(V[g.antipode_index][:, odd], -V[:, odd])
    assert np.array_equal(V[g.antipode_index][:, even], V[:, even])


# ---------------------------------------------------------------------------
# jets

@dataclass(eq=False)
class Jet2:
    """Value, tangential gradient and tangential Hessian at a point, in a frame."""

    value: float
    grad: np.ndarray  # (2,)
    hess: np.ndarray  # (2, 2) symmetric


def jet(basis, coeffs, u, frame):
    """Jet2 of the coefficient field at unit vector u in the given tangent frame.

    grad and hess are the sphere-intrinsic gradient and Hessian: the
    tangential derivatives of the degree-1 homogeneous extension with the
    value part removed from the Hessian diagonal. A single-point evaluator
    beside node_tables, from the same jets, that the tests below check
    against closed forms and compare node_tables with.
    """
    coeffs = np.asarray(coeffs, float)
    if coeffs.shape != (basis.size,):
        raise ValueError("coefficient length does not match basis size")
    u = np.asarray(u, float)
    frame = np.asarray(frame, float)
    J = _solid_jets(u[None, :], basis.lmax)[:, :, 0]  # (10, B)
    value = float(J[0] @ coeffs)
    g3 = J[1:4] @ coeffs  # Cartesian gradient of the solid form, (3,)
    e1, e2 = frame[0], frame[1]
    grad = np.array([e1 @ g3, e2 @ g3])
    # assemble the symmetric 3x3 Hessian of the solid form
    hxx, hxy, hxz, hyy, hyz, hzz = J[4:] @ coeffs
    H = np.array([[hxx, hxy, hxz], [hxy, hyy, hyz], [hxz, hyz, hzz]])
    lv = float(J[0] @ (coeffs * basis.degrees))
    hess = np.array([
        [e1 @ H @ e1 - lv, e1 @ H @ e2],
        [e1 @ H @ e2, e2 @ H @ e2 - lv],
    ])
    return Jet2(value=value, grad=grad, hess=hess)


def _orthonormal_frame(u):
    pick = np.array([0.0, 0.0, 1.0]) if abs(u[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(pick, u)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    return np.stack([e1, e2])


def test_jet_of_constant():
    basis = make_basis(2)
    coeffs = np.zeros(basis.size)
    coeffs[0] = 2.0 * math.sqrt(math.pi) * 3.5  # the constant 3.5
    u = unit_vectors(1, 1)[0]
    j = jet(basis, coeffs, u, _orthonormal_frame(u))
    assert abs(j.value - 3.5) < 1e-14
    assert np.abs(j.grad).max() < 1e-14
    assert np.abs(j.hess).max() < 1e-14


def test_jet_of_degree_one_has_hess_minus_value():
    # p(u) = <v,u> extends to the linear function <v,x>, whose Cartesian
    # Hessian vanishes; the intrinsic Hessian is therefore -p(u) I
    basis = make_basis(1)
    rng = np.random.default_rng(2)
    coeffs = np.concatenate([[0.0], rng.standard_normal(3)])
    for u in unit_vectors(8, 5):
        frame = _orthonormal_frame(u)
        j = jet(basis, coeffs, u, frame)
        np.testing.assert_allclose(j.hess, -j.value * np.eye(2), atol=1e-12)


def _extension_values_ld(basis, xs):
    """Degree-1 homogeneous extension of every basis function, evaluated in
    80-bit arithmetic from the value rows of the solid-harmonic recurrence.

    The derivative rows under test are carried along by the product rule;
    this reads only the value rows, so the finite-difference quotients below
    are an independent check of the gradient and Hessian tables, with
    roundoff pushed far below the truncation error of the stencil.
    """
    xs = np.asarray(xs, dtype=np.longdouble)
    r = np.sqrt(np.sum(xs * xs, axis=1))
    vals = _solid_jets(xs / r[:, None], basis.lmax)[0].T
    assert vals.dtype == np.longdouble
    return r[:, None] * vals


def test_jet_tables_match_finite_differences(grid32):
    # every basis function at 100 randomly chosen grid nodes, step 1e-5
    basis = make_basis(6)
    rng = np.random.default_rng(23)
    idx = rng.choice(grid32.n_nodes, 100, replace=False)
    pts = grid32.nodes[idx].astype(np.longdouble)
    frames = grid32.frame[idx]
    V, PHI, M = (t[idx] for t in unit_fields(grid32, basis))

    step = np.longdouble("1e-5")
    e = np.eye(3, dtype=np.longdouble)
    val = _extension_values_ld(basis, pts)
    grad_fd = np.empty((100, 3, basis.size), dtype=np.longdouble)
    hess_fd = np.empty((100, 3, 3, basis.size), dtype=np.longdouble)
    plus = [_extension_values_ld(basis, pts + step * e[a]) for a in range(3)]
    minus = [_extension_values_ld(basis, pts - step * e[a]) for a in range(3)]
    for a in range(3):
        grad_fd[:, a] = (plus[a] - minus[a]) / (2 * step)
        hess_fd[:, a, a] = (plus[a] - 2 * val + minus[a]) / step**2
    for a in range(3):
        for b in range(a):
            pp = _extension_values_ld(basis, pts + step * (e[a] + e[b]))
            pm = _extension_values_ld(basis, pts + step * (e[a] - e[b]))
            mp = _extension_values_ld(basis, pts - step * (e[a] - e[b]))
            mm = _extension_values_ld(basis, pts - step * (e[a] + e[b]))
            hess_fd[:, a, b] = hess_fd[:, b, a] = (pp - pm - mp + mm) / (4 * step**2)

    grad_t = np.einsum("nca,naq->ncq", frames, grad_fd.astype(float))
    hess_t = np.einsum("nca,nabq,ndb->ncdq", frames,
                       hess_fd.astype(float), frames)
    hess_t[:, 0, 0] -= val.astype(float)
    hess_t[:, 1, 1] -= val.astype(float)

    # analytic side: PHI is the Cartesian gradient of the extension, and the
    # M rows are (value + h11, h12, value + h22) of the intrinsic Hessian
    grad_an = np.einsum("nca,naq->ncq", frames, PHI)
    assert np.abs(V - val.astype(float)).max() < 1e-13
    assert np.abs(grad_t - grad_an).max() < 1e-5
    assert np.abs(hess_t[:, 0, 0] - (M[:, 0] - V)).max() < 1e-5
    assert np.abs(hess_t[:, 0, 1] - M[:, 1]).max() < 1e-5
    assert np.abs(hess_t[:, 1, 1] - (M[:, 2] - V)).max() < 1e-5


def test_jet_zonal_harmonic_at_pole_high_precision():
    # high-precision finite differences of the extension of Y_30,
    # p~(x) = sqrt(7/(4 pi))/2 * (5 z^3 - 3 z |x|^2) / |x|^2, at the north
    # pole: the rational part is differenced exactly in Fractions, so the
    # only error is the O(step^2) truncation, and its constant factor is
    # applied in floating point afterwards
    scale = math.sqrt(7.0 / (4.0 * math.pi)) / 2.0
    step = Fraction(1, 100000)

    def at(dx, dy, dz):
        x, y, z = Fraction(dx), Fraction(dy), 1 + Fraction(dz)
        r2 = x * x + y * y + z * z
        return (5 * z ** 3 - 3 * z * r2) / r2

    def shifted(*moves):
        return at(*map(sum, zip(*moves)))

    val = at(0, 0, 0)
    axes = [(step, 0, 0), (0, step, 0), (0, 0, step)]
    neg = [tuple(-c for c in d) for d in axes]
    grad3 = [(at(*d) - at(*n)) / (2 * step) for d, n in zip(axes, neg)]
    hess3 = [[None] * 3 for _ in range(3)]
    for a in range(3):
        hess3[a][a] = (at(*axes[a]) - 2 * val + at(*neg[a])) / step ** 2
    for a in range(3):
        for b in range(a):
            hess3[a][b] = hess3[b][a] = (
                shifted(axes[a], axes[b]) - shifted(axes[a], neg[b])
                - shifted(neg[a], axes[b]) + shifted(neg[a], neg[b])
            ) / (4 * step ** 2)

    basis = make_basis(3)
    coeffs = np.zeros(basis.size)
    coeffs[basis_index(3, 0)] = 1.0
    frame = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    j = jet(basis, coeffs, np.array([0.0, 0.0, 1.0]), frame)

    assert abs(j.value - scale * float(val)) < 1e-12
    for a in range(2):
        assert abs(j.grad[a] - scale * float(grad3[a])) < 1e-6
        for b in range(2):
            want = scale * (float(hess3[a][b]) - (float(val) if a == b else 0.0))
            assert abs(j.hess[a, b] - want) < 1e-6


def test_jet_rejects_wrong_coefficient_length():
    basis = make_basis(2)
    u = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        jet(basis, np.zeros(basis.size - 1), u, _orthonormal_frame(u))


def test_jet_hessian_symmetric(grid16):
    basis = make_basis(5)
    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal(basis.size)
    for i in rng.integers(0, grid16.n_nodes, 10):
        j = jet(basis, coeffs, grid16.nodes[i], grid16.frame[i])
        assert abs(j.hess[0, 1] - j.hess[1, 0]) < 1e-12


# ---------------------------------------------------------------------------
# node tables and 2x2 helpers

def test_matrix_entries_match_jets(grid16):
    basis = make_basis(4)
    rng = np.random.default_rng(31)
    coeffs = rng.standard_normal(basis.size)
    ent = synthesize(node_tables(grid16, basis), coeffs)[1]
    for i in rng.integers(0, grid16.n_nodes, 6):
        j = jet(basis, coeffs, grid16.nodes[i], grid16.frame[i])
        m = np.array([j.value + j.hess[0, 0], j.hess[0, 1],
                      j.value + j.hess[1, 1]])
        np.testing.assert_allclose(ent[i], m, atol=1e-12)


def test_entry_row_eigen_helpers_match_eigvalsh():
    rng = np.random.default_rng(12)
    rows = rng.standard_normal((200, 3))
    mats = np.empty((200, 2, 2))
    mats[:, 0, 0] = rows[:, 0]
    mats[:, 0, 1] = mats[:, 1, 0] = rows[:, 1]
    mats[:, 1, 1] = rows[:, 2]
    eigs = np.linalg.eigvalsh(mats)
    np.testing.assert_allclose(entries_eigmin(rows), eigs[:, 0], atol=1e-12)
    np.testing.assert_allclose(sigma_entries(rows, rows), np.linalg.det(mats),
                               atol=1e-12)


def test_node_tables_cached_per_grid_and_basis(grid16):
    basis = make_basis(3)
    assert node_tables(grid16, basis) is node_tables(grid16, basis)


def _whole_grid_tables(grid, basis):
    """V, PHI and M from one _solid_jets stack over every node at once."""
    pts = grid.nodes
    jets = _solid_jets(pts, basis.lmax)
    one_minus_l = (1.0 - basis.degrees)[:, None]
    e1, e2 = grid.frame[:, 0, :].T, grid.frame[:, 1, :].T

    def form(a, b):
        return sum((a[c] * b[d] + a[d] * b[c] if c != d else a[c] * b[c]) * h
                   for (c, d), h in zip(_PAIRS, jets[4:]))

    M = np.stack([form(e1, e1) + one_minus_l * jets[0], form(e1, e2),
                  form(e2, e2) + one_minus_l * jets[0]])  # (3, B, N)
    PHI = jets[1:4] + (one_minus_l * jets[0]) * pts.T[:, None, :]  # (3, B, N)
    return jets[0].T, PHI.transpose(2, 0, 1), M.transpose(2, 0, 1)


@pytest.mark.parametrize("n_theta, lmax", [(33, 8), (33, 12), (6, 5), (13, 8)])
def test_node_tables_from_the_meridian_match_the_recurrence(n_theta, lmax):
    # fields synthesized from the meridian rows, and the probe's columns,
    # against the recurrence run at every node; 13x26 has an odd ring count,
    # with its middle ring on the equator
    grid = make_grid(n_theta, 2 * n_theta)
    basis = make_basis(lmax)
    tab = node_tables(grid, basis)
    V, PHI, M = _whole_grid_tables(grid, basis)
    rng = np.random.default_rng(n_theta + lmax)
    for c in rng.standard_normal((3, basis.size)):
        for got, want in zip(synthesize(tab, c), (V @ c, M @ c, PHI @ c)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    idx = rng.choice(basis.size, 7, replace=False)
    got, want = node_columns(tab, idx), M[:, :, idx]
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("n_theta, lmax", [(16, 7), (13, 8)])
def test_node_table_antipodal_parity_is_bitwise(n_theta, lmax):
    # the antipode's frame is (e1, -e2), so m12 flips against m11 and m22
    grid = make_grid(n_theta, 2 * n_theta)
    basis = make_basis(lmax)
    V, PHI, M = unit_fields(grid, basis)
    anti = grid.antipode_index
    sign = np.where(basis.degrees % 2 == 0, 1.0, -1.0)
    assert np.array_equal(V[anti], sign * V)
    for table in (M, node_columns(node_tables(grid, basis), np.arange(basis.size))):
        assert np.array_equal(table[anti][:, (0, 2)], sign * table[:, (0, 2)])
        assert np.array_equal(table[anti][:, 1], -sign * table[:, 1])
    assert np.array_equal(PHI[anti], -sign * PHI)


@pytest.mark.parametrize("shape", [(7, 14), (9, 18), (11, 22), (13, 26),
                                   (25, 50), (33, 66), (32, 64)],
                         ids="{0[0]}x{0[1]}".format)
def test_field_antipodal_parity_is_bitwise(shape):
    # a product of each whole (N, B) table with c summed the rows of a node
    # and its antipode in different orders: on the odd-ring grids the odd
    # body's values, entries or phi lost their parity at a few nodes
    grid = make_grid(*shape)
    anti = grid.antipode_index
    even = central_symmetral(random_convex(3, min(shape[0] - 1, 8), grid))
    for h, sign in ((random_odd(0, degrees=(3, 5, 7)), -1.0), (even, 1.0)):
        f = inverse_gauss(h, grid)
        assert np.array_equal(f.values[anti], sign * f.values)
        assert np.array_equal(f.entries[anti][:, (0, 2)], sign * f.entries[:, (0, 2)])
        assert np.array_equal(f.entries[anti][:, 1], -sign * f.entries[:, 1])
        assert np.array_equal(f.phi[anti], -sign * f.phi)


def test_node_tables_run_the_recurrence_on_one_meridian(monkeypatch):
    # one call, on the meridian's nodes and then the two poles
    grid = make_grid(12, 24)
    calls = []

    def spy(pts, lmax, values_only=False):
        calls.append(len(pts))
        return _solid_jets(pts, lmax, values_only)

    monkeypatch.setattr(sphere, "_solid_jets", spy)
    node_tables.__wrapped__(grid, make_basis(6))  # cold: not cached
    assert calls == [grid.n_theta + 2]


def test_a_cold_record_and_one_field_peak_under_4_mib():
    # the (N, B) value, phi and support-matrix tables took 35.4 MiB here
    grid = make_grid(64, 128)
    c = np.random.default_rng(5).standard_normal(make_basis(8).size)
    tracemalloc.start()
    tab = node_tables.__wrapped__(grid, make_basis(8))  # cold: not cached
    synthesize(tab, c)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 4 * 2 ** 20
