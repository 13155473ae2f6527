"""Determinant identities behind the width/brightness rigidity, and a
brightness-variance minimizer probing it.

The algebra all happens on symmetric 2x2 support matrices M_f = f I + hess f
in the node frames. sigma is the polarization of det, so with h = h0 + p,
h0 = central_symmetral(h) and p = odd_part(h) (body's parity split),

    det M_h = det M_p + 2 sigma(M_p, M_h0) + det M_h0,

det M_p is even, sigma(M_p, M_h0) is odd, and the cosine transform of the
curvature determinant turns this into the proportional-brightness relation.
The sign obstruction (for odd p, det M_p cannot be negative everywhere) is
what makes constant width + constant brightness rigid; the optimizer checks
the rigidity numerically by descending the brightness variance of
constant-width bodies gauge + p back to the gauge. That variance is a
homogeneous quartic in the odd coefficients: with z_h = (c_j c_k), j <= k,
the nv(nv+1)/2 distinct products, it is z_h^T G z_h for a Gram matrix G
built once per gauge, so the objective and its exact gradient cost one
O(nv^4 / 4) product per call, whatever the grid. The convexity check on
each trial point costs one (3N/2) x nv product and O(N) elementwise work:
the gauge is even and every variable odd, so the support matrix at -u has
the eigenvalues of that at u with the variables' part negated, and the
least eigenvalue over all N nodes is read from the N/2 nodes of one half
sphere.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sphere import (
    make_basis, node_tables, node_columns, sigma_entries, synthesize, _freeze,
)
from .body import (
    TOL_PSD, SupportFunction, NotConvexError, central_symmetral, inverse_gauss,
    odd_part, require_convex, _padded,
)
from .brightness import cosine_transform

_MIN_EIG_FLOOR = 0.01
_NORM_TOL = 1e-3
_VAR_TOL = 1e-10
_MAX_BACKTRACK = 60


@dataclass(eq=False)
class ParityReport:
    """Parity and decomposition diagnostics of det(h I + hess h)."""

    max_odd_violation_sigma: float
    max_even_violation_det_p: float
    identity_residual: np.ndarray  # (N,)

    def __post_init__(self):
        ok = (math.isfinite(self.max_odd_violation_sigma)
              and self.max_odd_violation_sigma >= 0.0
              and math.isfinite(self.max_even_violation_det_p)
              and self.max_even_violation_det_p >= 0.0
              and np.all(np.isfinite(self.identity_residual)))
        if not ok:
            raise ArithmeticError(
                "parity report fields must be finite and nonnegative")


def parity_decomposition_check(h, grid, tol_psd=TOL_PSD):
    """Check det M_h = det M_p + 2 sigma(M_p, M_h0) + det M_h0 nodewise,
    plus the parity of the two cross terms (det M_p even, sigma odd)."""
    Dh = require_convex(inverse_gauss(h, grid), "parity check", tol_psd).detfield
    tab = node_tables(grid, h.basis)
    e0 = synthesize(tab, central_symmetral(h).coeffs)[1]
    ep = synthesize(tab, odd_part(h).coeffs)[1]
    D0 = sigma_entries(e0, e0)
    Dp = sigma_entries(ep, ep)
    S = sigma_entries(ep, e0)
    anti = grid.antipode_index
    return ParityReport(
        max_odd_violation_sigma=float(np.abs(S + S[anti]).max()),
        max_even_violation_det_p=float(np.abs(Dp - Dp[anti]).max()),
        identity_residual=Dh - (Dp + 2.0 * S + D0),
    )


def odd_sign_obstruction(p, grid):
    """(max, min) over nodes of det(p I + hess p) for odd p.

    The rigidity argument forbids det < 0 everywhere, so max_det >= 0 up to
    discretization for every odd p.
    """
    if central_symmetral(p).coeffs.any():
        raise ValueError("odd_sign_obstruction needs an odd support function")
    dets = inverse_gauss(p, grid).detfield
    return float(dets.max()), float(dets.min())


# ---------------------------------------------------------------------------
# brightness-variance descent over constant-width bodies

@dataclass(eq=False)
class OptimizerTrace:
    """Row per accepted state: (coeff_norm, variance, min_eig, step)."""

    iterations: list
    terminal_status: str  # converged_to_gauge | stalled | infeasible
    final_coeffs: np.ndarray  # variable-space odd coefficients


def require_variable_degrees(degrees):
    """The probe's variable degrees as a tuple of ints, or ValueError unless
    they are distinct, odd and at least 3 (degree 1 is a translation)."""
    degrees = tuple(int(d) for d in degrees)
    if any(d % 2 == 0 or d < 3 for d in degrees):
        raise ValueError("variable degrees must be odd and >= 3")
    if len(set(degrees)) != len(degrees):
        raise ValueError("variable degrees must not repeat")
    return degrees


def _variable_indices(degrees):
    return np.concatenate([np.arange(l * l, (l + 1) ** 2) for l in degrees])


def random_odd(seed, degrees=(3, 5, 7), scale=1.0):
    """Seeded odd coefficient field, unit L2 norm times scale, on the given
    degrees, which require_variable_degrees checks: one standard normal per
    variable, drawn in _variable_indices order."""
    degrees = require_variable_degrees(degrees)
    lmax = max(degrees)
    idx = _variable_indices(degrees)
    coeffs = np.zeros((lmax + 1) ** 2)
    coeffs[idx] = np.random.default_rng(seed).standard_normal(idx.size)
    coeffs *= scale / np.linalg.norm(coeffs)
    return SupportFunction(coeffs, lmax, label="random_odd(seed=%s)" % seed)


@dataclass(frozen=True, eq=False)
class ProbeModel:
    """One gauge's read-only probe model, built by _quadratic_model. flat
    gathers z_h from the nv x nv outer product c c^T, and pos maps a matrix
    position (j, k) to the z_h entry of its unordered pair."""

    idx: np.ndarray   # (nv,)
    basis: object     # HarmonicBasis
    F0: np.ndarray    # (3, N/2)
    FJ: np.ndarray    # (3N/2, nv), column-major
    G: np.ndarray     # (nv(nv+1)/2,) * 2
    flat: np.ndarray  # (nv(nv+1)/2,)
    pos: np.ndarray   # (nv, nv)

    def variance(self, c):
        """F(c) = z_h^T (G z_h) and the product G z_h, which is all that
        gradient needs."""
        z = np.outer(c, c).take(self.flat)
        Gz = self.G @ z
        return float(z @ Gz), Gz

    def gradient(self, Gz, c):
        """Exact gradient of variance at c from its product Gz: grad F = 2 Y c,
        Y symmetric with Y_jk = (G z_h)_jk off the diagonal and
        Y_jj = 2 (G z_h)_jj, since c_j c_k has gradient c_k e_j + c_j e_k and
        c_j^2 has 2 c_j e_j."""
        Y = Gz.take(self.pos)
        Y.flat[::c.size + 1] *= 2.0
        return 2.0 * (Y @ c)

    def min_eig(self, c):
        """Least support-matrix eigenvalue of gauge + p_c over all N nodes,
        from the half-sphere floor tables: E = F0 + P at u and F0 - P at -u,
        with P = FJ c, and the least eigenvalue mean - sqrt(d^2 + o^2)."""
        P = (self.FJ @ c).reshape(3, -1)
        E = np.concatenate((self.F0 + P, self.F0 - P), axis=1)
        # a far trial point squares past the double range: its radius is inf
        # and it is rejected, as np.hypot's finite radius rejected it
        with np.errstate(over="ignore"):
            r2 = E[1] * E[1] + E[2] * E[2]
        return float((E[0] - np.sqrt(r2)).min())


# room for two gauges at least: a probe sequence may alternate between them,
# and each rebuild transforms nv sigma tables of N x (nv - j) and forms the
# O(N nv^4 / 4) Gram product of the N x nv(nv+1)/2 result. Keyed by the
# gauge's record, a model is reused only while that record stays in
# body._field; three passes over the rigidity_probe pool (seed 1) build 2
# models and reuse them 142 times
@lru_cache(maxsize=4)
def _quadratic_model(field, degrees):
    """The gauge's ProbeModel: the Gram matrix of the brightness variance, a
    quartic in c, and the convexity floor's tables, all read-only.

    Per node, det(M0 + sum c_j Mj) = det M0 + 2 sigma(M0, Mj) c_j
    + sigma(Mj, Mk) c_j c_k. The gauge is even and each Mj has odd degree,
    so sigma(M0, Mj) is odd and the cosine transform kills it: the relative
    brightness of gauge + p_c is 1 + RQ z per node. sigma(Mj, Mk) =
    sigma(Mk, Mj), so z is the symmetric half z_h = (c_j c_k) for j <= k,
    nv(nv+1)/2 entries in np.triu_indices order, and RQ's off-diagonal
    columns count their pair twice. Centring RQ on its weighted mean turns
    the weighted variance into F(c) = z_h^T G z_h with
    G = RQc^T diag(wn) RQc, so F and its gradient cost one product with G
    per call, whatever the grid. The table S = sqrt(wn) RQc is filled one
    row j at a time, from the transform of sigma(Mj, Mk) for k = j..nv, so
    no N x nv^2 transient is ever held beside it.

    The floor tables keep the support matrices on the half sphere
    i < antipode_index[i], exactly N/2 nodes, as rows (mean, half-difference,
    off-diagonal) = ((m11 + m22)/2, (m11 - m22)/2, m12): F0 (3, N/2) for the
    gauge and FJ (3N/2, nv), column-major, for the variables. The gauge is
    even and the variables odd, so at the antipode -u the support matrix is
    M0 - MJ c written in the frame (e1, -e2), which flips the sign of m12
    only and keeps the eigenvalues; F0 - FJ c gives them. min_eig reads
    both halves from one product FJ c, on half the rows an all-node table
    would hold. The gauge's M0 and det M0 are read from its record, the
    field, on whose grid the model is built; node_columns gives MJ only.
    """
    grid = field.grid
    basis = make_basis(max(field.lmax, max(degrees)))
    idx = _variable_indices(degrees)

    MJ = node_columns(node_tables(grid, basis), idx)  # (N, 3, nv)
    n, _, nv = MJ.shape
    half = grid.half
    F0 = _floor_rows(field.entries[half].T)        # (3, N/2)
    FJ = np.asfortranarray(
        _floor_rows(MJ[half].transpose(1, 0, 2)).reshape(-1, nv))

    b0 = 0.5 * cosine_transform(field.detfield, grid, grid.nodes)
    if np.any(b0 <= 0.0):
        raise NotConvexError("gauge brightness must be positive")
    wn = grid.weights / (4.0 * math.pi)
    sw = np.sqrt(wn)[:, None]
    rows = MJ.transpose(0, 2, 1)                   # (N, nv, 3)
    S = np.empty((n, nv * (nv + 1) // 2))
    col = 0
    for j in range(nv):
        quad = sigma_entries(rows[:, j:j + 1], rows[:, j:])  # (N, nv - j)
        quad[:, 1:] *= 2.0  # c_j c_k and c_k c_j, k > j
        RQc = 0.5 * cosine_transform(quad, grid, grid.nodes) / b0[:, None]
        RQc -= wn @ RQc
        S[:, col:col + nv - j] = sw * RQc
        col += nv - j
    G = S.T @ S  # numpy's syrk: exactly symmetric
    j, k = np.triu_indices(nv)
    pos = np.empty((nv, nv), dtype=np.intp)
    pos[j, k] = pos[k, j] = np.arange(j.size)
    return ProbeModel(idx=_freeze(idx), basis=basis, F0=_freeze(F0),
                      FJ=_freeze(FJ), G=_freeze(G), flat=_freeze(j * nv + k),
                      pos=_freeze(pos))


def _floor_rows(e):
    """Entry rows (m11, m12, m22) along axis 0 -> (mean, half-difference,
    off-diagonal), from which the least eigenvalue is mean - |(d, o)|."""
    return np.stack((0.5 * (e[0] + e[2]), 0.5 * (e[0] - e[2]), e[1]))


def minimize_brightness_variance(gauge, init_odd, grid, degrees=(3, 5),
                                 max_iter=500):
    """Descend F(c) = weighted variance of brightness(gauge + p_c)/brightness(gauge).

    Variables are the odd coefficients of the given degrees (degree 1 is
    excluded: it is a pure translation); init_odd is the start p_c, a
    SupportFunction supported on them. F is a homogeneous quartic in c,
    evaluated with its exact gradient on the gauge's Gram matrix
    (_quadratic_model); Barzilai-Borwein step seeding, monotone
    backtracking, and projection to the convexity region by step halving
    (min eigenvalue of the support matrix kept at or above
    _MIN_EIG_FLOOR). Terminal states: converged_to_gauge (||c|| < _NORM_TOL
    and F < _VAR_TOL), stalled, infeasible (init outside the convexity
    region). A gauge whose margin is not above the floor raises
    NotConvexError.
    """
    degrees = require_variable_degrees(degrees)
    field = inverse_gauss(gauge, grid)
    if not field.min_eigenvalue > _MIN_EIG_FLOOR:
        raise NotConvexError("gauge margin %.3e is not above the probe's floor %g"
                             % (field.min_eigenvalue, _MIN_EIG_FLOOR))
    if odd_part(gauge).coeffs.any():
        raise ValueError("gauge must be even")

    model = _quadratic_model(field, degrees)

    full = _padded(init_odd.coeffs, init_odd.lmax,
                   max(init_odd.lmax, model.basis.lmax))
    c = full[model.idx]
    if np.count_nonzero(full) > np.count_nonzero(c):
        raise ValueError("init_odd has support outside the variable degrees")

    trace = []
    eig = model.min_eig(c)
    if not eig >= _MIN_EIG_FLOOR:
        return OptimizerTrace(iterations=trace, terminal_status="infeasible",
                              final_coeffs=c)

    Fc, Gz = model.variance(c)
    cn = math.sqrt(c @ c)  # np.linalg.norm(c), bitwise
    trace.append((cn, Fc, eig, 0.0))
    g_prev = None
    s_prev = None
    alpha = None

    for _ in range(max_iter):
        if cn < _NORM_TOL and Fc < _VAR_TOL:
            break
        g = model.gradient(Gz, c)  # the accepted state's product
        gn = math.sqrt(g @ g)
        if gn == 0.0:
            break
        if s_prev is not None:
            sy = float(s_prev @ (g - g_prev))
            if sy > 0.0:
                alpha = float(s_prev @ s_prev) / sy
            else:
                alpha *= 2.0
        if alpha is None:
            # first step: conservative scale from the gradient itself
            alpha = min(1.0, 0.1 * max(cn, _NORM_TOL) / gn)
        step = alpha
        accepted = False
        for _ in range(_MAX_BACKTRACK):
            c_try = c - step * g
            eig = model.min_eig(c_try)
            if eig >= _MIN_EIG_FLOOR:
                F_try, Gz_try = model.variance(c_try)
                if F_try <= Fc:
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            break
        s_prev = c_try - c
        g_prev = g
        c = c_try
        Fc = F_try
        Gz = Gz_try
        cn = math.sqrt(c @ c)
        trace.append((cn, Fc, eig, step))

    converged = cn < _NORM_TOL and Fc < _VAR_TOL
    return OptimizerTrace(
        iterations=trace,
        terminal_status="converged_to_gauge" if converged else "stalled",
        final_coeffs=c)
