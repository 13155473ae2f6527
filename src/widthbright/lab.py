"""Determinant identities behind the width/brightness rigidity, and a
brightness-variance minimizer probing it.

The algebra all happens on symmetric 2x2 support matrices M_f = f I + hess f
in the node frames. sigma is the polarization of det, so with h = h0 + p,

    det M_h = det M_p + 2 sigma(M_p, M_h0) + det M_h0,

det M_p is even, sigma(M_p, M_h0) is odd, and the cosine transform of the
curvature determinant turns this into the proportional-brightness relation.
The sign obstruction (for odd p, det M_p cannot be negative everywhere) is
what makes constant width + constant brightness rigid; the optimizer checks
the rigidity numerically by descending the brightness variance of
constant-width bodies gauge + p back to the gauge. That variance is a
homogeneous quartic in the odd coefficients: with z = vec(c c^T) it is
z^T G z for a Gram matrix G built once per gauge, so the objective and its
exact gradient cost O(nv^4) per call, whatever the grid.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sphere import make_basis, node_tables, entries_det, entries_eigmin
from .body import (
    TOL_PSD, SupportFunction, NotConvexError, inverse_gauss, require_convex,
    _padded,
)
from .brightness import cosine_transform

_MIN_EIG_FLOOR = 0.01
_NORM_TOL = 1e-3
_VAR_TOL = 1e-10
_MAX_BACKTRACK = 60


# ---------------------------------------------------------------------------
# determinant algebra

def _sigma_entries(a, b):
    """Polarization of det on symmetric 2x2 matrices given as entry rows
    (m11, m12, m22): sigma(A, B) = (tr A tr B - tr(AB)) / 2, so
    sigma(A, A) = det A."""
    return 0.5 * (a[..., 0] * b[..., 2] + a[..., 2] * b[..., 0]) \
        - a[..., 1] * b[..., 1]


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
            raise ValueError("parity report fields must be finite and nonnegative")


def parity_decomposition_check(h, grid, tol_psd=TOL_PSD):
    """Check det M_h = det M_p + 2 sigma(M_p, M_h0) + det M_h0 nodewise,
    plus the parity of the two cross terms (det M_p even, sigma odd)."""
    Dh = require_convex(inverse_gauss(h, grid), "parity check", tol_psd).detfield
    c_even = np.where(h.basis.degrees % 2 == 0, h.coeffs, 0.0)
    M = node_tables(grid, h.basis).M
    e0, ep = M @ c_even, M @ (h.coeffs - c_even)
    D0 = entries_det(e0)
    Dp = entries_det(ep)
    S = _sigma_entries(ep, e0)
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
    even = p.basis.degrees % 2 == 0
    if np.any(p.coeffs[even] != 0.0):
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
    degrees: tuple
    final_coeffs: np.ndarray  # variable-space odd coefficients


def trace_to_csv(trace, path):
    lines = ["iter,coeff_norm,variance,min_eig,step"]
    for k, (cn, var, eig, step) in enumerate(trace.iterations):
        lines.append("%d,%.17g,%.17g,%.17g,%.17g" % (k, cn, var, eig, step))
    with open(path, "w") as f:
        f.write("\n".join(lines))
        f.write("\n")


def _variable_indices(degrees):
    return np.concatenate([np.arange(l * l, (l + 1) ** 2) for l in degrees])


def _gauge_tables(gauge, grid, degrees):
    """_quadratic_model of the gauge, keyed by its coefficient values rather
    than the object, so a gauge changed in place gets fresh tables."""
    return _quadratic_model(grid, tuple(int(d) for d in degrees), gauge.lmax,
                            gauge.coeffs.tobytes())


# room for two gauges at least: a probe sequence may alternate between them,
# and each rebuild transforms nv sigma tables of N x nv and forms the
# O(N nv^4) Gram product of the N x nv^2 result
@lru_cache(maxsize=4)
def _quadratic_model(grid, degrees, gauge_lmax, gauge_bytes):
    """Gram matrix of the brightness variance, a quartic in c.

    Per node, det(M0 + sum c_j Mj) = det M0 + 2 sigma(M0, Mj) c_j
    + sigma(Mj, Mk) c_j c_k. The gauge is even and each Mj has odd degree,
    so sigma(M0, Mj) is odd and the cosine transform kills it: the relative
    brightness of gauge + p_c is 1 + RQ z per node, with z = vec(c c^T).
    Centring RQ on its weighted mean turns the weighted variance into
    F(c) = z^T G z with G = RQc^T diag(wn) RQc, an nv^2 x nv^2 matrix, so
    F and grad F = 4 (G z as nv x nv) c cost O(nv^4) per call. The table
    S = sqrt(wn) RQc is filled one row j at a time, from the transform of
    sigma(Mj, Mk) for k = 1..nv, so no N x nv^2 transient is ever held
    beside it. The support matrices are kept entry-major, M0 (3, N) and
    MJ (3, N, nv).
    """
    basis = make_basis(max(gauge_lmax, max(degrees)))
    idx = _variable_indices(degrees)
    cg = _padded(np.frombuffer(gauge_bytes), gauge_lmax, basis.lmax)

    M = node_tables(grid, basis).M
    M0 = np.ascontiguousarray((M @ cg).T)                       # (3, N)
    MJ = np.ascontiguousarray(M[:, :, idx].transpose(1, 0, 2))  # (3, N, nv)
    rows = MJ.transpose(1, 2, 0)                                # (N, nv, 3)

    _, n, nv = MJ.shape
    b0 = 0.5 * cosine_transform(entries_det(M0.T), grid, grid.nodes)
    if np.any(b0 <= 0.0):
        raise NotConvexError("gauge brightness must be positive")
    wn = grid.weights / (4.0 * math.pi)
    sw = np.sqrt(wn)[:, None]
    S = np.empty((n, nv * nv))
    for j in range(nv):
        quad = _sigma_entries(rows[:, j:j + 1], rows)  # sigma(Mj, Mk), (N, nv)
        RQc = 0.5 * cosine_transform(quad, grid, grid.nodes) / b0[:, None]
        RQc -= wn @ RQc
        S[:, j * nv:(j + 1) * nv] = sw * RQc
    return idx, basis, M0, MJ, S.T @ S  # numpy's syrk: exactly symmetric


def _variance(G, c):
    z = np.outer(c, c).ravel()
    return float(z @ (G @ z))


def _variance_gradient(G, c):
    """Exact gradient of _variance at c: G is symmetric and so is each node's
    sigma(Mj, Mk) in (j, k), so grad F = 4 (G z as nv x nv) c."""
    return 4.0 * (G @ np.outer(c, c).ravel()).reshape(c.size, c.size) @ c


def _min_eig(M0, MJ, c):
    return float(entries_eigmin((M0 + MJ @ c).T).min())


def minimize_brightness_variance(gauge, init_odd, grid, degrees=(3, 5),
                                 max_iter=500):
    """Descend F(c) = weighted variance of brightness(gauge + p_c)/brightness(gauge).

    Variables are the odd coefficients of the given degrees (degree 1 is
    excluded: it is a pure translation). F is a homogeneous quartic in c,
    evaluated with its exact gradient on the gauge's Gram matrix
    (_quadratic_model); Barzilai-Borwein step seeding, monotone
    backtracking, and projection to the convexity region by step halving
    (min eigenvalue of the support matrix kept at or above
    _MIN_EIG_FLOOR). Terminal states: converged_to_gauge (||c|| < _NORM_TOL
    and F < _VAR_TOL), stalled, infeasible (init outside the convexity
    region).
    """
    if any(int(d) % 2 == 0 or int(d) < 3 for d in degrees):
        raise ValueError("variable degrees must be odd and >= 3")
    if len({int(d) for d in degrees}) != len(degrees):
        raise ValueError("variable degrees must not repeat")
    if not inverse_gauss(gauge, grid).min_eigenvalue > _MIN_EIG_FLOOR:
        raise ValueError("gauge must be certified convex with margin above the floor")
    if np.any(gauge.coeffs[gauge.basis.degrees % 2 == 1] != 0.0):
        raise ValueError("gauge must be even")

    idx, basis, M0, MJ, G = _gauge_tables(gauge, grid, degrees)

    if isinstance(init_odd, SupportFunction):
        full = _padded(init_odd.coeffs, init_odd.lmax,
                       max(init_odd.lmax, basis.lmax))
        c = full[idx]
        full[idx] = 0.0
        if np.any(full != 0.0):
            raise ValueError("init_odd has support outside the variable degrees")
    else:
        c = np.asarray(init_odd, float).copy()
        if c.shape != (idx.size,):
            raise ValueError("init_odd length does not match the variable count")

    trace = []
    eig = _min_eig(M0, MJ, c)
    if not eig >= _MIN_EIG_FLOOR:
        return OptimizerTrace(iterations=trace, terminal_status="infeasible",
                              degrees=tuple(degrees), final_coeffs=c)

    Fc = _variance(G, c)
    trace.append((float(np.linalg.norm(c)), Fc, eig, 0.0))
    status = "stalled"
    g_prev = None
    s_prev = None
    alpha = None

    for _ in range(max_iter):
        if np.linalg.norm(c) < _NORM_TOL and Fc < _VAR_TOL:
            status = "converged_to_gauge"
            break
        g = _variance_gradient(G, c)
        gn = float(np.linalg.norm(g))
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
            alpha = min(1.0, 0.1 * max(np.linalg.norm(c), _NORM_TOL) / gn)
        step = alpha
        accepted = False
        for _ in range(_MAX_BACKTRACK):
            c_try = c - step * g
            eig = _min_eig(M0, MJ, c_try)
            if eig >= _MIN_EIG_FLOOR:
                F_try = _variance(G, c_try)
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
        trace.append((float(np.linalg.norm(c)), Fc, eig, step))

    if np.linalg.norm(c) < _NORM_TOL and Fc < _VAR_TOL:
        status = "converged_to_gauge"

    return OptimizerTrace(iterations=trace, terminal_status=status,
                          degrees=tuple(degrees), final_coeffs=c)
