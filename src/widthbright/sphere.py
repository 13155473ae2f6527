"""Spherical quadrature grids, real spherical harmonics, and derivative jets.

Everything downstream integrates over an antipodally closed product grid
(Gauss-Legendre in cos(theta) times uniform azimuth). Basis functions are
orthonormal real spherical harmonics handled through their solid harmonic
forms: each Y_{l,m} restricted to the sphere extends to a homogeneous
harmonic polynomial R_{l,m}(x,y,z) of degree l. One recurrence
(_solid_jets) builds the R values and carries their Cartesian gradients and
Hessians along by the product rule, never by finite differences. The degree-1 homogeneous extension of a coefficient field p is
p~(x) = |x| p(x/|x|) = sum_q c_q R_q(x) |x|^(1-l_q), and the tangential jet
of p at |u| = 1 comes from R alone:

    p(u)          = R(u)
    (grad p)_a    = e_a . dR(u)                      (e_a tangent, e_a.u = 0)
    (hess p)_ab   = e_a^T d2R(u) e_b - l R(u) delta_ab

which is the tangential part of d2p~(u) minus p(u) I.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------------------
# grid

@dataclass(eq=False)
class SphericalGrid:
    """Antipodally closed quadrature node set on the unit sphere.

    nodes[antipode_index[i]] == -nodes[i] holds bitwise, and the tangent
    frame at the antipode is (e1, -e2), so the frame change between u and -u
    is the constant matrix antipode_frame_flip = diag(1, -1).
    """

    n_theta: int
    n_phi: int
    nodes: np.ndarray            # (N, 3) unit vectors
    weights: np.ndarray          # (N,) positive, sum 4 pi
    antipode_index: np.ndarray   # (N,) involutive permutation
    frame: np.ndarray            # (N, 2, 3) orthonormal tangent pairs, e1 x e2 = u
    antipode_frame_flip: np.ndarray  # (2, 2)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]


def _freeze(a):
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def make_grid(n_theta, n_phi):
    """Build the product grid with n_theta Gauss-Legendre rings and n_phi azimuths.

    n_phi must be even so that every node's antipode is again a node. Poles
    are never nodes (GL nodes are interior), so frames are well defined
    everywhere.
    """
    n_theta = int(n_theta)
    n_phi = int(n_phi)
    if n_theta < 2:
        raise ValueError("n_theta must be at least 2")
    if n_phi < 2 or n_phi % 2 != 0:
        raise ValueError("n_phi must be even and positive (antipodal closure)")

    ct, wt = np.polynomial.legendre.leggauss(n_theta)
    # symmetrize so ct[n-1-i] == -ct[i] bitwise; leggauss is only symmetric
    # to roundoff
    ct = 0.5 * (ct - ct[::-1])
    wt = 0.5 * (wt + wt[::-1])
    st = np.sqrt(1.0 - ct * ct)

    # second azimuth half by negation: cos(phi + pi) = -cos(phi) exactly
    half = n_phi // 2
    phi = TWO_PI * np.arange(half) / n_phi
    cp = np.concatenate([np.cos(phi), -np.cos(phi)])
    sg = np.concatenate([np.sin(phi), -np.sin(phi)])

    st_c = st[:, None]
    ct_c = ct[:, None]
    nodes = np.empty((n_theta, n_phi, 3))
    nodes[:, :, 0] = st_c * cp
    nodes[:, :, 1] = st_c * sg
    nodes[:, :, 2] = ct_c

    frame = np.empty((n_theta, n_phi, 2, 3))
    # e1 = d u / d theta, e2 = normalized d u / d phi
    frame[:, :, 0, 0] = ct_c * cp
    frame[:, :, 0, 1] = ct_c * sg
    frame[:, :, 0, 2] = -st_c
    frame[:, :, 1, 0] = -sg
    frame[:, :, 1, 1] = cp
    frame[:, :, 1, 2] = 0.0

    weights = np.broadcast_to(wt[:, None] * (TWO_PI / n_phi), (n_theta, n_phi))

    ii, jj = np.meshgrid(np.arange(n_theta), np.arange(n_phi), indexing="ij")
    anti = (n_theta - 1 - ii) * n_phi + (jj + half) % n_phi

    grid = SphericalGrid(
        n_theta=n_theta,
        n_phi=n_phi,
        nodes=_freeze(nodes.reshape(-1, 3)),
        weights=_freeze(np.ascontiguousarray(weights.reshape(-1))),
        antipode_index=_freeze(anti.reshape(-1)),
        frame=_freeze(frame.reshape(-1, 2, 3)),
        antipode_frame_flip=_freeze(np.diag([1.0, -1.0])),
    )
    return grid


def integrate(grid, f):
    """Quadrature sum(weights * f) over the grid nodes."""
    f = np.asarray(f, float)
    if f.shape != (grid.n_nodes,):
        raise ValueError("value sequence length does not match node count")
    return float(grid.weights @ f)


# ---------------------------------------------------------------------------
# real solid harmonics

@dataclass(eq=False)
class HarmonicBasis:
    """Real spherical harmonics up to degree lmax.

    Basis index q runs over (l, m) in lexicographic order, l ascending and
    m from -l to l, so q = l^2 + l + m. The functions are L2(S^2)
    orthonormal with Y_00 = 1/(2 sqrt(pi)), m > 0 the cosine sector, m < 0
    the sine sector and no Condon-Shortley sign; _solid_jets evaluates them.
    """

    lmax: int
    degrees: np.ndarray  # (B,)

    @property
    def size(self):
        return self.degrees.size


def basis_index(l, m):
    """Flat coefficient index of (l, m): l^2 + l + m."""
    if abs(m) > l:
        raise ValueError("|m| must not exceed l")
    return l * l + l + m


@lru_cache(maxsize=None)
def make_basis(lmax):
    """The basis up to degree lmax: one shared object per lmax, since node
    tables are cached per (grid, basis) object."""
    lmax = int(lmax)
    if lmax < 0:
        raise ValueError("lmax must be nonnegative")
    degrees = np.repeat(np.arange(lmax + 1), 2 * np.arange(lmax + 1) + 1)
    return HarmonicBasis(lmax=lmax, degrees=_freeze(degrees))


# Hessian rows of a jet, in the order (xx, xy, xz, yy, yz, zz)
_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _times_coord(x, a, t):
    """Jet of x_a * t by the product rule.

    A jet stacks the value, three Cartesian gradient rows and six Hessian
    rows along axis 0; t is (10, k, N), or (1, k, N) for values alone, and x
    is (3, 1, N).
    """
    out = x[a] * t
    if len(t) == 1:
        return out
    out[1 + a] += t[0]
    for k, (b, c) in enumerate(_PAIRS):
        if b == a:
            out[4 + k] += t[1 + c]
        if c == a:
            out[4 + k] += t[1 + b]
    return out


def _times_r2(x, r2, t):
    """Jet of r^2 * t by the product rule."""
    out = r2 * t
    if len(t) == 1:
        return out
    for a in range(3):
        out[1 + a] += 2 * x[a] * t[0]
    for k, (a, b) in enumerate(_PAIRS):
        out[4 + k] += 2 * (x[a] * t[1 + b] + x[b] * t[1 + a])
        if a == b:
            out[4 + k] += 2 * t[0]
    return out


def _solid_jets(pts, lmax, values_only=False):
    """Value, gradient and Hessian of every solid harmonic R_q at points x.

    Returns J of shape (10, (lmax+1)^2, N): J[0, q, i] = R_q(x_i), J[1:4]
    the Cartesian gradient, J[4:] the Hessian rows (xx, xy, xz, yy, yz,
    zz). values_only carries the value row alone through the same steps,
    giving J[:1] bitwise. R_q is the degree-l_q homogeneous polynomial equal
    to Y_q on the unit sphere, so x need not be a unit vector. Works in the
    dtype of pts (float64, or longdouble for reference computations).

    The normalized Cartesian recurrences (Helgaker, Jorgensen & Olsen,
    Molecular Electronic-Structure Theory, sec. 6.4), with C_l = R_{l,l},
    S_l = R_{l,-l} and r^2 = x^2 + y^2 + z^2:

        R_00 = 1 / (2 sqrt(pi))
        C_l  = s_l (x C_{l-1} - y S_{l-1}),  S_l = s_l (y C_{l-1} + x S_{l-1})
        R_lm = a_lm z R_{l-1,m} - b_lm r^2 R_{l-2,m}              (|m| < l)

    with s_1 = sqrt(3) (S_0 = 0), s_l = sqrt((2l+1)/(2l)), a_lm =
    sqrt((4l^2-1)/(l^2-m^2)) and b_lm = sqrt((2l+1)((l-1)^2-m^2) /
    ((2l-3)(l^2-m^2))). Every step multiplies by x, y, z, r^2 or a constant
    and adds, and IEEE rounding is sign-symmetric, so R_q(-x) = (-1)^l_q
    R_q(x) holds bitwise, and likewise for the derivative rows.
    """
    pts = np.asarray(pts)
    dtype = np.result_type(pts.dtype, float)
    x = pts.T.astype(dtype)[:, None, :]  # (3, 1, N)
    r2 = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
    J = np.zeros((1 if values_only else 10, (lmax + 1) ** 2, pts.shape[0]), dtype)
    J[0, 0] = 1 / (2 * np.sqrt(np.arccos(dtype.type(-1))))
    for l in range(1, lmax + 1):
        below = J[:, (l - 1) ** 2:l * l]  # degree l - 1, m = 1-l .. l-1
        m = np.arange(1 - l, l)
        den = (l * l - m * m).astype(dtype)
        a = np.sqrt((4 * l * l - 1) / den)[:, None]
        new = a * _times_coord(x, 2, below)
        if l >= 2:
            b = np.sqrt((2 * l + 1) * ((l - 1) ** 2 - m[1:-1] ** 2)
                        / ((2 * l - 3) * den[1:-1]))[:, None]
            new[:, 1:-1] -= b * _times_r2(x, r2, J[:, (l - 2) ** 2:(l - 1) ** 2])
        J[:, l * l + 1:(l + 1) ** 2 - 1] = new

        sc = below[:, [0, -1]]  # (S_{l-1}, C_{l-1}); a copy
        if l == 1:
            sc[:, 0] = 0.0
        xs = _times_coord(x, 0, sc)
        ys = _times_coord(x, 1, sc)
        # the m = 0 -> 1 step also carries the sqrt(2) of m != 0
        s = np.sqrt(dtype.type(3) if l == 1 else dtype.type(2 * l + 1) / (2 * l))
        J[:, l * l] = s * (xs[:, 0] + ys[:, 1])
        J[:, (l + 1) ** 2 - 1] = s * (xs[:, 1] - ys[:, 0])
    return J


def _phi_table(basis, jets, pts):
    """PHI[i, :, q] = dR_q(u_i) + (1 - l_q) R_q(u_i) u_i at unit points u_i,
    from their _solid_jets, as an (N, 3, B) view; phi = h u + grad h is
    PHI @ c."""
    one_minus_l = (1.0 - basis.degrees)[:, None]
    phi = jets[1:4] + (one_minus_l * jets[0]) * pts.T[:, None, :]
    return phi.transpose(2, 0, 1)


def basis_values(basis, pts):
    """Values of every basis function at the given unit points, shape (N, B)."""
    return np.ascontiguousarray(
        _solid_jets(np.atleast_2d(pts), basis.lmax, values_only=True)[0].T)


def evaluate(basis, coeffs, pts):
    """Evaluate sum_q coeffs[q] Y_q at unit points."""
    coeffs = np.asarray(coeffs, float)
    if coeffs.shape != (basis.size,):
        raise ValueError("coefficient length does not match basis size")
    return basis_values(basis, pts) @ coeffs


def eval_homogeneous(basis, coeffs, xs):
    """The degree-1 homogeneous extension p~(x) = |x| p(x/|x|) at arbitrary x."""
    coeffs = np.asarray(coeffs, float)
    xs = np.atleast_2d(np.asarray(xs, float))
    r = np.linalg.norm(xs, axis=1)
    vals = _solid_jets(xs, basis.lmax, values_only=True)[0].T
    # R_q is homogeneous of degree l_q, so p~ = sum c_q R_q(x) r^(1-l_q)
    scale = r[:, None] ** (1.0 - basis.degrees[None, :])
    return (vals * scale) @ coeffs


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
    value part removed from the Hessian diagonal.
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


# ---------------------------------------------------------------------------
# per-(grid, basis) node tables

@dataclass(eq=False)
class NodeTables:
    """Per-node basis tables: values, boundary-point maps, and curvature forms.

    V[i, q]      = Y_q(u_i)
    PHI[i, :, q] = dR_q(u_i) + (1 - l_q) Y_q(u_i) u_i       (phi is PHI @ c)
    M[i, :, q]   = (m11, m12, m22) of Y_q I + hess Y_q in the node frame,
                   so the support matrix h I + hess h is M @ c per node.
    """

    V: np.ndarray    # (N, B)
    PHI: np.ndarray  # (N, 3, B)
    M: np.ndarray    # (N, 3, B)


@lru_cache(maxsize=None)
def node_tables(grid, basis):
    """NodeTables of the basis on the grid, one shared object per pair."""
    pts = grid.nodes
    jets = _solid_jets(pts, basis.lmax)
    # the jets are laid out (component, q, node); every table is copied out
    # in node-major order, so the cache does not keep the jet stack alive
    vals = np.ascontiguousarray(jets[0].T)
    phi = np.ascontiguousarray(_phi_table(basis, jets, pts))
    one_minus_l = (1.0 - basis.degrees)[:, None]

    e1 = grid.frame[:, 0, :].T
    e2 = grid.frame[:, 1, :].T

    def quad_form(a, b):
        # a^T H b summed over the six Hessian rows
        return sum((a[c] * b[d] + a[d] * b[c] if c != d else a[c] * b[c]) * h
                   for (c, d), h in zip(_PAIRS, jets[4:]))

    m = np.empty((pts.shape[0], 3, basis.size))
    m[:, 0, :] = (quad_form(e1, e1) + one_minus_l * jets[0]).T
    m[:, 1, :] = quad_form(e1, e2).T
    m[:, 2, :] = (quad_form(e2, e2) + one_minus_l * jets[0]).T

    return NodeTables(V=_freeze(vals), PHI=_freeze(phi), M=_freeze(m))


def entries_det(e):
    """Determinant of symmetric 2x2 matrices given as (m11, m12, m22) rows."""
    return e[..., 0] * e[..., 2] - e[..., 1] * e[..., 1]


def entries_eigmin(e):
    """Least eigenvalue of symmetric 2x2 matrices given as entry rows."""
    mean = 0.5 * (e[..., 0] + e[..., 2])
    rad = np.hypot(0.5 * (e[..., 0] - e[..., 2]), e[..., 1])
    return mean - rad


def entries_eigmax(e):
    mean = 0.5 * (e[..., 0] + e[..., 2])
    rad = np.hypot(0.5 * (e[..., 0] - e[..., 2]), e[..., 1])
    return mean + rad
