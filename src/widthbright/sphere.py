"""Spherical quadrature grids, real spherical harmonics, and their node tables.

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

node_tables runs the recurrence on one meridian only, builds no (N, B) table,
and no module but sphere reads its fields. One reader per need: synthesize
(Driscoll & Healy's semi-naive synthesis) gives body's record, pole points
too; synthesize_entries its entries alone, bitwise; node_columns single basis
columns. eigen_rows is the one eigen form of 2x2 entry rows.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# grid

@dataclass(eq=False)
class SphericalGrid:
    """Antipodally closed quadrature node set on the unit sphere.

    nodes[antipode_index[i]] == -nodes[i] holds bitwise, and the tangent
    frame at the antipode is (e1, -e2), so the frame change between u and -u
    is the constant matrix diag(1, -1). half indexes one half sphere, the
    nodes i < antipode_index[i]; with their antipodes they are every node
    once. half_nodes is nodes[half], the nodes of the off-grid kernel rows.
    """

    n_theta: int
    n_phi: int
    nodes: np.ndarray            # (N, 3) unit vectors
    weights: np.ndarray          # (N,) positive, sum 4 pi
    antipode_index: np.ndarray   # (N,) involutive permutation
    frame: np.ndarray            # (N, 2, 3) orthonormal tangent pairs, e1 x e2 = u
    half: np.ndarray             # (N/2,) ascending node indices
    half_nodes: np.ndarray       # (N/2, 3)

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
    anti = ((n_theta - 1 - ii) * n_phi + (jj + half) % n_phi).reshape(-1)

    nodes = nodes.reshape(-1, 3)
    half = np.flatnonzero(np.arange(anti.size) < anti)
    return SphericalGrid(
        n_theta=n_theta,
        n_phi=n_phi,
        nodes=_freeze(nodes),
        weights=_freeze(np.ascontiguousarray(weights.reshape(-1))),
        antipode_index=_freeze(anti),
        frame=_freeze(frame.reshape(-1, 2, 3)),
        half=_freeze(half),
        half_nodes=_freeze(nodes[half]),
    )


def require_resolvable(n_theta, lmax):
    """Refuse degree lmax where a grid of n_theta rings cannot resolve it:
    the rings resolve the degrees below n_theta."""
    if n_theta < lmax + 1:
        raise ValueError("grid too coarse for lmax %d: need n_theta >= %d"
                         % (lmax, lmax + 1))


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


def basis_values(basis, pts):
    """Values of every basis function at the given unit points, shape (N, B)."""
    return np.ascontiguousarray(
        _solid_jets(np.atleast_2d(pts), basis.lmax, values_only=True)[0].T)


# ---------------------------------------------------------------------------
# per-(grid, basis) meridian tables

@dataclass(eq=False)
class NodeTables:
    """The basis on the grid's meridian, and the azimuth factors that carry
    it to every node; no (N, B) table is held.

    EVEN[k n_theta + i, q] = row k of (value, m11, m22, phi_x, phi_z) of q's
                             cosine partner at ring i's meridian node
    ODD[k n_theta + i, q]  = row k of (m12, phi_y) of q's sine partner there
    A[q, j], B[q, j]       = q's factors for the EVEN and ODD rows at azimuth j
    AZIMUTH[:, j]          = (cos, sin) of azimuth j, which turn phi's x and y
    POLES[k, :, q]         = phi of Y_q at the north (k = 0) and south pole

    (m11, m12, m22) are the rows of Y_q I + hess Y_q in the node frame and
    phi_q = dR_q + (1 - l_q) Y_q u; synthesize evaluates fields from them,
    the pole points included.
    """

    EVEN: np.ndarray     # (5 n_theta, B)
    ODD: np.ndarray      # (2 n_theta, B)
    A: np.ndarray        # (B, n_phi)
    B: np.ndarray        # (B, n_phi)
    AZIMUTH: np.ndarray  # (2, n_phi)
    POLES: np.ndarray    # (2, 3, B): north (+e3), south (-e3)


def _frame_form(a, b, hess):
    """a^T H b per node, with H given by its six Hessian rows."""
    return sum((a[c] * b[d] + a[d] * b[c] if c != d else a[c] * b[c]) * h
               for (c, d), h in zip(_PAIRS, hess))


@lru_cache(maxsize=None)
def node_tables(grid, basis):
    """NodeTables of the basis on the grid, one shared object per pair.

    The recurrence runs on one meridian only: the azimuth-0 node of each
    ring, with its frame e1 = (cos theta, 0, -sin theta), e2 = e_y. The
    rotation R about e3 through the azimuth phi_j carries that node and its
    frame to node j of the ring, and it turns the harmonics of order +-m
    (m >= 0) into each other:

        Y_{l,m} o R  = cos(m phi) Y_{l,m} - sin(m phi) Y_{l,-m}
        Y_{l,-m} o R = sin(m phi) Y_{l,m} + cos(m phi) Y_{l,-m}

    So Y_q at node j has the value and entries of Y_q o R on the meridian,
    and R turns its phi. On the meridian (y = 0) a cosine-sector function
    (m >= 0) is even in y, with m12 and phi_y exactly zero, and a sine-sector
    one odd, with the value, m11, m22, phi_x and phi_z zero: every entry is
    one meridian entry of a partner column times one trig factor.

    cos(m phi_j) and sin(m phi_j) are computed for the first n_phi/2
    azimuths, and the second half is (-1)^m times the first, exactly.
    Rings i and n_theta-1-i are mirror images in z, which the recurrence
    keeps bitwise, so node and antipode differ by signs only. The record is
    7 n_theta B + 2 B n_phi doubles. The poles ride on the meridian's
    recurrence call; POLES is their (3, B, 2) phi block transposed, not made
    contiguous: matmul hands a contiguous table to BLAS, and that moves some
    pole points in the last bit.
    """
    n_theta, n_phi, size = grid.n_theta, grid.n_phi, basis.size
    pts = np.concatenate([grid.nodes[::n_phi], [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    jets = _solid_jets(pts, basis.lmax)  # (component, q, ring or pole)
    one_minus_l = (1.0 - basis.degrees)[:, None]
    phi = jets[1:4] + (one_minus_l * jets[0]) * pts.T[:, None, :]
    poles = phi[:, :, n_theta:].copy().transpose(2, 0, 1)
    jets, phi = jets[:, :, :n_theta], phi[:, :, :n_theta]
    e1, e2 = grid.frame[::n_phi].transpose(1, 2, 0)
    m11 = _frame_form(e1, e1, jets[4:]) + one_minus_l * jets[0]
    m12 = _frame_form(e1, e2, jets[4:])
    m22 = _frame_form(e2, e2, jets[4:]) + one_minus_l * jets[0]

    # column q = (l, m) reads the meridian rows that are even in y from its
    # cosine partner (l, |m|), with factor a, and those odd in y from its
    # sine partner (l, -|m|), with factor b
    degrees = basis.degrees
    q = np.arange(size)
    m = q - degrees * (degrees + 1)
    k = np.abs(m)
    even, odd = q - m + k, q - m - k
    # k phi_j reduced mod 2 pi in integers, so the angle stays below 2 pi
    # however large k is
    angle = (TWO_PI / n_phi) * (np.outer(k, np.arange(n_phi // 2)) % n_phi)
    cos_k, sin_k = np.cos(angle), np.sin(angle)
    sign, up = (1.0 - 2.0 * (k % 2))[:, None], (m >= 0)[:, None]
    a, b = (np.concatenate([t, sign * t], axis=1) for t in
            (np.where(up, cos_k, sin_k), np.where(up, -sin_k, cos_k)))
    # the grid's own azimuth trig, from the ring-0 frames e2 = (-sin, cos, 0)
    azimuth = np.stack((grid.frame[:n_phi, 1, 1], -grid.frame[:n_phi, 1, 0]))
    return NodeTables(
        EVEN=_freeze(np.concatenate([r[even].T for r in
                                     (jets[0], m11, m22, phi[0], phi[2])])),
        ODD=_freeze(np.concatenate([r[odd].T for r in (m12, phi[1])])),
        A=_freeze(a), B=_freeze(b), AZIMUTH=_freeze(azimuth), POLES=_freeze(poles))


def synthesize(tab, c):
    """values (N,), support-matrix entries (N, 3), phi (N, 3) and the pole
    points (2, 3) of the field with coefficients c, from two small products
    over the meridian, (EVEN * c) @ A and (ODD * c) @ B, whose rows are
    turned to phi at each azimuth, and POLES @ c. Node and antipode scale
    their terms by signs only, so an even or odd field keeps its antipodal
    parity bitwise where BLAS sums their rows in one order: on the tested
    grids, but with OpenBLAS 0.3.31 not in m12 and phi at 42x84, degree 11."""
    even, odd = _meridian_products(tab, c)
    value, _, _, px, pz = even
    cp, sp = tab.AZIMUTH
    phi = np.stack((cp * px - sp * odd[1], sp * px + cp * odd[1], pz), axis=-1)
    return value.flatten(), _entries(even, odd), phi.reshape(-1, 3), tab.POLES @ c


def synthesize_entries(tab, c):
    """synthesize's support-matrix entries alone, bitwise: the same two
    products, without the values and phi. Products of the entry rows alone
    would be cheaper, but BLAS may sum a row of a smaller product in
    another order (rho of degree-19 fields on 20x40 moved by an ulp)."""
    return _entries(*_meridian_products(tab, c))


def _meridian_products(tab, c):
    n_theta, n_phi = tab.ODD.shape[0] // 2, tab.A.shape[1]
    return (((tab.EVEN * c) @ tab.A).reshape(5, n_theta, n_phi),
            ((tab.ODD * c) @ tab.B).reshape(2, n_theta, n_phi))


def _entries(even, odd):
    return np.stack((even[1], odd[0], even[2]), axis=-1).reshape(-1, 3)


def node_columns(tab, idx):
    """Support-matrix entries (N, 3, len(idx)) of the basis columns idx at
    every node, each one meridian entry times one azimuth factor."""
    n_theta = tab.ODD.shape[0] // 2
    rows = tab.EVEN[:, idx].reshape(5, n_theta, 1, -1)
    a, b = tab.A[idx].T, tab.B[idx].T
    return np.stack((rows[1] * a, tab.ODD[:n_theta, None, idx] * b, rows[2] * a),
                    axis=2).reshape(-1, 3, len(idx))


def sigma_entries(a, b):
    """Polarization of det on symmetric 2x2 matrices given as entry rows
    (m11, m12, m22): sigma(A, B) = (tr A tr B - tr(AB)) / 2, so
    sigma(A, A) = det A, bitwise while x + x stays finite (0.5 (x + x) = x)."""
    return 0.5 * (a[..., 0] * b[..., 2] + a[..., 2] * b[..., 0]) \
        - a[..., 1] * b[..., 1]


def eigen_rows(e):
    """Entry rows (m11, m12, m22) -> (mean, half-difference, off-diagonal)."""
    return 0.5 * (e[..., 0] + e[..., 2]), 0.5 * (e[..., 0] - e[..., 2]), e[..., 1]


def entries_eigmin(e):
    """Least eigenvalue of symmetric 2x2 matrices given as entry rows."""
    mean, d, o = eigen_rows(e)
    return mean - np.hypot(d, o)
