"""Support functions of convex bodies and their width/symmetral/sum algebra.

A body is stored as real spherical-harmonic coefficients of its support
function h(u) = max_{y in K} <y, u>. Parity does all the work here: the even
part of h is the central symmetral (same width function, centrally
symmetric), the odd part is the asymmetry, and Minkowski sum is coefficient
addition. Convexity is certified by the least eigenvalue of the support
matrix h I + hess h over the grid, whose determinant is the reciprocal
Gauss curvature at the boundary point with outward normal u.

inverse_gauss is the one place a body is evaluated on a grid: it returns a
read-only BoundaryField (h, the support matrix, its least eigenvalue and
determinant, and phi = h u + grad h at the nodes and the poles, with the
grid and lmax), cached per (grid, lmax, coefficient values). sphere's
synthesize, called here alone, gives its values, entries, phi and pole
points. Every result on a grid reads that record, and the mesh and the probe
model are keyed by it alone. Four reads need the entries alone and build no
record: constant_width_body's bound, random_convex's halvings, and lab's
parity check and sign obstruction take them from synthesize_entries, bitwise.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sphere import (
    make_basis, make_grid, node_tables, basis_values, entries_eigmin,
    sigma_entries, require_resolvable, synthesize, _freeze,
)

TOL_PSD = 1e-9
# the eigenvalues of a ring that symmetry ties at the minimum spread over
# ~110 ulps from roundoff (ellipsoid (1,1,2), lmax 12, 32x64)
_TIE_ULPS = 256


class NotConvexError(RuntimeError):
    """Raised when an operation that needs a certified convex body gets none:
    a body whose least support-matrix eigenvalue is below the tolerance, or
    a gauge without the positive margin that sizes a perturbation. The
    command line exits 3 (infeasible) on it."""


@dataclass(eq=False)
class SupportFunction:
    """Harmonic coefficients of a support function, plus provenance.

    coeffs follows the (l, m) lexicographic order of the basis, l ascending,
    m from -l to l. closed_form is an optional evaluator tag ("ball:r" or
    "ellipsoid:a,b,c") for bodies with an exact formula; truncation_tol is
    the largest deviation of the coefficients from it at the nodes of their
    fit grid and of body_from_spec's 16x32 check, not a bound over the sphere.
    """

    coeffs: np.ndarray
    lmax: int
    closed_form: str = None
    label: str = ""
    truncation_tol: float = 0.0

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, float)
        if self.lmax < 0:
            raise ValueError("lmax must be nonnegative")
        if self.coeffs.shape != ((self.lmax + 1) ** 2,):
            raise ValueError("coefficient length does not match lmax")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("support function coefficients must be finite")

    @property
    def basis(self):
        return make_basis(self.lmax)


@dataclass(eq=False)
class ConvexityCertificate:
    """Grid minimum of the support-matrix eigenvalues and determinant."""

    min_eigenvalue: float
    det_min: float
    node_of_min: int
    convex: bool
    tol_psd: float = TOL_PSD


def closed_form_values(tag, pts):
    """Evaluate a closed-form support function tag at unit points."""
    pts = np.atleast_2d(np.asarray(pts, float))
    kind, _, args = tag.partition(":")
    params = [float(s) for s in args.split(",")] if args else []
    need = {"ball": 1, "ellipsoid": 3}.get(kind)
    if need is None:
        raise ValueError("unknown closed form tag: %r" % tag)
    if len(params) != need:
        raise ValueError("closed form tag %r: %s needs %d parameter(s), got %d"
                         % (tag, kind, need, len(params)))
    if kind == "ball":
        return np.full(pts.shape[0], params[0])
    a, b, c = params
    return np.sqrt((a * pts[:, 0]) ** 2 + (b * pts[:, 1]) ** 2
                   + (c * pts[:, 2]) ** 2)


@dataclass(frozen=True, eq=False)
class BoundaryField:
    """One evaluation of a body on a grid; every array is read-only.

    values and phi = h u + grad h are h and the boundary point at each
    node; entries are the rows (m11, m12, m22) of the support matrix
    h I + hess h in the node frame, eigmin and detfield its least
    eigenvalue and determinant. pole_points holds phi at the north and
    south poles (the grid itself has no pole nodes); min_eigenvalue is the
    grid minimum of eigmin, the certificate value.
    """

    values: np.ndarray       # (N,)
    entries: np.ndarray      # (N, 3)
    eigmin: np.ndarray       # (N,)
    detfield: np.ndarray     # (N,)
    phi: np.ndarray          # (N, 3)
    pole_points: np.ndarray  # (2, 3): north (+e3), south (-e3)
    min_eigenvalue: float
    grid: object             # the SphericalGrid and the degree the body was
    lmax: int                # evaluated for: the record alone is a cache key


def inverse_gauss(h, grid):
    """The BoundaryField of h on the grid, keyed by its coefficient values,
    so a body changed in place gets a fresh record."""
    return _field(grid, h.lmax, h.coeffs.tobytes())


# room for a few bodies on two grids: an oracle pass alternates between a
# grid and its 2x refinement; a probe records its gauge alone, since a
# start's perturbation bound synthesizes its entries without a record
@lru_cache(maxsize=8)
def _field(grid, lmax, coeff_bytes):
    """inverse_gauss's record: one synthesis from the meridian tables, poles too."""
    values, ent, phi, poles = synthesize(node_tables(grid, make_basis(lmax)),
                                         np.frombuffer(coeff_bytes))
    eigmin = entries_eigmin(ent)
    return BoundaryField(
        values=_freeze(values),
        entries=_freeze(ent),
        eigmin=_freeze(eigmin),
        detfield=_freeze(sigma_entries(ent, ent)),
        phi=_freeze(phi),
        pole_points=_freeze(poles),
        min_eigenvalue=float(eigmin.min()),
        grid=grid,
        lmax=lmax,
    )


def require_convex(field, what, tol_psd=TOL_PSD):
    """The field, or NotConvexError when its least eigenvalue is below -tol_psd."""
    if not field.min_eigenvalue >= -tol_psd:
        raise NotConvexError("%s needs a certified convex body (min eigenvalue %.3e)"
                             % (what, field.min_eigenvalue))
    return field


def width(h, grid):
    """Width function w(u) = h(u) + h(-u) at every node, via antipode_index."""
    vals = inverse_gauss(h, grid).values
    return vals + vals[grid.antipode_index]


def central_symmetral(h):
    """Even part of h: the support function of the central symmetral."""
    odd = h.basis.degrees % 2 == 1
    tag = h.closed_form if not h.coeffs[odd].any() else None
    return SupportFunction(np.where(odd, 0.0, h.coeffs), h.lmax, closed_form=tag,
                           label="sym(%s)" % h.label if h.label else "",
                           truncation_tol=h.truncation_tol if tag else 0.0)


def odd_part(h):
    """Odd part of h: what central symmetrization removes."""
    return SupportFunction(np.where(h.basis.degrees % 2 == 1, h.coeffs, 0.0),
                           h.lmax, label="odd(%s)" % h.label if h.label else "")


def _padded(coeffs, lmax_from, lmax_to):
    out = np.zeros((lmax_to + 1) ** 2)
    out[:(lmax_from + 1) ** 2] = coeffs
    return out


def minkowski_sum(h1, h2):
    """Support function of the Minkowski sum: coefficientwise addition."""
    lmax = max(h1.lmax, h2.lmax)
    coeffs = _padded(h1.coeffs, h1.lmax, lmax) + _padded(h2.coeffs, h2.lmax, lmax)
    tag = None
    if (h1.closed_form or "").startswith("ball:") and \
       (h2.closed_form or "").startswith("ball:"):
        r = float(h1.closed_form[5:]) + float(h2.closed_form[5:])
        tag = "ball:%r" % r
    label = "+".join(s for s in (h1.label, h2.label) if s)
    return SupportFunction(coeffs, lmax, closed_form=tag, label=label)


def certify_convex(h, grid, tol_psd=TOL_PSD):
    """Certificate from the support matrix h I + hess h at every node.

    Convex iff the global minimum eigenvalue is >= -tol_psd. The minimum
    determinant is recorded too (it lower-bounds reciprocal Gauss
    curvature, which Minkowski summands can only increase).

    node_of_min is the lowest node whose eigenvalue exceeds the minimum by
    at most _TIE_ULPS ulps of the largest |eigenvalue|, so a minimum that
    symmetry ties along a ring reports the same node whatever the roundoff.
    """
    field = inverse_gauss(h, grid)
    eigmin = field.eigmin
    low = field.min_eigenvalue
    tie = _TIE_ULPS * np.finfo(float).eps * float(np.abs(eigmin).max())
    return ConvexityCertificate(
        min_eigenvalue=low,
        det_min=float(field.detfield.min()),
        node_of_min=int(np.flatnonzero(eigmin <= low + tie)[0]),
        convex=bool(low >= -tol_psd),
        tol_psd=tol_psd,
    )


def volume(h, grid, tol_psd=TOL_PSD):
    """Body volume (1/3) int h det(h I + hess h) dS. Refuses non-convex input."""
    field = require_convex(inverse_gauss(h, grid), "volume", tol_psd)
    return float(grid.weights @ (field.values * field.detfield)) / 3.0


# ---------------------------------------------------------------------------
# body-spec JSON: read_degree reads every integer field, read_number every number

def body_to_spec(h):
    spec = {
        "basis": "real-sph-harm",
        "lmax": int(h.lmax),
        "coeffs": [float(c) for c in h.coeffs],
        "label": h.label,
    }
    if h.closed_form is not None:
        spec["closed_form"] = h.closed_form
        spec["truncation_tol"] = float(h.truncation_tol)
    return spec


def read_degree(value, name="lmax"):
    """An integer field as JSON gives it: 40, 40.0 and "40" all read as 40.
    Anything else, a boolean, null, a list, other text, a fraction or an
    infinity, is refused with a ValueError naming the field."""
    try:
        if isinstance(value, str) or int(value) == value and not isinstance(value, bool):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError("%s must be an integer, got %r" % (name, value))


def read_number(value, name):
    """A number field as JSON gives it: 1.5 and "1.5" both read as 1.5.
    Anything else, a boolean (which float() reads as 1 or 0), null, a list or
    other text, is refused with a ValueError naming the field."""
    if isinstance(value, bool):
        raise ValueError("%s: a JSON boolean is not a number" % name)
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("%s must be a number, got %r" % (name, value)) from None


def _closed_form_deviation(h):
    """Largest |h - closed form| and |closed form| at the 16x32 nodes where
    body_from_spec checks a spec, from the values alone: no node tables or
    field record are cached for a grid the caller never asked for."""
    nodes = make_grid(16, 32).nodes
    exact = closed_form_values(h.closed_form, nodes)
    return (np.abs(basis_values(h.basis, nodes) @ h.coeffs - exact).max(),
            np.abs(exact).max())


def body_from_spec(spec, n_theta=None):
    """The SupportFunction a body spec describes. Given the ring count of the
    grid the spec is read for, a degree those rings cannot resolve is refused
    before the closed-form check evaluates the basis at it."""
    if not isinstance(spec, dict):
        raise ValueError("body spec must be a JSON object")
    if spec.get("basis") != "real-sph-harm":
        raise ValueError("unsupported basis tag: %r" % spec.get("basis"))
    lmax = read_degree(spec.get("lmax"))
    if n_theta is not None:
        require_resolvable(n_theta, lmax)
    coeffs = spec.get("coeffs")
    if not isinstance(coeffs, list):
        raise ValueError("coeffs must be a list of numbers, got %r" % (coeffs,))
    coeffs = [read_number(c, "coeffs") for c in coeffs]
    truncation_tol = read_number(spec.get("truncation_tol", 0.0), "truncation_tol")
    if not (math.isfinite(truncation_tol) and truncation_tol >= 0.0):
        raise ValueError("truncation_tol must be finite and >= 0, got %r"
                         % truncation_tol)
    closed_form = spec.get("closed_form")
    if not isinstance(closed_form, (str, type(None))):
        raise ValueError("closed_form must be a tag string, got %r" % (closed_form,))
    label = spec.get("label", "")
    if not isinstance(label, str):
        raise ValueError("label must be a string, got %r" % (label,))
    h = SupportFunction(coeffs, lmax, closed_form=closed_form, label=label,
                        truncation_tol=truncation_tol)
    if h.closed_form is not None:
        # the 1e-8 scales with the largest value above 1
        dev, top = _closed_form_deviation(h)
        tol = 2.0 * h.truncation_tol + 1e-8 * max(1.0, top)
        if not dev <= tol < math.inf:  # a NaN or infinite tag fails too
            raise ValueError(
                "closed_form %r disagrees with coefficients "
                "(max deviation %.3g)" % (h.closed_form, dev))
    return h
