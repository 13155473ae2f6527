"""Constructors for test bodies: balls, ellipsoids, constant-width families,
and seeded random convex bodies.

The constant-width construction is the workhorse: for an even certified
gauge h0 and an odd perturbation p, h = h0 + eps p has exactly the width
function of the gauge (parity cancellation) and stays convex whenever
eps * max|eig(p I + hess p)| is below the gauge's PSD margin. eps is chosen
deterministically at 90 percent of that bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .sphere import make_grid, make_basis, basis_index, basis_values, \
    entries_eigmax
from .body import SupportFunction, certify_convex, body_from_spec, \
    inverse_gauss, _padded

_MIN_EIG_TARGET = 0.1
_MAX_HALVINGS = 60
_EPS_SAFETY = 0.9


@dataclass(eq=False)
class BodyRecipe:
    kind: str
    params: dict
    resolved: SupportFunction


def ball(r):
    """Ball of radius r centered at the origin: h is the constant r."""
    r = float(r)
    if r <= 0.0:
        raise ValueError("ball radius must be positive")
    coeffs = np.array([2.0 * math.sqrt(math.pi) * r])
    return SupportFunction(coeffs, 0, closed_form="ball:%r" % r,
                           label="ball(%g)" % r, truncation_tol=0.0)


def ellipsoid(a, b, c, lmax=12, grid=None):
    """Origin-centered ellipsoid with semi-axes (a, b, c), projected to lmax.

    h(u) = sqrt(a^2 u1^2 + b^2 u2^2 + c^2 u3^2) is projected onto the
    harmonic basis by quadrature on a dedicated grid (default 48x96);
    truncation_tol records the max deviation of the projection from the
    closed form on that grid. The closed form is even, so odd coefficients
    vanish identically.
    """
    if min(a, b, c) <= 0.0:
        raise ValueError("ellipsoid semi-axes must be positive")
    if grid is None:
        grid = make_grid(48, 96)
    basis = make_basis(lmax)
    u = grid.nodes
    hv = np.sqrt((a * u[:, 0]) ** 2 + (b * u[:, 1]) ** 2 + (c * u[:, 2]) ** 2)
    V = basis_values(basis, u)
    coeffs = V.T @ (grid.weights * hv)
    # the closed form is even; make the parity exact instead of 1e-16 noise
    coeffs[basis.degrees % 2 == 1] = 0.0
    trunc = float(np.abs(V @ coeffs - hv).max())
    return SupportFunction(coeffs, lmax,
                           closed_form="ellipsoid:%r,%r,%r"
                           % (float(a), float(b), float(c)),
                           label="ellipsoid(%g,%g,%g)" % (a, b, c),
                           truncation_tol=trunc)


def constant_width_body(gauge, p, eps_request, grid):
    """Body gauge + eps p with the same width function as the gauge.

    gauge must be even and certified convex with margin m > 0; p must be odd
    and nonzero. eps is eps_request with its magnitude capped at 0.9 m / rho,
    where rho is the grid maximum spectral radius of p I + hess p, so the
    summed support matrix keeps eigenvalues >= 0.1 m for either sign.
    """
    if np.any(gauge.coeffs[gauge.basis.degrees % 2 == 1] != 0.0):
        raise ValueError("gauge must be even (odd coefficients zero)")
    even_p = p.basis.degrees % 2 == 0
    if np.any(p.coeffs[even_p] != 0.0):
        raise ValueError("perturbation must be odd (even coefficients zero)")
    if not np.any(p.coeffs != 0.0):
        raise ValueError("perturbation must be nonzero")
    cert = certify_convex(gauge, grid)
    margin = cert.min_eigenvalue
    if not cert.convex or margin <= 0.0:
        raise ValueError("gauge must be certified convex with positive margin")

    field = inverse_gauss(p, grid)
    rho = float(np.maximum(np.abs(field.eigmin),
                           np.abs(entries_eigmax(field.entries))).max())
    if not math.isfinite(rho):
        raise ValueError("perturbation support matrix is not finite")
    if rho == 0.0:
        # degree-1 only: p is a translation, neutral for the support matrix
        if not math.isfinite(float(eps_request)):
            raise ValueError("a pure translation perturbation has no "
                             "convexity bound; give a finite eps")
        eps = float(eps_request)
    else:
        eps_request = float(eps_request)
        eps = math.copysign(min(abs(eps_request), _EPS_SAFETY * margin / rho),
                            eps_request)

    lmax = max(gauge.lmax, p.lmax)
    coeffs = _padded(gauge.coeffs, gauge.lmax, lmax) \
        + eps * _padded(p.coeffs, p.lmax, lmax)
    body = SupportFunction(coeffs, lmax,
                           label="constant_width(%s + %g*%s)"
                           % (gauge.label or "gauge", eps, p.label or "odd"))
    return BodyRecipe(
        kind="constant_width",
        params={"eps": eps,
                "eps_bound": _EPS_SAFETY * margin / rho if rho else math.inf,
                "rho": rho, "gauge_margin": margin},
        resolved=body,
    )


def random_convex(seed, lmax, grid, roughness=0.3):
    """Seeded random strictly convex body near the unit ball.

    Gaussian coefficients on degrees 2..lmax (degree 1 stays zero to pin the
    Steiner point at the origin) with per-degree decay roughness / l^2,
    halved until the convexity certificate's min eigenvalue reaches 0.1.
    """
    if not 0.0 < roughness < 1.0:
        raise ValueError("roughness must be in (0, 1)")
    basis = make_basis(lmax)
    rng = np.random.default_rng(seed)
    pert = rng.standard_normal(basis.size)
    decay = np.maximum(basis.degrees, 2) ** 2
    pert *= np.where(basis.degrees >= 2, roughness / decay, 0.0)
    base = np.zeros(basis.size)
    base[0] = 2.0 * math.sqrt(math.pi)
    for _ in range(_MAX_HALVINGS):
        h = SupportFunction(base + pert, lmax,
                            label="random_convex(seed=%s)" % seed)
        if certify_convex(h, grid).min_eigenvalue >= _MIN_EIG_TARGET:
            return h
        pert *= 0.5
    raise RuntimeError("random_convex failed to certify after %d halvings"
                       % _MAX_HALVINGS)


def random_odd(seed, degrees=(3, 5, 7), scale=1.0):
    """Seeded odd coefficient field, unit L2 norm times scale, on the given
    distinct degrees."""
    degrees = tuple(int(d) for d in degrees)
    if any(d % 2 == 0 for d in degrees):
        raise ValueError("odd degrees only")
    if len(set(degrees)) != len(degrees):
        raise ValueError("degrees must not repeat")
    lmax = max(degrees)
    basis = make_basis(lmax)
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(basis.size)
    for l in degrees:
        for m in range(-l, l + 1):
            coeffs[basis_index(l, m)] = rng.standard_normal()
    coeffs *= scale / np.linalg.norm(coeffs)
    return SupportFunction(coeffs, lmax, label="random_odd(seed=%s)" % seed)


def resolve_recipe(recipe, grid):
    """Build a BodyRecipe from a recipe dict (the cli's gen input).

    Kinds: ball {"r"}, ellipsoid {"axes", "lmax"}, random_convex {"seed",
    "lmax", "roughness"}, constant_width {"gauge": recipe or body spec,
    "odd": recipe or body spec or {"harmonics": [[l, m, coeff], ...]},
    "eps": "auto" or number}.
    """
    if not isinstance(recipe, dict) or "kind" not in recipe:
        raise ValueError("recipe must be an object with a 'kind' field")
    kind = recipe["kind"]
    try:
        if kind == "ball":
            return BodyRecipe("ball", {"r": recipe["r"]}, ball(recipe["r"]))
        if kind == "ellipsoid":
            a, b, c = recipe["axes"]
            lmax = int(recipe.get("lmax", 12))
            return BodyRecipe("ellipsoid", {"axes": [a, b, c], "lmax": lmax},
                              ellipsoid(a, b, c, lmax=lmax))
        if kind == "random_convex":
            h = random_convex(recipe["seed"], int(recipe.get("lmax", 8)), grid,
                              roughness=float(recipe.get("roughness", 0.3)))
            return BodyRecipe("random_convex",
                              {"seed": recipe["seed"], "lmax": h.lmax}, h)
        if kind == "constant_width":
            gauge = _resolve_part(recipe["gauge"], grid)
            p = _resolve_part(recipe["odd"], grid)
            eps = recipe.get("eps", "auto")
            eps_request = math.inf if eps == "auto" else float(eps)
            return constant_width_body(gauge, p, eps_request, grid)
    except KeyError as exc:
        raise ValueError("recipe is missing field %s" % exc) from None
    except (TypeError, OverflowError) as exc:
        raise ValueError("recipe field has the wrong type or value: %s"
                         % exc) from None
    raise ValueError("unknown recipe kind: %r" % kind)


def _resolve_part(part, grid):
    if not isinstance(part, dict):
        raise ValueError("recipe part must be an object, got %r" % (part,))
    if "kind" in part:
        return resolve_recipe(part, grid).resolved
    if "harmonics" in part:
        terms = part["harmonics"]
        lmax = max(int(l) for l, _, _ in terms)
        coeffs = np.zeros((lmax + 1) ** 2)
        for l, m, c in terms:
            coeffs[basis_index(int(l), int(m))] += float(c)
        return SupportFunction(coeffs, lmax, label="harmonics")
    return body_from_spec(part)
