"""Constructors for test bodies: balls, ellipsoids, constant-width families,
and seeded random convex bodies.

The constant-width construction is the workhorse: for an even certified
gauge h0 and an odd p, h = h0 + eps p (body's parity split checks both, its
minkowski_sum forms h) has exactly the width function of the gauge and stays
convex whenever eps * max|eig(p I + hess p)| is below the gauge's PSD
margin. eps is chosen deterministically at 90 percent of that bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .sphere import make_grid, make_basis, basis_index, basis_values, \
    entries_eigmin, node_tables, require_resolvable, synthesize_entries
from .body import NotConvexError, SupportFunction, body_from_spec, \
    central_symmetral, closed_form_values, inverse_gauss, minkowski_sum, \
    odd_part, read_degree, _closed_form_deviation

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
    truncation_tol is the largest deviation from the closed form at that
    grid's nodes and at body_from_spec's 16x32 nodes, not over the sphere:
    near the fit's ring count the deviation between the nodes can be 14 times
    larger. The closed form is even, so odd coefficients vanish identically.
    """
    if min(a, b, c) <= 0.0:
        raise ValueError("ellipsoid semi-axes must be positive")
    tag = "ellipsoid:%r,%r,%r" % (float(a), float(b), float(c))
    if grid is None:
        grid = make_grid(48, 96)
    basis = make_basis(lmax)
    hv = closed_form_values(tag, grid.nodes)
    V = basis_values(basis, grid.nodes)
    coeffs = V.T @ (grid.weights * hv)
    # the closed form is even; make the parity exact instead of 1e-16 noise
    coeffs[basis.degrees % 2 == 1] = 0.0
    trunc = float(np.abs(V @ coeffs - hv).max())
    h = SupportFunction(coeffs, lmax, closed_form=tag,
                        label="ellipsoid(%g,%g,%g)" % (a, b, c))
    # near its ring count, a fit almost interpolates at its own nodes
    h.truncation_tol = max(trunc, float(_closed_form_deviation(h)[0]))
    return h


def constant_width_body(gauge, p, eps_request, grid):
    """Body gauge + eps p with the same width function as the gauge.

    gauge must be even and certified convex with margin m > 0; p must be odd
    and nonzero. eps is eps_request with its magnitude capped at 0.9 m / rho,
    where rho is the grid maximum spectral radius of p I + hess p, so the
    summed support matrix keeps eigenvalues >= 0.1 m for either sign; rho
    has the bits of p's field record, which is not built. A gauge without
    a positive margin raises NotConvexError.
    """
    if odd_part(gauge).coeffs.any():
        raise ValueError("gauge must be even (odd coefficients zero)")
    margin = inverse_gauss(gauge, grid).min_eigenvalue
    if central_symmetral(p).coeffs.any():
        raise ValueError("perturbation must be odd (even coefficients zero)")
    if not np.any(p.coeffs != 0.0):
        raise ValueError("perturbation must be nonzero")
    if not margin > 0.0:
        raise NotConvexError("gauge must be certified convex with positive "
                             "margin (min eigenvalue %.3e)" % margin)

    # p is odd: the largest eigenvalue at u is minus the least at -u. Its
    # field is read once, so its entries alone are synthesized, not recorded
    entries = synthesize_entries(node_tables(grid, p.basis), p.coeffs)
    rho = float(np.abs(entries_eigmin(entries)).max())
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

    body = minkowski_sum(gauge, SupportFunction(eps * p.coeffs, p.lmax))
    body.label = "constant_width(%s + %g*%s)" % (gauge.label or "gauge", eps,
                                                 p.label or "odd")
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
    if seed is None:
        raise ValueError("random_convex needs an integer seed: None draws "
                         "fresh entropy on every run")
    if isinstance(seed, bool):
        raise ValueError("random_convex needs an integer seed, got %r" % seed)
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
        if inverse_gauss(h, grid).min_eigenvalue >= _MIN_EIG_TARGET:
            return h
        pert *= 0.5
    raise ArithmeticError("random_convex failed to certify after %d halvings"
                          % _MAX_HALVINGS)


def resolve_recipe(recipe, grid):
    """Build a BodyRecipe from a recipe dict (the cli's gen input).

    Kinds: ball {"r"}, ellipsoid {"axes", "lmax"}, random_convex {"seed",
    "lmax", "roughness"}, constant_width {"gauge": recipe or body spec,
    "odd": recipe or body spec or {"harmonics": [[l, m, coeff], ...]},
    "eps": "auto" or number}. Each degree is refused as it is read, before
    anything is built at it, when grid's rings cannot resolve it: an lmax,
    default included, the largest l of harmonics terms and a nested body
    spec's lmax.
    """
    if not isinstance(recipe, dict) or "kind" not in recipe:
        raise ValueError("recipe must be an object with a 'kind' field")
    kind = recipe["kind"]
    try:
        if kind == "ball":
            return BodyRecipe("ball", {"r": recipe["r"]}, ball(recipe["r"]))
        if kind == "ellipsoid":
            a, b, c = recipe["axes"]
            lmax = read_degree(recipe.get("lmax", 12))
            require_resolvable(grid.n_theta, lmax)
            return BodyRecipe("ellipsoid", {"axes": [a, b, c], "lmax": lmax},
                              ellipsoid(a, b, c, lmax=lmax))
        if kind == "random_convex":
            lmax = read_degree(recipe.get("lmax", 8))
            require_resolvable(grid.n_theta, lmax)
            roughness = float(recipe.get("roughness", 0.3))
            h = random_convex(recipe["seed"], lmax, grid, roughness=roughness)
            return BodyRecipe("random_convex", {"seed": recipe["seed"],
                              "lmax": h.lmax, "roughness": roughness}, h)
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
        degrees = [read_degree(l, "harmonics l") for l, _, _ in terms]
        if not degrees:
            raise ValueError("harmonics must list at least one [l, m, coeff] term")
        lmax = max(degrees)
        require_resolvable(grid.n_theta, lmax)
        coeffs = np.zeros((lmax + 1) ** 2)
        for l, (_, m, c) in zip(degrees, terms):
            coeffs[basis_index(l, read_degree(m, "harmonics m"))] += float(c)
        return SupportFunction(coeffs, lmax, label="harmonics")
    return body_from_spec(part, grid.n_theta)
