"""Acceptance gate: one test per numbered criterion, at grid 32x64, lmax <= 12.

Criteria 3, 8 and 9 run through helpers that render their results as CSV
text; criterion 10 recomputes those helpers and checks byte identity, so
everything feeding them must be seeded and deterministic.
"""

import math

import numpy as np

from conftest import pure_harmonic, unit_vectors
from widthbright import (
    ball, ellipsoid, basis_index, SupportFunction,
    width, central_symmetral, odd_part, minkowski_sum, certify_convex,
    volume, brightness_profile, cosine_transform, random_convex, random_odd,
    constant_width_body, parity_decomposition_check, odd_sign_obstruction,
    minimize_brightness_variance,
)
from widthbright.sphere import make_basis, basis_values

_RESULTS = {}


def _cached(key, maker):
    if key not in _RESULTS:
        _RESULTS[key] = maker()
    return _RESULTS[key]


# --------------------------------------------------------------------------

def test_criterion_01_ball_baseline(grid32):
    for r in (0.5, 1.0, 2.0):
        w = width(ball(r), grid32)
        assert np.abs(w - 2.0 * r).max() < 1e-12
        areas = brightness_profile(ball(r), grid32).areas
        exact = math.pi * r * r
        assert np.abs(areas / exact - 1.0).max() < 1e-6


def test_criterion_02_odd_kernel_of_cosine_transform(grid32):
    dirs = unit_vectors(42, 50)
    basis = make_basis(7)
    vals = basis_values(basis, grid32.nodes)
    for l in (1, 3, 5, 7):
        for m in range(-l, l + 1):
            p = vals[:, basis_index(l, m)]
            assert np.abs(cosine_transform(p, grid32, dirs)).max() <= 1e-8


def _criterion_3_rows(grid):
    bodies = [("ball", ball(1.0)), ("ellipsoid", ellipsoid(1, 1, 2))]
    bodies += [("random%d" % s, random_convex(s, 8, grid, roughness=0.35))
               for s in range(10)]
    lines = ["label,ax,ay,az,area_formula,area_mesh"]
    worst = 0.0
    for k, (label, h) in enumerate(bodies):
        dirs = unit_vectors(1000 + k, 20)
        formula = brightness_profile(h, grid, directions=dirs).areas
        oracle = brightness_profile(h, grid, directions=dirs,
                                    method="mesh_shadow").areas
        worst = max(worst, float(np.abs(oracle / formula - 1.0).max()))
        for d, af, am in zip(dirs, formula, oracle):
            lines.append("%s,%.17g,%.17g,%.17g,%.17g,%.17g"
                         % (label, d[0], d[1], d[2], af, am))
    return "\n".join(lines) + "\n", worst


def test_criterion_03_formula_vs_shadow_oracle(grid32):
    _, worst = _cached("c3", lambda: _criterion_3_rows(grid32))
    assert worst < 0.01


def test_criterion_04_constant_width_not_constant_brightness(grid32):
    rec = constant_width_body(ball(1.0), pure_harmonic(3, 0), math.inf, grid32)
    h = rec.resolved
    assert rec.params["eps"] == rec.params["eps_bound"]  # 90% of convexity bound
    w = width(h, grid32)
    assert w.max() - w.min() < 1e-10
    areas = brightness_profile(h, grid32).areas
    assert areas.max() - areas.min() > 1e-4


def test_criterion_05_determinant_superadditivity(grid32):
    for r in (0.3, 1.0):
        for seed in range(10):
            summand = random_convex(seed, 8, grid32)
            cert = certify_convex(minkowski_sum(ball(r), summand), grid32)
            assert cert.det_min >= r * r - 1e-6


def test_criterion_06_parity_decomposition_identities(grid32):
    for seed in range(20):
        h = random_convex(seed, 8, grid32, roughness=0.35)
        rep = parity_decomposition_check(h, grid32)
        assert np.abs(rep.identity_residual).max() < 1e-11
        assert rep.max_even_violation_det_p < 1e-11
        assert rep.max_odd_violation_sigma < 1e-11


def test_criterion_07_symmetral_volume_dominates(grid32):
    strict_hits = 0
    for seed in range(20):
        h = random_convex(seed, 8, grid32, roughness=0.35)
        gain = volume(central_symmetral(h), grid32) - volume(h, grid32)
        assert gain >= -1e-8
        p = odd_part(h)
        shape_norm = float(np.linalg.norm(p.coeffs[p.basis.degrees >= 3]))
        if shape_norm > 0.01:
            assert gain > 1e-6
            strict_hits += 1
    assert strict_hits > 0


def _criterion_8_rows(grid):
    lines = ["seed,max_det,min_det"]
    worst = math.inf
    for seed in range(200):
        mx, mn = odd_sign_obstruction(random_odd(seed), grid)
        worst = min(worst, mx)
        lines.append("%d,%.17g,%.17g" % (seed, mx, mn))
    return "\n".join(lines) + "\n", worst


def test_criterion_08_odd_sign_obstruction(grid32):
    _, worst = _cached("c8", lambda: _criterion_8_rows(grid32))
    assert worst >= -1e-10


def _criterion_9_rows(grid):
    lines = ["gauge,seed,status,iters,final_norm,final_variance"]
    all_converged = True
    for label, gauge in (("ball", ball(1.0)),
                         ("ellipsoid", ellipsoid(1, 1, 2))):
        for seed in range(5):
            start = random_odd(seed, degrees=(3, 5))
            rec = constant_width_body(gauge, start, math.inf, grid)
            init = SupportFunction(0.5 * rec.params["eps"] * start.coeffs,
                                   start.lmax)
            trace = minimize_brightness_variance(gauge, init, grid,
                                                 degrees=(3, 5), max_iter=500)
            norm = float(np.linalg.norm(trace.final_coeffs))
            var = trace.iterations[-1][1] if trace.iterations else math.nan
            ok = (trace.terminal_status == "converged_to_gauge"
                  and len(trace.iterations) - 1 <= 500
                  and norm < 1e-3 and var < 1e-10)
            all_converged = all_converged and ok
            lines.append("%s,%d,%s,%d,%.17g,%.17g"
                         % (label, seed, trace.terminal_status,
                            len(trace.iterations) - 1, norm, var))
    return "\n".join(lines) + "\n", all_converged


def test_criterion_09_rigidity_probe(grid32):
    _, all_converged = _cached("c9", lambda: _criterion_9_rows(grid32))
    assert all_converged


def test_criterion_10_byte_identical_reruns(grid32, tmp_path):
    makers = {
        "c3": lambda: _criterion_3_rows(grid32),
        "c8": lambda: _criterion_8_rows(grid32),
        "c9": lambda: _criterion_9_rows(grid32),
    }
    for key, maker in makers.items():
        first_text, _ = _cached(key, maker)
        again_text, _ = maker()
        f1 = tmp_path / (key + "_run1.csv")
        f2 = tmp_path / (key + "_run2.csv")
        f1.write_text(first_text)
        f2.write_text(again_text)
        assert f1.read_bytes() == f2.read_bytes(), key
