"""The command-line surface, exercised in-process through main(argv).

Every command is also reachable as `python3 -m widthbright.cli`; one
subprocess smoke test covers that entry, everything else stays in-process
so the suite remains fast.
"""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import widthbright
from widthbright.body import _field, body_from_spec, body_to_spec, inverse_gauss
from widthbright.boundary import export_mesh
from widthbright.cli import (
    main, EXIT_OK, EXIT_INPUT, EXIT_INFEASIBLE, EXIT_NUMERICAL,
)
from widthbright.generators import random_convex
from widthbright.sphere import make_basis, make_grid, node_tables

# Absolute directory holding the widthbright package under test. A child
# process gets it first on its PYTHONPATH, so it imports this same tree from
# any working directory, whether or not a copy is installed.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(widthbright.__file__)))


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n")
    return str(path)


def ball_spec(r=1.0):
    return {"basis": "real-sph-harm", "lmax": 0,
            "coeffs": [2.0 * math.sqrt(math.pi) * r],
            "closed_form": "ball:%r" % r, "label": "ball(%g)" % r}


def nonconvex_spec():
    coeffs = [0.0] * 16
    coeffs[0] = 2.0 * math.sqrt(math.pi)
    coeffs[12] = 5.0  # the (3, 0) slot
    return {"basis": "real-sph-harm", "lmax": 3, "coeffs": coeffs,
            "label": "spiky"}


# ---------------------------------------------------------------------------
# gen

def test_gen_ball(tmp_path, capsys):
    recipe = write_json(tmp_path / "recipe.json", {"kind": "ball", "r": 1.0})
    assert main(["gen", recipe]) == EXIT_OK
    out = tmp_path / "recipe.body.json"
    spec = json.loads(out.read_text())
    assert spec["basis"] == "real-sph-harm"
    assert abs(spec["coeffs"][0] - 2.0 * math.sqrt(math.pi)) < 1e-15
    assert spec["recipe_kind"] == "ball"
    assert spec["certificate"]["convex"] is True
    assert abs(spec["certificate"]["min_eigenvalue"] - 1.0) < 1e-10
    assert "normalization" in spec
    assert "wrote" in capsys.readouterr().out


def test_gen_constant_width_auto_eps(tmp_path):
    recipe = write_json(tmp_path / "cw.json", {
        "kind": "constant_width",
        "gauge": {"kind": "ball", "r": 1.0},
        "odd": {"harmonics": [[3, 0, 1.0]]},
        "eps": "auto",
    })
    assert main(["gen", recipe]) == EXIT_OK
    spec = json.loads((tmp_path / "cw.body.json").read_text())
    assert spec["recipe_kind"] == "constant_width"
    assert 0.2 < spec["recipe_params"]["eps"] < 0.3
    assert spec["certificate"]["min_eigenvalue"] > 0.05


def test_gen_rejects_malformed_recipe(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen", str(bad)]) == EXIT_INPUT
    assert main(["gen", str(tmp_path / "missing.json")]) == EXIT_INPUT
    recipe = write_json(tmp_path / "torus.json", {"kind": "torus"})
    assert main(["gen", recipe]) == EXIT_INPUT


# ---------------------------------------------------------------------------
# analyze

def test_analyze_ball(tmp_path):
    body = write_json(tmp_path / "ball.json", ball_spec())
    assert main(["analyze", body]) == EXIT_OK
    report = json.loads((tmp_path / "ball.report.json").read_text())
    assert report["grid"] == [32, 64]
    assert abs(report["width"]["min"] - 2.0) < 1e-12
    assert abs(report["width"]["max"] - 2.0) < 1e-12
    assert abs(report["brightness"]["mean"] - math.pi) < 1e-8
    assert report["brightness"]["variance"] < 1e-15
    assert abs(report["volume"] - 4.0 * math.pi / 3.0) < 1e-8
    assert report["parity"]["identity_residual_max"] < 1e-12
    assert report["brightness_csv"] == "ball_brightness.csv"
    csv = (tmp_path / "ball_brightness.csv").read_text().splitlines()
    assert csv[0] == "ax,ay,az,area,method"
    assert len(csv) == 32 * 64 + 1


def test_analyze_brightness_csv(tmp_path):
    # one 17-digit row per grid node, its direction that node bitwise
    body = write_json(tmp_path / "ball.json", ball_spec())
    argv = ["analyze", body, "--grid", "16,32"]
    assert main(argv) == EXIT_OK
    path = tmp_path / "ball_brightness.csv"
    first = path.read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == "ax,ay,az,area,method"
    assert len(lines) == 16 * 32 + 1
    fields = lines[1].split(",")
    assert fields[4] == "support_formula"
    assert abs(float(fields[3]) - math.pi) < 1e-10
    dirs = np.array([[float(s) for s in line.split(",")[:3]] for line in lines[1:]])
    assert np.array_equal(dirs, make_grid(16, 32).nodes)
    assert main(argv) == EXIT_OK
    assert path.read_bytes() == first


def test_analyze_large_ball_on_a_fine_grid(tmp_path):
    # an absolute antipodal-symmetry tolerance on the profile's roundoff
    # once made this run exit 4
    body = write_json(tmp_path / "ball.json", ball_spec(1e3))
    assert main(["analyze", body, "--grid", "48,96"]) == EXIT_OK
    report = json.loads((tmp_path / "ball.report.json").read_text())
    assert abs(report["brightness"]["mean"] / (math.pi * 1e6) - 1.0) <= 1e-14


def test_numerical_failure_exits_4_and_writes_nothing(tmp_path, capsys,
                                                      monkeypatch):
    body = write_json(tmp_path / "ball.json", ball_spec())
    for error in (ArithmeticError, np.linalg.LinAlgError):
        def fail(*args, **kwargs):
            raise error("injected")
        monkeypatch.setattr("widthbright.cli.brightness_profile", fail)
        assert main(["analyze", body]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert not (tmp_path / "ball.report.json").exists()
        assert not (tmp_path / "ball_brightness.csv").exists()


def test_analyze_constant_width_body(tmp_path):
    recipe = write_json(tmp_path / "cw.json", {
        "kind": "constant_width",
        "gauge": {"kind": "ball", "r": 1.0},
        "odd": {"harmonics": [[3, 0, 1.0]]},
    })
    assert main(["gen", recipe]) == EXIT_OK
    assert main(["analyze", str(tmp_path / "cw.body.json")]) == EXIT_OK
    report = json.loads((tmp_path / "cw.body.report.json").read_text())
    assert report["width"]["variation"] < 1e-10
    assert report["brightness"]["variation"] > 1e-4


def test_analyze_non_convex_body_still_reports(tmp_path):
    body = write_json(tmp_path / "spiky.json", nonconvex_spec())
    assert main(["analyze", body]) == EXIT_OK
    report = json.loads((tmp_path / "spiky.report.json").read_text())
    assert report["certificate"]["convex"] is False
    assert "note" in report
    assert "brightness" not in report


def test_analyze_tolerance_governs_the_parity_check(tmp_path):
    # 2e-4 short of convex: certificate, brightness and volume accepted the
    # body under --tol psd=1e-3, then the parity block rechecked it at the
    # default tolerance and exited 3 without a report
    spec = nonconvex_spec()
    spec["coeffs"][12] = 0.2681
    body = write_json(tmp_path / "flat.json", spec)
    assert main(["analyze", body, "--tol", "psd=1e-3"]) == EXIT_OK
    report = json.loads((tmp_path / "flat.report.json").read_text())
    assert -1e-3 < report["certificate"]["min_eigenvalue"] < -1e-4
    assert report["certificate"]["convex"] is True
    assert report["parity"]["identity_residual_max"] < 1e-12
    assert main(["analyze", body]) == EXIT_OK
    report = json.loads((tmp_path / "flat.report.json").read_text())
    assert "parity" not in report
    # --tol may repeat; the last value wins
    for tols, convex in ((["psd=0", "psd=1e-3"], True), (["psd=1e-3", "psd=0"], False)):
        assert main(["analyze", body, "--tol", tols[0], "--tol", tols[1]]) == EXIT_OK
        report = json.loads((tmp_path / "flat.report.json").read_text())
        assert report["certificate"]["convex"] is convex


def test_analyze_evaluates_the_body_once(tmp_path, monkeypatch):
    # analyze read the run grid's support table nine times: four
    # certificates, inverse_gauss, volume, and three products in the parity
    # check, six of them on the same coefficients
    spec = body_to_spec(random_convex(3, 6, make_grid(16, 32)))
    body = write_json(tmp_path / "rc.json", spec)
    reads = []

    def counted(grid, basis):
        reads.append((grid.n_theta, grid.n_phi))
        return node_tables(grid, basis)

    for name, mod in list(sys.modules.items()):
        if name.startswith("widthbright") and getattr(mod, "node_tables", None) is node_tables:
            monkeypatch.setattr(mod, "node_tables", counted)
    _field.cache_clear()
    assert main(["analyze", body]) == EXIT_OK
    info = _field.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    # the record, then the even and odd parts of the parity check
    assert reads == [(32, 64), (32, 64)]


def test_analyze_respects_out_flag(tmp_path):
    body = write_json(tmp_path / "ball.json", ball_spec())
    out = tmp_path / "custom.json"
    assert main(["analyze", body, "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["brightness_csv"] == "custom_brightness.csv"
    assert (tmp_path / "custom_brightness.csv").exists()


# ---------------------------------------------------------------------------
# verify-theorem

def test_verify_theorem_on_ball(tmp_path, capsys):
    body = write_json(tmp_path / "ball.json", ball_spec())
    assert main(["verify-theorem", body, "--seed", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "RIGIDITY-CONSISTENT" in out
    trace = (tmp_path / "ball.trace.csv").read_text().splitlines()
    assert trace[0] == "iter,coeff_norm,variance,min_eig,step"
    assert len(trace) > 2
    last = trace[-1].split(",")
    assert float(last[1]) < 1e-3
    assert float(last[2]) < 1e-10


def test_verify_theorem_trace_csv(tmp_path, capsys):
    body = write_json(tmp_path / "ball.json", ball_spec())
    argv = ["verify-theorem", body, "--seed", "5", "--grid", "16,32"]
    assert main(argv) == EXIT_OK
    states = re.search(r"\((\d+) accepted states\)", capsys.readouterr().out)
    path = tmp_path / "ball.trace.csv"
    first = path.read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == "iter,coeff_norm,variance,min_eig,step"
    assert len(lines) == int(states.group(1)) + 1
    assert lines[1].startswith("0,")
    assert main(argv) == EXIT_OK
    assert path.read_bytes() == first


def test_verify_theorem_warns_when_the_grid_cannot_resolve_the_probe(
        tmp_path, capsys):
    # the brightness of ball + p, p of degree 5, is exact from 11 rings on;
    # on 6 the descent stalls and still exits 0, with one warning line
    body = write_json(tmp_path / "ball.json", ball_spec())
    argv = ["verify-theorem", body, "--degrees", "3,5"]
    assert main(argv + ["--grid", "6,12"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "RIGIDITY-UNRESOLVED (stalled)" in captured.out
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: "), lines
    assert "lmax 5 needs 11 rings, the grid has 6" in lines[0]
    assert main(argv + ["--grid", "11,22"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_verify_theorem_infeasible_start(tmp_path):
    body = write_json(tmp_path / "ball.json", ball_spec())
    assert main(["verify-theorem", body, "--start-scale", "1.2"]) \
        == EXIT_INFEASIBLE


def test_verify_theorem_gauge_below_the_floor_is_infeasible(tmp_path, capsys):
    # a ball of radius 0.005 is convex, but its margin is under the probe's
    # eigenvalue floor: infeasible like a start outside the region, not a
    # numerical failure
    body = write_json(tmp_path / "tiny.json",
                      {"basis": "real-sph-harm", "lmax": 0, "coeffs": [0.0177]})
    assert main(["verify-theorem", body, "--grid", "8,16",
                 "--degrees", "3"]) == EXIT_INFEASIBLE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("infeasible: "), lines


def test_verify_theorem_non_convex_gauge_is_infeasible(tmp_path, capsys):
    # an even gauge with no convexity margin cannot size a start: infeasible,
    # like a start outside the convexity region, not an input error
    body = write_json(tmp_path / "spiky.json", {
        "basis": "real-sph-harm", "lmax": 2,
        "coeffs": [3.5449, 0, 0, 0, 0, 0, 5.0, 0, 0]})
    assert main(["verify-theorem", body, "--grid", "8,16",
                 "--degrees", "3"]) == EXIT_INFEASIBLE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("infeasible: "), lines


def test_verify_theorem_rejects_even_degrees(tmp_path, capsys):
    body = write_json(tmp_path / "ball.json", ball_spec())
    assert main(["verify-theorem", body, "--degrees", "2,4"]) == EXIT_INPUT
    assert "argument --degrees" in capsys.readouterr().err


def test_verify_theorem_needs_even_gauge(tmp_path):
    spec = nonconvex_spec()
    body = write_json(tmp_path / "spiky.json", spec)
    assert main(["verify-theorem", body]) == EXIT_INPUT


# ---------------------------------------------------------------------------
# export

def test_export_ball_obj(tmp_path):
    body = write_json(tmp_path / "ball.json", ball_spec())
    assert main(["export", body, "--grid", "16,32"]) == EXIT_OK
    lines = (tmp_path / "ball.obj").read_text().splitlines()
    verts = np.array([[float(s) for s in l.split()[1:]]
                      for l in lines if l.startswith("v ")])
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 16 * 32 + 2
    assert np.abs(np.linalg.norm(verts, axis=1) - 1.0).max() < 1e-12
    assert len(faces) == 2 * 15 * 32 + 2 * 32


def test_export_obj_roundtrip(tmp_path):
    body = write_json(tmp_path / "ball.json", ball_spec())
    argv = ["export", body, "--grid", "16,32"]
    assert main(argv) == EXIT_OK
    path = tmp_path / "ball.obj"
    first = path.read_bytes()
    verts, faces = [], []
    for line in first.decode().splitlines():
        kind, *rest = line.split()
        if kind == "v":
            verts.append([float(s) for s in rest])
        elif kind == "f":
            faces.append([int(s) - 1 for s in rest])
        else:
            raise AssertionError("unexpected OBJ line: %r" % line)
    grid = make_grid(16, 32)
    mesh = export_mesh(inverse_gauss(body_from_spec(ball_spec()), grid))
    np.testing.assert_allclose(np.array(verts), mesh.vertices, rtol=1e-15)
    assert np.array_equal(np.array(faces), mesh.triangles)
    assert main(argv) == EXIT_OK
    assert path.read_bytes() == first


def test_export_tiny_ball(tmp_path):
    # its triangles (about 1e-15 in area) are large for a body of its size
    body = write_json(tmp_path / "tiny.json", ball_spec(2.8e-7))
    assert main(["export", body, "--grid", "16,32"]) == EXIT_OK
    lines = (tmp_path / "tiny.obj").read_text().splitlines()
    assert sum(l.startswith("v ") for l in lines) == 16 * 32 + 2


def test_gen_then_analyze_a_large_ball(tmp_path):
    # the closed-form check's 1e-8 scales with the body's values: the
    # coefficient gen writes at radius 2.8e9 is off its tag by 4.8e-7,
    # a relative 1.7e-16
    recipe = write_json(tmp_path / "big.json", {"kind": "ball", "r": 2.8e9})
    assert main(["gen", recipe]) == EXIT_OK
    assert main(["analyze", str(tmp_path / "big.body.json")]) == EXIT_OK


def test_gen_then_analyze_a_high_degree_ellipsoid(tmp_path):
    # a degree-46 fit almost interpolates at its own 48x96 nodes (1.18e-5)
    # and deviates 3.39e-5 at the 16x32 nodes the spec is checked at:
    # truncation_tol records the larger, so analyze accepts what gen wrote
    recipe = write_json(tmp_path / "e.json", {"kind": "ellipsoid",
                                              "axes": [1, 3, 9], "lmax": 46})
    flags = ["--grid", "48,96"]
    assert main(["gen", recipe] + flags) == EXIT_OK
    assert main(["analyze", str(tmp_path / "e.body.json")] + flags) == EXIT_OK


@pytest.mark.parametrize("tag", ["ball:%r" % (2.8e9 * (1.0 + 1e-6)),
                                 "ball:inf", "ellipsoid:1,inf,1"])
def test_analyze_refuses_a_large_ball_whose_tag_is_off(tmp_path, tag):
    # off by 1e-6 relative, or an infinite value, which would make the
    # scaled threshold infinite
    spec = dict(ball_spec(2.8e9), closed_form=tag)
    assert main(["analyze", write_json(tmp_path / "off.json", spec)]) \
        == EXIT_INPUT


def test_export_refuses_non_convex(tmp_path):
    body = write_json(tmp_path / "spiky.json", nonconvex_spec())
    assert main(["export", body]) == EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# flags and config validation

def test_grid_flag_validation(tmp_path):
    body = write_json(tmp_path / "ball.json", ball_spec())
    assert main(["analyze", body, "--grid", "16,31"]) == EXIT_INPUT
    assert main(["analyze", body, "--grid", "8,16", "--lmax", "12"]) \
        == EXIT_INPUT
    assert main(["analyze", body, "--grid", "banana"]) == EXIT_INPUT


def test_lmax_flag_defaults_to_0_so_the_input_sets_the_grid_guard(tmp_path, capsys):
    # each command refused the unit ball at 8x16 with "grid too coarse for
    # lmax 12", a degree the ball does not have
    recipe = write_json(tmp_path / "r.json", {"kind": "ball", "r": 1.0})
    body = write_json(tmp_path / "ball.json", ball_spec())
    for argv in (["gen", recipe], ["analyze", body], ["export", body],
                 ["verify-theorem", body]):
        assert main(argv + ["--grid", "8,16"]) == EXIT_OK, argv
    assert "grid too coarse" not in capsys.readouterr().err
    # a spec of degree 12 is still refused at 8x16, by its own lmax
    spec = dict(ball_spec(), lmax=12, coeffs=ball_spec()["coeffs"] + [0.0] * 168)
    high = write_json(tmp_path / "high.json", spec)
    assert main(["analyze", high, "--grid", "8,16"]) == EXIT_INPUT
    _one_error_line(capsys, "input error: grid too coarse for lmax 12")


def test_grid_guard_reads_the_body_lmax(tmp_path):
    # an lmax-12 body on 8 rings used to pass on the strength of --lmax 7
    # and report brightness min 3.495 against 3.167 at 32x64
    recipe = write_json(tmp_path / "e.json",
                        {"kind": "ellipsoid", "axes": [1, 1, 2], "lmax": 12})
    assert main(["gen", recipe]) == EXIT_OK
    body = str(tmp_path / "e.body.json")
    assert main(["analyze", body, "--grid", "8,16", "--lmax", "7"]) \
        == EXIT_INPUT
    assert not (tmp_path / "e.body.report.json").exists()


def test_analyze_warns_when_brightness_is_not_exact(tmp_path, capsys):
    # det(h I + hess h) of an lmax-12 body reaches degree 24, which the
    # transform integrates exactly from 25 rings on; on 16 rings the run
    # still exits 0 and writes its report, with one warning line on stderr
    recipe = write_json(tmp_path / "e.json",
                        {"kind": "ellipsoid", "axes": [1, 1, 2], "lmax": 12})
    assert main(["gen", recipe]) == EXIT_OK
    body = str(tmp_path / "e.body.json")
    capsys.readouterr()
    assert main(["analyze", body, "--grid", "16,32"]) == EXIT_OK
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: "), lines
    assert "25 rings" in lines[0]
    assert (tmp_path / "e.body.report.json").exists()
    assert main(["analyze", body, "--grid", "25,50"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_grid_guard_runs_before_any_table(tmp_path):
    # the closed-form check of an lmax-60 spec used to build 16x32 tables
    # at lmax 60 (307 MiB peak) before the guard refused it
    spec = ball_spec()
    spec["lmax"] = 60
    spec["coeffs"] += [0.0] * (61 ** 2 - 1)
    body = write_json(tmp_path / "big.json", spec)
    misses = node_tables.cache_info().misses
    assert main(["analyze", body, "--grid", "16,32"]) == EXIT_INPUT
    assert node_tables.cache_info().misses == misses


def test_gen_guard_runs_before_any_table(tmp_path):
    # resolving the recipe projected the ellipsoid at lmax 20 on its own
    # 48x96 grid (327 MiB peak) before the guard refused it
    big = {"kind": "ellipsoid", "axes": [1, 1, 2], "lmax": 20}
    for recipe in (big, {"kind": "constant_width", "gauge": big,
                         "odd": {"harmonics": [[3, 0, 1.0]]}}):
        path = write_json(tmp_path / "big.json", recipe)
        misses = node_tables.cache_info().misses
        assert main(["gen", path, "--grid", "16,32"]) == EXIT_INPUT
        assert node_tables.cache_info().misses == misses


def test_gen_guards_degree_of_harmonics_terms(tmp_path):
    # the terms imply lmax 41; resolving them built tables at that degree
    # (162 MiB peak) before the guard on the resolved body refused it
    recipe = {"kind": "constant_width", "gauge": {"kind": "ball", "r": 1.0},
              "odd": {"harmonics": [[41, 0, 1.0]]}}
    path = write_json(tmp_path / "high.json", recipe)
    misses = node_tables.cache_info().misses
    assert main(["gen", path, "--grid", "16,32"]) == EXIT_INPUT
    assert node_tables.cache_info().misses == misses


def test_gen_guards_lmax_written_as_float_or_string(tmp_path):
    # the guard read int values only; an lmax of 40.0 projected the
    # ellipsoid at degree 40 (150 MiB peak) before the body guard refused it
    ell = {"kind": "ellipsoid", "axes": [1, 1, 2]}
    for recipe in (dict(ell, lmax=40.0), dict(ell, lmax="40"),
                   {"kind": "constant_width", "gauge": {"kind": "ball", "r": 1.0},
                    "odd": {"harmonics": [[40.0, 0, 1.0]]}},
                   dict(ell, lmax=float("inf"))):
        path = write_json(tmp_path / "high.json", recipe)
        before = make_basis.cache_info()
        assert main(["gen", path]) == EXIT_INPUT, recipe
        assert make_basis.cache_info() == before, recipe


def test_gen_rejects_mistyped_recipe_fields(tmp_path, capsys):
    odd = {"harmonics": [[3, 0, 1.0]]}
    for recipe in (
            {"kind": "constant_width", "gauge": 5, "odd": odd},
            {"kind": "constant_width", "gauge": {"kind": "ball", "r": 1.0},
             "odd": {"harmonics": 5}},
            {"kind": "ellipsoid", "axes": 5},
            {"kind": "ball", "r": [1.0]},
            {"kind": "random_convex", "seed": "x"}):
        path = write_json(tmp_path / "bad.json", recipe)
        assert main(["gen", path, "--grid", "16,32"]) \
            == EXIT_INPUT, recipe
        assert "input error" in capsys.readouterr().err


def test_gen_refuses_a_null_seed(tmp_path, capsys):
    # two runs of this recipe wrote two different bodies
    path = write_json(tmp_path / "r.json",
                      {"kind": "random_convex", "lmax": 6, "seed": None})
    assert main(["gen", path, "--grid", "16,32"]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "r.body.json").exists()


def test_integer_fields_that_are_booleans_or_fractions_are_input_errors(
        tmp_path, capsys):
    # each was truncated: analyzed at degree 0 or 1, resolved at degree 6 or
    # l = 3, or seeded as 1, and gen or analyze exited 0
    ball_l1 = [2.0 * math.sqrt(math.pi), 0.0, 0.0, 0.0]
    odd = {"kind": "constant_width", "gauge": {"kind": "ball", "r": 1.0}}
    runs = [("analyze", dict(ball_spec(), lmax=0.9)),
            ("analyze", {"basis": "real-sph-harm", "lmax": True, "coeffs": ball_l1}),
            ("gen", {"kind": "ellipsoid", "axes": [1, 1, 2], "lmax": 6.7}),
            ("gen", {"kind": "ellipsoid", "axes": [1, 1, 2], "lmax": True}),
            ("gen", {"kind": "random_convex", "lmax": 6, "seed": True}),
            ("gen", dict(odd, odd={"harmonics": [[3.5, 0, 1.0]]})),
            ("gen", dict(odd, odd={"harmonics": [[3, 0.5, 1.0]]}))]
    for command, obj in runs:
        path = write_json(tmp_path / "in.json", obj)
        assert main([command, path, "--grid", "16,32"]) \
            == EXIT_INPUT, obj
        err = capsys.readouterr().err
        assert "input error" in err and "integer" in err, (obj, err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"], obj


_CW = {"kind": "constant_width", "gauge": {"kind": "ball", "r": 1.0},
       "odd": {"harmonics": [[3, 0, 1.0]]}}


@pytest.mark.parametrize("recipe", [
    {"kind": "ball", "r": True},
    {"kind": "ellipsoid", "axes": [1, True, 2]},
    {"kind": "random_convex", "seed": 1, "lmax": 4, "roughness": True},
    dict(_CW, odd={"harmonics": [[3, 0, True]]}),
    dict(_CW, eps=True),
    dict(_CW, eps=False),
    dict(_CW, gauge={"kind": "ball", "r": True}),
], ids=["ball-r", "ellipsoid-axis", "roughness", "harmonics-coeff", "eps-true",
        "eps-false", "nested-gauge-r"])
def test_recipe_numbers_that_are_booleans_are_input_errors(tmp_path, capsys,
                                                           recipe):
    # float() read each as 1 or 0: gen wrote a radius-1 ball with "r": true
    # in its recipe_params, an axis or coefficient of 1, or eps 1 or 0 (the
    # gauge itself); a boolean roughness was refused as out of range
    path = write_json(tmp_path / "in.json", recipe)
    assert main(["gen", path, "--grid", "16,32"]) == EXIT_INPUT
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: "), lines
    assert "boolean" in lines[0], lines
    assert os.listdir(tmp_path) == ["in.json"]


def test_gen_names_an_empty_harmonics_list(tmp_path, capsys):
    # the message was "max() arg is an empty sequence"
    path = write_json(tmp_path / "r.json", {
        "kind": "constant_width", "gauge": {"kind": "ball", "r": 1.0},
        "odd": {"harmonics": []}})
    assert main(["gen", path, "--grid", "16,32"]) == EXIT_INPUT
    assert "harmonics must list" in capsys.readouterr().err


def assert_recipe_params_resolve_again(tmp_path, recipe):
    path = write_json(tmp_path / "r.json", recipe)
    assert main(["gen", path, "--grid", "16,32"]) == EXIT_OK
    spec = json.loads((tmp_path / "r.body.json").read_text())
    again = write_json(tmp_path / "again.json",
                       dict(kind=spec["recipe_kind"], **spec["recipe_params"]))
    assert main(["gen", again, "--grid", "16,32"]) == EXIT_OK
    respec = json.loads((tmp_path / "again.body.json").read_text())
    assert np.array(respec["coeffs"]).tobytes() \
        == np.array(spec["coeffs"]).tobytes(), recipe


def test_gen_recipe_params_resolve_to_the_same_body(tmp_path):
    # the params were written as floats, and a float seed cannot be
    # resolved again: {"seed": 3} came back as {"seed": 3.0}
    for recipe in ({"kind": "ball", "r": 1},
                   {"kind": "ellipsoid", "axes": [1, 1, 2], "lmax": 6},
                   {"kind": "random_convex", "lmax": 6, "seed": 3}):
        assert_recipe_params_resolve_again(tmp_path, recipe)


def spelled(value):
    """value with every JSON number in it written as a numeric string."""
    if isinstance(value, dict):
        return {k: v if k == "kind" else spelled(v) for k, v in value.items()}
    if isinstance(value, list):
        return [spelled(v) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return repr(value)
    return value


@pytest.mark.parametrize("recipe", [
    {"kind": "ball", "r": 1.5},
    {"kind": "ball", "r": 2},
    {"kind": "ellipsoid", "axes": [1, 1, 2], "lmax": 6},
    {"kind": "random_convex", "seed": 3, "lmax": 6, "roughness": 0.2},
    dict(_CW, gauge={"kind": "ellipsoid", "axes": [1, 1.2, 1.5], "lmax": 4},
         odd={"harmonics": [[3, 0, 1.0], [5, -2, 0.3]]}, eps=0.01),
    dict(_CW, gauge=ball_spec(1.5)),
], ids=["ball", "ball-integer-radius", "ellipsoid", "random-convex",
        "constant-width", "constant-width-spec-gauge"])
def test_gen_reads_numeric_strings_as_their_numbers(tmp_path, recipe):
    # "r": "1.5" was written back as a string, "axes": ["1", "1", "2"] met a
    # float comparison and "seed": "3" numpy's entropy check (both exit 2)
    outputs = []
    for name, source in (("number", recipe), ("string", spelled(recipe))):
        (tmp_path / name).mkdir()
        path = write_json(tmp_path / name / "r.json", source)
        assert main(["gen", path, "--grid", "16,32"]) == EXIT_OK, source
        outputs.append((tmp_path / name / "r.body.json").read_bytes())
    assert outputs[0] == outputs[1]
    # a constant-width body's params are the bound it met, not its inputs
    if recipe["kind"] != "constant_width":
        assert_recipe_params_resolve_again(tmp_path, spelled(recipe))


def test_gen_recipe_params_keep_the_roughness(tmp_path):
    # the params left the roughness out, so a rough body came back at the
    # default roughness 0.3
    assert_recipe_params_resolve_again(
        tmp_path, {"kind": "random_convex", "lmax": 6, "seed": 3,
                   "roughness": 0.9})


def test_gen_refuses_recipes_that_overflow_with_one_line(tmp_path):
    # each ran on through numpy's RuntimeWarnings ("overflow encountered in
    # square", "invalid value encountered in matmul") before its input
    # error, and the ball wrote a spec with an infinite det_min and exit 0
    recipes = [
        {"kind": "ellipsoid", "axes": [1, 1, 1e200]},
        {"kind": "ball", "r": 1e200},
        {"kind": "constant_width", "gauge": {"kind": "ball", "r": 1.0},
         "odd": {"harmonics": [[3, 0, 1e308]]}}]
    paths = [write_json(tmp_path / ("r%d.json" % k), r)
             for k, r in enumerate(recipes)]
    probe = ("import sys\n"
             "from widthbright.cli import main\n"
             "print(*[main(['gen', p, '--grid', '16,32'])"
             " for p in sys.argv[1:]])\n")
    proc = subprocess.run([sys.executable, "-c", probe, *paths],
                          capture_output=True, text=True,
                          env=child_env(WIDTHBRIGHT_THREADS="1"),
                          cwd=str(tmp_path))
    assert proc.stdout.split() == [str(EXIT_INPUT)] * len(recipes), proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == len(recipes), proc.stderr
    assert all(line.startswith("input error: ") for line in lines), proc.stderr


def test_commands_refuse_bodies_that_overflow_with_one_line(tmp_path):
    # a ball of radius about 1e200: analyze printed RuntimeWarnings and
    # exited 4 with "non-positive shadow area", export warned and wrote an
    # OBJ of NaNs with exit 0, and verify-theorem warned its way to a trace
    body = write_json(tmp_path / "big.json", {
        "basis": "real-sph-harm", "lmax": 0, "coeffs": [3.5e200]})
    commands = ("analyze", "export", "verify-theorem")
    probe = ("import sys\n"
             "from widthbright.cli import main\n"
             "print(*[main([c, sys.argv[1], '--grid', '16,32'])"
             " for c in sys.argv[2:]])\n")
    proc = subprocess.run([sys.executable, "-c", probe, body, *commands],
                          capture_output=True, text=True,
                          env=child_env(WIDTHBRIGHT_THREADS="1"),
                          cwd=str(tmp_path))
    assert proc.stdout.split() == [str(EXIT_INPUT)] * len(commands), proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == len(commands), proc.stderr
    assert all(line.startswith("input error: numbers out of range")
               for line in lines), proc.stderr
    assert sorted(os.listdir(tmp_path)) == ["big.json"]


# body specs of degree up to 4 with any mix of even and odd degrees, about
# half of them even, each coefficient zero or of magnitude 1e-300 to 1e300,
# mostly near 1
_MAGNITUDES = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
    st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.99),
    st.one_of(st.integers(-300, 300), st.integers(-2, 1)))


@st.composite
def _fuzzed_specs(draw):
    lmax = draw(st.integers(0, 4))
    degrees = draw(st.sets(st.integers(0, lmax)))
    if draw(st.booleans()):
        # an even body, which verify-theorem takes as a gauge and probes
        degrees = {l for l in degrees if l % 2 == 0}
    coeffs = [draw(_MAGNITUDES) if l in degrees else 0.0
              for l in range(lmax + 1) for _ in range(2 * l + 1)]
    if draw(st.booleans()):
        coeffs[0] = draw(st.floats(1.0, 20.0))   # a ball to perturb
    return {"basis": "real-sph-harm", "lmax": lmax, "coeffs": coeffs}


@seed(17)
@settings(max_examples=60, deadline=None, database=None)
@given(_fuzzed_specs())
def test_analyze_and_export_exit_with_a_documented_code_on_any_body(
        tmp_path_factory, spec):
    path = write_json(tmp_path_factory.mktemp("fuzz") / "body.json", spec)
    for command in (["analyze"], ["export"],
                    ["verify-theorem", "--degrees", "3", "--max-iter", "5"]):
        assert main([*command, path, "--grid", "8,16"]) \
            in (0, 2, 3, 4)


def test_spec_with_a_tolerance_that_is_not_finite_is_input_error(tmp_path, capsys):
    # a nan or infinite truncation_tol skipped the closed-form check, so
    # coefficient 10.0 (radius 2.82) loaded as ball:1.0 and exited 0
    for tol in (math.nan, math.inf, -1.0):
        body = write_json(tmp_path / "tol.json", {
            "basis": "real-sph-harm", "lmax": 0, "coeffs": [10.0],
            "closed_form": "ball:1.0", "truncation_tol": tol})
        assert main(["analyze", body, "--grid", "16,32"]) \
            == EXIT_INPUT, tol
        assert "input error: truncation_tol" in capsys.readouterr().err


def test_point_body_is_input_error(tmp_path, capsys):
    # c_00 = 0: mean width 0, a point, which has no interior to measure or
    # mesh; refused before any command writes a file
    body = write_json(tmp_path / "point.json",
                      {"basis": "real-sph-harm", "lmax": 0, "coeffs": [0.0]})
    for command in ("analyze", "export", "verify-theorem"):
        assert main([command, body, "--grid", "8,16"]) \
            == EXIT_INPUT, command
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: "), lines
    assert sorted(os.listdir(tmp_path)) == ["point.json"]


def test_negative_lmax_spec_is_input_error(tmp_path, capsys):
    body = write_json(tmp_path / "neg.json",
                      {"basis": "real-sph-harm", "lmax": -1, "coeffs": []})
    assert main(["analyze", body]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


# A recipe field holds a usable value, a junk JSON value (a number that is
# infinite or NaN, which json writes and reads back, a boolean, a numeric or
# other string, None, a short list), or nothing; a field is usable often enough
# that runs reach every stage of gen, not only its first check
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["2", "0.5", "-1", "40", "inf", "nan", "auto", "x"]))
_JUNK = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4))
_MISSING = object()
_USABLE = {
    "r": st.floats(0.1, 3.0),
    "axes": st.lists(st.floats(0.2, 3.0), min_size=3, max_size=3),
    "lmax": st.integers(0, 9),
    "seed": st.integers(0, 5),
    "roughness": st.floats(0.01, 0.99),
    "eps": st.one_of(st.just("auto"), st.floats(-2.0, 2.0)),
}
_TERM = st.one_of(st.tuples(st.integers(0, 9), st.integers(-9, 9),
                            st.floats(-2.0, 2.0)).map(list),
                  st.lists(_SCALARS, max_size=4), _SCALARS)
_HARMONICS = st.fixed_dictionaries(
    {"harmonics": st.one_of(st.lists(_TERM, min_size=1, max_size=3), _JUNK)})
# body specs, a ball and an odd degree-3 part, with one field junk or gone
_SPECS = st.builds(
    lambda spec, key, value: {k: v for k, v in dict(spec, **{key: value}).items()
                              if v is not _MISSING},
    st.sampled_from([ball_spec(), {"basis": "real-sph-harm", "lmax": 3,
                                   "coeffs": [0.0] * 12 + [1.0, 0.0, 0.0, 0.0]}]),
    st.sampled_from(["basis", "lmax", "coeffs", "closed_form", "truncation_tol",
                     "label"]),
    st.one_of(_JUNK, st.just(_MISSING)))


def _value(usable):
    return st.one_of(usable, _JUNK, st.just(_MISSING))


def recipes(depth):
    """Recipes of the four kinds and an unknown one, each with its own fields;
    a constant-width recipe's gauge and odd parts are recipes nested up to
    depth levels, body specs, harmonics parts or junk."""
    part = st.one_of(_HARMONICS, _SPECS, _JUNK)
    if depth:
        part = st.one_of(recipes(depth - 1), part)
    fields = {"ball": ("r",), "ellipsoid": ("axes", "lmax"),
              "random_convex": ("seed", "lmax", "roughness"),
              "constant_width": ("eps",), "torus": ("r",)}
    kinds = []
    for kind, names in fields.items():
        parts = {"gauge": part, "odd": part} if kind == "constant_width" else {}
        kinds.append(st.fixed_dictionaries(
            dict({"kind": st.just(kind)}, **parts,
                 **{name: _value(_USABLE[name]) for name in names})))
    return st.one_of(kinds).map(
        lambda r: {key: v for key, v in r.items() if v is not _MISSING})


@seed(13)
@settings(max_examples=200, deadline=None, database=None)
@given(recipes(2))
def test_gen_exits_with_a_documented_code_on_any_recipe(tmp_path_factory, recipe):
    # 8 rings: the resolver refuses a recipe degree above 7 as it reads it
    tmp = tmp_path_factory.mktemp("fuzz")
    path = write_json(tmp / "recipe.json", recipe)
    argv = ["gen", path, "--grid", "8,16"]
    code = main(argv)
    assert code in (0, 2, 3, 4)
    if code == EXIT_OK:
        # a rerun writes the same bytes
        first = (tmp / "recipe.body.json").read_bytes()
        assert main(argv) == EXIT_OK
        assert (tmp / "recipe.body.json").read_bytes() == first


def test_spec_with_mistyped_closed_form_or_tolerance_is_input_error(tmp_path, capsys):
    # both ended in a traceback: a closed_form that is not a string reached
    # str methods, and a null truncation_tol was read past the spec check
    for key, value in (("closed_form", 3), ("truncation_tol", None)):
        body = write_json(tmp_path / "bad.json", dict(ball_spec(), **{key: value}))
        assert main(["analyze", body]) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err


def test_tolerance_flag_validation(tmp_path):
    body = write_json(tmp_path / "ball.json", ball_spec())
    assert main(["analyze", body, "--tol", "psd=1e-8"]) == EXIT_OK
    assert main(["analyze", body, "--tol", "shininess=1"]) == EXIT_INPUT
    assert main(["analyze", body, "--tol", "psd=soft"]) == EXIT_INPUT
    assert main(["analyze", body, "--tol", "quadrature=1"]) == EXIT_INPUT
    assert main(["analyze", body, "--tol", "oracle=1"]) == EXIT_INPUT


@pytest.mark.parametrize("command, flags", [
    ("analyze", ["--grid", "1,2"]),
    ("analyze", ["--grid", "4,0"]),
    ("analyze", ["--grid", "2,-2"]),
    ("analyze", ["--tol", "psd=nan"]),
    ("analyze", ["--tol", "psd=-1"]),
    ("analyze", ["--lmax", "-1"]),
    ("verify-theorem", ["--max-iter", "-1"]),
    ("verify-theorem", ["--start-scale", "nan"]),
    ("verify-theorem", ["--seed", "-1"]),
    ("verify-theorem", ["--degrees", "1,3"]),
    # a repeated degree counted each of its coefficients twice in the probe
    ("verify-theorem", ["--degrees", "3,3", "--grid", "16,32"]),
])
def test_flag_values_the_commands_cannot_use_are_input_errors(
        tmp_path, capsys, command, flags):
    # these exited 4 (grids, start-scale nan, degree 1), 0 (psd nan or
    # negative, max-iter -1, lmax -1) or 2 blaming --degrees (seed -1)
    body = write_json(tmp_path / "ball.json", ball_spec())
    assert main([command, body] + flags) == EXIT_INPUT
    assert flags[0] in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["ball.json"]


def test_start_scale_takes_a_negative_number_in_exponent_form(tmp_path, capsys):
    # argparse took -5e-1 for an unknown option and exited 2, while -0.5
    # and --start-scale=-5e-1 ran
    body = write_json(tmp_path / "ball.json", ball_spec())
    traces = []
    for value in ("-0.5", "-5e-1"):
        out = str(tmp_path / ("%s.trace.csv" % value))
        assert main(["verify-theorem", body, "--start-scale", value,
                     "--out", out]) == EXIT_OK
        traces.append(open(out, "rb").read())
    assert traces[0] == traces[1]
    assert main(["verify-theorem", body, "--start-scale", "-1e400"]) == EXIT_INPUT
    assert "--start-scale" in capsys.readouterr().err


def test_flags_a_command_does_not_read_are_input_errors(tmp_path):
    body = write_json(tmp_path / "ball.json", ball_spec())
    assert main(["analyze", body, "--seed", "1"]) == EXIT_INPUT
    assert main(["export", body, "--seed", "1"]) == EXIT_INPUT
    assert main(["verify-theorem", body, "--tol", "psd=1e-8"]) == EXIT_INPUT
    assert not (tmp_path / "ball.report.json").exists()


def test_unknown_command_is_input_error():
    assert main(["polish"]) == EXIT_INPUT


def test_degrees_are_checked_before_the_body_is_read(tmp_path, capsys):
    # the degrees passed the parser and the missing file took the blame
    missing = str(tmp_path / "missing.json")
    assert main(["verify-theorem", missing, "--degrees", "2,4"]) == EXIT_INPUT
    assert "argument --degrees" in capsys.readouterr().err


def test_degrees_are_guarded_before_any_basis(tmp_path):
    # the seeded start built its basis at the largest degree before the grid
    # guard refused it, (l + 1)^2 entries for any l the flag accepts
    body = write_json(tmp_path / "ball.json", ball_spec())
    before = make_basis.cache_info()
    assert main(["verify-theorem", body, "--degrees", "3,41", "--grid", "16,32"]) \
        == EXIT_INPUT
    assert make_basis.cache_info() == before


# ---------------------------------------------------------------------------
# exit codes from the exception's type: each case below ended in a
# traceback or in another code

def _one_error_line(capsys, prefix):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), lines


_FAST = {"gen": [], "analyze": [], "export": [],
         "verify-theorem": ["--degrees", "3", "--max-iter", "5"]}


@pytest.mark.parametrize("command", sorted(_FAST))
def test_unwritable_out_is_input_error(tmp_path, capsys, command):
    # FileNotFoundError traceback from the open of the output file
    source = {"kind": "ball", "r": 1.0} if command == "gen" else ball_spec()
    body = write_json(tmp_path / "in.json", source)
    out = str(tmp_path / "no-such-dir" / "out")
    assert main([command, body, "--out", out, "--grid", "8,16",
                 *_FAST[command]]) == EXIT_INPUT
    _one_error_line(capsys, "input error: ")
    assert os.listdir(tmp_path) == ["in.json"]


@pytest.mark.parametrize("command", sorted(_FAST))
def test_directory_as_body_is_input_error(tmp_path, capsys, command):
    # IsADirectoryError traceback from the open of the body
    assert main([command, str(tmp_path), "--grid", "8,16",
                 *_FAST[command]]) == EXIT_INPUT
    _one_error_line(capsys, "input error: ")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", sorted(_FAST))
@pytest.mark.parametrize("key, value", [
    ("label", 5), ("label", ["a"]), ("coeffs", [True]), ("truncation_tol", True),
], ids=["label-number", "label-list", "coeffs-boolean", "tolerance-boolean"])
def test_spec_fields_of_the_wrong_json_type_are_input_errors(
        tmp_path, capsys, command, key, value):
    # a label that is not a string ended verify-theorem in a TypeError
    # traceback from the label join of the Minkowski sum, gen's constant-width
    # recipe exited 2 with that TypeError's text, and analyze and export wrote
    # the number into their outputs; a boolean coefficient or tolerance
    # loaded as 1.0
    spec = dict({"basis": "real-sph-harm", "lmax": 0, "coeffs": [3.5]},
                **{key: value})
    if key == "truncation_tol":
        spec.update(coeffs=ball_spec()["coeffs"], closed_form="ball:1.0")
    source = {"kind": "constant_width", "gauge": spec,
              "odd": {"harmonics": [[3, 0, 1.0]]}} if command == "gen" else spec
    path = write_json(tmp_path / "in.json", source)
    assert main([command, path, *_FAST[command]]) == EXIT_INPUT
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: "), lines
    assert key in lines[0], lines
    assert os.listdir(tmp_path) == ["in.json"]


def test_a_start_that_already_meets_the_convergence_test_is_input_error(
        tmp_path, capsys):
    # both starts (norm 0 and 6.9e-4) met the probe's convergence test, and
    # the run printed RIGIDITY-CONSISTENT after one accepted state
    body = write_json(tmp_path / "ball.json", ball_spec())
    for scale in ("0", "0.01"):
        assert main(["verify-theorem", body, "--start-scale", scale]) \
            == EXIT_INPUT, scale
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: "), lines
        assert "--start-scale" in lines[0], lines
        assert os.listdir(tmp_path) == ["ball.json"]
    assert main(["verify-theorem", body, "--start-scale", "0.02"]) == EXIT_OK
    assert "RIGIDITY-CONSISTENT" in capsys.readouterr().out
    assert len((tmp_path / "ball.trace.csv").read_text().splitlines()) == 1 + 5


@pytest.mark.parametrize("recipe, want", [
    ({"kind": "ellipsoid", "axes": [1, 1, 2], "lmax": -1}, "lmax must be nonnegative"),
    ({"kind": "random_convex", "seed": 0, "lmax": -1}, "lmax must be nonnegative"),
    ({"kind": "constant_width", "gauge": {"kind": "ball", "r": 1.0},
      "odd": {"harmonics": [[3, 5, 1.0]]}}, "|m| must not exceed l"),
], ids=["ellipsoid", "random_convex", "harmonics"])
def test_gen_names_a_negative_lmax_and_an_order_above_its_degree(
        tmp_path, capsys, recipe, want):
    path = write_json(tmp_path / "r.json", recipe)
    assert main(["gen", path]) == EXIT_INPUT
    _one_error_line(capsys, "input error: " + want)
    assert os.listdir(tmp_path) == ["r.json"]


def test_body_that_is_not_utf8_is_input_error(tmp_path, capsys):
    # UnicodeDecodeError, a ValueError that reached main unwrapped, exited 4
    # as a numerical failure
    body = tmp_path / "latin.json"
    body.write_bytes(b'{"basis": "real-sph-harm", "lmax": 0, "coeffs": [3.5\xff]}')
    assert main(["analyze", str(body)]) == EXIT_INPUT
    _one_error_line(capsys, "input error: ")
    assert os.listdir(tmp_path) == ["latin.json"]


def test_deeply_nested_recipe_is_input_error(tmp_path, capsys):
    # RecursionError traceback; the text is built by hand, since json.dumps
    # cannot write it either
    layer = ('{"kind": "constant_width", "odd": {"harmonics": [[3, 0, 1.0]]}, '
             '"gauge": ')
    recipe = tmp_path / "deep.json"
    recipe.write_text(layer * 3000 + '{"kind": "ball", "r": 1.0}' + "}" * 3000)
    assert main(["gen", str(recipe), "--grid", "8,16"]) \
        == EXIT_INPUT
    _one_error_line(capsys, "input error: ")
    assert os.listdir(tmp_path) == ["deep.json"]


def test_gen_with_a_non_convex_gauge_is_infeasible(tmp_path, capsys):
    # the gauge's missing margin exited 2, where verify-theorem exits 3 for
    # the same gauge
    recipe = write_json(tmp_path / "cw.json", {
        "kind": "constant_width",
        "gauge": {"basis": "real-sph-harm", "lmax": 2,
                  "coeffs": [3.5449, 0, 0, 0, 0, 0, 5.0, 0, 0]},
        "odd": {"harmonics": [[3, 0, 1.0]]}})
    assert main(["gen", recipe, "--grid", "8,16"]) \
        == EXIT_INFEASIBLE
    _one_error_line(capsys, "infeasible: ")
    assert os.listdir(tmp_path) == ["cw.json"]


def test_closed_form_tag_with_a_nan_parameter_is_input_error(tmp_path, capsys):
    # the deviation from a NaN tag is NaN, which passed the closed-form check:
    # both runs exited 0
    for command, tag in (("analyze", "ball:nan"), ("export", "ellipsoid:1,nan,1")):
        body = write_json(tmp_path / "tag.json", dict(ball_spec(), closed_form=tag))
        assert main([command, body, "--grid", "8,16"]) \
            == EXIT_INPUT, tag
        _one_error_line(capsys, "input error: closed_form")
    assert os.listdir(tmp_path) == ["tag.json"]


@pytest.mark.parametrize("tag, want", [
    ("ellipsoid:1,2", "ellipsoid needs 3 parameter(s), got 2"),
    ("ball:1,2", "ball needs 1 parameter(s), got 2"),
    ("foo:1", "unknown closed form tag: 'foo:1'"),
], ids=["ellipsoid-too-few", "ball-too-many", "unknown"])
def test_malformed_closed_form_tag_is_named(tmp_path, capsys, tag, want):
    # the wrong parameter counts exited 2 with "not enough values to unpack"
    # and "too many values to unpack"
    body = write_json(tmp_path / "tag.json", dict(ball_spec(), closed_form=tag))
    assert main(["analyze", body, "--grid", "8,16"]) == EXIT_INPUT
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: "), lines
    assert repr(tag) in lines[0] and want in lines[0], lines
    assert os.listdir(tmp_path) == ["tag.json"]


def test_body_spec_that_is_a_list_is_input_error(tmp_path, capsys):
    body = write_json(tmp_path / "list.json", [ball_spec()])
    assert main(["analyze", body, "--grid", "8,16"]) == EXIT_INPUT
    _one_error_line(capsys, "input error: body spec must be a JSON object")
    assert os.listdir(tmp_path) == ["list.json"]


@pytest.mark.parametrize("command, builder", [
    ("verify-theorem", "widthbright.lab._quadratic_model"),
    ("analyze", "widthbright.brightness._cosine_operator"),
], ids=["verify-theorem", "analyze"])
def test_out_of_memory_exits_4_with_one_line(tmp_path, capsys, monkeypatch,
                                             command, builder):
    # numpy's _ArrayMemoryError, a MemoryError, ended the run in a traceback
    # with exit 1 when a table did not fit the process's address space
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.33 GiB for an array")
    monkeypatch.setattr(builder, fail)
    body = write_json(tmp_path / "ball.json", ball_spec())
    assert main([command, body, *_FAST[command]]) == EXIT_NUMERICAL
    _one_error_line(capsys, "numerical failure: out of memory: Unable to "
                    "allocate 7.33 GiB")
    assert os.listdir(tmp_path) == ["ball.json"]


# ---------------------------------------------------------------------------
# determinism

def test_outputs_are_byte_identical_across_runs(tmp_path):
    recipe = write_json(tmp_path / "r.json",
                        {"kind": "random_convex", "seed": 9, "lmax": 8})
    assert main(["gen", recipe]) == EXIT_OK
    body = str(tmp_path / "r.body.json")
    first = open(body, "rb").read()
    assert main(["gen", recipe]) == EXIT_OK
    assert open(body, "rb").read() == first

    assert main(["analyze", body]) == EXIT_OK
    rep = str(tmp_path / "r.body.report.json")
    csv = str(tmp_path / "r.body_brightness.csv")
    first_rep = open(rep, "rb").read()
    first_csv = open(csv, "rb").read()
    assert main(["analyze", body]) == EXIT_OK
    assert open(rep, "rb").read() == first_rep
    assert open(csv, "rb").read() == first_csv


def child_env(**overrides):
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    return env


def test_module_entry_point(tmp_path):
    body = write_json(tmp_path / "ball.json", ball_spec())
    env = child_env(WIDTHBRIGHT_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "widthbright.cli", "analyze", body,
         "--grid", "16,32"],
        capture_output=True, text=True, env=env, cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "ball.report.json").exists()


def test_thread_cap_precedes_numpy(tmp_path):
    # Record the BLAS thread variables at the moment numpy is first imported.
    probe = (
        "import os, sys\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy':\n"
        "            print(os.environ.get('OPENBLAS_NUM_THREADS'),\n"
        "                  os.environ.get('OMP_NUM_THREADS'))\n"
        "            sys.meta_path.remove(self)\n"
        "sys.meta_path.insert(0, Spy())\n"
        "import widthbright.cli\n")
    env = child_env(WIDTHBRIGHT_THREADS="1", OMP_NUM_THREADS="2")
    env.pop("OPENBLAS_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    # capped where unset, an explicit setting left alone
    assert proc.stdout.split() == ["1", "2"]


def test_commands_run_without_sympy(tmp_path):
    # sympy is a test-only oracle; the library and every command avoid it
    ball = write_json(tmp_path / "ball.json", ball_spec())
    recipe = write_json(tmp_path / "recipe.json", {"kind": "ball", "r": 1.0})
    probe = (
        "import sys\n"
        "from widthbright.cli import main\n"
        "assert 'sympy' not in sys.modules, 'import'\n"
        "for argv in (['gen', %r], ['analyze', %r], ['export', %r],\n"
        "             ['verify-theorem', %r, '--max-iter', '5']):\n"
        "    assert main(argv + ['--grid', '16,32']) == 0, argv\n"
        "    assert 'sympy' not in sys.modules, argv[0]\n"
        % (recipe, ball, ball, ball))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=child_env(WIDTHBRIGHT_THREADS="1"),
                          cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
