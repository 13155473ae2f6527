"""Tests of the benchmark itself: a tiny smoke run of every workload, and each
correctness check fed a corrupted input.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from widthbright import body, generators, sphere  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


# ---------------------------------------------------------------------------
# the contract

GATED = [w["name"] for w in BENCHMARK["workloads"]]


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert set(GATED) == set(run.COMPANIONS)
    assert set(GATED) | set(run.COMPANIONS.values()) == set(run.WORKLOADS)


def tiny_run(workload, trace):
    p = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
              "--trace", str(trace), "--tiny")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, p.stdout
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert "# job_p90_ref" in p.stdout and "# fail_ratio:" in p.stdout
    assert "# wall time: jobs_per_s" in p.stdout
    assert '"numpy"' in p.stdout and '"commit"' in p.stdout
    return result


@pytest.mark.parametrize("workload,trace", [(w, 0) for w in run.WORKLOADS]
                         + [(w, 1) for w in run.COMPANIONS.values()])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = tiny_run(workload, trace)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_gated_workloads_measure_every_layer():
    measured = set()
    for workload in GATED:
        metrics = tiny_run(workload, 1)["metrics"]
        measured |= {name for name, m in metrics.items() if m["value"] > 0}
    assert measured == set(run.PER_LAYER)


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = bench("--workload", "cli_cold", "--seed", "1", "--seconds", "1",
              "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""


def test_reference_units_cancel_machine_speed():
    jobs = [1.0, 2.0, 1.0]
    refs = [0.1, 0.1, 0.1, 0.1]
    slow = [2 * r for r in refs]  # the same jobs on a machine half as fast
    assert run.in_reference_units(jobs, refs) == pytest.approx([10.0, 20.0, 10.0])
    assert run.in_reference_units([2 * t for t in jobs], slow) == \
        pytest.approx(run.in_reference_units(jobs, refs))
    # each job is divided by the mean of the kernel runs right before and after it
    assert run.in_reference_units([1.0], [0.1, 0.3]) == pytest.approx([5.0])


def test_inputs_follow_the_seed():
    for workload in run.WORKLOADS:
        assert run.make_plan(workload, 5, False) == run.make_plan(workload, 5, False)
        assert run.make_plan(workload, 5, False) != run.make_plan(workload, 6, False)


# ---------------------------------------------------------------------------
# each check counts a failure on corrupted input

@pytest.fixture(scope="module")
def grid():
    return sphere.make_grid(16, 32)


def test_plain_checks():
    assert checks.below("x", 1e-12, 1e-11) == []
    assert checks.below("x", 1e-9, 1e-11) and checks.below("x", math.nan, 1.0)
    assert checks.within("v", 1.0, 1.0 + 1e-12, 1e-9) == []
    assert checks.within("v", 1.1, 1.0, 1e-3)
    assert checks.equal("status", "stalled", checks.PROBE_STATUS)
    assert checks.identical("out", "a", "a") == [] and checks.identical("out", "a", "b")


def test_cli_checks():
    good = "RIGIDITY-CONSISTENT\nwrote g.trace.csv (20 accepted states)\n"
    assert checks.cli_exit("verify-theorem", 0, good, checks.RIGIDITY_LINE) == []
    assert checks.cli_exit("verify-theorem", 3, good, checks.RIGIDITY_LINE)
    assert checks.cli_exit("verify-theorem", 0, "RIGIDITY-UNRESOLVED (stalled)\n",
                           checks.RIGIDITY_LINE)
    assert checks.mesh_counts("wrote a.obj (2050 vertices, 4096 triangles)", 32, 64) == []
    assert checks.mesh_counts("wrote a.obj (2050 vertices, 4094 triangles)", 32, 64)

    report = {"certificate": {"convex": True}, "volume": 4.2,
              "brightness": {"min": 3.0}, "parity": {"identity_residual_max": 1e-15}}
    assert checks.analyze_report(report) == []
    assert checks.analyze_report(dict(report, parity={"identity_residual_max": 1e-9}))
    assert checks.analyze_report(dict(report, certificate={"convex": False}))


def test_constant_width_spec_check():
    gauge = {"coeffs": [3.5, 0.0, 0.0, 0.0, 0.1, 0.0, 0.2, 0.0, 0.0]}
    body_spec = {"coeffs": [3.5, 0.01, 0.0, 0.0, 0.1, 0.0, 0.2, 0.0, 0.0],
                 "certificate": {"convex": True}}
    assert checks.constant_width_spec(body_spec, gauge) == []
    shifted = dict(body_spec, coeffs=[3.5, 0.01, 0.0, 0.0, 0.1, 0.0, 0.2 + 1e-15, 0.0, 0.0])
    assert checks.constant_width_spec(shifted, gauge)
    assert checks.constant_width_spec(dict(body_spec, coeffs=gauge["coeffs"]), gauge)


def test_ellipsoid_tolerances_cover_truncation():
    axes = (1.0, 1.0, 2.0)
    g = sphere.make_grid(32, 64)
    for lmax in (6, 8):
        h = generators.ellipsoid(*axes, lmax=lmax)
        tol_v, tol_a = checks.ellipsoid_tolerances(axes, h.truncation_tol)
        assert abs(body.volume(h, g) - checks.ellipsoid_volume(axes)) <= tol_v
        assert tol_v < 0.1 * checks.ellipsoid_volume(axes)
    tol_v0, tol_a0 = checks.ellipsoid_tolerances((1.0, 1.0, 1.0), 0.0)
    assert tol_v0 < 1e-8 and tol_a0 < 1e-8


def analyze_item(h, kind="ellipsoid", gauge=None):
    return {"kind": kind, "body": h, "gauge": gauge}


def test_analyze_counts_a_mislabelled_closed_form(grid):
    h = generators.ellipsoid(1.0, 1.0, 2.0, lmax=6, grid=grid)
    ctx = {"grid": grid, "gauge_width": []}
    out = worker.work_analyze(ctx, analyze_item(h))
    assert worker.check_analyze(ctx, analyze_item(h), out)[1] == []
    # coefficients of (1, 1, 2) under the tag of (1, 1, 3): the spec loader
    # refuses it, and the closed-form checks count it as well
    wrong = body.SupportFunction(h.coeffs, h.lmax, closed_form="ellipsoid:1.0,1.0,3.0",
                                 truncation_tol=h.truncation_tol)
    with pytest.raises(ValueError):
        body.body_from_spec(body.body_to_spec(wrong))
    fails = worker.check_analyze(ctx, analyze_item(wrong), worker.work_analyze(ctx, analyze_item(wrong)))[1]
    assert any("volume" in f for f in fails) and any("brightness" in f for f in fails)


def test_analyze_counts_width_and_parity_defects(grid):
    gauge = generators.ellipsoid(1.0, 1.0, 2.0, lmax=4, grid=grid)
    odd = worker.harmonics_body([[3, 0, 1.0]])
    h = generators.constant_width_body(gauge, odd, math.inf, grid).resolved
    ctx = {"grid": grid, "gauge_width": [body.width(gauge, grid)]}
    item = analyze_item(h, "constant_width", 0)
    out = worker.work_analyze(ctx, item)
    assert worker.check_analyze(ctx, item, out)[1] == []
    other = dict(ctx, gauge_width=[body.width(generators.ball(1.5), grid)])
    assert any("width" in f for f in worker.check_analyze(other, item, out)[1])
    out["parity"].identity_residual = out["parity"].identity_residual + 1e-9
    assert any("parity" in f for f in worker.check_analyze(ctx, item, out)[1])


def test_oracle_counts_a_gap(grid):
    h = generators.ball(1.0)
    dirs = np.array([[0.0, 0.0, 1.0], [0.6, 0.8, 0.0]])
    ctx = {"grid": grid, "oracle_gap_max": 0.0}
    item = {"body": h, "directions": dirs}
    formula = np.full(2, math.pi)
    assert worker.check_oracle(ctx, item, (formula, formula * 1.005))[1] == []
    fails = worker.check_oracle(ctx, item, (formula, formula * 1.02))[1]
    assert any("oracle gap" in f for f in fails) and ctx["oracle_gap_max"] > 0.01
    fails = worker.check_oracle(ctx, item, (formula * 1.001, formula * 1.001))[1]
    assert any("brightness" in f for f in fails)


def test_probe_counts_an_odd_gauge_and_a_stalled_descent(grid):
    odd_gauge = generators.ball(1.0)
    odd_gauge = body.SupportFunction(np.r_[odd_gauge.coeffs, 0.0, 0.1, 0.0], 1)
    ctx = {"grid": grid, "degrees": (3, 5), "start_scale": 0.5, "iterations": []}
    item = {"gauge": odd_gauge, "start": worker.harmonics_body([[3, 1, 1.0]])}
    dt, digest, fails = worker.run_job(None, ctx, worker.work_probe, worker.check_probe,
                                       item, 0)
    assert digest is None and fails and "even" in fails[0]

    good = dict(item, gauge=generators.ball(1.0))
    trace = worker.work_probe(ctx, good)
    assert worker.check_probe(ctx, good, trace)[1] == []
    trace.terminal_status = "stalled"
    assert worker.check_probe(ctx, good, trace)[1]


def test_revisited_jobs_must_repeat_byte_for_byte(monkeypatch):
    calls = []

    def setup(plan):
        return {"items": [{"k": 0}, {"k": 1}]}

    def work(ctx, item):
        calls.append(item["k"])
        return len(calls) if item["k"] == 1 else 0   # item 1 drifts

    def check(ctx, item, out):
        return {"out": out}, []

    monkeypatch.setitem(worker.WORKLOADS, "fake", (setup, work, check))
    plan = {"workload": "fake", "seconds": 1e-9, "reference": ["numpy"]}
    _, res = worker.run(dict(plan, warmup=0), None)
    assert len(res["jobs"]) == 2 and not any(res["job_fails"])
    assert len(res["refs"]) == 3   # a reference kernel run before and after each job
    _, res = worker.run(dict(plan, warmup=2), None)
    assert res["job_fails"][0] == [] and "differs" in res["job_fails"][1][0]


def test_a_crashing_setup_is_a_failed_job(tmp_path):
    plan = run.make_plan("oracle_check", 1, True)
    plan["recipes"][1]["axes"] = [1.0, 1.0, -2.0]
    plan.update(src=run.find_src(), spans_path=str(tmp_path / "spans.json"))
    tally = run.Tally()
    env = run.child_env(plan["src"])
    setups, final, rss = run.run_inprocess(plan, env, str(tmp_path), 0.1, 0, tally)
    assert final is None and tally.failed == tally.attempted == plan["setup_reps"]
    assert "semi-axes" in tally.messages[0]
