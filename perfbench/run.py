#!/usr/bin/env python3
"""Benchmark of widthbright: cold CLI, fine-grid analysis, shadow oracle and
rigidity probe.

One run of one workload (the last line printed is the JSON result):

    python3 perfbench/run.py --workload analyze_fine --seed 1 --seconds 8 --trace 0

Every workload, untraced and traced, with a table of every metric:

    python3 perfbench/run.py --all

This process uses only the standard library and stays small: it makes the
inputs, starts the measured processes (worker.py, or the CLI itself) with
BLAS pinned to one thread, reaps each with wait4 for its peak RSS, and
checks what they return. See README.md for the workloads and metrics.
"""

import argparse
import importlib.machinery
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.py")
sys.path.insert(0, HERE)
import checks  # noqa: E402

WORKLOADS = ("cli_cold", "analyze_fine", "oracle_check", "rigidity_probe")
# BENCHMARK.json gates oracle_check and rigidity_probe only (README: "Run
# budget and steadiness"); a traced run of each also makes a short traced
# run of its companion, so every layer is still measured on a gated workload
COMPANIONS = {"oracle_check": "analyze_fine", "rigidity_probe": "cli_cold"}
# job times in reference units: seconds over those of the reference kernel
# timed around the job (reference.py); "ref" is one run of that kernel
END_TO_END = {"setup_s": "s", "jobs_per_ref": "1/ref", "job_p50_ref": "ref",
              "peak_rss_mb": "MiB"}
PER_LAYER = {
    "sphere.make_basis_s": "s",
    "sphere.node_tables_s": "s",
    "sphere.tables_mb": "MiB-computed",
    "body.certify_convex_s": "s",
    "body.volume_s": "s",
    "body.body_from_spec_s": "s",
    "boundary.inverse_gauss_s": "s",
    "boundary.export_mesh_s": "s",
    "brightness.operator_build_s": "s",
    "brightness.operator_apply_s": "s",
    "brightness.operator_mb": "MiB-computed",
    "brightness.brightness_profile_s": "s",
    "brightness.offgrid_profile_s": "s",
    "brightness.mesh_shadow_s": "s",
    "brightness.oracle_gap_max": "ratio",
    "lab.parity_check_s": "s",
    "lab.probe_first_s": "s",
    "lab.probe_s": "s",
    "lab.iter_s": "s",
    "lab.iterations": "count",
    "generators.ellipsoid_s": "s",
    "generators.constant_width_body_s": "s",
    "cli.import_s": "s",
    "cli.gen_s": "s",
    "cli.analyze_s": "s",
    "cli.export_s": "s",
    "cli.verify_theorem_s": "s",
    "trace.overhead_s": "s",
}
# the parts of the reference kernel (reference.py) that do the kind of work
# each workload's jobs spend their time on
REFERENCE_PARTS = {"cli_cold": ["hull", "numpy"], "analyze_fine": ["gemv", "numpy"],
                   "oracle_check": ["hull", "numpy"], "rigidity_probe": ["gemv"]}
CLI_COMMANDS = ("gen", "analyze", "export", "verify-theorem")
THREAD_VARS = ("WIDTHBRIGHT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
P90_MIN_JOBS = 100    # the p90 needs ten samples beyond it
CLI_REFERENCE_RUNS = 3  # kernel runs per reference process between CLI jobs
CHILD_TIMEOUT_S = 150


# ---------------------------------------------------------------------------
# inputs: everything follows from (workload, seed)

def odd_terms(rng, degrees):
    """Seeded odd harmonic part [[l, m, c], ...] of unit coefficient norm."""
    terms = [[l, m, rng.gauss(0.0, 1.0)] for l in degrees for m in range(-l, l + 1)]
    norm = math.sqrt(sum(c * c for _, _, c in terms))
    return [[l, m, c / norm] for l, m, c in terms]


def axes(rng):
    return [rng.uniform(1.0, 1.5) for _ in range(3)]


def make_plan(workload, seed, tiny):
    """Inputs and sizes of one run. tiny shrinks grids and degrees for the smoke test."""
    rng = random.Random("%s:%d" % (workload, seed))
    gauge = {"kind": "ellipsoid", "axes": [1.0, 1.0, 2.0], "lmax": 6 if tiny else 12}
    plan = {"workload": workload, "seed": seed, "warmup": 2,
            "reference": REFERENCE_PARTS[workload]}
    if workload == "cli_cold":
        plan.update(
            grid=[16, 32] if tiny else [32, 64], lmax=gauge["lmax"],
            cli_args=["--grid", "16,32", "--lmax", "6"] if tiny else [],
            gauge=gauge, odd=odd_terms(rng, (3, 5)),
            verify_seed=rng.randrange(1000))
    elif workload == "analyze_fine":
        lmaxes = [4, 6] if tiny else [8, 12]
        kinds = ("random_convex", "constant_width", "ellipsoid")
        recipes = []
        for j in range(2 if tiny else 6):
            for k, kind in enumerate(kinds):
                # one lmax-8 body in every three: two thirds of the jobs share
                # one cost cluster, so the median job is not on its edge
                lmax = lmaxes[0] if (j + k) % 3 == 0 else lmaxes[1]
                if kind == "random_convex":
                    recipe = {"kind": kind, "seed": rng.randrange(10 ** 6), "lmax": lmax,
                              "roughness": 0.35}
                elif kind == "constant_width":
                    recipe = {"kind": kind, "eps": "auto",
                              "odd": {"harmonics": odd_terms(rng, (3,) if tiny else (3, 5))}}
                else:
                    recipe = {"kind": kind, "axes": axes(rng), "lmax": lmax}
                recipes.append({"kind": kind, "recipe": recipe, "gauge":
                                lmaxes.index(lmax) if kind == "constant_width" else None})
        plan.update(setup_reps=1, grid=[16, 32] if tiny else [48, 96], lmaxes=lmaxes,
                    gauge_recipes=[dict(gauge, lmax=l) for l in lmaxes], recipes=recipes)
    elif workload == "oracle_check":
        lmax = 4 if tiny else 8
        recipes = [{"kind": "ball", "r": rng.uniform(0.8, 1.2)},
                   {"kind": "ellipsoid", "axes": axes(rng), "lmax": lmax}]
        recipes += [{"kind": "random_convex", "seed": rng.randrange(10 ** 6),
                     "lmax": lmax, "roughness": 0.35} for _ in range(2)]
        directions = []
        for _ in recipes:
            dirs = []
            for _ in range(6 if tiny else 20):
                v = [rng.gauss(0.0, 1.0) for _ in range(3)]
                n = math.sqrt(sum(x * x for x in v))
                dirs.append([x / n for x in v])
            directions.append(dirs)
        plan.update(setup_reps=2, grid=[24, 48] if tiny else [32, 64],
                    recipes=recipes, directions=directions)
    else:
        n = 1 if tiny else 16
        starts = [odd_terms(rng, (3, 5)) for _ in range(2 * n)]
        # [gauge, start]: gauge 1, the ellipsoid, takes two probes in three;
        # the first two items warm up both gauges
        items = []
        for s in range(n):
            items += [[1, 2 * s], [0, s], [1, 2 * s + 1]]
        plan.update(setup_reps=2, grid=[16, 32] if tiny else [32, 64],
                    gauges=[{"kind": "ball", "r": 1.0}, gauge], starts=starts, items=items,
                    degrees=[3, 5], start_scale=0.5)
    return plan


# ---------------------------------------------------------------------------
# child processes

def find_src():
    """Absolute directory holding the widthbright package of this checkout, or None."""
    spec = importlib.machinery.PathFinder.find_spec(
        "widthbright", [os.path.join(ROOT, "src")])
    if spec is None or spec.origin is None:
        return None
    return os.path.dirname(os.path.dirname(os.path.abspath(spec.origin)))


def child_env(src):
    """Environment of every child: the package by absolute path, one BLAS thread.

    An absolute PYTHONPATH keeps working when a child runs in another
    directory; the thread variables must be set before numpy loads, so they
    go into the environment rather than into the child's code.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """A finished child process: exit code, wall seconds, peak RSS, output."""

    def __init__(self, argv, env, cwd, log_path):
        self.t0 = time.monotonic()
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                status, usage = self._reap(proc)
            except BaseException:
                proc.kill()
                self._reap(proc)
                raise
        self.wall = time.monotonic() - self.t0
        self.returncode = proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0   # Linux reports KiB
        with open(log_path, errors="replace") as f:
            self.output = f.read()

    def _reap(self, proc):
        # block in wait4 rather than poll it: a polling parent takes turns on
        # the CPUs the measured child runs on
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        return status, usage

    def failure(self, what):
        if self.returncode == 0:
            return []
        tail = self.output.strip().splitlines()[-3:]
        return ["%s exited with %d: %s" % (what, self.returncode, " | ".join(tail))]


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


ENV_PROBE = """import json, numpy as np
try:
    b = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = "%s %s" % (b.get("name"), b.get("version"))
except (TypeError, KeyError):
    blas = "unknown"
print(json.dumps({"numpy": np.__version__, "blas": blas}))"""


def environment(src, env, work, args):
    child = Child([sys.executable, "-c", ENV_PROBE], env, work,
                  os.path.join(work, "env.log"))
    try:
        record = json.loads(child.output.strip().splitlines()[-1])
    except (ValueError, IndexError):
        record = {"numpy": "unknown", "blas": "unknown"}
    record.update(
        python=platform.python_version(), platform=platform.platform(),
        nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
        threads={v: env[v] for v in THREAD_VARS}, PYTHONHASHSEED=env["PYTHONHASHSEED"],
        commit=git_commit(), package=src, workload=args.workload, seed=args.seed,
        seconds=args.seconds, trace=args.trace, tiny=args.tiny)
    return record


# ---------------------------------------------------------------------------
# workloads

class Tally:
    """Attempted and failed jobs, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def job(self, what, fails):
        self.attempted += 1
        if fails:
            self.failed += 1
            self.messages += ["%s: %s" % (what, m) for m in fails][:3]


def run_inprocess(plan, env, work, seconds, trace, tally):
    """Set-up processes, the last of which measures; returns (setups, final, rss)."""
    setups, first_digests, final, rss = [], None, None, 0.0
    reps = plan["setup_reps"]
    for k in range(reps):
        last = k == reps - 1
        rep_plan = dict(plan, seconds=seconds if last else 0, trace=trace if last else 0)
        rep_path = os.path.join(work, "plan%d.json" % k)
        res_path = os.path.join(work, "result%d.json" % k)
        with open(rep_path, "w") as f:
            json.dump(rep_plan, f)
        child = Child([sys.executable, WORKER, "run", rep_path, res_path],
                      env, work, os.path.join(work, "worker%d.log" % k))
        if child.returncode != 0 or not os.path.exists(res_path):
            tally.job("set-up process %d" % k,
                      child.failure("worker") or ["worker wrote no result"])
            continue
        with open(res_path) as f:
            res = json.load(f)
        setups.append(res["t_setup_end"] - child.t0)
        digests = [w["digest"] for w in res["warmup"]]
        first_digests = first_digests or digests
        for i, w in enumerate(res["warmup"]):
            fails = w["fails"] + checks.identical(
                "warm-up result across set-up processes", first_digests[i], digests[i])
            tally.job("warm-up job %d of set-up %d" % (i, k), fails)
        if last:
            final, rss = res, child.peak_rss_mb
            for n, fails in enumerate(res["job_fails"]):
                tally.job("job %d" % n, fails)
    return setups, final, rss


def run_cli(plan, env, work, seconds, trace, tally):
    """Set-up gen of the gauge, then whole cycles of the four CLI commands.

    Returns (set-up seconds, job seconds, reference kernel seconds around
    them, peak RSS, layer metrics or None, probe self times).
    """
    for name, recipe in (("gauge.json", plan["gauge"]),
                         ("cw.json", {"kind": "constant_width", "gauge": plan["gauge"],
                                      "odd": {"harmonics": plan["odd"]}, "eps": "auto"})):
        with open(os.path.join(work, name), "w") as f:
            json.dump(recipe, f)
    n_theta, n_phi = plan["grid"]
    extra = plan["cli_args"]
    serial = [0]

    def cli(args):
        serial[0] += 1
        return Child([sys.executable, "-m", "widthbright.cli"] + args + extra, env, work,
                     os.path.join(work, "cli%d.log" % serial[0]))

    def read_json(name):
        try:
            with open(os.path.join(work, name)) as f:
                return json.load(f)
        except (OSError, ValueError):
            return {}

    def digests(names):
        out = []
        for name in names:
            path = os.path.join(work, name)
            out.append(checks.file_digest(path) if os.path.exists(path) else None)
        return out

    # set-up: the gauge spec that verify-theorem needs, made by the CLI itself
    child = cli(["gen", "gauge.json", "--out", "gauge.body.json"])
    setups, rss, first = [child.wall], child.peak_rss_mb, {}
    gauge_spec = read_json("gauge.body.json")
    fails = checks.cli_exit("gen", child.returncode, child.output, "wrote ")
    want_tag = "ellipsoid:%r,%r,%r" % tuple(float(a) for a in plan["gauge"]["axes"])
    tally.job("set-up gen", fails + checks.equal(
        "gauge closed_form", gauge_spec.get("closed_form"), want_tag))

    cycle = {
        "gen": (["gen", "cw.json", "--out", "cw.body.json"], ["cw.body.json"]),
        "analyze": (["analyze", "cw.body.json", "--out", "cw.report.json"],
                    ["cw.report.json", "cw.report_brightness.csv"]),
        "export": (["export", "cw.body.json", "--out", "cw.obj"], ["cw.obj"]),
        "verify-theorem": (["verify-theorem", "gauge.body.json", "--seed",
                            str(plan["verify_seed"]), "--out", "gauge.trace.csv"],
                           ["gauge.trace.csv"]),
    }
    def reference_s():
        """Median kernel seconds in a fresh process, as each CLI job runs in one."""
        serial[0] += 1
        child = Child([sys.executable, REFERENCE, str(CLI_REFERENCE_RUNS),
                       ",".join(plan["reference"])],
                      env, work, os.path.join(work, "reference%d.log" % serial[0]))
        try:
            return statistics.median(json.loads(child.output.strip().splitlines()[-1]))
        except (ValueError, IndexError, statistics.StatisticsError):
            tally.job("reference kernel", child.failure("reference") or ["no timings"])
            return math.nan

    times = {c: [] for c in CLI_COMMANDS}
    jobs, refs = [], [reference_s()]
    t_measure = time.monotonic()
    while True:
        for command in CLI_COMMANDS:
            args, outputs = cycle[command]
            child = cli(args)
            refs.append(reference_s())
            times[command].append(child.wall)
            jobs.append(child.wall)
            rss = max(rss, child.peak_rss_mb)
            if command == "verify-theorem":
                fails = checks.cli_exit(command, child.returncode, child.output,
                                        checks.RIGIDITY_LINE)
            else:
                fails = checks.cli_exit(command, child.returncode, child.output, "wrote ")
            if command == "gen":
                fails += checks.constant_width_spec(read_json("cw.body.json"), gauge_spec)
            elif command == "analyze":
                fails += checks.analyze_report(read_json("cw.report.json"))
            elif command == "export":
                fails += checks.mesh_counts(child.output, n_theta, n_phi)
            got = digests(outputs)
            fails += checks.identical("%s output" % command,
                                      first.setdefault(command, got), got)
            tally.job(command, fails)
        if time.monotonic() - t_measure >= seconds:
            break

    layers, self_times = None, {}
    if trace:
        probe_plan = dict(plan, trace=1)
        probe_path = os.path.join(work, "probe_plan.json")
        res_path = os.path.join(work, "probe.json")
        with open(probe_path, "w") as f:
            json.dump(probe_plan, f)
        child = Child([sys.executable, WORKER, "probe", probe_path, res_path],
                      env, work, os.path.join(work, "probe.log"))
        layers = dict.fromkeys(PER_LAYER, 0.0)
        if child.returncode == 0:
            with open(res_path) as f:
                probe = json.load(f)
            layers.update(probe["layers"])
            self_times = probe["self_times"]
        else:
            tally.job("layer probe", child.failure("probe"))
        for command in CLI_COMMANDS:
            layers["cli.%s_s" % command.replace("-", "_")] = statistics.median(times[command])
    return setups, jobs, refs, rss, layers, self_times


def in_reference_units(jobs, refs):
    """Each job's seconds over the mean of the reference kernel runs around it.

    refs holds one more entry than jobs: refs[i] ran right before job i and
    refs[i + 1] right after it.
    """
    return [t / (0.5 * (refs[i] + refs[i + 1])) for i, t in enumerate(jobs)]


def p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) >= P90_MIN_JOBS else None


def run_workload(args, src):
    """One run: the report with the result line, the environment and extras."""
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=OUT)
    env = child_env(src)
    tally = Tally()
    plan = make_plan(args.workload, args.seed, args.tiny)
    plan["src"] = src
    plan["spans_path"] = os.path.join(OUT, "spans-%s-seed%d.json" % (args.workload, args.seed))
    self_times = {}
    try:
        record = environment(src, env, work, args)
        if args.workload == "cli_cold":
            setups, jobs, refs, rss, layers, self_times = run_cli(
                plan, env, work, args.seconds, args.trace, tally)
        else:
            setups, final, rss = run_inprocess(plan, env, work, args.seconds,
                                               args.trace, tally)
            final = final or {}
            jobs, refs = final.get("jobs", []), final.get("refs", [])
            layers = dict(dict.fromkeys(PER_LAYER, 0.0), **final.get("layers", {}))
            self_times = final.get("self_times", {})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    companion = COMPANIONS.get(args.workload) if args.trace else None
    if companion:
        sub = run_workload(argparse.Namespace(
            **dict(vars(args), workload=companion, seconds=0)), src)
        # the layers this workload never calls
        for name, m in sub["result"]["metrics"].items():
            if not layers[name]:
                layers[name] = m["value"]
        tally.attempted += sub["result"]["attempted"]
        tally.failed += sub["result"]["failed"]
        tally.messages += sub["extras"]["failures"]

    if tally.attempted == 0:
        tally.job("run", ["no job ran"])
    # a reference process that failed is a failed job already; its neighbours
    # have no time in reference units
    in_ref = [u for u in in_reference_units(jobs, refs) if math.isfinite(u)]
    e2e = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        # busy time only: the checks between jobs are not counted
        "jobs_per_ref": len(in_ref) / sum(in_ref) if in_ref else 0.0,
        "job_p50_ref": statistics.median(in_ref) if in_ref else 0.0,
        "peak_rss_mb": rss,
    }
    values, units = (layers, PER_LAYER) if args.trace else (e2e, END_TO_END)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    extras = dict(
        e2e, jobs=len(jobs),
        jobs_per_s=len(jobs) / sum(jobs) if jobs else 0.0,
        job_p50_s=statistics.median(jobs) if jobs else 0.0,
        reference_p50_s=statistics.median(refs) if refs else 0.0,
        job_p90_ref=p90(in_ref), job_p90_s=p90(jobs),
        fail_ratio=tally.failed / tally.attempted, setups_s=setups,
        failures=tally.messages[:10], self_times=self_times)
    report = {"result": result, "env": record, "extras": extras}
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    return report


def describe(report):
    """Human-readable lines printed before the result line."""
    ex, res = report["extras"], report["result"]
    lines = ["# env %s" % json.dumps(report["env"], sort_keys=True)]
    lines.append("# set-up processes: %s s" % ", ".join("%.3f" % s for s in ex["setups_s"]))
    if ex["job_p90_s"] is None:
        lines.append("# job_p90_ref, job_p90_s: n/a, fewer than %d jobs (%d jobs)"
                     % (P90_MIN_JOBS, ex["jobs"]))
    else:
        lines.append("# job_p90_ref: %.6g ref, job_p90_s: %.6g s (%d jobs)"
                     % (ex["job_p90_ref"], ex["job_p90_s"], ex["jobs"]))
    lines.append("# wall time: jobs_per_s %.6g 1/s, job_p50_s %.6g s; reference kernel "
                 "reference_p50_s %.6g s" % (ex["jobs_per_s"], ex["job_p50_s"],
                                             ex["reference_p50_s"]))
    lines.append("# fail_ratio: %.6g ratio (%d of %d jobs failed)"
                 % (ex["fail_ratio"], res["failed"], res["attempted"]))
    for msg in ex["failures"]:
        lines.append("# FAILED %s" % msg)
    for name, (calls, total, own) in sorted(ex.get("self_times", {}).items()):
        lines.append("# span %-34s calls %6d  total %9.4f s  self %9.4f s"
                     % (name, calls, total, own))
    return lines


def run_all(args, src):
    """Each workload untraced, then traced; one table of every metric."""
    rows, correct = [], True
    for workload in WORKLOADS:
        reports = {}
        for trace in (0, 1):
            one = argparse.Namespace(**dict(vars(args), workload=workload, trace=trace))
            reports[trace] = run_workload(one, src)
            correct = correct and reports[trace]["result"]["correct"]
            for line in describe(reports[trace]):
                print(line)
        base, traced = reports[0], reports[1]
        for name, m in base["result"]["metrics"].items():
            rows.append((workload, name, "%.6g" % m["value"], m["unit"]))
        ex = base["extras"]
        for name, unit in (("job_p90_ref", "ref"), ("jobs_per_s", "1/s"),
                           ("job_p50_s", "s"), ("job_p90_s", "s"),
                           ("reference_p50_s", "s")):
            rows.append((workload, name, "%.6g" % ex[name] if ex[name] is not None
                         else "n/a (%d jobs)" % ex["jobs"], unit))
        rows.append((workload, "fail_ratio", "%.6g" % ex["fail_ratio"], "ratio"))
        for name, m in traced["result"]["metrics"].items():
            rows.append((workload, name, "%.6g" % m["value"], m["unit"]))
        # tracing overhead: the same run length and seed, traced minus untraced
        rows.append((workload, "tracing overhead (job_p50_s)",
                     "%+.6g" % (traced["extras"]["job_p50_s"] - ex["job_p50_s"]), "s"))
    print("%-16s %-34s %-22s %s" % ("workload", "metric", "value", "unit"))
    for row in rows:
        print("%-16s %-34s %-22s %s" % row)
    return 0 if correct else 1


def main(argv=None):
    # a terminated run still stops and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced, print a table")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small grids and degrees; for the smoke test only")
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("give --workload NAME or --all")
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    src = find_src()
    if src is None:
        print("perfbench: no widthbright package under %s; run from a checkout of "
              "the repository" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    if args.all:
        return run_all(args, src)
    report = run_workload(args, src)
    for line in describe(report):
        print(line)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
