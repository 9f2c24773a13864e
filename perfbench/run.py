"""icatop benchmark: time to a design under exact Newton and factorization reuse.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run from the root of a source tree; the package is imported from ./src.
Each run builds the workload's problem from the seed, times its set-up, then
calls ``optimize`` at the workload's fixed outer budget until ``--seconds``
have passed (at least twice).  With ``--trace 1`` the calls alternate between
untraced and traced, and the traced ones report per-layer metrics.  Every
call's output is checked; see README.md for the checks, workloads and
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# single-threaded BLAS: steadier timings on a shared machine, and no thread
# count above nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

RESIDUAL_TOL = 1e-5          # every accepted equilibrium, every strategy
VOLUME_RTOL = 1e-9
SETUP_REPEATS = 7            # and at least SETUP_SECONDS of them
SETUP_SECONDS = 1.0
MIN_ATTEMPTS = 2             # the determinism check needs a repeat
TAIL_BEYOND = 10             # samples above the reported tail percentile
SEED_SPREAD = 0.002          # relative load and volume-fraction perturbation


@dataclasses.dataclass(frozen=True)
class Workload:
    problem: str
    mesh: tuple
    strategy: str
    budget: int


# why each workload is here: README.md and BENCHMARK.json
WORKLOADS = {
    "cantilever200-N": Workload("cantilever", (200, 50), "N", 12),
    "cantilever200-upK03K100g": Workload("cantilever", (200, 50),
                                         "upK03K100g", 12),
    "inverter60-upK03K100g": Workload("inverter", (60, 30), "upK03K100g", 100),
}

END_TO_END = (("run_s", "s"), ("outer_iter_p50_s", "s"),
              ("outer_iter_tail_s", "s"), ("objective", "problem_units"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import icatop from this tree's src/, never from anywhere else."""
    if not (SRC / "icatop" / "__init__.py").is_file():
        sys.exit(f"error: no icatop sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import icatop
    if Path(icatop.__file__).resolve().parent != (SRC / "icatop").resolve():
        sys.exit(f"error: icatop imported from {icatop.__file__}, not {SRC}")
    return icatop


# -- inputs ----------------------------------------------------------------

def make_problem(icatop, workload: Workload, seed: int):
    """Seed 0 is the built-in problem; other seeds scale its load and volume
    fraction by factors drawn from [1 - SEED_SPREAD, 1 + SEED_SPREAD]."""
    problem = icatop.bench.build(workload.problem, mesh=workload.mesh)
    if seed == 0:
        return problem
    import numpy as np
    load_scale, vf_scale = 1.0 + np.random.default_rng(seed).uniform(
        -SEED_SPREAD, SEED_SPREAD, size=2)
    src = problem.loads
    loads = icatop.LoadCase(
        point_loads=[(node, axis, mag * load_scale)
                     for node, axis, mag in src.point_loads],
        springs=list(src.springs), output_dofs=list(src.output_dofs))
    return dataclasses.replace(
        problem, loads=loads,
        volume_fraction=problem.volume_fraction * vf_scale)


def time_setup(icatop, workload, seed, config):
    """Median seconds to build the problem, its FeModel and its filter."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = perf_counter()
        problem = make_problem(icatop, workload, seed)
        icatop.FeModel(problem.mesh, problem.loads, problem.material)
        icatop.build_filter(problem.mesh, problem.filter_radius_elements,
                            config.filter_kernel)
        times.append(perf_counter() - t0)
    return statistics.median(times), problem


# -- one optimize() call ---------------------------------------------------

@dataclasses.dataclass
class Attempt:
    traced: bool
    run_s: float
    failures: list
    history: object = None
    layers: dict = None


def signature(history):
    """Counts and objective that must repeat exactly for one code and seed."""
    return (tuple(history.newton_iters), tuple(history.factorizations),
            tuple(history.ica_iters), tuple(history.fallbacks),
            tuple(history.objective))


def check(history, problem, factor_calls):
    """Reasons the run's outputs are wrong; empty when they are right."""
    failures = []
    if history.aborted:
        failures.append("optimize aborted")
    worst = max(history.residual_inf, default=float("inf"))
    if not worst <= RESIDUAL_TOL:
        failures.append(f"equilibrium residual {worst:.3e} > {RESIDUAL_TOL}")
    mesh = problem.mesh
    target = problem.volume_fraction * mesh.n_el * mesh.elem_volume
    volume = history.volume[-1] if history.volume else float("nan")
    if not abs(volume - target) <= VOLUME_RTOL * target:
        failures.append(f"volume {volume!r} misses target {target!r}")
    value = objective_value(problem, history) if history.objective else 0.0
    if not (math.isfinite(value) and value > 0.0):
        failures.append("objective not finite, or mechanism output not "
                        "positive")
    if factor_calls is not None \
            and factor_calls != history.total("factorizations"):
        failures.append(f"traced factorizations {factor_calls} != "
                        f"RunHistory {history.total('factorizations')}")
    return failures


def objective_value(problem, history):
    """Final F, kept positive with lower still better: compliance as is,
    mechanism F = -u_out reported as 1/u_out = -1/F."""
    F = history.final_objective
    if problem.objective == "compliance":
        return F
    return -1.0 / F if F != 0.0 else float("inf")


def attempt(icatop, problem, config, traced):
    """One optimize() call, checked; traced calls also get layer metrics."""
    import tracer as tr
    gc.collect()
    tracer = tr.Tracer() if traced else None
    with tr.installed(tracer) if traced else contextlib.nullcontext():
        t0 = perf_counter()
        try:
            history = icatop.optimizer.optimize(problem, config)
        except Exception as exc:     # a raising call fails; the run goes on
            return Attempt(traced, perf_counter() - t0,
                           [f"raised {type(exc).__name__}: {exc}"])
        run_s = perf_counter() - t0
    layers = tr.layer_metrics(tracer) if traced else None
    factor_calls = layers["sparse.factor_calls"] if traced else None
    return Attempt(traced, run_s, check(history, problem, factor_calls),
                   history, layers)


# -- metrics -----------------------------------------------------------------

def tail_quantile(workload):
    """Highest quantile with TAIL_BEYOND samples above it in MIN_ATTEMPTS
    calls; fixed per workload so every run reports the same percentile."""
    return 1.0 - TAIL_BEYOND / (MIN_ATTEMPTS * (workload.budget + 1))


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a beta-weighted average of
    all order statistics.  Iteration times cluster (exact, refactoring and
    reuse iterations), and a single order statistic jumps between clusters
    from run to run; this estimate moves smoothly instead."""
    import numpy as np
    from scipy.special import betainc
    v = np.sort(values)
    n = v.size
    w = np.diff(betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n))
    return float(w @ v)


def end_to_end(workload, problem, untraced, setup_s):
    iters = [t["Total"] for a in untraced for t in a.history.times]
    return {
        "run_s": statistics.median(a.run_s for a in untraced),
        "outer_iter_p50_s": quantile(iters, 0.5),
        "outer_iter_tail_s": quantile(iters, tail_quantile(workload)),
        "objective": objective_value(problem, untraced[0].history),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(untraced, traced):
    rows = []
    for a in traced:
        row = dict(a.layers)
        row["timing.factor_gap_s"] = (row["sparse.factor_s"]
                                      - a.history.timing_table["Factorizations"])
        rows.append(row)
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    out["trace.overhead_s"] = (statistics.median(a.run_s for a in traced)
                               - statistics.median(a.run_s for a in untraced))
    return out


# -- provenance --------------------------------------------------------------

def git_revision():
    """HEAD of the tree's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args):
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "icatop").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_revision": git_revision(), "source_sha256": digest.hexdigest(),
    }


# -- entry points ------------------------------------------------------------

def run_workload(args):
    icatop = import_package()
    workload = WORKLOADS[args.workload]
    config = icatop.OptimizerConfig(
        strategy=icatop.Strategy.from_name(workload.strategy),
        budget=workload.budget)
    start = perf_counter()
    setup_s, problem = time_setup(icatop, workload, args.seed, config)

    attempts = []
    while True:
        traced = bool(args.trace) and len(attempts) % 2 == 1
        attempts.append(attempt(icatop, problem, config, traced))
        elapsed = perf_counter() - start
        if len(attempts) >= MIN_ATTEMPTS \
                and elapsed + attempts[-1].run_s > args.seconds:
            break

    done = [a for a in attempts if a.history is not None]
    if done:
        reference = signature(done[0].history)
        for a in done[1:]:
            if signature(a.history) != reference:
                a.failures.append("counts or objective differ from the "
                                  "first call of this seed")
    failed = sum(1 for a in attempts if a.failures)
    untraced = [a for a in done if not a.traced]
    traced = [a for a in done if a.traced]
    if not untraced or (args.trace and not traced):
        for a in attempts:
            print(f"attempt traced={a.traced}: {a.failures}", file=sys.stderr)
        sys.exit("error: no completed run to measure")

    if args.trace:
        metrics = per_layer(untraced, traced)
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = end_to_end(workload, problem, untraced, setup_s)
        units = dict(END_TO_END)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(attempts)} runs, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    print(f"  {'fail_rate':36s} {failed / len(attempts):14.6g} ratio")
    detail = {
        "stamp": stamp(args),
        "budget": workload.budget, "strategy": workload.strategy,
        "mesh": list(workload.mesh),
        "tail_percentile": round(100 * tail_quantile(workload), 2),
        "outer_iter_samples": sum(len(a.history.times) for a in untraced),
        "runs": [{"traced": a.traced, "run_s": a.run_s,
                  "failures": a.failures,
                  "counts": {name: a.history.total(name) for name in
                             ("newton_iters", "factorizations", "ica_iters",
                              "fallbacks")} if a.history else None,
                  "timing_table": a.history.timing_table
                  if a.history else None} for a in attempts],
    }
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(attempts), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def run_all(args):
    """Every workload in a fresh process of its own, then one table."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=ROOT, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    if not results:
        return status
    names = list(results)
    print(f"{'metric':36s} {'unit':14s} " + " ".join(f"{n:>26s}" for n in names))
    rows = {}
    for r in results.values():
        for metric, cell in r["metrics"].items():
            rows.setdefault(metric, cell["unit"])
    for metric, unit in rows.items():
        cells = " ".join(f"{results[n]['metrics'][metric]['value']:26.6g}"
                         for n in names)
        print(f"{metric:36s} {unit:14s} {cells}")
    cells = " ".join(f"{results[n]['failed'] / results[n]['attempted']:26.6g}"
                     for n in names)
    print(f"{'fail_rate':36s} {'ratio':14s} {cells}")
    print(json.dumps(results))
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
