"""Batch experiment runner.

``icatop run`` executes one optimization, of --budget outer iterations
after the first (default 100) or fewer once --converge stops it, and
writes report.json, history.csv and density.pgm into the output
directory; --monitor-normB fills history.csv's max_normB column.  An
argument ``@FILE`` reads flags from FILE, one or more per line in shell
syntax, with blank lines and ``#`` comments; of two settings of the same
flag the later wins, so ``icatop run @run.args --budget 2`` overrides the
file's budget.
``icatop compare`` tabulates several reports of the same problem side by
side with percentage deltas against the first.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import shlex
import sys
from pathlib import Path

import numpy as np

from . import bench
from .filtering import KERNELS
from .nonlinear import Strategy
from .optimizer import RHO_MIN, OptimizerConfig, RunHistory, optimize
from .reanalysis import REASONS
from .timing import CATEGORIES

# the RunHistory columns of history.csv, in order, after ``iteration``;
# the header writes gp_norm as gp_norm_inf, and the timings follow
HISTORY_COLUMNS = (
    "accepted", "move_limit", "objective", "objective_error", "residual_inf",
    "newton_iters", "factorizations", "ica_iters", "fallbacks", *REASONS,
    "gp_norm", "penalty", "volume", "max_normB")


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _is_number_or_null(value) -> bool:
    return value is None or _is_number(value)


# what ``compare`` reads of every report, each key required: key ->
# (check, what it expects, label of its row above the timings or None);
# an aborted run writes a null final objective
REPORT_KEYS = {
    "problem": (lambda v: isinstance(v, str), "a string", None),
    "mesh": (lambda v: isinstance(v, list) and len(v) == 2
             and all(type(n) is int for n in v), "two integers", None),
    "strategy": (lambda v: isinstance(v, str), "a string", None),
    "final_objective": (_is_number_or_null, "a number or null", "Final F"),
    "outer_iterations": (_is_number, "a number", "Outer iterations"),
    "newton_iterations": (_is_number, "a number", "Newton iterations"),
    "factorizations": (_is_number, "a number", "Factorizations"),
    "fallbacks": (_is_number, "a number", "Fallbacks"),
    "timings": (lambda v: isinstance(v, dict)
                and all(_is_number(t) for t in v.values()),
                "an object of numbers", None),
    "guard_refreshes": (_is_number_or_null, "a number or null",
                        "Guard refreshes"),
    "linear": (lambda v: isinstance(v, bool), "true or false", None),
    "rejected_steps": (_is_number, "a number", "Rejected steps"),
    "max_rel_objective_error": (_is_number_or_null, "a number or null",
                                "Max rel objective error"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="icatop",
                                     description=__doc__.splitlines()[0],
                                     fromfile_prefix_chars="@")
    parser.convert_arg_line_to_args = functools.partial(shlex.split,
                                                        comments=True)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one optimization")
    run.add_argument("--problem", required=True, choices=list(bench.BUILDERS))
    run.add_argument("--mesh", help="WxH element counts, e.g. 60x15")
    run.add_argument("--strategy", choices=[m.value for m in Strategy])
    run.add_argument("--budget", type=int)
    run.add_argument("--converge", type=float, help="stop early, within the "
                     "budget, on the projected-gradient criterion")
    run.add_argument("--move-limit", type=float)
    run.add_argument("--filter-kernel", choices=KERNELS)
    run.add_argument("--filter-radius", type=float,
                     help="radius in element lengths (default per problem)")
    run.add_argument("--monitor-normB", action="store_true")
    run.add_argument("--linear", action="store_true")
    run.add_argument("--out", type=Path, default=Path("."))

    comp = sub.add_parser("compare", help="tabulate several run reports")
    comp.add_argument("reports", nargs="+", type=Path)
    return parser


def _parse_mesh(text):
    try:
        nx, ny = text.lower().split("x")
        return int(nx), int(ny)
    except ValueError as exc:
        raise ValueError(f"mesh must look like 60x15, got {text!r}") from exc


def run_command(args) -> int:
    opts = {key: value for key, value in vars(args).items()
            if value is not None}
    try:
        mesh = _parse_mesh(opts["mesh"]) if "mesh" in opts \
            else bench.DESK_MESH[opts["problem"]]
        problem = bench.build(opts["problem"], mesh=mesh,
                              filter_radius=opts.get("filter_radius"))
        if opts["linear"]:
            problem = bench.linear_mode(problem)
        config = OptimizerConfig(
            strategy=Strategy.from_name(opts.get("strategy", "N")),
            converge_tol=opts.get("converge"),
            monitor_normB=opts["monitor_normB"],
            **{key: opts[key] for key in ("budget", "move_limit",
                                          "filter_kernel") if key in opts},
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    history = optimize(problem, config)

    write_report(out / "report.json", problem, config, history)
    write_history_csv(out / "history.csv", history)
    write_density_pgm(out / "density.pgm", history.rho_phys,
                      problem.mesh.nx, problem.mesh.ny, RHO_MIN)

    if history.aborted:
        print("solver aborted; partial artifacts written", file=sys.stderr)
        return 1
    print(f"{problem.name} {config.strategy.value}: "
          f"F = {history.final_objective:.6g} "
          f"after {history.iterations} outer iterations")
    return 0


def write_report(path: Path, problem, config: OptimizerConfig,
                 history: RunHistory) -> None:
    def final(name):    # an aborted run may have no row
        return history.final(name) if history.objective else None

    report = {
        "problem": problem.name,
        "mesh": [problem.mesh.nx, problem.mesh.ny],
        "strategy": config.strategy.value,
        "linear": problem.linear,
        "mode": "converge" if config.converge_tol is not None else "budget",
        "budget": config.budget,
        "converge_tol": config.converge_tol,
        "move_limit": config.move_limit,
        "filter_kernel": config.filter_kernel,
        "filter_radius_elements": problem.filter_radius_elements,
        "final_objective": final("objective"),
        "max_rel_objective_error": history.max_rel_objective_error,
        "outer_iterations": history.iterations,
        "rejected_steps": history.accepted.count(False),
        "newton_iterations": history.total("newton_iters"),
        "factorizations": history.total("factorizations"),
        "ica_iterations": history.total("ica_iters"),
        "fallbacks": history.total("fallbacks"),
        **{name: history.total(name) for name in REASONS},
        "final_gp_norm": final("gp_norm"),
        "final_volume": final("volume"),
        "final_penalty": final("penalty"),
        "converged": history.converged,
        "aborted": history.aborted,
        "timings": {name: history.timing_table.get(name, 0.0)
                    for name in CATEGORIES},
    }
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def write_history_csv(path: Path, history: RunHistory) -> None:
    header = ["iteration", *("gp_norm_inf" if name == "gp_norm" else name
                             for name in HISTORY_COLUMNS), *CATEGORIES]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(history.iterations):
            times = history.times[i]
            writer.writerow(
                [i + 1, *(_cell(getattr(history, name)[i])
                          for name in HISTORY_COLUMNS)]
                + [f"{times.get(name, 0.0):.6f}" for name in CATEGORIES])


def _cell(value) -> str:
    """A history cell: None is empty, a bool 0 or 1, an int its digits and
    any other number the repr of its float."""
    if value is None:
        return ""
    if isinstance(value, int):
        return str(int(value))
    return repr(float(value))


def write_density_pgm(path: Path, rho_phys, nx: int, ny: int,
                      rho_min: float) -> None:
    """Binary P5 image, solid material black, rows from the domain top."""
    rho = np.asarray(rho_phys, dtype=float).reshape(ny, nx)
    shade = np.rint(255.0 * (1.0 - (rho - rho_min) / (1.0 - rho_min)))
    pixels = np.clip(shade, 0, 255).astype(np.uint8)[::-1, :]
    with open(path, "wb") as fh:
        fh.write(f"P5\n{nx} {ny}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def compare_command(args) -> int:
    reports = []
    for path in args.reports:
        try:
            report = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        flaw = _report_flaw(report)
        if flaw:
            print(f"error: {path}: not a run report: {flaw}", file=sys.stderr)
            return 2
        reports.append(report)
    if len(reports) < 2:
        print("error: compare needs at least two reports", file=sys.stderr)
        return 2
    keys = {(r["problem"], tuple(r["mesh"]), r["linear"])
            for r in reports}
    if len(keys) != 1:
        print(f"error: reports mix problems/meshes/linear modes: "
              f"{sorted(keys)}", file=sys.stderr)
        return 2
    print(format_comparison(reports))
    return 0


def _report_flaw(report) -> str:
    """Why ``report`` cannot be compared, or "" when it can."""
    if not isinstance(report, dict):
        return f"expected a JSON object, got {type(report).__name__}"
    missing = [key for key in REPORT_KEYS if key not in report]
    if missing:
        return f"no {', '.join(missing)}"
    for key, (check, expected, _) in REPORT_KEYS.items():
        if not check(report[key]):
            return f"{key} must be {expected}, got {json.dumps(report[key])}"
    missing = [name for name in CATEGORIES if name not in report["timings"]]
    if missing:
        return f"timings has no {', '.join(missing)}"
    return ""


def format_comparison(reports) -> str:
    """Side-by-side counts and timings, with % deltas versus the first."""
    base = reports[0]
    names = [r["strategy"] for r in reports]
    width = max(22, *(len(n) + 10 for n in names))
    lines = []
    problem = f"{base['problem']} {base['mesh'][0]}x{base['mesh'][1]}"
    if base["linear"]:
        problem += " (linear)"
    lines.append(problem)
    lines.append("-" * (24 + width * len(reports)))
    header = f"{'':24}" + "".join(f"{n:>{width}}" for n in names)
    lines.append(header)

    def row(label, values, fmt="{:.6g}", base_value=None):
        cells = []
        for i, val in enumerate(values):
            text = fmt.format(val) if val is not None else "-"
            if i > 0 and base_value not in (None, 0) and val is not None:
                text += f" ({100.0 * (val - base_value) / base_value:+.1f}%)"
            cells.append(f"{text:>{width}}")
        return f"{label:24}" + "".join(cells)

    for key, (_, _, label) in REPORT_KEYS.items():
        if label is not None:
            lines.append(row(label, [r[key] for r in reports],
                             base_value=base[key]))
    lines.append("Wall time (s)")
    for name in CATEGORIES:
        values = [r["timings"][name] for r in reports]
        lines.append(row("  " + name, values, fmt="{:.3f}",
                         base_value=base["timings"][name]))
    return "\n".join(lines)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return run_command(args)
    return compare_command(args)


if __name__ == "__main__":
    sys.exit(main())
