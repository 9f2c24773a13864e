import csv
import json

import numpy as np
import pytest

from icatop import bench, cli, nonlinear, optimizer, reanalysis
from icatop.cli import build_parser, main, write_history_csv
from icatop.errors import NewtonConvergenceError, SingularMatrixError
from icatop.reanalysis import IcaReport
from icatop.timing import CATEGORIES


def run_cli(tmp_path, *args):
    out = tmp_path / "out"
    code = main(["run", "--out", str(out), *args])
    return code, out


def test_run_produces_artifacts(tmp_path):
    code, out = run_cli(tmp_path, "--problem", "cantilever", "--mesh", "12x4",
                        "--strategy", "upK100g", "--budget", "4")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["problem"] == "cantilever"
    assert report["strategy"] == "upK100g"
    assert report["mesh"] == [12, 4]
    assert report["outer_iterations"] == 5
    assert set(report["timings"]) == set(CATEGORIES)
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) == 1 + 5
    header = history[0].split(",")
    for name in ("iteration", "objective", "newton_iters", "factorizations"):
        assert name in header
    assert (out / "density.pgm").exists()
    assert not (out / "normB.csv").exists()


# the run artifacts' schema, as scripts that read them rely on it
REPORT_KEYS = [
    "aborted", "adjoint_fallbacks", "budget", "converge_tol", "converged",
    "factorizations", "fallbacks", "filter_kernel", "filter_radius_elements",
    "final_gp_norm", "final_objective", "final_penalty", "final_volume",
    "guard_refreshes", "ica_iterations", "linear",
    "linesearch_fallbacks", "max_rel_objective_error", "mesh", "mode",
    "move_limit", "newton_iterations",
    "outer_iterations", "problem", "rejected_steps", "step_fallbacks",
    "strategy", "timings"]
HISTORY_HEADER = (
    "iteration,accepted,move_limit,objective,objective_error,residual_inf,"
    "newton_iters,factorizations,ica_iters,fallbacks,step_fallbacks,"
    "linesearch_fallbacks,"
    "adjoint_fallbacks,guard_refreshes,gp_norm_inf,penalty,volume,max_normB,"
    "Total,F(rho),K_T,RHS,Factorizations,Linear systems,grad F(rho),"
    "Subproblem solving,Filtering,Other")


def test_output_schema_is_pinned(tmp_path):
    code, out = run_cli(tmp_path, "--problem", "inverter", "--mesh", "12x6",
                        "--strategy", "upK03K100g", "--budget", "2")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert sorted(report) == REPORT_KEYS
    assert (out / "history.csv").read_text().splitlines()[0] == HISTORY_HEADER


def test_budget_zero_report(tmp_path):
    code, out = run_cli(tmp_path, "--problem", "cantilever", "--mesh", "12x4",
                        "--strategy", "N", "--budget", "0")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["outer_iterations"] == 1
    assert report["final_objective"] is not None


def test_pgm_format(tmp_path):
    code, out = run_cli(tmp_path, "--problem", "cantilever", "--mesh", "12x4",
                        "--strategy", "N", "--budget", "2")
    data = (out / "density.pgm").read_bytes()
    header, rest = data.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"12 4"
    maxval, pixels = rest.split(b"\n", 1)
    assert maxval == b"255"
    assert len(pixels) == 12 * 4
    # solid material renders black, void white
    rho_min = 1e-3
    img = np.frombuffer(pixels, dtype=np.uint8)
    assert img.min() >= 0 and img.max() <= 255


def test_monitor_normb_column(tmp_path):
    # the estimates of the reuse rows after the five exact-Newton rows
    code, out = run_cli(tmp_path, "--problem", "cantilever", "--mesh", "12x4",
                        "--strategy", "upK100g", "--budget", "8",
                        "--monitor-normB")
    assert code == 0
    rows = read_history(out)
    assert len(rows) == 9
    assert [row["max_normB"] for row in rows[:5]] == [""] * 5
    assert all(float(row["max_normB"]) >= 0.0 for row in rows[5:])


def test_linear_flag(tmp_path):
    code, out = run_cli(tmp_path, "--problem", "cantilever", "--mesh", "12x4",
                        "--strategy", "N", "--budget", "2", "--linear")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["linear"] is True


def test_converge_mode(tmp_path):
    code, out = run_cli(tmp_path, "--problem", "inverter", "--mesh", "30x15",
                        "--strategy", "upK03K100g", "--converge", "1e-3")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "converge"
    assert report["converged"] is True
    assert report["final_gp_norm"] < 1e-3


def test_converge_mode_runs_within_the_default_budget(tmp_path):
    code, out = run_cli(tmp_path, "--problem", "inverter", "--mesh", "12x6",
                        "--converge", "1e-3")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["budget"] == 100
    assert report["converged"] is True
    assert report["outer_iterations"] <= 101


def test_history_has_residual_and_objective_error(tmp_path):
    # the objective error is empty on rejected rows, and bounded by the
    # max-norm residual's share on accepted ones
    code, out = run_cli(tmp_path, "--problem", "cantilever", "--mesh", "12x4",
                        "--strategy", "N", "--budget", "20")
    assert code == 0
    rows = read_history(out)
    assert any(row["accepted"] == "0" for row in rows)
    for row in rows:
        assert 0.0 <= float(row["residual_inf"]) <= 1e-5
        if row["accepted"] == "0":
            assert row["objective_error"] == ""
        else:
            assert abs(float(row["objective_error"])) \
                < 1e-5 * abs(float(row["objective"]))
    report = json.loads((out / "report.json").read_text())
    assert report["max_rel_objective_error"] == max(
        abs(float(row["objective_error"]) / float(row["objective"]))
        for row in rows if row["accepted"] == "1")


def test_determinism_modulo_timings(tmp_path):
    reports = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = main(["run", "--out", str(out), "--problem", "inverter",
                     "--mesh", "12x6", "--strategy", "upK1g", "--budget", "5"])
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        rep.pop("timings")
        reports.append(rep)
    assert reports[0] == reports[1]


def test_config_file_and_flag_override(tmp_path):
    # an @FILE holds flags, one or more per line; a later flag wins
    cfg = tmp_path / "run.args"
    cfg.write_text(
        "# desk run\n"
        "--problem cantilever --mesh 12x4\n"
        "\n"
        "--strategy=upK1   # a comment after the flags\n"
        "--budget 3\n"
        "--move-limit 0.1\n")
    reports = []
    for sub, args in (("file", [f"@{cfg}", "--budget", "2"]),
                      ("flags", ["--problem", "cantilever", "--mesh", "12x4",
                                 "--strategy", "upK1", "--budget", "2",
                                 "--move-limit", "0.1"])):
        out = tmp_path / sub
        assert main(["run", *args, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        report.pop("timings")
        reports.append(report)
    assert reports[0]["budget"] == 2        # flag wins over the file
    assert reports[0]["move_limit"] == 0.1
    assert reports[0]["strategy"] == "upK1"
    assert reports[0] == reports[1]


def test_invalid_config_exits_nonzero(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--problem" in capsys.readouterr().err
    bad = tmp_path / "bad.args"
    bad.write_text("problem = cantilever\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", f"@{bad}", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_config_booleans(tmp_path):
    cfg = tmp_path / "run.args"
    cfg.write_text("--problem cantilever\n--linear\n--monitor-normB\n")
    args = build_parser().parse_args(["run", f"@{cfg}"])
    assert args.linear is True and args.monitor_normB is True
    cfg.write_text("--problem cantilever\n")
    args = build_parser().parse_args(["run", f"@{cfg}"])
    assert args.linear is False and args.monitor_normB is False


@pytest.mark.parametrize("line, flag", [
    ("--budgt 2", "--budgt"),
    ("--filter-kernel box", "--filter-kernel"),
    ("--problem bridge", "--problem"),
    ("--strategy upK2", "--strategy"),
    ("--linear=maybe", "--linear"),
    ("--budget two", "--budget"),
], ids=["unknown_key", "kernel", "problem", "strategy", "boolean", "int"])
def test_config_rejects_bad_key_or_value(tmp_path, capsys, line, flag):
    # a bad entry stops the run before anything is written, as the same
    # flag typed on the command line does
    cfg = tmp_path / "run.args"
    cfg.write_text(f"--problem cantilever\n--mesh 12x4\n{line}\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", f"@{cfg}", "--out", str(out)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exits_before_writing(tmp_path, capsys):
    missing = tmp_path / "missing.args"
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, f"@{missing}")
    assert exc.value.code == 2
    assert str(missing) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, message", [
    (["--budget", "-1"], "budget must be >= 0"),
    (["--move-limit", "-0.5"], "move_limit must be finite and > 0"),
    (["--move-limit", "nan"], "move_limit must be finite and > 0"),
    (["--filter-radius", "-1"], "filter radius must be >= 0"),
    (["--filter-radius", "inf"], "filter radius must be >= 0 and finite, got inf"),
    (["--filter-radius", "nan"], "filter radius must be >= 0 and finite, got nan"),
    (["--converge", "-1"], "converge_tol must be finite and > 0"),
    (["--converge", "0"], "converge_tol must be finite and > 0"),
    (["--converge", "nan"], "converge_tol must be finite and > 0"),
    (["--mesh", "0x4"], "mesh 0x4 yields an empty mesh"),
    (["--problem", "slender", "--mesh", "1x1"],
     "mesh 1x1 leaves slender no free DOFs"),
], ids=["budget_negative", "move_limit_negative", "move_limit_nan",
        "filter_radius_negative", "filter_radius_inf", "filter_radius_nan",
        "converge_negative", "converge_zero", "converge_nan",
        "empty_mesh", "no_free_dofs"])
def test_out_of_range_number_exits_before_writing(tmp_path, capsys, args,
                                                  message):
    code, out = run_cli(tmp_path, "--problem", "cantilever", "--mesh", "12x4",
                        "--budget", "1", *args)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_solver_abort_keeps_partial_artifacts(tmp_path, monkeypatch):
    import icatop.cli as cli_mod
    from icatop.optimizer import RunHistory

    def fake_optimize(problem, config):
        h = RunHistory(problem.name, config.strategy.value,
                       (problem.mesh.nx, problem.mesh.ny))
        h.aborted = True
        h.rho_design = np.full(problem.mesh.n_el, 0.5)
        h.rho_phys = h.rho_design
        h.timing_table = {}
        return h

    monkeypatch.setattr(cli_mod, "optimize", fake_optimize)
    out = tmp_path / "out"
    code = main(["run", "--out", str(out), "--problem", "cantilever",
                 "--mesh", "12x4", "--strategy", "N", "--budget", "1"])
    assert code == 1
    assert (out / "report.json").exists()
    assert (out / "density.pgm").exists()
    assert json.loads((out / "report.json").read_text())["aborted"] is True


@pytest.mark.parametrize("in_adjoint", [False, True],
                         ids=["newton", "adjoint"])
def test_singular_factorization_aborts_with_artifacts(tmp_path, monkeypatch,
                                                      in_adjoint):
    # the first factorization of outer iteration 3 in the equilibrium
    # solve, or in the adjoint solve, hits a zero pivot
    real_newton, real_adjoint, real_factor = optimizer.newton_solve, \
        optimizer.solve_adjoint, reanalysis.ldlt_factor
    state = {"adjoint": False}

    def newton(model, rho, p, u0, strategy, ctx, outer_iter, **kw):
        state["t"] = outer_iter
        return real_newton(model, rho, p, u0, strategy, ctx, outer_iter, **kw)

    def adjoint(*args, **kw):
        state["adjoint"] = True
        try:
            return real_adjoint(*args, **kw)
        finally:
            state["adjoint"] = False

    def factor(K):
        if state["t"] == 3 and state["adjoint"] is in_adjoint:
            raise SingularMatrixError("injected zero pivot")
        return real_factor(K)

    monkeypatch.setattr(optimizer, "newton_solve", newton)
    monkeypatch.setattr(optimizer, "solve_adjoint", adjoint)
    monkeypatch.setattr(reanalysis, "ldlt_factor", factor)
    code, out = run_cli(tmp_path, "--problem", "cantilever", "--mesh", "12x4",
                        "--strategy", "N", "--budget", "5")
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert report["aborted"] is True
    assert report["outer_iterations"] == 2
    assert len((out / "history.csv").read_text().splitlines()) == 1 + 2
    assert (out / "density.pgm").exists()


@pytest.mark.parametrize("site", ["residual", "gradient"])
def test_non_finite_value_aborts_with_artifacts(tmp_path, monkeypatch, site):
    real_newton, real_gradient = optimizer.newton_solve, \
        optimizer.objective_gradient
    outer, failed = {}, []

    def newton(model, rho, p, u0, strategy, ctx, outer_iter, **kw):
        outer["t"] = outer_iter
        if site == "residual" and outer_iter >= 3:
            rho = rho.copy()
            rho[0] = np.nan
        before = ctx.counts["factorizations"]
        try:
            return real_newton(model, rho, p, u0, strategy, ctx, outer_iter,
                               **kw)
        except NewtonConvergenceError:
            failed.append(ctx.counts["factorizations"] - before)
            raise

    def gradient(*args):
        grad = real_gradient(*args)
        return grad * np.nan if site == "gradient" and outer["t"] == 3 \
            else grad

    monkeypatch.setattr(optimizer, "newton_solve", newton)
    monkeypatch.setattr(optimizer, "objective_gradient", gradient)
    code, out = run_cli(tmp_path, "--problem", "cantilever", "--mesh", "12x4",
                        "--strategy", "N", "--budget", "5",
                        "--move-limit", "2e-4")
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert report["aborted"] is True
    if site == "residual":
        # a poisoned residual fails at once, before any factorization:
        # row 3 is rejected, and row 4, stepped at MOVE_FLOOR, aborts
        assert report["outer_iterations"] == 3 and failed == [0, 0]
        assert report["rejected_steps"] == 1
    else:
        assert report["outer_iterations"] == 2 and not failed
    assert len((out / "history.csv").read_text().splitlines()) \
        == 1 + report["outer_iterations"]
    assert (out / "density.pgm").exists()


def read_history(out):
    lines = (out / "history.csv").read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def history_cell(value) -> str:
    """The written form of a history value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def test_history_cells_are_pinned(tmp_path):
    # a run with a rejected row and the drift monitor on: every non-timing
    # cell is its RunHistory value written by the one cell rule
    prob = bench.build("cantilever", mesh=(12, 4))
    h = optimizer.optimize(prob, optimizer.OptimizerConfig(
        strategy=nonlinear.Strategy.UPK100G, budget=20, monitor_normB=True))
    assert False in h.accepted
    assert any(value is not None for value in h.max_normB)
    write_history_csv(tmp_path / "history.csv", h)
    header, *rows = csv.reader(open(tmp_path / "history.csv"))
    assert header == HISTORY_HEADER.split(",") and len(rows) == h.iterations
    columns = header[:-len(CATEGORIES)]
    assert len(columns) == 18
    for i, row in enumerate(rows):
        for name, cell in zip(columns, row):
            attr = {"gp_norm_inf": "gp_norm"}.get(name, name)
            value = i + 1 if name == "iteration" else getattr(h, attr)[i]
            assert cell == history_cell(value), (i, name)
            if cell:
                float(cell)


def test_numpy_settings_write_plain_cells(tmp_path):
    # a move limit given as a numpy float is written as a plain number
    prob = bench.build("cantilever", mesh=(12, 4))
    h = optimizer.optimize(prob, optimizer.OptimizerConfig(
        move_limit=np.float64(0.05), budget=2))
    write_history_csv(tmp_path / "history.csv", h)
    rows = read_history(tmp_path)
    assert [row["move_limit"] for row in rows] == [
        repr(float(move)) for move in h.move_limit]
    assert rows[0]["move_limit"] == "0.05"


@pytest.mark.parametrize("strategy", ["N", "upK03K100g"])
def test_line_search_exhaustion(tmp_path, monkeypatch, strategy):
    # the first line search from a reused factorization after outer
    # iteration 5, or every line search of outer iteration 3 under N, fails
    real_newton, real_search = optimizer.newton_solve, \
        nonlinear.armijo_linesearch
    outer, failed = {}, []

    def newton(model, rho, p, u0, strategy, ctx, outer_iter, **kw):
        outer["t"] = outer_iter
        return real_newton(model, rho, p, u0, strategy, ctx, outer_iter, **kw)

    def search(merit_fn, merit0, slope, *args):
        exact = slope == -2.0 * merit0
        if (outer["t"] == 3 and strategy == "N") \
                or (outer["t"] > 5 and not exact and not failed):
            failed.append(outer["t"])
            return None, None, 20
        return real_search(merit_fn, merit0, slope, *args)

    monkeypatch.setattr(optimizer, "newton_solve", newton)
    monkeypatch.setattr(nonlinear, "armijo_linesearch", search)
    code, out = run_cli(tmp_path, "--problem", "cantilever", "--mesh", "12x4",
                        "--strategy", strategy, "--budget", "9")
    report = json.loads((out / "report.json").read_text())
    rows = read_history(out)
    assert (out / "density.pgm").exists()
    if strategy == "N":
        # the exact step has no rescue: the row is rejected, the run goes on
        assert code == 0 and report["aborted"] is False
        assert report["outer_iterations"] == 10 == len(rows)
        assert failed == [3]
        assert [row["accepted"] for row in rows[1:4]] == ["1", "0", "1"]
        assert rows[2]["objective"] == "nan" and rows[2]["gp_norm_inf"] == ""
    else:
        # the exact step rescues the stale one; the run goes on
        assert code == 0 and report["aborted"] is False
        assert len(failed) == 1
        assert report["linesearch_fallbacks"] == 1
        assert int(rows[failed[0] - 1]["linesearch_fallbacks"]) == 1
        assert sum(int(r["linesearch_fallbacks"]) for r in rows) == 1


@pytest.mark.parametrize("factor_fails", [False, True],
                         ids=["recovers", "factor_fails"])
def test_adjoint_fallback(tmp_path, monkeypatch, factor_fails):
    # the adjoint sweeps of outer iteration 3 do not converge, so the
    # context refactors; that factorization fails too, or not
    real_newton, real_sweep, real_factor = optimizer.newton_solve, \
        reanalysis.ica_solve, reanalysis.ldlt_factor
    outer, fell_back = {}, []

    def newton(model, rho, p, u0, strategy, ctx, outer_iter, **kw):
        outer["t"] = outer_iter
        return real_newton(model, rho, p, u0, strategy, ctx, outer_iter, **kw)

    def sweep(ctx, rhs, *args, **kw):
        s, rep = real_sweep(ctx, rhs, *args, **kw)
        if outer["t"] == 3:
            fell_back.append(outer["t"])
            return s, IcaReport(rep.iterations, 1.0, False)
        return s, rep

    def factor(K):
        if factor_fails and fell_back:
            raise SingularMatrixError("injected zero pivot")
        return real_factor(K)

    monkeypatch.setattr(optimizer, "newton_solve", newton)
    monkeypatch.setattr(reanalysis, "ica_solve", sweep)
    monkeypatch.setattr(reanalysis, "ldlt_factor", factor)
    code, out = run_cli(tmp_path, "--problem", "cantilever", "--mesh", "12x4",
                        "--strategy", "upK03K100g", "--budget", "5")
    report = json.loads((out / "report.json").read_text())
    rows = read_history(out)
    assert fell_back == [3]
    assert (out / "density.pgm").exists()
    if factor_fails:
        assert code == 1 and report["aborted"] is True
        assert report["outer_iterations"] == 2 == len(rows)
        assert report["adjoint_fallbacks"] == 0
    else:
        assert code == 0 and report["aborted"] is False
        assert report["adjoint_fallbacks"] == 1
        assert rows[2]["adjoint_fallbacks"] == rows[2]["fallbacks"] == "1"
        # exact Newton in the first outer iterations, plus the fallback
        assert int(rows[2]["factorizations"]) \
            == int(rows[2]["newton_iters"]) + 1


class TestCompare:
    def _make_reports(self, tmp_path):
        paths = []
        for strat in ("N", "upK1g"):
            out = tmp_path / strat
            main(["run", "--out", str(out), "--problem", "cantilever",
                  "--mesh", "12x4", "--strategy", strat, "--budget", "3"])
            paths.append(out / "report.json")
        return paths

    def test_table_lists_categories(self, tmp_path, capsys):
        paths = self._make_reports(tmp_path)
        assert main(["compare", *map(str, paths)]) == 0
        table = capsys.readouterr().out
        for name in CATEGORIES:
            assert name in table
        assert "N" in table and "upK1g" in table

    def test_identical_reports_zero_deltas(self, tmp_path, capsys):
        paths = self._make_reports(tmp_path)
        assert main(["compare", str(paths[0]), str(paths[0])]) == 0
        table = capsys.readouterr().out
        for line in table.splitlines():
            if "%" in line and "time" not in line.lower():
                assert "(+0.0%)" in line or "(-0.0%)" in line

    def test_mismatched_problems_rejected(self, tmp_path, capsys):
        paths = self._make_reports(tmp_path)
        other = tmp_path / "other"
        main(["run", "--out", str(other), "--problem", "slender",
              "--mesh", "24x3", "--strategy", "N", "--budget", "2"])
        assert main(["compare", str(paths[0]),
                     str(other / "report.json")]) == 2

    @pytest.mark.parametrize("content, flaw", [
        ("[1, 2]", "expected a JSON object, got list"),
        ('{"problem": "cantilever", "strategy": "N"}', "no mesh, "),
    ], ids=["list", "no_mesh"])
    def test_non_report_rejected(self, tmp_path, capsys, content, flaw):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        assert main(["compare", str(bad), str(bad)]) == 2
        assert f"error: {bad}: not a run report: {flaw}" \
            in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("report")
        main(["run", "--out", str(out), "--problem", "cantilever",
              "--mesh", "12x4", "--strategy", "N", "--budget", "1"])
        return out / "report.json"

    @pytest.mark.parametrize("key, value, flaw", [
        ("mesh", 5, "mesh must be two integers, got 5"),
        ("mesh", "6x3", 'mesh must be two integers, got "6x3"'),
        ("mesh", [[6], 3], "mesh must be two integers, got [[6], 3]"),
        ("timings", [1], "timings must be an object of numbers, got [1]"),
        ("final_objective", "x",
         'final_objective must be a number or null, got "x"'),
        ("strategy", 3, "strategy must be a string, got 3"),
        ("linear", "yes", 'linear must be true or false, got "yes"'),
        ("rejected_steps", None, "rejected_steps must be a number, got null"),
        ("max_rel_objective_error", "x",
         'max_rel_objective_error must be a number or null, got "x"'),
    ])
    def test_wrong_typed_report_rejected(self, report, tmp_path, capsys,
                                         key, value, flaw):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(report.read_text()),
                                   key: value}))
        assert main(["compare", str(report), str(bad)]) == 2
        assert f"error: {bad}: not a run report: {flaw}" \
            in capsys.readouterr().err

    def test_linear_and_nonlinear_reports_rejected(self, report, tmp_path,
                                                   capsys):
        # same problem, mesh and strategy, solved under the two models
        out = tmp_path / "linear"
        main(["run", "--out", str(out), "--problem", "cantilever",
              "--mesh", "12x4", "--strategy", "N", "--budget", "1",
              "--linear"])
        linear = out / "report.json"
        assert main(["compare", str(report), str(linear)]) == 2
        assert "error: reports mix" in capsys.readouterr().err
        assert main(["compare", str(linear), str(linear)]) == 0
        assert "cantilever 12x4 (linear)" in capsys.readouterr().out

    @pytest.mark.parametrize("key", list(cli.REPORT_KEYS))
    def test_report_without_a_key_rejected(self, report, tmp_path, capsys,
                                           key):
        # every key the table reads is required
        older = tmp_path / "older.json"
        older.write_text(json.dumps({
            k: value for k, value in json.loads(report.read_text()).items()
            if k != key}))
        assert main(["compare", str(report), str(older)]) == 2
        assert f"error: {older}: not a run report: no {key}" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("name", CATEGORIES)
    def test_report_without_a_timing_rejected(self, report, tmp_path, capsys,
                                              name):
        # every timing row of the table is required too
        data = json.loads(report.read_text())
        del data["timings"][name]
        older = tmp_path / "older.json"
        older.write_text(json.dumps(data))
        assert main(["compare", str(report), str(older)]) == 2
        assert f"error: {older}: not a run report: timings has no {name}" \
            in capsys.readouterr().err

    def test_aborted_report_compares(self, report, tmp_path, capsys):
        # an aborted run's report holds a null final objective
        aborted = tmp_path / "aborted.json"
        aborted.write_text(json.dumps({**json.loads(report.read_text()),
                                       "final_objective": None}))
        assert main(["compare", str(report), str(aborted)]) == 0
        assert "Final F" in capsys.readouterr().out

    def test_factorization_reduction_visible(self, tmp_path):
        # a sparse-factorization strategy must report fewer factorizations
        paths = []
        for strat in ("MN", "upK03K100g"):
            out = tmp_path / strat
            main(["run", "--out", str(out), "--problem", "cantilever",
                  "--mesh", "20x5", "--strategy", strat, "--budget", "20"])
            paths.append(json.loads((out / "report.json").read_text()))
        assert paths[1]["factorizations"] < paths[0]["factorizations"]
