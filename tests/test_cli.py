import json

import numpy as np
import pytest

from icatop import optimizer, reanalysis, sensitivity
from icatop.cli import main, read_config_file
from icatop.errors import SingularMatrixError
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


def test_monitor_normb_artifact(tmp_path):
    code, out = run_cli(tmp_path, "--problem", "cantilever", "--mesh", "12x4",
                        "--strategy", "upK100g", "--budget", "8",
                        "--monitor-normB")
    assert code == 0
    lines = (out / "normB.csv").read_text().splitlines()
    assert lines[0] == "iteration,max_normB"
    assert len(lines) == 1 + 9


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
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# desk run\n"
        "problem = cantilever\n"
        "mesh = 12x4\n"
        "strategy = upK1\n"
        "budget = 3\n"
        "move-limit = 0.1\n")
    parsed = read_config_file(cfg)
    assert parsed == {"problem": "cantilever", "mesh": "12x4",
                      "strategy": "upK1", "budget": "3", "move_limit": "0.1"}
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--budget", "2",
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["budget"] == 2            # flag wins over the file
    assert report["move_limit"] == 0.1
    assert report["strategy"] == "upK1"


def test_invalid_config_exits_nonzero(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem cantilever\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2


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


@pytest.mark.parametrize("site", [reanalysis, sensitivity],
                         ids=["newton", "adjoint"])
def test_singular_factorization_aborts_with_artifacts(tmp_path, monkeypatch,
                                                      site):
    real_newton, real_factor = optimizer.newton_solve, site.ldlt_factor
    outer = {}

    def newton(model, rho, p, u0, strategy, ctx, outer_iter, **kw):
        outer["t"] = outer_iter
        return real_newton(model, rho, p, u0, strategy, ctx, outer_iter, **kw)

    def factor(K):
        if outer["t"] == 3:
            raise SingularMatrixError("injected zero pivot")
        return real_factor(K)

    monkeypatch.setattr(optimizer, "newton_solve", newton)
    monkeypatch.setattr(site, "ldlt_factor", factor)
    code, out = run_cli(tmp_path, "--problem", "cantilever", "--mesh", "12x4",
                        "--strategy", "N", "--budget", "5")
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert report["aborted"] is True
    assert report["outer_iterations"] == 2
    assert len((out / "history.csv").read_text().splitlines()) == 1 + 2
    assert (out / "density.pgm").exists()


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

    def test_factorization_reduction_visible(self, tmp_path):
        # a sparse-factorization strategy must report fewer factorizations
        paths = []
        for strat in ("MN", "upK03K100g"):
            out = tmp_path / strat
            main(["run", "--out", str(out), "--problem", "cantilever",
                  "--mesh", "20x5", "--strategy", strat, "--budget", "20"])
            paths.append(json.loads((out / "report.json").read_text()))
        assert paths[1]["factorizations"] < paths[0]["factorizations"]
