import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icatop import bench
from icatop.errors import InfeasibleSubproblemError
from icatop.nonlinear import Strategy, predicted_factorizations
from icatop.optimizer import (ETA, ETA_GROW, OptimizerConfig, optimize,
                              projected_gradient_norm, slp_subproblem)
from icatop.sparse import BandPlan


def knapsack_oracle(grad, rho, move, bounds, v, Vstar):
    """Brute-force LP oracle: enumerate the candidate vertices of
    min grad^T x s.t. v^T x = Vstar on the box, where at most one variable
    is fractional."""
    lo = np.maximum(bounds[0], rho - move)
    hi = np.minimum(bounds[1], rho + move)
    n = len(grad)
    best = np.inf
    # candidate multipliers: the breakpoints (and one beyond each end)
    thetas = sorted(set((-grad / v).tolist()))
    thetas = [thetas[0] - 1.0] + thetas + [thetas[-1] + 1.0]
    for theta in thetas:
        c = grad + theta * v
        base = np.where(c > 0, lo, np.where(c < 0, hi, np.nan))
        frac = np.flatnonzero(np.isnan(base))
        fixed = np.nansum(v * np.where(np.isnan(base), 0.0, base))
        if frac.size == 0:
            if abs(fixed - Vstar) <= 1e-9 * max(1.0, abs(Vstar)):
                best = min(best, float(grad @ base))
            continue
        # distribute the remaining volume over the tie set feasibly
        need = Vstar - fixed
        lo_f, hi_f = lo[frac], hi[frac]
        if v[frac] @ lo_f - 1e-12 <= need <= v[frac] @ hi_f + 1e-12:
            x = base.copy()
            x[frac] = lo_f
            rem = need - v[frac] @ lo_f
            for j, e in enumerate(frac):
                step = min(max(rem, 0.0) / v[e], hi_f[j] - lo_f[j])
                x[e] += step
                rem -= v[e] * step
            if abs(rem) <= 1e-9 * max(1.0, abs(Vstar)):
                best = min(best, float(grad @ x))
    return best


def random_instance(rng, n=10):
    v = rng.uniform(0.5, 2.0, n)
    rho = rng.uniform(0.05, 0.95, n)
    grad = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
    move = rng.uniform(0.02, 0.3)
    lo = np.maximum(1e-3, rho - move)
    hi = np.minimum(1.0, rho + move)
    Vstar = rng.uniform(v @ lo, v @ hi)
    return grad, rho, move, v, Vstar


class TestSubproblem:
    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(0)
        bounds = (1e-3, 1.0)
        for _ in range(300):
            grad, rho, move, v, Vstar = random_instance(rng)
            sub = slp_subproblem(grad, rho, move, bounds, v, Vstar)
            achieved = float(grad @ sub.rho_new)
            expect = knapsack_oracle(grad, rho, move, bounds, v, Vstar)
            scale = max(1.0, abs(expect))
            assert achieved <= expect + 1e-10 * scale
            assert abs(v @ sub.rho_new - Vstar) <= 1e-10 * max(1.0, abs(Vstar))

    def test_feasible_box(self):
        rng = np.random.default_rng(1)
        bounds = (1e-3, 1.0)
        for _ in range(50):
            grad, rho, move, v, Vstar = random_instance(rng)
            sub = slp_subproblem(grad, rho, move, bounds, v, Vstar)
            assert (sub.rho_new >= np.maximum(1e-3, rho - move) - 1e-14).all()
            assert (sub.rho_new <= np.minimum(1.0, rho + move) + 1e-14).all()

    def test_degenerate_gradient_keeps_design(self):
        v = np.array([1.0, 2.0, 0.5, 1.5])
        rho = np.array([0.4, 0.6, 0.2, 0.8])
        grad = -3.0 * v                        # proportional: all ties
        Vstar = float(v @ rho)
        sub = slp_subproblem(grad, rho, 0.1, (1e-3, 1.0), v, Vstar)
        assert np.allclose(sub.rho_new, rho, atol=1e-14)

    def test_all_negative_gradient_fills_to_upper(self):
        v = np.ones(5)
        rho = np.full(5, 0.95)
        grad = -np.abs(np.random.default_rng(2).standard_normal(5)) - 0.1
        sub = slp_subproblem(grad, rho, 0.1, (1e-3, 1.0), v, 5.0)
        assert np.allclose(sub.rho_new, 1.0, atol=1e-14)
        assert (grad + sub.theta * v <= 1e-9).all()

    def test_multiplier_consistency(self):
        rng = np.random.default_rng(3)
        bounds = (1e-3, 1.0)
        for _ in range(50):
            grad, rho, move, v, Vstar = random_instance(rng)
            sub = slp_subproblem(grad, rho, move, bounds, v, Vstar)
            lo = np.maximum(bounds[0], rho - move)
            hi = np.minimum(bounds[1], rho + move)
            interior = (sub.rho_new > lo + 1e-9) & (sub.rho_new < hi - 1e-9)
            resid = np.abs(grad + sub.theta * v)[interior]
            if resid.size:
                assert resid.max() <= 1e-8 * (1.0 + abs(sub.theta) * v.max())
            assert sub.theta in (-grad / v).tolist()

    @pytest.mark.parametrize("grad, Vstar, expect", [
        # the two ties take up the leftover volume in index order
        ([-3.0, -1.0, -1.0, 2.0], 2.2, [0.75, 0.7, 0.5, 0.25]),
        ([-3.0, -1.0, -1.0, 2.0], 2.3, [0.75, 0.75, 0.55, 0.25]),
        # degenerate: the bang-bang design at theta = 1 meets Vstar
        ([-3.0, -1.0, 0.5, 2.0], 2.0, [0.75, 0.75, 0.25, 0.25]),
    ])
    def test_binary_instances(self, grad, Vstar, expect):
        v, rho = np.ones(4), np.full(4, 0.5)
        sub = slp_subproblem(np.array(grad), rho, 0.25, (1e-3, 1.0), v, Vstar)
        assert sub.theta == 1.0
        assert np.allclose(sub.rho_new, expect, rtol=0.0, atol=1e-15)

    def test_infeasible_raises(self):
        v = np.ones(3)
        rho = np.full(3, 0.5)
        with pytest.raises(InfeasibleSubproblemError):
            slp_subproblem(np.ones(3), rho, 0.05, (1e-3, 1.0), v, 3.0)


class TestProjectedGradient:
    def test_interior_stationary_point(self):
        v = np.array([1.0, 2.0, 3.0])
        theta = 1.7
        grad = -theta * v
        rho = np.array([0.5, 0.5, 0.5])
        assert projected_gradient_norm(rho, grad, theta, (1e-3, 1.0), v) == 0.0

    def test_active_upper_bound_clamps(self):
        v = np.ones(2)
        rho = np.array([1.0, 0.5])
        grad = np.array([-5.0, 0.2])           # wants to push rho_0 above 1
        theta = 0.0
        # the active-bound component contributes nothing; the interior one
        # moves by its Lagrangian gradient
        assert projected_gradient_norm(rho, grad, theta, (1e-3, 1.0), v) == \
            pytest.approx(0.2, rel=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_componentwise_median(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        rho = rng.uniform(1e-3, 1.0, n)
        grad = rng.standard_normal(n)
        v = rng.uniform(0.5, 2.0, n)
        theta = rng.standard_normal()
        gl = grad + theta * v
        comp = np.array([np.median([1e-3, r - g, 1.0]) for r, g in zip(rho, gl)])
        expect = np.abs(comp - rho).max()
        assert projected_gradient_norm(rho, grad, theta, (1e-3, 1.0), v) == \
            pytest.approx(expect, rel=1e-15)


def run_small(strategy):
    """Eight design updates on a 20x5 cantilever; "linear" is N in linear
    mode."""
    prob = bench.build("cantilever", mesh=(20, 5))
    if strategy == "linear":
        prob, strategy = bench.linear_mode(prob), Strategy.N
    return optimize(prob, OptimizerConfig(strategy=strategy, budget=8))


class TestOptimizeLoop:
    def test_budget_zero_single_evaluation(self):
        prob = bench.build("cantilever", mesh=(12, 4))
        cfg = OptimizerConfig(strategy=Strategy.N, budget=0)
        h = optimize(prob, cfg)
        assert h.iterations == 1
        assert h.newton_iters[0] > 0
        assert np.allclose(h.rho_design, 0.5)

    def test_volume_feasible_every_iterate(self):
        prob = bench.build("cantilever", mesh=(20, 5))
        cfg = OptimizerConfig(strategy=Strategy.UPK100G, budget=25)
        h = optimize(prob, cfg)
        Vstar = 0.5 * 20 * 5 * (6.0 * 6.0 * 1.0)
        vol = np.array(h.volume)
        assert np.abs(vol - Vstar).max() <= 1e-9 * Vstar
        assert h.rho_design.min() >= 1e-3 - 1e-15
        assert h.rho_design.max() <= 1.0 + 1e-15

    def test_penalty_schedule(self):
        cfg = OptimizerConfig()
        assert cfg.penalty_at(1) == 1.0
        assert cfg.penalty_at(10) == 1.0
        assert cfg.penalty_at(11) == pytest.approx(1.1)
        assert cfg.penalty_at(200) == pytest.approx(2.9)
        assert cfg.penalty_at(201) == 3.0
        assert cfg.penalty_at(5000) == 3.0

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            OptimizerConfig(budget=-1)
        with pytest.raises(ValueError, match="budget"):
            OptimizerConfig(budget=None)
        with pytest.raises(ValueError, match="budget"):
            OptimizerConfig(budget=None, converge_tol=1e-3)

    def test_boolean_budget_rejected(self):
        # bool is an int subclass; True is not a budget of 1
        for budget in (True, False):
            with pytest.raises(ValueError, match="budget"):
                OptimizerConfig(budget=budget)

    @pytest.mark.parametrize("name, value", [
        ("strategy", "upK1"), ("move_limit", True), ("converge_tol", True)])
    def test_mistyped_settings_rejected(self, name, value):
        # a strategy's name is not a Strategy, and True is not a number 1;
        # both are refused before a model is built
        with pytest.raises(ValueError, match=name):
            OptimizerConfig(**{name: value})

    def test_convergence_mode_keeps_the_default_budget(self):
        assert OptimizerConfig(converge_tol=1e-3).budget == 100

    @pytest.mark.parametrize("move", [0.0, -0.5, np.nan, np.inf])
    def test_invalid_move_limits_rejected(self, move):
        with pytest.raises(ValueError, match="move_limit"):
            OptimizerConfig(move_limit=move)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_convergence_tolerances_rejected(self, tol):
        with pytest.raises(ValueError, match="converge_tol"):
            OptimizerConfig(converge_tol=tol)

    def test_penalty_monotone_in_history(self):
        prob = bench.build("cantilever", mesh=(12, 4))
        h = optimize(prob, OptimizerConfig(strategy=Strategy.N, budget=15))
        ps = np.array(h.penalty)
        assert (np.diff(ps) >= 0.0).all()
        assert ps.max() <= 3.0
        assert ps[-1] == pytest.approx(1.1)

    def test_convergence_mode_stops_on_criterion(self):
        # mechanism gradients settle to the absolute stationarity tolerance
        prob = bench.build("inverter", mesh=(30, 15))
        cfg = OptimizerConfig(strategy=Strategy.N, budget=4000,
                              converge_tol=1e-3)
        h = optimize(prob, cfg)
        assert h.converged
        assert h.gp_norm[-1] < 1e-3

    def test_history_row_lengths_match(self):
        prob = bench.build("inverter", mesh=(12, 6))
        h = optimize(prob, OptimizerConfig(strategy=Strategy.UPK1G, budget=8))
        n = h.iterations
        for name in ("objective", "newton_iters", "factorizations", "ica_iters",
                     "fallbacks", "step_fallbacks",
                     "linesearch_fallbacks", "adjoint_fallbacks",
                     "guard_refreshes", "residual_inf", "objective_error",
                     "gp_norm", "accepted", "move_limit", "penalty", "volume",
                     "max_normB", "times"):
            assert len(getattr(h, name)) == n

    def test_first_iteration_failure_aborts(self, monkeypatch):
        # an iteration cap the cold start cannot meet: no accepted row yet
        import icatop.optimizer as opt
        monkeypatch.setattr(opt, "newton_solve",
                            functools.partial(opt.newton_solve, max_iter=2))
        prob = bench.build("cantilever", mesh=(12, 4))
        h = optimize(prob, OptimizerConfig(strategy=Strategy.N, budget=5))
        assert h.aborted
        assert h.iterations == 0
        assert h.rho_phys is not None       # partial state still reported

    @pytest.mark.parametrize("strategy", [*Strategy, "linear"])
    def test_factorizations_booked_in_their_scope(self, factor_scopes,
                                                  strategy):
        # the adjoint's factorizations too, and no category inside another
        h = run_small(strategy)
        assert len(factor_scopes.at_factor) == h.total("factorizations")
        assert set(factor_scopes.at_factor) == {("Factorizations",)}
        assert not factor_scopes.nested

    @pytest.mark.parametrize("strategy", [*Strategy, "linear"])
    def test_never_two_factorizations_alive(self, factor_scopes, strategy):
        # each factorization starts after the one before it was dropped
        h = run_small(strategy)
        assert h.total("factorizations") > 0
        assert factor_scopes.alive == [0] * h.total("factorizations")

    def test_upk1_refreshes_the_delta_every_iteration(self):
        prob = bench.desk("cantilever")
        every = optimize(prob, OptimizerConfig(strategy=Strategy.UPK1, budget=10))
        rare = optimize(prob, OptimizerConfig(strategy=Strategy.UPK100,
                                              budget=10))
        assert every.ica_iters != rare.ica_iters
        assert every.total("ica_iters") > 0 == rare.total("ica_iters")
        assert every.newton_iters != rare.newton_iters

    def test_repeated_runs_are_bitwise_identical(self):
        # the slow-progress guard fires dozens of times here; none of its
        # state may carry over from one run to the next
        prob = bench.desk("cantilever")
        cfg = OptimizerConfig(strategy=Strategy.UPK03K100G, budget=40)
        first, second = optimize(prob, cfg), optimize(prob, cfg)
        assert first.total("fallbacks") > 0 < first.total("guard_refreshes")
        for name in ("newton_iters", "factorizations", "ica_iters",
                     "fallbacks", "guard_refreshes", "objective",
                     "residual_inf"):
            assert getattr(first, name) == getattr(second, name), name

    def test_desk_run_builds_one_plan(self, monkeypatch):
        # every tangent and factorization of the run reads the one plan
        # the model built on its first assembly
        builds, real = [], BandPlan.build.__func__

        def build(cls, *args):
            builds.append(args)
            return real(cls, *args)

        monkeypatch.setattr(BandPlan, "build", classmethod(build))
        h = optimize(bench.desk("cantilever"),
                     OptimizerConfig(strategy=Strategy.UPK03K100G, budget=12))
        assert not h.aborted and h.total("factorizations") > 1
        assert len(builds) == 1

    @pytest.mark.parametrize("problem", ["cantilever", "inverter"])
    def test_factorizations_are_policy_plus_fallbacks(self, problem):
        # each fallback adds one factorization; a guard refresh adds none
        prob = bench.desk(problem)
        refreshes = 0
        for strategy in Strategy:
            h = optimize(prob, OptimizerConfig(strategy=strategy, budget=40))
            assert not h.aborted
            predicted = predicted_factorizations(strategy, h.newton_iters,
                                                 h.accepted)
            assert h.total("factorizations") \
                == predicted + h.total("fallbacks"), strategy.value
            # the three reasons add up to the fallbacks of every iteration
            assert [sum(reasons) for reasons in zip(
                h.step_fallbacks, h.linesearch_fallbacks,
                h.adjoint_fallbacks)] == h.fallbacks, strategy.value
            refreshes += h.total("guard_refreshes")
        assert refreshes > 0

    @pytest.mark.parametrize("problem", ["cantilever", "inverter"])
    @pytest.mark.parametrize("strategy", [Strategy.UPK1G,
                                          Strategy.UPK03K100G])
    def test_ica_iters_are_the_sweeps_performed(self, monkeypatch, sweeps,
                                                problem, strategy):
        # Newton and adjoint sweeps alike, converged or not, row by row:
        # each row ends with its LP solve, a rejected row (no adjoint) too
        import icatop.optimizer as opt
        marks, real = [], opt.slp_subproblem

        def subproblem(*args):
            marks.append(sweeps.count)
            return real(*args)

        monkeypatch.setattr(opt, "slp_subproblem", subproblem)
        h = optimize(bench.desk(problem),
                     OptimizerConfig(strategy=strategy, budget=20))
        assert not h.aborted and h.total("ica_iters") > 0
        assert len(marks) == h.iterations
        assert h.ica_iters == np.diff([0] + marks).tolist()
        if problem == "cantilever":
            assert not all(h.accepted)

    @pytest.mark.parametrize("problem", ["cantilever", "inverter"])
    @pytest.mark.parametrize("strategy", [Strategy.N, Strategy.MN,
                                          Strategy.UPK100G,
                                          Strategy.UPK03K100G])
    def test_no_kernel_runs_twice_at_one_displacement(self, kernel_calls,
                                                      problem, strategy):
        # the element state made at a displacement carries its forces and
        # tangents to the residual, the tangents, the adjoint, the gradient
        # and the next outer iteration
        h = optimize(bench.desk(problem),
                     OptimizerConfig(strategy=strategy, budget=12))
        assert not h.aborted
        for name, digests in kernel_calls.items():
            assert digests and len(set(digests)) == len(digests), name

    def test_newton_failure_is_a_rejected_row(self, monkeypatch,
                                              factor_scopes, sweeps):
        # the solve of outer iteration 3 fails, at once or after it has
        # factored: its row is rejected and books the failed attempt's
        # factorizations, time, Newton iterations and sweeps
        import icatop.optimizer as opt
        from icatop.errors import NewtonConvergenceError
        real = opt.newton_solve
        prob = bench.build("cantilever", mesh=(12, 4))
        for strategy, after_work in ((Strategy.N, False), (Strategy.N, True),
                                     (Strategy.UPK100, True)):
            calls = {"newton": 0}

            def solve(*args, **kw):
                u, stats = real(*args, **kw)
                calls["newton"] += stats.iterations
                return u, stats

            def flaky(model, rho, p, u0, strategy, ctx, outer_iter, **kw):
                if outer_iter == 3:
                    stats = solve(model, rho, p, u0, strategy, ctx,
                                  outer_iter, **kw)[1] if after_work else None
                    raise NewtonConvergenceError("synthetic failure", stats)
                return solve(model, rho, p, u0, strategy, ctx, outer_iter,
                             **kw)

            monkeypatch.setattr(opt, "newton_solve", flaky)
            factors, swept = len(factor_scopes.at_factor), sweeps.count
            h = optimize(prob, OptimizerConfig(strategy=strategy, budget=5))
            assert not h.aborted
            assert h.iterations == 6            # rejected rows count too
            assert not h.accepted[2] and all(h.accepted[:2])
            assert np.isnan(h.objective[2]) and np.isnan(h.residual_inf[2])
            assert h.gp_norm[2] is None
            assert h.move_limit[2:4] == [0.05, 0.025]
            assert h.total("factorizations") \
                == len(factor_scopes.at_factor) - factors
            assert sum(row["Factorizations"] for row in h.times) \
                == pytest.approx(h.timing_table["Factorizations"], rel=1e-9)
            assert h.total("newton_iters") == calls["newton"]
            assert h.total("ica_iters") == sweeps.count - swept
            if strategy is Strategy.N:
                assert h.total("factorizations") == predicted_factorizations(
                    strategy, h.newton_iters, h.accepted) \
                    + h.total("fallbacks")

    def test_repeated_newton_failures_are_rejected_rows(self, monkeypatch):
        # each failure halves the move limit; none aborts above MOVE_FLOOR
        import icatop.optimizer as opt
        from icatop.errors import NewtonConvergenceError
        real = opt.newton_solve

        def flaky(model, rho, p, u0, strategy, ctx, outer_iter, **kw):
            if outer_iter in (3, 4, 5):
                raise NewtonConvergenceError("synthetic failure", None)
            return real(model, rho, p, u0, strategy, ctx, outer_iter, **kw)

        monkeypatch.setattr(opt, "newton_solve", flaky)
        prob = bench.build("cantilever", mesh=(12, 4))
        h = optimize(prob, OptimizerConfig(strategy=Strategy.N, budget=5))
        assert not h.aborted
        assert h.iterations == 6
        assert h.accepted[:5] == [True, True, False, False, False]
        assert h.move_limit == [0.05, 0.05, 0.05, 0.025, 0.0125, 0.00625]
        last = max(i for i, ok in enumerate(h.accepted) if ok)
        assert h.final_objective == h.objective[last]

    def test_newton_failure_at_move_floor_aborts(self, monkeypatch):
        # the move limit halves from 8e-4 to MOVE_FLOOR; the failure there
        # ends the run with the last accepted design
        import icatop.optimizer as opt
        from icatop.errors import NewtonConvergenceError
        real = opt.newton_solve

        def flaky(model, rho, p, u0, strategy, ctx, outer_iter, **kw):
            if outer_iter >= 3:
                raise NewtonConvergenceError("synthetic failure", None)
            return real(model, rho, p, u0, strategy, ctx, outer_iter, **kw)

        monkeypatch.setattr(opt, "newton_solve", flaky)
        prob = bench.build("cantilever", mesh=(12, 4))
        h = optimize(prob, OptimizerConfig(strategy=Strategy.N, budget=10,
                                           move_limit=8e-4))
        assert h.aborted
        assert h.move_limit == [8e-4] * 3 + [4e-4, 2e-4]
        assert h.accepted == [True, True, False, False, False]
        assert h.move_limit[-1] / 2 <= opt.MOVE_FLOOR
        assert h.final_objective == h.objective[1]

    def test_rejected_step_resolves_the_lp_at_half_the_move(self,
                                                            monkeypatch):
        # the objectives of rows 4 and 5 rise: each is rejected, and the
        # LP is solved again from row 3's design and gradient at half the
        # move; accepted rows double the move up to move_limit on a good
        # fall and keep it otherwise
        import icatop.optimizer as opt
        from icatop.filtering import build_filter
        real_solve, real_lp = opt.newton_solve, opt.slp_subproblem
        designs, lps = {}, []

        def rising(model, rho, p, u0, strategy, ctx, outer_iter, **kw):
            designs[outer_iter] = rho
            new, stats = real_solve(model, rho, p, u0, strategy, ctx,
                                    outer_iter, **kw)
            if outer_iter in (4, 5):    # compliance rises with |u|
                new = model.state(1.01 * u0.u)
            return new, stats

        def lp(grad, rho, move, *args):
            sub = real_lp(grad, rho, move, *args)
            lps.append((grad, rho, move, args, sub.rho_new))
            return sub

        monkeypatch.setattr(opt, "newton_solve", rising)
        monkeypatch.setattr(opt, "slp_subproblem", lp)
        prob = bench.build("cantilever", mesh=(12, 4))
        h = optimize(prob, OptimizerConfig(strategy=Strategy.N, budget=9))
        assert h.accepted[:5] == [True, True, True, False, False]
        assert h.objective[3] > h.objective[2] < h.objective[4]
        assert h.gp_norm[3] is None is h.gp_norm[4]
        # rows 4 and 5 solve row 3's LP again, at 1/2 and 1/4 of its move
        grad3, rho3, move3, args, _ = lps[2]
        filt = build_filter(prob.mesh, prob.filter_radius_elements, "cone")
        assert np.array_equal(filt.apply(rho3), designs[3])
        for row in (3, 4):
            grad, rho, move, _, _ = lps[row]
            assert grad is grad3 and rho is rho3
            assert move == move3 / 2 ** (row - 2)
        half = real_lp(grad3, rho3, move3 / 2, *args).rho_new
        assert np.array_equal(filt.apply(half), designs[5])
        # the move recurrence, row by row (one penalty throughout)
        F_acc = pred = None
        for i in range(h.iterations - 1):
            m = h.move_limit[i]
            if h.accepted[i]:
                grow = F_acc is None \
                    or F_acc - h.objective[i] >= ETA_GROW * pred
                expected = min(0.05, 2.0 * m) if grow else m
                grad, rho, _, _, rho_new = lps[i]
                F_acc, pred = h.objective[i], -float(grad @ (rho_new - rho))
            else:
                expected = 0.5 * m
            assert h.move_limit[i + 1] == expected
        assert h.move_limit[3:6] == [0.05, 0.025, 0.0125]

    def test_accepted_row_grows_the_move_only_on_a_good_fall(self,
                                                            monkeypatch):
        # row 4 rises and is rejected, which halves the move; rows 5 to 7
        # fall by a set share of the reduction the last accepted row's LP
        # step predicted: below ETA_GROW the move is kept, at or above it
        # the move doubles, up to move_limit
        import icatop.optimizer as opt
        real_solve, real_lp = opt.newton_solve, opt.slp_subproblem
        prob = bench.build("cantilever", mesh=(12, 4))
        l_free = prob.mesh.gather(prob.output_selector())
        small, good = 0.5 * (ETA + ETA_GROW), 0.5 * (ETA_GROW + 1.0)
        share = {5: small, 6: good, 7: good}
        last_accepted = {5: 3, 6: 5, 7: 6}
        F, preds = {}, []

        def solve(model, rho, p, u0, strategy, ctx, outer_iter, **kw):
            new, stats = real_solve(model, rho, p, u0, strategy, ctx,
                                    outer_iter, **kw)
            if outer_iter == 4:         # compliance rises with |u|
                new = model.state(1.01 * u0.u)
            elif outer_iter in share:
                prev = last_accepted[outer_iter]
                target = F[prev] - share[outer_iter] * preds[prev - 1]
                new = model.state(target / float(l_free @ new.u) * new.u)
            F[outer_iter] = float(l_free @ new.u)
            return new, stats

        def lp(grad, rho, move, *args):
            sub = real_lp(grad, rho, move, *args)
            preds.append(-float(grad @ (sub.rho_new - rho)))
            return sub

        monkeypatch.setattr(opt, "newton_solve", solve)
        monkeypatch.setattr(opt, "slp_subproblem", lp)
        h = optimize(prob, OptimizerConfig(strategy=Strategy.N, budget=7))
        assert h.accepted == [True, True, True, False, True, True, True, True]
        assert (h.objective[2] - h.objective[4]) / preds[2] \
            == pytest.approx(small)
        assert (h.objective[4] - h.objective[5]) / preds[4] \
            == pytest.approx(good)
        # rows 5 to 8 step at the moves rows 4 to 7 left behind
        assert h.move_limit[3:] == [0.05, 0.025, 0.025, 0.05, 0.05]


class TestObjectiveError:
    """lam^T r: to first order the exact objective minus the row's F."""

    REUSE = (Strategy.MN, Strategy.UPK1G, Strategy.UPK100G,
             Strategy.UPK03K100G)

    def test_corrected_objectives_agree_with_exact_newton(self):
        # the strategies' raw objectives differ by their residuals' share;
        # the corrected ones F + lam^T r agree far tighter
        prob = bench.desk("cantilever")
        runs = {s: optimize(prob, OptimizerConfig(strategy=s, budget=20))
                for s in (Strategy.N, *self.REUSE)}
        exact = runs[Strategy.N]
        worst_raw = 0.0
        for strategy in self.REUSE:
            h = runs[strategy]
            assert h.accepted == exact.accepted, strategy.value
            for i in np.flatnonzero(h.accepted):
                F, F_exact = h.objective[i], exact.objective[i]
                corrected = F + h.objective_error[i]
                corrected_exact = F_exact + exact.objective_error[i]
                assert abs(corrected - corrected_exact) \
                    <= 1e-10 * abs(corrected_exact), (strategy.value, i)
                worst_raw = max(worst_raw, abs(F - F_exact) / abs(F_exact))
        assert worst_raw > 1e-8

    def test_none_exactly_on_rejected_rows(self):
        h = optimize(bench.desk("gripper"),
                     OptimizerConfig(strategy=Strategy.UPK03K100G, budget=20))
        assert not h.aborted and not all(h.accepted)
        assert [e is None for e in h.objective_error] \
            == [not ok for ok in h.accepted]

    def test_none_on_a_failed_solve(self, monkeypatch):
        import icatop.optimizer as opt
        from icatop.errors import NewtonConvergenceError
        real = opt.newton_solve

        def flaky(model, rho, p, u0, strategy, ctx, outer_iter, **kw):
            if outer_iter == 3:
                raise NewtonConvergenceError("synthetic failure", None)
            return real(model, rho, p, u0, strategy, ctx, outer_iter, **kw)

        monkeypatch.setattr(opt, "newton_solve", flaky)
        h = optimize(bench.build("cantilever", mesh=(12, 4)),
                     OptimizerConfig(strategy=Strategy.N, budget=4))
        assert h.accepted == [True, True, False, True, True]
        assert [e is None for e in h.objective_error] \
            == [False, False, True, False, False]

    @pytest.mark.parametrize("problem", ["cantilever", "inverter"])
    @pytest.mark.parametrize("strategy", [Strategy.N, Strategy.UPK03K100G])
    def test_linear_mode_is_exact_to_roundoff(self, problem, strategy):
        # one exact solve per row leaves only the roundoff residual
        h = optimize(bench.linear_mode(bench.desk(problem)),
                     OptimizerConfig(strategy=strategy, budget=10))
        assert all(h.accepted)
        for F, error in zip(h.objective, h.objective_error):
            assert abs(error) <= 1e-9 * abs(F)
        assert h.max_rel_objective_error <= 1e-9
