import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icatop import bench
from icatop.errors import InfeasibleSubproblemError
from icatop.nonlinear import Strategy
from icatop.optimizer import (OptimizerConfig, optimize,
                              projected_gradient_norm, slp_subproblem)


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
                     "fallbacks", "residual_inf", "gp_norm", "penalty",
                     "volume", "max_normB", "times"):
            assert len(getattr(h, name)) == n

    def test_first_iteration_failure_aborts(self):
        # an iteration cap the cold start cannot meet: nothing to retry from
        prob = bench.build("cantilever", mesh=(12, 4))
        h = optimize(prob, OptimizerConfig(strategy=Strategy.N, budget=5,
                                           newton_cap=2))
        assert h.aborted
        assert h.iterations == 0
        assert h.rho_phys is not None       # partial state still reported

    @pytest.mark.parametrize("strategy", [Strategy.N, Strategy.UPK03K100G])
    def test_factorizations_booked_in_their_scope(self, factor_scopes,
                                                  strategy):
        # the adjoint's factorizations too, and no category inside another
        prob = bench.build("cantilever", mesh=(20, 5))
        h = optimize(prob, OptimizerConfig(strategy=strategy, budget=8))
        assert len(factor_scopes.at_factor) == h.total("factorizations")
        assert set(factor_scopes.at_factor) == {("Factorizations",)}
        assert not factor_scopes.nested

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
        assert first.total("fallbacks") > 0
        for name in ("newton_iters", "factorizations", "ica_iters",
                     "fallbacks", "objective", "residual_inf"):
            assert getattr(first, name) == getattr(second, name), name

    def test_newton_failure_halves_move_and_retries(self, monkeypatch):
        import icatop.optimizer as opt
        from icatop.errors import NewtonConvergenceError
        real = opt.newton_solve
        calls = {"n": 0, "failed": False}

        def flaky(model, rho, p, u0, strategy, ctx, outer_iter, **kw):
            calls["n"] += 1
            if outer_iter == 3 and not calls["failed"]:
                calls["failed"] = True
                raise NewtonConvergenceError("synthetic failure", None)
            return real(model, rho, p, u0, strategy, ctx, outer_iter, **kw)

        monkeypatch.setattr(opt, "newton_solve", flaky)
        prob = bench.build("cantilever", mesh=(12, 4))
        h = optimize(prob, OptimizerConfig(strategy=Strategy.N, budget=5))
        assert calls["failed"]
        assert not h.aborted
        assert h.iterations == 6            # full budget despite the retry

    def test_second_newton_failure_aborts(self, monkeypatch):
        import icatop.optimizer as opt
        from icatop.errors import NewtonConvergenceError
        real = opt.newton_solve

        def flaky(model, rho, p, u0, strategy, ctx, outer_iter, **kw):
            if outer_iter == 3:
                raise NewtonConvergenceError("synthetic failure", None)
            return real(model, rho, p, u0, strategy, ctx, outer_iter, **kw)

        monkeypatch.setattr(opt, "newton_solve", flaky)
        prob = bench.build("cantilever", mesh=(12, 4))
        h = optimize(prob, OptimizerConfig(strategy=Strategy.N, budget=5))
        assert h.aborted
        assert h.iterations == 2            # two evaluations succeeded
