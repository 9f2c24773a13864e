import numpy as np
import pytest

from conftest import (factored_context, linear_rest_state,
                      make_cantilever_model, rest_state)
from icatop import nonlinear
from icatop.errors import NewtonConvergenceError
from icatop.nonlinear import (STALE_CAP, Action, ReusePolicy, Strategy,
                              armijo_linesearch, newton_solve,
                              predicted_factorizations)
from icatop.reanalysis import FALLBACKS, REASONS, ReanalysisContext
from icatop.sparse import SparseSym

ALL = [Strategy.N, Strategy.MN, Strategy.UPK1, Strategy.UPK1G,
       Strategy.UPK100, Strategy.UPK100G, Strategy.UPK03K100G]


class TestStrategyFlags:
    def test_names_roundtrip(self):
        for s in ALL:
            assert Strategy.from_name(s.value) is s
        with pytest.raises(ValueError):
            Strategy.from_name("upK7")

    def test_flag_table_is_total(self):
        seen = set()
        for s in ALL:
            flags = (s.refactor_every_newton_iter, s.refactor_outer_period,
                     s.refresh_period, s.adjoint_uses_ica)
            assert flags not in seen
            seen.add(flags)
        assert len(seen) == 7

    def test_specific_flags(self):
        assert Strategy.N.refactor_every_newton_iter
        assert not Strategy.MN.refactor_every_newton_iter
        assert Strategy.MN.refresh_period is None
        assert Strategy.UPK1.refresh_period == 1
        assert Strategy.UPK100.refresh_period == 100
        assert Strategy.UPK03K100G.refactor_outer_period == 3
        for s in (Strategy.UPK1G, Strategy.UPK100G, Strategy.UPK03K100G):
            assert s.adjoint_uses_ica
        for s in (Strategy.N, Strategy.MN, Strategy.UPK1, Strategy.UPK100):
            assert not s.adjoint_uses_ica


def held_context(newton_iters: int) -> ReanalysisContext:
    ctx = factored_context(SparseSym.from_dense(np.eye(2)))
    ctx.counts["newton_iters"] = newton_iters
    return ctx


def decide(strategy, outer_iter, newton_iter_in_call, global_newton_counter):
    """The first (action, reason) of a fresh policy on a factored context."""
    return ReusePolicy(strategy, outer_iter).decide(
        newton_iter_in_call, held_context(global_newton_counter))


SCHEDULED_REFACTOR = (Action.REFACTOR, None)
FRESH = (Action.REFRESH, None)
HELD = (Action.HOLD, None)
GUARD_REFRESH = (Action.REFRESH, "guard_refreshes")


class TestDecideAction:
    def test_newton_always_refactors(self):
        for outer, it, counter in ((1, 0, 0), (50, 3, 911), (7, 9, 100)):
            assert decide(Strategy.N, outer, it, counter) == SCHEDULED_REFACTOR

    def test_first_iteration_policies(self):
        for s in (Strategy.MN, Strategy.UPK1, Strategy.UPK100):
            assert decide(s, 10, 0, 57) == SCHEDULED_REFACTOR

    def test_mn_holds_zero_delta(self):
        assert decide(Strategy.MN, 10, 3, 57) == HELD

    def test_upk1_refreshes_every_iteration(self):
        assert decide(Strategy.UPK1, 10, 4, 57) == FRESH

    def test_upk100_crossing_rule(self):
        assert decide(Strategy.UPK100, 10, 3, 200) == FRESH
        assert decide(Strategy.UPK100, 10, 3, 201) == HELD

    def test_upk03_outer_rule(self):
        assert decide(Strategy.UPK03K100G, 7, 0, 400) in (FRESH, HELD)
        assert decide(Strategy.UPK03K100G, 9, 0, 401) == SCHEDULED_REFACTOR
        assert decide(Strategy.UPK03K100G, 9, 1, 401) == HELD

    def test_first_five_outers_and_empty_context_refactor(self):
        for s in ALL:
            assert ReusePolicy(s, 5).decide(3, held_context(201)) \
                == SCHEDULED_REFACTOR
            assert ReusePolicy(s, 10).decide(3, ReanalysisContext()) \
                == SCHEDULED_REFACTOR


class TestSlowProgressGuard:
    def test_slow_progress_after_a_guard_refresh_refreshes_again(self):
        # the guard never refactors, however often it fires: a stale
        # factor is the step and line-search fallbacks' job
        policy, ctx = ReusePolicy(Strategy.UPK100, 10), held_context(201)
        policy.observe(True, 0.0)
        for it in (2, 4, 6):
            for _ in range(2):
                policy.observe(False, 0.9)
            assert policy.decide(it, ctx) == GUARD_REFRESH

    def test_stale_cap_refreshes_the_held_delta(self):
        policy, ctx = ReusePolicy(Strategy.UPK100, 10), held_context(201)
        policy.observe(True, 0.0)
        for it in range(1, STALE_CAP):
            assert policy.decide(it, ctx) == HELD
            policy.observe(False, 0.1)
        assert policy.decide(STALE_CAP, ctx) == GUARD_REFRESH

    def test_slow_progress_on_a_fresh_iteration_is_a_scheduled_refresh(self):
        for strategy, counter in ((Strategy.UPK1, 57), (Strategy.UPK100, 200)):
            policy, ctx = ReusePolicy(strategy, 10), held_context(counter)
            for _ in range(2):
                policy.observe(False, 0.9)
            assert policy.decide(2, ctx) == FRESH

    def test_modified_newton_is_not_guarded(self):
        policy, ctx = ReusePolicy(Strategy.MN, 10), held_context(200)
        for _ in range(2 * STALE_CAP):
            policy.observe(False, 0.99)
        assert policy.decide(3, ctx) == HELD


class TestArmijo:
    def test_quadratic_accepts_unit_step(self):
        # merit of an exact Newton step on a quadratic: phi(a) = (1-a)^2 phi0
        phi0 = 4.0

        def merit(alpha):
            return phi0 * (1.0 - alpha) ** 2, alpha

        alpha, payload, backtracks = armijo_linesearch(merit, phi0, -2 * phi0)
        assert alpha == 1.0 and backtracks == 0

    def test_rejects_inadmissible_until_feasible(self):
        def merit(alpha):
            if alpha > 0.3:
                return np.inf, None         # det(F) <= 0 territory
            return (1.0 - alpha) ** 2, alpha

        alpha, _, backtracks = armijo_linesearch(merit, 1.0, -2.0)
        assert alpha == 0.25 and backtracks == 2

    def test_exhaustion_returns_none(self):
        def merit(alpha):
            return 2.0, None                # never decreases

        alpha, payload, backtracks = armijo_linesearch(merit, 1.0, -1.0)
        assert alpha is None and backtracks == 20


class TestNewtonSolve:
    def test_nearly_linear_spring_system_one_iteration(self):
        # springs dominate: the residual is essentially linear in u
        model = make_cantilever_model(nx=2, ny=2, load=-1.0, spring=50.0)
        rho = np.full(model.mesh.n_el, 1e-3)
        for s in ALL:
            ctx = ReanalysisContext()
            u, st = newton_solve(model, rho, 3.0, rest_state(model),
                                 s, ctx, outer_iter=1)
            assert st.residual_inf <= 1e-5
            assert st.iterations == 1

    def test_moderate_load_converges_quickly(self):
        model = make_cantilever_model()
        rho = np.full(model.mesh.n_el, 0.5)
        ctx = ReanalysisContext()
        u, st = newton_solve(model, rho, 3.0, rest_state(model),
                             Strategy.N, ctx, outer_iter=1)
        assert st.residual_inf <= 1e-5

    def test_near_path_newton_within_four(self):
        # warm-started solves after a small density change mimic the
        # optimization path
        model = make_cantilever_model()
        rho = np.full(model.mesh.n_el, 0.5)
        ctx = ReanalysisContext()
        u, _ = newton_solve(model, rho, 3.0, rest_state(model),
                            Strategy.N, ctx, outer_iter=1)
        rng = np.random.default_rng(0)
        rho2 = np.clip(rho + rng.uniform(-0.01, 0.01, rho.size), 1e-3, 1.0)
        u2, st = newton_solve(model, rho2, 3.0, u, Strategy.N, ctx, outer_iter=2)
        assert st.residual_inf <= 1e-5 and st.iterations <= 4

    def test_strategies_agree_on_final_state(self):
        model = make_cantilever_model()
        rho = np.full(model.mesh.n_el, 0.5)
        states = {}
        for s in (Strategy.N, Strategy.UPK1):
            ctx = ReanalysisContext()
            u, st = newton_solve(model, rho, 3.0, rest_state(model),
                                 s, ctx, outer_iter=10)
            assert st.residual_inf <= 1e-5
            states[s] = u.u
        assert np.abs(states[Strategy.N] - states[Strategy.UPK1]).max() <= 1e-4

    def test_warm_start_returns_immediately(self):
        model = make_cantilever_model()
        rho = np.full(model.mesh.n_el, 0.5)
        ctx = ReanalysisContext()
        u, _ = newton_solve(model, rho, 3.0, rest_state(model),
                            Strategy.N, ctx, outer_iter=1)
        before = ctx.counts["factorizations"]
        u2, st = newton_solve(model, rho, 3.0, u, Strategy.N, ctx, outer_iter=2)
        assert st.iterations == 0
        assert ctx.counts["factorizations"] == before
        assert u2 is u

    def test_stale_context_falls_back_and_converges(self):
        # force a drastically wrong reference, then reuse its factor
        model = make_cantilever_model()
        mesh = model.mesh
        rho_a = np.full(mesh.n_el, 1e-3)
        rho_b = np.full(mesh.n_el, 1.0)
        ctx = factored_context(model.tangent(rho_a, 3.0, rest_state(model)))
        u, st = newton_solve(model, rho_b, 3.0, rest_state(model),
                             Strategy.UPK100G, ctx, outer_iter=50)
        assert st.residual_inf <= 1e-5
        assert st.fallbacks >= 1
        # every extra factorization is booked with its reason
        assert sum(ctx.counts[name] for name in FALLBACKS) == st.fallbacks

    def test_line_search_rescue_is_an_exact_step(self, monkeypatch):
        # the first line search along a reused direction fails; the exact
        # step that rescues it restarts the slow-progress guard's window
        model = make_cantilever_model()
        rho = np.full(model.mesh.n_el, 0.5)
        ctx = ReanalysisContext()
        u, _ = newton_solve(model, rho, 3.0, rest_state(model), Strategy.N,
                            ctx, outer_iter=1)
        rho2 = np.clip(rho + np.random.default_rng(1).uniform(
            -0.05, 0.05, rho.size), 1e-3, 1.0)
        real_search, real_decide, real_observe = \
            nonlinear.armijo_linesearch, ReusePolicy.decide, ReusePolicy.observe
        failed, decided, observed = [], [], []

        def search(merit_fn, merit0, slope, *args):
            # a reused direction: the iteration's action is not a refactor
            # (no step fallback happens, which the counts below confirm)
            if decided[-1] is not Action.REFACTOR and not failed:
                failed.append(slope)
                return None, None, 20
            return real_search(merit_fn, merit0, slope, *args)

        def decide(policy, it, ctx):
            action, reason = real_decide(policy, it, ctx)
            decided.append(action)
            return action, reason

        def observe(policy, exact, contraction):
            observed.append(exact)
            real_observe(policy, exact, contraction)

        monkeypatch.setattr(nonlinear, "armijo_linesearch", search)
        monkeypatch.setattr(ReusePolicy, "decide", decide)
        monkeypatch.setattr(ReusePolicy, "observe", observe)
        before = ctx.counts["factorizations"]
        _, st = newton_solve(model, rho2, 3.0, u, Strategy.UPK03K100G, ctx,
                             outer_iter=10)
        assert st.residual_inf <= 1e-5 and len(failed) == 1
        assert (st.fallbacks, ctx.counts["factorizations"] - before) == (1, 1)
        assert {name: ctx.counts[name] for name in REASONS
                if ctx.counts[name]} == {"linesearch_fallbacks": 1}
        assert observed[0] is True

    @pytest.mark.parametrize("strategy, held", [(Strategy.MN, True)])
    def test_factorization_held_only_for_reuse(self, strategy, held):
        # the last factorization stays held for the next solve to reuse
        model = make_cantilever_model()
        rho = np.full(model.mesh.n_el, 0.5)
        ctx = ReanalysisContext()
        _, st = newton_solve(model, rho, 3.0, rest_state(model),
                             strategy, ctx, outer_iter=1)
        assert st.residual_inf <= 1e-5
        assert ctx.counts["factorizations"] == st.iterations > 0
        assert ctx.initialized is held
        assert ctx.counts["newton_iters"] == st.iterations

    def test_non_finite_residual_raises_before_factoring(self):
        model = make_cantilever_model()
        rho = np.full(model.mesh.n_el, 0.5)
        rho[7] = np.nan
        ctx = ReanalysisContext()
        with pytest.raises(NewtonConvergenceError) as err:
            newton_solve(model, rho, 3.0, rest_state(model),
                         Strategy.N, ctx, outer_iter=1)
        stats = err.value.stats
        assert (ctx.counts["factorizations"],
                ctx.counts["newton_iters"]) == (0, 0)
        assert np.isnan(stats.residual_inf)

    def test_iteration_cap_raises_with_stats(self, monkeypatch):
        model = make_cantilever_model(load=-120.0)
        rho = np.full(model.mesh.n_el, 0.5)
        ctx = ReanalysisContext()
        monkeypatch.setattr(nonlinear, "MAX_NEWTON_ITERS", 3)
        with pytest.raises(NewtonConvergenceError) as err:
            newton_solve(model, rho, 3.0, rest_state(model),
                         Strategy.N, ctx, outer_iter=1)
        assert err.value.stats.iterations == 3

    def test_tolerance_and_cap_are_constants(self):
        # RESIDUAL_TOL and MAX_NEWTON_ITERS are no arguments: no caller can
        # loosen the accepted residual
        model = make_cantilever_model()
        rho = np.full(model.mesh.n_el, 0.5)
        for kwargs in ({"tol": 1e-3}, {"max_iter": 2}):
            with pytest.raises(TypeError):
                newton_solve(model, rho, 3.0, rest_state(model), Strategy.N,
                             ReanalysisContext(), 1, **kwargs)

    def test_cap_tests_the_last_step(self, monkeypatch):
        # a solve given exactly the iterations it needs converges: the
        # residual after the cap's last step is checked before raising
        model = make_cantilever_model(load=-120.0)
        rho = np.full(model.mesh.n_el, 0.5)
        u0 = rest_state(model)
        u, st = newton_solve(model, rho, 3.0, u0, Strategy.N,
                             ReanalysisContext(), outer_iter=1)
        assert st.residual_inf <= 1e-5 and st.iterations > 3
        monkeypatch.setattr(nonlinear, "MAX_NEWTON_ITERS", st.iterations)
        capped, st_capped = newton_solve(model, rho, 3.0, u0, Strategy.N,
                                         ReanalysisContext(), outer_iter=1)
        assert st_capped.residual_inf <= 1e-5
        assert st_capped.iterations == st.iterations
        assert np.array_equal(capped.u, u.u)
        monkeypatch.setattr(nonlinear, "MAX_NEWTON_ITERS", st.iterations - 1)
        with pytest.raises(NewtonConvergenceError) as err:
            newton_solve(model, rho, 3.0, u0, Strategy.N, ReanalysisContext(),
                         outer_iter=1)
        assert err.value.stats.iterations == st.iterations - 1

    def test_inexact_steps_reuse_the_sweep_product(self, monkeypatch):
        # a reuse solve forms Kcur products only inside the sweeps, which
        # judge each iterate by one; the Armijo slope reads the accepted
        # iterate's product off the report
        model = make_cantilever_model()
        rho = np.full(model.mesh.n_el, 0.5)
        ctx = ReanalysisContext()
        u, _ = newton_solve(model, rho, 3.0, rest_state(model), Strategy.N,
                            ctx, outer_iter=1)
        rho2 = np.clip(rho + np.random.default_rng(1).uniform(
            -0.05, 0.05, rho.size), 1e-3, 1.0)
        products, sweeping, reports = [], [], []
        real_matvec, real_sweep = SparseSym.matvec, nonlinear.ica_solve

        def matvec(self, v):
            products.append(bool(sweeping))
            return real_matvec(self, v)

        def sweep(ctx, rhs, *args, **kw):
            sweeping.append(True)
            try:
                s, rep = real_sweep(ctx, rhs, *args, **kw)
            finally:
                sweeping.pop()
            reports.append(rep)
            assert np.array_equal(rep.Ks, real_matvec(ctx.Kcur, s))
            return s, rep

        monkeypatch.setattr(SparseSym, "matvec", matvec)
        monkeypatch.setattr(nonlinear, "ica_solve", sweep)
        _, st = newton_solve(model, rho2, 3.0, u, Strategy.UPK03K100G, ctx,
                             outer_iter=10)
        assert st.residual_inf <= 1e-5
        assert sum(r.converged for r in reports) >= 2
        assert products and all(products)

    def test_first_five_outers_force_full_newton(self):
        model = make_cantilever_model()
        rho = np.full(model.mesh.n_el, 0.5)
        ctx = ReanalysisContext()
        u, st = newton_solve(model, rho, 3.0, rest_state(model),
                             Strategy.MN, ctx, outer_iter=3)
        # exact Newton profile
        assert ctx.counts["factorizations"] == st.iterations


class TestFactorizationPrediction:
    def test_newton(self):
        iters = [5, 3, 2, 2, 2, 2, 1]
        assert predicted_factorizations(Strategy.N, iters, [True] * 7) \
            == sum(iters) + len(iters)

    def test_modified_newton(self):
        iters = [5, 3, 2, 2, 2, 4, 0, 1]
        expect = (5 + 3 + 2 + 2 + 2) + 2 + 8       # full-Newton window, solves, adjoints
        assert predicted_factorizations(Strategy.MN, iters, [True] * 8) \
            == expect

    def test_sparse_policy(self):
        iters = [4, 2, 2, 2, 2] + [2] * 10          # outers 1..15
        # refactors at outers 6, 9, 12, 15; iterative adjoint adds none
        expect = 12 + 4
        assert predicted_factorizations(Strategy.UPK03K100G, iters,
                                        [True] * 15) == expect

    def test_g_variants_skip_adjoint(self):
        iters = [3, 2, 2, 2, 2, 2]
        a = predicted_factorizations(Strategy.UPK100, iters, [True] * 6)
        b = predicted_factorizations(Strategy.UPK100G, iters, [True] * 6)
        assert a - b == len(iters)

    def test_rejected_rows_form_no_adjoint(self):
        iters = [3, 2, 2, 2, 2, 2, 0]
        accepted = [True, True, False, True, True, False, False]
        assert predicted_factorizations(Strategy.N, iters, accepted) \
            == sum(iters) + 4
        assert predicted_factorizations(Strategy.MN, iters, accepted) \
            == 11 + 1 + 4
        assert predicted_factorizations(Strategy.UPK100G, iters, accepted) \
            == 11 + 1
        with pytest.raises(ValueError):
            predicted_factorizations(Strategy.N, iters, accepted[:-1])


def test_linear_equilibrium_solves_density_only_system():
    # on a small-displacement model Newton solves the density-only system
    model = make_cantilever_model(load=-5.0, linear=True)
    rho = np.full(model.mesh.n_el, 0.7)
    ctx = ReanalysisContext()
    state, st = newton_solve(model, rho, 3.0, rest_state(model), Strategy.N,
                             ctx, 1)
    u = state.u
    K = model.tangent(rho, 3.0, linear_rest_state(model))
    assert np.abs(K.matvec(u) - model.f_free).max() <= 1e-10 * np.abs(model.f_free).max()
    assert ctx.counts["factorizations"] == 1 and ctx.initialized
    # the state's forces are the small-strain ones: its residual is K u - f
    assert np.abs(model.residual(rho, 3.0, state) - K.matvec(u) + model.f_free
                  ).max() <= 1e-10 * np.abs(model.f_free).max()
    # compliance is quadratic in the load for the linear model
    model2 = make_cantilever_model(load=-10.0, linear=True)
    state2, _ = newton_solve(model2, rho, 3.0, rest_state(model2),
                             Strategy.N, ReanalysisContext(), 1)
    c1 = model.f_free @ u
    c2 = model2.f_free @ state2.u
    assert c2 == pytest.approx(4.0 * c1, rel=1e-12)


def test_small_strain_tangent_is_formed_again_under_its_law():
    # newton_solve drops the tangents of each state it steps away from; a
    # small-displacement model forms them again as its own, not as the
    # large-displacement tangents at the state's u
    model = make_cantilever_model(linear=True)
    rho = np.full(model.mesh.n_el, 0.7)
    start = model.state(np.full(model.mesh.n_free, 0.01))
    newton_solve(model, rho, 3.0, start, Strategy.N, ReanalysisContext(), 1)
    assert start.tangents is None
    assert np.array_equal(model.tangent(rho, 3.0, start).data,
                          model.tangent(rho, 3.0, rest_state(model)).data)
