import importlib
import pkgutil
from dataclasses import replace

import numpy as np
import pytest

import icatop
from conftest import sweep_iterates
from icatop.reanalysis import (ReanalysisContext, estimate_norm_B,
                               ica_adjoint_solve, ica_solve)
from icatop.errors import SingularMatrixError
from icatop.sparse import SparseSym


def make_pair(rng, n, target_normB, diag_shift=None):
    """SPD reference plus a symmetric perturbation scaled to a target
    spectral norm of B = K0^{-1} dK.  Dense frames, shared pattern."""
    A = rng.standard_normal((n, n))
    K0d = A @ A.T + (diag_shift or n) * np.eye(n)
    dK = rng.standard_normal((n, n))
    dK = 0.5 * (dK + dK.T)
    nb = np.linalg.svd(np.linalg.solve(K0d, dK), compute_uv=False)[0]
    dK *= target_normB / nb
    K0 = SparseSym.from_dense(K0d)
    Kc = replace(K0, data=SparseSym.from_dense(K0d + dK).data)
    return K0, Kc, K0d, K0d + dK


class TestIcaSolve:
    def test_zero_delta_exact_at_k0(self):
        rng = np.random.default_rng(0)
        K0 = SparseSym.from_dense(np.diag(rng.uniform(1.0, 3.0, 20)))
        ctx = ReanalysisContext(K0)
        rhs = rng.standard_normal(20)
        s, rep = ica_solve(ctx, rhs)
        assert rep.converged and rep.iterations == 0
        assert rep.residual <= 1e-12
        assert np.allclose(s, rhs / K0.to_csr().diagonal(), rtol=1e-13)

    def test_zero_rhs_convention(self):
        ctx = ReanalysisContext(SparseSym.from_dense(np.eye(4)))
        s, rep = ica_solve(ctx, np.zeros(4))
        assert rep.converged and rep.residual == 0.0
        assert np.all(s == 0.0)

    def test_report_carries_the_judged_product(self):
        # Ks is the Kcur product the returned iterate was judged by,
        # converged or not
        rng = np.random.default_rng(5)
        K0, Kc, _, _ = make_pair(rng, 25, 0.6)
        ctx = ReanalysisContext(K0)
        ctx.refresh(Kc)
        b = rng.standard_normal(25)
        for eps, k_max in ((1e-2, 10), (1e-14, 3)):
            s, rep = ica_solve(ctx, b, eps=eps, k_max=k_max)
            assert rep.converged is (eps == 1e-2)
            assert np.array_equal(rep.Ks, Kc.matvec(s))
            assert rep.residual == np.abs(rep.Ks - b).max() / np.abs(b).max()
        _, rep = ica_solve(ctx, np.zeros(25))
        assert np.all(rep.Ks == 0.0)

    def test_converges_to_dense_solution(self):
        rng = np.random.default_rng(1)
        for target in (0.2, 0.5, 0.8):
            K0, Kc, K0d, Kcd = make_pair(rng, 30, target)
            ctx = ReanalysisContext(K0)
            ctx.refresh(Kc)
            r = rng.standard_normal(30)
            s, rep = ica_solve(ctx, -r, eps=1e-10, k_max=100)
            expect = np.linalg.solve(Kcd, -r)
            assert rep.converged
            assert np.abs(Kc.matvec(s) + r).max() <= 1e-10 * np.abs(r).max()
            assert np.abs(s - expect).max() <= 1e-7 * np.abs(expect).max()

    def test_contraction_per_step(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            target = rng.uniform(0.1, 0.9)
            K0, Kc, K0d, Kcd = make_pair(rng, 30, target)
            ctx = ReanalysisContext(K0)
            ctx.refresh(Kc)
            Bd = np.linalg.solve(K0d, Kcd - K0d)
            normB = np.linalg.svd(Bd, compute_uv=False)[0]
            r = rng.standard_normal(30)
            s_star = np.linalg.solve(Kcd, -r)
            errs = [np.linalg.norm(s - s_star)
                    for s in sweep_iterates(ctx, -r)]
            for nxt, cur in zip(errs[1:], errs[:-1]):
                assert nxt <= (normB + 1e-10) * cur + 1e-14

    def test_fixed_point_is_stationary(self):
        rng = np.random.default_rng(3)
        K0, Kc, K0d, Kcd = make_pair(rng, 20, 0.5)
        ctx = ReanalysisContext(K0)
        ctx.refresh(Kc)
        r = rng.standard_normal(20)
        s_star = np.linalg.solve(Kcd, -r)
        solve = ctx.factorization.solve
        s_next = solve(-r) - solve((Kcd - K0d) @ s_star)
        assert np.abs(s_next - s_star).max() <= 1e-10 * np.abs(s_star).max()

    def test_divergent_flagged_within_budget(self):
        rng = np.random.default_rng(4)
        K0 = SparseSym.from_dense(np.diag(rng.uniform(1.0, 2.0, 15)))
        Kc = replace(K0, data=2.5 * K0.data)  # B = 1.5 I
        ctx = ReanalysisContext(K0)
        ctx.refresh(Kc)
        s, rep = ica_solve(ctx, rng.standard_normal(15), eps=1e-2)
        assert not rep.converged
        assert rep.iterations <= 10

    @pytest.mark.parametrize("target, eps, judged", [
        (0.9, 1e-8, 3),     # slow: 0.9^10 is far above 1e-8
        (1.5, 1e-2, 3),     # diverging
        (0.2, 1e-2, None),  # converges: nothing to give up
        (0.1, 1e-8, None),  # on course to 1e-8 within the budget
    ])
    def test_give_up_stops_only_sweeps_off_course(self, target, eps, judged):
        rng = np.random.default_rng(11)
        K0, Kc, _, _ = make_pair(rng, 30, target)
        ctx = ReanalysisContext(K0)
        ctx.refresh(Kc)
        b = rng.standard_normal(30)
        full_s, full = ica_solve(ctx, b, eps=eps)
        s, rep = ica_solve(ctx, b, eps=eps, give_up=True)
        if judged is None:
            assert rep.converged and full.converged
            assert np.array_equal(s, full_s)
            assert rep.iterations == full.iterations
        else:
            # the full budget's iterates, cut short after the judged ones
            assert not rep.converged and not full.converged
            assert (rep.iterations, full.iterations) == (judged - 1, 10)
            assert np.array_equal(s, sweep_iterates(ctx, b)[judged - 1])

    @pytest.mark.parametrize("give_up", [False, True])
    @pytest.mark.parametrize("diverging", [False, True])
    def test_unconverged_sweep_returns_where_it_stopped(self, diverging,
                                                        give_up):
        # the iterate it stopped at, not the one of least residual: with
        # B = 1.5 I every sweep grows the residual, so that one is s_0
        rng = np.random.default_rng(12)
        if diverging:
            K0 = SparseSym.from_dense(np.diag(rng.uniform(1.0, 2.0, 30)))
            Kc = replace(K0, data=2.5 * K0.data)
        else:
            K0, Kc, _, _ = make_pair(rng, 30, 0.9)
        ctx = ReanalysisContext(K0)
        ctx.refresh(Kc)
        b = rng.standard_normal(30)
        s, rep = ica_solve(ctx, b, eps=1e-8, give_up=give_up)
        assert not rep.converged and rep.iterations > 0
        assert np.array_equal(
            s, ica_solve(ctx, b, eps=1e-8, k_max=rep.iterations)[0])
        assert np.array_equal(rep.Ks, Kc.matvec(s))
        assert rep.residual == np.abs(rep.Ks - b).max() / np.abs(b).max()


class TestAdjointSolve:
    def test_zero_delta_exact(self):
        rng = np.random.default_rng(5)
        K0 = SparseSym.from_dense(np.diag(rng.uniform(1.0, 3.0, 12)))
        ctx = ReanalysisContext(K0)
        l = rng.standard_normal(12)
        lam, rep = ica_adjoint_solve(ctx, l)
        assert rep.converged and not rep.fallback
        assert np.allclose(lam, -l / K0.to_csr().diagonal(), rtol=1e-13)

    def test_matches_dense_solution(self):
        rng = np.random.default_rng(6)
        K0, Kc, K0d, Kcd = make_pair(rng, 25, 0.12)
        ctx = ReanalysisContext(K0)
        ctx.refresh(Kc)
        l = rng.standard_normal(25)
        lam, rep = ica_adjoint_solve(ctx, l)
        assert rep.converged
        assert np.abs(Kc.matvec(lam) + l).max() <= 1e-8 * np.abs(l).max()

    def test_adjoint_needs_more_sweeps_than_newton_tolerance(self):
        # same context: the 1e-8 target takes at least as many sweeps as 1e-2
        rng = np.random.default_rng(7)
        K0, Kc, K0d, Kcd = make_pair(rng, 25, 0.15)
        ctx = ReanalysisContext(K0)
        ctx.refresh(Kc)
        b = rng.standard_normal(25)
        _, loose = ica_solve(ctx, -b, eps=1e-2)
        _, tight = ica_solve(ctx, -b, eps=1e-8)
        assert loose.converged and tight.converged
        assert tight.iterations >= loose.iterations

    def test_fallback_factors_and_solves_exactly(self, factor_scopes):
        rng = np.random.default_rng(8)
        K0, Kc, K0d, Kcd = make_pair(rng, 20, 0.9)   # too slow for 1e-8 in 10
        ctx = ReanalysisContext(K0)
        ctx.refresh(Kc)
        l = rng.standard_normal(20)
        lam, rep = ica_adjoint_solve(ctx, l)
        assert rep.fallback and rep.converged
        # the report keeps the sweeps' count and the residual they stopped
        # at: the adjoint
        # sweeps to the budget, though 0.9 per sweep never reaches 1e-8
        assert rep.residual >= 1e-8 and rep.iterations == 10
        # the fallback factorization is booked as one, outside the sweeps
        assert factor_scopes.at_factor[-1] == ("Factorizations",)
        assert not factor_scopes.nested
        assert np.abs(Kc.matvec(lam) + l).max() <= 1e-10 * np.abs(l).max()
        # the context was refactored from the current matrix
        assert ctx.Kcur is Kc and ctx.counts["factorizations"] == 2
        b = rng.standard_normal(20)
        assert np.abs(Kc.matvec(ctx.factorization.solve(b)) - b).max() \
            <= 1e-10 * np.abs(b).max()

    def test_zero_output_vector(self):
        ctx = ReanalysisContext(SparseSym.from_dense(np.eye(3)))
        lam, rep = ica_adjoint_solve(ctx, np.zeros(3))
        assert np.all(lam == 0.0) and rep.converged


class TestNormB:
    def test_zero_delta(self):
        ctx = ReanalysisContext(SparseSym.from_dense(np.eye(8)))
        assert estimate_norm_B(ctx) == 0.0

    def test_scalar_multiple_exact(self):
        rng = np.random.default_rng(12)
        K0 = SparseSym.from_dense(np.diag(rng.uniform(1.0, 4.0, 16)))
        for alpha in (0.37, 1.8):
            Kc = replace(K0, data=(1.0 + alpha) * K0.data)
            ctx = ReanalysisContext(K0)
            ctx.refresh(Kc)
            assert estimate_norm_B(ctx) == pytest.approx(alpha, rel=1e-12)

    def test_matches_dense_svd_within_one_percent(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            K0, Kc, K0d, Kcd = make_pair(rng, 30, rng.uniform(0.2, 1.5))
            ctx = ReanalysisContext(K0)
            ctx.refresh(Kc)
            B = np.linalg.solve(K0d, Kcd - K0d)
            truth = np.linalg.svd(B, compute_uv=False)[0]
            assert estimate_norm_B(ctx, iterations=200, rtol=1e-9) == \
                pytest.approx(truth, rel=1e-2)


def test_counters_and_reset():
    rng = np.random.default_rng(14)
    K0, Kc, _, _ = make_pair(rng, 10, 0.3)
    ctx = ReanalysisContext(K0)
    ctx.counts["newton_iters"] = 3
    ctx.refresh(Kc)
    ctx.set_reference(Kc)
    assert ctx.counts["newton_iters"] == 3      # the ledger persists
    # one per reference, not per refresh
    assert ctx.counts["factorizations"] == 2


def test_failed_reference_leaves_the_context_empty():
    rng = np.random.default_rng(15)
    K0, Kc, _, _ = make_pair(rng, 10, 0.3)
    ctx = ReanalysisContext(K0)
    ctx.counts["newton_iters"] = 4
    bad = replace(K0, data=np.full_like(K0.data, np.nan))
    with pytest.raises(SingularMatrixError):
        ctx.set_reference(bad)
    assert (ctx.Kcur, ctx.factorization) == (None, None)
    assert not ctx.initialized and ctx.counts["newton_iters"] == 4
    assert ctx.counts["factorizations"] == 1    # the failed one is not counted
    ctx.set_reference(Kc)
    assert ctx.initialized and ctx.counts["factorizations"] == 2


def test_only_the_context_factors():
    # set_reference is the one caller of ldlt_factor in the package
    holders = {name for _, name, _ in pkgutil.iter_modules(icatop.__path__)
               if "ldlt_factor" in vars(importlib.import_module(
                   f"icatop.{name}"))}
    assert holders == {"sparse", "reanalysis"}
    assert "ldlt_factor" not in vars(icatop)


def test_pattern_mismatch_rejected():
    ctx = ReanalysisContext(SparseSym.from_dense(np.eye(4)))
    other = SparseSym.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]) + np.ones((4, 4)))
    with pytest.raises(ValueError):
        ctx.refresh(other)
