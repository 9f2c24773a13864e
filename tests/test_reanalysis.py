import numpy as np
import pytest

from icatop.reanalysis import (IcaReport, ReanalysisContext, ca_solve,
                               estimate_norm_B, ica_adjoint_solve, ica_solve)
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
    Kc = SparseSym(n, K0.indptr, K0.indices, SparseSym.from_dense(K0d + dK).data)
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

    def test_converges_to_dense_solution(self):
        rng = np.random.default_rng(1)
        for target in (0.2, 0.5, 0.8):
            K0, Kc, K0d, Kcd = make_pair(rng, 30, target)
            ctx = ReanalysisContext(K0)
            ctx.refresh_delta(Kc)
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
            ctx.refresh_delta(Kc)
            Bd = np.linalg.solve(K0d, Kcd - K0d)
            normB = np.linalg.svd(Bd, compute_uv=False)[0]
            r = rng.standard_normal(30)
            s_star = np.linalg.solve(Kcd, -r)
            _, rep = ica_solve(ctx, -r, eps=1e-15, k_max=10, keep_iterates=True)
            errs = [np.linalg.norm(s - s_star) for s in rep.iterates]
            for nxt, cur in zip(errs[1:], errs[:-1]):
                assert nxt <= (normB + 1e-10) * cur + 1e-14

    def test_fixed_point_is_stationary(self):
        rng = np.random.default_rng(3)
        K0, Kc, K0d, Kcd = make_pair(rng, 20, 0.5)
        ctx = ReanalysisContext(K0)
        ctx.refresh_delta(Kc)
        r = rng.standard_normal(20)
        s_star = np.linalg.solve(Kcd, -r)
        from icatop.sparse import delta_apply
        s_next = ctx.solve_reference(-r) - ctx.solve_reference(
            delta_apply(Kc, K0, s_star))
        assert np.abs(s_next - s_star).max() <= 1e-10 * np.abs(s_star).max()

    def test_divergent_flagged_within_budget(self):
        rng = np.random.default_rng(4)
        K0 = SparseSym.from_dense(np.diag(rng.uniform(1.0, 2.0, 15)))
        Kc = SparseSym(15, K0.indptr, K0.indices, 2.5 * K0.data)  # B = 1.5 I
        ctx = ReanalysisContext(K0)
        ctx.refresh_delta(Kc)
        s, rep = ica_solve(ctx, rng.standard_normal(15), eps=1e-2)
        assert not rep.converged
        assert rep.iterations <= 10


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
        ctx.refresh_delta(Kc)
        l = rng.standard_normal(25)
        lam, rep = ica_adjoint_solve(ctx, l, eps_T=1e-8)
        assert rep.converged
        assert np.abs(Kc.matvec(lam) + l).max() <= 1e-8 * np.abs(l).max()

    def test_adjoint_needs_more_sweeps_than_newton_tolerance(self):
        # same context: the 1e-8 target takes at least as many sweeps as 1e-2
        rng = np.random.default_rng(7)
        K0, Kc, K0d, Kcd = make_pair(rng, 25, 0.15)
        ctx = ReanalysisContext(K0)
        ctx.refresh_delta(Kc)
        b = rng.standard_normal(25)
        _, loose = ica_solve(ctx, -b, eps=1e-2)
        _, tight = ica_solve(ctx, -b, eps=1e-8)
        assert loose.converged and tight.converged
        assert tight.iterations >= loose.iterations

    def test_fallback_factors_and_solves_exactly(self, factor_scopes):
        rng = np.random.default_rng(8)
        K0, Kc, K0d, Kcd = make_pair(rng, 20, 0.9)   # too slow for 1e-8 in 10
        ctx = ReanalysisContext(K0)
        ctx.refresh_delta(Kc)
        l = rng.standard_normal(20)
        lam, rep = ica_adjoint_solve(ctx, l, eps_T=1e-8,
                                     timers=factor_scopes.timers())
        assert rep.fallback and rep.converged
        # the fallback factorization is booked as one, outside the sweeps
        assert factor_scopes.at_factor[-1] == ("Factorizations",)
        assert not factor_scopes.nested
        assert ctx.fallback_count == 1
        assert np.abs(Kc.matvec(lam) + l).max() <= 1e-10 * np.abs(l).max()
        # the context was refactored from the current values
        assert np.array_equal(ctx.K0.data, Kc.data)

    def test_zero_output_vector(self):
        ctx = ReanalysisContext(SparseSym.from_dense(np.eye(3)))
        lam, rep = ica_adjoint_solve(ctx, np.zeros(3))
        assert np.all(lam == 0.0) and rep.converged


class TestCaSolve:
    def test_zero_delta_returns_reference_solution(self):
        rng = np.random.default_rng(9)
        K0 = SparseSym.from_dense(np.diag(rng.uniform(1.0, 2.0, 10)))
        ctx = ReanalysisContext(K0)
        rhs = rng.standard_normal(10)
        for q in (1, 3):
            s = ca_solve(ctx, rhs, q)
            assert np.allclose(s, rhs / K0.to_csr().diagonal(), rtol=1e-10)

    def test_q1_beats_first_sweep_in_energy(self):
        rng = np.random.default_rng(10)
        K0, Kc, K0d, Kcd = make_pair(rng, 30, 0.6)
        ctx = ReanalysisContext(K0)
        ctx.refresh_delta(Kc)
        r = rng.standard_normal(30)
        s_star = np.linalg.solve(Kcd, -r)
        s_hat = ca_solve(ctx, -r, 1)
        _, rep = ica_solve(ctx, -r, eps=1e-15, k_max=1, keep_iterates=True)
        s1 = rep.iterates[1]

        def energy(e):
            return float(e @ (Kcd @ e))

        assert energy(s_hat - s_star) <= energy(s1 - s_star) * (1.0 + 1e-10)

    def test_full_basis_is_exact(self):
        # B constructed with well-separated order-one eigenvalues so the
        # unorthogonalized basis stays well conditioned
        rng = np.random.default_rng(11)
        n = 4
        A = rng.standard_normal((n, n))
        K0d = A @ A.T + n * np.eye(n)
        U, S, _ = np.linalg.svd(K0d)
        lam_B = np.array([0.9, -0.7, 0.4, -0.2])
        dK = U @ np.diag(S * lam_B) @ U.T
        dK = 0.5 * (dK + dK.T)
        Kcd = K0d + dK
        K0 = SparseSym.from_dense(K0d)
        Kc = SparseSym(n, K0.indptr, K0.indices, SparseSym.from_dense(Kcd).data)
        ctx = ReanalysisContext(K0)
        ctx.refresh_delta(Kc)
        r = rng.standard_normal(n)
        s_hat = ca_solve(ctx, -r, n)
        expect = np.linalg.solve(Kcd, -r)
        assert np.abs(s_hat - expect).max() <= 1e-10 * np.abs(expect).max()

    def test_invalid_basis_size(self):
        ctx = ReanalysisContext(SparseSym.from_dense(np.eye(3)))
        with pytest.raises(ValueError):
            ca_solve(ctx, np.ones(3), 0)


class TestNormB:
    def test_zero_delta(self):
        ctx = ReanalysisContext(SparseSym.from_dense(np.eye(8)))
        assert estimate_norm_B(ctx) == 0.0

    def test_scalar_multiple_exact(self):
        rng = np.random.default_rng(12)
        K0 = SparseSym.from_dense(np.diag(rng.uniform(1.0, 4.0, 16)))
        for alpha in (0.37, 1.8):
            Kc = SparseSym(16, K0.indptr, K0.indices, (1.0 + alpha) * K0.data)
            ctx = ReanalysisContext(K0)
            ctx.refresh_delta(Kc)
            assert estimate_norm_B(ctx) == pytest.approx(alpha, rel=1e-12)

    def test_matches_dense_svd_within_one_percent(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            K0, Kc, K0d, Kcd = make_pair(rng, 30, rng.uniform(0.2, 1.5))
            ctx = ReanalysisContext(K0)
            ctx.refresh_delta(Kc)
            B = np.linalg.solve(K0d, Kcd - K0d)
            truth = np.linalg.svd(B, compute_uv=False)[0]
            assert estimate_norm_B(ctx, iterations=200, rtol=1e-9) == \
                pytest.approx(truth, rel=1e-2)


def test_counters_and_reset():
    rng = np.random.default_rng(14)
    K0, Kc, _, _ = make_pair(rng, 10, 0.3)
    ctx = ReanalysisContext(K0)
    for _ in range(3):
        ctx.count_newton_iteration()
    assert ctx.global_newton_iters == 3
    assert ctx.newton_since_factor == 3
    ctx.refresh_delta(Kc)
    assert ctx.newton_since_delta == 0
    ctx.set_reference(Kc)
    assert ctx.newton_since_factor == 0
    assert ctx.global_newton_iters == 3      # global counter persists


def test_pattern_mismatch_rejected():
    ctx = ReanalysisContext(SparseSym.from_dense(np.eye(4)))
    other = SparseSym.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]) + np.ones((4, 4)))
    with pytest.raises(ValueError):
        ctx.refresh_delta(other)
