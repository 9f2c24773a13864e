"""Sweeps that solve with the held factor rounded to float32.

A ``single_sweeps`` context demotes its held band in place on the first
sweep solve; the residual-form sweep judges and corrects every iterate in
float64, so it still reaches the tight adjoint tolerance.
"""

import tracemalloc

import numpy as np
import pytest

from icatop import bench, sparse
from icatop.assembly import FeModel
from icatop.nonlinear import Strategy, newton_solve
from icatop.optimizer import RHO_MIN, OptimizerConfig, optimize
from icatop.reanalysis import ReanalysisContext, estimate_norm_B, ica_solve
from icatop.sparse import SparseSym
from reference import delta_form_iterates
from test_reanalysis import make_pair


@pytest.fixture(scope="module")
def holed_cantilever():
    """Desk cantilever at p = 3 with RHO_MIN voids (three holes in the web
    and the far corners), its equilibrium u1 and its tangent there."""
    prob = bench.desk("cantilever")
    mesh = prob.mesh
    model = FeModel(mesh, prob.loads, prob.material)
    cx, cy = mesh.nodes[mesh.elems].mean(axis=1).T
    void = (cx > 0.75 * mesh.width) & (np.abs(cy - mesh.height / 2)
                                       > 0.3 * mesh.height)
    for xc in (20.0, 50.0, 80.0):
        void |= (cx - xc) ** 2 + (cy - mesh.height / 2) ** 2 < 36.0
    rho = np.where(void, RHO_MIN, 1.0)
    u1, _ = newton_solve(model, rho, 3.0, np.zeros(mesh.n_free), Strategy.N,
                         ReanalysisContext(), 1)
    return model, rho, u1, model.tangent(rho, 3.0, u1)


class CountDemotions:
    def __init__(self, monkeypatch):
        self.calls = 0
        real = sparse.Factorization.demoted

        def demoted(fact):
            self.calls += 1
            return real(fact)

        monkeypatch.setattr(sparse.Factorization, "demoted", demoted)


class TestSingleSweeps:
    def test_converges_to_dense_solution(self):
        rng = np.random.default_rng(21)
        for target in (0.2, 0.5, 0.8):
            K0, Kc, _, Kcd = make_pair(rng, 30, target)
            ctx = ReanalysisContext(K0, single_sweeps=True)
            ctx.refresh(Kc)
            r = rng.standard_normal(30)
            s, rep = ica_solve(ctx, -r, eps=1e-10, k_max=100)
            expect = np.linalg.solve(Kcd, -r)
            assert rep.converged and ctx.factorization.single
            assert np.abs(Kc.matvec(s) + r).max() <= 1e-10 * np.abs(r).max()
            assert np.abs(s - expect).max() <= 1e-7 * np.abs(expect).max()

    @pytest.mark.parametrize("second_u", [False, True],
                             ids=["zero_delta", "tangent_at_second_u"])
    def test_void_tangent_reaches_adjoint_tolerance(self, holed_cantilever,
                                                    second_u):
        model, rho, u1, K0 = holed_cantilever
        ctx = ReanalysisContext(K0, single_sweeps=True)
        if second_u:
            ctx.refresh(model.tangent(rho, 3.0, 0.98 * u1))
        s, rep = ica_solve(ctx, -model.f_free, eps=1e-8, k_max=10)
        assert rep.converged and rep.residual < 1e-8
        assert ctx.factorization.single
        assert np.abs(ctx.Kcur.matvec(s) + model.f_free).max() \
            < 1e-8 * np.abs(model.f_free).max()

    def test_indefinite_factor_demotes_and_solves(self):
        rng = np.random.default_rng(22)
        n = 20
        A = rng.standard_normal((n, n))
        Kd = A + A.T + np.diag(np.linspace(-12.0, 12.0, n))
        K0 = SparseSym.from_dense(Kd)
        ctx = ReanalysisContext(K0, single_sweeps=True)
        assert ctx.factorization._lu.piv is not None     # banded LU
        b = rng.standard_normal(n)
        s, rep = ica_solve(ctx, b, eps=1e-12, k_max=10)
        assert ctx.factorization.single
        assert ctx.factorization._lu.ab.dtype == np.float32
        assert rep.converged
        expect = np.linalg.solve(Kd, b)
        assert np.abs(s - expect).max() <= 1e-9 * np.abs(expect).max()

    def test_returns_float64(self):
        rng = np.random.default_rng(23)
        K0, Kc, _, _ = make_pair(rng, 25, 0.5)
        ctx = ReanalysisContext(K0, single_sweeps=True)
        ctx.refresh(Kc)
        for eps, k_max in ((1e-2, 10), (1e-14, 2)):
            s, rep = ica_solve(ctx, rng.standard_normal(25), eps=eps,
                               k_max=k_max, keep_iterates=True)
            assert s.dtype == rep.Ks.dtype == np.float64
            assert all(it.dtype == np.float64 for it in rep.iterates)


class TestDemotion:
    def test_first_held_solve_demotes_in_place(self, monkeypatch):
        count = CountDemotions(monkeypatch)
        rng = np.random.default_rng(24)
        K0, Kc, _, _ = make_pair(rng, 25, 0.4)
        ctx = ReanalysisContext(K0, single_sweeps=True)
        old = ctx.factorization
        band = old._lu.ab
        assert not old.single and count.calls == 0
        ctx.refresh(Kc)
        for _ in range(3):
            ica_solve(ctx, rng.standard_normal(25), eps=1e-10)
        assert count.calls == 1 and ctx.factorizations == 1
        held = ctx.factorization
        assert held is not old and held.single
        # the float32 band lives in the float64 band's buffer
        assert np.shares_memory(held._lu.ab, band)
        with pytest.raises(RuntimeError, match="demoted"):
            old.solve(np.ones(25))
        # a new reference is float64 until its own first sweep
        ctx.set_reference(Kc)
        assert not ctx.factorization.single and count.calls == 1

    def test_exact_solves_never_demote(self, monkeypatch):
        count = CountDemotions(monkeypatch)
        rng = np.random.default_rng(25)
        K0, _, _, _ = make_pair(rng, 12, 0.3)
        ctx = ReanalysisContext(K0, single_sweeps=True)
        ctx.solve_reference(np.ones(12))
        assert count.calls == 0 and not ctx.factorization.single

    def test_float64_context_never_demotes(self, monkeypatch):
        count = CountDemotions(monkeypatch)
        rng = np.random.default_rng(26)
        K0, Kc, _, _ = make_pair(rng, 12, 0.3)
        ctx = ReanalysisContext(K0)
        ctx.refresh(Kc)
        ica_solve(ctx, rng.standard_normal(12), eps=1e-10)
        assert count.calls == 0 and not ctx.factorization.single

    @pytest.mark.parametrize("strategy", [Strategy.N, Strategy.UPK03K100G],
                             ids=["N", "upK03K100g"])
    def test_desk_run_demotions(self, monkeypatch, strategy):
        count = CountDemotions(monkeypatch)
        history = optimize(bench.desk("cantilever"),
                           OptimizerConfig(strategy=strategy, budget=12))
        assert not history.aborted
        if strategy is Strategy.N:
            assert count.calls == 0
        else:
            assert 0 < count.calls <= history.total("factorizations")


class TestNormEstimate:
    def test_reads_the_held_factor_as_it_stands(self, monkeypatch):
        # the estimator solves with the held factor and never demotes it;
        # after the first sweep it reads the float32 factor's own
        # iteration matrix M = I - F^{-1} Kcur
        count = CountDemotions(monkeypatch)
        rng = np.random.default_rng(28)
        K0, Kc, K0d, Kcd = make_pair(rng, 30, 0.5)
        ctx = ReanalysisContext(K0, single_sweeps=True)
        ctx.refresh(Kc)
        normB = np.linalg.norm(np.linalg.solve(K0d, Kcd - K0d), 2)
        assert estimate_norm_B(ctx, iterations=300, rtol=1e-10) == \
            pytest.approx(normB, rel=1e-2)
        assert count.calls == 0 and not ctx.factorization.single
        ica_solve(ctx, rng.standard_normal(30))
        held = ctx.factorization
        assert count.calls == 1 and held.single
        est = estimate_norm_B(ctx, iterations=300, rtol=1e-10)
        assert ctx.factorization is held and count.calls == 1
        F_inv = np.column_stack([held.solve(e) for e in np.eye(30)])
        dense = np.linalg.norm(np.eye(30) - F_inv @ Kcd, 2)
        assert est == pytest.approx(dense, rel=1e-2)

    def test_zero_delta_reads_the_rounding(self):
        # Kcur = K0: float64 roundoff only, until the float32 factor's own
        # rounding shows
        rng = np.random.default_rng(29)
        K0, _, _, _ = make_pair(rng, 30, 0.5)
        ctx = ReanalysisContext(K0, single_sweeps=True)
        exact = estimate_norm_B(ctx)
        ica_solve(ctx, rng.standard_normal(30))
        rounded = estimate_norm_B(ctx)
        assert exact < 1e-13 and 1e3 * exact < rounded < 1e-5


def test_residual_form_matches_delta_form():
    # float64 sweeps: the residual form s <- s - K0^{-1}(Kcur s - rhs) gives
    # the delta form's iterates s_{k+1} = s_0 - B s_k up to roundoff
    rng = np.random.default_rng(27)
    for target in (0.1, 0.5, 0.9):
        K0, Kc, _, _ = make_pair(rng, 30, target)
        ctx = ReanalysisContext(K0)
        ctx.refresh(Kc)
        rhs = rng.standard_normal(30)
        _, rep = ica_solve(ctx, rhs, eps=0.0, k_max=10, keep_iterates=True)
        oracle = delta_form_iterates(ctx, K0, rhs, 10)
        assert len(rep.iterates) == len(oracle) == 11
        for got, want in zip(rep.iterates, oracle):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_demotion_allocates_no_second_band():
    # demoting a 200x50 factor (a 17 MiB band) converts it chunk by chunk
    # in its own buffer; a float32 copy would allocate 8.5 MiB
    problem = bench.build("cantilever", mesh=(200, 50))
    model = FeModel(problem.mesh, problem.loads, problem.material)
    K = model.tangent(np.full(problem.mesh.n_el, 0.5), 3.0,
                      np.zeros(problem.mesh.n_free))
    ctx = ReanalysisContext(K, single_sweeps=True)
    fact = ctx.factorization
    assert fact._lu.ab.nbytes > 16 * 2 ** 20
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        single = fact.demoted()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert single.single
    assert peak - base < 2 ** 20
