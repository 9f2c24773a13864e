import numpy as np
import pytest

from conftest import full_csr, make_cantilever_model, rest_state
from icatop.assembly import FeModel
from icatop import nonlinear
from icatop.material import MaterialParams
from icatop.mesh import LoadCase, build_grid, fix_region
from icatop.nonlinear import Strategy, newton_solve
from icatop.reanalysis import ReanalysisContext
from icatop.sensitivity import objective_gradient, solve_adjoint


def converge(model, rho, p, outer=1, tol=1e-10):
    """Exact Newton to max-norm residual ``tol``, past the package's."""
    ctx = ReanalysisContext()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nonlinear, "RESIDUAL_TOL", tol)
        state, _ = newton_solve(model, rho, p, rest_state(model),
                                Strategy.N, ctx, outer)
    return state, ctx


class TestSolveAdjoint:
    def test_structure_adjoint_solves_for_load(self):
        model = make_cantilever_model()
        rho = np.full(model.mesh.n_el, 0.6)
        u, ctx = converge(model, rho, 3.0)
        l_free = model.f_free
        before = ctx.counts["factorizations"]
        lam = solve_adjoint(model, rho, 3.0, u, l_free, Strategy.N, ctx)
        K = model.tangent(rho, 3.0, u)
        assert ctx.counts["factorizations"] == before + 1
        assert np.abs(K.matvec(lam) + l_free).max() <= 1e-10 * np.abs(l_free).max()

    def test_direct_adjoint_forms_no_product(self, monkeypatch):
        from icatop.sparse import SparseSym
        model = make_cantilever_model()
        rho = np.full(model.mesh.n_el, 0.6)
        u, ctx = converge(model, rho, 3.0)
        matvec, calls = SparseSym.matvec, []

        def counted(self, x):
            calls.append(x)
            return matvec(self, x)

        monkeypatch.setattr(SparseSym, "matvec", counted)
        solve_adjoint(model, rho, 3.0, u, model.f_free, Strategy.N, ctx)
        assert calls == []

    def test_mechanism_unit_output_is_inverse_column(self):
        mesh = build_grid(6, 3, 6.0, 3.0, 1.0)
        mesh = fix_region(mesh, lambda x, y: x <= 1e-12, axes="both")
        out_node = mesh.node_id(6, 1)
        loads = (LoadCase().add_load(mesh.node_id(6, 3), 0, 2.0)
                 .add_spring(out_node, 1, 0.5).mark_output(out_node, 1))
        model = FeModel(mesh, loads, MaterialParams(180.0, 0.3))
        rho = np.full(mesh.n_el, 0.5)
        u, ctx = converge(model, rho, 2.0)
        l_free = mesh.gather(loads.output_vector(mesh))
        lam = solve_adjoint(model, rho, 2.0, u, l_free, Strategy.N, ctx)
        K = full_csr(model.tangent(rho, 2.0, u)).toarray()
        col = mesh.full_to_free[2 * out_node + 1]
        expect = np.linalg.solve(K, np.eye(mesh.n_free)[col])
        assert np.allclose(lam, expect, rtol=1e-8, atol=1e-12)

    def test_iterative_matches_direct(self):
        model = make_cantilever_model()
        rho = np.full(model.mesh.n_el, 0.5)
        p = 3.0
        ctx = ReanalysisContext()
        u, _ = newton_solve(model, rho, p,
                            rest_state(model),
                            Strategy.UPK1G, ctx, outer_iter=10)
        l_free = model.f_free
        before = ctx.counts["factorizations"]
        ica = solve_adjoint(model, rho, p, u, l_free, Strategy.UPK1G, ctx)
        assert ctx.counts["factorizations"] == before   # swept, not factored
        direct = solve_adjoint(model, rho, p, u, l_free, Strategy.N, ctx)
        scale = np.abs(direct).max()
        assert np.abs(ica - direct).max() <= 1e-6 * scale

    def test_zero_selector_short_circuits(self):
        model = make_cantilever_model()
        rho = np.full(model.mesh.n_el, 0.5)
        u, ctx = converge(model, rho, 3.0)
        before = ctx.counts["factorizations"]
        lam = solve_adjoint(model, rho, 3.0, u, np.zeros(model.mesh.n_free),
                            Strategy.N, ctx)
        assert np.all(lam == 0.0)
        assert ctx.counts["factorizations"] == before


class TestObjectiveGradient:
    def test_zero_load_zero_gradient(self):
        model = make_cantilever_model(load=0.0)
        rho = np.full(model.mesh.n_el, 0.5)
        u = rest_state(model)
        lam = np.zeros(model.mesh.n_free)
        grad = objective_gradient(model, rho, 3.0, u, lam)
        assert np.all(grad == 0.0)

    def test_fd_check_on_cantilever(self):
        model = make_cantilever_model()
        mesh = model.mesh
        rng = np.random.default_rng(0)
        rho = rng.uniform(0.3, 1.0, mesh.n_el)
        p = 3.0

        def objective(r):
            u, _ = converge(model, r, p, tol=1e-11)
            return float(model.f_free @ u.u)

        u, ctx = converge(model, rho, p, tol=1e-11)
        lam = solve_adjoint(model, rho, p, u, model.f_free, Strategy.N, ctx)
        grad = objective_gradient(model, rho, p, u, lam)
        h = 1e-6
        for e in (0, 13, 29, 40):
            hi, lo = rho.copy(), rho.copy()
            hi[e] += h
            lo[e] -= h
            fd = (objective(hi) - objective(lo)) / (2 * h)
            assert fd == pytest.approx(grad[e], rel=1e-4, abs=1e-10)

    def test_translation_invariant_adjoint_weighting(self):
        # with p = 1 and a spatially uniform strain state, gradient entries
        # are equal because rigid translations are in G's null space
        mesh = build_grid(2, 1, 2.0, 1.0, 1.0)
        model = FeModel(mesh, LoadCase(), MaterialParams(100.0, 0.3))
        alpha, beta = 0.02, 0.5
        u_full = np.zeros(mesh.n_dof)
        u_full[0::2] = alpha * mesh.nodes[:, 0]
        lam_full = np.zeros(mesh.n_dof)
        lam_full[0::2] = beta * mesh.nodes[:, 0]
        rho = np.array([0.7, 0.7])
        grad = objective_gradient(model, rho, 1.0,
                                  model.state(mesh.gather(u_full)),
                                  mesh.gather(lam_full))
        assert grad[0] == pytest.approx(grad[1], rel=1e-12)
