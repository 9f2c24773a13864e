"""End-to-end acceptance suite.

Each test prints one PASS line when its criterion holds; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  The strategy
matrix (seven strategies on two desk problems, 100-iteration budget) is
shared between the equivalence, accounting, economy, and feasibility
criteria through a session fixture.
"""

import time

import numpy as np
import pytest

from icatop import bench
from icatop.assembly import FeModel
from icatop.material import MaterialParams
from icatop.nonlinear import (Strategy, linear_equilibrium, newton_solve,
                              predicted_factorizations)
from icatop.optimizer import OptimizerConfig, optimize, slp_subproblem
from icatop.reanalysis import ReanalysisContext, estimate_norm_B, ica_solve
from icatop.sensitivity import objective_gradient, solve_adjoint
from icatop.sparse import SparseSym
from reference import energy_many, pk1_many, tangent_many

ALL_STRATEGIES = [Strategy.N, Strategy.MN, Strategy.UPK1, Strategy.UPK1G,
                  Strategy.UPK100, Strategy.UPK100G, Strategy.UPK03K100G]


def announce(number, detail):
    print(f"\nACCEPTANCE {number}: PASS - {detail}")


@pytest.fixture(scope="session")
def strategy_matrix():
    """Seven strategies on the desk cantilever and inverter, budget 100."""
    t0 = time.perf_counter()
    runs = {}
    for pname in ("cantilever", "inverter"):
        prob = bench.desk(pname)
        runs[pname] = {}
        for strat in ALL_STRATEGIES:
            cfg = OptimizerConfig(strategy=strat, budget=100)
            runs[pname][strat] = optimize(prob, cfg)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0, f"strategy matrix took {elapsed:.0f}s"
    return runs, elapsed


def test_criterion_1_material_consistency():
    t0 = time.perf_counter()
    mat = MaterialParams(3000.0, 0.4)
    rng = np.random.default_rng(2024)
    assert np.all(pk1_many(np.eye(2)[None], mat)[0] == 0.0)

    def fd_stress(F, h=5e-6):
        out = np.zeros(4)
        for k in range(4):
            d = np.zeros(4)
            d[k] = h
            out[k] = (energy_many((F + d.reshape(2, 2))[None], mat)[0]
                      - energy_many((F - d.reshape(2, 2))[None], mat)[0]) / (2 * h)
        return out

    def fd_tangent(F, h=5e-6):
        out = np.zeros((4, 4))
        for k in range(4):
            d = np.zeros(4)
            d[k] = h
            out[:, k] = (pk1_many((F + d.reshape(2, 2))[None], mat)[0]
                         - pk1_many((F - d.reshape(2, 2))[None], mat)[0]) / (2 * h)
        return out

    worst_s = worst_d = 0.0
    count = 0
    while count < 1000:
        F = np.eye(2) + 0.35 * rng.standard_normal((2, 2))
        J = np.linalg.det(F)
        if not 0.5 < J < 2.0:
            continue
        count += 1
        sigma = pk1_many(F[None], mat)[0]
        D = tangent_many(F[None], mat)[0]
        worst_s = max(worst_s, (np.abs(sigma - fd_stress(F))
                                / (1.0 + np.abs(sigma))).max())
        worst_d = max(worst_d, (np.abs(D - fd_tangent(F))
                                / (1.0 + np.abs(D))).max())
    elapsed = time.perf_counter() - t0
    assert worst_s <= 1e-6, worst_s
    assert worst_d <= 1e-5, worst_d
    assert elapsed < 10.0, elapsed
    announce(1, f"1000 states, stress err {worst_s:.2e}, tangent err "
                f"{worst_d:.2e}, sigma(I)=0 exact, {elapsed:.1f}s")


def test_criterion_2_residual_tangent_consistency():
    t0 = time.perf_counter()
    prob = bench.build("cantilever", mesh=(12, 4))
    model = FeModel(prob.mesh, prob.loads, prob.material)
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.2, 1.0, prob.mesh.n_el)
    u = 0.1 * rng.standard_normal(prob.mesh.n_free)
    K = model.tangent(rho, 3.0, u)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        w = rng.standard_normal(prob.mesh.n_free)
        w /= np.linalg.norm(w)
        fd = (model.residual(rho, 3.0, u + h * w)
              - model.residual(rho, 3.0, u - h * w)) / (2 * h)
        Kw = K.matvec(w)
        worst = max(worst, np.abs(Kw - fd).max() / (1.0 + np.abs(Kw).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-5, worst
    assert elapsed < 30.0, elapsed
    announce(2, f"20 directions on 12x4 mesh, err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_ica_contraction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    n = 30
    worst_slack = -np.inf
    for trial in range(100):
        A = rng.standard_normal((n, n))
        K0d = A @ A.T + n * np.eye(n)
        dK = rng.standard_normal((n, n))
        dK = 0.5 * (dK + dK.T)
        target = rng.uniform(0.05, 0.6)
        dK *= target / np.linalg.svd(np.linalg.solve(K0d, dK),
                                     compute_uv=False)[0]
        Kcd = K0d + dK
        K0 = SparseSym.from_dense(K0d)
        Kc = SparseSym(n, K0.indptr, K0.indices,
                       SparseSym.from_dense(Kcd).data)
        ctx = ReanalysisContext(K0)
        ctx.refresh(Kc)
        normB = np.linalg.svd(np.linalg.solve(K0d, dK), compute_uv=False)[0]
        assert normB < 1.0
        r = rng.standard_normal(n)
        s_star = np.linalg.solve(Kcd, -r)
        # contraction along the whole sweep history
        _, rep = ica_solve(ctx, -r, eps=1e-16, k_max=10, keep_iterates=True)
        errs = [np.linalg.norm(s - s_star) for s in rep.iterates]
        for nxt, cur in zip(errs[1:], errs[:-1]):
            assert nxt <= (normB + 1e-10) * cur + 1e-14
            if cur > 1e-12:
                worst_slack = max(worst_slack, nxt / cur - normB)
        # the returned step satisfies the acceptance residual
        s, rep = ica_solve(ctx, -r, eps=1e-2, k_max=10)
        assert rep.converged and rep.residual < 1e-2
        # zero delta: exact at k = 0
        ctx0 = ReanalysisContext(K0)
        _, rep0 = ica_solve(ctx0, -r, eps=1e-2)
        assert rep0.converged and rep0.iterations == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, elapsed
    announce(3, f"100 systems, contraction slack {worst_slack:.2e} <= 1e-10, "
                f"{elapsed:.1f}s")


def test_criterion_4_adjoint_gradient_fd():
    t0 = time.perf_counter()
    prob = bench.build("cantilever", mesh=(12, 4))
    model = FeModel(prob.mesh, prob.loads, prob.material)
    mesh = prob.mesh
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.3, 1.0, mesh.n_el)
    p = 3.0
    l_free = model.f_free

    # ramp the penalty so the heavily loaded coarse mesh converges from rest
    u0 = np.zeros(mesh.n_free)
    for p_stage in (1.0, 2.0, p):
        ctx = ReanalysisContext()
        u0, _ = newton_solve(model, rho, p_stage, u0, Strategy.N, ctx, 1,
                             tol=1e-10)
    adj = solve_adjoint(model, rho, p, u0, l_free, Strategy.N, ctx)
    grad = objective_gradient(model, rho, p, u0, adj.lam)

    def objective(r, warm):
        c = ReanalysisContext()
        u, _ = newton_solve(model, r, p, warm, Strategy.N, c, 1, tol=1e-10)
        return float(l_free @ u)

    h = 1e-6
    checked = 0
    worst = 0.0
    for e in range(mesh.n_el):
        if abs(grad[e]) <= 1e-8:
            continue
        hi, lo = rho.copy(), rho.copy()
        hi[e] += h
        lo[e] -= h
        fd = (objective(hi, u0) - objective(lo, u0)) / (2 * h)
        rel = abs(fd - grad[e]) / abs(grad[e])
        worst = max(worst, rel)
        checked += 1
        assert rel <= 1e-4, (e, grad[e], fd)
    elapsed = time.perf_counter() - t0
    assert checked >= mesh.n_el // 2
    assert elapsed < 120.0, elapsed
    announce(4, f"{checked} components checked, worst rel err {worst:.2e}, "
                f"{elapsed:.1f}s")


def test_criterion_5_strategy_equivalence(strategy_matrix):
    runs, elapsed = strategy_matrix
    details = []
    for pname, by_strategy in runs.items():
        F_ref = by_strategy[Strategy.N].final_objective
        for strat, hist in by_strategy.items():
            assert not hist.aborted, (pname, strat)
            rel = abs(hist.final_objective - F_ref) / abs(F_ref)
            assert rel <= 0.005, (pname, strat.value, rel)
            assert max(hist.residual_inf) <= 1e-5, (pname, strat.value)
        spread = max(abs(h.final_objective - F_ref) / abs(F_ref)
                     for h in by_strategy.values())
        details.append(f"{pname} spread {spread:.2e}")
    announce(5, "; ".join(details) + f"; matrix wall time {elapsed:.0f}s")


def test_criterion_6_factorization_accounting(strategy_matrix):
    runs, _ = strategy_matrix
    exact_checked = 0
    for pname, by_strategy in runs.items():
        for strat, hist in by_strategy.items():
            if hist.total("fallbacks") == 0:
                predicted = predicted_factorizations(strat, hist.newton_iters)
                assert hist.total("factorizations") == predicted, \
                    (pname, strat.value, hist.total("factorizations"), predicted)
                exact_checked += 1
    assert exact_checked >= 8, "too few fallback-free runs to exercise the check"

    for pname, by_strategy in runs.items():
        mn = by_strategy[Strategy.MN]
        up = by_strategy[Strategy.UPK03K100G]
        bound = mn.total("factorizations") / 3.0 + 6.0
        policy_count = predicted_factorizations(Strategy.UPK03K100G,
                                                up.newton_iters)
        assert policy_count < bound, (pname, policy_count, bound)
        if up.total("fallbacks") == 0:
            assert up.total("factorizations") < bound
    announce(6, f"integer accounting exact on {exact_checked} fallback-free "
                f"runs; sparse policy under the MN/3+6 bound on both problems")


def test_criterion_7_newton_economy(strategy_matrix):
    runs, _ = strategy_matrix
    details = []
    for pname, by_strategy in runs.items():
        for strat in (Strategy.UPK100G, Strategy.UPK03K100G):
            iters = by_strategy[strat].newton_iters[5:]
            frac = sum(1 for n in iters if n <= 10) / len(iters)
            assert frac >= 0.95, (pname, strat.value, frac)
            details.append(f"{pname}/{strat.value} {frac:.0%}")
        tail = by_strategy[Strategy.N].newton_iters[-20:]
        assert max(tail) <= 4, (pname, tail)
        details.append(f"{pname}/N tail max {max(tail)}")
    announce(7, "; ".join(details))


def test_criterion_8_feasibility_and_continuation(strategy_matrix):
    runs, _ = strategy_matrix
    for pname, by_strategy in runs.items():
        prob = bench.desk(pname)
        Vstar = prob.volume_fraction * prob.mesh.n_el * prob.mesh.elem_volume
        for strat, hist in by_strategy.items():
            vol = np.array(hist.volume)
            assert np.abs(vol - Vstar).max() <= 1e-9 * Vstar, (pname, strat)
            assert hist.rho_design.min() >= 1e-3 - 1e-15
            assert hist.rho_design.max() <= 1.0 + 1e-15
            ps = np.array(hist.penalty)
            assert (np.diff(ps) >= 0.0).all()
            assert ps.max() <= 3.0
    cfg = OptimizerConfig()
    assert cfg.penalty_at(200) < 3.0
    assert cfg.penalty_at(201) == 3.0
    assert cfg.penalty_at(10_000) == 3.0
    announce(8, "volume within 1e-9 relative and bounds exact on all 14 runs; "
                "p reaches 3.0 at outer iteration 201 and never exceeds it")


def test_criterion_9_subproblem_oracle():
    from test_optimizer import knapsack_oracle, random_instance
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    bounds = (1e-3, 1.0)
    worst = 0.0
    for _ in range(500):
        grad, rho, move, v, Vstar = random_instance(rng)
        sub = slp_subproblem(grad, rho, move, bounds, v, Vstar)
        achieved = float(grad @ sub.rho_new)
        expect = knapsack_oracle(grad, rho, move, bounds, v, Vstar)
        scale = max(1.0, abs(expect))
        assert achieved <= expect + 1e-10 * scale
        worst = max(worst, (achieved - expect) / scale)
        assert abs(v @ sub.rho_new - Vstar) <= 1e-10 * max(1.0, abs(Vstar))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, elapsed
    announce(9, f"500 instances, objective gap vs oracle <= {worst:.2e}, "
                f"{elapsed:.1f}s")


def test_criterion_10_linear_limit():
    prob = bench.build("cantilever", mesh=(12, 4))
    model = FeModel(prob.mesh, prob.loads, prob.material)
    model.f_free = model.f_free * 1e-6
    rho = np.full(prob.mesh.n_el, 0.5)
    ctx = ReanalysisContext()
    u_nl, _ = newton_solve(model, rho, 3.0, np.zeros(prob.mesh.n_free),
                           Strategy.N, ctx, 1, tol=1e-12)
    u_lin, _ = linear_equilibrium(model, rho, 3.0, ReanalysisContext())
    rel = np.abs(u_nl - u_lin).max() / np.abs(u_lin).max()
    assert rel <= 1e-3, rel
    announce(10, f"scaled-load displacements agree to rel {rel:.2e}")


def test_criterion_11_normB_diagnostic():
    # desk-scale accuracy of the estimator against a dense SVD oracle
    rng = np.random.default_rng(31)
    n = 30
    worst = 0.0
    for _ in range(20):
        A = rng.standard_normal((n, n))
        K0d = A @ A.T + n * np.eye(n)
        dK = rng.standard_normal((n, n))
        dK = 0.5 * (dK + dK.T)
        dK *= rng.uniform(0.1, 2.0) / np.linalg.svd(
            np.linalg.solve(K0d, dK), compute_uv=False)[0]
        K0 = SparseSym.from_dense(K0d)
        Kc = SparseSym(n, K0.indptr, K0.indices,
                       SparseSym.from_dense(K0d + dK).data)
        ctx = ReanalysisContext(K0)
        ctx.refresh(Kc)
        truth = np.linalg.svd(np.linalg.solve(K0d, dK), compute_uv=False)[0]
        est = estimate_norm_B(ctx, iterations=300, rtol=1e-10)
        worst = max(worst, abs(est - truth) / truth)
        assert abs(est - truth) <= 1e-2 * truth

    # monitored slender-beam runs stay finite and converge; the stale
    # reference strategy drives the estimate above one without spoiling
    # the equilibrium accuracy
    prob = bench.desk("slender")
    peaks = {}
    for strat in (Strategy.UPK100G, Strategy.UPK03K100G):
        cfg = OptimizerConfig(strategy=strat, budget=40, monitor_normB=True)
        hist = optimize(prob, cfg)
        assert not hist.aborted
        assert max(hist.residual_inf) <= 1e-5
        traced = [b for b in hist.max_normB if b is not None]
        assert traced, "monitor produced no estimates"
        assert np.isfinite(traced).all()
        peaks[strat.value] = max(traced)
    assert peaks["upK03K100g"] > 1.0
    announce(11, f"estimator within {worst:.2%} of dense SVD; monitored runs "
                 f"converged with finite traces, peak estimates "
                 f"{peaks['upK100g']:.2f} (upK100g) and "
                 f"{peaks['upK03K100g']:.2f} (upK03K100g)")
