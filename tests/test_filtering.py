import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import filter_matrix

from icatop import bench
from icatop.filtering import KERNELS, build_filter
from icatop.mesh import build_grid


def dense_operator(filt, n):
    """The filter as a dense matrix, one column per unit design density."""
    return np.column_stack([filt.apply(e) for e in np.eye(n)])


def test_tiny_radius_is_identity():
    mesh = build_grid(5, 4, 5.0, 4.0, 1.0)
    filt = build_filter(mesh, 0.5)
    assert np.allclose(dense_operator(filt, 20), np.eye(20), atol=0.0)


def test_rows_sum_to_one():
    mesh = build_grid(12, 7, 6.0, 3.5, 1.0)
    for kernel in ("cone", "gaussian"):
        W = dense_operator(build_filter(mesh, 2.7, kernel), mesh.n_el)
        sums = W.sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-12
        assert W.min() >= 0.0
        assert (W.diagonal() > 0.0).all()


@pytest.mark.parametrize("mesh", [
    build_grid(12, 7, 6.0, 3.5, 1.0),
    build_grid(1, 9, 1.0, 9.0, 1.0),
    build_grid(9, 1, 9.0, 1.0, 1.0),
    build_grid(3, 2, 3.0, 2.0, 1.0),      # smaller than a radius-5 kernel
    build_grid(7, 4, 7.0, 2.0, 1.0),      # elements twice as wide as high
], ids=["12x7", "strip_1x9", "strip_9x1", "3x2", "7x4_nonsquare"])
@pytest.mark.parametrize("radius", [0.0, 0.5, 1.5, 2.7, 5.0])
@pytest.mark.parametrize("kernel", KERNELS)
def test_matches_sparse_oracle(mesh, radius, kernel):
    filt = build_filter(mesh, radius, kernel)
    W = filter_matrix(mesh, radius, kernel)
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.uniform(-1.0, 1.0, mesh.n_el)
        y = rng.standard_normal(mesh.n_el)
        want = W @ x
        assert np.abs(filt.apply(x) - want).max() <= 1e-13 * np.abs(want).max()
        want = W.T @ y
        assert (np.abs(filt.backpropagate(y) - want).max()
                <= 1e-13 * np.abs(want).max())


def test_build_keeps_and_peaks_small():
    # the perfbench mesh: 10,000 elements, a radius-5 kernel
    problem = bench.build("cantilever", mesh=(200, 50))
    assert problem.filter_radius_elements == 5.0
    build_filter(problem.mesh, 5.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        filt = build_filter(problem.mesh, 5.0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept - base < 1_000_000
    assert peak - base < 2_000_000
    assert filt.apply(np.ones(10_000)) == pytest.approx(1.0, rel=1e-14)


def test_uniform_field_unchanged():
    mesh = build_grid(10, 10, 10.0, 10.0, 1.0)
    filt = build_filter(mesh, 3.0)
    rho = np.full(100, 0.37)
    assert np.abs(filt.apply(rho) - 0.37).max() <= 1e-13


def test_three_element_row_by_hand():
    # 3x1 mesh, radius 1.5 elements: cone weights (1/3, 1, 1/3), equal
    # volumes, so the middle row is (0.2, 0.6, 0.2)
    mesh = build_grid(3, 1, 3.0, 1.0, 1.0)
    W = dense_operator(build_filter(mesh, 1.5), 3)
    assert np.allclose(W[1], [0.2, 0.6, 0.2], rtol=1e-14)
    # edge rows renormalize over the clipped neighborhood
    assert np.allclose(W[0], [1 / (4 / 3), (1 / 3) / (4 / 3), 0.0], rtol=1e-14)


def test_adjoint_identity():
    mesh = build_grid(8, 5, 8.0, 5.0, 1.0)
    filt = build_filter(mesh, 2.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        lhs = filt.apply(x) @ y
        rhs = x @ filt.backpropagate(y)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_bounds_preserved(seed):
    mesh = build_grid(6, 4, 6.0, 4.0, 1.0)
    filt = build_filter(mesh, 1.8)
    rng = np.random.default_rng(seed)
    rho = rng.uniform(1e-3, 1.0, 24)
    out = filt.apply(rho)
    assert out.min() >= 1e-3 - 1e-15
    assert out.max() <= 1.0 + 1e-15


def test_gradient_chain_through_filter():
    """FD of a composed objective w.r.t. design densities matches the
    backpropagated gradient."""
    from conftest import make_cantilever_model, rest_state
    from icatop.nonlinear import Strategy, newton_solve
    from icatop.reanalysis import ReanalysisContext
    from icatop.sensitivity import objective_gradient, solve_adjoint

    model = make_cantilever_model(nx=6, ny=2, load=-20.0)
    mesh = model.mesh
    filt = build_filter(mesh, 1.5)
    l_free = -model.f_free * 0 + model.f_free   # compliance selector
    rng = np.random.default_rng(1)
    rho_d = rng.uniform(0.3, 0.9, mesh.n_el)
    p = 3.0

    def objective(rd):
        rho = filt.apply(rd)
        ctx = ReanalysisContext()
        u, _ = newton_solve(model, rho, p, rest_state(model),
                            Strategy.N, ctx, 1, tol=1e-11)
        return float(l_free @ u.u)

    rho = filt.apply(rho_d)
    ctx = ReanalysisContext()
    u, _ = newton_solve(model, rho, p, rest_state(model),
                        Strategy.N, ctx, 1, tol=1e-11)
    lam = solve_adjoint(model, rho, p, u, l_free, Strategy.N, ctx)
    grad = filt.backpropagate(objective_gradient(model, rho, p, u, lam))

    h = 1e-6
    for e in (0, 5, 11):
        hi, lo = rho_d.copy(), rho_d.copy()
        hi[e] += h
        lo[e] -= h
        fd = (objective(hi) - objective(lo)) / (2 * h)
        assert abs(fd - grad[e]) <= 1e-4 * (1.0 + abs(grad[e]))


def test_validation():
    mesh = build_grid(3, 3, 3.0, 3.0, 1.0)
    with pytest.raises(ValueError):
        build_filter(mesh, -1.0)
    for radius in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"got {radius}"):
            build_filter(mesh, radius)
    with pytest.raises(ValueError):
        build_filter(mesh, 1.0, kernel="boxcar")
    filt = build_filter(mesh, 1.0)
    with pytest.raises(ValueError):
        filt.apply(np.zeros(5))
    with pytest.raises(ValueError):
        filt.backpropagate(np.zeros(5))
