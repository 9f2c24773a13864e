import dataclasses
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (full_csr, linear_rest_state, make_cantilever_model,
                      random_positive_state, rest_state)
from icatop import assembly, bench
from icatop.assembly import FeModel
from icatop.errors import NonPositiveJacobianError
from icatop.material import MaterialParams, gauss_shape_gradients
from icatop.mesh import LoadCase, Mesh, build_grid, fix_region
from icatop.sparse import BandPlan
from reference import (deformation_gradient, element_internal_force,
                       element_tangent, energy_many, potential_energy,
                       small_strain_stiffness)

MAT = MaterialParams(3000.0, 0.4)


def q4_stiffness_oracle(ew, eh, t, E, nu):
    """Independent small-strain Q4 element stiffness via the engineering
    B-matrix formulation."""
    C = E / ((1 + nu) * (1 - 2 * nu)) * np.array([
        [1 - nu, nu, 0.0],
        [nu, 1 - nu, 0.0],
        [0.0, 0.0, (1 - 2 * nu) / 2.0]])
    K = np.zeros((8, 8))
    for xi in (-1 / np.sqrt(3), 1 / np.sqrt(3)):
        for eta in (-1 / np.sqrt(3), 1 / np.sqrt(3)):
            dN_dxi = 0.25 * np.array([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)])
            dN_deta = 0.25 * np.array([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)])
            dN_dX = dN_dxi * 2.0 / ew
            dN_dY = dN_deta * 2.0 / eh
            B = np.zeros((3, 8))
            B[0, 0::2] = dN_dX
            B[1, 1::2] = dN_dY
            B[2, 0::2] = dN_dY
            B[2, 1::2] = dN_dX
            K += B.T @ C @ B * (ew * eh / 4.0) * t
    return K


class TestElementOperations:
    def test_unpenalized_at_rho_one(self):
        u_e = 0.01 * np.arange(8.0)
        a = element_tangent(1.0, 3.0, u_e, 2.0, 1.0, 1.0, MAT)
        b = element_tangent(1.0, 7.0, u_e, 2.0, 1.0, 1.0, MAT)
        assert np.array_equal(a, b)

    def test_simp_scaling(self):
        rng = np.random.default_rng(0)
        u_e = 0.02 * rng.standard_normal(8)
        base = element_tangent(1.0, 3.0, u_e, 2.0, 1.0, 1.0, MAT)
        for rho in (0.2, 0.77):
            scaled = element_tangent(rho, 3.0, u_e, 2.0, 1.0, 1.0, MAT)
            assert np.allclose(scaled, rho ** 3 * base, rtol=1e-14)

    def test_zero_displacement_matches_q4_oracle(self):
        Ke = element_tangent(1.0, 3.0, np.zeros(8), 10.0, 7.5, 2.0, MAT)
        Ko = q4_stiffness_oracle(10.0, 7.5, 2.0, MAT.E, MAT.nu)
        assert np.allclose(Ke, Ko, rtol=1e-12, atol=1e-12 * np.abs(Ko).max())

    def test_zero_displacement_zero_force(self):
        f = element_internal_force(0.7, 3.0, np.zeros(8), 2.0, 1.0, 1.0, MAT)
        assert np.all(f == 0.0)

    def test_force_is_energy_gradient(self):
        rng = np.random.default_rng(1)
        u_e = 0.05 * rng.standard_normal(8)
        G = gauss_shape_gradients(2.0, 1.0)

        def energy(u):
            W = 0.0
            for qp in range(4):
                F, _ = deformation_gradient(G[qp], u)
                W += energy_many(F[None], MAT)[0]
            return 0.55 ** 3 * W * (2.0 * 1.0 / 4.0) * 1.0

        f = element_internal_force(0.55, 3.0, u_e, 2.0, 1.0, 1.0, MAT)
        h = 5e-7
        for k in range(8):
            d = np.zeros(8)
            d[k] = h
            fd = (energy(u_e + d) - energy(u_e - d)) / (2 * h)
            assert abs(f[k] - fd) <= 1e-6 * (1.0 + abs(f[k]))

    def test_tangent_is_force_jacobian(self):
        rng = np.random.default_rng(2)
        u_e = 0.05 * rng.standard_normal(8)
        K = element_tangent(0.8, 2.0, u_e, 2.0, 1.0, 1.0, MAT)
        h = 2e-6
        for k in range(8):
            d = np.zeros(8)
            d[k] = h
            fd = (element_internal_force(0.8, 2.0, u_e + d, 2.0, 1.0, 1.0, MAT)
                  - element_internal_force(0.8, 2.0, u_e - d, 2.0, 1.0, 1.0, MAT)) / (2 * h)
            assert np.abs(K[:, k] - fd).max() <= 1e-5 * (1.0 + np.abs(K[:, k]).max())

    def test_nonpositive_jacobian_propagates(self):
        u_e = np.zeros(8)
        u_e[0::2] = [0.0, -2.5, -2.5, 0.0]      # collapses the element
        with pytest.raises(NonPositiveJacobianError):
            element_tangent(1.0, 3.0, u_e, 1.0, 1.0, 1.0, MAT)


def assert_pattern_matches_full_keys(model):
    """Pattern, element map, band order and tangent of ``model`` against
    one np.unique over all 64 keys of every element."""
    mesh, n = model.mesh, model.mesh.n_free
    elem_free = mesh.full_to_free[mesh.elem_dofs]            # -1 fixed
    at = np.where(elem_free >= 0, elem_free, n)
    # the element map the model reads off its stencil, in C order
    assert np.array_equal(model._fidx, at)
    assert model._fidx.flags.c_contiguous
    rows = np.repeat(elem_free, 8, axis=1).ravel()
    cols = np.tile(elem_free, (1, 8)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    full = np.unique(rows[keep] * n + cols[keep])
    ref_rows, ref_cols = np.divmod(full, n) if n else (full, full)
    # the stored keys: the upper triangle, the diagonal first in each row
    upper = full[ref_rows <= ref_cols]
    up_rows, up_cols = np.divmod(upper, n) if n else (upper, upper)
    rho = np.full(mesh.n_el, 0.5)
    K = model.tangent(rho, 3.0, rest_state(model))
    assert model._n_upper == upper.size
    assert np.array_equal(K.indptr, np.searchsorted(up_rows, np.arange(n + 1)))
    assert np.array_equal(K.indices, up_cols)
    assert np.array_equal(K.indices[K.indptr[:-1]], np.arange(n))
    # every element entry on two free DOFs lands on its upper key, the
    # others in the dropped bin
    i, j = (elem_free[:, k] for k in assembly._UPPER)
    kept = (i >= 0) & (j >= 0)
    uidx = model._uidx.reshape(kept.shape)
    assert np.array_equal(uidx[kept], np.searchsorted(
        upper, np.minimum(i, j)[kept] * n + np.maximum(i, j)[kept]))
    assert (uidx[~kept] == model._n_upper).all()
    # the band order: longer grid axis, shorter axis, component
    node, comp = np.divmod(mesh.free, 2)
    iy, ix = np.divmod(node, mesh.nx + 1)
    keys = (comp, iy, ix) if mesh.nx >= mesh.ny else (comp, ix, iy)
    assert np.array_equal(model.plan.perm, np.lexsort(keys))
    # values: a dense scatter of the element entries, then the springs
    ke = np.zeros((mesh.n_el, 8, 8))
    ke[:, assembly._UPPER[0], assembly._UPPER[1]] = \
        ke[:, assembly._UPPER[1], assembly._UPPER[0]] = \
        0.5 ** 3 * model.upper_element_tangents(np.zeros(n))
    dense = np.zeros((n + 1, n + 1))
    np.add.at(dense, (at[:, :, None], at[:, None, :]), ke)
    dense = dense[:n, :n] + np.diag(model.spring_free)
    assert np.array_equal(full_csr(K).toarray(), dense)


@settings(max_examples=40, deadline=None)
@example(nx=1, ny=1, bits=2 ** 98 - 1)           # every DOF fixed
@example(nx=6, ny=6, bits=2 ** 98 - 1)
@given(nx=st.integers(1, 6), ny=st.integers(1, 6),
       bits=st.integers(0, 2 ** 98 - 1))
def test_pattern_matches_full_keys_on_any_supports(nx, ny, bits):
    # bit k of ``bits`` fixes DOF k (a 6x6 grid has 98 DOFs)
    mesh = build_grid(nx, ny, 2.0 * nx, 1.0 * ny, 1.0)
    fixed = np.array([(bits >> k) & 1 for k in range(mesh.n_dof)], dtype=bool)
    mesh = replace(mesh, fixed=fixed)
    assert_pattern_matches_full_keys(FeModel(mesh, LoadCase(), MAT))


@settings(max_examples=40, deadline=None)
@example(nx=1, ny=1, bits=2 ** 98 - 1)           # every DOF fixed
@example(nx=6, ny=6, bits=0)                     # every DOF free
# both node columns of the first element column clamped: its elements
# read the zero slot alone
@example(nx=5, ny=3, bits=sum(3 << 2 * (6 * iy + ix)
                              for iy in range(4) for ix in range(2)))
@given(nx=st.integers(1, 6), ny=st.integers(1, 6),
       bits=st.integers(0, 2 ** 98 - 1))
def test_element_values_match_scatter_on_any_supports(nx, ny, bits):
    # bit k of ``bits`` fixes DOF k, as in the pattern test above
    mesh = build_grid(nx, ny, 2.0 * nx, 1.0 * ny, 1.0)
    fixed = np.array([(bits >> k) & 1 for k in range(mesh.n_dof)], dtype=bool)
    mesh = replace(mesh, fixed=fixed)
    model = FeModel(mesh, LoadCase(), MAT)
    v = np.random.default_rng(bits).standard_normal(mesh.n_free)
    assert np.array_equal(model.element_values(v),
                          mesh.scatter(v)[mesh.elem_dofs])


@pytest.mark.parametrize("extra", [-1, 1])
def test_element_values_reject_a_vector_of_another_length(extra):
    # one entry too many would otherwise be read as the fixed-DOF slot
    model = make_cantilever_model()
    with pytest.raises(ValueError, match="expected length"):
        model.element_values(np.ones(model.mesh.n_free + extra))
    with pytest.raises(ValueError, match="expected length"):
        model.state(np.ones(model.mesh.n_free + extra))


def test_model_build_peaks_small():
    # the perfbench mesh, 20,400 free DOFs: the pattern is read off the
    # node stencil; a sort and transpose of the element keys peaks at 36 MiB,
    # and storing both triangles of the tangent at 19 MiB
    problem = bench.build("cantilever", mesh=(200, 50))
    FeModel(problem.mesh, problem.loads, problem.material)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        FeModel(problem.mesh, problem.loads, problem.material)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 16 * 2 ** 20


def test_model_build_leaves_the_mesh_its_grid():
    # the model reads its element map off the pattern's stencil, so no
    # connectivity or DOF map of the mesh stays cached on it
    problem = bench.build("cantilever", mesh=(200, 50))
    FeModel(problem.mesh, problem.loads, problem.material)
    assert set(vars(problem.mesh)) \
        == {f.name for f in dataclasses.fields(Mesh)} | {"free"}


def test_every_tangent_carries_the_models_plan(cantilever_model):
    model = cantilever_model
    assert "plan" not in vars(model)        # built on first assembly
    rho, u = random_positive_state(model)
    tangents = [model.tangent(rho, 3.0, rest_state(model)),
                model.tangent(rho, 3.0, model.state(u)),
                model.tangent(rho, 1.0, linear_rest_state(model))]
    assert all(K.plan is model.plan for K in tangents)
    assert model.plan.n == model.mesh.n_free


class TestGlobalAssembly:
    def test_residual_at_zero_is_minus_load(self, cantilever_model):
        model = cantilever_model
        rho = np.full(model.mesh.n_el, 0.6)
        r = model.residual(rho, 3.0, rest_state(model))
        assert np.array_equal(r, -model.f_free)

    def test_small_displacement_force_is_linear(self, cantilever_model):
        # at |grad u| ~ 1e-9 the force is the small-strain force up to
        # O(1e-9) relative; a stress formed as F - F^-T would lose about
        # eps / 1e-9 ~ 1e-7 of it to cancellation against the identity
        model = cantilever_model
        rng = np.random.default_rng(12)
        u = 1e-9 * model.mesh.elem_w * rng.standard_normal(model.mesh.n_free)
        u_e = model.mesh.scatter(u)[model.mesh.elem_dofs]
        linear = u_e @ small_strain_stiffness(model)
        q = model.element_internal_forces(u)
        assert np.abs(q - linear).max() <= 1e-8 * np.abs(linear).max()

    @pytest.mark.parametrize("name", ["cantilever", "inverter"])
    def test_small_strain_stiffness_is_the_tangent_at_rest(self, name):
        # linear mode reads the tangent kernel at u = 0, bit for bit; its
        # states carry that one element tangent as a read-only view
        problem = bench.desk(name)
        model = FeModel(problem.mesh, problem.loads, problem.material)
        rho = np.random.default_rng(4).uniform(1e-3, 1.0, problem.mesh.n_el)
        linear = linear_rest_state(model)
        assert np.shares_memory(linear.tangents, model.rest_tangent)
        assert not linear.tangents.flags.writeable
        for p in (1.0, 1.1, 3.0):
            assert np.array_equal(
                model.tangent(rho, p, linear).data,
                model.tangent(rho, p, rest_state(model)).data)

    def test_single_element_tangent_matches_global(self, monkeypatch):
        # the closed-form kernel against element_tangent, element by element;
        # blocks of 7 split the 18-element meshes into 7 + 7 + 4
        monkeypatch.setattr(assembly, "BLOCK_ELEMENTS", 7)
        for nx, ny in ((1, 1), (6, 3), (3, 6)):
            mesh = build_grid(nx, ny, 2.0 * nx, 1.0 * ny, 1.5)
            mesh = fix_region(mesh, lambda x, y: x <= 1e-12, axes="both")
            model = FeModel(mesh, LoadCase(), MAT)
            rho, u = random_positive_state(model, seed=10 * nx + ny)
            scale = rho ** 3.0
            u_full = mesh.scatter(u)
            ke = model.rest_tangent[assembly._POS]
            oracle = np.zeros((mesh.n_free, mesh.n_free))
            linear = np.zeros_like(oracle)
            for e, dofs in enumerate(mesh.elem_dofs):
                keep = mesh.full_to_free[dofs] >= 0
                idx = mesh.full_to_free[dofs][keep]
                at, local = np.ix_(idx, idx), np.ix_(keep, keep)
                Ke = element_tangent(rho[e], 3.0, u_full[dofs], 2.0, 1.0, 1.5,
                                     MAT)
                oracle[at] += Ke[local]
                linear[at] += scale[e] * ke[local]
            K = full_csr(model.tangent(rho, 3.0, model.state(u))).toarray()
            assert np.abs(K - oracle).max() <= 1e-12 * np.abs(oracle).max()
            KL = full_csr(model.tangent(rho, 3.0, linear_rest_state(model)))
            assert abs(KL - KL.T).max() == 0.0
            assert np.array_equal(KL.toarray(), linear)

    def test_blocked_internal_forces_match_element_sum(self, monkeypatch):
        monkeypatch.setattr(assembly, "BLOCK_ELEMENTS", 7)
        for nx, ny in ((6, 3), (3, 6)):
            mesh = build_grid(nx, ny, 2.0 * nx, 1.0 * ny, 1.5)
            mesh = fix_region(mesh, lambda x, y: x <= 1e-12, axes="both")
            model = FeModel(mesh, LoadCase(), MAT)
            rho, u = random_positive_state(model, seed=nx + 10 * ny)
            u_full = mesh.scatter(u)
            q = model.element_internal_forces(u)
            oracle = np.zeros(mesh.n_dof)
            for e, dofs in enumerate(mesh.elem_dofs):
                fe = element_internal_force(rho[e], 3.0, u_full[dofs], 2.0,
                                            1.0, 1.5, MAT)
                assert np.abs(rho[e] ** 3.0 * q[e] - fe).max() \
                    <= 1e-12 * np.abs(fe).max()
                oracle[dofs] += fe
            # no loads and no springs: the residual is the internal force
            f_int = model.residual(rho, 3.0, model.state(u))
            assert np.abs(f_int - mesh.gather(oracle)).max() \
                <= 1e-12 * np.abs(oracle).max()

    def test_collapse_in_last_block_names_global_element(self, monkeypatch):
        monkeypatch.setattr(assembly, "BLOCK_ELEMENTS", 7)
        mesh = build_grid(6, 3, 12.0, 3.0, 1.0)
        mesh = fix_region(mesh, lambda x, y: x <= 1e-12, axes="both")
        model = FeModel(mesh, LoadCase(), MAT)
        # the top-right corner node belongs to the last element alone;
        # pulling it past the opposite corner inverts that element only
        full = np.zeros(mesh.n_dof)
        corner = mesh.node_id(6, 3)
        full[2 * corner:2 * corner + 2] = [-6.0, -3.0]
        G = gauss_shape_gradients(2.0, 1.0)
        collapsed = [e for e, dofs in enumerate(mesh.elem_dofs)
                     if min(deformation_gradient(G[q], full[dofs])[1]
                            for q in range(4)) <= 0.0]
        assert collapsed == [mesh.n_el - 1] and mesh.n_el - 1 >= 14
        u = mesh.gather(full)
        for kernel in (model.element_internal_forces,
                       model.upper_element_tangents):
            with pytest.raises(NonPositiveJacobianError) as err:
                kernel(u)
            assert err.value.element == mesh.n_el - 1

    @pytest.mark.parametrize("name, nx, ny, spring", [
        pytest.param(None, 6, 3, 0.0, id="6-3-0.0"),
        pytest.param(None, 3, 6, 0.0, id="3-6-0.0"),
        pytest.param(None, 12, 4, 7.5, id="12-4-7.5"),
        *(pytest.param(name, nx, ny, spring,
                       id=f"{name}-{nx}x{ny}-{spring}")
          for name in bench.BUILDERS
          for nx, ny in ((1, 1), (1, 4), (4, 1), (7, 13), (13, 7))
          for spring in (0.0, 7.5))])
    def test_upper_first_pattern_matches_full_key_pattern(self, name, nx, ny,
                                                          spring):
        if name is None:
            model = make_cantilever_model(nx=nx, ny=ny, spring=spring)
        else:
            # the builder itself: bench.build rejects a mesh with no free
            # DOF (slender 1x1), the model must still build its pattern
            prob = bench.BUILDERS[name](mesh=(nx, ny))
            loads = LoadCase(list(prob.loads.point_loads))
            if spring and prob.mesh.n_free:
                loads.add_spring(*divmod(int(prob.mesh.free[-1]), 2), spring)
            model = FeModel(prob.mesh, loads, prob.material)
        assert_pattern_matches_full_keys(model)

    def test_tangent_is_residual_jacobian(self, cantilever_model):
        model = cantilever_model
        rho, u = random_positive_state(model, seed=3)
        K = model.tangent(rho, 3.0, model.state(u))
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(20):
            w = rng.standard_normal(model.mesh.n_free)
            w /= np.linalg.norm(w)
            fd = (model.residual(rho, 3.0, model.state(u + h * w))
                  - model.residual(rho, 3.0, model.state(u - h * w))) / (2 * h)
            Kw = K.matvec(w)
            assert np.abs(Kw - fd).max() <= 1e-5 * (1.0 + np.abs(Kw).max())

    def test_tangent_exactly_symmetric(self, cantilever_model):
        model = cantilever_model
        rho, u = random_positive_state(model, seed=5)
        K = model.tangent(rho, 3.0, model.state(u))
        rows = np.repeat(np.arange(K.n), np.diff(K.indptr))
        assert (rows <= K.indices).all()        # each pair stored once
        A = full_csr(K)
        assert abs(A - A.T).max() == 0.0

    def test_residual_is_potential_gradient(self, cantilever_model):
        model = cantilever_model
        rho, u = random_positive_state(model, seed=6)
        r = model.residual(rho, 3.0, model.state(u))
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(10):
            w = rng.standard_normal(model.mesh.n_free)
            w /= np.linalg.norm(w)
            fd = (potential_energy(model, rho, 3.0, u + h * w)
                  - potential_energy(model, rho, 3.0, u - h * w)) / (2 * h)
            assert abs(fd - r @ w) <= 1e-6 * (1.0 + abs(r @ w))

    def test_spring_terms(self):
        model = make_cantilever_model(nx=4, ny=2, load=-5.0, spring=7.5)
        mesh = model.mesh
        rho = np.full(mesh.n_el, 1e-3)
        K = model.tangent(rho, 3.0, rest_state(model))
        i = mesh.full_to_free[2 * mesh.node_id(4, 1) + 1]
        # spring appears exactly once on the diagonal
        bare = make_cantilever_model(nx=4, ny=2, load=-5.0)
        K0 = bare.tangent(rho, 3.0, rest_state(bare))
        diff = K.to_csr().diagonal() - K0.to_csr().diagonal()
        expect = np.zeros(mesh.n_free)
        expect[i] = 7.5
        assert np.array_equal(diff, expect)
        # and contributes k*u to the residual
        rng = np.random.default_rng(8)
        u = 0.01 * rng.standard_normal(mesh.n_free)
        delta_r = (model.residual(rho, 3.0, model.state(u))
                   - bare.residual(rho, 3.0, bare.state(u)))
        expect_r = np.zeros(mesh.n_free)
        expect_r[i] = 7.5 * u[i]
        assert np.allclose(delta_r, expect_r, rtol=1e-12, atol=1e-12)

    def test_element_failure_names_element(self, cantilever_model):
        model = cantilever_model
        # crush one interior element by huge opposing displacements
        mesh = model.mesh
        n0 = mesh.elems[20]
        full = np.zeros(mesh.n_dof)
        full[2 * n0[0]] = 50.0
        full[2 * n0[1]] = -50.0
        with pytest.raises(NonPositiveJacobianError) as err:
            model.state(mesh.gather(full))
        assert err.value.element is not None


@settings(max_examples=30, deadline=None)
@given(nx=st.integers(1, 6), ny=st.integers(1, 4),
       elem_w=st.floats(0.4, 3.0), elem_h=st.floats(0.4, 3.0),
       scale=st.floats(0.01, 0.6), seed=st.integers(0, 2 ** 32 - 1))
def test_gemm_kernels_match_element_oracles(nx, ny, elem_w, elem_h, scale,
                                            seed):
    # both block kernels against the per-element loops of reference.py,
    # on states with det F > 0 and in blocks of 7, so most meshes split
    mesh = build_grid(nx, ny, elem_w * nx, elem_h * ny, 1.3)
    mesh = fix_region(mesh, lambda x, y: x <= 1e-12, axes="both")
    model = FeModel(mesh, LoadCase(), MAT)
    G = gauss_shape_gradients(mesh.elem_w, mesh.elem_h)
    rng = np.random.default_rng(seed)
    u = scale * min(mesh.elem_w, mesh.elem_h) \
        * rng.standard_normal(mesh.n_free)
    while min(deformation_gradient(G[q], mesh.scatter(u)[dofs])[1]
              for dofs in mesh.elem_dofs for q in range(4)) <= 0.0:
        u *= 0.5
    u_full = mesh.scatter(u)
    zero = np.zeros(mesh.n_free)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "BLOCK_ELEMENTS", 7)
        K, q = model.upper_element_tangents(u), model.element_internal_forces(u)
        K0 = model.upper_element_tangents(zero)
        q0 = model.element_internal_forces(zero)
    upper = np.triu_indices(8)
    args = (mesh.elem_w, mesh.elem_h, mesh.thickness, MAT)
    for e, dofs in enumerate(mesh.elem_dofs):
        Ke = element_tangent(1.0, 1.0, u_full[dofs], *args)
        assert np.abs(K[e] - Ke[upper]).max() <= 1e-12 * np.abs(Ke).max()
        fe = element_internal_force(1.0, 1.0, u_full[dofs], *args)
        assert np.abs(q[e] - fe).max() <= 1e-12 * np.abs(fe).max()
    # the reference state: no force at all, and the small-strain tangent
    assert np.all(q0 == 0.0)
    ke = small_strain_stiffness(model)[upper]
    assert np.abs(K0 - ke).max() <= 1e-14 * np.abs(ke).max()


def density_derivative(model, e, rho, p, u):
    """d(residual)/d(rho_e) from the element force kernel the objective
    gradient uses: p rho_e^(p-1) q_e on the element's free DOFs."""
    q = model.element_internal_forces(u)[e]
    free = model.mesh.full_to_free[model.mesh.elem_dofs[e]]
    keep = free >= 0
    return free[keep], (p * rho[e] ** (p - 1.0) * q)[keep]


class TestDensityDerivative:
    def test_zero_state_gives_zero(self, cantilever_model):
        model = cantilever_model
        rho = np.full(model.mesh.n_el, 0.5)
        idx, vals = density_derivative(model, 7, rho, 3.0,
                                       np.zeros(model.mesh.n_free))
        assert np.all(vals == 0.0)

    def test_matches_fd(self, cantilever_model):
        model = cantilever_model
        rho, u = random_positive_state(model, seed=10)
        state = model.state(u)
        h = 1e-6
        for e in (0, 17, 31):
            idx, vals = density_derivative(model, e, rho, 3.0, u)
            hi, lo = rho.copy(), rho.copy()
            hi[e] += h
            lo[e] -= h
            fd = (model.residual(hi, 3.0, state)
                  - model.residual(lo, 3.0, state)) / (2 * h)
            dense = np.zeros(model.mesh.n_free)
            dense[idx] = vals
            assert np.abs(dense - fd).max() <= 1e-6 * (1.0 + np.abs(vals).max())
            # sparse support: nothing outside the element's DOFs
            mask = np.ones(model.mesh.n_free, dtype=bool)
            mask[idx] = False
            assert np.abs(fd[mask]).max() <= 1e-9 * (1.0 + np.abs(vals).max())

    def test_p_equal_one_is_density_independent(self, cantilever_model):
        model = cantilever_model
        rho, u = random_positive_state(model, seed=11)
        other = np.clip(rho * 0.5, 1e-3, 1.0)
        _, a = density_derivative(model, 12, rho, 1.0, u)
        _, b = density_derivative(model, 12, other, 1.0, u)
        assert np.array_equal(a, b)

