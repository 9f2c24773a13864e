from dataclasses import replace

import numpy as np
import pytest

from conftest import rest_state
from icatop import bench, nonlinear
from icatop.nonlinear import Strategy, newton_solve
from icatop.optimizer import OptimizerConfig, optimize
from icatop.reanalysis import ReanalysisContext
from icatop.assembly import FeModel

CANONICAL_CONSTANTS = {
    # name: (n_el, E, nu, thickness, volume fraction, filter radius,
    #        objective, loads [(axis, magnitude)], springs [(axis, k)])
    "cantilever": (40000, 3000.0, 0.4, 1.0, 0.5, 10.0, "compliance",
                   [(1, -120.0)], []),
    "slender": (45000, 3000.0, 0.3, 1.0, 0.2, 5.0, "compliance",
                [(1, -40.0)], []),
    "inverter": (45000, 180.0, 0.3, 7.0, 0.2, 7.5, "mechanism",
                 [(0, 25.0)], [(0, 2.0), (0, 0.5)]),
    "gripper": (51200, 180.0, 0.3, 7.0, 0.2, 5.0, "mechanism",
                [(0, 2.0)], [(0, 0.1), (1, 1.0)]),
}


@pytest.mark.parametrize("name", sorted(CANONICAL_CONSTANTS))
def test_canonical_constants_table(name):
    n_el, E, nu, t, vf, radius, obj, loads, springs = CANONICAL_CONSTANTS[name]
    prob = bench.build(name)
    assert prob.mesh.n_el == n_el
    assert prob.material.E == E
    assert prob.material.nu == nu
    assert prob.mesh.thickness == t
    assert prob.volume_fraction == vf
    assert prob.filter_radius_elements == radius
    assert prob.objective == obj
    assert sorted((a, m) for _, a, m in prob.loads.point_loads) == sorted(loads)
    assert sorted((a, k) for _, a, k in prob.loads.springs) == sorted(springs)


def test_cantilever_scaling():
    canonical = bench.cantilever()
    assert (canonical.mesh.nx, canonical.mesh.ny) == (400, 100)
    desk = bench.desk("cantilever")
    assert (desk.mesh.nx, desk.mesh.ny) == (60, 15)


def test_cantilever_supports_and_load_position():
    prob = bench.build("cantilever", mesh=(40, 10))
    mesh = prob.mesh
    fixed_nodes = np.flatnonzero(mesh.fixed.reshape(-1, 2).any(axis=1))
    assert np.allclose(mesh.nodes[fixed_nodes, 0], 0.0)
    assert fixed_nodes.size == 11
    node, axis, mag = prob.loads.point_loads[0]
    assert mesh.nodes[node, 0] == pytest.approx(120.0)
    assert mesh.nodes[node, 1] == pytest.approx(15.0)
    assert (axis, mag) == (1, -120.0)


def test_slender_refinement_family():
    # the mesh alone gives the family's mesh, with the builder's default
    # radius: 5 elements at the canonical nx = 600, proportional to nx
    for nx, ny in ((200, 25), (400, 50), (600, 75), (800, 100)):
        prob = bench.slender(mesh=(nx, ny))
        assert (prob.mesh.nx, prob.mesh.ny) == (nx, ny)
        assert prob.mesh.n_el == nx * ny
        assert prob.filter_radius_elements == pytest.approx(5.0 * nx / 600)


def test_inverter_symmetry_model():
    prob = bench.build("inverter", mesh=(30, 15))
    mesh = prob.mesh
    # symmetry edge: vertical displacement fixed along the bottom
    bottom = np.flatnonzero(mesh.nodes[:, 1] <= 1e-12)
    assert mesh.fixed[2 * bottom + 1].all()
    # input and output ports on the symmetry line carry halved springs
    springs = {(n, a): k for n, a, k in prob.loads.springs}
    n_in = mesh.node_id(0, 0)
    n_out = mesh.node_id(30, 0)
    assert springs[(n_in, 0)] == 2.0          # half of 4.0
    assert springs[(n_out, 0)] == 0.5         # half of 1.0
    # halved load on the symmetry line
    assert prob.loads.point_loads[0] == (n_in, 0, 25.0)
    # output selector is -1 at the output DOF
    l = prob.output_selector()
    assert l[2 * n_out] == -1.0
    assert np.count_nonzero(l) == 1


def test_gripper_support_band_and_output():
    prob = bench.build("gripper")
    mesh = prob.mesh
    both_fixed = mesh.fixed.reshape(-1, 2).all(axis=1)
    nodes = np.flatnonzero(both_fixed)
    assert np.allclose(mesh.nodes[nodes, 0], 0.0)
    assert mesh.nodes[nodes, 1].min() == pytest.approx(160.0 - 16.0)
    # off-symmetry output spring keeps its full stiffness
    springs = {(n, a): k for n, a, k in prob.loads.springs}
    (out_node, out_axis), = prob.loads.output_dofs
    assert springs[(out_node, out_axis)] == 1.0
    assert out_axis == 1
    assert mesh.nodes[out_node, 0] == pytest.approx(320.0)
    assert mesh.nodes[out_node, 1] == pytest.approx(16.0)


def test_structure_selector_is_load_vector():
    prob = bench.build("slender", mesh=(24, 3))
    assert np.array_equal(prob.output_selector(),
                          prob.loads.force_vector(prob.mesh))


def test_unknown_problem():
    with pytest.raises(ValueError):
        bench.build("bridge")


def test_out_of_range_sizes_rejected():
    for radius in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"filter radius .* got {radius}"):
            bench.build("cantilever", mesh=(12, 4), filter_radius=radius)
    assert bench.build("cantilever", mesh=(12, 4),
                       filter_radius=0.0).filter_radius_elements == 0.0
    with pytest.raises(ValueError, match="mesh 0x4 yields an empty mesh"):
        bench.build("cantilever", mesh=(0, 4))
    # both edges clamped: a single column of elements has no free DOF
    with pytest.raises(ValueError, match="mesh 1x1 leaves slender no free DOFs"):
        bench.build("slender", mesh=(1, 1))


@pytest.mark.parametrize("linear", [False, True], ids=["nonlinear", "linear"])
def test_optimize_rejects_a_mesh_with_no_free_dof(linear):
    # a builder called directly still returns the problem; running it is
    # what fails, up front and naming the problem and its mesh
    problem = bench.slender(mesh=(1, 1))
    if linear:
        problem = replace(problem, linear=True)
    with pytest.raises(ValueError, match="mesh 1x1 leaves slender no free DOFs"):
        optimize(problem, OptimizerConfig(budget=2))


class TestLinearMode:
    def test_tiny_load_limit_matches_linear_solve(self, monkeypatch):
        prob = bench.build("cantilever", mesh=(12, 4))
        model = FeModel(prob.mesh, prob.loads, prob.material)
        scale = 1e-6
        model.f_free = model.f_free * scale
        rho = np.full(prob.mesh.n_el, 0.5)
        monkeypatch.setattr(nonlinear, "RESIDUAL_TOL", 1e-12)
        ctx = ReanalysisContext()
        nl, _ = newton_solve(model, rho, 3.0,
                             rest_state(model),
                             Strategy.N, ctx, 1)
        linear = FeModel(prob.mesh, prob.loads, prob.material, linear=True)
        linear.f_free = model.f_free
        lin, _ = newton_solve(linear, rho, 3.0, rest_state(linear),
                              Strategy.N, ReanalysisContext(), 1)
        assert np.abs(nl.u - lin.u).max() <= 1e-3 * np.abs(lin.u).max()

    def test_linear_compliance_quadratic_in_load(self):
        prob = replace(bench.build("cantilever", mesh=(12, 4)), linear=True)
        h1 = optimize(prob, OptimizerConfig(strategy=Strategy.N, budget=0))
        # doubling the load through a scaled problem quadruples compliance
        from icatop.mesh import LoadCase
        doubled = LoadCase([(n, a, 2 * m) for n, a, m in prob.loads.point_loads],
                           list(prob.loads.springs), list(prob.loads.output_dofs))
        prob2 = replace(prob, loads=doubled)
        h2 = optimize(prob2, OptimizerConfig(strategy=Strategy.N, budget=0))
        assert h2.final_objective == pytest.approx(4.0 * h1.final_objective,
                                                   rel=1e-12)

    def test_linear_run_single_factorization_per_evaluation(self):
        prob = replace(bench.build("cantilever", mesh=(12, 4)), linear=True)
        h = optimize(prob, OptimizerConfig(strategy=Strategy.N, budget=5))
        assert all(f == 1 for f in h.factorizations)
