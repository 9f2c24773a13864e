import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icatop.mesh import LoadCase, Mesh, build_grid, fix_region


def test_canonical_cantilever_mesh_size():
    mesh = build_grid(400, 100, 120.0, 30.0, 1.0)
    assert mesh.n_el == 40000
    assert mesh.n_nd == 401 * 101


def test_minimal_grid():
    mesh = build_grid(1, 1, 1.0, 1.0, 1.0)
    assert mesh.n_el == 1
    assert mesh.n_nd == 4
    assert mesh.n_dof == 8


def test_mesh_stores_its_grid_alone():
    # coordinates, connectivity and DOF maps are computed on each read
    assert [f.name for f in dataclasses.fields(Mesh)] == [
        "nx", "ny", "width", "height", "thickness", "fixed"]


def test_connectivity_3x2_by_hand():
    mesh = build_grid(3, 2, 3.0, 2.0, 1.0)
    expected = np.array([
        [0, 1, 5, 4], [1, 2, 6, 5], [2, 3, 7, 6],
        [4, 5, 9, 8], [5, 6, 10, 9], [6, 7, 11, 10],
    ])
    assert np.array_equal(mesh.elems, expected)


def test_elements_reference_distinct_inrange_nodes():
    mesh = build_grid(5, 3, 5.0, 3.0, 1.0)
    assert mesh.elems.min() >= 0 and mesh.elems.max() < mesh.n_nd
    for row in mesh.elems:
        assert len(set(row)) == 4


def test_grid_is_deterministic():
    a = build_grid(7, 5, 2.0, 1.0, 0.5)
    b = build_grid(7, 5, 2.0, 1.0, 0.5)
    assert np.array_equal(a.nodes, b.nodes)
    assert a.nodes.tobytes() == b.nodes.tobytes()
    assert a.elems.tobytes() == b.elems.tobytes()


def test_element_areas_sum_to_domain():
    mesh = build_grid(13, 7, 3.7, 2.1, 1.0)
    total = mesh.n_el * mesh.elem_w * mesh.elem_h
    assert abs(total - 3.7 * 2.1) <= 1e-12 * (3.7 * 2.1)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_grid(0, 3, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_grid(3, 3, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_grid(3, 3, 1.0, 1.0, 0.0)


def test_fix_left_edge_canonical():
    mesh = build_grid(400, 100, 120.0, 30.0, 1.0)
    fixed = fix_region(mesh, lambda x, y: x <= 1e-12, axes="both")
    assert fixed.fixed.sum() == 202          # 101 nodes, both DOFs
    assert fixed.n_free == fixed.n_dof - 202


def test_fix_nothing_warns_and_keeps_mesh():
    mesh = build_grid(3, 2, 3.0, 2.0, 1.0)
    with pytest.warns(UserWarning):
        out = fix_region(mesh, lambda x, y: x > 100.0)
    assert np.array_equal(out.fixed, mesh.fixed)


def test_fix_vertical_edges_3x2():
    # 4x3 node grid: three nodes on each vertical edge
    mesh = build_grid(3, 2, 3.0, 2.0, 1.0)
    out = fix_region(mesh, lambda x, y: (x <= 1e-12) | (x >= 3.0 - 1e-12))
    assert out.fixed.reshape(-1, 2).any(axis=1).sum() == 6
    # the horizontal edges hold 4 nodes each
    out2 = fix_region(mesh, lambda x, y: (y <= 1e-12) | (y >= 2.0 - 1e-12))
    assert out2.fixed.reshape(-1, 2).any(axis=1).sum() == 8


def test_free_fixed_partition():
    mesh = build_grid(4, 3, 4.0, 3.0, 1.0)
    mesh = fix_region(mesh, lambda x, y: x <= 1e-12, axes="x")
    assert mesh.free.size + mesh.fixed.sum() == mesh.n_dof
    assert not mesh.fixed[mesh.free].any()


def test_gather_scatter_roundtrip():
    mesh = build_grid(3, 3, 1.0, 1.0, 1.0)
    mesh = fix_region(mesh, lambda x, y: y <= 1e-12, axes="both")
    rng = np.random.default_rng(1)
    reduced = rng.standard_normal(mesh.n_free)
    assert np.array_equal(mesh.gather(mesh.scatter(reduced)),
                          reduced)
    full = rng.standard_normal(mesh.n_dof)
    round_trip = mesh.scatter(mesh.gather(full))
    assert np.array_equal(round_trip[mesh.free], full[mesh.free])
    assert np.all(round_trip[mesh.fixed] == 0.0)


def test_one_element_two_fixed_dofs():
    mesh = build_grid(1, 1, 1.0, 1.0, 1.0)
    mesh = fix_region(mesh, lambda x, y: (x <= 1e-12) & (y <= 1e-12), axes="both")
    assert mesh.n_free == 6


def test_vector_length_validation():
    mesh = build_grid(2, 2, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        mesh.gather(np.zeros(5))
    with pytest.raises(ValueError):
        mesh.scatter(np.zeros(mesh.n_free + 1))


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 6), ny=st.integers(1, 6))
def test_gather_scatter_inverse_property(nx, ny):
    mesh = build_grid(nx, ny, float(nx), float(ny), 1.0)
    mesh = fix_region(mesh, lambda x, y: x <= 1e-12, axes="x")
    rng = np.random.default_rng(nx * 7 + ny)
    reduced = rng.standard_normal(mesh.n_free)
    assert np.array_equal(mesh.gather(mesh.scatter(reduced)), reduced)


def test_loadcase_vectors():
    mesh = build_grid(2, 2, 2.0, 2.0, 1.0)
    lc = (LoadCase()
          .add_load(4, 1, -3.0)
          .add_spring(4, 0, 2.0)
          .mark_output(8, 0))
    f = lc.force_vector(mesh)
    assert f[2 * 4 + 1] == -3.0 and np.count_nonzero(f) == 1
    k = lc.spring_vector(mesh)
    assert k[2 * 4] == 2.0 and np.count_nonzero(k) == 1
    l = lc.output_vector(mesh)
    assert l[2 * 8] == -1.0 and np.count_nonzero(l) == 1
    assert set(np.unique(l)) <= {0.0, -1.0}
