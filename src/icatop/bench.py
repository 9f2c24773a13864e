"""Benchmark problems: two structures and two compliant mechanisms.

Mechanisms are modeled on the upper half of their symmetric domain: the
symmetry edge gets roller supports (vertical displacement fixed), springs
sitting on that edge carry half stiffness, and point loads applied on it
carry half magnitude.

Builders make the canonical mesh, or the ``mesh=(nx, ny)`` they are given.
The filter radius, expressed in element lengths, scales with nx so the
physical radius is resolution independent; a floor of 1.5 elements keeps
the neighborhood nontrivial on coarse desk meshes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .material import MaterialParams
from .mesh import LoadCase, Mesh, build_grid, fix_region

DESK_MESH = {
    "cantilever": (60, 15),
    "slender": (120, 15),
    "inverter": (60, 30),
    "gripper": (64, 32),
}

CANONICAL_MESH = {
    "cantilever": (400, 100),
    "slender": (600, 75),
    "inverter": (300, 150),
    "gripper": (320, 160),
}

_MIN_RADIUS = 1.5


@dataclass(frozen=True)
class Problem:
    """A fully specified optimization problem, ready for the outer loop."""

    name: str
    mesh: Mesh
    loads: LoadCase
    material: MaterialParams
    volume_fraction: float
    filter_radius_elements: float
    objective: str            # "compliance" | "mechanism"
    linear: bool = False

    def require_free_dofs(self) -> None:
        """Raise ValueError, naming the problem and its mesh, when the
        supports leave no free DOF to solve for."""
        if self.mesh.n_free == 0:
            raise ValueError(f"mesh {self.mesh.nx}x{self.mesh.ny} leaves "
                             f"{self.name} no free DOFs")

    def output_selector(self) -> np.ndarray:
        """Full-length selector vector l: the load for compliance problems,
        -1 at the output DOFs for mechanisms."""
        if self.objective == "compliance":
            return self.loads.force_vector(self.mesh)
        return self.loads.output_vector(self.mesh)


def _resolve_mesh(name, mesh):
    cx, cy = CANONICAL_MESH[name]
    nx, ny = (cx, cy) if mesh is None else (int(mesh[0]), int(mesh[1]))
    if nx < 1 or ny < 1:
        raise ValueError(f"mesh {nx}x{ny} yields an empty mesh")
    return nx, ny, cx


def _radius(canonical_radius, nx, cx, override):
    if override is not None:
        if not (np.isfinite(override) and override >= 0):
            raise ValueError(
                f"filter radius must be >= 0 and finite, got {override}")
        return float(override)
    return max(_MIN_RADIUS, canonical_radius * nx / cx)


def cantilever(mesh=None, filter_radius=None) -> Problem:
    """Beam clamped at the left edge, vertical tip load on the right.

    120 x 30 mm domain, unit thickness, E = 3000 N/mm^2, nu = 0.4, a 120 N
    downward load at the right-edge midpoint, 50 % volume.  Canonical mesh
    400 x 100 with a 10-element filter radius.
    """
    nx, ny, cx = _resolve_mesh("cantilever", mesh)
    grid = build_grid(nx, ny, 120.0, 30.0, 1.0)
    grid = fix_region(grid, lambda x, y: x <= 1e-12, axes="both")
    loads = LoadCase().add_load(grid.node_id(nx, ny // 2), 1, -120.0)
    return Problem("cantilever", grid, loads, MaterialParams(3000.0, 0.4),
                   0.5, _radius(10.0, nx, cx, filter_radius), "compliance")


def slender(mesh=None, filter_radius=None) -> Problem:
    """Slender beam fixed at both vertical edges, load at the basis center.

    400 x 50 mm domain, unit thickness, E = 3000 N/mm^2, nu = 0.3, a 40 N
    downward load at the bottom midpoint, 20 % volume.  Canonical mesh
    600 x 75 with a 5-element filter radius.
    """
    nx, ny, cx = _resolve_mesh("slender", mesh)
    width = 400.0
    grid = build_grid(nx, ny, width, 50.0, 1.0)
    grid = fix_region(grid, lambda x, y: (x <= 1e-12) | (x >= width - 1e-12),
                      axes="both")
    loads = LoadCase().add_load(grid.node_id(nx // 2, 0), 1, -40.0)
    return Problem("slender", grid, loads, MaterialParams(3000.0, 0.3),
                   0.2, _radius(5.0, nx, cx, filter_radius), "compliance")


def inverter(mesh=None, filter_radius=None) -> Problem:
    """Displacement inverter, upper half of a 300 x 300 um square domain.

    Thickness 7 um, E = 180 mN/um^2, nu = 0.3.  The input port at the
    domain center-left takes a 50 mN horizontal force with a 4.0 mN/um
    spring; the output port sits at the center-right with a 1.0 mN/um
    spring.  Ports lie on the symmetry line, so the half model halves both
    the load and the spring stiffnesses.  The full-domain corner support
    becomes the top-left corner of the half model.  20 % volume, canonical
    half mesh 300 x 150, 7.5-element filter radius.
    """
    nx, ny, cx = _resolve_mesh("inverter", mesh)
    height = 150.0
    grid = build_grid(nx, ny, 300.0, height, 7.0)
    grid = fix_region(grid, lambda x, y: y <= 1e-12, axes="y")      # symmetry
    grid = fix_region(grid, lambda x, y: (x <= 1e-12) & (y >= height - 1e-12),
                      axes="both")
    node_in = grid.node_id(0, 0)
    node_out = grid.node_id(nx, 0)
    loads = (LoadCase()
             .add_load(node_in, 0, 25.0)
             .add_spring(node_in, 0, 2.0)
             .add_spring(node_out, 0, 0.5)
             .mark_output(node_out, 0))
    return Problem("inverter", grid, loads, MaterialParams(180.0, 0.3),
                   0.2, _radius(7.5, nx, cx, filter_radius), "mechanism")


def gripper(mesh=None, filter_radius=None) -> Problem:
    """Gripper, upper half of a 320 x 320 um square domain.

    Thickness 7 um, E = 180 mN/um^2, nu = 0.3.  A 4 mN horizontal force
    with a 0.2 mN/um spring acts at the center-left input port (on the
    symmetry line: both halved).  The jaw output port carries a 1.0 mN/um
    spring on its vertical displacement and sits on the right edge at
    height L/20 above the symmetry line.  Supports of length L/20 occupy
    the top of the left edge.  20 % volume, canonical half mesh 320 x 160,
    5-element filter radius.
    """
    nx, ny, cx = _resolve_mesh("gripper", mesh)
    side = 320.0
    height = 160.0
    grid = build_grid(nx, ny, side, height, 7.0)
    grid = fix_region(grid, lambda x, y: y <= 1e-12, axes="y")      # symmetry
    support_len = side / 20.0
    grid = fix_region(grid,
                      lambda x, y: (x <= 1e-12) & (y >= height - support_len - 1e-9),
                      axes="both")
    node_in = grid.node_id(0, 0)
    iy_out = max(1, round(support_len / grid.elem_h))
    node_out = grid.node_id(nx, iy_out)
    loads = (LoadCase()
             .add_load(node_in, 0, 2.0)
             .add_spring(node_in, 0, 0.1)
             .add_spring(node_out, 1, 1.0)
             .mark_output(node_out, 1))
    return Problem("gripper", grid, loads, MaterialParams(180.0, 0.3),
                   0.2, _radius(5.0, nx, cx, filter_radius), "mechanism")


BUILDERS = {
    "cantilever": cantilever,
    "slender": slender,
    "inverter": inverter,
    "gripper": gripper,
}


def build(name: str, mesh=None, filter_radius=None) -> Problem:
    if name not in BUILDERS:
        raise ValueError(f"unknown problem {name!r}; expected one of "
                         f"{sorted(BUILDERS)}")
    problem = BUILDERS[name](mesh, filter_radius)
    problem.require_free_dofs()
    return problem


def desk(name: str) -> Problem:
    """Desk-scale variant that runs in seconds rather than hours."""
    return build(name, mesh=DESK_MESH[name])


def linear_mode(problem: Problem) -> Problem:
    """Replace the equilibrium model by the small-displacement one."""
    return replace(problem, linear=True)
