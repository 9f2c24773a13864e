"""Regular Q4 grid meshes: node/element numbering, supports, loads, port springs.

Nodes and elements are numbered row-major from the bottom-left corner, so a
grid built twice with the same arguments is bitwise identical.  Element
connectivity is counter-clockwise starting at the lower-left node.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """Immutable regular grid of bilinear quadrilaterals."""

    nx: int
    ny: int
    width: float
    height: float
    thickness: float
    nodes: np.ndarray  # (n_nd, 2) coordinates
    elems: np.ndarray  # (n_el, 4) node ids, counter-clockwise
    fixed: np.ndarray  # (2*n_nd,) bool, True on constrained DOFs

    @property
    def n_el(self) -> int:
        return self.nx * self.ny

    @property
    def n_nd(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_dof(self) -> int:
        return 2 * self.n_nd

    @property
    def elem_w(self) -> float:
        return self.width / self.nx

    @property
    def elem_h(self) -> float:
        return self.height / self.ny

    @property
    def elem_volume(self) -> float:
        return self.elem_w * self.elem_h * self.thickness

    @cached_property
    def elem_dofs(self) -> np.ndarray:
        """(n_el, 8) global DOF ids in [ux0, uy0, ux1, uy1, ...] order."""
        out = np.empty((self.n_el, 8), dtype=np.int64)
        out[:, 0::2] = 2 * self.elems
        out[:, 1::2] = 2 * self.elems + 1
        return out

    @cached_property
    def free(self) -> np.ndarray:
        """Ascending indices of unconstrained DOFs."""
        return np.flatnonzero(~self.fixed)

    @property
    def n_free(self) -> int:
        return int(self.free.size)

    @cached_property
    def full_to_free(self) -> np.ndarray:
        """Map full DOF id -> free index, -1 on fixed DOFs."""
        m = np.full(self.n_dof, -1, dtype=np.int64)
        m[self.free] = np.arange(self.free.size)
        return m

    def node_id(self, ix: int, iy: int) -> int:
        return iy * (self.nx + 1) + ix

    def gather(self, full: np.ndarray) -> np.ndarray:
        """Restrict a full-length DOF vector to the free DOFs."""
        full = np.asarray(full, dtype=float)
        if full.shape != (self.n_dof,):
            raise ValueError(f"expected length {self.n_dof}, got {full.shape}")
        return full[self.free]

    def scatter(self, reduced: np.ndarray) -> np.ndarray:
        """Expand a free-DOF vector to full length, zero on fixed DOFs."""
        reduced = np.asarray(reduced, dtype=float)
        if reduced.shape != (self.n_free,):
            raise ValueError(f"expected length {self.n_free}, got {reduced.shape}")
        full = np.zeros(self.n_dof)
        full[self.free] = reduced
        return full


def build_grid(nx: int, ny: int, width: float, height: float,
               thickness: float) -> Mesh:
    """Build a regular nx-by-ny grid over a width-by-height rectangle."""
    if nx < 1 or ny < 1:
        raise ValueError(f"element counts must be >= 1, got {nx}x{ny}")
    if width <= 0 or height <= 0 or thickness <= 0:
        raise ValueError("width, height and thickness must be positive")

    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    gx, gy = np.meshgrid(xs, ys)            # row-major from bottom-left
    nodes = np.column_stack([gx.ravel(), gy.ravel()])

    ex, ey = np.meshgrid(np.arange(nx), np.arange(ny))
    n0 = (ey * (nx + 1) + ex).ravel()
    elems = np.column_stack([n0, n0 + 1, n0 + nx + 2, n0 + nx + 1])

    fixed = np.zeros(2 * nodes.shape[0], dtype=bool)
    return Mesh(nx, ny, width, height, thickness, nodes, elems, fixed)


def fix_region(mesh: Mesh, predicate, axes: str = "both") -> Mesh:
    """Constrain DOFs of the nodes selected by ``predicate(x, y)``.

    ``predicate`` receives the node coordinate arrays and returns a boolean
    mask.  ``axes`` selects which displacement components to fix.  An empty
    selection is legal (a warning is emitted) and returns the mesh unchanged.
    """
    if axes not in ("x", "y", "both"):
        raise ValueError(f"axes must be 'x', 'y' or 'both', got {axes!r}")
    sel = np.asarray(predicate(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=bool)
    if sel.shape != (mesh.n_nd,):
        raise ValueError("predicate must return one flag per node")
    picked = np.flatnonzero(sel)
    if picked.size == 0:
        warnings.warn("fix_region selected no nodes", stacklevel=2)
        return mesh
    fixed = mesh.fixed.copy()
    if axes in ("x", "both"):
        fixed[2 * picked] = True
    if axes in ("y", "both"):
        fixed[2 * picked + 1] = True
    return replace(mesh, fixed=fixed)


@dataclass
class LoadCase:
    """Point loads, linear port springs, and output-DOF markers.

    ``output_dofs`` receive the value -1 in the output selector vector used
    by mechanism objectives; compliance objectives use the load vector
    itself as the selector.
    """

    point_loads: list = field(default_factory=list)   # (node, axis, magnitude)
    springs: list = field(default_factory=list)       # (node, axis, stiffness)
    output_dofs: list = field(default_factory=list)   # (node, axis)

    def add_load(self, node: int, axis: int, magnitude: float) -> "LoadCase":
        self.point_loads.append((int(node), int(axis), float(magnitude)))
        return self

    def add_spring(self, node: int, axis: int, stiffness: float) -> "LoadCase":
        self.springs.append((int(node), int(axis), float(stiffness)))
        return self

    def mark_output(self, node: int, axis: int) -> "LoadCase":
        self.output_dofs.append((int(node), int(axis)))
        return self

    def force_vector(self, mesh: Mesh) -> np.ndarray:
        f = np.zeros(mesh.n_dof)
        for node, axis, mag in self.point_loads:
            f[2 * node + axis] += mag
        return f

    def spring_vector(self, mesh: Mesh) -> np.ndarray:
        """Diagonal spring stiffness per DOF (full length)."""
        k = np.zeros(mesh.n_dof)
        for node, axis, stiff in self.springs:
            k[2 * node + axis] += stiff
        return k

    def output_vector(self, mesh: Mesh) -> np.ndarray:
        """Selector with -1 at each marked output DOF, 0 elsewhere."""
        sel = np.zeros(mesh.n_dof)
        for node, axis in self.output_dofs:
            sel[2 * node + axis] = -1.0
        return sel
