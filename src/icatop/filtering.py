"""Density filtering over element centers.

The filtered (physical) density is a convex combination of neighboring
design densities,

    rho_phys_i = sum_j w_ij v_j rho_j / sum_j w_ij v_j,

with a radially decaying kernel w.  Rows of the resulting operator sum to
one, so uniform fields pass through unchanged and bounds are preserved.
The transpose maps objective gradients back to design densities.

Every mesh is a regular grid of congruent elements, so the volumes v_j are
equal and cancel, and w_ij depends only on the grid offset between
elements i and j.  The numerator is then a 2-D correlation of the density
field with one (2*reach+1)^2 kernel, and the denominator is the same
correlation of a field of ones (the conv2 form of Andreassen et al.,
"Efficient topology optimization in MATLAB using 88 lines of code",
SMO 2011).  Padding with zeros outside the grid drops the clipped
neighbors from both sums, which is exactly the renormalization over a
clipped neighborhood at the edges.  The kernel is symmetric under
(dx, dy) -> (-dx, -dy), so the transpose is the same correlation applied
to grad / row_sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate

from .mesh import Mesh

KERNELS = ("cone", "gaussian")


@dataclass
class FilterOperator:
    kernel: np.ndarray      # (2*reach+1, 2*reach+1) weights, axis 0 is dy
    row_sums: np.ndarray    # (ny, nx) kernel weight inside the grid

    def _grid(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.row_sums.size,):
            raise ValueError(f"expected length {self.row_sums.size}, "
                             f"got {v.shape}")
        return v.reshape(self.row_sums.shape)

    def apply(self, rho_design: np.ndarray) -> np.ndarray:
        grid = self._grid(rho_design)
        return (correlate(grid, self.kernel, mode="constant")
                / self.row_sums).ravel()

    def backpropagate(self, grad_phys: np.ndarray) -> np.ndarray:
        grid = self._grid(grad_phys) / self.row_sums
        return correlate(grid, self.kernel, mode="constant").ravel()


def _kernel_weight(dist, radius, kernel):
    if kernel == "cone":
        return np.maximum(0.0, 1.0 - dist / radius)
    # truncated Gaussian, three standard deviations inside the radius
    w = np.exp(-4.5 * (dist / radius) ** 2)
    return np.where(dist < radius, w, 0.0)


def build_filter(mesh: Mesh, radius_in_elements: float,
                 kernel: str = "cone") -> FilterOperator:
    """Correlation kernel over element-center distances, and its row sums.

    The radius is measured in element lengths (grid elements are square in
    all the benchmark problems); the kernel spans that many elements,
    rounded up, in both directions.  A radius below the element spacing
    yields the identity.
    """
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    if not (np.isfinite(radius_in_elements) and radius_in_elements >= 0):
        raise ValueError(f"radius must be finite and >= 0, "
                         f"got {radius_in_elements}")

    radius = radius_in_elements * mesh.elem_w
    reach = int(np.ceil(radius_in_elements))
    offsets = np.arange(-reach, reach + 1)
    dist = np.hypot(offsets[None, :] * mesh.elem_w,
                    offsets[:, None] * mesh.elem_h)
    weights = _kernel_weight(dist, max(radius, np.finfo(float).tiny), kernel)
    row_sums = correlate(np.ones((mesh.ny, mesh.nx)), weights, mode="constant")
    return FilterOperator(weights, row_sums)
