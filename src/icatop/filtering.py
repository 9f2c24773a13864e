"""Density filtering over element centers.

The filtered (physical) density is a convex combination of neighboring
design densities,

    rho_phys_i = sum_j w_ij v_j rho_j / sum_j w_ij v_j,

with a radially decaying kernel w.  Rows of the resulting operator sum to
one, so uniform fields pass through unchanged and bounds are preserved.
The transpose maps objective gradients back to design densities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh

KERNELS = ("cone", "gaussian")


@dataclass
class FilterOperator:
    weights: sp.csr_matrix     # row-stochastic

    def apply(self, rho_design: np.ndarray) -> np.ndarray:
        rho_design = np.asarray(rho_design, dtype=float)
        if rho_design.shape != (self.weights.shape[1],):
            raise ValueError(f"expected length {self.weights.shape[1]}, "
                             f"got {rho_design.shape}")
        return self.weights @ rho_design

    def backpropagate(self, grad_phys: np.ndarray) -> np.ndarray:
        grad_phys = np.asarray(grad_phys, dtype=float)
        if grad_phys.shape != (self.weights.shape[0],):
            raise ValueError(f"expected length {self.weights.shape[0]}, "
                             f"got {grad_phys.shape}")
        return self.weights.T @ grad_phys


def _kernel_weight(dist, radius, kernel):
    if kernel == "cone":
        return np.maximum(0.0, 1.0 - dist / radius)
    # truncated Gaussian, three standard deviations inside the radius
    w = np.exp(-4.5 * (dist / radius) ** 2)
    return np.where(dist < radius, w, 0.0)


def build_filter(mesh: Mesh, radius_in_elements: float,
                 kernel: str = "cone") -> FilterOperator:
    """Weight operator over element-center distances.

    The radius is measured in element lengths (grid elements are square in
    all the benchmark problems).  A radius below the element spacing yields
    the identity.
    """
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    if radius_in_elements < 0:
        raise ValueError("radius must be nonnegative")

    nx, ny = mesh.nx, mesh.ny
    n_el = mesh.n_el
    radius = radius_in_elements * mesh.elem_w
    reach = int(np.ceil(radius_in_elements))

    rows, cols, vals = [], [], []
    ex = np.arange(nx)
    ey = np.arange(ny)
    EX, EY = np.meshgrid(ex, ey)
    eid = (EY * nx + EX).ravel()
    EX, EY = EX.ravel(), EY.ravel()
    safe_radius = max(radius, np.finfo(float).tiny)
    for dx in range(-reach, reach + 1):
        for dy in range(-reach, reach + 1):
            dist = np.hypot(dx * mesh.elem_w, dy * mesh.elem_h)
            w = float(_kernel_weight(np.array(dist), safe_radius, kernel))
            if w <= 0.0:
                continue
            ok = ((EX + dx >= 0) & (EX + dx < nx)
                  & (EY + dy >= 0) & (EY + dy < ny))
            rows.append(eid[ok])
            cols.append(eid[ok] + dy * nx + dx)
            vals.append(np.full(ok.sum(), w))

    volumes = np.full(n_el, mesh.elem_volume)
    raw = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_el, n_el))
    weighted = raw.multiply(volumes[None, :]).tocsr()
    row_sums = np.asarray(weighted.sum(axis=1)).ravel()
    W = sp.diags(1.0 / row_sums) @ weighted
    return FilterOperator(W.tocsr())
