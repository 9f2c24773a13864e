"""Neo-Hookean constitutive law and Q4 kinematics in plane strain.

The stored energy per unit reference volume is

    W(F) = mu/2 * (tr(F^T F) - 2 - 2 ln J) + lam/4 * (J^2 - 1 - 2 ln J),

a compressible neo-Hookean form whose stress-free reference state is F = I.
Displacement gradients are flattened in the component order
(11, 12, 21, 22), matching the rows of the shape-derivative matrix G.  The
first Piola-Kirchhoff stress P = dW/dF and the tangent modulus A = dP/dF,

    P = mu (F - F^-T) + lam/2 (J^2 - 1) F^-T,
    A = mu I + lam J^2 f(x)f + (mu - lam/2 (J^2 - 1)) T,

with f = vec(F^-T) and T_{ij,kl} = (F^-1)_{jk} (F^-1)_{li}, are not
formed here: ``assembly`` folds them, per Gauss point, into the fixed
matrices of its element kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# 2x2 Gauss points on the reference square, fixed order
GAUSS_POINTS = np.array([
    [-1.0, -1.0],
    [+1.0, -1.0],
    [-1.0, +1.0],
    [+1.0, +1.0],
]) / np.sqrt(3.0)


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic elastic constants."""

    E: float
    nu: float

    def __post_init__(self):
        if self.E <= 0:
            raise ValueError(f"Young's modulus must be positive, got {self.E}")
        if not -1.0 < self.nu < 0.5:
            raise ValueError(f"Poisson's ratio must lie in (-1, 0.5), got {self.nu}")

    @property
    def lam(self) -> float:
        return self.E * self.nu / ((1.0 + self.nu) * (1.0 - 2.0 * self.nu))

    @property
    def mu(self) -> float:
        return self.E / (2.0 * (1.0 + self.nu))


def shape_gradients(elem_w: float, elem_h: float, xi: float, eta: float) -> np.ndarray:
    """4x8 matrix mapping element displacements to the displacement gradient.

    Rows produce (du_x/dX, du_x/dY, du_y/dX, du_y/dY) at the reference-square
    point (xi, eta) of a rectangular element with physical size
    elem_w x elem_h.  Element DOF order is [ux0, uy0, ..., ux3, uy3] with
    counter-clockwise node order starting at the lower-left corner.
    """
    if elem_w <= 0 or elem_h <= 0:
        raise ValueError(f"degenerate element geometry {elem_w}x{elem_h}")
    # bilinear shape function derivatives on the reference square
    dN_dxi = 0.25 * np.array([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)])
    dN_deta = 0.25 * np.array([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)])
    dN_dX = dN_dxi * (2.0 / elem_w)
    dN_dY = dN_deta * (2.0 / elem_h)

    G = np.zeros((4, 8))
    G[0, 0::2] = dN_dX
    G[1, 0::2] = dN_dY
    G[2, 1::2] = dN_dX
    G[3, 1::2] = dN_dY
    return G


def gauss_shape_gradients(elem_w: float, elem_h: float) -> np.ndarray:
    """G matrices at the four 2x2 Gauss points, shape (4, 4, 8)."""
    return np.stack([shape_gradients(elem_w, elem_h, xi, eta)
                     for xi, eta in GAUSS_POINTS])

