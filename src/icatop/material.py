"""Neo-Hookean constitutive law and Q4 kinematics in plane strain.

The stored energy per unit reference volume is

    W(F) = mu/2 * (tr(F^T F) - 2 - 2 ln J) + lam/4 * (J^2 - 1 - 2 ln J),

a compressible neo-Hookean form whose stress-free reference state is F = I.
The first Piola-Kirchhoff stress P = dW/dF and the tangent modulus
A = dP/dF are returned flattened with the displacement-gradient component
order (11, 12, 21, 22), matching the rows of the shape-derivative matrix G.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveJacobianError

# 2x2 Gauss points on the reference square, fixed order
GAUSS_POINTS = np.array([
    [-1.0, -1.0],
    [+1.0, -1.0],
    [-1.0, +1.0],
    [+1.0, +1.0],
]) / np.sqrt(3.0)
GAUSS_WEIGHTS = np.ones(4)


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


def deformation_gradient(G: np.ndarray, u_e: np.ndarray):
    """F = I + grad(u) and J = det F from one quadrature point.

    J <= 0 is returned, not raised; callers decide whether the state is
    admissible (the line search rejects such trial steps).
    """
    u_e = np.asarray(u_e, dtype=float)
    if u_e.shape != (8,):
        raise ValueError(f"element displacement vector must have length 8, got {u_e.shape}")
    H = (G @ u_e).reshape(2, 2)
    F = np.eye(2) + H
    J = F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0]
    return F, J


def _as_batch(F):
    F = np.asarray(F, dtype=float)
    single = F.ndim == 2
    if single:
        F = F[None]
    J = F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0]
    return F, J, single


def _check_positive(J, element_ids=None):
    bad = np.flatnonzero(J <= 0.0)
    if bad.size:
        elem = None if element_ids is None else int(element_ids[bad[0]])
        raise NonPositiveJacobianError(
            f"det(F) = {J[bad[0]]:.3e} <= 0", element=elem)


def _inverse_2x2(F, J):
    inv = np.empty_like(F)
    inv[:, 0, 0] = F[:, 1, 1]
    inv[:, 0, 1] = -F[:, 0, 1]
    inv[:, 1, 0] = -F[:, 1, 0]
    inv[:, 1, 1] = F[:, 0, 0]
    return inv / J[:, None, None]


def energy_many(F: np.ndarray, mat: MaterialParams) -> np.ndarray:
    """Stored energy density W for a batch of deformation gradients."""
    F, J, single = _as_batch(F)
    _check_positive(J)
    trC = np.einsum("nij,nij->n", F, F)
    logJ = np.log(J)
    W = 0.5 * mat.mu * (trC - 2.0 - 2.0 * logJ) \
        + 0.25 * mat.lam * (J * J - 1.0 - 2.0 * logJ)
    return W[0] if single else W


def pk1_many(F: np.ndarray, mat: MaterialParams) -> np.ndarray:
    """First Piola-Kirchhoff stress, flattened (n, 4) or (4,)."""
    F, J, single = _as_batch(F)
    _check_positive(J)
    FinvT = np.swapaxes(_inverse_2x2(F, J), 1, 2)
    P = mat.mu * (F - FinvT) + 0.5 * mat.lam * ((J * J - 1.0))[:, None, None] * FinvT
    out = P.reshape(-1, 4)
    return out[0] if single else out


def tangent_many(F: np.ndarray, mat: MaterialParams) -> np.ndarray:
    """Tangent modulus dP/dF, flattened (n, 4, 4) or (4, 4)."""
    F, J, single = _as_batch(F)
    _check_positive(J)
    Finv = _inverse_2x2(F, J)
    FinvT_flat = np.swapaxes(Finv, 1, 2).reshape(-1, 4)

    n = F.shape[0]
    a, b = tangent_weights(J, mat)
    A = np.zeros((n, 4, 4))
    A += mat.mu * np.eye(4)
    A += a[:, None, None] * np.einsum("na,nb->nab", FinvT_flat, FinvT_flat)
    # derivative of F^{-T}: d(F^-T)_{ij}/dF_{kl} = -(F^-1)_{jk} (F^-1)_{li}
    A += b[:, None, None] \
        * np.einsum("njk,nli->nijkl", Finv, Finv).reshape(n, 4, 4)
    return A[0] if single else A


def tangent_weights(J: np.ndarray, mat: MaterialParams):
    """Weights (a, b) of the tangent modulus A = mu I + a f(x)f + b T.

    Here f = vec(F^-T) and T_{ij,kl} = (F^-1)_{jk} (F^-1)_{li}; the weights
    depend on F only through J.
    """
    J2 = J * J
    return mat.lam * J2, mat.mu - 0.5 * mat.lam * (J2 - 1.0)


def strain_energy(F: np.ndarray, mat: MaterialParams) -> float:
    """Energy density at one quadrature point."""
    return float(energy_many(F, mat))


def pk1_stress(F: np.ndarray, mat: MaterialParams) -> np.ndarray:
    """Flattened stress (P11, P12, P21, P22) at one quadrature point."""
    return pk1_many(F, mat)


def tangent_modulus(F: np.ndarray, mat: MaterialParams) -> np.ndarray:
    """4x4 tangent consistent with pk1_stress; symmetric by construction."""
    return tangent_many(F, mat)


def elasticity_matrix(mat: MaterialParams) -> np.ndarray:
    """Small-strain plane-strain modulus in flattened gradient components.

    Equals the tangent modulus at F = I.
    """
    lam, mu = mat.lam, mat.mu
    return np.array([
        [lam + 2 * mu, 0.0, 0.0, lam],
        [0.0, mu, mu, 0.0],
        [0.0, mu, mu, 0.0],
        [lam, 0.0, 0.0, lam + 2 * mu],
    ])
