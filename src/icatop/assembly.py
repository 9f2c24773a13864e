"""SIMP-penalized tangent stiffness, internal forces, and residuals.

A FeModel binds a mesh, a load case, and a material.  The sparsity pattern
over free DOFs and its band-reducing order are computed once; every
assembly rewrites values on that pattern.  All element loops are
vectorized; since the grid elements are congruent, the shape-derivative
matrices at the Gauss points are shared across elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import material as mat_mod
from .errors import NonPositiveJacobianError
from .material import MaterialParams, gauss_shape_gradients
from .mesh import LoadCase, Mesh
from .sparse import BandOrder, SparseSym


@dataclass
class DensityField:
    """Element densities with SIMP parameters and element volumes."""

    rho: np.ndarray
    p: float
    rho_min: float
    volumes: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.volumes = np.asarray(self.volumes, dtype=float)
        if self.p < 1.0:
            raise ValueError(f"SIMP exponent must be >= 1, got {self.p}")
        if np.any(self.volumes <= 0):
            raise ValueError("element volumes must be positive")
        lo, hi = self.rho.min(), self.rho.max()
        if lo < self.rho_min - 1e-12 or hi > 1.0 + 1e-12:
            raise ValueError(f"densities outside [{self.rho_min}, 1]: [{lo}, {hi}]")


@dataclass
class GlobalSystem:
    """Assembled free-DOF system at one state."""

    K: SparseSym
    r: np.ndarray
    f_int: np.ndarray
    f: np.ndarray


_TRIU = np.triu_indices(8, 1)
_TRIL = (_TRIU[1], _TRIU[0])


def _mirror_lower(K: np.ndarray) -> None:
    """Copy the strict lower triangle onto the upper one, in place.

    The tangent modulus has major symmetry, so the two triangles agree up
    to summation roundoff; mirroring makes the assembled global matrix
    exactly symmetric.
    """
    if K.ndim == 2:
        K[_TRIU] = K[_TRIL]
    else:
        K[:, _TRIU[0], _TRIU[1]] = K[:, _TRIL[0], _TRIL[1]]


class FeModel:
    """Vectorized assembly on a fixed free-DOF pattern."""

    def __init__(self, mesh: Mesh, loads: LoadCase, material: MaterialParams):
        self.mesh = mesh
        self.loads = loads
        self.material = material

        self.G = gauss_shape_gradients(mesh.elem_w, mesh.elem_h)  # (4, 4, 8)
        # integration weight per Gauss point (unit weights, constant Jacobian)
        self.quad_w = 0.25 * mesh.elem_w * mesh.elem_h * mesh.thickness
        self.element_volumes = np.full(mesh.n_el, mesh.elem_volume)

        self.elem_dofs = mesh.elem_dofs
        self.elem_free = mesh.full_to_free[self.elem_dofs]       # (n_el, 8), -1 fixed

        self.f_free = mesh.gather(loads.force_vector(mesh))
        self.spring_free = mesh.gather(loads.spring_vector(mesh))

        self._build_pattern()
        self._ke_linear = None

    # -- pattern ---------------------------------------------------------
    def _build_pattern(self):
        n = self.mesh.n_free
        rows = np.repeat(self.elem_free, 8, axis=1).ravel()
        cols = np.tile(self.elem_free, (1, 8)).ravel()
        keep = (rows >= 0) & (cols >= 0)
        self._keep = keep
        rows, cols = rows[keep], cols[keep]
        lin = rows * n + cols
        unique_lin, inv = np.unique(lin, return_inverse=True)
        self._nnz = unique_lin.size
        self._kidx = inv
        indices = (unique_lin % n).astype(np.int32)
        counts = np.bincount(unique_lin // n, minlength=n)
        self._indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        self._indices = indices
        # diagonal positions for the spring contribution
        diag_lin = np.arange(n, dtype=np.int64) * n + np.arange(n)
        pos = np.searchsorted(unique_lin, diag_lin)
        if not np.array_equal(unique_lin[pos], diag_lin):
            raise RuntimeError("pattern is missing diagonal entries")
        self._diag_pos = pos

        fvec = self.elem_free.ravel()
        self._fkeep = fvec >= 0
        self._fidx = fvec[self._fkeep]

        # sweep along the longer grid axis, then the shorter one, then the
        # component: every element then couples free DOFs at most
        # 2 * min(nx, ny) + 5 positions apart, the factorization's band
        node, comp = np.divmod(self.mesh.free, 2)
        iy, ix = np.divmod(node, self.mesh.nx + 1)
        keys = (comp, iy, ix) if self.mesh.nx >= self.mesh.ny else (comp, ix, iy)
        self._order = BandOrder(np.lexsort(keys))

    # -- kinematics ------------------------------------------------------
    def displacement_full(self, u_free: np.ndarray) -> np.ndarray:
        return self.mesh.scatter(u_free)

    def _element_disps(self, u_free: np.ndarray) -> np.ndarray:
        return self.displacement_full(u_free)[self.elem_dofs]   # (n_el, 8)

    def _deformation(self, u_e: np.ndarray):
        """F and J per Gauss point: shapes (4, n_el, 2, 2) and (4, n_el)."""
        H = np.einsum("qga,na->nqg", self.G, u_e)               # (n_el, 4, 4)
        F = H.reshape(-1, 4, 2, 2).transpose(1, 0, 2, 3).copy()
        F[:, :, 0, 0] += 1.0
        F[:, :, 1, 1] += 1.0
        J = F[:, :, 0, 0] * F[:, :, 1, 1] - F[:, :, 0, 1] * F[:, :, 1, 0]
        bad = np.argwhere(J <= 0.0)
        if bad.size:
            q, e = bad[0]
            raise NonPositiveJacobianError(
                f"det(F) = {J[q, e]:.3e} <= 0 in element {e}", element=int(e))
        return F, J

    # -- element quantities ----------------------------------------------
    def element_internal_forces(self, u_free: np.ndarray) -> np.ndarray:
        """Unpenalized element force integrals, (n_el, 8).

        The SIMP-scaled element force is rho_e^p times a row of this array;
        the same kernel feeds the density derivative of the residual.
        """
        u_e = self._element_disps(u_free)
        F, _ = self._deformation(u_e)
        q = np.zeros((self.mesh.n_el, 8))
        for qp in range(4):
            sig = mat_mod.pk1_many(F[qp], self.material)        # (n_el, 4)
            q += sig @ self.G[qp]
        return q * self.quad_w

    def element_tangents(self, u_free: np.ndarray) -> np.ndarray:
        """Unpenalized element tangent matrices, (n_el, 8, 8)."""
        u_e = self._element_disps(u_free)
        F, _ = self._deformation(u_e)
        K = np.zeros((self.mesh.n_el, 8, 8))
        for qp in range(4):
            D = mat_mod.tangent_many(F[qp], self.material)      # (n_el, 4, 4)
            G = self.G[qp]
            K += np.einsum("ia,nij,jb->nab", G, D, G, optimize=True)
        _mirror_lower(K)
        return K * self.quad_w

    def strain_energy_density(self, u_free: np.ndarray) -> np.ndarray:
        """Element energy integrals without the SIMP factor, (n_el,)."""
        u_e = self._element_disps(u_free)
        F, _ = self._deformation(u_e)
        W = np.zeros(self.mesh.n_el)
        for qp in range(4):
            W += mat_mod.energy_many(F[qp], self.material)
        return W * self.quad_w

    # -- global quantities -------------------------------------------------
    def internal_force(self, rho, p, u_free) -> np.ndarray:
        q = self.element_internal_forces(u_free)
        scaled = (np.asarray(rho) ** p)[:, None] * q
        return np.bincount(self._fidx, weights=scaled.ravel()[self._fkeep],
                           minlength=self.mesh.n_free)

    def residual(self, rho, p, u_free) -> np.ndarray:
        return self.internal_force(rho, p, u_free) + self.spring_free * u_free - self.f_free

    def tangent(self, rho, p, u_free) -> SparseSym:
        Ke = self.element_tangents(u_free)
        scaled = (np.asarray(rho) ** p)[:, None, None] * Ke
        data = np.bincount(self._kidx, weights=scaled.ravel()[self._keep],
                           minlength=self._nnz)
        data[self._diag_pos] += self.spring_free
        return SparseSym(self.mesh.n_free, self._indptr, self._indices, data,
                         self._order)

    def potential_energy(self, rho, p, u_free) -> float:
        """Total potential; the residual is its gradient in u."""
        W = self.strain_energy_density(u_free)
        elastic = float(np.asarray(rho) ** p @ W)
        springs = 0.5 * float(self.spring_free @ (u_free * u_free))
        return elastic - float(self.f_free @ u_free) + springs

    # -- small-strain variant ----------------------------------------------
    def linear_element_tangent(self) -> np.ndarray:
        """Shared 8x8 small-strain element stiffness (congruent elements)."""
        if self._ke_linear is None:
            D0 = mat_mod.elasticity_matrix(self.material)
            ke = np.zeros((8, 8))
            for qp in range(4):
                G = self.G[qp]
                ke += G.T @ D0 @ G
            _mirror_lower(ke)
            self._ke_linear = ke * self.quad_w
        return self._ke_linear

    def linear_tangent(self, rho, p) -> SparseSym:
        """Density-only stiffness of the small-displacement model."""
        ke = self.linear_element_tangent()
        scaled = (np.asarray(rho) ** p)[:, None, None] * ke[None]
        data = np.bincount(self._kidx, weights=scaled.ravel()[self._keep],
                           minlength=self._nnz)
        data[self._diag_pos] += self.spring_free
        return SparseSym(self.mesh.n_free, self._indptr, self._indices, data,
                         self._order)


# -- single-element operations (convenience and test surface) --------------

def element_tangent(rho_i, p, u_e, elem_w, elem_h, thickness,
                    material: MaterialParams) -> np.ndarray:
    """SIMP-scaled 8x8 element tangent, 2x2 Gauss."""
    G = gauss_shape_gradients(elem_w, elem_h)
    w = 0.25 * elem_w * elem_h * thickness
    K = np.zeros((8, 8))
    for qp in range(4):
        F, J = mat_mod.deformation_gradient(G[qp], u_e)
        if J <= 0:
            raise NonPositiveJacobianError(f"det(F) = {J:.3e} <= 0")
        D = mat_mod.tangent_modulus(F, material)
        K += G[qp].T @ D @ G[qp]
    _mirror_lower(K)
    return (rho_i ** p) * w * K


def element_internal_force(rho_i, p, u_e, elem_w, elem_h, thickness,
                           material: MaterialParams) -> np.ndarray:
    """SIMP-scaled element internal force vector of length 8."""
    G = gauss_shape_gradients(elem_w, elem_h)
    w = 0.25 * elem_w * elem_h * thickness
    f = np.zeros(8)
    for qp in range(4):
        F, J = mat_mod.deformation_gradient(G[qp], u_e)
        if J <= 0:
            raise NonPositiveJacobianError(f"det(F) = {J:.3e} <= 0")
        f += G[qp].T @ mat_mod.pk1_stress(F, material)
    return (rho_i ** p) * w * f


def assemble(model: FeModel, rho, p, u_free) -> GlobalSystem:
    """Tangent and residual at one state, over free DOFs."""
    K = model.tangent(rho, p, u_free)
    f_int = model.internal_force(rho, p, u_free)
    r = f_int + model.spring_free * u_free - model.f_free
    return GlobalSystem(K=K, r=r, f_int=f_int, f=model.f_free.copy())


def residual_density_derivative(model: FeModel, e: int, rho, p, u_free):
    """d(residual)/d(rho_e): 8 values on the element's DOFs.

    Returns (free_dof_indices, values); entries on fixed DOFs are dropped.
    """
    q = model.element_internal_forces(u_free)[e]
    rho_e = float(np.asarray(rho)[e])
    vals = p * rho_e ** (p - 1.0) * q
    free_idx = model.elem_free[e]
    keep = free_idx >= 0
    return free_idx[keep], vals[keep]
