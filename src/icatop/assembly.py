"""SIMP-penalized tangent stiffness, internal forces, and residuals.

A FeModel binds a mesh, a load case, and a material.  The sparsity pattern
over free DOFs and its band-reducing order are computed once; every
assembly rewrites values on that pattern.  Since the grid elements are
congruent, the shape-derivative matrices G_q at the Gauss points are shared
across elements.

The element kernels run over blocks of BLOCK_ELEMENTS elements, so each
block's deformation gradients, weights and Gauss-point sums stay in cache.
A block gathers its element displacements u_e, forms the displacement
gradients at all four Gauss points with one product u_e @ G2 (G2 is G
reshaped to 8 x 16), evaluates the constitutive law of ``material`` on
them, and writes its rows of the result.  A non-positive det(F) raises
NonPositiveJacobianError naming the first such element of the mesh.

The element tangent has a closed form.  The neo-Hookean modulus is
A = mu I + a f(x)f + b T (see ``material.tangent_weights``), and with
w_q = G_q^T f_q, the gradient of ln J at Gauss point q,

    K_e[(I,c),(J,d)] = rho_e^p [mu Kbar + sum_q (a_q w_{q,Ic} w_{q,Jd}
                                               + b_q w_{q,Id} w_{q,Jc})],

where Kbar = sum_q G_q^T G_q times the quadrature weight is shared by all
elements and a_q, b_q carry the weight too.  Only the 36 upper entries of
each element matrix are computed.  The pattern is built from the upper
keys (min(i, j), max(i, j)) of the elements alone: assembly sums the
element entries in element order into the global upper triangle, and a
fixed ``mirror`` map copies every upper value into both (i, j) and (j, i)
of the full CSR values, so the tangent is exactly symmetric by
construction.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import material as mat_mod
from .errors import NonPositiveJacobianError
from .material import MaterialParams, gauss_shape_gradients
from .mesh import LoadCase, Mesh
from .sparse import BandOrder, SparseSym


# elements per kernel block: its F, J, w and Gauss-point sums, about
# 1.5 MB, stay in a 2 MiB L2 cache; 512 to 2048 time the same
BLOCK_ELEMENTS = 1024

# the 36 upper entries (r <= s) of an 8x8 element matrix, row by row
_UPPER = np.triu_indices(8)
_POS = np.empty((8, 8), dtype=np.intp)
_POS[_UPPER] = _POS[_UPPER[::-1]] = np.arange(_UPPER[0].size)
# entry ((I,c),(J,d)) -> position of ((I,d),(J,c)), which the T term reads
_SWAP = _POS[_UPPER[0] - _UPPER[0] % 2 + _UPPER[1] % 2,
             _UPPER[1] - _UPPER[1] % 2 + _UPPER[0] % 2]
# signs of the cofactors: F^-T = [[F11, -F10], [-F01, F00]] / J
_COFACTOR_SIGN = np.array([1.0, -1.0, -1.0, 1.0])[:, None]


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

        # H = u_e @ G2 holds the displacement gradients at the four Gauss
        # points; w_q = G_q^T f_q; the mu term of the tangent is shared
        self._G2 = np.ascontiguousarray(self.G.transpose(2, 0, 1).reshape(8, 16))
        self._Gt = np.ascontiguousarray(self.G.transpose(0, 2, 1))
        kbar = self.quad_w * np.einsum("qra,qrb->ab", self.G, self.G)
        self._mu_kbar = material.mu * kbar[_UPPER][:, None]

        self._build_pattern()
        self._ke_linear = None

    # -- pattern ---------------------------------------------------------
    def _build_pattern(self):
        n, n_el = self.mesh.n_free, self.mesh.n_el
        i = self.elem_free[:, _UPPER[0]]
        j = self.elem_free[:, _UPPER[1]]
        keep = (i >= 0) & (j >= 0)                               # (n_el, 36)
        lo, hi = np.minimum(i, j)[keep], np.maximum(i, j)[keep]
        upper_lin, self._uidx = np.unique(lo.astype(np.int64) * n + hi,
                                          return_inverse=True)
        # kept element entries in element order, as positions in a
        # (36, n_el) array of upper entries
        self._usrc = (np.arange(_UPPER[0].size) * n_el
                      + np.arange(n_el)[:, None])[keep]
        self._n_upper = upper_lin.size
        rows, cols = np.divmod(upper_lin, n)
        up_ptr = np.searchsorted(rows, np.arange(n + 1))
        self._diag = up_ptr[:-1]        # each upper row starts on the diagonal
        if not np.array_equal(upper_lin.take(self._diag, mode="clip"),
                              np.arange(n) * (n + 1)):
            raise RuntimeError("pattern is missing diagonal entries")
        # the strict lower triangle is the transpose of the strict upper
        # one; row r of the full pattern is its lower entries, then its
        # upper entries
        strict = np.flatnonzero(rows != cols)
        low = sp.csr_matrix((strict, cols[strict], up_ptr - np.arange(n + 1)),
                            shape=(n, n)).tocsc()
        low_rows = np.repeat(np.arange(n), np.diff(low.indptr))
        at_low = np.arange(strict.size) + up_ptr[low_rows]
        at_up = np.arange(upper_lin.size) + low.indptr[rows + 1]
        self._indptr = (up_ptr + low.indptr).astype(np.int32)
        self._indices = np.empty(self._indptr[-1], dtype=np.int32)
        self._indices[at_low] = low.indices
        self._indices[at_up] = cols
        self._mirror = np.empty(self._indptr[-1], dtype=np.intp)
        self._mirror[at_low] = low.data
        self._mirror[at_up] = np.arange(upper_lin.size)

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

    def _deformation(self, u_full: np.ndarray, start: int, stop: int):
        """F and J at the Gauss points of elements start:stop.

        Shapes (blk, 4, 4) and (blk, 4): element, Gauss point, and for F
        the flattened components (11, 12, 21, 22).
        """
        F = (u_full[self.elem_dofs[start:stop]] @ self._G2).reshape(-1, 4, 4)
        F[..., 0] += 1.0
        F[..., 3] += 1.0
        J = F[..., 0] * F[..., 3] - F[..., 1] * F[..., 2]
        bad = np.flatnonzero((J <= 0.0).any(axis=1))
        if bad.size:
            e = start + int(bad[0])
            raise NonPositiveJacobianError(
                f"det(F) = {J[bad[0]].min():.3e} <= 0 in element {e}",
                element=e)
        return F, J

    # -- element quantities ----------------------------------------------
    def _blocks(self):
        n_el = self.mesh.n_el
        for start in range(0, n_el, BLOCK_ELEMENTS):
            yield start, min(start + BLOCK_ELEMENTS, n_el)

    def element_internal_forces(self, u_free: np.ndarray) -> np.ndarray:
        """Unpenalized element force integrals, (n_el, 8).

        The SIMP-scaled element force is rho_e^p times a row of this array;
        the same kernel feeds the density derivative of the residual.
        """
        u_full = self.displacement_full(u_free)
        q = np.empty((self.mesh.n_el, 8))
        for start, stop in self._blocks():
            F, _ = self._deformation(u_full, start, stop)
            P = mat_mod.pk1_many(F.reshape(-1, 2, 2), self.material)
            q[start:stop] = P.reshape(-1, 16) @ self._G2.T
        return q * self.quad_w

    def upper_element_tangents(self, u_free: np.ndarray) -> np.ndarray:
        """Unpenalized element tangents as their 36 upper entries, (36, n_el).

        Row k holds entry (_UPPER[0][k], _UPPER[1][k]) of every element.
        """
        u_full = self.displacement_full(u_free)
        K = np.empty((_UPPER[0].size, self.mesh.n_el))
        for start, stop in self._blocks():
            F, J = self._deformation(u_full, start, stop)
            # Gauss point, component, element
            F = np.ascontiguousarray(F.transpose(1, 2, 0))
            J = np.ascontiguousarray(J.T)
            f = F[:, ::-1] * (_COFACTOR_SIGN / J[:, None, :])   # vec(F^-T)
            w = self._Gt @ f                                    # (4, 8, blk)
            a, b = mat_mod.tangent_weights(J, self.material)
            a *= self.quad_w
            b *= self.quad_w
            Ka = np.zeros((_UPPER[0].size, stop - start))
            Kb = np.zeros_like(Ka)
            for qp in range(4):
                ww = w[qp, _UPPER[0]] * w[qp, _UPPER[1]]
                Ka += a[qp] * ww
                Kb += b[qp] * ww
            Ka += Kb[_SWAP]
            Ka += self._mu_kbar
            K[:, start:stop] = Ka
        return K

    def strain_energy_density(self, u_free: np.ndarray) -> np.ndarray:
        """Element energy integrals without the SIMP factor, (n_el,)."""
        F, _ = self._deformation(self.displacement_full(u_free), 0,
                                 self.mesh.n_el)
        W = mat_mod.energy_many(F.reshape(-1, 2, 2), self.material)
        return W.reshape(-1, 4).sum(axis=1) * self.quad_w

    # -- global quantities -------------------------------------------------
    def internal_force(self, rho, p, u_free) -> np.ndarray:
        q = self.element_internal_forces(u_free)
        scaled = (np.asarray(rho) ** p)[:, None] * q
        return np.bincount(self._fidx, weights=scaled.ravel()[self._fkeep],
                           minlength=self.mesh.n_free)

    def residual(self, rho, p, u_free) -> np.ndarray:
        return self.internal_force(rho, p, u_free) + self.spring_free * u_free - self.f_free

    def tangent(self, rho, p, u_free) -> SparseSym:
        upper = self.upper_element_tangents(u_free)
        upper *= np.asarray(rho) ** p
        return self._assemble_upper(upper)

    def _assemble_upper(self, upper: np.ndarray) -> SparseSym:
        """Global matrix from (36, n_el) upper element entries plus springs."""
        data = np.bincount(self._uidx, weights=upper.ravel()[self._usrc],
                           minlength=self._n_upper)
        data[self._diag] += self.spring_free
        return SparseSym(self.mesh.n_free, self._indptr, self._indices,
                         data[self._mirror], self._order)

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
            # exactly symmetric: the upper triangle copies the lower one
            ke[_UPPER] = ke.T[_UPPER]
            self._ke_linear = ke * self.quad_w
        return self._ke_linear

    def linear_tangent(self, rho, p) -> SparseSym:
        """Density-only stiffness of the small-displacement model."""
        ke = self.linear_element_tangent()
        return self._assemble_upper(
            ke[_UPPER][:, None] * (np.asarray(rho) ** p))
