"""SIMP-penalized tangent stiffness, internal forces, and residuals.

A FeModel binds a mesh, a load case, and a material.  The sparsity pattern
over free DOFs and its band-reducing order are computed once, and the
pattern's factorization plan on the first assembly; every assembly rewrites
values on that pattern and carries that plan.  Since the grid elements are
congruent, the shape-derivative matrices G_q at the Gauss points, and every
fixed matrix built from them below, are shared across elements.

Both element kernels are one matrix product per block of BLOCK_ELEMENTS
elements: a fixed matrix, built once per model, times a few rows of
per-Gauss-point invariants, one column per element.  A block works
component-major: its displacement gradients H = Gc u_e come out as 16 rows
ordered (component, Gauss point) (Gc is G with its rows in that order), so
each gradient component at the four Gauss points is one contiguous slab
and every elementwise step is one pass over it.  A non-positive det(F)
raises NonPositiveJacobianError naming the first such element of the mesh.

Internal forces.  With dV the quadrature weight, Kbar = dV sum_q G_q^T G_q
and P the first Piola-Kirchhoff stress of ``material``,

    q_e = dV sum_q G_q^T P_q = mu Kbar u_e + dV sum_q G_q^T (P_q - mu H_q),
    P - mu H = (mu (J I - cof F) + c cof F) / J,   c = lam (J^2 - 1) / 2,

where cof F = J F^-T.  J - 1 and every entry of J I - cof F are expanded
in H, so nothing cancels against the identity and q is exactly zero at
u = 0.  So q_e is the fixed (8 x 24) matrix [mu Kbar, dV Gc^T] times the
column [u_e; P - mu H].

Tangent.  The modulus is A = mu I + a f(x)f + b T with f = vec(F^-T),
a = lam J^2 and b = mu - c, and with w_q = G_q^T f_q

    K_e[(I,c),(J,d)] = rho_e^p [mu Kbar + dV sum_q (a_q w_{q,Ic} w_{q,Jd}
                                                 + b_q w_{q,Id} w_{q,Jc})].

J f = cof F = S vec(F) for a fixed signed permutation S, so
a_q w_{q,r} w_{q,s} = lam sum_ij (S G_q)_ir (S G_q)_js F_i F_j.  The 36
upper entries of an element are therefore the fixed (36 x 81) matrix
times 81 rows: the ten products F_i F_j (i <= j) at each Gauss point,
the same products times b_q / J_q^2, and a row of ones that carries
mu Kbar.  The kernel writes them element-major, (n_el, 36).

Small strain.  The small-displacement model reads the tangent kernel at
u = 0: every element shares its 36 upper entries, ``rest_tangent``, which
scale by rho_e^p into the density-only stiffness and, as an 8x8 matrix
k_e, give the forces u_e k_e.

Pattern.  The mesh is always build_grid's full grid, so a free DOF couples
to the free DOFs of the 3x3 node block around its node, an ascending
18-slot stencil on the grid of free ids padded with -1.  An element's DOFs
sit at fixed slots, _STEP, of its lower-left node's stencil, the one place
the counter-clockwise node order is stated here; the element-to-free-DOF
map, the CSR rows, the element entries' positions in them and the band
order all follow from the stencil without a sort.  Only the upper
triangle is stored, as CSR rows with the diagonal first; assembly sums
element entries in element order into it, so the tangent is exactly
symmetric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NonPositiveJacobianError
from .material import MaterialParams, gauss_shape_gradients
from .mesh import LoadCase, Mesh
from .sparse import BandPlan, SparseSym


# elements per kernel block: the tangent's 81 invariant rows (0.66 MB),
# its output rows and the gradients, about 1.2 MB, stay in a 2 MiB L2
# cache; 512 to 2048 time the same
BLOCK_ELEMENTS = 1024

# the 36 upper entries (r <= s) of an 8x8 element matrix, row by row
_UPPER = np.triu_indices(8)
_POS = np.empty((8, 8), dtype=np.intp)
_POS[_UPPER] = _POS[_UPPER[::-1]] = np.arange(_UPPER[0].size)
# entry ((I,c),(J,d)) -> position of ((I,d),(J,c)), which the T term reads
_SWAP = _POS[_UPPER[0] - _UPPER[0] % 2 + _UPPER[1] % 2,
             _UPPER[1] - _UPPER[1] % 2 + _UPPER[0] % 2]
# stencil offset 6 dy + 2 dx + component of each element DOF from node 0;
# upper entry k sits in the row of element DOF _LO[k], stencil slot _SLOT[k]
_STEP = np.array([0, 1, 2, 3, 8, 9, 6, 7])
_LO = np.where(_STEP[_UPPER[0]] <= _STEP[_UPPER[1]], *_UPPER)
_SLOT = 8 + np.abs(_STEP[_UPPER[0]] - _STEP[_UPPER[1]]) + _LO % 2
# the ten component pairs i <= j of vec(F); pairs sharing i are consecutive
_PAIRS = np.triu_indices(4)
# the signed permutation S with cof F = J vec(F^-T) = S vec(F):
# F^-T = [[F22, -F21], [-F12, F11]] / J
_COFACTOR = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0],
                      [1, 0, 0, 0]], dtype=float)


def _check_jacobian(J: np.ndarray, start: int) -> None:
    """Raise for the first element of a block with det(F) <= 0.

    J is (4, blk): Gauss point, element; the block starts at ``start``.
    """
    bad = np.flatnonzero((J <= 0.0).any(axis=0))
    if bad.size:
        e = start + int(bad[0])
        raise NonPositiveJacobianError(
            f"det(F) = {J[:, bad[0]].min():.3e} <= 0 in element {e}",
            element=e)


@dataclass
class ElementState:
    """Unpenalized element forces (n_el, 8) and upper tangents (n_el, 36)
    at the free displacements ``u``, the tangents formed on first use by
    ``FeModel.tangent``.  Both are formed from ``FeModel.element_values(u)``,
    zero on fixed DOFs.  A state is passed along, never looked up by u."""

    u: np.ndarray
    forces: np.ndarray
    tangents: np.ndarray = None


class FeModel:
    """Vectorized assembly on a fixed free-DOF pattern.

    ``_fidx`` (n_el, 8) maps each element DOF to its free index and every
    fixed DOF to slot n_free: ``element_values`` gathers through it and
    the residual sums back through it, so no vector is made full length.
    It is read off the pattern's node stencil (see the module doc).
    """

    def __init__(self, mesh: Mesh, loads: LoadCase, material: MaterialParams):
        self.mesh = mesh
        self.loads = loads
        self.material = material

        self.G = gauss_shape_gradients(mesh.elem_w, mesh.elem_h)  # (4, 4, 8)
        # integration weight per Gauss point (unit weights, constant Jacobian)
        self.quad_w = 0.25 * mesh.elem_w * mesh.elem_h * mesh.thickness
        self.element_volumes = np.full(mesh.n_el, mesh.elem_volume)

        self.f_free = mesh.gather(loads.force_vector(mesh))
        self.spring_free = mesh.gather(loads.spring_vector(mesh))

        self._build_kernels()
        self._build_pattern()

    def _build_kernels(self):
        """The fixed matrices of both element kernels (see the module doc)."""
        G, dv = self.G, self.quad_w
        mu, lam = self.material.mu, self.material.lam
        # row 4 c + q of Gc is gradient component c at Gauss point q
        self._Gc = np.ascontiguousarray(G.transpose(1, 0, 2).reshape(16, 8))
        kbar = dv * np.einsum("qra,qrb->ab", G, G)
        self._force_gemm = np.ascontiguousarray(
            np.hstack([mu * kbar, dv * self._Gc.T]).T)           # (24, 8)
        # C[q, p, k]: coefficient of F_i F_j (pair p) at Gauss point q in
        # J^2 w_{q,r} w_{q,s}, for upper entry k = (r, s)
        SG = _COFACTOR @ G                                       # (4, 4, 8)
        (i, j), (r, s) = _PAIRS, _UPPER
        C = SG[:, i][..., r] * SG[:, j][..., s]
        C += (i != j)[:, None] * SG[:, j][..., r] * SG[:, i][..., s]
        # one column per (pair, Gauss point), the row order of a block
        C = C.transpose(2, 1, 0).reshape(r.size, -1)             # (36, 40)
        M = np.hstack([lam * dv * C, dv * C[_SWAP], mu * kbar[_UPPER][:, None]])
        self._tangent_gemm = np.ascontiguousarray(M.T)           # (81, 36)

    # -- pattern ---------------------------------------------------------
    def _build_pattern(self):
        mesh, n = self.mesh, self.mesh.n_free
        # free DOF ids on the node grid; -1 on fixed DOFs and on the border
        ids = np.full((mesh.ny + 3, mesh.nx + 3, 2), -1, dtype=np.int32)
        ids[1:-1, 1:-1] = mesh.full_to_free.reshape(mesh.ny + 1, mesh.nx + 1, 2)
        # each node's stencil: the ids of its 3x3 node block, ascending,
        # its own DOFs in slots 8 and 9
        stencil = sliding_window_view(ids, (3, 3, 2)).reshape(-1, 18)
        # element e's DOFs sit at slots 8 + _STEP of its lower-left node
        # e + e // nx; C order keeps objective_gradient's einsum bitwise
        e = np.arange(mesh.n_el)
        elem_free = stencil[(e + e // mesh.nx)[:, None], 8 + _STEP]
        self._fidx = np.ascontiguousarray(
            np.where(elem_free >= 0, elem_free, n), dtype=np.intp)
        # row r's stencil, with r itself in slot 8 + comp; its upper
        # entries are the slots from there on, the diagonal first
        nbr = stencil.take(mesh.free // 2, axis=0)
        comp = (mesh.free % 2)[:, None]
        upper = (nbr >= 0) & (np.arange(18) >= 8 + comp)
        # position of entry (r, nbr[r, k]) at flat index 18 r + k; the
        # dropped bin n_upper off the upper triangle and on row n, the row
        # a fixed DOF's slot n reads
        self._n_upper = int(np.count_nonzero(upper))
        rank = np.full((n + 1, 18), self._n_upper, dtype=np.int32)
        rank[:-1][upper] = np.arange(self._n_upper, dtype=np.int32)
        # intp once here, or bincount converts it on every assembly
        self._uidx = rank.take(
            18 * self._fidx[:, _LO] + _SLOT).ravel().astype(np.intp)
        self._indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.count_nonzero(upper, axis=1), out=self._indptr[1:])
        self._indices = nbr[upper]

        # sweep along the longer grid axis, then the shorter one, then the
        # component: every element then couples free DOFs at most
        # 2 * min(nx, ny) + 5 positions apart, the factorization's band
        grid = ids[1:-1, 1:-1]
        perm = (grid.transpose(1, 0, 2) if mesh.nx >= mesh.ny else grid).ravel()
        self._perm = perm[perm >= 0]

    @cached_property
    def plan(self) -> BandPlan:
        """The pattern's band plan in the sweep order, built on first use
        so that making a model stays cheap."""
        return BandPlan.build(self._indptr, self._indices, self._perm)

    # -- kinematics ------------------------------------------------------
    def _gradients(self, u_e: np.ndarray) -> np.ndarray:
        """Displacement gradients H of a block, (4, 4, blk).

        ``u_e`` holds one element displacement per column, (8, blk); H is
        indexed by component (11, 12, 21, 22), Gauss point, element.
        """
        return (self._Gc @ u_e).reshape(4, 4, -1)

    # -- element quantities ----------------------------------------------
    def element_values(self, v: np.ndarray) -> np.ndarray:
        """Values of the free-DOF vector ``v`` at every element DOF,
        (n_el, 8); a fixed DOF reads the zero appended at slot n_free."""
        if np.shape(v) != (self.mesh.n_free,):
            raise ValueError(f"expected length {self.mesh.n_free}, "
                             f"got {np.shape(v)}")
        return np.append(v, 0.0)[self._fidx]

    def _blocks(self):
        n_el = self.mesh.n_el
        for start in range(0, n_el, BLOCK_ELEMENTS):
            yield start, min(start + BLOCK_ELEMENTS, n_el)

    def element_internal_forces(self, u_free: np.ndarray) -> np.ndarray:
        """Unpenalized element force integrals, (n_el, 8).

        The SIMP-scaled element force is rho_e^p times a row of this array;
        the same kernel feeds the density derivative of the residual.
        """
        u_e = self.element_values(u_free)
        mu, lam = self.material.mu, self.material.lam
        q = np.empty((self.mesh.n_el, 8))
        buf = np.empty(24 * min(BLOCK_ELEMENTS, self.mesh.n_el))
        for start, stop in self._blocks():
            # rows: u_e, then P - mu H by (component, Gauss point)
            X = buf[:24 * (stop - start)].reshape(24, -1)
            X[:8] = u_e[start:stop].T
            h11, h12, h21, h22 = self._gradients(X[:8])
            d = h12 * h21
            jm1 = h11 + h22 + (h11 * h22 - d)                   # J - 1
            J = 1.0 + jm1
            _check_jacobian(J, start)
            c = (0.5 * lam) * jm1 * (J + 1.0)
            inv_j = 1.0 / J
            off = (mu - c) * inv_j
            Y = X[8:].reshape(4, 4, -1)
            # J I - cof F = [[h11 F22 - d, h21], [h12, h22 F11 - d]]
            Y[0] = ((mu * h11 + c) * (1.0 + h22) - mu * d) * inv_j
            np.multiply(off, h21, out=Y[1])
            np.multiply(off, h12, out=Y[2])
            Y[3] = ((mu * h22 + c) * (1.0 + h11) - mu * d) * inv_j
            np.matmul(X.T, self._force_gemm, out=q[start:stop])
        return q

    def upper_element_tangents(self, u_free: np.ndarray) -> np.ndarray:
        """Unpenalized element tangents as their 36 upper entries, (n_el, 36).

        Column k holds entry (_UPPER[0][k], _UPPER[1][k]) of every element.
        """
        u_e = self.element_values(u_free)
        mu, lam = self.material.mu, self.material.lam
        K = np.empty((self.mesh.n_el, _UPPER[0].size))
        buf = np.empty(81 * min(BLOCK_ELEMENTS, self.mesh.n_el))
        for start, stop in self._blocks():
            # rows: F_i F_j by (pair, Gauss point), the same times
            # b / J^2, then ones
            X = buf[:81 * (stop - start)].reshape(81, -1)
            X[80] = 1.0
            F = self._gradients(u_e[start:stop].T)
            F[0] += 1.0
            F[3] += 1.0
            J = F[0] * F[3] - F[1] * F[2]
            _check_jacobian(J, start)
            FF = X[:80].reshape(20, 4, -1)
            row = 0
            for i in range(4):
                np.multiply(F[i], F[i:], out=FF[row:row + 4 - i])
                row += 4 - i
            inv_j2 = 1.0 / (J * J)
            np.multiply(FF[:10], mu * inv_j2 - (0.5 * lam) * (1.0 - inv_j2),
                        out=FF[10:])
            np.matmul(X.T, self._tangent_gemm, out=K[start:stop])
        return K

    # -- global quantities -------------------------------------------------
    def state(self, u_free: np.ndarray) -> ElementState:
        """The element state at ``u_free``; its forces are formed here."""
        return ElementState(u_free, self.element_internal_forces(u_free))

    def residual(self, rho, p, state: ElementState) -> np.ndarray:
        scaled = (np.asarray(rho) ** p)[:, None] * state.forces
        f_int = np.bincount(self._fidx.ravel(), weights=scaled.ravel(),
                            minlength=self.mesh.n_free + 1)[:-1]
        return f_int + self.spring_free * state.u - self.f_free

    def tangent(self, rho, p, state: ElementState) -> SparseSym:
        """Tangent at ``state``, forming its element tangents on first use."""
        if state.tangents is None:
            state.tangents = self.upper_element_tangents(state.u)
        return self._assemble_upper(
            (np.asarray(rho) ** p)[:, None] * state.tangents)

    def _assemble_upper(self, upper: np.ndarray) -> SparseSym:
        """Global matrix from (n_el, 36) upper element entries plus springs."""
        data = np.bincount(self._uidx, weights=upper.ravel(),
                           minlength=self._n_upper + 1)[:-1]
        data[self._indptr[:-1]] += self.spring_free     # diagonals
        return SparseSym(self.mesh.n_free, self._indptr, self._indices,
                         data, self.plan)

    # -- small-strain variant ----------------------------------------------
    @cached_property
    def rest_tangent(self) -> np.ndarray:
        """The 36 upper entries of the unpenalized element tangent at u = 0,
        the small-strain stiffness shared by the congruent elements."""
        return self.upper_element_tangents(np.zeros(self.mesh.n_free))[0]

    def linear_state(self, u_free: np.ndarray) -> ElementState:
        """State of the small-displacement model: forces u_e k_e."""
        u_e = self.element_values(u_free)
        return ElementState(u_free, u_e @ self.rest_tangent[_POS])

    def linear_tangent(self, rho, p) -> SparseSym:
        """Density-only stiffness of the small-displacement model."""
        return self._assemble_upper(
            (np.asarray(rho) ** p)[:, None] * self.rest_tangent)
