"""Reference implementations the tests compare the vectorized kernels against.

Per-element and per-point loops over the same constitutive law: the
stored energy W(F) the stress derives from, the stress
P = mu (F - F^-T) + lam/2 (J^2 - 1) F^-T in its direct form, the tangent
modulus from its defining derivative of F^{-T}, the 8x8 element tangent
assembled from the full 4x4 modulus, the element force from the stress,
and a model's total potential, whose gradient the residual must be.  The
density filter's reference is its explicit sparse weight matrix, built
offset by offset.  The reanalysis sweep's reference is the
combined-approximation iteration in its delta form, s_{k+1} = s_0 - B s_k.
"""

import numpy as np
import scipy.sparse as sp

from icatop.errors import NonPositiveJacobianError
from icatop.filtering import _kernel_weight
from icatop.material import MaterialParams, gauss_shape_gradients
from icatop.sparse import SparseSym


def _as_batch(F):
    """F as a float batch (n, 2, 2) and its determinants, all positive."""
    F = np.asarray(F, dtype=float)
    J = F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0]
    bad = np.flatnonzero(J <= 0.0)
    if bad.size:
        raise NonPositiveJacobianError(f"det(F) = {J[bad[0]]:.3e} <= 0")
    return F, J


def energy_many(F: np.ndarray, mat: MaterialParams) -> np.ndarray:
    """Stored energy density W for a batch (n, 2, 2) of deformation gradients."""
    F, J = _as_batch(F)
    trC = np.einsum("nij,nij->n", F, F)
    logJ = np.log(J)
    return 0.5 * mat.mu * (trC - 2.0 - 2.0 * logJ) \
        + 0.25 * mat.lam * (J * J - 1.0 - 2.0 * logJ)


def potential_energy(model, rho, p, u_free) -> float:
    """Total potential of a FeModel at (rho, u): SIMP-scaled stored energy
    plus spring energy minus the work of the loads."""
    u_e = model.displacement_full(u_free)[model.elem_dofs]        # (n_el, 8)
    F = np.einsum("qij,nj->nqi", model.G, u_e).reshape(-1, 2, 2) + np.eye(2)
    W = energy_many(F, model.material).reshape(-1, 4).sum(axis=1) * model.quad_w
    elastic = float(np.asarray(rho) ** p @ W)
    springs = 0.5 * float(model.spring_free @ (u_free * u_free))
    return elastic - float(model.f_free @ u_free) + springs


def _inverse_2x2(F, J):
    inv = np.empty_like(F)
    inv[:, 0, 0] = F[:, 1, 1]
    inv[:, 0, 1] = -F[:, 0, 1]
    inv[:, 1, 0] = -F[:, 1, 0]
    inv[:, 1, 1] = F[:, 0, 0]
    return inv / J[:, None, None]


def pk1_many(F: np.ndarray, mat: MaterialParams) -> np.ndarray:
    """First Piola-Kirchhoff stress of a batch, flattened (n, 4)."""
    F, J = _as_batch(F)
    FinvT = np.swapaxes(_inverse_2x2(F, J), 1, 2)
    P = mat.mu * (F - FinvT) + 0.5 * mat.lam * ((J * J - 1.0))[:, None, None] * FinvT
    return P.reshape(-1, 4)


def tangent_weights(J: np.ndarray, mat: MaterialParams):
    """Weights (a, b) of the tangent modulus A = mu I + a f(x)f + b T.

    Here f = vec(F^-T) and T_{ij,kl} = (F^-1)_{jk} (F^-1)_{li}; the weights
    depend on F only through J.
    """
    J2 = J * J
    return mat.lam * J2, mat.mu - 0.5 * mat.lam * (J2 - 1.0)


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


def tangent_many(F: np.ndarray, mat: MaterialParams) -> np.ndarray:
    """Tangent modulus dP/dF of a batch, flattened (n, 4, 4)."""
    F, J = _as_batch(F)
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
    return A


def element_tangent(rho_i, p, u_e, elem_w, elem_h, thickness,
                    material: MaterialParams) -> np.ndarray:
    """SIMP-scaled 8x8 element tangent, 2x2 Gauss."""
    G = gauss_shape_gradients(elem_w, elem_h)
    w = 0.25 * elem_w * elem_h * thickness
    K = np.zeros((8, 8))
    for qp in range(4):
        F, J = deformation_gradient(G[qp], u_e)
        if J <= 0:
            raise NonPositiveJacobianError(f"det(F) = {J:.3e} <= 0")
        D = tangent_many(F[None], material)[0]
        K += G[qp].T @ D @ G[qp]
    # exactly symmetric: the upper triangle copies the lower one
    upper = np.triu_indices(8)
    K[upper] = K.T[upper]
    return (rho_i ** p) * w * K


def element_internal_force(rho_i, p, u_e, elem_w, elem_h, thickness,
                           material: MaterialParams) -> np.ndarray:
    """SIMP-scaled element internal force vector of length 8."""
    G = gauss_shape_gradients(elem_w, elem_h)
    w = 0.25 * elem_w * elem_h * thickness
    f = np.zeros(8)
    for qp in range(4):
        F, J = deformation_gradient(G[qp], u_e)
        if J <= 0:
            raise NonPositiveJacobianError(f"det(F) = {J:.3e} <= 0")
        f += G[qp].T @ pk1_many(F[None], material)[0]
    return (rho_i ** p) * w * f


def filter_matrix(mesh, radius_in_elements, kernel="cone") -> sp.csr_matrix:
    """Row-stochastic CSR matrix W of the volume-weighted density filter.

    Row i holds w_ij v_j / sum_j w_ij v_j over the neighbors j inside the
    grid, so rows at the edges renormalize over a clipped neighborhood.
    """
    nx, ny = mesh.nx, mesh.ny
    n_el = mesh.n_el
    radius = radius_in_elements * mesh.elem_w
    reach = int(np.ceil(radius_in_elements))

    rows, cols, vals = [], [], []
    EX, EY = np.meshgrid(np.arange(nx), np.arange(ny))
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
    return (sp.diags(1.0 / row_sums) @ weighted).tocsr()


def delta_form_iterates(ctx, K0, rhs, k_max):
    """Iterates s_0 .. s_{k_max} of s_{k+1} = s_0 - K0^{-1} dK s_k with
    s_0 = K0^{-1} rhs, through the context's held factor of ``K0`` and
    dK = Kcur - K0 on the shared pattern."""
    dK = SparseSym(K0.n, K0.indptr, K0.indices, ctx.Kcur.data - K0.data)
    s_tilde = ctx.solve_reference(rhs)
    iterates = [s_tilde]
    for _ in range(k_max):
        iterates.append(s_tilde - ctx.solve_reference(
            dK.matvec(iterates[-1])))
    return iterates
