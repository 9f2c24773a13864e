"""Adjoint solves and the density gradient of F(rho) = l^T u(rho).

Each gradient component needs only the element's own displacement and
adjoint values:

    dF/drho_e = lam_e^T dr/drho_e = p rho_e^{p-1} lam_e^T q_e,

with q_e the unpenalized element force integral at the converged state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nonlinear import Strategy
from .reanalysis import ReanalysisContext, ica_adjoint_solve
from .timing import NullTimers


@dataclass
class AdjointSolution:
    lam: np.ndarray
    method: str            # "direct" | "ica"


def solve_adjoint(model, rho, p, u_hat, l_free, strategy: Strategy,
                  ctx: ReanalysisContext, *, timers=None) -> AdjointSolution:
    """Solve K_hat lam = -l at the converged state u_hat.

    Strategies with an iterative adjoint refresh the context to the tangent
    at u_hat and sweep; the others factor that tangent into the context
    and solve directly.  The tangent, factorization and solves are booked
    under the same timer categories as the equilibrium solve's.
    """
    timers = timers or NullTimers()
    l_free = np.asarray(l_free, dtype=float)
    norm_l = np.abs(l_free).max() if l_free.size else 0.0
    if norm_l == 0.0:
        return AdjointSolution(np.zeros_like(l_free), "direct")

    with timers.scope("K_T"):
        K_hat = model.tangent(rho, p, u_hat)
    if strategy.adjoint_uses_ica and ctx.initialized:
        ctx.refresh(K_hat)
        lam, _ = ica_adjoint_solve(ctx, l_free, timers=timers)
        return AdjointSolution(lam, "ica")

    with timers.scope("Factorizations"):
        ctx.set_reference(K_hat)
    with timers.scope("Linear systems"):
        lam = ctx.solve_reference(-l_free)
    return AdjointSolution(lam, "direct")


def objective_gradient(model, rho, p, u_hat, lam) -> np.ndarray:
    """Gradient of l^T u with respect to the (physical) element densities."""
    rho = np.asarray(rho, dtype=float)
    q = model.element_internal_forces(u_hat)                 # (n_el, 8)
    lam_e = model.displacement_full(lam)[model.elem_dofs]    # (n_el, 8)
    return p * rho ** (p - 1.0) * np.einsum("ni,ni->n", lam_e, q)


def objective_gradient_linear(model, rho, p, u_hat, lam) -> np.ndarray:
    """Gradient under the small-displacement state equation K(rho) u = f."""
    rho = np.asarray(rho, dtype=float)
    ke = model.linear_element_tangent()
    u_e = model.displacement_full(u_hat)[model.elem_dofs]
    lam_e = model.displacement_full(lam)[model.elem_dofs]
    q = u_e @ ke.T        # symmetric ke, (n_el, 8)
    return p * rho ** (p - 1.0) * np.einsum("ni,ni->n", lam_e, q)
