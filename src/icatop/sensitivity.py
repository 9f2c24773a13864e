"""Adjoint solves and the density gradient of F(rho) = l^T u(rho).

Each gradient component needs only the element's own displacement and
adjoint values:

    dF/drho_e = lam_e^T dr/drho_e = p rho_e^{p-1} lam_e^T q_e,

with q_e the unpenalized element force of the converged ``ElementState``
(u_e k_e under the small-displacement model).
"""

from __future__ import annotations

import numpy as np

from .nonlinear import Strategy
from .reanalysis import ReanalysisContext, ica_adjoint_solve


def solve_adjoint(model, rho, p, state, l_free, strategy: Strategy,
                  ctx: ReanalysisContext) -> np.ndarray:
    """Solve K_hat lam = -l at the converged element state; returns lam.

    Strategies with an iterative adjoint refresh the context to the tangent
    at the state and sweep; the others factor that tangent into the context
    and solve directly.  The tangent, factorization and solves are timed in
    ``ctx`` under the same categories as the equilibrium solve's.
    """
    l_free = np.asarray(l_free, dtype=float)
    if not l_free.any():
        return np.zeros_like(l_free)

    with ctx.timers.scope("K_T"):
        K_hat = model.tangent(rho, p, state)
    if strategy.adjoint_uses_ica and ctx.initialized:
        ctx.refresh(K_hat)
        return ica_adjoint_solve(ctx, l_free)[0]

    return ctx.solve_exact(K_hat, -l_free)


def objective_gradient(model, rho, p, state, lam) -> np.ndarray:
    """Gradient of l^T u with respect to the (physical) element densities."""
    rho = np.asarray(rho, dtype=float)
    lam_e = model.element_values(lam)                   # (n_el, 8)
    return p * rho ** (p - 1.0) * np.einsum("ni,ni->n", lam_e, state.forces)
