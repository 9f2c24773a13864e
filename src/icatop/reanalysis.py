"""Iterative combined approximations for Newton and adjoint linear systems.

A held factorization of a reference matrix K0 is reused while the current
matrix K0 + dK drifts away from it.  Writing B = K0^{-1} dK, the fixed-point
sweep

    s_{k+1} = s_tilde - B s_k,      s_0 = s_tilde = K0^{-1} rhs,

converges linearly to the solution of (K0 + dK) s = rhs whenever a
consistent norm of B is below one.  Each sweep costs one delta product and
one solve with the held factorization.  Acceptance is judged by the
max-norm relative residual of the *current* matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularMatrixError
from .sparse import Factorization, SparseSym, delta_apply, ldlt_factor
from .timing import NullTimers


@dataclass
class IcaReport:
    """Outcome of one iterative solve."""

    iterations: int
    residual: float
    converged: bool
    fallback: bool = False
    iterates: list = None


class ReanalysisContext:
    """Held factorization plus the drifting current-matrix values.

    The context is confined to one equilibrium solve at a time.  It also
    counts the Newton iterations of the whole run, which the delta-refresh
    period is measured against.
    """

    def __init__(self, K0: SparseSym = None):
        self.K0 = None
        self.Kcur = None
        self.factorization: Factorization = None
        self.global_newton_iters = 0
        if K0 is not None:
            self.set_reference(K0)

    @property
    def initialized(self) -> bool:
        return self.factorization is not None

    def set_reference(self, K: SparseSym) -> None:
        """Factor K and restart the approximation at dK = 0."""
        self.K0 = K.copy()
        self.factorization = ldlt_factor(self.K0)
        self.Kcur = self.K0.copy()

    def refresh_delta(self, K: SparseSym) -> None:
        """Adopt new current-matrix values; the factorization is untouched."""
        if not self.initialized:
            raise RuntimeError("context holds no factorization")
        if not K.same_pattern(self.K0):
            raise ValueError("pattern mismatch against the held reference")
        self.Kcur = K.copy()

    def solve_reference(self, b: np.ndarray) -> np.ndarray:
        return self.factorization.solve(b)


def ica_solve(ctx: ReanalysisContext, rhs: np.ndarray, eps: float = 1e-2,
              k_max: int = 10, keep_iterates: bool = False):
    """Approximately solve Kcur s = rhs reusing the held factorization.

    Returns the first iterate whose relative residual against Kcur drops
    below ``eps``; if none of s_0 .. s_{k_max} qualifies, the best iterate
    is returned with ``converged=False`` and the caller decides whether to
    refactor.
    """
    if not ctx.initialized:
        raise RuntimeError("context holds no factorization")
    rhs = np.asarray(rhs, dtype=float)
    r = -rhs
    norm_r = np.abs(r).max() if r.size else 0.0
    if norm_r == 0.0:
        rep = IcaReport(0, 0.0, True, iterates=[np.zeros_like(rhs)] if keep_iterates else None)
        return np.zeros_like(rhs), rep

    s_tilde = ctx.solve_reference(rhs)
    s = s_tilde
    trace = [] if keep_iterates else None
    best_s, best_res, best_k = s, np.inf, 0
    for k in range(k_max + 1):
        if keep_iterates:
            trace.append(s.copy())
        res = np.abs(ctx.Kcur.matvec(s) + r).max() / norm_r
        if res < best_res:
            best_s, best_res, best_k = s, res, k
        if res < eps:
            return s, IcaReport(k, float(res), True, iterates=trace)
        if k == k_max:
            break
        s = s_tilde - ctx.solve_reference(delta_apply(ctx.Kcur, ctx.K0, s))
    return best_s, IcaReport(best_k, float(best_res), False, iterates=trace)


def ica_adjoint_solve(ctx: ReanalysisContext, l: np.ndarray, eps_T: float = 1e-8,
                      k_max: int = 10, timers=None):
    """Solve Kcur lam = -l iteratively, with a direct fallback.

    The caller must have refreshed the context so Kcur holds the tangent at
    the converged equilibrium state.  On non-convergence the context is
    refactored from Kcur and the system solved exactly.  The sweeps and
    solves are booked under "Linear systems", the fallback factorization
    under "Factorizations".
    """
    timers = timers or NullTimers()
    l = np.asarray(l, dtype=float)
    with timers.scope("Linear systems"):
        lam, rep = ica_solve(ctx, -l, eps_T, k_max)
    if rep.converged:
        return lam, rep
    with timers.scope("Factorizations"):
        ctx.set_reference(ctx.Kcur)
    with timers.scope("Linear systems"):
        lam = ctx.solve_reference(-l)
        norm_l = np.abs(l).max()
        res = np.abs(ctx.Kcur.matvec(lam) + l).max() / norm_l if norm_l else 0.0
    return lam, IcaReport(rep.iterations, float(res), True, fallback=True)


def ca_solve(ctx: ReanalysisContext, rhs: np.ndarray, q: int):
    """Classic reduced-basis variant: Galerkin solve on the first q sweeps.

    Kept for baseline comparisons; the solver strategies use ica_solve.
    A numerically singular reduced system shrinks q until q = 1, which
    degenerates to the plain reused-factorization step.
    """
    if q < 1:
        raise ValueError(f"basis size must be >= 1, got {q}")
    rhs = np.asarray(rhs, dtype=float)
    r = -rhs
    s_tilde = ctx.solve_reference(rhs)
    basis = []
    s = s_tilde
    for _ in range(q):
        s = s_tilde - ctx.solve_reference(delta_apply(ctx.Kcur, ctx.K0, s))
        basis.append(s)
    S = np.column_stack(basis)
    KS = np.column_stack([ctx.Kcur.matvec(S[:, j]) for j in range(S.shape[1])])
    while True:
        m = S.shape[1]
        red = S.T @ KS
        b = -(S.T @ r)
        if m == 1:
            denom = red[0, 0]
            if denom == 0.0:
                return s_tilde
            return (b[0] / denom) * S[:, 0]
        if np.linalg.cond(red) < 1e14:
            y = np.linalg.solve(red, b)
            return S @ y
        S, KS = S[:, :m - 1], KS[:, :m - 1]


def estimate_norm_B(ctx: ReanalysisContext, iterations: int = 50,
                    seed: int = 0, rtol: float = 1e-6) -> float:
    """Spectral norm of B = K0^{-1} dK by two-sided power iteration.

    Matrix-free: each sweep applies B and its transpose through one delta
    product plus one held-factorization solve each.
    """
    if not ctx.initialized:
        raise RuntimeError("context holds no factorization")
    n = ctx.K0.n
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v /= nv
    est = 0.0
    for _ in range(iterations):
        w = ctx.solve_reference(delta_apply(ctx.Kcur, ctx.K0, v))       # B v
        new_est = np.linalg.norm(w)
        z = delta_apply(ctx.Kcur, ctx.K0, ctx.solve_reference(w))       # B^T B v
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return float(new_est)
        converged = abs(new_est - est) <= rtol * max(new_est, 1e-300)
        est = new_est
        if converged:
            break
        v = z / nz
    return float(est)
