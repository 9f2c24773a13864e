"""Iterative combined approximations for Newton and adjoint linear systems.

A held factorization F of a reference matrix K0 is reused while the
current matrix Kcur = K0 + dK drifts away from it.  The sweep iterates in
residual form,

    s_0 = F^{-1} rhs,      s_{k+1} = s_k - F^{-1} (Kcur s_k - rhs),

which for an exact F = K0 gives the paper's combined-approximation
iterates s_{k+1} = s_0 - B s_k of B = K0^{-1} dK.  The iteration matrix is
M = I - F^{-1} Kcur, which is -B for an exact F, and the sweep converges
linearly whenever a consistent norm of M is below one.  Each sweep costs
one product with Kcur, the one that also judges the iterate, and one solve
with the held factor; dK is never formed, and K0 is not kept.
Acceptance is judged by the max-norm relative residual of Kcur in float64,
so the held factor only has to contract the error, not be exact: a context
made with ``single_sweeps=True`` demotes its held band to float32, in
place, on the first sweep that solves with it, and the sweeps become
mixed-precision iterative refinement.  Factors that are never swept (exact
Newton steps, direct adjoints, adjoint fallbacks) stay float64.  The
``ReanalysisContext`` makes and counts every factorization, and books each
one off the strategy's schedule, and each guard-driven refresh of Kcur,
under its reason from ``REASONS``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .sparse import Factorization, SparseSym, ldlt_factor
from .timing import NullTimers

# reasons for work off the strategy's schedule, named as in the run
# report: extra factorizations (fallbacks), then the guard's refresh
FALLBACKS = ("guard_fallbacks", "step_fallbacks", "linesearch_fallbacks",
             "adjoint_fallbacks")
REASONS = FALLBACKS + ("guard_refreshes",)


@dataclass
class IcaReport:
    """Outcome of one iterative solve.

    ``Ks`` is Kcur @ s for the returned iterate s, the product its residual
    was judged by; a direct fallback solve forms none and leaves it None.
    """

    iterations: int
    residual: float
    converged: bool
    fallback: bool = False
    iterates: list = None
    Ks: np.ndarray = None


class ReanalysisContext:
    """Held factorization plus the drifting current matrix ``Kcur``.

    Owns every factorization of a run: ``set_reference`` makes and counts
    each one, Newton and adjoint alike, and holds at most one; ``reasons``
    counts the reasons its callers give.  The given matrices are kept, not
    copied; nothing edits a tangent in place.  The global Newton-iteration
    count paces the refresh of ``Kcur``.  With ``single_sweeps`` the held
    factor is demoted to float32 on its first sweep solve (``solve_held``).
    """

    def __init__(self, K: SparseSym = None, single_sweeps: bool = False):
        self.single_sweeps = single_sweeps
        self.global_newton_iters = 0
        self.factorizations = 0
        self.reasons = Counter()
        self.release()
        if K is not None:
            self.set_reference(K)

    @property
    def initialized(self) -> bool:
        return self.factorization is not None

    def release(self) -> None:
        """Drop the current matrix and factorization; the counters stay."""
        self.Kcur: SparseSym = None
        self.factorization: Factorization = None

    def set_reference(self, K: SparseSym, reason: str = None) -> None:
        """Factor K, count it, and make it the current matrix.

        The superseded factorization is dropped first; if factoring fails,
        the context is left empty and the counts unchanged.
        """
        self.release()
        self.factorization = ldlt_factor(K)
        self.factorizations += 1
        self.Kcur = K
        if reason is not None:
            self.reasons[reason] += 1

    def refresh(self, K: SparseSym, reason: str = None) -> None:
        """Adopt K as the current matrix; the factorization is untouched."""
        if not self.initialized:
            raise RuntimeError("context holds no factorization")
        if not K.same_pattern(self.Kcur):
            raise ValueError("pattern mismatch against the current matrix")
        self.Kcur = K
        if reason is not None:
            self.reasons[reason] += 1

    def solve_reference(self, b: np.ndarray) -> np.ndarray:
        return self.factorization.solve(b)

    def solve_held(self, b: np.ndarray) -> np.ndarray:
        """Solve with the held factor inside a sweep, demoting it to float32
        first if the context sweeps in single precision.  The demoted factor
        replaces the float64 one in the same buffer; the count of
        factorizations does not move."""
        if self.single_sweeps and not self.factorization.single:
            self.factorization = self.factorization.demoted()
        return self.factorization.solve(b)


def ica_solve(ctx: ReanalysisContext, rhs: np.ndarray, eps: float = 1e-2,
              k_max: int = 10, keep_iterates: bool = False):
    """Approximately solve Kcur s = rhs reusing the held factorization.

    Sweeps in residual form, s <- s - F^{-1}(Kcur s - rhs), from
    s_0 = F^{-1} rhs; the product Kcur s both judges an iterate and forms
    the next correction.  In a ``single_sweeps`` context the first solve
    demotes the held factor to float32 (``ReanalysisContext.solve_held``);
    the iterates and products stay float64.  Returns the first iterate
    whose relative residual against Kcur drops below ``eps``; if none of
    s_0 .. s_{k_max} qualifies, the best iterate is returned with
    ``converged=False`` and the caller decides whether to refactor.  A
    diverging sweep stops early, once its residual is not finite or no
    longer fits the held factor's precision.  The defaults are the paper's
    Newton forcing term eps_R = 1e-2 and the sweep budget of both the
    Newton and adjoint solves.
    """
    if not ctx.initialized:
        raise RuntimeError("context holds no factorization")
    rhs = np.asarray(rhs, dtype=float)
    norm_r = np.abs(rhs).max() if rhs.size else 0.0
    if norm_r == 0.0:
        rep = IcaReport(0, 0.0, True,
                        iterates=[np.zeros_like(rhs)] if keep_iterates else None,
                        Ks=np.zeros_like(rhs))
        return np.zeros_like(rhs), rep

    s = ctx.solve_held(rhs)
    limit = np.finfo(np.float32 if ctx.factorization.single else float).max
    trace = [] if keep_iterates else None
    best_s, best_Ks, best_res, best_k = s, None, np.inf, 0
    for k in range(k_max + 1):
        if keep_iterates:
            trace.append(s.copy())
        Ks = ctx.Kcur.matvec(s)
        resid = Ks - rhs
        peak = np.abs(resid).max()
        res = peak / norm_r
        if res < best_res:
            best_s, best_Ks, best_res, best_k = s, Ks, res, k
        if res < eps:
            return s, IcaReport(k, float(res), True, iterates=trace, Ks=Ks)
        if k == k_max or not peak <= limit:
            break
        s = s - ctx.solve_held(resid)
    return best_s, IcaReport(best_k, float(best_res), False, iterates=trace,
                             Ks=best_Ks)


def ica_adjoint_solve(ctx: ReanalysisContext, l: np.ndarray, eps_T: float = 1e-8,
                      timers=None):
    """Solve Kcur lam = -l iteratively, with a direct fallback.

    The caller must have refreshed the context so Kcur holds the tangent at
    the converged equilibrium state.  On non-convergence the context is
    refactored from Kcur, booked as ``adjoint_fallbacks``, and the system
    solved exactly; the report then keeps the sweeps' own count and best
    residual, with ``converged`` and ``fallback`` set.  The sweeps and
    solves are timed under "Linear systems", the fallback factorization
    under "Factorizations".
    """
    timers = timers or NullTimers()
    l = np.asarray(l, dtype=float)
    with timers.scope("Linear systems"):
        lam, rep = ica_solve(ctx, -l, eps_T)
    if rep.converged:
        return lam, rep
    with timers.scope("Factorizations"):
        ctx.set_reference(ctx.Kcur, "adjoint_fallbacks")
    with timers.scope("Linear systems"):
        lam = ctx.solve_reference(-l)
    return lam, IcaReport(rep.iterations, rep.residual, True, fallback=True)


def estimate_norm_B(ctx: ReanalysisContext, iterations: int = 50,
                    seed: int = 0, rtol: float = 1e-6) -> float:
    """Spectral norm of the sweep's iteration matrix M = I - F^{-1} Kcur by
    two-sided power iteration.

    For an exact float64 factor F of K0, M = -B with B = K0^{-1} dK, so this
    is the norm of B.  A factor demoted to float32 adds its rounding to M,
    and that rounding governs the sweep too.  Matrix-free: M v is
    v - F^{-1}(Kcur v) and M^T w is w - Kcur F^{-1} w, one product and one
    solve with the held factor as it stands each; nothing is demoted.
    """
    if not ctx.initialized:
        raise RuntimeError("context holds no factorization")
    K, solve = ctx.Kcur, ctx.solve_reference
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(K.n)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v /= nv
    est = 0.0
    for _ in range(iterations):
        w = v - solve(K.matvec(v))                  # M v
        new_est = np.linalg.norm(w)
        z = w - K.matvec(solve(w))                  # M^T M v
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return float(new_est)
        converged = abs(new_est - est) <= rtol * max(new_est, 1e-300)
        est = new_est
        if converged:
            break
        v = z / nz
    return float(est)
