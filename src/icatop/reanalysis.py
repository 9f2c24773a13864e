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
demotes its held band to float32, in place, on the first sweep that solves
with it, and the sweeps become mixed-precision iterative refinement.  A
context made with ``single_sweeps=False`` keeps sweeping in float64, the
exact-factor reference of the combined-approximation iterates.  Factors
that are never swept (exact Newton steps, direct adjoints, adjoint
fallbacks) stay float64.  Newton sweeps stop at the paper's forcing term
eps_R = 1e-2, adjoint sweeps at EPS_T = 1e-8.  The ``ReanalysisContext``
is the run's ledger: it makes, times and counts every factorization,
counts the Newton iterations and the sweeps its callers perform, and
books each factorization off the strategy's schedule, and each
guard-driven refresh of Kcur, under its reason from ``REASONS``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .sparse import Factorization, SparseSym, ldlt_factor
from .timing import Timers

# reasons for work off the strategy's schedule, named as in the run
# report: extra factorizations (fallbacks), then the guard's refresh
FALLBACKS = ("step_fallbacks", "linesearch_fallbacks", "adjoint_fallbacks")
REASONS = FALLBACKS + ("guard_refreshes",)
# the ledger's keys, named as the history columns
COUNTS = ("newton_iters", "factorizations", "ica_iters") + REASONS
EPS_T = 1e-8    # relative residual an iterative adjoint solve must reach
NORM_B_ITERATIONS, NORM_B_RTOL = 50, 1e-6   # estimate_norm_B's power steps


@dataclass
class IcaReport:
    """Outcome of one iterative solve.

    ``iterations`` is the index of the returned iterate s and ``residual``
    its relative residual; ``Ks`` is Kcur @ s, the product that residual
    was judged by.  A direct fallback solve forms none and leaves it None.
    """

    iterations: int
    residual: float
    converged: bool
    fallback: bool = False
    Ks: np.ndarray = None


class ReanalysisContext:
    """Held factorization plus the drifting current matrix ``Kcur``; the
    run's ledger.

    Owns every factorization of a run: ``set_reference`` makes, times and
    counts each one, Newton and adjoint alike, and holds at most one;
    every exact solve factors and solves in one call, ``solve_exact``.
    ``counts`` books the work its callers report under the names in
    ``COUNTS``, and ``timers`` its seconds.  The given matrices are kept,
    not copied; nothing edits a tangent in place.  The Newton-iteration
    count paces the refresh of ``Kcur``.  The held factor is demoted to
    float32 on its first sweep solve (``solve_held``) unless
    ``single_sweeps`` is False, which keeps the float64 reference sweep.
    A context starts empty; only ``set_reference`` gives it a factor.
    """

    def __init__(self, *, single_sweeps: bool = True):
        self.single_sweeps = single_sweeps
        self.counts = Counter()
        self.timers = Timers()
        self.release()

    @property
    def initialized(self) -> bool:
        return self.factorization is not None

    def release(self) -> None:
        """Drop the current matrix and factorization; the ledger stays."""
        self.Kcur: SparseSym = None
        self.factorization: Factorization = None

    def set_reference(self, K: SparseSym, reason: str = None) -> None:
        """Factor K, time and count it, and make it the current matrix.

        The superseded factorization is dropped first; if factoring fails,
        the context is left empty and the counts unchanged.
        """
        with self.timers.scope("Factorizations"):
            self.release()
            self.factorization = ldlt_factor(K)
        self.counts["factorizations"] += 1
        self.Kcur = K
        if reason is not None:
            self.counts[reason] += 1

    def refresh(self, K: SparseSym, reason: str = None) -> None:
        """Adopt K as the current matrix; the factorization is untouched."""
        if not self.initialized:
            raise RuntimeError("context holds no factorization")
        if not K.same_pattern(self.Kcur):
            raise ValueError("pattern mismatch against the current matrix")
        self.Kcur = K
        if reason is not None:
            self.counts[reason] += 1

    def solve_exact(self, K: SparseSym, b: np.ndarray,
                    reason: str = None) -> np.ndarray:
        """Factor K through ``set_reference`` (booked under ``reason``) and
        solve K x = b with it, timed under "Linear systems"."""
        self.set_reference(K, reason)
        with self.timers.scope("Linear systems"):
            return self.factorization.solve(b)

    def solve_held(self, b: np.ndarray) -> np.ndarray:
        """Solve with the held factor inside a sweep, demoting it to float32
        in place first if the context sweeps in single precision; the count
        of factorizations does not move."""
        if self.single_sweeps and not self.factorization.single:
            self.factorization.demote()
        return self.factorization.solve(b)


def ica_solve(ctx: ReanalysisContext, rhs: np.ndarray, eps: float = 1e-2,
              k_max: int = 10, give_up: bool = False):
    """Approximately solve Kcur s = rhs reusing the held factorization.

    Sweeps in residual form, s <- s - F^{-1}(Kcur s - rhs), from
    s_0 = F^{-1} rhs; the product Kcur s both judges an iterate and forms
    the next correction, and each correction is booked as ``ica_iters``.
    In a ``single_sweeps`` context the first solve demotes the held factor
    to float32 (``ReanalysisContext.solve_held``); the iterates and
    products stay float64.  Returns the first iterate whose relative
    residual against Kcur drops below ``eps``; if none of s_0 .. s_{k_max}
    qualifies, it returns the iterate it stopped at with ``converged=False``
    (s_k after k corrections) and the caller decides whether to refactor.
    A diverging sweep stops early, once its residual is not finite or no
    longer fits the held factor's precision.  With ``give_up`` it also
    stops after iterate k >= 2 once the contraction rate = res_k / res_k-1
    reaches 1 or res_k rate^(k_max - k) > eps, that is once the rate so far
    does not reach eps within the budget.  The defaults are the paper's
    Newton forcing term eps_R = 1e-2 and the sweep budget of both the
    Newton and adjoint solves.
    """
    if not ctx.initialized:
        raise RuntimeError("context holds no factorization")
    rhs = np.asarray(rhs, dtype=float)
    norm_r = np.abs(rhs).max() if rhs.size else 0.0
    if norm_r == 0.0:
        return np.zeros_like(rhs), IcaReport(0, 0.0, True,
                                             Ks=np.zeros_like(rhs))

    s = ctx.solve_held(rhs)
    limit = np.finfo(np.float32 if ctx.factorization.single else float).max
    prev = np.inf
    for k in range(k_max + 1):
        Ks = ctx.Kcur.matvec(s)
        resid = Ks - rhs
        peak = np.abs(resid).max()
        res = peak / norm_r
        converged = bool(res < eps)
        if converged or k == k_max or not peak <= limit:
            break
        if give_up and k >= 2:
            rate = res / prev
            if rate >= 1.0 or res * rate ** (k_max - k) > eps:
                break
        prev = res
        ctx.counts["ica_iters"] += 1
        s = s - ctx.solve_held(resid)
    return s, IcaReport(k, float(res), converged, Ks=Ks)


def ica_adjoint_solve(ctx: ReanalysisContext, l: np.ndarray):
    """Solve Kcur lam = -l iteratively to EPS_T, with a direct fallback.

    The caller must have refreshed the context so Kcur holds the tangent at
    the converged equilibrium state.  On non-convergence the context is
    refactored from Kcur, booked as ``adjoint_fallbacks``, and the system
    solved exactly; the report then keeps the sweeps' own count and the
    residual of the iterate they stopped at, with ``converged`` and
    ``fallback`` set.  The sweeps and solves are timed under "Linear
    systems".
    """
    l = np.asarray(l, dtype=float)
    with ctx.timers.scope("Linear systems"):
        lam, rep = ica_solve(ctx, -l, EPS_T)
    if rep.converged:
        return lam, rep
    lam = ctx.solve_exact(ctx.Kcur, -l, "adjoint_fallbacks")
    return lam, IcaReport(rep.iterations, rep.residual, True, fallback=True)


def estimate_norm_B(ctx: ReanalysisContext) -> float:
    """Spectral norm of the sweep's iteration matrix M = I - F^{-1} Kcur by
    two-sided power iteration: at most NORM_B_ITERATIONS steps, stopping
    once the estimate moves by at most NORM_B_RTOL relative.

    For an exact float64 factor F of K0, M = -B with B = K0^{-1} dK, so this
    is the norm of B.  A factor demoted to float32 adds its rounding to M,
    and that rounding governs the sweep too.  Matrix-free: M v is
    v - F^{-1}(Kcur v) and M^T w is w - Kcur F^{-1} w, one product and one
    solve with the held factor as it stands each; nothing is demoted.
    """
    if not ctx.initialized:
        raise RuntimeError("context holds no factorization")
    K, solve = ctx.Kcur, ctx.factorization.solve
    v = np.random.default_rng(0).standard_normal(K.n)
    if not v.any():
        return 0.0
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(NORM_B_ITERATIONS):
        w = v - solve(K.matvec(v))                  # M v
        new_est = np.linalg.norm(w)
        z = w - K.matvec(solve(w))                  # M^T M v
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return float(new_est)
        if abs(new_est - est) <= NORM_B_RTOL * max(new_est, 1e-300):
            return float(new_est)
        est, v = new_est, z / nz
    return float(est)
