"""Newton's method with Armijo line search under factorization policies.

The paper's seven strategies are the rows of ``Strategy``; each row says how
often the tangent is factored, how often the current matrix the sweeps
solve against is refreshed to the tangent at the current state, and whether
the adjoint system is solved iteratively.  One ``ReusePolicy`` per
equilibrium solve turns a row into the action of each Newton iteration;
``newton_solve`` carries out the numerics, taking every exact step down
one path, and tests the residual after its last allowed step before it
gives up.  Every factorization goes through the ``ReanalysisContext``,
which counts it, books the reason of each one off the schedule, and holds
at most one.  Whatever the strategy, the first five outer iterations run
exact Newton and every accepted solution satisfies the same max-norm
residual tolerance; the policies trade cost, never accuracy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import NewtonConvergenceError, NonPositiveJacobianError
from .reanalysis import ReanalysisContext, estimate_norm_B, ica_solve
from .timing import NullTimers

FULL_NEWTON_UNTIL = 5   # outer iterations that always run exact Newton
SLOW_RATE = 0.7         # residual contraction the guard counts as slow
STALE_CAP = 7           # iterations since an exact step before a refresh


class Strategy(enum.Enum):
    """One row per paper strategy: (name, refactor every Newton iteration,
    outer refactor period, refresh period, iterative adjoint).

    The outer period refactors at the first Newton iteration of every k-th
    outer iteration; the refresh period counts global Newton iterations,
    and None means the current matrix stays the factored one.
    """

    N = ("N", True, 1, None, False)
    MN = ("MN", False, 1, None, False)
    UPK1 = ("upK1", False, 1, 1, False)
    UPK1G = ("upK1g", False, 1, 1, True)
    UPK100 = ("upK100", False, 1, 100, False)
    UPK100G = ("upK100g", False, 1, 100, True)
    UPK03K100G = ("upK03K100g", False, 3, 100, True)

    def __new__(cls, name, every_iter, outer_period, refresh_period,
                ica_adjoint):
        member = object.__new__(cls)
        member._value_ = name
        member.refactor_every_newton_iter = every_iter
        member.refactor_outer_period = outer_period
        member.refresh_period = refresh_period
        member.adjoint_uses_ica = ica_adjoint
        return member

    @classmethod
    def from_name(cls, name: str) -> "Strategy":
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(f"unknown strategy {name!r}; expected one of "
                         f"{[m.value for m in cls]}")


class Action(enum.Enum):
    REFACTOR = "refactor"
    REFRESH = "refresh"     # reuse the factor against a fresh tangent
    HOLD = "hold"           # reuse the factor against the held tangent


class ReusePolicy:
    """The action of each Newton iteration of one equilibrium solve.

    Refactors on the strategy's schedule, during the first outer
    iterations, and whenever the context holds no factorization; otherwise
    reuses the held factorization, refreshing the current matrix every
    ``refresh_period`` global Newton iterations.

    The strategies that refresh also carry a slow-progress guard: when two
    consecutive accepted steps contract the residual by less than
    SLOW_RATE, or when STALE_CAP held iterations pass without a fresh
    factorization, the approximation is judged too stale.  The guard
    escalates gradually: first the current matrix is refreshed at the
    current state (one assembly, no factorization), and only if progress
    stays slow does the fallback refactorization fire.  ``decide`` names
    the first reason ``guard_refreshes``, the second ``guard_fallbacks``.
    Without the guard, a drifted reference whose current matrix happens to
    be the factored one would creep for dozens of iterations with a
    formally tiny linear residual.  Modified Newton is exempt: creeping is
    its definition.
    """

    def __init__(self, strategy: Strategy, outer_iter: int):
        self.strategy = strategy
        self.outer_iter = outer_iter
        self.slow_streak = 0
        self.since_exact = 0
        self.guard_refreshed = False

    def decide(self, it: int, ctx: ReanalysisContext):
        """(action, reason) for Newton iteration ``it`` of this solve; the
        reason is None when the strategy's schedule predicts the action."""
        s = self.strategy
        if (s.refactor_every_newton_iter or self.outer_iter <= FULL_NEWTON_UNTIL
                or not ctx.initialized
                or (it == 0 and self.outer_iter % s.refactor_outer_period == 0)):
            return Action.REFACTOR, None
        if s.refresh_period is None:
            return Action.HOLD, None
        fresh = ctx.global_newton_iters % s.refresh_period == 0
        if self.slow_streak >= 2 or (not fresh and self.since_exact >= STALE_CAP):
            self.slow_streak = 0
            # a fresh tangent and still stalling: the factorization itself
            # is too stale
            if fresh or self.guard_refreshed:
                return Action.REFACTOR, "guard_fallbacks"
            self.guard_refreshed = True
            self.since_exact = 0
            return Action.REFRESH, "guard_refreshes"
        return Action.REFRESH if fresh else Action.HOLD, None

    def observe(self, exact: bool, contraction: float) -> None:
        """Record an accepted step: exact, or inexact with the given
        max-norm residual contraction."""
        if exact:
            self.slow_streak = 0
            self.since_exact = 1
            self.guard_refreshed = False
        else:
            self.slow_streak = self.slow_streak + 1 if contraction > SLOW_RATE else 0
            self.since_exact += 1


@dataclass
class NewtonStats:
    iterations: int = 0
    ica_iterations: list = field(default_factory=list)
    backtracks: int = 0
    fallbacks: int = 0     # extra factorizations; ctx.reasons says why
    residual_inf: float = np.inf
    converged: bool = False
    max_normB: float = None


def armijo_linesearch(merit_fn, merit0: float, slope: float, c1: float = 1e-4,
                      max_backtracks: int = 20):
    """Backtracking search on alpha in {1, 1/2, ..., 2^-max_backtracks}.

    ``merit_fn(alpha)`` returns (value, payload); an infinite value marks an
    inadmissible trial (for example det(F) <= 0) and is treated like a
    failed decrease test.  Returns (alpha, payload, backtracks) or
    (None, None, backtracks) when the budget is exhausted.
    """
    alpha = 1.0
    for i in range(max_backtracks + 1):
        value, payload = merit_fn(alpha)
        if np.isfinite(value) and value <= merit0 + c1 * alpha * slope:
            return alpha, payload, i
        alpha *= 0.5
    return None, None, max_backtracks


def predicted_factorizations(strategy: Strategy, newton_iters_per_outer) -> int:
    """Closed-form factorization count of a zero-fallback run.

    Follows ReusePolicy: exact Newton factors once per Newton iteration,
    the reuse strategies once per equilibrium solve that iterates at all
    (every third outer iteration for the sparsest policy), plus one direct
    adjoint factorization per objective evaluation for strategies without
    the iterative adjoint solve.  Every fallback adds exactly one
    factorization to this count.
    """
    total = 0
    for outer, iters in enumerate(newton_iters_per_outer, start=1):
        if outer <= FULL_NEWTON_UNTIL or strategy.refactor_every_newton_iter:
            total += iters
        elif iters >= 1 and outer % strategy.refactor_outer_period == 0:
            total += 1
    if not strategy.adjoint_uses_ica:
        total += len(newton_iters_per_outer)
    return total


def newton_solve(model, rho, p, u0_free, strategy: Strategy,
                 ctx: ReanalysisContext, outer_iter: int, *,
                 tol: float = 1e-5, max_iter: int = 50,
                 monitor_normB: bool = False, timers=None):
    """Solve the equilibrium residual to max-norm tolerance ``tol``.

    Returns (u, NewtonStats).  Raises NewtonConvergenceError when the
    iteration cap or the line-search budget is exhausted, or at once when
    a residual it would accept or step from is not finite; the stats
    travel on the exception.  An iteration takes the exact step when the
    policy refactors, or when a reused direction was no descent direction
    or failed the line search.  ``stats.fallbacks`` counts the exact steps
    off the strategy's schedule; ``ctx`` makes and counts every
    factorization, books the reason of each fallback and guard refresh,
    and keeps the last factorization until the next replaces it.
    """
    timers = timers or NullTimers()
    stats = NewtonStats()
    policy = ReusePolicy(strategy, outer_iter)
    u = np.array(u0_free, dtype=float, copy=True)
    rho = np.asarray(rho, dtype=float)

    with timers.scope("RHS"):
        r = model.residual(rho, p, u)

    for it in range(max_iter + 1):
        stats.residual_inf = float(np.abs(r).max())
        if stats.residual_inf <= tol:
            stats.converged = True
            return u, stats
        if not np.isfinite(stats.residual_inf):
            raise NewtonConvergenceError(
                f"non-finite residual at Newton iteration {it}", stats)
        if it == max_iter:
            raise NewtonConvergenceError(
                f"no convergence within {max_iter} Newton iterations "
                f"(residual {stats.residual_inf:.3e})", stats)

        action, reason = policy.decide(it, ctx)
        exact = action is Action.REFACTOR
        if not exact:
            if action is Action.REFRESH:
                with timers.scope("K_T"):
                    ctx.refresh(model.tangent(rho, p, u), reason)
            if monitor_normB:
                with timers.scope("Linear systems"):
                    est = estimate_norm_B(ctx)
                stats.max_normB = est if stats.max_normB is None \
                    else max(stats.max_normB, est)
            with timers.scope("Linear systems"):
                s, report = ica_solve(ctx, -r)
            stats.ica_iterations.append(report.iterations)
            # the merit |r|^2 has slope 2 r^T Kcur s along s; the sweep
            # formed Kcur s for its residual
            slope = 2.0 * float(r @ report.Ks) if report.converged else np.inf
            if slope >= 0.0:
                # stale approximation: refactor and take the exact step
                exact, reason = True, "step_fallbacks"
            else:
                alpha, r_new = _line_search(model, rho, p, u, r, s, slope,
                                            timers, stats)
                if alpha is None:
                    # the stale direction looked like descent but was not;
                    # one more chance through the exact path
                    exact, reason = True, "linesearch_fallbacks"
        if exact:
            s, slope = _exact_step(model, rho, p, u, r, ctx, timers, reason)
            stats.fallbacks += reason is not None
            alpha, r_new = _line_search(model, rho, p, u, r, s, slope,
                                        timers, stats)
        if alpha is None:
            stats.residual_inf = float(np.abs(r).max())
            raise NewtonConvergenceError(
                f"line search failed at Newton iteration {it}", stats)
        policy.observe(exact, np.abs(r_new).max()
                       / max(np.abs(r).max(), 1e-300))
        u += alpha * s
        r = r_new
        stats.iterations += 1
        ctx.global_newton_iters += 1


def _exact_step(model, rho, p, u, r, ctx, timers, reason):
    """Assemble, factor (booked under ``reason``), and solve exactly."""
    with timers.scope("K_T"):
        K = model.tangent(rho, p, u)
    with timers.scope("Factorizations"):
        ctx.set_reference(K, reason)
    with timers.scope("Linear systems"):
        s = ctx.solve_reference(-r)
    return s, -2.0 * float(r @ r)


def _line_search(model, rho, p, u, r, s, slope, timers, stats):
    """Armijo search along s on the merit |r|^2: (alpha, r_new), or
    (None, None) when it fails; the backtracks are added to ``stats``."""
    def merit(alpha):
        try:
            with timers.scope("RHS"):
                r_trial = model.residual(rho, p, u + alpha * s)
        except NonPositiveJacobianError:
            return np.inf, None
        return float(r_trial @ r_trial), r_trial

    alpha, r_new, backtracks = armijo_linesearch(merit, float(r @ r), slope)
    stats.backtracks += backtracks
    return alpha, r_new


def linear_equilibrium(model, rho, p, ctx: ReanalysisContext, timers=None):
    """Small-displacement solve: density-only stiffness, one factorization.

    The stiffness is factored into ``ctx``, where the adjoint reuses it.
    Returns (u, NewtonStats) mirroring the nonlinear path.
    """
    timers = timers or NullTimers()
    with timers.scope("K_T"):
        K = model.linear_tangent(rho, p)
    with timers.scope("Factorizations"):
        ctx.set_reference(K)
    with timers.scope("Linear systems"):
        u = ctx.solve_reference(model.f_free)
    residual = float(np.abs(K.matvec(u) - model.f_free).max())
    return u, NewtonStats(iterations=1, residual_inf=residual, converged=True)
