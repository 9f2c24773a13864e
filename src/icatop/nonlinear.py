"""Newton's method with Armijo line search under factorization policies.

Seven strategies control how often the tangent is factored and how often the
drifting current-matrix values are refreshed:

    N           factor at every Newton iteration (exact Newton)
    MN          factor once per equilibrium solve, never refresh the delta
    upK1        factor once per solve, refresh the delta every iteration
    upK1g       upK1 + iterative adjoint solve
    upK100      factor once per solve, refresh every 100 global iterations
    upK100g     upK100 + iterative adjoint solve
    upK03K100g  factor on every third outer iteration only, 100-period
                refresh, iterative adjoint solve

Whatever the strategy, the first five outer iterations run exact Newton and
every accepted solution satisfies the same max-norm residual tolerance; the
policies trade cost, never accuracy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import NewtonConvergenceError, NonPositiveJacobianError
from .reanalysis import ReanalysisContext, estimate_norm_B, ica_solve
from .sparse import ldlt_factor
from .timing import NullTimers


class Strategy(enum.Enum):
    N = "N"
    MN = "MN"
    UPK1 = "upK1"
    UPK1G = "upK1g"
    UPK100 = "upK100"
    UPK100G = "upK100g"
    UPK03K100G = "upK03K100g"

    @classmethod
    def from_name(cls, name: str) -> "Strategy":
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(f"unknown strategy {name!r}; expected one of "
                         f"{[m.value for m in cls]}")

    @property
    def refactor_every_newton_iter(self) -> bool:
        return _FLAGS[self][0]

    @property
    def refactor_outer_period(self) -> int:
        """Refactor at the first Newton iteration of every k-th outer iteration."""
        return _FLAGS[self][1]

    @property
    def delta_refresh_period(self):
        """Newton iterations between delta refreshes; None means never."""
        return _FLAGS[self][2]

    @property
    def adjoint_uses_ica(self) -> bool:
        return _FLAGS[self][3]


# (refactor every iter, outer period, delta period, iterative adjoint)
_FLAGS = {
    Strategy.N: (True, 1, None, False),
    Strategy.MN: (False, 1, None, False),
    Strategy.UPK1: (False, 1, 1, False),
    Strategy.UPK1G: (False, 1, 1, True),
    Strategy.UPK100: (False, 1, 100, False),
    Strategy.UPK100G: (False, 1, 100, True),
    Strategy.UPK03K100G: (False, 3, 100, True),
}


class Action(enum.Enum):
    REFACTOR = "refactor"
    REUSE_FRESH_DELTA = "reuse_fresh_delta"
    REUSE_HELD_DELTA = "reuse_held_delta"


def decide_action(strategy: Strategy, outer_iter: int, newton_iter_in_call: int,
                  global_newton_counter: int, delta_period: int = None) -> Action:
    """Pure policy table; the first-five-outer full-Newton override is applied
    by the caller."""
    if strategy.refactor_every_newton_iter:
        return Action.REFACTOR
    if newton_iter_in_call == 0 and outer_iter % strategy.refactor_outer_period == 0:
        return Action.REFACTOR
    period = strategy.delta_refresh_period
    if delta_period is not None and period is not None:
        period = delta_period
    if period is None:
        return Action.REUSE_HELD_DELTA
    if period == 1:
        return Action.REUSE_FRESH_DELTA
    if global_newton_counter % period == 0:
        return Action.REUSE_FRESH_DELTA
    return Action.REUSE_HELD_DELTA


@dataclass
class NewtonStats:
    iterations: int = 0
    factorizations: int = 0
    ica_iterations: list = field(default_factory=list)
    backtracks: int = 0
    fallbacks: int = 0
    residual_inf: float = np.inf
    converged: bool = False
    max_normB: float = None
    factorization: object = None     # linear mode keeps its factor for reuse


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


def predicted_factorizations(strategy: Strategy, newton_iters_per_outer,
                             full_newton_until: int = 5) -> int:
    """Closed-form factorization count of a zero-fallback run.

    Follows decide_action: exact Newton factors once per Newton iteration,
    the reuse strategies once per equilibrium solve that iterates at all
    (every third outer iteration for the sparsest policy), plus one direct
    adjoint factorization per objective evaluation for strategies without
    the iterative adjoint solve.
    """
    total = 0
    for outer, iters in enumerate(newton_iters_per_outer, start=1):
        if outer <= full_newton_until or strategy.refactor_every_newton_iter:
            total += iters
        elif iters >= 1 and outer % strategy.refactor_outer_period == 0:
            total += 1
    if not strategy.adjoint_uses_ica:
        total += len(newton_iters_per_outer)
    return total


def newton_solve(model, rho, p, u0_free, strategy: Strategy,
                 ctx: ReanalysisContext, outer_iter: int, *,
                 tol: float = 1e-5, max_iter: int = 50, eps_R: float = 1e-2,
                 ica_kmax: int = 10, delta_period: int = None,
                 full_newton_until: int = 5, monitor_normB: bool = False,
                 slow_rate: float = 0.7, stale_cap: int = 7, timers=None):
    """Solve the equilibrium residual to max-norm tolerance ``tol``.

    Returns (u, NewtonStats).  Raises NewtonConvergenceError when the
    iteration cap or the line-search budget is exhausted; the stats travel
    on the exception.

    Besides the residual test that guards each inexact linear solve, the
    ICA strategies carry a slow-progress guard: when two consecutive
    accepted steps contract the residual by less than ``slow_rate``, or
    when ``stale_cap`` iterations pass in one call without a fresh
    factorization, the approximation is judged too stale.  The guard
    escalates gradually: first the delta values are refreshed at the
    current state (one assembly, no factorization), and only if progress
    stays slow does the fallback refactorization fire.  Without the guard,
    a drifted reference whose delta happens to be zero would creep for
    dozens of iterations with a formally tiny linear residual.  Modified
    Newton is exempt: creeping is its definition.
    """
    timers = timers or NullTimers()
    stats = NewtonStats()
    u = np.array(u0_free, dtype=float, copy=True)
    rho = np.asarray(rho, dtype=float)
    guarded = strategy.delta_refresh_period is not None
    slow_streak = 0
    since_exact = 0
    guard_refreshed = False

    with timers.scope("RHS"):
        r = model.residual(rho, p, u)

    for it in range(max_iter):
        stats.residual_inf = float(np.abs(r).max())
        if stats.residual_inf <= tol:
            stats.converged = True
            return u, stats

        if outer_iter <= full_newton_until:
            action = Action.REFACTOR
        else:
            action = decide_action(strategy, outer_iter, it,
                                   ctx.global_newton_iters, delta_period)
        if action is not Action.REFACTOR and not ctx.initialized:
            action = Action.REFACTOR
        if action is Action.REUSE_HELD_DELTA and guarded \
                and (slow_streak >= 2 or since_exact >= stale_cap):
            stats.fallbacks += 1
            ctx.fallback_count += 1
            slow_streak = 0
            if guard_refreshed:
                action = Action.REFACTOR
            else:
                action = Action.REUSE_FRESH_DELTA
                guard_refreshed = True
                since_exact = 0
        elif action is Action.REUSE_FRESH_DELTA and guarded \
                and slow_streak >= 2:
            # fresh delta values and still stalling: the factorization
            # itself is too stale
            stats.fallbacks += 1
            ctx.fallback_count += 1
            slow_streak = 0
            action = Action.REFACTOR

        exact = action is Action.REFACTOR
        if exact:
            s, slope = _exact_step(model, rho, p, u, r, ctx, stats,
                                   outer_iter, timers)
        else:
            if action is Action.REUSE_FRESH_DELTA:
                with timers.scope("K_T"):
                    ctx.refresh_delta(model.tangent(rho, p, u))
            if monitor_normB:
                with timers.scope("Linear systems"):
                    est = estimate_norm_B(ctx)
                stats.max_normB = est if stats.max_normB is None \
                    else max(stats.max_normB, est)
            with timers.scope("Linear systems"):
                s, report = ica_solve(ctx, -r, eps_R, ica_kmax)
            stats.ica_iterations.append(report.iterations)
            slope = 2.0 * float(r @ ctx.Kcur.matvec(s)) if report.converged \
                else np.inf
            if slope >= 0.0:
                # stale approximation: refactor and take the exact step
                stats.fallbacks += 1
                ctx.fallback_count += 1
                s, slope = _exact_step(model, rho, p, u, r, ctx, stats,
                                       outer_iter, timers)
                exact = True

        def merit(alpha, _u=u):
            try:
                with timers.scope("RHS"):
                    r_trial = model.residual(rho, p, _u + alpha * s)
            except NonPositiveJacobianError:
                return np.inf, None
            return float(r_trial @ r_trial), r_trial

        alpha, r_new, backtracks = armijo_linesearch(merit, float(r @ r), slope)
        stats.backtracks += backtracks
        if alpha is None and not exact:
            # the stale direction looked like descent but was not; one more
            # chance through the exact path before giving up
            stats.fallbacks += 1
            ctx.fallback_count += 1
            s, slope = _exact_step(model, rho, p, u, r, ctx, stats,
                                   outer_iter, timers)
            alpha, r_new, backtracks = armijo_linesearch(merit, float(r @ r),
                                                         slope)
            stats.backtracks += backtracks
        if alpha is None:
            stats.residual_inf = float(np.abs(r).max())
            raise NewtonConvergenceError(
                f"line search failed at Newton iteration {it}", stats)
        contraction = np.abs(r_new).max() / max(np.abs(r).max(), 1e-300)
        if exact:
            slow_streak = 0
            since_exact = 1
            guard_refreshed = False
        else:
            slow_streak = slow_streak + 1 if contraction > slow_rate else 0
            since_exact += 1
        u += alpha * s
        r = r_new
        stats.iterations += 1
        ctx.count_newton_iteration()

    stats.residual_inf = float(np.abs(r).max())
    raise NewtonConvergenceError(
        f"no convergence within {max_iter} Newton iterations "
        f"(residual {stats.residual_inf:.3e})", stats)


def _exact_step(model, rho, p, u, r, ctx, stats, outer_iter, timers):
    """Assemble, factor, and solve exactly; resets the reuse window."""
    with timers.scope("K_T"):
        K = model.tangent(rho, p, u)
    with timers.scope("Factorizations"):
        ctx.set_reference(K, stamp=(outer_iter, ctx.global_newton_iters))
    stats.factorizations += 1
    with timers.scope("Linear systems"):
        s = ctx.solve_reference(-r)
    return s, -2.0 * float(r @ r)


def linear_equilibrium(model, rho, p, timers=None):
    """Small-displacement solve: density-only stiffness, one factorization.

    Returns (u, NewtonStats) with a stats object mirroring the nonlinear
    path (one factorization, zero Newton iterations of the outer kind).
    """
    timers = timers or NullTimers()
    stats = NewtonStats(converged=True)
    with timers.scope("K_T"):
        K = model.linear_tangent(rho, p)
    with timers.scope("Factorizations"):
        fact = ldlt_factor(K)
    stats.factorizations = 1
    stats.factorization = fact
    with timers.scope("Linear systems"):
        u = fact.solve(model.f_free)
    stats.iterations = 1
    stats.residual_inf = float(np.abs(K.matvec(u) - model.f_free).max())
    return u, stats
