"""Newton's method with Armijo line search under factorization policies.

The paper's seven strategies are the rows of ``Strategy``; each row says
how often the tangent is factored, how often the current matrix the sweeps
solve against is refreshed to the tangent at the current state, and whether
the adjoint system is solved iteratively.  One ``ReusePolicy`` per
equilibrium solve turns a row into the action of each Newton iteration;
``newton_solve`` carries out the numerics, taking every exact step down one
path, and tests the residual after its last allowed step before it gives
up.  Its iterates are element states, made by the model under its own law,
so each trial's element quantities are formed once and one solver serves
the large- and the small-displacement model alike.  Every factorization goes
through the ``ReanalysisContext``, the run's ledger, which times and counts
it, books the reason of each one off the schedule, and holds at most one;
each Newton iteration is booked there too.  A held factor that has gone
stale is refactored down one path, the step and line-search fallbacks of
``newton_solve``; the policy's slow-progress guard only refreshes the
current matrix.  Whatever the strategy, the first five outer iterations run
exact Newton and every accepted solution satisfies the same max-norm
residual tolerance; the policies trade cost, never accuracy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NewtonConvergenceError, NonPositiveJacobianError
from .reanalysis import ReanalysisContext, estimate_norm_B, ica_solve

FULL_NEWTON_UNTIL = 5   # outer iterations that always run exact Newton
RESIDUAL_TOL = 1e-5     # max-norm residual every accepted state meets
MAX_NEWTON_ITERS = 50   # Newton iterations of one equilibrium solve
SLOW_RATE = 0.7         # residual contraction the guard counts as slow
STALE_CAP = 7           # iterations since an exact step or guard refresh
ARMIJO_C1, MAX_BACKTRACKS = 1e-4, 20    # sufficient decrease; step halvings


class Strategy(enum.Enum):
    """One row per paper strategy: (name, refactor every Newton iteration,
    outer refactor period, refresh period, iterative adjoint).

    The outer period refactors at the first Newton iteration of every k-th
    outer iteration; the refresh period counts the run's Newton
    iterations, and None means the current matrix stays the factored one.
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
    ``refresh_period`` Newton iterations of the run.

    The strategies that refresh also carry a slow-progress guard: when two
    consecutive accepted steps contract the residual by less than
    SLOW_RATE, or when STALE_CAP iterations pass since the last exact step
    or guard refresh, the held current matrix is judged too stale and is
    refreshed at the current state (one assembly, no factorization),
    booked as ``guard_refreshes``.  The guard never refactors: after a
    refresh the sweep either solves the true Newton system to eps_R, or it
    fails and the step or line-search fallback refactors.  Without the
    guard, a drifted reference whose current matrix happens to be the
    factored one would creep for dozens of iterations with a formally tiny
    linear residual.  Modified Newton is exempt: creeping is its
    definition.
    """

    def __init__(self, strategy: Strategy, outer_iter: int):
        self.strategy = strategy
        self.outer_iter = outer_iter
        self.slow_streak = 0
        self.since_exact = 0

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
        if ctx.counts["newton_iters"] % s.refresh_period == 0:
            return Action.REFRESH, None
        if self.slow_streak >= 2 or self.since_exact >= STALE_CAP:
            self.slow_streak = self.since_exact = 0
            return Action.REFRESH, "guard_refreshes"
        return Action.HOLD, None

    def observe(self, exact: bool, contraction: float) -> None:
        """Record an accepted step: exact, or inexact with the given
        max-norm residual contraction."""
        if exact:
            self.slow_streak = 0
            self.since_exact = 1
        else:
            self.slow_streak = self.slow_streak + 1 if contraction > SLOW_RATE else 0
            self.since_exact += 1


@dataclass
class NewtonStats:
    iterations: int = 0
    fallbacks: int = 0     # extra factorizations; ctx.counts says why
    residual_inf: float = np.inf
    max_normB: float = None
    residual: np.ndarray = None     # the accepted state's residual


def armijo_linesearch(merit_fn, merit0: float, slope: float):
    """Backtracking search on alpha in {1, 1/2, ..., 2^-MAX_BACKTRACKS}.

    ``merit_fn(alpha)`` returns (value, payload); an infinite value marks an
    inadmissible trial (for example det(F) <= 0) and is treated like a
    failed decrease test.  Returns (alpha, payload, backtracks) or
    (None, None, backtracks) when the budget is exhausted.
    """
    alpha = 1.0
    for i in range(MAX_BACKTRACKS + 1):
        value, payload = merit_fn(alpha)
        if np.isfinite(value) and value <= merit0 + ARMIJO_C1 * alpha * slope:
            return alpha, payload, i
        alpha *= 0.5
    return None, None, MAX_BACKTRACKS


def predicted_factorizations(strategy: Strategy, newton_iters_per_outer,
                             accepted) -> int:
    """Closed-form factorization count of a zero-fallback run.

    Follows ReusePolicy: exact Newton factors once per Newton iteration,
    the reuse strategies once per equilibrium solve that iterates at all
    (every third outer iteration for the sparsest policy), plus one direct
    adjoint factorization per accepted outer iteration for strategies
    without the iterative adjoint solve; ``accepted`` holds one flag per
    outer iteration, and a rejected one forms no adjoint.  Every fallback
    adds exactly one factorization to this count.
    """
    total = 0
    for outer, (iters, ok) in enumerate(
            zip(newton_iters_per_outer, accepted, strict=True), start=1):
        if outer <= FULL_NEWTON_UNTIL or strategy.refactor_every_newton_iter:
            total += iters
        elif iters >= 1 and outer % strategy.refactor_outer_period == 0:
            total += 1
        total += ok and not strategy.adjoint_uses_ica
    return total


def newton_solve(model, rho, p, state, strategy: Strategy,
                 ctx: ReanalysisContext, outer_iter: int, *,
                 monitor_normB: bool = False):
    """Solve the equilibrium residual to max-norm tolerance RESIDUAL_TOL.

    Returns (state, NewtonStats): the last accepted trial, or ``state``
    itself, with its residual in ``stats.residual``.  Raises
    NewtonConvergenceError when MAX_NEWTON_ITERS iterations or the
    line-search budget are exhausted, or at once when a residual it would
    accept or step from is not finite; the stats travel on the exception.
    An iteration takes the exact step when the policy refactors, or when a
    reused direction was no descent direction or failed the line search.
    ``stats.fallbacks`` counts the exact steps off the strategy's schedule;
    ``ctx`` makes and counts every factorization, books the reason of each
    fallback and guard refresh, books every iteration and its time, and
    keeps the last factorization until the next replaces it.
    """
    timers = ctx.timers
    stats = NewtonStats()
    policy = ReusePolicy(strategy, outer_iter)

    with timers.scope("RHS"):
        r = model.residual(rho, p, state)

    for it in range(MAX_NEWTON_ITERS + 1):
        stats.residual_inf = float(np.abs(r).max())
        if stats.residual_inf <= RESIDUAL_TOL:
            stats.residual = r
            return state, stats
        if not np.isfinite(stats.residual_inf):
            raise NewtonConvergenceError(
                f"non-finite residual at Newton iteration {it}", stats)
        if it == MAX_NEWTON_ITERS:
            raise NewtonConvergenceError(
                f"no convergence within {it} Newton iterations "
                f"(residual {stats.residual_inf:.3e})", stats)

        action, reason = policy.decide(it, ctx)
        exact = action is Action.REFACTOR
        if not exact:
            if action is Action.REFRESH:
                with timers.scope("K_T"):
                    ctx.refresh(model.tangent(rho, p, state), reason)
            if monitor_normB:
                with timers.scope("Linear systems"):
                    est = estimate_norm_B(ctx)
                stats.max_normB = est if stats.max_normB is None \
                    else max(stats.max_normB, est)
            with timers.scope("Linear systems"):
                # an unconverged sweep is discarded: stop it once it is
                # not on course to converge
                s, report = ica_solve(ctx, -r, give_up=True)
            # the merit |r|^2 has slope 2 r^T Kcur s along s; the sweep
            # formed Kcur s for its residual
            slope = 2.0 * float(r @ report.Ks) if report.converged else np.inf
            if slope >= 0.0:
                # stale approximation: refactor and take the exact step
                exact, reason = True, "step_fallbacks"
            else:
                accepted = _line_search(model, rho, p, state, r, s, slope, ctx)
                if accepted is None:
                    # the stale direction looked like descent but was not;
                    # one more chance through the exact path
                    exact, reason = True, "linesearch_fallbacks"
        if exact:
            s, slope = _exact_step(model, rho, p, state, r, ctx, reason)
            stats.fallbacks += reason is not None
            accepted = _line_search(model, rho, p, state, r, s, slope, ctx)
        # counted even when its line search failed: its work was done
        stats.iterations += 1
        ctx.counts["newton_iters"] += 1
        if accepted is None:
            raise NewtonConvergenceError(
                f"line search failed at Newton iteration {it}", stats)
        # holding them raised peak RSS by 2.6-3.6 MiB on the 200x50 cantilever
        state.tangents = None   # a row after a rejected one forms them again
        state, r_new = accepted
        policy.observe(exact, np.abs(r_new).max()
                       / max(np.abs(r).max(), 1e-300))
        r = r_new


def _exact_step(model, rho, p, state, r, ctx, reason):
    """Assemble, factor (booked under ``reason``), and solve exactly."""
    with ctx.timers.scope("K_T"):
        K = model.tangent(rho, p, state)
    return ctx.solve_exact(K, -r, reason), -2.0 * float(r @ r)


def _line_search(model, rho, p, state, r, s, slope, ctx):
    """Armijo search along s on the merit |r|^2: the accepted (state, r),
    or None when it fails."""
    def merit(alpha):
        try:
            with ctx.timers.scope("RHS"):
                trial = model.state(state.u + alpha * s)
                r_trial = model.residual(rho, p, trial)
        except NonPositiveJacobianError:
            return np.inf, None
        return float(r_trial @ r_trial), (trial, r_trial)

    return armijo_linesearch(merit, float(r @ r), slope)[1]

