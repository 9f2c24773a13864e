"""Outer optimization loop: linearize, solve a box+volume LP, continue SIMP.

Each outer iteration (a row) filters the design densities and solves the
equilibrium problem with ``newton_solve`` from the last accepted row's
state, or, under the small-displacement model, by one exact Newton step
from rest.  The row is accepted when that equilibrium converged and F fell
by at least ETA times -g.d, the reduction the last accepted row's LP step d
predicted; the first row, a new penalty and a step at a move limit <=
MOVE_FLOOR need no fall.  An accepted row forms the adjoint gradient and
solves its LP.  It doubles the move limit up to ``move_limit`` when it is
the first row, when its penalty is new, or when F fell by at least ETA_GROW
times -g.d, and keeps it otherwise.  A rejected row halves the move limit
and solves the last accepted row's LP again.  The LP, a continuous knapsack
with move limits, is solved exactly by one sort; its multiplier feeds the
projected-gradient stationarity test, which stops a run early, within its
budget of rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import FeModel
from .errors import (InfeasibleSubproblemError, NewtonConvergenceError,
                     SingularMatrixError)
from .filtering import KERNELS, build_filter
from .nonlinear import NewtonStats, Strategy, newton_solve
from .reanalysis import COUNTS, FALLBACKS, ReanalysisContext
from .sensitivity import objective_gradient, solve_adjoint
from .timing import Timers

# SIMP continuation: p rises by P_STEP every P_EVERY outer iterations
P_INITIAL, P_STEP, P_EVERY, P_MAX = 1.0, 0.1, 10, 3.0
RHO_MIN = 1e-3          # lower density bound of the design box
ETA, ETA_GROW, MOVE_FLOOR = 0.01, 0.75, 1e-4   # of the acceptance rule


@dataclass
class OptimizerConfig:
    strategy: Strategy = Strategy.N
    budget: int = 100     # rows after the first, rejected rows included
    converge_tol: float = None        # if set, stop early on stationarity
    move_limit: float = 0.05          # the largest move limit of a step
    filter_kernel: str = "cone"
    monitor_normB: bool = False

    def __post_init__(self):
        if not isinstance(self.strategy, Strategy):
            raise ValueError(f"strategy must be a Strategy, "
                             f"got {self.strategy!r}")
        if self.filter_kernel not in KERNELS:
            raise ValueError(f"filter_kernel must be one of {KERNELS}, "
                             f"got {self.filter_kernel!r}")
        if not isinstance(self.monitor_normB, bool):
            raise ValueError(f"monitor_normB must be a bool, "
                             f"got {self.monitor_normB!r}")
        if type(self.budget) is not int or self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget!r}")
        # bool is an int subclass; True is not a limit or tolerance of 1
        for name in ("move_limit", "converge_tol"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, "
                                 f"got {getattr(self, name)!r}")
        if not 0.0 < self.move_limit < np.inf:
            raise ValueError(f"move_limit must be finite and > 0, "
                             f"got {self.move_limit}")
        if self.converge_tol is not None \
                and not 0.0 < self.converge_tol < np.inf:
            raise ValueError(f"converge_tol must be finite and > 0, "
                             f"got {self.converge_tol}")

    def penalty_at(self, outer_iter: int) -> float:
        step = (outer_iter - 1) // P_EVERY
        return min(P_MAX, P_INITIAL + P_STEP * step)


@dataclass
class SubproblemResult:
    rho_new: np.ndarray
    theta: float


def slp_subproblem(grad, rho, move, bounds, v, Vstar) -> SubproblemResult:
    """Exact solve of  min grad^T d  s.t.  v^T (rho + d) = Vstar, box+move.

    Component i sits at its upper limit while theta < -grad_i / v_i and at
    its lower one past it, so the volume is a step function of theta with
    one step per breakpoint.  One sort lists the steps; theta is the first
    breakpoint past which the volume is below Vstar.  Ties (grad_i + theta
    v_i zero to roundoff) start at rho and take up the leftover volume in
    index order, so the equality holds to roundoff.
    """
    grad = np.asarray(grad, dtype=float)
    rho = np.asarray(rho, dtype=float)
    v = np.asarray(v, dtype=float)
    lo = np.maximum(bounds[0], rho - move)
    hi = np.minimum(bounds[1], rho + move)
    vol_lo, vol_hi = float(v @ lo), float(v @ hi)
    slack = 1e-12 * max(abs(Vstar), 1.0)
    if not (vol_lo - slack <= Vstar <= vol_hi + slack):
        raise InfeasibleSubproblemError(
            f"target volume {Vstar} outside [{vol_lo}, {vol_hi}]")

    b = -grad / v
    order = np.argsort(b, kind="stable")
    # the volume lost once the k+1 smallest breakpoints are passed
    drop = np.cumsum((v * (hi - lo))[order])
    k = min(np.searchsorted(drop, vol_hi - Vstar, side="right"), b.size - 1)
    theta = b[order[k]]
    c = grad + theta * v
    atol = 4.0 * np.finfo(float).eps * (np.abs(grad) + abs(theta) * v)
    ties = np.abs(c) <= atol
    rho_new = np.where(ties, rho, np.where(c > 0.0, lo, hi))

    residual = Vstar - float(v @ rho_new)
    if abs(residual) > slack:
        for i in np.flatnonzero(ties):
            if residual > 0.0:
                step = min(residual / v[i], hi[i] - rho_new[i])
            else:
                step = max(residual / v[i], lo[i] - rho_new[i])
            rho_new[i] += step
            residual -= v[i] * step
            if abs(residual) <= slack:
                break
    if abs(residual) > 1e-10 * max(abs(Vstar), 1.0):
        raise InfeasibleSubproblemError(
            f"volume residual {residual:.3e} after tie resolution")
    return SubproblemResult(rho_new, float(theta))


def projected_gradient_norm(rho, grad, theta, bounds, v) -> float:
    """Max-norm of P_X(rho - grad(Lagrangian)) - rho on the box X."""
    rho = np.asarray(rho, dtype=float)
    gl = np.asarray(grad, dtype=float) + theta * np.asarray(v, dtype=float)
    projected = np.clip(rho - gl, bounds[0], bounds[1])
    return float(np.abs(projected - rho).max())


@dataclass
class RunHistory:
    """Per-outer-iteration record of one optimization run."""

    problem: str
    strategy: str
    mesh: tuple
    objective: list = field(default_factory=list)
    newton_iters: list = field(default_factory=list)
    factorizations: list = field(default_factory=list)
    ica_iters: list = field(default_factory=list)
    fallbacks: list = field(default_factory=list)     # sum of the FALLBACKS
    # one list per name in REASONS
    step_fallbacks: list = field(default_factory=list)
    linesearch_fallbacks: list = field(default_factory=list)
    adjoint_fallbacks: list = field(default_factory=list)
    guard_refreshes: list = field(default_factory=list)
    residual_inf: list = field(default_factory=list)    # NaN: failed solve
    # lam^T r, to first order the exact objective minus F; None: rejected
    objective_error: list = field(default_factory=list)
    gp_norm: list = field(default_factory=list)         # None: rejected row
    accepted: list = field(default_factory=list)
    move_limit: list = field(default_factory=list)  # of the row's LP step
    penalty: list = field(default_factory=list)
    volume: list = field(default_factory=list)
    max_normB: list = field(default_factory=list)
    times: list = field(default_factory=list)     # dict per iteration
    rho_design: np.ndarray = None
    rho_phys: np.ndarray = None
    converged: bool = False
    abort: dict = None    # what ended it: {"error", "message", "row"}
    timing_table: dict = field(default_factory=dict)

    @property
    def aborted(self) -> bool:
        return self.abort is not None

    @property
    def iterations(self) -> int:
        return len(self.objective)

    def final(self, name: str):
        """Column ``name`` on the last accepted row."""
        return getattr(self, name)[-1 - self.accepted[::-1].index(True)]

    @property
    def final_objective(self) -> float:
        return self.final("objective")

    @property
    def max_rel_objective_error(self):
        """Largest |lam^T r| / |F| over the accepted rows with F != 0, or
        None when there is none."""
        return max((abs(e / F) for e, F in zip(self.objective_error,
                                               self.objective)
                    if e is not None and F != 0.0), default=None)

    def total(self, name: str) -> int:
        return int(sum(getattr(self, name)))


def optimize(problem, config: OptimizerConfig) -> RunHistory:
    """Run the outer loop on a benchmark problem.

    ``problem`` carries the mesh, loads, material, volume fraction, filter
    radius, and objective selector (see the problem builders).  With a
    budget of B, the loop makes at most B+1 rows, rejected ones included;
    with a convergence tolerance it stops early, once an accepted row's
    projected-gradient norm falls below it.  The run returns the last accepted
    design, aborted or not.  Three errors abort it: SingularMatrixError (a
    singular factorization, in the equilibrium or the adjoint),
    NewtonConvergenceError (a failed equilibrium on the first row or at a
    move limit <= MOVE_FLOOR; elsewhere it rejects the row) and
    FloatingPointError (a non-finite design gradient).  The history's
    ``abort`` then holds the error's class name, message and row, and
    ``aborted`` reads True.  Every other error propagates.  Raises
    ValueError up front when the mesh leaves no free DOF.
    """
    problem.require_free_dofs()
    mesh = problem.mesh
    model = FeModel(mesh, problem.loads, problem.material, problem.linear)
    filt = build_filter(mesh, problem.filter_radius_elements, config.filter_kernel)
    l_free = mesh.gather(problem.output_selector())

    v = model.element_volumes
    v_eff = filt.backpropagate(v)     # design-space volume coefficients
    Vstar = problem.volume_fraction * float(v.sum())
    bounds = (RHO_MIN, 1.0)

    rho_design = np.full(mesh.n_el, problem.volume_fraction)
    state = model.state(np.zeros(mesh.n_free))
    ctx = ReanalysisContext()
    timers = ctx.timers
    # A small-strain row is exact Newton from rest whatever the strategy:
    # one exact step, whose float64 factor of the u-independent tangent
    # then solves the adjoint exactly too.  Under a reuse strategy a row
    # off the refactor schedule would hold a stale factor, already demoted
    # to float32.
    strategy = Strategy.N if problem.linear else config.strategy

    def adjoint(rho_phys, p, new):
        if not problem.linear:
            return solve_adjoint(model, rho_phys, p, new, l_free, strategy,
                                 ctx)
        with timers.scope("Linear systems"):
            return ctx.factorization.solve(-l_free)

    history = RunHistory(problem.name, config.strategy.value, (mesh.nx, mesh.ny))

    # the last accepted row: its design, design gradient, objective and
    # penalty; ``state`` is its equilibrium
    rho_acc, grad_acc, F_acc, p_acc = rho_design, None, None, None
    move = config.move_limit    # of the LP step that made rho_design
    pred = 0.0                  # -g.d of the last accepted row's LP step

    try:
        for t in range(1, config.budget + 2):
            p = config.penalty_at(t)
            before, booked = timers.table(), ctx.counts.copy()

            with timers.scope("Filtering"):
                rho_phys = filt.apply(rho_design)

            try:
                start = model.state(np.zeros(mesh.n_free)) \
                    if problem.linear else state
                new, nstats = newton_solve(
                    model, rho_phys, p, start, strategy, ctx, t,
                    monitor_normB=config.monitor_normB)
                F = float(l_free @ new.u)
            except NewtonConvergenceError:
                if grad_acc is None or move <= MOVE_FLOOR:
                    raise
                new, nstats, F = None, NewtonStats(residual_inf=np.nan), np.nan

            restart = grad_acc is None or p != p_acc
            accepted = new is not None and (
                restart or move <= MOVE_FLOOR or F_acc - F >= ETA * pred)
            if accepted:
                grow = restart or F_acc - F >= ETA_GROW * pred
                lam = adjoint(rho_phys, p, new)
                with timers.scope("grad F(rho)"):
                    grad_phys = objective_gradient(model, rho_phys, p, new,
                                                   lam)
                    grad_design = filt.backpropagate(grad_phys)
                if not np.isfinite(grad_design).all():
                    raise FloatingPointError("non-finite design gradient")
                error = float(lam @ nstats.residual)
                rho_acc, grad_acc, F_acc, p_acc = rho_design, grad_design, F, p
                state = new     # its forces and tangents start the next row
                step = min(config.move_limit, 2.0 * move) if grow else move
            else:
                step, error = 0.5 * move, None

            with timers.scope("Subproblem solving"):
                sub = slp_subproblem(grad_acc, rho_acc, step, bounds, v_eff,
                                     Vstar)
            gp = projected_gradient_norm(rho_acc, grad_acc, sub.theta, bounds,
                                         v_eff) if accepted else None

            row = ctx.counts - booked
            history.objective.append(F)
            for name in COUNTS:
                getattr(history, name).append(row[name])
            history.fallbacks.append(sum(row[name] for name in FALLBACKS))
            history.residual_inf.append(nstats.residual_inf)
            history.objective_error.append(error)
            history.gp_norm.append(gp)
            history.accepted.append(accepted)
            history.move_limit.append(move)
            history.penalty.append(p)
            history.volume.append(float(v @ rho_phys))
            history.max_normB.append(nstats.max_normB)
            history.times.append(Timers.delta(timers.table(), before))

            if accepted and config.converge_tol is not None \
                    and gp < config.converge_tol:
                history.converged = True
                break
            rho_design, move = sub.rho_new, step
            if accepted:
                pred = -float(grad_acc @ (rho_design - rho_acc))
    except (SingularMatrixError, NewtonConvergenceError,
            FloatingPointError) as exc:
        history.abort = {"error": type(exc).__name__, "message": str(exc),
                         "row": t}

    history.rho_design = rho_acc
    history.rho_phys = filt.apply(rho_acc)
    history.timing_table = timers.table()
    return history
