"""Outer optimization loop: linearize, solve a box+volume LP, continue SIMP.

Each outer iteration filters the design densities, solves the equilibrium
problem (warm started), forms the adjoint gradient, and updates the design
through an exact continuous-knapsack subproblem with move limits.  The
subproblem's multiplier feeds the projected-gradient stationarity test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import FeModel
from .errors import (InfeasibleSubproblemError, NewtonConvergenceError,
                     SingularMatrixError)
from .filtering import build_filter
from .nonlinear import Strategy, linear_equilibrium, newton_solve
from .reanalysis import ReanalysisContext
from .sensitivity import (objective_gradient, objective_gradient_linear,
                          solve_adjoint)
from .timing import CATEGORIES, Timers


@dataclass
class OptimizerConfig:
    strategy: Strategy = Strategy.N
    budget: int = 100                 # outer iterations with a design update
    converge_tol: float = None        # if set, stop on the stationarity test
    move_limit: float = 0.05
    rho_min: float = 1e-3
    p_initial: float = 1.0
    p_step: float = 0.1
    p_every: int = 10
    p_max: float = 3.0
    newton_tol: float = 1e-5
    newton_cap: int = 50
    eps_R: float = 1e-2
    eps_T: float = 1e-8
    ica_kmax: int = 10
    delta_period: int = 100
    full_newton_until: int = 5
    filter_kernel: str = "cone"
    monitor_normB: bool = False
    hard_cap: int = 100000            # safety bound in convergence mode
    # convergence mode damps the move limit when the objective fails to
    # decrease; a fixed move limit lets the bang-bang updates cycle forever
    move_shrink: float = 0.5
    move_grow: float = 1.1
    move_floor: float = 1e-4

    def penalty_at(self, outer_iter: int) -> float:
        step = (outer_iter - 1) // self.p_every
        return min(self.p_max, self.p_initial + self.p_step * step)

    def max_outer(self) -> int:
        if self.converge_tol is not None:
            return self.budget if self.budget is not None else self.hard_cap
        return self.budget


@dataclass
class SubproblemResult:
    rho_new: np.ndarray
    theta: float


def slp_subproblem(grad, rho, move, bounds, v, Vstar) -> SubproblemResult:
    """Exact solve of  min grad^T d  s.t.  v^T (rho + d) = Vstar, box+move.

    Bisection on the volume multiplier theta: for fixed theta each component
    sits at its lower or upper limit depending on the sign of
    grad_i + theta v_i, with ties kept at d_i = 0.  The tie group absorbs
    the leftover volume so the equality holds to roundoff.
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

    breakpoints = -grad / v
    t0 = float(breakpoints.min()) - 1.0
    t1 = float(breakpoints.max()) + 1.0

    def bang(theta):
        c = grad + theta * v
        return np.where(c > 0.0, lo, np.where(c < 0.0, hi, rho))

    # invariant: volume(t0) >= Vstar >= volume(t1)
    for _ in range(200):
        if (t1 - t0) <= 1e-16 * (1.0 + abs(t0) + abs(t1)):
            break
        mid = 0.5 * (t0 + t1)
        if float(v @ bang(mid)) >= Vstar:
            t0 = mid
        else:
            t1 = mid

    theta = t1
    c = grad + theta * v
    atol = 4.0 * np.finfo(float).eps * (np.abs(grad) + abs(theta) * v) \
        + (t1 - t0) * v
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
    fallbacks: list = field(default_factory=list)
    residual_inf: list = field(default_factory=list)
    gp_norm: list = field(default_factory=list)
    penalty: list = field(default_factory=list)
    volume: list = field(default_factory=list)
    max_normB: list = field(default_factory=list)
    times: list = field(default_factory=list)     # dict per iteration
    rho_design: np.ndarray = None
    rho_phys: np.ndarray = None
    converged: bool = False
    aborted: bool = False
    timing_table: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return len(self.objective)

    @property
    def final_objective(self) -> float:
        return self.objective[-1]

    def total(self, name: str) -> int:
        return int(sum(getattr(self, name)))


def optimize(problem, config: OptimizerConfig) -> RunHistory:
    """Run the outer loop on a benchmark problem.

    ``problem`` carries the mesh, loads, material, volume fraction, filter
    radius, and objective selector (see the problem builders).  With a
    budget of B, the objective is evaluated B+1 times and the design updated
    B times; in convergence mode the loop stops once the projected-gradient
    norm falls below the tolerance.
    """
    mesh = problem.mesh
    model = FeModel(mesh, problem.loads, problem.material)
    filt = build_filter(mesh, problem.filter_radius_elements, config.filter_kernel)
    l_free = mesh.gather(problem.output_selector(mesh))

    v = model.element_volumes
    v_eff = filt.backpropagate(v)     # design-space volume coefficients
    Vstar = problem.volume_fraction * float(v.sum())
    bounds = (config.rho_min, 1.0)

    rho_design = np.full(mesh.n_el, problem.volume_fraction)
    u = np.zeros(mesh.n_free)
    ctx = ReanalysisContext()
    timers = Timers()
    history = RunHistory(problem.name, config.strategy.value, (mesh.nx, mesh.ny))

    move = config.move_limit
    retried = False
    prev = None     # (rho_design, grad_design) of the last accepted iterate
    max_outer = config.max_outer()

    t = 0
    while t < max_outer + 1:
        t += 1
        p = config.penalty_at(t)
        before = timers.snapshot()

        with timers.scope("Filtering"):
            rho_phys = filt.apply(rho_design)

        try:
            if problem.linear:
                u_new, nstats = linear_equilibrium(model, rho_phys, p, timers)
            else:
                u_new, nstats = newton_solve(
                    model, rho_phys, p, u, config.strategy, ctx, t,
                    tol=config.newton_tol, max_iter=config.newton_cap,
                    eps_R=config.eps_R, ica_kmax=config.ica_kmax,
                    delta_period=config.delta_period,
                    full_newton_until=config.full_newton_until,
                    monitor_normB=config.monitor_normB, timers=timers)
        except SingularMatrixError:
            return _aborted(history, rho_design, filt, timers)
        except NewtonConvergenceError:
            if retried or prev is None:
                return _aborted(history, rho_design, filt, timers)
            # back off once: halve the move limit and redo the last update
            retried = True
            move *= 0.5
            rho_prev, grad_prev = prev
            sub = slp_subproblem(grad_prev, rho_prev, move, bounds, v_eff, Vstar)
            rho_design = sub.rho_new
            t -= 1
            continue

        F = float(l_free @ u_new)

        if problem.linear:
            # the equilibrium factorization serves the adjoint as well
            with timers.scope("Linear systems"):
                lam = nstats.factorization.solve(-l_free)
            gradient = objective_gradient_linear
            adj_factored = adj_fallback = False
        else:
            try:
                adj = solve_adjoint(model, rho_phys, p, u_new, l_free,
                                    config.strategy, ctx, eps_T=config.eps_T,
                                    k_max=config.ica_kmax, timers=timers)
            except SingularMatrixError:
                return _aborted(history, rho_design, filt, timers)
            lam = adj.lam
            gradient = objective_gradient
            adj_factored, adj_fallback = adj.factored, adj.fallback
        with timers.scope("grad F(rho)"):
            grad_phys = gradient(model, rho_phys, p, u_new, lam)
            grad_design = filt.backpropagate(grad_phys)

        with timers.scope("Subproblem solving"):
            sub = slp_subproblem(grad_design, rho_design, move, bounds,
                                 v_eff, Vstar)
        gp = projected_gradient_norm(rho_design, grad_design, sub.theta,
                                     bounds, v_eff)

        after = timers.snapshot()
        history.objective.append(F)
        history.newton_iters.append(nstats.iterations)
        history.factorizations.append(
            nstats.factorizations + (1 if adj_factored else 0))
        history.ica_iters.append(int(sum(nstats.ica_iterations)))
        history.fallbacks.append(nstats.fallbacks + (1 if adj_fallback else 0))
        history.residual_inf.append(nstats.residual_inf)
        history.gp_norm.append(gp)
        history.penalty.append(p)
        history.volume.append(float(v @ rho_phys))
        history.max_normB.append(nstats.max_normB)
        history.times.append(Timers.delta(after, before))

        u = u_new
        if config.converge_tol is not None and gp < config.converge_tol:
            history.converged = True
            break
        if t == max_outer + 1:
            break
        if config.converge_tol is not None and len(history.objective) >= 2:
            if history.objective[-1] > history.objective[-2]:
                move = max(config.move_floor, move * config.move_shrink)
                # redo the update from the current design with the tighter box
                sub = slp_subproblem(grad_design, rho_design, move, bounds,
                                     v_eff, Vstar)
            else:
                move = min(config.move_limit, move * config.move_grow)
        prev = (rho_design.copy(), grad_design)
        rho_design = sub.rho_new
        retried = False

    return _finished(history, rho_design, filt, timers)


def _finished(history: RunHistory, rho_design, filt, timers) -> RunHistory:
    history.rho_design = rho_design
    history.rho_phys = filt.apply(rho_design)
    history.timing_table = timers.table()
    return history


def _aborted(history: RunHistory, rho_design, filt, timers) -> RunHistory:
    """Typed abort: the history so far, flagged, with the last design."""
    history.aborted = True
    return _finished(history, rho_design, filt, timers)
